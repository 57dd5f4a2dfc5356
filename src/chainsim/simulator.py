"""Cycle-level simulation of the PE chain.

Every layer runs as its polyphase decomposition (layers.polyphase), and
iMemory holds one decimated map per (image, sub-channel), e + k - 1
pixels square, with every pad 0.  One column-wise scan, built and
validated once per layer in strip coordinates, serves every row group and
phase: validate_schedule alone resolves the register timing and leaves
each window's operands as strip offsets a * strip_cols + b, so a row
group is only a base address into each map.  A pass replays the scan for
one sub-channel while every active primitive computes a different output
channel from the same broadcast feed stream against its stationary
weights.  Row groups place the scan only for events and traces:
_pass_loop counts each pass's events in the chip's pass order, and extra
MAC pipeline stages only delay the emission cycle, never values or rates.

Values come per phase, over whole maps, from one of two kernels
(datapath).  When every output channel meets |bias << f| + max|x| *
sum|w| <= acc_max (overflow_free), no partial or running sum leaves the
accumulator in any order, so no clamp can fire, and row_pass sums each
band of output rows in one product per primitive, sub-channel and kernel
row.  Other data takes clamp_pass, which multiply-accumulates in PE
order, the chain's cycle order, clamping after every step, as the oracle
does.  Both place each PE's tap by the validated operands of the window
at output (0, 0), and read weights from the kernel payload at each
phase's real taps only.  oMemory is one list of plain accumulators per
(image, output channel), in ofmap order as iMemory's maps are: each
starts at the channel's clamped bias << f, takes its window sums in
ascending sub-channel order, and drains once per layer, rescaled and
freed in turn.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from .datapath import clamp_pass, fill_imem, row_pass
from .fixedpoint import acc_to_samples, clamp_acc, overflow_free
from .layers import LayerParams, phase_rows, phase_side, phase_taps
from .mapping import ChainConfig
from .scheduler import DUAL, build_schedule, pass_trace, row_groups, validate_schedule
from .tensors import SampleTensor
from .tiling import TilingPlan, plan_tiling


class SimulationFault(RuntimeError):
    """A group schedule failed validation, so the chain cannot replay it."""


@dataclass
class EventCounters:
    """Raw memory and arithmetic event counts."""

    macs: int = 0
    dummy_macs: int = 0
    imem_reads: int = 0
    kmem_reads: int = 0
    kmem_writes: int = 0
    omem_reads: int = 0
    omem_writes: int = 0
    dram_ifmap_reads: int = 0
    dram_kernel_reads: int = 0
    dram_ofmap_writes: int = 0
    overflow_events: int = 0


@dataclass
class CycleCounts:
    kernel_load: int = 0
    compute: int = 0
    drain: int = 0

    @property
    def total(self) -> int:
        return self.kernel_load + self.compute + self.drain


@dataclass
class LayerRun:
    ofmaps: SampleTensor
    cycles: CycleCounts
    counters: EventCounters
    first_output_cycle: int

    @property
    def compute_spans(self) -> int:
        """Emission-span cycles, the temporal-utilization denominator."""
        return self.cycles.compute

    @property
    def refeed_count(self) -> int:
        """Always 0: the closed-form schedules feed every strip pixel once."""
        return 0


# A layer's validated scan and the tables its passes read, derived once per
# layer by _layer_scan.  groups is kept only for a cycle trace
_Scan = namedtuple("_Scan", "s groups real held real_windows imem_reads dummy_macs "
                            "first_output_cycle")


def _layer_scan(p, plan, cfg, mode, traced) -> _Scan:
    """Build and validate the layer's one scan, then derive from it the
    tables that every pass reads."""
    t = phase_side(p)
    taps = [phase_taps(p, a) for a in range(t)]
    groups = row_groups(p)
    s = build_schedule(groups[0], p, mode)
    rep = validate_schedule(s, p)
    if not rep.ok:
        raise SimulationFault("scan schedule failed validation: %s" % rep.violations[0])
    # the scan's timing, the same at every placement
    k, kk = s.k, s.kk
    real = [phase_rows(p, a) for a in range(t)]
    # the operands of the scan's window at output (0, 0), as strip offsets in PE order
    j0 = next(j for j, o in enumerate(s.outputs) if o.row == o.col == 0) * kk
    window = s.operands[j0:j0 + kk]
    # PE pe holds window position (i, j) = (pe % k, pe // k), column-major, and
    # in phase a*t + b the kernel tap (stride*i + a, stride*j + b).  Per phase,
    # in PE order: each PE whose tap lies in the kernel, not past it, as its
    # operand's map offset and the tap's offset in an [i][j] kernel
    held = [[(window[pe], (p.stride * (pe % k) + a) * p.k + p.stride * (pe // k) + b)
             for pe in range(kk) if pe % k < taps[a] and pe // k < taps[b]]
            for a in range(t) for b in range(t)]
    # per row group, its windows on real output rows
    real_windows = [min(k, p.e - g * k) * p.e for g in range(plan.num_row_groups)]
    # per (phase column offset b, strip row): the scan feeds on a real column of b
    fed = [[0] * s.strip_rows for _ in range(t)]
    for f in s.scan:
        for b in range(t):
            fed[b][f.a] += f.b in real[b]
    # per (row group, phase a*t + b): the scan feeds that land on real pixels, those
    # on the strip rows g*k + row in real[a], and the dummy MACs, all of a dummy
    # window's and a real window's on the zero taps
    imem_reads = [[sum(fed[b][max(0, real[a].start - g * k):max(0, real[a].stop - g * k)])
                   for a in range(t) for b in range(t)] for g in range(plan.num_row_groups)]
    dummy_macs = [[(len(s.outputs) - rw) * kk + rw * (kk - taps[a] * taps[b])
                   for a in range(t) for b in range(t)] for rw in real_windows]
    # the first pass follows the first phase's kernel load, and row 0 of
    # its row group is real; the window's sum then drains down the chain
    first_output_cycle = (plan.phases[0].kernels * kk + s.outputs[0].cycle
                          + (kk - 1) + (cfg.pipeline_stages - 1))
    return _Scan(s, groups if traced else None, real, held, real_windows, imem_reads,
                 dummy_macs, first_output_cycle)


def _pass_loop(p, sc, tiles, subs, first, cycles, counters, cycle_trace) -> None:
    """Count the events and cycles of a phase's passes in the chip's pass
    order, (tile, image, row group, resident sub-channel), and trace each
    on request; values come from the phase's kernel call.  subs holds each
    sub-channel's (c, phase a*t + b, kernel offset), first the filter
    group's first c."""
    s, t = sc.s, phase_side(p)
    # the real pixels of the resident sub-channels' decimated maps: one iMemory fill
    fill = sum(len(sc.real[ph // t]) * len(sc.real[ph % t]) for _, ph, _ in subs)
    for tile in tiles:
        prims = len(tile)
        for _ in range(p.n):
            # one DRAM streaming of the phase's resident sub-channels per
            # (m-tile, image), decimated into iMemory, which provides reuse
            # within the sweep
            counters.dram_ifmap_reads += fill
            for g, rw in enumerate(sc.real_windows):
                for c, ph, _ in subs:
                    if cycle_trace is not None:
                        pass_trace(s, sc.groups[g * t * t + ph], tile, cycles.total, cycle_trace)
                    counters.macs += prims * len(s.operands)
                    counters.dummy_macs += prims * sc.dummy_macs[g][ph]
                    counters.imem_reads += sc.imem_reads[g][ph]
                    counters.kmem_reads += prims * s.kk
                    # oMemory is written once per real window and primitive, and
                    # read back except at the filter group's first sub-channel,
                    # where the bias stands in
                    counters.omem_writes += prims * rw
                    if c != first:
                        counters.omem_reads += prims * rw
                    cycles.compute += s.emission_span
                    cycles.drain += s.span_cycles - s.emission_span


def run_layer(p: LayerParams, ifmaps: SampleTensor, kernels: SampleTensor,
              bias: SampleTensor, cfg: ChainConfig, mode: str = DUAL,
              cycle_trace: list | None = None,
              plan: TilingPlan | None = None) -> LayerRun:
    """Execute one layer on the chain and return its bit-exact output maps
    together with cycle and memory-event counts.  Its stages: the plan
    check, _layer_scan, fill_imem, per phase the kernel load, one kernel
    call (row_pass, or clamp_pass on data that fails overflow_free) and
    _pass_loop, and the drain.

    cycle_trace, when given a list, receives one line per compute cycle per
    active primitive (cycle, phase, feeds, output tag); intended for tiny
    layers only.  plan, when given, must be the one plan_tiling(p, cfg)
    makes."""
    p.check_tensors(ifmaps, kernels, bias)
    if plan is None:
        plan = plan_tiling(p, cfg)
    elif plan != plan_tiling(p, cfg):
        raise ValueError("plan was made for another layer or chain")
    sc = _layer_scan(p, plan, cfg, mode, cycle_trace is not None)
    q, t = plan.layer, phase_side(p)
    # iMemory, filled once per layer
    imem = fill_imem(p, ifmaps, sc.real, q.h)
    fmt, kernel = ifmaps.fmt, (row_pass if overflow_free(ifmaps, kernels, bias) else clamp_pass)
    ee = p.e * p.e
    # each output channel's bias, clamped into the accumulator as the oracle does:
    # one overflow event per output sample whose seed clamps
    seeds = [clamp_acc(bias.at(m) << fmt.frac_bits, fmt) for m in range(p.m)]
    cycles = CycleCounts()
    counters = EventCounters(overflow_events=p.n * ee * sum(c for _, c in seeds))
    # oMemory: one list of accumulators per (image n, output channel m), in
    # output order, at n * p.m + m
    omem = [[seeds[m][0]] * ee for n in range(p.n) for m in range(p.m)]
    # output channel m's kernels start at m * step in the payload, each size long
    kpay, size = kernels.payload, p.k * p.k
    for phase_plan in plan.phases:
        # the phase's weights stream down the chain, one weight per cycle
        loaded = phase_plan.kernels * sc.s.kk
        cycles.kernel_load += loaded
        counters.kmem_writes += loaded
        counters.dram_kernel_reads += loaded
        # per resident sub-channel: its index, its phase a*t + b and the
        # offset of its kernel in an output channel's kernels
        first = q.input_channels_of_group(phase_plan.filter_group).start
        subs = [(c, c % (t * t), (c - first) // (t * t) * size) for c in phase_plan.c_range]
        counters.overflow_events += kernel(
            [[imem[n * q.c + c] for c, _, _ in subs] for n in range(p.n)],
            [omem[n * p.m:(n + 1) * p.m] for n in range(p.n)], phase_plan.tiles,
            [(kb, sc.held[ph]) for _, ph, kb in subs], kpay, p.c_per_group * size, q.h, p.e,
            q.k, fmt)
        _pass_loop(p, sc, phase_plan.tiles, subs, first, cycles, counters, cycle_trace)

    # drain every accumulated window once per layer, in ofmap order, each
    # (image, output channel) rescaled in one batch and freed as it goes
    out_payload = []
    for acc in omem:
        out_payload += acc_to_samples(acc, fmt)
        acc.clear()
    counters.dram_ofmap_writes += len(out_payload)
    cycles.drain += cfg.pipeline_stages - 1
    return LayerRun(ofmaps=SampleTensor(p.ofmap_dims(), out_payload, fmt), cycles=cycles,
                    counters=counters, first_output_cycle=sc.first_output_cycle)
