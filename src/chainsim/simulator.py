"""Cycle-level simulation of the PE chain.

Every layer runs as its polyphase decomposition (layers.polyphase), and
iMemory holds one decimated map per (image, sub-channel), strip_cols
pixels wide, with every pad 0.  One column-wise scan, built and validated
once per layer in strip coordinates, serves every row group and phase:
validate_schedule alone resolves the register timing and leaves each
window's operands as strip offsets a * strip_cols + b, which are iMemory
offsets from the strip's top-left pixel, so a row group is only a base
address into each map.  One pass replays the scan for one sub-channel
while every active primitive computes a different output channel from
the same broadcast feed stream against its stationary weights,
multiply-accumulating in PE order, which is the chain's cycle order, and
clamping after every step.  oMemory is one packed accumulator per (image,
tile, output position), one accumulator_bits lane per primitive, offset
by -acc_min so that it never borrows from the next: it starts at the
clamped bias << f, every pass adds its window sums in ascending
sub-channel order, and it drains once per layer.  Event counts follow
from the scan; extra MAC pipeline stages only delay the emission cycle,
never values or rates.

Weights come straight from the kernel payload, at each phase's real taps
only: a tile is a run of output channels, so a tap's weights across it are
one strided slice.  When every output channel meets |bias << f| + max|x|
* sum|w| <= acc_max (overflow_free), no partial or running sum leaves the
accumulator in any order, so no clamp can fire, and every tile takes the
row kernel (datapath.row_pass): per primitive, sub-channel, kernel row and
band of output rows, one product of the band's stacked iMemory rows with
the primitive's sub-kernel row, whose lanes are the band's window sums.
Other data takes the clamp-per-step pass (_run_pass), as the oracle does.
The PE that holds each (row, column) of a sub-kernel comes from the
validated operand table.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from .datapath import drain_lanes, fill_imem, row_pass
from .fixedpoint import clamp_acc, overflow_free, pack_lanes
from .layers import LayerParams, phase_rows, phase_side, phase_taps
from .mapping import ChainConfig
from .scheduler import (DUAL, build_schedule, gather, pass_trace, row_groups,
                        validate_schedule, window_gathers)
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


def _run_pass(gets, strip, weights, fmt, acc, out) -> int:
    """Replay a row group's real windows (each one's operand gather from
    the strip, in output order from oMemory offset out) on one
    sub-channel, clamping after every step, fold each window's partials
    into the lanes of its packed oMemory accumulator and return the number
    of overflow events."""
    acc_min, acc_max = fmt.acc_min, fmt.acc_max
    bits = fmt.accumulator_bits
    mask = (1 << bits) - 1
    overflow = 0
    for j, get in enumerate(gets, out):
        vals = get(strip)
        for q, wq in enumerate(weights):
            part = 0
            for v, wt in zip(vals, wq):
                if v:
                    part += v * wt
                    if part > acc_max or part < acc_min:
                        part, _ = clamp_acc(part, fmt)  # saturate or wrap per format
                        overflow += 1
            held = ((acc[j] >> q * bits) & mask) + acc_min
            total = held + part
            if total > acc_max or total < acc_min:
                total, _ = clamp_acc(total, fmt)
                overflow += 1
            acc[j] += (total - held) << q * bits   # the lane stays in range: no borrow
    return overflow


# A layer's validated scan and the tables its passes read, derived once per
# layer by _layer_scan; tables[a*t + b] is phase (a, b)'s window gathers,
# built on first use by the clamp-per-step pass.  groups is kept only for a
# cycle trace
_Scan = namedtuple("_Scan", "s groups window real starts held real_windows imem_reads "
                            "dummy_macs first_output_cycle tables")


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
    # PE pe holds window position (i, j) = (pe % k, pe // k), column-major, and
    # in phase a*t + b the kernel tap (stride*i + a, stride*j + b).  Per phase:
    # each PE whose tap lies in the kernel, not past it, to the tap's offset
    # in an [i][j] kernel
    held = [{pe: (p.stride * (pe % k) + a) * p.k + p.stride * (pe // k) + b for pe in range(kk)
             if pe % k < taps[a] and pe // k < taps[b]} for a in range(t) for b in range(t)]
    # the scan's windows in output order x*e + y from a row group's first
    # output, so that a row group's real windows are a prefix, and their count
    starts = [j * kk for _, j in sorted((o.row * p.e + o.col, j)
                                        for j, o in enumerate(s.outputs))]
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
    dummy_macs = [[(len(starts) - rw) * kk + rw * (kk - taps[a] * taps[b])
                   for a in range(t) for b in range(t)] for rw in real_windows]
    # the first pass follows the first phase's kernel load, and row 0 of
    # its row group is real; the window's sum then drains down the chain
    first_output_cycle = (plan.phases[0].kernels * kk + s.outputs[0].cycle
                          + (kk - 1) + (cfg.pipeline_stages - 1))
    # the operands of the window at output (0, 0) place each PE's tap for row_pass
    return _Scan(s, groups if traced else None, s.operands[starts[0]:starts[0] + kk], real,
                 starts, held, real_windows, imem_reads, dummy_macs, first_output_cycle,
                 [None] * (t * t))


def _pass_loop(p, sc, tiles, subs, first, imem, omem, kpay, lanes, fmt, cycles, counters,
               cycle_trace) -> None:
    """Walk a phase's passes, (tile, image, row group, resident sub-channel),
    counting each pass's events, and, unless overflow_free (lanes) sent the
    phase to row_pass, replay each on the clamp-per-step pass into packed
    oMemory.  subs holds each sub-channel's (c, phase a*t + b, offset of its
    kernel in an output channel's), first the filter group's first c."""
    s, t = sc.s, phase_side(p)
    t2, step, k, w = t * t, p.c_per_group * p.k * p.k, s.k, s.strip_cols
    # the real pixels of the resident sub-channels' decimated maps: one iMemory fill
    fill = sum(len(sc.real[ph // t]) * len(sc.real[ph % t]) for _, ph, _ in subs)
    if not lanes:
        for _, ph, _ in subs:
            sc.tables[ph] = sc.tables[ph] or window_gathers(s.operands, s.kk, sc.starts,
                                                            gather(list(sc.held[ph])))
        offs = [[kb + o for o in sc.held[ph].values()] for _, ph, kb in subs]
    for tile in tiles:
        # a tile is a run of output channels, so one tap's weights across it
        # are one strided slice of the payload
        prims, st = len(tile), tile[0] * step
        if not lanes:
            weights = [[[kpay[i + o] for o in os] for i in range(st, st + prims * step, step)]
                       for os in offs]
        for n in range(p.n):
            # one DRAM streaming of the phase's resident sub-channels per
            # (m-tile, image), decimated into iMemory, which provides reuse
            # within the sweep
            counters.dram_ifmap_reads += fill
            for g, rw in enumerate(sc.real_windows):
                base, out = g * k * w, g * k * p.e
                for d, (c, ph, _) in enumerate(subs):
                    if not lanes:
                        strip = imem[n * p.c * t2 + c][base:base + s.strip_rows * w]
                        counters.overflow_events += _run_pass(sc.tables[ph][:rw], strip,
                                                              weights[d], fmt, omem[n, tile], out)
                    if cycle_trace is not None:
                        pass_trace(s, sc.groups[g * t2 + ph], tile, cycles.total, cycle_trace)
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
    check, _layer_scan, fill_imem, per phase the kernel load, row_pass and
    _pass_loop, and drain_lanes.

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
    # iMemory, filled once per layer: row group g's strip starts at row g*k
    imem = fill_imem(p, ifmaps, sc.real, (plan.num_row_groups + 1) * q.k - 1,
                     sc.s.strip_cols)
    fmt, lanes = ifmaps.fmt, overflow_free(ifmaps, kernels, bias)
    bits, ee = fmt.accumulator_bits, p.e * p.e
    # each output channel's bias, clamped into the accumulator as the oracle does:
    # one overflow event per output sample whose seed clamps
    seeds = [clamp_acc(bias.at(m) << fmt.frac_bits, fmt) for m in range(p.m)]
    cycles = CycleCounts()
    counters = EventCounters(overflow_events=p.n * ee * sum(c for _, c in seeds))
    # oMemory: one packed accumulator per (image, tile, output offset), each
    # lane offset by -acc_min so that it never borrows from the next
    omem = {(n, tile): [pack_lanes([seeds[m][0] - fmt.acc_min for m in reversed(tile)], bits)] * ee
            for ph in plan.phases for tile in ph.tiles for n in range(p.n)}
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
        if lanes:
            row_pass([[imem[n * q.c + c] for c, _, _ in subs] for n in range(p.n)], omem,
                     phase_plan.tiles, [(kb, sc.held[ph]) for _, ph, kb in subs], sc.window,
                     kpay, p.c_per_group * size, sc.s.strip_cols, p.e, q.k, bits)
        _pass_loop(p, sc, phase_plan.tiles, subs, first, imem, omem, kpay, lanes, fmt, cycles,
                   counters, cycle_trace)

    # drain every accumulated window once per layer
    out_payload = drain_lanes(omem, p, fmt)
    counters.dram_ofmap_writes += len(out_payload)
    cycles.drain += cfg.pipeline_stages - 1
    return LayerRun(ofmaps=SampleTensor(p.ofmap_dims(), out_payload, fmt), cycles=cycles,
                    counters=counters, first_output_cycle=sc.first_output_cycle)
