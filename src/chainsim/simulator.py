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
one strided slice.  The data picks only how a tile's weights are held and
the window kernel.  When every output channel meets |bias << f| + max|x| *
sum|w| <= acc_max (overflow_free), no partial or running sum leaves the
accumulator in any order, so no clamp can fire: each weight tap is then
one int packed like oMemory by the oracle's packer (pack_lanes), and the
passes of an input channel's resident sub-channels run as one.  Their
strips are laid end to end, one gather reads a window's operands at the
kernel's taps only (none of the zeros past the kernel that phases other
than (0, 0) carry), and a window of the input channel is one sum of
products for all primitives: the t*t phases' windows at once, or k*k
products at stride 1.  Events are still counted per pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import mul

from .fixedpoint import acc_to_samples, clamp_acc, overflow_free, pack_lanes
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


def _fill_imem(p: LayerParams, ifmaps: SampleTensor, real: list, rows: int, w: int) -> list:
    """iMemory: one rows x w decimated map, row-major, per (image n,
    sub-channel c) of polyphase(p), at n * c_sub + c.  Pixel (i, j) of
    phase (a, b) is ifmap pixel (s*i + a - pad, s*j + b - pad) where i is
    in real[a] and j in real[b] (phase_rows), and 0 elsewhere."""
    s, h, pay = p.stride, p.h, ifmaps.payload
    maps = []
    for plane in range(0, p.n * p.c * h * h, h * h):
        for a in range(len(real)):
            for b, cols in enumerate(real):
                dmap = [0] * (rows * w)
                for i in real[a]:
                    src = plane + (s * i + a - p.pad) * h + s * cols.start + b - p.pad
                    dmap[i * w + cols.start:i * w + cols.stop] = pay[src:src + s * len(cols):s]
                maps.append(dmap)
    return maps


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


def _drain_lanes(omem, p: LayerParams, fmt) -> list:
    """The output payload in ofmap order: every packed accumulator split
    into its primitives' lanes, the lane offset undone, rescaled."""
    bits, lo = fmt.accumulator_bits, fmt.acc_min
    mask = (1 << bits) - 1
    out = [0] * (p.n * p.m * p.e * p.e)
    for (n, tile), acc in omem.items():
        for q, m in enumerate(tile):
            base, shift = (n * p.m + m) * len(acc), q * bits
            out[base:base + len(acc)] = acc_to_samples([((a >> shift) & mask) + lo
                                                        for a in acc], fmt)
    return out


def run_layer(p: LayerParams, ifmaps: SampleTensor, kernels: SampleTensor,
              bias: SampleTensor, cfg: ChainConfig, mode: str = DUAL,
              cycle_trace: list | None = None,
              plan: TilingPlan | None = None) -> LayerRun:
    """Execute one layer on the chain and return its bit-exact output maps
    together with cycle and memory-event counts.

    cycle_trace, when given a list, receives one line per compute cycle per
    active primitive (cycle, phase, feeds, output tag); intended for tiny
    layers only.  plan, when given, must be the one plan_tiling(p, cfg)
    makes."""
    p.check_tensors(ifmaps, kernels, bias)
    fmt = ifmaps.fmt
    if plan is None:
        plan = plan_tiling(p, cfg)
    elif plan != plan_tiling(p, cfg):
        raise ValueError("plan was made for another layer or chain")
    t = phase_side(p)
    t2 = t * t
    ee = p.e * p.e
    taps = [phase_taps(p, a) for a in range(t)]
    groups = row_groups(p)
    s = build_schedule(groups[0], p, mode)
    rep = validate_schedule(s, p)
    if not rep.ok:
        raise SimulationFault("scan schedule failed validation: %s" % rep.violations[0])
    # the scan's timing, the same at every placement
    kk, ops = s.kk, s.operands
    span, emission = s.span_cycles, s.emission_span
    q, num_groups = plan.layer, plan.num_row_groups
    k, w = q.k, s.strip_cols
    real = [phase_rows(p, a) for a in range(t)]
    # iMemory, filled once per layer: row group g's strip starts at row g*k
    imem = _fill_imem(p, ifmaps, real, (num_groups + 1) * k - 1, w)
    strip_len = s.strip_rows * w
    # PE pe holds window position (i, j) = (pe % k, pe // k), column-major, and
    # in phase a*t + b the kernel tap (stride*i + a, stride*j + b).  Per phase:
    # each PE whose tap lies in the kernel, not past it, to the tap's offset
    # in an [i][j] kernel, and a gather of a PE-ordered tuple at those PEs
    held = [{pe: (p.stride * (pe % k) + a) * p.k + p.stride * (pe // k) + b for pe in range(kk)
             if pe % k < taps[a] and pe // k < taps[b]} for a in range(t) for b in range(t)]
    picks = [gather(list(pes)) for pes in held]
    # the scan's windows in output order x*e + y from a row group's first
    # output, so that a row group's real windows are a prefix, and their count
    starts = [j * kk for _, j in sorted((o.row * p.e + o.col, j)
                                        for j, o in enumerate(s.outputs))]
    real_windows = [min(k, p.e - g * k) * p.e for g in range(num_groups)]
    # per tuple of phases laid end to end, the windows' gathers (window_gathers)
    pool, tables = list(range(t2 * strip_len)), {}
    # per (phase column offset b, strip row): the scan feeds on a real column of b
    fed = [[0] * s.strip_rows for _ in range(t)]
    for f in s.scan:
        for b in range(t):
            fed[b][f.a] += f.b in real[b]
    # per (row group, phase a*t + b): the scan feeds that land on real pixels, those
    # on the strip rows g*k + row in real[a], and the dummy MACs, all of a dummy
    # window's and a real window's on the zero taps
    imem_reads = [[sum(fed[b][max(0, real[a].start - g * k):max(0, real[a].stop - g * k)])
                   for a in range(t) for b in range(t)] for g in range(num_groups)]
    dummy_macs = [[(len(starts) - rw) * kk + rw * (kk - taps[a] * taps[b])
                   for a in range(t) for b in range(t)] for rw in real_windows]
    # the first pass follows the first phase's kernel load, and row 0 of
    # its row group is real; the window's sum then drains down the chain
    first_output_cycle = (plan.phases[0].kernels * kk + s.outputs[0].cycle
                          + (kk - 1) + (cfg.pipeline_stages - 1))
    if cycle_trace is None:
        s = groups = rep = None   # the passes need neither the mux table nor the feeds

    # real pixels of each phase's decimated map: its iMemory fill
    fill_of = [len(ra) * len(rb) for ra in real for rb in real]
    lanes = overflow_free(ifmaps, kernels, bias)
    bits = fmt.accumulator_bits
    # each output channel's bias, clamped into the accumulator as the oracle does:
    # one overflow event per output sample whose seed clamps
    seeds = [clamp_acc(bias.at(m) << fmt.frac_bits, fmt) for m in range(p.m)]
    cycles = CycleCounts()
    counters = EventCounters(overflow_events=p.n * ee * sum(c for _, c in seeds))
    # oMemory: one packed accumulator per (image, tile, output offset), each
    # lane offset by -acc_min so that it never borrows from the next
    omem = {}

    # output channel m's kernels start at m * step in the payload, each size long
    kpay, size = kernels.payload, p.k * p.k
    step = p.c_per_group * size
    for phase_plan in plan.phases:
        # the phase's weights stream down the chain, one weight per cycle
        loaded = phase_plan.kernels * kk
        cycles.kernel_load += loaded
        counters.kmem_writes += loaded
        counters.dram_kernel_reads += loaded
        first_channel = plan.layer.input_channels_of_group(phase_plan.filter_group).start
        c_range = phase_plan.c_range
        # a pass reads its unit's strips laid end to end: under overflow_free an
        # input channel's resident sub-channels, whose window one gather reads
        # whole, else one sub-channel; with the offsets of its taps in the
        # kernels of an output channel
        units = []
        for u in ([tuple(run) for _, run in groupby(c_range, lambda c: c // t2)] if lanes
                  else [(c,) for c in c_range]):
            phases = tuple(c % t2 for c in u)
            if phases not in tables:
                tables[phases] = window_gathers(ops, kk, starts, picks, phases, pool)
            units.append((u, tables[phases], [(c - first_channel) // t2 * size + o
                                              for c in u for o in held[c % t2].values()]))
        fill = sum(fill_of[c % t2] for c in c_range)
        for tile in phase_plan.tiles:
            # a tile is a run of output channels, so one tap's weights across it
            # are one strided slice of the payload, packed with tile[0] in lane 0
            prims, st = len(tile), tile[0] * step
            end = st + prims * step
            if lanes:
                weights = [[pack_lanes(reversed(kpay[st + o:end:step]), bits) for o in offs]
                           for _, _, offs in units]
            else:
                weights = [[[kpay[i + o] for o in offs] for i in range(st, end, step)]
                           for _, _, offs in units]
            seed = pack_lanes([seeds[m][0] - fmt.acc_min for m in reversed(tile)], bits)
            for n in range(p.n):
                # one DRAM streaming of the phase's resident sub-channels per
                # (m-tile, image), decimated into iMemory, which provides
                # reuse within the sweep
                counters.dram_ifmap_reads += fill
                packed = omem.setdefault((n, tile), [seed] * ee)
                for g in range(num_groups):
                    base, out, rw = g * k * w, g * k * p.e, real_windows[g]
                    for (u, table, _), wts in zip(units, weights):
                        strip = []
                        for c in u:
                            strip += imem[n * q.c + c][base:base + strip_len]
                        gets = table[:rw]
                        if lanes:
                            for j, get in enumerate(gets, out):
                                packed[j] += sum(map(mul, get(strip), wts))
                        else:
                            counters.overflow_events += _run_pass(gets, strip, wts, fmt,
                                                                  packed, out)
                    for c in c_range:
                        ph = c % t2
                        if cycle_trace is not None:
                            pass_trace(s, groups[g * t2 + ph], tile, cycles.total, cycle_trace)
                        counters.macs += prims * len(ops)
                        counters.dummy_macs += prims * dummy_macs[g][ph]
                        counters.imem_reads += imem_reads[g][ph]
                        counters.kmem_reads += prims * kk
                        # oMemory is written once per real window and primitive, and
                        # read back except at the filter group's first sub-channel,
                        # where the bias stands in
                        counters.omem_writes += prims * rw
                        if c != first_channel:
                            counters.omem_reads += prims * rw
                        cycles.compute += emission
                        cycles.drain += span - emission

    # drain every accumulated window once per layer
    out_payload = _drain_lanes(omem, p, fmt)
    counters.dram_ofmap_writes += len(out_payload)
    cycles.drain += cfg.pipeline_stages - 1
    return LayerRun(ofmaps=SampleTensor(p.ofmap_dims(), out_payload, fmt), cycles=cycles,
                    counters=counters, first_output_cycle=first_output_cycle)
