"""Cycle-level simulation of the PE chain.

Every layer runs as its polyphase decomposition (layers.polyphase).  One
column-wise scan, built and validated once per layer in strip
coordinates, serves every row group and phase: validate_schedule alone
resolves the register timing and leaves each window's operands as strip
positions, and each (row group, phase) maps that table through its
RowGroup's ifmap offsets.  One pass replays it for one sub-channel while
every active primitive computes a different output channel from the same
broadcast feed stream, multiply-accumulating in PE order, which is the
chain's cycle order, against each primitive's stationary weights and
clamping after every step.  Event counts follow from the scan and the
row group; extra MAC pipeline stages only delay the emission cycle,
never values or rates.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field, fields

from .fixedpoint import acc_to_sample, clamp_acc
from .layers import LayerParams, phase_rows, phase_side, phase_taps
from .mapping import ChainConfig
from .scheduler import DUAL, build_schedule, row_groups, validate_schedule
from .tensors import SampleTensor, ShapeError
from .tiling import TilingPlan, layout_kernels, plan_tiling


class SimulationFault(RuntimeError):
    """A group schedule failed validation, so the chain cannot replay it."""


@dataclass
class EventCounters:
    """Raw memory and arithmetic event counts."""

    macs: int = 0
    dummy_macs: int = 0
    feed_slots: int = 0
    imem_reads: int = 0
    kmem_reads: int = 0
    kmem_writes: int = 0
    omem_reads: int = 0
    omem_writes: int = 0
    dram_ifmap_reads: int = 0
    dram_kernel_reads: int = 0
    dram_ofmap_writes: int = 0
    overflow_events: int = 0
    imem_reads_by_col: dict = field(default_factory=dict)
    macs_by_col: dict = field(default_factory=dict)

    def merge(self, other: "EventCounters") -> None:
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if isinstance(mine, dict):
                for k, v in theirs.items():
                    mine[k] = mine.get(k, 0) + v
            else:
                setattr(self, f.name, mine + theirs)


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
    utilization: float
    first_output_cycle: int
    refeed_count: int   # always 0: closed-form schedules count no re-feeds
    compute_spans: int  # emission-span cycles, the utilization denominator


class _Replay:
    """What the passes of the layer's scan need at one (row group, phase):
    the scan's operand table mapped to ifmap offsets (-1 for a pad), the
    output each window drains to (None for a dummy row), the cycle counts,
    and the feed, weight-store and MAC events of one pass for each
    primitive count in use (oMemory and overflow events depend on the
    data)."""

    __slots__ = ("group", "kk", "operands", "windows", "span", "emission_span",
                 "first_real", "events")

    def __init__(self, s, group, prim_counts, h: int, zero_taps: int, column_stats: bool):
        offs = group.offsets(h)
        self.group = group
        self.kk = s.kk
        self.operands = array("i", [offs[i] for i in s.operands])
        self.windows = tuple(None if group.is_dummy(o.row) else (group.out_rows[o.row], o.col)
                             for o in s.outputs)
        self.span = s.span_cycles
        self.emission_span = s.emission_span
        self.first_real = next((o.cycle for o, w in zip(s.outputs, self.windows)
                                if w is not None), None)
        real_fed = [off for off in (offs[f.a * s.strip_cols + f.b] for f in s.scan) if off >= 0]
        # dummy MACs: all of a dummy row's, and a real window's on the zero taps
        dummy = self.windows.count(None)
        dummy_macs = dummy * s.kk + (len(self.windows) - dummy) * zero_taps
        self.events = {}
        for n in prim_counts:
            ev = EventCounters(macs=n * len(self.operands), dummy_macs=n * dummy_macs,
                               feed_slots=s.feed_count, imem_reads=len(real_fed),
                               kmem_reads=n * s.kk)
            if column_stats:
                ev.imem_reads_by_col = dict(Counter(off % h for off in real_fed))
                ev.macs_by_col = {col: n * v for col, v in Counter(
                    off % h for off in self.operands if off >= 0).items()}
            self.events[n] = ev


def _run_pass(r, ifpay, if_base, weights, fmt, n, tile, omem, bias_acc, first_c,
              counters):
    """Replay one schedule for one sub-channel and fold the window sums
    into oMemory (bias added at the group's first sub-channel; entries
    persist across kernel-residency phases)."""
    kk = r.kk
    ops = r.operands
    acc_min, acc_max = fmt.acc_min, fmt.acc_max
    overflow = 0
    for w, target in enumerate(r.windows):
        start = w * kk
        vals = [ifpay[if_base + off] if off >= 0 else 0 for off in ops[start:start + kk]]
        partials = []
        for wq in weights:
            acc = 0
            for v, wt in zip(vals, wq):
                if v:
                    acc += v * wt
                    if acc > acc_max or acc < acc_min:
                        acc, _ = clamp_acc(acc, fmt)  # saturate or wrap per format
                        overflow += 1
            partials.append(acc)
        if target is None:
            continue
        x, y = target
        for m, partial in zip(tile, partials):
            key = (n, m, x, y)
            if first_c:
                total, ovf = clamp_acc(bias_acc[m] + partial, fmt)
            else:
                counters.omem_reads += 1
                total, ovf = clamp_acc(omem[key] + partial, fmt)
            overflow += ovf
            omem[key] = total
            counters.omem_writes += 1
    counters.overflow_events += overflow


def _trace_pass(s, group, tile, base, trace) -> None:
    """One line per cycle of scan s placed at group per active primitive:
    the feeds and the windows that complete on that cycle."""
    fed, done = {}, {}
    for f in group.place(s.scan, s.mode):
        fed.setdefault(f.cycle, []).append(
            "%s:(%d,%d)%s" % (f.channel, f.row, f.col, "z" if f.is_pad else ""))
    for o in s.outputs:
        done.setdefault(o.cycle, []).append(o)
    for t in range(s.span_cycles):
        feeds = " ".join(fed.get(t, ())) or "-"
        for q, m in enumerate(tile):
            tags = ",".join("(m%d,%d,%d)%s" % (m, group.out_rows[o.row], o.col,
                                               "d" if group.is_dummy(o.row) else "")
                            for o in done.get(t, ())) or "-"
            trace.append("%d compute prim=%d feeds=%s out=%s" % (base + t, q, feeds, tags))


def run_layer(p: LayerParams, ifmaps: SampleTensor, kernels: SampleTensor,
              bias: SampleTensor, cfg: ChainConfig, mode: str = DUAL,
              column_stats: bool = False, cycle_trace: list | None = None,
              plan: TilingPlan | None = None) -> LayerRun:
    """Execute one layer on the chain and return its bit-exact output maps
    together with cycle and memory-event counts.

    cycle_trace, when given a list, receives one line per compute cycle per
    active primitive (cycle, phase, feeds, output tag); intended for tiny
    layers only."""
    if ifmaps.dims != p.ifmap_dims():
        raise ShapeError("ifmaps dims %r do not match layer" % (ifmaps.dims,))
    if kernels.dims != p.kernel_dims():
        raise ShapeError("kernel dims %r do not match layer" % (kernels.dims,))
    if bias.dims != p.bias_dims():
        raise ShapeError("bias dims %r do not match layer" % (bias.dims,))
    fmt = ifmaps.fmt
    if plan is None:
        plan = plan_tiling(p, cfg)
    layout = layout_kernels(p, plan, kernels)
    t = phase_side(p)
    t2 = t * t
    kk = plan.layer.k ** 2
    taps = [phase_taps(p, a) for a in range(t)]
    prim_counts = {len(tile) for ph in plan.phases for tile in ph.tiles}
    groups = row_groups(p)
    s = build_schedule(groups[0], p, mode)
    rep = validate_schedule(s, p)
    if not rep.ok:
        raise SimulationFault("scan schedule failed validation: %s" % rep.violations[0])
    replays = {}  # (row group, phase number a*t + b) -> _Replay
    for g in groups:
        a, b = g.phase
        replays[g.index, a * t + b] = _Replay(s, g, prim_counts, p.h,
                                              kk - taps[a] * taps[b], column_stats)

    # real pixels of each phase's decimated map: its iMemory fill
    extents = [len(phase_rows(p, a)) for a in range(t)]
    fill_of = [ra * rb for ra in extents for rb in extents]
    bias_acc = [bias.at(m) << fmt.frac_bits for m in range(p.m)]
    out_payload = [0] * (p.n * p.m * p.e * p.e)
    cycles = CycleCounts()
    counters = EventCounters()
    first_output_cycle = None
    compute_spans = 0
    ifpay = ifmaps.payload
    hh = p.h * p.h

    omem = {}  # (n, m, x, y) -> partial accumulator, layer scope
    for phase_plan, phase_layout in zip(plan.phases, layout.phases):
        # the phase's weights stream down the chain, one weight per cycle
        loaded = phase_layout.total_weights
        cycles.kernel_load += loaded
        counters.kmem_writes += loaded
        counters.dram_kernel_reads += loaded
        resident = phase_layout.weights
        first_channel = plan.layer.input_channels_of_group(phase_plan.filter_group).start
        c_range = phase_plan.c_range
        # one sweep: (schedule, ifmap channel, sub-channel) of each pass
        sweep = [(replays[gi, c % t2], c // t2, c)
                 for gi in range(plan.num_row_groups) for c in c_range]
        fill = sum(fill_of[c % t2] for c in c_range)
        for tile in phase_plan.tiles:
            weights = {c: [resident[m, c] for m in tile] for c in c_range}
            for n in range(p.n):
                # one DRAM streaming of the phase's resident sub-channels per
                # (m-tile, image), decimated into iMemory, which provides
                # reuse within the sweep
                counters.dram_ifmap_reads += fill
                for r, c_in, c in sweep:
                    if cycle_trace is not None:
                        _trace_pass(s, r.group, tile, cycles.total, cycle_trace)
                    _run_pass(r, ifpay, (n * p.c + c_in) * hh, weights[c], fmt, n, tile,
                              omem, bias_acc, c == first_channel, counters)
                    counters.merge(r.events[len(tile)])
                    cycles.compute += r.emission_span
                    cycles.drain += r.span - r.emission_span
                    compute_spans += r.emission_span
                    if first_output_cycle is None and r.first_real is not None:
                        first_output_cycle = (
                            cycles.total - r.span + r.first_real
                            + (kk - 1) + (cfg.pipeline_stages - 1))

    # drain every accumulated window once per layer
    for (n, m, x, y), acc in omem.items():
        sample, _ = acc_to_sample(acc, fmt)
        out_payload[((n * p.m + m) * p.e + x) * p.e + y] = sample
        counters.dram_ofmap_writes += 1

    cycles.drain += cfg.pipeline_stages - 1

    used_pe_cycles = compute_spans * plan.chain.active_pes
    util = (counters.macs - counters.dummy_macs) / used_pe_cycles if used_pe_cycles else 0.0
    ofmaps = SampleTensor(p.ofmap_dims(), out_payload, fmt)
    return LayerRun(
        ofmaps=ofmaps, cycles=cycles, counters=counters, utilization=util,
        first_output_cycle=first_output_cycle or 0,
        refeed_count=0,
        compute_spans=compute_spans,
    )


@dataclass
class NetworkTotals:
    cycles: CycleCounts
    counters: EventCounters
    kernel_load_cycles: int
    compute_cycles_per_image: int


def run_network(layers, cfg: ChainConfig, batch: int = 1, mode: str = DUAL):
    """Run a list of (LayerParams, ifmaps, kernels, bias) with a shared batch.

    Kernels for each layer load once per batch (phase by phase); each layer
    receives its own externally supplied input tensor.
    """
    runs = []
    totals = NetworkTotals(CycleCounts(), EventCounters(), 0, 0)
    for li, (p, ifmaps, kernels, bias) in enumerate(layers):
        if p.n != batch:
            p = LayerParams(n=batch, c=p.c, m=p.m, h=p.h, e=p.e, k=p.k,
                            stride=p.stride, pad=p.pad, groups=p.groups)
        try:
            run = run_layer(p, ifmaps, kernels, bias, cfg, mode=mode)
        except Exception as exc:
            raise type(exc)("layer %d: %s" % (li, exc)) from exc
        runs.append(run)
        totals.cycles.kernel_load += run.cycles.kernel_load
        totals.cycles.compute += run.cycles.compute
        totals.cycles.drain += run.cycles.drain
        totals.counters.merge(run.counters)
    totals.kernel_load_cycles = totals.cycles.kernel_load
    if batch:
        totals.compute_cycles_per_image = (totals.cycles.compute + totals.cycles.drain) // batch
    return runs, totals
