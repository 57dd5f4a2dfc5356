"""Column-wise scan input schedules for one row group, plus their validator.

Every layer runs as its polyphase decomposition (layers.polyphase): a
stride-s layer is t*t stride-1 sub-convolutions over decimated input maps,
one per phase (a, b), and a stride-1 layer is the single phase (0, 0).  A
row group is k adjacent output rows of one phase, with k = ceil(K/s) the
sub-kernel size; its strip pixels map to ifmap coordinates, so feeds,
operands and traces never name a decimated map.

Timing model (0-indexed cycles).  A primitive is a chain of k*k PEs.  PE p
holds the stationary weight of column-major window position p (row offset
i = p % k, column offset j = p // k).  Each channel is a shift register
with one stage per PE: a pixel fed on channel ch at cycle f sits in PE p's
register exactly at cycle f + skew[ch] + p, where skew is 1 for the
channel that starts first (it owns one extra entry register at the
primitive port) and 0 for the other.  The partial sum of one window walks
the chain at one PE per two cycles, so the window whose wave starts at
cycle s consumes position p in PE p at cycle s + 2p, and the operand must
therefore arrive (effectively) at cycle s + p: windows stream in exactly
column-major position order.

This pins the whole schedule in closed form: strip pixel at (row a,
column b) of the (2k-1)-row strip is fed at effective cycle k*b + a + 1,
the two column parities ride the two channels, window (row r, column y)
of the group completes (all operands arrived) at cycle k*y + r + k*k, and
one window completes per cycle, every strip pixel fed once.  The single
channel mode feeds each output row's k-row band in turn at 1/k of that
rate.  The validator below, not this construction, is the acceptance
authority: it re-derives every operand from the feed events and mux table
alone.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .layers import LayerParams, phase_rows, phase_side, polyphase

ODD = "odd"
EVEN = "even"
DUAL = "dual"
SINGLE = "single"


# ---------------------------------------------------------------------------
# Row groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RowGroup:
    """K adjacent output rows of one phase and the input strip they read.

    Strip pixel (a, b) is decimated-map pixel (out_rows[0] + a, b), which
    is ifmap pixel (strip_base + stride*a, phase[1] - pad + stride*b)."""

    index: int
    k: int
    stride: int
    pad: int
    phase: tuple             # (row offset, column offset) of the phase
    out_rows: tuple          # absolute output rows, length k (may exceed e)
    num_dummy_rows: int      # trailing rows past the real output map
    strip_base: int          # ifmap row of strip row 0 (can be negative = padding)
    strip_rows: int
    strip_cols: int
    real_rows: range         # decimated rows holding real pixels (phase_rows)
    real_cols: range

    @property
    def real_out_rows(self) -> tuple:
        return self.out_rows[:self.k - self.num_dummy_rows]

    def coordinate(self, a: int, b: int) -> tuple[int, int]:
        """Ifmap (row, column) of strip pixel (a, b)."""
        return self.strip_base + self.stride * a, self.phase[1] - self.pad + self.stride * b

    def is_pad(self, a: int, b: int) -> bool:
        """Whether strip pixel (a, b) is a zero pad: off the ifmap, or past
        the decimated map (a strip row that only dummy rows read)."""
        return not (self.out_rows[0] + a in self.real_rows and b in self.real_cols)

    def channel(self, b: int) -> str:
        """The channel strip column b rides in dual mode."""
        return _channel_of_col(self.coordinate(0, b)[1], self.stride)


def row_groups(p: LayerParams) -> list[RowGroup]:
    """The row groups of every phase of p, group by group, phase by phase."""
    q = polyphase(p)
    k, s, t = q.k, p.stride, phase_side(p)
    rows = [phase_rows(p, a) for a in range(t)]
    groups = []
    for g in range(-(-p.e // k)):
        out_rows = tuple(range(g * k, g * k + k))
        for a in range(t):
            for b in range(t):
                groups.append(RowGroup(
                    index=g, k=k, stride=s, pad=p.pad, phase=(a, b),
                    out_rows=out_rows, num_dummy_rows=max(0, g * k + k - p.e),
                    strip_base=s * g * k + a - p.pad,
                    strip_rows=2 * k - 1, strip_cols=q.h,
                    real_rows=rows[a], real_cols=rows[b]))
    return groups


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeedEvent:
    cycle: int
    channel: str
    row: int       # absolute ifmap row (may lie outside the map: zero pad)
    col: int
    is_pad: bool


@dataclass(frozen=True)
class OutputEvent:
    cycle: int     # completion: the cycle the window's last operand arrives
    row: int       # output row, group-local
    col: int       # output column
    is_dummy: bool


class StreamSchedule:
    """Feed events, per-PE mux table and output table for one group pass."""

    def __init__(self, p: LayerParams, group: RowGroup, mode: str,
                 feeds, mux, outputs, skew, lead_channel):
        self.k = group.k
        self.kk = group.k * group.k
        self.stride = p.stride
        self.h = p.h
        self.mode = mode
        self.group = group
        self.feeds = tuple(sorted(feeds, key=lambda f: (f.cycle, f.channel)))
        self.mux = dict(mux)                     # (pe, cycle) -> channel
        self.outputs = tuple(sorted(outputs, key=lambda o: o.cycle))
        self.skew = dict(skew)                   # channel -> extra entry registers
        self.lead_channel = lead_channel
        self.refeed_count = 0   # feeds beyond the scan pattern: none in closed form
        self.validation = None
        self.operands = None    # set by validate_schedule on a valid schedule

        last_feed = max(f.cycle for f in self.feeds)
        last_mux = max(t for (_, t) in self.mux)
        self.span_cycles = max(last_feed, last_mux, self.outputs[-1].cycle) + 1
        self.emission_span = self.outputs[-1].cycle - self.outputs[0].cycle + 1

    def wave_start(self, out: OutputEvent) -> int:
        return out.cycle - (self.kk - 1)

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)

    @property
    def feed_count(self) -> int:
        return len(self.feeds)

    @property
    def real_feed_count(self) -> int:
        return sum(1 for f in self.feeds if not f.is_pad)

    def window_coordinate(self, out: OutputEvent, position: int) -> tuple[int, int]:
        """Absolute ifmap coordinate of column-major window position p."""
        v, u = position % self.k, position // self.k
        return self.group.coordinate(out.row + v, out.col + u)


def _channel_of_col(col: int, stride: int) -> str:
    """Dual-mode channel of ifmap column col: the parity of its decimated
    column, so that adjacent strip columns alternate."""
    return EVEN if (col // stride) % 2 == 0 else ODD


def dual_span_cycles(k: int, e: int) -> int:
    """Cycles of every dual-mode group pass: its last mux selection comes
    2(k*k - 1) cycles after the wave start k*e of its last window."""
    return k * e + 2 * k * k - 1


def _build_dual(p: LayerParams, group: RowGroup) -> StreamSchedule:
    k, kk, e = group.k, group.k * group.k, p.e
    chans = [group.channel(b) for b in range(group.strip_cols)]
    lead = chans[0]                     # channel of the first scanned column
    lag = ODD if lead == EVEN else EVEN
    skew = {lead: 1, lag: 0}
    phi = 1

    feeds = []
    for b, ch in enumerate(chans):
        for a in range(group.strip_rows):
            row, col = group.coordinate(a, b)
            feeds.append(FeedEvent(cycle=k * b + a + phi - skew[ch], channel=ch,
                                   row=row, col=col, is_pad=group.is_pad(a, b)))

    mux = {}
    outputs = []
    for y in range(e):
        for r in range(k):
            sigma = phi + y * k + r
            outputs.append(OutputEvent(
                cycle=sigma + kk - 1, row=r, col=y,
                is_dummy=group.out_rows[r] >= e))
            for pi in range(kk):
                mux[(pi, sigma + 2 * pi)] = chans[y + pi // k]
    return StreamSchedule(p, group, DUAL, feeds, mux, outputs, skew, lead)


def _build_single(p: LayerParams, group: RowGroup) -> StreamSchedule:
    k, kk, e = group.k, group.k * group.k, p.e
    band_span = k * group.strip_cols
    feeds = []
    mux = {}
    outputs = []
    for r in range(k):
        phi = r * band_span
        for b in range(group.strip_cols):
            for v in range(k):
                row, col = group.coordinate(r + v, b)
                feeds.append(FeedEvent(cycle=phi + k * b + v, channel=ODD,
                                       row=row, col=col, is_pad=group.is_pad(r + v, b)))
        for y in range(e):
            sigma = phi + k * y
            outputs.append(OutputEvent(
                cycle=sigma + kk - 1, row=r, col=y,
                is_dummy=group.out_rows[r] >= e))
            for pi in range(kk):
                mux[(pi, sigma + 2 * pi)] = ODD
    return StreamSchedule(p, group, SINGLE, feeds, mux, outputs, {ODD: 0, EVEN: 0}, None)


def build_schedule(group: RowGroup, p: LayerParams, mode: str = DUAL) -> StreamSchedule:
    if mode == DUAL:
        return _build_dual(p, group)
    if mode == SINGLE:
        return _build_single(p, group)
    raise ValueError("mode must be 'dual' or 'single'")


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    window_property_ok: bool = True
    bandwidth_ok: bool = True
    delay_ok: bool = True
    parity_ok: bool = True
    feasibility_ok: bool = True
    reuse_ok: bool = True
    first_valid_cycle: int = 0
    measured_throughput: Fraction = Fraction(0)
    steady_cycles_observed: int = 0
    feed_counts: dict = field(default_factory=dict)
    refeed_count: int = 0
    violations: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_schedule(s: StreamSchedule, p: LayerParams) -> ValidationReport:
    """Re-derive every MAC operand from feeds + mux alone and check the
    timing contracts.  Violations are data, not exceptions.

    A schedule without violations keeps what was derived as s.operands:
    one ifmap offset (row * h + col, -1 for a zero pad) per window
    position, in output order and then PE order, which is also the cycle
    order within a window."""
    k, kk = s.k, s.kk
    violations = []
    rep = ValidationReport()

    by_slot = {ODD: {}, EVEN: {}}
    for f in s.feeds:
        slot = by_slot[f.channel]
        if f.cycle in slot:
            violations.append(
                "bandwidth: two feeds on %s channel at cycle %d" % (f.channel, f.cycle))
            rep.bandwidth_ok = False
        slot[f.cycle] = f

    if s.mode == DUAL:
        for f in s.feeds:
            if _channel_of_col(f.col, s.stride) != f.channel:
                violations.append(
                    "parity: column %d rode the %s channel" % (f.col, f.channel))
                rep.parity_ok = False
        firsts = {ch: min(d) for ch, d in by_slot.items() if d}
        if len(firsts) == 2:
            lead = min(firsts, key=firsts.get)
            lagd = firsts[ODD if lead == EVEN else EVEN] - firsts[lead]
            if lagd != k + 1:
                violations.append(
                    "delay: lagging channel starts %d cycles after the leading "
                    "one, expected %d" % (lagd, k + 1))
                rep.delay_ok = False
            if s.lead_channel is not None and lead != s.lead_channel:
                violations.append("delay: declared lead channel %s but %s feeds first"
                                  % (s.lead_channel, lead))
                rep.delay_ok = False
        elif s.group.strip_cols > 1:    # a one-column strip needs one channel
            violations.append("delay: dual schedule uses fewer than two channels")
            rep.delay_ok = False

    claimed = set()
    operands = array("i")
    for out in s.outputs:
        sigma = s.wave_start(out)
        for pi in range(kk):
            t = sigma + 2 * pi
            ch = s.mux.get((pi, t))
            if ch is None:
                violations.append(
                    "window: output (%d,%d) has no mux setting for PE %d at cycle %d"
                    % (out.row, out.col, pi, t))
                rep.window_property_ok = False
                continue
            claimed.add((pi, t))
            feed = by_slot[ch].get(t - pi - s.skew.get(ch, 0))
            if feed is None:
                violations.append(
                    "feasibility: PE %d mux at cycle %d selects %s channel but no "
                    "pixel resides there" % (pi, t, ch))
                rep.feasibility_ok = False
                continue
            want = s.window_coordinate(out, pi)
            if (feed.row, feed.col) != want:
                violations.append(
                    "window: output (%d,%d) position %d expects pixel %r, PE %d "
                    "resolves %r" % (out.row, out.col, pi, want, pi, (feed.row, feed.col)))
                rep.window_property_ok = False
            operands.append(-1 if feed.is_pad else feed.row * s.h + feed.col)

    for key in s.mux:
        if key not in claimed:
            violations.append("feasibility: orphan mux entry at PE %d cycle %d" % key)
            rep.feasibility_ok = False

    counts = Counter((f.row, f.col) for f in s.feeds if not f.is_pad)
    rep.feed_counts = dict(counts)
    rep.refeed_count = sum(c - 1 for c in counts.values() if c > 1)
    if s.mode == DUAL:
        g = s.group
        expected = {g.coordinate(a, b) for a in range(g.strip_rows)
                    for b in range(g.strip_cols) if not g.is_pad(a, b)}
        wrong = {px: c for px, c in counts.items() if c != 1}
        missing = expected - set(counts)
        if wrong or missing:
            rep.reuse_ok = False
            for px, c in sorted(wrong.items()):
                violations.append("reuse: strip pixel %r fed %d times" % (px, c))
            for px in sorted(missing):
                violations.append("reuse: strip pixel %r never fed" % (px,))

    cycles = [o.cycle for o in s.outputs]
    rep.first_valid_cycle = cycles[0] if cycles else 0
    if len(cycles) > 1:
        gaps = Counter(b - a for a, b in zip(cycles, cycles[1:]))
        modal, reps = gaps.most_common(1)[0]
        rep.measured_throughput = Fraction(1, modal)
        rep.steady_cycles_observed = modal * reps

    rep.violations = tuple(violations)
    s.validation = rep
    s.operands = None if violations else operands
    return rep


def mac_stream(s: StreamSchedule) -> list:
    """Flatten the mux table: (cycle, pe, ifmap coordinate) per MAC event."""
    if s.validation is None or not s.validation.ok:
        raise ValueError("schedule must pass validate_schedule before mac_stream")
    events = []
    for out in s.outputs:
        sigma = s.wave_start(out)
        for pi in range(s.kk):
            events.append((sigma + 2 * pi, pi, s.window_coordinate(out, pi)))
    events.sort(key=lambda e: (e[0], e[1]))
    return events


def schedule_trace(s: StreamSchedule) -> str:
    """One line per cycle: cycle, odd feed, even feed, completed outputs."""
    feeds_at = {}
    for f in s.feeds:
        feeds_at.setdefault(f.cycle, {})[f.channel] = f
    outs_at = {}
    for o in s.outputs:
        outs_at.setdefault(o.cycle, []).append(o)
    lines = []
    for t in range(s.span_cycles):
        row = feeds_at.get(t, {})
        parts = ["%6d" % t]
        for ch in (ODD, EVEN):
            f = row.get(ch)
            if f is None:
                parts.append("%s=-" % ch)
            else:
                parts.append("%s=(%d,%d)%s" % (ch, f.row, f.col, "z" if f.is_pad else ""))
        outs = outs_at.get(t, [])
        if outs:
            parts.append("out=" + ",".join(
                "(%d,%d)%s" % (o.row, o.col, "d" if o.is_dummy else "") for o in outs))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
