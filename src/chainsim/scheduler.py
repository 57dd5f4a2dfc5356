"""Column-wise scan input schedules for one row group, plus their validator.

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

For stride 1 this pins the whole schedule in closed form: strip pixel at
(row a, column b) of the (2k-1)-row strip is fed at effective cycle
k*b + a + 1, the two column parities ride the two channels, window
(row r, column y) of the group completes (all operands arrived) at cycle
k*y + r + k*k, and one window completes per cycle.  The validator below,
not this construction, is the acceptance authority: it re-derives every
operand from the feed events and mux table alone.

Strides above 1 cannot keep the feed-once property within two channels;
build_schedule then falls back to a greedy constructor that re-feeds
pixels as needed (re-feeds are counted, never hidden) and may degrade
throughput.  Correct window mapping is mandatory in every mode.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .layers import LayerParams

ODD = "odd"
EVEN = "even"
DUAL = "dual"
SINGLE = "single"


# ---------------------------------------------------------------------------
# Row groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RowGroup:
    """K adjacent output rows and the input strip they read."""

    index: int
    k: int
    stride: int
    pad: int
    out_rows: tuple          # absolute output rows, length k (may exceed e)
    num_dummy_rows: int      # trailing rows past the real output map
    strip_base: int          # ifmap row of strip row 0 (can be negative = padding)
    strip_rows: int
    strip_cols: int          # strip column b maps to ifmap column b - pad

    @property
    def real_out_rows(self) -> tuple:
        return self.out_rows[:self.k - self.num_dummy_rows]


def row_groups(p: LayerParams) -> list[RowGroup]:
    k, s = p.k, p.stride
    strip_rows = s * (k - 1) + k
    strip_cols = s * (p.e - 1) + k
    groups = []
    count = -(-p.e // k)
    for g in range(count):
        rows = tuple(g * k + r for r in range(k))
        dummy = max(0, g * k + k - p.e)
        groups.append(RowGroup(
            index=g, k=k, stride=s, pad=p.pad,
            out_rows=rows, num_dummy_rows=dummy,
            strip_base=g * k * s - p.pad,
            strip_rows=strip_rows, strip_cols=strip_cols,
        ))
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
                 feeds, mux, outputs, skew, lead_channel, refeed_count=0):
        self.k = p.k
        self.kk = p.k * p.k
        self.stride = p.stride
        self.pad = p.pad
        self.h = p.h
        self.e = p.e
        self.mode = mode
        self.group = group
        self.feeds = tuple(sorted(feeds, key=lambda f: (f.cycle, f.channel)))
        self.mux = dict(mux)                     # (pe, cycle) -> channel
        self.outputs = tuple(sorted(outputs, key=lambda o: o.cycle))
        self.skew = dict(skew)                   # channel -> extra entry registers
        self.lead_channel = lead_channel
        self.refeed_count = refeed_count
        self.validation = None
        self.operands = None    # set by validate_schedule on a valid schedule

        last_feed = max(f.cycle for f in self.feeds)
        last_mux = max(t for (_, t) in self.mux)
        self.span_cycles = max(last_feed, last_mux, self.outputs[-1].cycle) + 1
        self.warmup_cycles = self.outputs[0].cycle
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
        x_abs = self.group.out_rows[out.row]
        return (x_abs * self.stride + v - self.pad,
                out.col * self.stride + u - self.pad)


def _channel_of_col(col: int) -> str:
    return EVEN if col % 2 == 0 else ODD


def _build_dual_stride1(p: LayerParams, group: RowGroup) -> StreamSchedule:
    k, kk, e, pad, h = p.k, p.k * p.k, p.e, p.pad, p.h
    lead = _channel_of_col(-pad)        # channel of the first scanned column
    lag = ODD if lead == EVEN else EVEN
    skew = {lead: 1, lag: 0}
    phi = 1

    feeds = []
    for b in range(group.strip_cols):
        col = b - pad
        ch = _channel_of_col(col)
        for a in range(group.strip_rows):
            row = group.strip_base + a
            feeds.append(FeedEvent(
                cycle=k * b + a + phi - skew[ch], channel=ch,
                row=row, col=col,
                is_pad=not (0 <= row < h and 0 <= col < h)))

    mux = {}
    outputs = []
    for y in range(e):
        for r in range(k):
            sigma = phi + y * k + r
            outputs.append(OutputEvent(
                cycle=sigma + kk - 1, row=r, col=y,
                is_dummy=group.out_rows[r] >= e))
            for pi in range(kk):
                u, v = divmod(pi, k)
                mux[(pi, sigma + 2 * pi)] = _channel_of_col(y + u - pad)
    return StreamSchedule(p, group, DUAL, feeds, mux, outputs, skew, lead)


def _build_single_stride1(p: LayerParams, group: RowGroup) -> StreamSchedule:
    k, kk, e, pad, h = p.k, p.k * p.k, p.e, p.pad, p.h
    band_span = k * group.strip_cols
    feeds = []
    mux = {}
    outputs = []
    for r in range(k):
        phi = r * band_span
        for b in range(group.strip_cols):
            col = b - pad
            for v in range(k):
                row = group.strip_base + r + v
                feeds.append(FeedEvent(
                    cycle=phi + k * b + v, channel=ODD,
                    row=row, col=col,
                    is_pad=not (0 <= row < h and 0 <= col < h)))
        for y in range(e):
            sigma = phi + k * y
            outputs.append(OutputEvent(
                cycle=sigma + kk - 1, row=r, col=y,
                is_dummy=group.out_rows[r] >= e))
            for pi in range(kk):
                mux[(pi, sigma + 2 * pi)] = ODD
    return StreamSchedule(p, group, SINGLE, feeds, mux, outputs, {ODD: 0, EVEN: 0}, None)


def _build_greedy(p: LayerParams, group: RowGroup, mode: str) -> StreamSchedule:
    """Strides above 1: earliest-fit wave placement with counted re-feeds."""
    k, kk, e, s, pad, h = p.k, p.k * p.k, p.e, p.stride, p.pad, p.h
    slots = {ODD: {}, EVEN: {}}          # channel -> cycle -> (row, col)
    pixel_feeds = {}                     # (row, col) -> set of (channel, cycle)
    feeds = []
    mux = {}
    outputs = []
    refeeds = 0
    sigma = 0
    for y in range(e):
        for r in range(k):
            x_abs = group.out_rows[r]
            ops = []
            for pi in range(kk):
                u, v = divmod(pi, k)
                row = x_abs * s + v - pad
                col = y * s + u - pad
                ch = _channel_of_col(col) if mode == DUAL else ODD
                ops.append((pi, ch, row, col))
            sigma = max(sigma + 1, 1)
            while True:
                bookings = []
                ok = True
                for pi, ch, row, col in ops:
                    need = sigma + pi
                    have = slots[ch].get(need)
                    if have is None:
                        bookings.append((pi, ch, row, col, need))
                    elif have != (row, col):
                        ok = False
                        break
                if ok:
                    break
                sigma += 1
            for pi, ch, row, col, need in bookings:
                slots[ch][need] = (row, col)
                is_pad = not (0 <= row < h and 0 <= col < h)
                seen = pixel_feeds.setdefault((row, col), set())
                if seen and not is_pad:
                    refeeds += 1  # an extra iMemory read, reported not hidden
                seen.add((ch, need))
                feeds.append(FeedEvent(
                    cycle=need, channel=ch, row=row, col=col, is_pad=is_pad))
            for pi, ch, row, col in ops:
                mux[(pi, sigma + 2 * pi)] = ch
            outputs.append(OutputEvent(
                cycle=sigma + kk - 1, row=r, col=y, is_dummy=x_abs >= e))
    skew = {ODD: 0, EVEN: 0}
    return StreamSchedule(p, group, mode, feeds, mux, outputs, skew, None,
                          refeed_count=refeeds)


def build_schedule(group: RowGroup, p: LayerParams, mode: str = DUAL) -> StreamSchedule:
    if mode not in (DUAL, SINGLE):
        raise ValueError("mode must be 'dual' or 'single'")
    if p.stride == 1:
        if mode == DUAL:
            return _build_dual_stride1(p, group)
        return _build_single_stride1(p, group)
    return _build_greedy(p, group, mode)


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
            if _channel_of_col(f.col) != f.channel:
                violations.append(
                    "parity: column %d rode the %s channel" % (f.col, f.channel))
                rep.parity_ok = False

    if s.mode == DUAL and s.stride == 1:
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
        else:
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
    if s.mode == DUAL and s.stride == 1:
        expected = set()
        for a in range(s.group.strip_rows):
            row = s.group.strip_base + a
            if not 0 <= row < s.h:
                continue
            for b in range(s.group.strip_cols):
                col = b - s.pad
                if 0 <= col < s.h:
                    expected.add((row, col))
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
