"""The column-wise scan of one layer, in strip coordinates, plus its
validator and its per-cycle traces.

Every layer runs as its polyphase decomposition (layers.polyphase): a
stride-s layer is t*t stride-1 sub-convolutions over decimated input maps,
one per phase (a, b), and a stride-1 layer is the single phase (0, 0).  A
row group is k adjacent output rows of one phase, with k = ceil(K/s) the
sub-kernel size, and reads a strip of 2k-1 rows by e + k - 1 columns.
Every row group of every phase reads the same strip shape, so one scan,
a function of (k, e, mode) alone, serves the whole layer: its feeds, mux
entries, outputs and the validator's operand table name strip positions
(a, b), numbered a * strip_cols + b.  A RowGroup alone places the scan:
it maps each strip position to an ifmap pixel or a zero pad, marks its
dummy rows and names the two channel slots.

Timing model (0-indexed cycles).  A primitive is a chain of k*k PEs.  PE p
holds the stationary weight of column-major window position p (row offset
i = p % k, column offset j = p // k).  Each channel is a shift register
with one stage per PE: a pixel fed on channel slot ch at cycle f sits in
PE p's register exactly at cycle f + skew[ch] + p, where skew is 1 for the
slot that starts first (it owns one extra entry register at the primitive
port) and 0 for the other.  The partial sum of one window walks the chain
at one PE per two cycles, so the window whose wave starts at cycle s
consumes position p in PE p at cycle s + 2p, and the operand must
therefore arrive (effectively) at cycle s + p: windows stream in exactly
column-major position order.

This pins the whole scan in closed form, as one band table (_bands) that
the builder and pass_cycles both read.  A band of n output rows from row
r0 on, started at cycle phi, sweeps strip rows r0 .. r0 + n + k - 2
column by column, k cycles per column: strip position (r0 + v, b) is fed
at effective cycle phi + k*b + v on slot b % slots, and window (row
r0 + j, column y) starts its wave at phi + k*y + j and completes (all
operands arrived) k*k - 1 cycles later; a pass ends with the last band's
last mux selection, 2*(k*k - 1) cycles after its last wave start.  Dual
mode is one band of all k rows from cycle 1 on: the two strip-column
parities ride the two channel slots, slot 0 (column 0's) owning the extra
entry register and so leading, one window completes per cycle and every
strip position is fed once.  The single channel mode is k bands of one
row each on one slot, band r from cycle r*k*(e + k - 1) on, at 1/k of
that rate.  The validator below, not this construction, is the
acceptance authority: it re-derives every operand from the feed events
and mux table alone.
"""

from __future__ import annotations

from array import array
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter

from .layers import LayerParams, phase_rows, phase_side, polyphase

ODD = "odd"
EVEN = "even"
DUAL = "dual"
SINGLE = "single"


# ---------------------------------------------------------------------------
# Row groups
# ---------------------------------------------------------------------------

# A feed placed at a row group: the ifmap pixel it carries (row and col may
# lie outside the map for a zero pad).
PixelFeed = namedtuple("PixelFeed", "cycle channel row col is_pad")


@dataclass(frozen=True)
class RowGroup:
    """K adjacent output rows of one phase and the input strip they read.

    Strip position (a, b) is decimated-map pixel (out_rows[0] + a, b),
    which is ifmap pixel (strip_base + stride*a, phase[1] - pad + stride*b)."""

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

    def coordinate(self, a: int, b: int) -> tuple[int, int]:
        """Ifmap (row, column) of strip position (a, b)."""
        return self.strip_base + self.stride * a, self.phase[1] - self.pad + self.stride * b

    def is_pad(self, a: int, b: int) -> bool:
        """Whether strip position (a, b) is a zero pad: off the ifmap, or
        past the decimated map (a strip row that only dummy rows read)."""
        return not (self.out_rows[0] + a in self.real_rows and b in self.real_cols)

    def is_dummy(self, r: int) -> bool:
        """Whether group-local output row r lies past the output map."""
        return r >= self.k - self.num_dummy_rows

    def channels(self, mode: str) -> tuple:
        """Names of channel slots 0 and 1.  In dual mode a slot is named by
        the parity of its decimated ifmap column; the single channel mode
        has one slot, the odd channel."""
        if mode == SINGLE:
            return (ODD,)
        first = EVEN if (self.coordinate(0, 0)[1] // self.stride) % 2 == 0 else ODD
        return (first, ODD if first == EVEN else EVEN)

    def place(self, feeds, mode: str) -> tuple:
        """The ifmap view of strip feeds, ordered by cycle and channel name."""
        names = self.channels(mode)
        return tuple(sorted(
            (PixelFeed(f.cycle, names[f.slot], *self.coordinate(f.a, f.b),
                       self.is_pad(f.a, f.b)) for f in feeds),
            key=lambda f: (f.cycle, f.channel)))


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
# The scan
# ---------------------------------------------------------------------------

# A feed on channel slot `slot` (strip-column parity in dual mode, 0 in
# single) of strip position (a, b); a window's completion, the cycle its
# last operand arrives, at group-local output row `row`, column `col`.
FeedEvent = namedtuple("FeedEvent", "cycle slot a b")
OutputEvent = namedtuple("OutputEvent", "cycle row col")


class StreamSchedule:
    """Feed events, per-PE mux table and output table of one layer's
    column-wise scan in strip coordinates, placed at one row group for
    its ifmap view (feeds, real_feed_count, schedule_trace)."""

    def __init__(self, group: RowGroup, mode: str, k: int, e: int, scan, mux, outputs, skew):
        self.k = k
        self.kk = k * k
        self.strip_rows = 2 * k - 1
        self.strip_cols = e + k - 1
        self.mode = mode
        self.group = group
        self.scan = tuple(sorted(scan, key=itemgetter(0, 1)))
        self.mux = dict(mux)                     # (pe, cycle) -> slot
        self.outputs = tuple(sorted(outputs, key=itemgetter(0)))
        self.skew = dict(skew)                   # slot -> extra entry registers
        self.lead_slot = next((ch for ch, d in self.skew.items() if d), None)   # the slot with one
        self.refeed_count = 0   # feeds beyond the scan pattern: none in closed form
        self.operands = None    # set by validate_schedule on a valid schedule

        last_mux = max(map(itemgetter(1), self.mux))
        self.span_cycles = max(self.scan[-1].cycle, last_mux, self.outputs[-1].cycle) + 1
        self.emission_span = self.outputs[-1].cycle - self.outputs[0].cycle + 1

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)

    @property
    def feed_count(self) -> int:
        return len(self.scan)

    @property
    def feeds(self) -> tuple:
        return self.group.place(self.scan, self.mode)

    @property
    def real_feed_count(self) -> int:
        return sum(1 for f in self.scan if not self.group.is_pad(f.a, f.b))


def _bands(k: int, e: int, mode: str) -> tuple:
    """The scan's band table: its bands, each (first row, rows, start
    cycle), and its skew, slot -> extra entry registers."""
    if mode == DUAL:
        return [(0, k, 1)], {0: 1, 1: 0}
    if mode == SINGLE:
        return [(r, 1, r * k * (e + k - 1)) for r in range(k)], {0: 0}
    raise ValueError("mode must be %r or %r" % (DUAL, SINGLE))


def pass_cycles(k: int, e: int, mode: str) -> int:
    """Cycles of every pass of the scan: the last mux selection comes
    2(k*k - 1) cycles after the wave start of the last band's last window."""
    _, rows, phi = _bands(k, e, mode)[0][-1]
    return phi + k * (e - 1) + rows - 1 + 2 * k * k - 1


def build_schedule(group: RowGroup, p: LayerParams, mode: str = DUAL) -> StreamSchedule:
    """The column-wise scan of p, a function of the sub-kernel size, the
    output width and the mode alone, placed at group: the bands of the
    module docstring, as _bands lists them."""
    k, e = group.k, p.e
    kk, cols = k * k, e + k - 1
    bands, skew = _bands(k, e, mode)
    slots = len(skew)
    scan = []
    mux = {}
    outputs = []
    for r0, n, phi in bands:
        scan += [FeedEvent(phi + k * b + v - skew[b % slots], b % slots, r0 + v, b)
                 for b in range(cols) for v in range(n + k - 1)]
        for y in range(e):
            for j in range(n):
                sigma = phi + k * y + j
                outputs.append(OutputEvent(sigma + kk - 1, r0 + j, y))
                for pi in range(kk):
                    mux[(pi, sigma + 2 * pi)] = (y + pi // k) % slots
    return StreamSchedule(group, mode, k, e, scan, mux, outputs, skew)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    """What validate_schedule found.  Each violation names the broken
    check first: bandwidth, parity, delay, window, feasibility or reuse."""

    first_valid_cycle: int = 0
    measured_throughput: Fraction = Fraction(0)
    steady_cycles_observed: int = 0
    feed_counts: dict = field(default_factory=dict)   # strip position -> feeds
    violations: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_schedule(s: StreamSchedule, p: LayerParams | None = None) -> ValidationReport:
    """Re-derive every MAC operand from feeds + mux alone and check the
    timing contracts, all in strip coordinates; the row group the
    schedule is placed at is never read.  Violations are data, not
    exceptions.  p is accepted for call compatibility and not read.

    A schedule without violations keeps what was derived as s.operands:
    one strip position (a * strip_cols + b) per window position, in
    output order and then PE order, which is also the cycle order within
    a window."""
    k, kk, cols = s.k, s.kk, s.strip_cols
    violations = []
    rep = ValidationReport()

    by_slot = {}
    for f in s.scan:
        slot = by_slot.setdefault(f.slot, {})
        if f.cycle in slot:
            violations.append(
                "bandwidth: two feeds on slot %d at cycle %d" % (f.slot, f.cycle))
        slot[f.cycle] = f

    if s.mode == DUAL:
        for f in s.scan:
            if f.b % 2 != f.slot:
                violations.append(
                    "parity: strip column %d rode slot %d" % (f.b, f.slot))
        firsts = {ch: min(d) for ch, d in by_slot.items()}
        if len(firsts) == 2:
            lead = min(firsts, key=firsts.get)
            lagd = max(firsts.values()) - firsts[lead]
            if lagd != k + 1:
                violations.append(
                    "delay: lagging slot starts %d cycles after the leading "
                    "one, expected %d" % (lagd, k + 1))
            if s.lead_slot is not None and lead != s.lead_slot:
                violations.append("delay: slot %d owns the extra entry register but slot %d "
                                  "feeds first" % (s.lead_slot, lead))
        elif cols > 1:    # a one-column strip needs one channel
            violations.append("delay: dual schedule uses fewer than two channels")

    operands = array("i")
    for out in s.outputs:
        sigma = out.cycle - (kk - 1)   # the window's wave start
        for pi in range(kk):
            t = sigma + 2 * pi
            ch = s.mux.get((pi, t))
            if ch is None:
                violations.append(
                    "window: output (%d,%d) has no mux setting for PE %d at cycle %d"
                    % (out.row, out.col, pi, t))
                continue
            feed = by_slot.get(ch, {}).get(t - pi - s.skew.get(ch, 0))
            if feed is None:
                violations.append(
                    "feasibility: PE %d mux at cycle %d selects slot %s but no "
                    "pixel resides there" % (pi, t, ch))
                continue
            want = (out.row + pi % k, out.col + pi // k)
            if (feed.a, feed.b) != want:
                violations.append(
                    "window: output (%d,%d) position %d expects strip position %r, "
                    "PE %d resolves %r" % (out.row, out.col, pi, want, pi, (feed.a, feed.b)))
            operands.append(feed.a * cols + feed.b)

    # an entry is resolved above exactly when it is PE pi's at some wave start + 2 pi
    starts = {out.cycle - (kk - 1) for out in s.outputs}
    for pi, t in s.mux:
        if not (0 <= pi < kk and t - 2 * pi in starts):
            violations.append("feasibility: orphan mux entry at PE %d cycle %d" % (pi, t))

    counts = Counter((f.a, f.b) for f in s.scan)
    rep.feed_counts = dict(counts)
    if s.mode == DUAL:
        expected = {(a, b) for a in range(s.strip_rows) for b in range(cols)}
        wrong = {pos: c for pos, c in counts.items() if c != 1}
        missing = expected - set(counts)
        for pos, c in sorted(wrong.items()):
            violations.append("reuse: strip position %r fed %d times" % (pos, c))
        for pos in sorted(missing):
            violations.append("reuse: strip position %r never fed" % (pos,))

    cycles = [o.cycle for o in s.outputs]
    rep.first_valid_cycle = cycles[0] if cycles else 0
    if len(cycles) > 1:
        gaps = Counter(b - a for a, b in zip(cycles, cycles[1:]))
        modal, reps = gaps.most_common(1)[0]
        rep.measured_throughput = Fraction(1, modal)
        rep.steady_cycles_observed = modal * reps

    rep.violations = tuple(violations)
    s.operands = None if violations else operands
    return rep


def schedule_trace(s: StreamSchedule) -> str:
    """One line per cycle of s placed at its row group: cycle, odd feed,
    even feed, completed outputs."""
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
                "(%d,%d)%s" % (o.row, o.col, "d" if s.group.is_dummy(o.row) else "")
                for o in outs))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def pass_trace(s: StreamSchedule, group: RowGroup, tile, base: int, trace: list) -> None:
    """One line per cycle of scan s placed at group per active primitive of
    tile, from cycle base on: the feeds and the windows that complete on
    that cycle."""
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
