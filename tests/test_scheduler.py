import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainsim import LayerParams, build_schedule, row_groups, validate_schedule
from chainsim.layers import polyphase
from chainsim.scheduler import (DUAL, SINGLE, FeedEvent, StreamSchedule, pass_cycles,
                                schedule_trace)


def make_layer(h=11, k=3, stride=1, pad=0):
    return LayerParams.from_shape(n=1, c=1, m=1, h=h, k=k, stride=stride, pad=pad)


def built(p, mode=DUAL, group=0):
    s = build_schedule(row_groups(p)[group], p, mode)
    rep = validate_schedule(s, p)
    return s, rep


# ---------------------------------------------------------------- row groups

def test_row_groups_cover_all_output_rows_with_dummies():
    p = LayerParams.from_shape(n=1, c=1, m=1, h=13, k=3, pad=1)  # e = 13
    gs = row_groups(p)
    assert len(gs) == 5
    assert gs[-1].num_dummy_rows == 2
    real = [r for g in gs for i, r in enumerate(g.out_rows) if not g.is_dummy(i)]
    assert real == list(range(13))


def test_single_group_when_e_equals_k():
    p = make_layer(h=5, k=3)  # e = 3
    gs = row_groups(p)
    assert len(gs) == 1
    assert gs[0].strip_rows == 5


def test_consecutive_strips_overlap_k_minus_1_rows():
    # strips of one phase step k' decimated rows, stride*k' ifmap rows
    for h, k, stride in ((7, 3, 1), (15, 5, 2)):
        p = make_layer(h=h, k=k, stride=stride)
        q = polyphase(p)
        g0, g1 = [g for g in row_groups(p) if g.phase == (1 % stride, 0)]
        rows0 = {g0.strip_base + stride * a for a in range(g0.strip_rows)}
        rows1 = {g1.strip_base + stride * a for a in range(g1.strip_rows)}
        assert len(rows0 & rows1) == q.k - 1
        assert g0.strip_rows == 2 * q.k - 1
        assert g1.strip_base - g0.strip_base == stride * q.k
        assert g0.strip_base == g0.phase[0] - p.pad


# ----------------------------------------------------------- dual, stride 1

def test_first_window_by_cycle_k_squared_and_one_per_cycle_after():
    p = make_layer(h=7, k=3)
    s, rep = built(p)
    assert rep.ok
    assert rep.first_valid_cycle <= 9
    cycles = [o.cycle for o in s.outputs]
    assert cycles == list(range(cycles[0], cycles[0] + len(cycles)))
    assert rep.measured_throughput == 1


def test_k1_every_feed_completes_a_window():
    p = make_layer(h=4, k=1)
    s, rep = built(p)
    assert rep.ok
    assert rep.first_valid_cycle == 1
    assert rep.measured_throughput == 1


def test_single_channel_throughput_is_one_over_k():
    p = make_layer(h=7, k=3)
    s, rep = built(p, mode=SINGLE)
    assert rep.ok
    assert rep.measured_throughput == Fraction(1, 3)


def test_even_channel_lags_k_plus_1_with_zero_pad():
    p = make_layer(h=9, k=3)
    s, rep = built(p)
    firsts = {}
    for f in s.feeds:
        firsts[f.channel] = min(firsts.get(f.channel, 10 ** 9), f.cycle)
    # column 0 is even, so the even channel leads and odd lags by k+1
    assert s.group.channels(DUAL)[s.lead_slot] == "even"
    assert firsts["odd"] - firsts["even"] == p.k + 1
    assert not any(v.startswith("delay:") for v in rep.violations)


def test_odd_pad_flips_the_leading_channel():
    p = make_layer(h=9, k=3, pad=1)
    s, rep = built(p)
    assert s.group.channels(DUAL)[s.lead_slot] == "odd"
    assert rep.ok


def test_feed_once_and_strip_feed_total():
    p = make_layer(h=11, k=3)  # e = 9, interior group
    s, rep = built(p, group=1)
    assert rep.ok
    assert all(c == 1 for c in rep.feed_counts.values())
    assert len(rep.feed_counts) == s.strip_rows * s.strip_cols
    # (2k-1) rows x strip width feed slots for an interior group
    assert s.feed_count == (2 * p.k - 1) * (p.e + p.k - 1)


def test_interior_mac_to_feed_ratio():
    # pad 0, interior group, interior columns: the strip's boundary columns
    # serve partial window sets, so the exact k^3/(2k-1) MAC-per-feed ratio
    # is a per-interior-column identity.
    p = make_layer(h=11, k=3)
    s, rep = built(p, group=1)
    k = p.k
    interior = range(k - 1, p.h - k + 1)
    g = s.group
    used = [divmod(i, s.strip_cols) for i in s.operands]
    macs = Counter(g.coordinate(*pos)[1] for pos in used if not g.is_pad(*pos))
    feeds = Counter(f.col for f in s.feeds if not f.is_pad)
    for col in interior:
        assert Fraction(macs[col], feeds[col]) == Fraction(k ** 3, 2 * k - 1)
        assert feeds[col] == 2 * k - 1
        assert macs[col] == k ** 3


def test_operand_table_counts():
    p = make_layer(h=7, k=3)
    s, rep = built(p)
    assert len(s.operands) == 9 * s.num_outputs == p.k ** 2 * p.k * p.e
    # the first window's nine operands, in PE order, are its column-major
    # 3x3 strip block, which group 0 places on the ifmap's top-left pixels
    first = [divmod(i, s.strip_cols) for i in s.operands[:9]]
    assert first == [(pi % 3, pi // 3) for pi in range(9)]
    assert [s.group.coordinate(a, b) for a, b in first] == first


def test_operand_table_set_only_by_validation():
    p = make_layer(h=7, k=3)
    s = build_schedule(row_groups(p)[0], p, DUAL)
    assert s.operands is None
    assert validate_schedule(s, p).ok
    assert len(s.operands) == s.num_outputs * s.kk


def test_padding_pixels_are_zero_feeds_consuming_bandwidth():
    p = make_layer(h=5, k=3, pad=1)
    s, rep = built(p)
    assert rep.ok
    pads = [f for f in s.feeds if f.is_pad]
    assert pads, "padded layer must stream explicit zero feeds"
    assert s.real_feed_count + len(pads) == s.feed_count


# ------------------------------------------------------------ negative cases

def _perturbed(s, p, scan=None, mux=None, outputs=None):
    clone = StreamSchedule.__new__(StreamSchedule)
    clone.__dict__.update(s.__dict__)
    if scan is not None:
        clone.scan = tuple(scan)
    if mux is not None:
        clone.mux = dict(mux)
    if outputs is not None:
        clone.outputs = tuple(outputs)
    return clone


def test_wrong_channel_delay_is_flagged():
    p = make_layer(h=9, k=3)
    s, _ = built(p)
    lag = 1 - s.lead_slot
    scan = [FeedEvent(f.cycle - 1, f.slot, f.a, f.b) if f.slot == lag else f
            for f in s.scan]
    bad = _perturbed(s, p, scan=scan)
    rep = validate_schedule(bad, p)
    assert any(v.startswith("delay:") for v in rep.violations)


def test_double_feed_is_flagged_as_reuse_violation():
    p = make_layer(h=9, k=3)
    s, _ = built(p)
    donor = s.scan[0]
    extra = FeedEvent(s.scan[-1].cycle + 7, donor.slot, donor.a, donor.b)
    bad = _perturbed(s, p, scan=list(s.scan) + [extra])
    rep = validate_schedule(bad, p)
    assert any(v.startswith("reuse:") for v in rep.violations)
    assert rep.feed_counts[(donor.a, donor.b)] == 2


def test_missing_mux_entry_breaks_window_property():
    p = make_layer(h=9, k=3)
    s, _ = built(p)
    mux = dict(s.mux)
    mux.pop(next(iter(mux)))
    rep = validate_schedule(_perturbed(s, p, mux=mux), p)
    assert any(v.startswith("window:") for v in rep.violations)


@pytest.mark.parametrize("mode", [DUAL, SINGLE])
def test_orphan_mux_entries_are_rejected(mode):
    # an entry no window position resolves: past the scan, or for a PE
    # beyond the primitive; an overwritten real entry is no orphan
    p = make_layer(h=9, k=3)
    s, _ = built(p, mode)
    for key in ((0, 10_000), (s.kk, 5)):
        rep = validate_schedule(_perturbed(s, p, mux={**s.mux, key: 0}), p)
        assert rep.violations == ("feasibility: orphan mux entry at PE %d cycle %d" % key,)
    key = next(iter(s.mux))
    rep = validate_schedule(_perturbed(s, p, mux={**s.mux, key: 1 - s.mux[key]}), p)
    assert rep.violations
    assert not any("orphan" in v for v in rep.violations)


def test_wrong_mux_channel_breaks_feasibility_or_window():
    p = make_layer(h=9, k=3)
    s, _ = built(p)
    mux = dict(s.mux)
    key = next(iter(mux))
    mux[key] = 1 - mux[key]
    rep = validate_schedule(_perturbed(s, p, mux=mux), p)
    assert not rep.ok


# ------------------------------------------------------ polyphase strides

@pytest.mark.parametrize("shape", [
    dict(h=11, k=3, stride=2, pad=1), dict(h=14, k=5, stride=3),
    dict(h=19, k=11, stride=4),           # AlexNet conv1's kernel and stride
    dict(h=10, k=2, stride=3, pad=1),     # k < s: 1x1 sub-kernels
    dict(h=9, k=4, stride=2),
])
def test_polyphase_dual_schedules_run_at_full_rate_without_refeeds(shape):
    p = make_layer(**shape)
    q = polyphase(p)
    groups = row_groups(p)
    assert len(groups) == -(-p.e // q.k) * min(p.stride, p.k) ** 2
    for g in groups:
        s, rep = built(p, group=groups.index(g))
        assert rep.ok, rep.violations[:3]
        assert s.k == q.k
        assert rep.first_valid_cycle <= q.k * q.k
        assert rep.measured_throughput == 1
        assert s.refeed_count == 0
        assert set(rep.feed_counts.values()) == {1}
        assert s.span_cycles == pass_cycles(q.k, p.e, DUAL)


def test_pass_cycles_is_the_built_scan_span():
    # one band table gives both: k 1-7, strides 1-4, pad < k, h from k to k + 13
    for k, stride, mode in itertools.product(range(1, 8), range(1, 5), (DUAL, SINGLE)):
        for pad in range(k):
            for h in range(k, k + 14):
                p = make_layer(h=h, k=k, stride=stride, pad=pad)
                q = polyphase(p)
                s = build_schedule(row_groups(p)[0], p, mode)
                assert pass_cycles(q.k, p.e, mode) == s.span_cycles, (k, stride, pad, h, mode)


def test_strip_rows_past_the_decimated_map_are_pads():
    # k=4, stride 2 on a 9-pixel map: e = 3 and 2x2 sub-kernels leave a
    # 4-row decimated map, but the last group's strip reaches decimated
    # row 4, ifmap row 8, which no real output reads
    p = make_layer(h=9, k=4, stride=2)
    groups = row_groups(p)
    last = groups.index(next(g for g in groups if g.index == 1 and g.phase == (0, 0)))
    s, rep = built(p, group=last)
    assert rep.ok
    row8 = [f for f in s.feeds if f.row == 8]
    assert row8 and all(f.is_pad for f in row8)


# ----------------------------------------------------------------- property

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_generated_schedules_always_validate(seed):
    from conftest import random_layer
    r = random.Random(seed)
    p = random_layer(r, h_max=12)
    mode = r.choice([DUAL, SINGLE])
    for g in row_groups(p):
        s = build_schedule(g, p, mode)
        rep = validate_schedule(s, p)
        assert rep.ok, rep.violations[:3]
        if mode == DUAL:
            assert rep.first_valid_cycle <= g.k * g.k
            assert rep.measured_throughput == 1


MUTATIONS = ("shift feed", "duplicate feed", "drop mux", "move mux", "switch mux")


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(MUTATIONS), st.data())
def test_mutated_scan_is_rejected_without_operand_table(seed, mutation, data):
    # every feed and every mux entry of a valid scan is used by exactly one
    # window position, so any of these mutations breaks some window
    from conftest import random_layer
    r = random.Random(seed)
    p = random_layer(r, h_max=12)
    s, rep = built(p, mode=r.choice([DUAL, SINGLE]))
    assert rep.ok
    scan, mux = list(s.scan), dict(s.mux)
    i = data.draw(st.integers(0, len(scan) - 1))
    key = data.draw(st.sampled_from(sorted(mux)))
    if mutation == "shift feed":
        f = scan[i]
        scan[i] = FeedEvent(f.cycle + data.draw(st.integers(-6, 6).filter(bool)), f.slot, f.a, f.b)
    elif mutation == "duplicate feed":
        scan.append(scan[i])
    elif mutation == "drop mux":
        del mux[key]
    elif mutation == "move mux":
        to = (data.draw(st.integers(0, s.kk - 1)), key[1] + data.draw(st.integers(-6, 6)))
        assume(to != key)
        mux[to] = mux.pop(key)
    else:
        mux[key] = 1 - mux[key]
    bad = _perturbed(s, p, scan=scan, mux=mux)
    rep = validate_schedule(bad, p)
    assert rep.violations
    assert bad.operands is None


# -------------------------------------------------------------------- trace

EXPECTED_TRACE_H5_K3 = """\
     0 odd=- even=(0,0)
     1 odd=- even=(1,0)
     2 odd=- even=(2,0)
     3 odd=- even=(3,0)
     4 odd=(0,1) even=(4,0)
     5 odd=(1,1) even=-
     6 odd=(2,1) even=(0,2)
     7 odd=(3,1) even=(1,2)
     8 odd=(4,1) even=(2,2)
     9 odd=- even=(3,2) out=(0,0)
    10 odd=(0,3) even=(4,2) out=(1,0)
    11 odd=(1,3) even=- out=(2,0)
    12 odd=(2,3) even=(0,4) out=(0,1)
    13 odd=(3,3) even=(1,4) out=(1,1)
    14 odd=(4,3) even=(2,4) out=(2,1)
    15 odd=- even=(3,4) out=(0,2)
    16 odd=- even=(4,4) out=(1,2)
    17 odd=- even=- out=(2,2)
"""


def test_trace_golden_file():
    p = make_layer(h=5, k=3)  # e = 3, one group, strip = whole map
    s, rep = built(p)
    assert rep.ok
    lines = schedule_trace(s).splitlines(keepends=True)
    assert "".join(lines[:18]) == EXPECTED_TRACE_H5_K3


EXPECTED_TRACE_H4_K2_SINGLE = """\
     0 odd=(0,0) even=-
     1 odd=(1,0) even=-
     2 odd=(0,1) even=-
     3 odd=(1,1) even=- out=(0,0)
     4 odd=(0,2) even=-
     5 odd=(1,2) even=- out=(0,1)
     6 odd=(0,3) even=-
     7 odd=(1,3) even=- out=(0,2)
     8 odd=(1,0) even=-
     9 odd=(2,0) even=-
    10 odd=(1,1) even=-
    11 odd=(2,1) even=- out=(1,0)
    12 odd=(1,2) even=-
    13 odd=(2,2) even=- out=(1,1)
    14 odd=(1,3) even=-
    15 odd=(2,3) even=- out=(1,2)
    16 odd=- even=-
    17 odd=- even=-
    18 odd=- even=-
"""


def test_single_mode_trace_golden_file():
    """Single mode feeds one output row's k-row band after another, each
    band k*(e + k - 1) cycles after the previous one, on one channel."""
    p = make_layer(h=4, k=2)  # e = 3, group 0 holds output rows 0 and 1
    s, rep = built(p, SINGLE)
    assert rep.ok
    assert schedule_trace(s) == EXPECTED_TRACE_H4_K2_SINGLE
