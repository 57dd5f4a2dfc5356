import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsim.fixedpoint import (FixedFormat, acc_to_sample, acc_to_samples, clamp_acc,
                                 clamp_sample, pack_lanes, round_half_even_rshift)

Q88 = FixedFormat(total_bits=16, frac_bits=8, accumulator_bits=32)


def test_zero_is_exact():
    # in either overflow mode, and with no fraction bits to round away
    for fmt in (Q88, FixedFormat(overflow="wrap"), FixedFormat(frac_bits=0)):
        assert acc_to_sample(0, fmt) == (0, False)
        assert acc_to_samples([0], fmt) == [0]


def test_one_in_q88_is_256():
    # one MAC of 1.0 * 1.0 rescales to 1.0, raw 256
    assert Q88.scale == 256
    acc, _ = clamp_acc(0 + 256 * 256, Q88)
    assert acc_to_sample(acc, Q88) == (256, False)


def test_tenth_rounds_to_26():
    # 0.1 at double-frac scaling is raw 6554, 25.6 samples: plain nearest
    assert acc_to_sample(6554, Q88) == (26, False)


def test_half_lsb_ties_round_to_even():
    # 2.5 and 3.5 samples at double-frac scaling: 2.5 -> 2, 3.5 -> 4
    assert acc_to_sample(640, Q88)[0] == 2
    assert acc_to_sample(896, Q88)[0] == 4


def test_wrap_overflow_is_deterministic():
    fmt = FixedFormat(overflow="wrap")
    raw, flagged = clamp_sample(51200, fmt)  # 200.0 wraps in 16 bits
    assert flagged
    assert raw == 51200 - 65536


def test_mac_zero_annihilates():
    assert clamp_acc(777 + 0 * 12345, Q88) == (777, False)


def test_mac_unit_product_scaling():
    # 1.0 * 1.0 at double-frac scaling
    assert clamp_acc(0 + 256 * 256, Q88) == (65536, False)


@given(st.integers(-32768, 32767), st.integers(-32768, 32767),
       st.integers(-(1 << 31), (1 << 31) - 1))
def test_mac_matches_wide_integer_oracle(a, b, acc):
    want = acc + a * b
    lo, hi = -(1 << 31), (1 << 31) - 1
    clamped = min(max(want, lo), hi)
    got, overflowed = clamp_acc(acc + a * b, Q88)
    assert got == clamped
    assert overflowed == (want != clamped)


@settings(max_examples=50)
@given(st.lists(st.tuples(st.integers(-600, 600), st.integers(-600, 600)),
                min_size=1, max_size=30),
       st.randoms(use_true_random=False))
def test_mac_order_independent_without_overflow(pairs, rnd):
    def run(seq):
        acc = 0
        for a, b in seq:
            acc, ovf = clamp_acc(acc + a * b, Q88)
            assert not ovf
        return acc
    shuffled = list(pairs)
    rnd.shuffle(shuffled)
    assert run(pairs) == run(shuffled)


def test_acc_to_sample_rounds_and_saturates():
    assert acc_to_sample(65536, Q88) == (256, False)
    assert acc_to_sample(128, Q88) == (0, False)      # 0.5 ulp tie -> even
    assert acc_to_sample(384, Q88) == (2, False)      # 1.5 ulp tie -> even
    assert acc_to_sample(1 << 30, Q88) == (Q88.sample_max, True)


@st.composite
def _format_and_accumulators(draw):
    """A format with total_bits 2-32, any frac_bits and either overflow
    mode, and accumulator values around it: exact +-half ties, values in
    the sample range and values past it on either side."""
    total = draw(st.integers(2, 32))
    fmt = FixedFormat(total_bits=total, frac_bits=draw(st.integers(0, total - 1)),
                      accumulator_bits=draw(st.integers(total, 64)),
                      overflow=draw(st.sampled_from(("saturate", "wrap"))))
    f = fmt.frac_bits
    wide = 1 << (total + f + 2)    # four times past the sample range, scaled
    quotient = st.integers(fmt.sample_min - 4, fmt.sample_max + 4)
    tie = st.builds(lambda q, sign: (q << f) + sign * (1 << f >> 1),
                    quotient, st.sampled_from((-1, 1)))
    values = draw(st.lists(st.one_of(tie, st.integers(-wide, wide),
                                     st.integers(fmt.sample_min << f, fmt.sample_max << f)),
                           max_size=30))
    return fmt, values


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_format_and_accumulators())
def test_acc_to_samples_is_acc_to_sample_per_value(case):
    fmt, values = case
    assert acc_to_samples(values, fmt) == [acc_to_sample(v, fmt)[0] for v in values]


def test_acc_to_samples_rounds_ties_to_even_and_clamps():
    assert acc_to_samples([128, 384, -128, -384, 65536, 1 << 30, -(1 << 30)], Q88) == \
        [0, 2, 0, -2, 256, Q88.sample_max, Q88.sample_min]
    wrap = FixedFormat(total_bits=8, frac_bits=0, accumulator_bits=16, overflow="wrap")
    assert acc_to_samples([127, 128, -129, 7], wrap) == [127, -128, 127, 7]


def test_round_half_even_rshift():
    assert round_half_even_rshift(5, 1) == 2
    assert round_half_even_rshift(7, 1) == 4
    assert round_half_even_rshift(-5, 1) == -2
    assert round_half_even_rshift(-7, 1) == -4


def test_invalid_formats_rejected():
    with pytest.raises(ValueError):
        FixedFormat(frac_bits=16)
    with pytest.raises(ValueError):
        FixedFormat(accumulator_bits=8)


def test_clamp_acc_saturates_at_32_bits():
    hi = (1 << 31) - 1
    assert clamp_acc(hi + 5, Q88) == (hi, True)
    assert clamp_acc(-(1 << 31) - 5, Q88) == (-(1 << 31), True)


def test_pack_lanes_puts_the_last_value_in_lane_zero():
    assert pack_lanes([1, 2, 3], 8) == 0x010203
    assert pack_lanes(iter([0xA, 0xB]), 4) == 0xAB
    assert pack_lanes([], 8) == 0
    # a negative value borrows one from the lane above it
    assert pack_lanes([1, -1], 8) == 0x00FF
    assert pack_lanes([2, -1, 3], 8) == 0x01FF03


@settings(max_examples=200)
@given(st.lists(st.integers(-2 ** 20, 2 ** 20), max_size=12), st.integers(1, 40))
def test_pack_lanes_is_the_lane_weighted_sum(values, bits):
    n = len(values)
    packed = pack_lanes(values, bits)
    assert packed == sum(v * 2 ** (bits * (n - 1 - i)) for i, v in enumerate(values))
    if all(0 <= v < 1 << bits for v in values):
        assert [(packed >> bits * (n - 1 - i)) & ((1 << bits) - 1) for i in range(n)] == values
