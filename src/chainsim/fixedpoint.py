"""Signed fixed-point sample arithmetic with explicit, deterministic overflow.

All arithmetic is done on plain Python ints holding the *raw* (scaled)
representation, so results are bit-reproducible on every platform.
A sample with raw value r in format Qm.f represents the real number
r / 2**f.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

OVERFLOW_SATURATE = "saturate"
OVERFLOW_WRAP = "wrap"


@dataclass(frozen=True)
class FixedFormat:
    """Shape of the sample and accumulator number system."""

    total_bits: int = 16
    frac_bits: int = 8
    accumulator_bits: int = 32
    overflow: str = OVERFLOW_SATURATE

    def __post_init__(self):
        if self.total_bits < 2:
            raise ValueError("total_bits must be >= 2")
        if not 0 <= self.frac_bits < self.total_bits:
            raise ValueError("frac_bits must satisfy 0 <= frac_bits < total_bits")
        if self.accumulator_bits < self.total_bits:
            raise ValueError("accumulator_bits must be >= total_bits")
        if self.overflow not in (OVERFLOW_SATURATE, OVERFLOW_WRAP):
            raise ValueError("unsupported overflow mode: %r" % (self.overflow,))

    @cached_property
    def sample_min(self) -> int:
        return -(1 << (self.total_bits - 1))

    @cached_property
    def sample_max(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    @cached_property
    def acc_min(self) -> int:
        return -(1 << (self.accumulator_bits - 1))

    @cached_property
    def acc_max(self) -> int:
        return (1 << (self.accumulator_bits - 1)) - 1

    @cached_property
    def scale(self) -> int:
        return 1 << self.frac_bits


DEFAULT_FORMAT = FixedFormat()


def _clamp(raw: int, lo: int, hi: int, overflow: str) -> tuple[int, bool]:
    """Bring raw into [lo, hi] by the overflow mode.  Returns (value, clamped?)."""
    if lo <= raw <= hi:
        return raw, False
    if overflow == OVERFLOW_SATURATE:
        return (lo if raw < lo else hi), True
    return (raw - lo) % (hi - lo + 1) + lo, True


def clamp_sample(raw: int, fmt: FixedFormat) -> tuple[int, bool]:
    """Bring a raw value into sample range.  Returns (value, clamped?)."""
    return _clamp(raw, fmt.sample_min, fmt.sample_max, fmt.overflow)


def clamp_acc(raw: int, fmt: FixedFormat) -> tuple[int, bool]:
    """Bring a raw value into accumulator range.  Returns (value, clamped?)."""
    return _clamp(raw, fmt.acc_min, fmt.acc_max, fmt.overflow)


def round_half_even_rshift(value: int, shift: int) -> int:
    """Arithmetic right shift with round-half-to-even on the dropped bits."""
    if shift <= 0:
        return value << -shift if shift else value
    whole = value >> shift
    rem = value - (whole << shift)
    half = 1 << (shift - 1)
    if rem > half or (rem == half and (whole & 1)):
        whole += 1
    return whole


def acc_to_sample(acc: int, fmt: FixedFormat = DEFAULT_FORMAT) -> tuple[int, bool]:
    """Rescale a 2*frac-scaled accumulator back to a sample."""
    return clamp_sample(round_half_even_rshift(acc, fmt.frac_bits), fmt)


def acc_to_samples(values, fmt: FixedFormat = DEFAULT_FORMAT) -> list[int]:
    """acc_to_sample(v, fmt)[0] for every v of values, in one pass.  For
    v = q * 2**f + r, adding 2**(f-1) - 1 plus q's low bit carries into q
    exactly when r rounds up, half to even; with f = 0 both terms are 0."""
    f, lo, hi = fmt.frac_bits, fmt.sample_min, fmt.sample_max
    odd = 1 if f else 0
    below = (1 << f >> 1) - odd
    if fmt.overflow == OVERFLOW_SATURATE:
        return [lo if (r := (v + below + ((v >> f) & odd)) >> f) < lo else hi if r > hi else r
                for v in values]
    span = (1 << fmt.total_bits) - 1
    return [((((v + below + ((v >> f) & odd)) >> f) - lo) & span) + lo for v in values]


def pack_lanes(values, bits: int) -> int:
    """One int holding values[-1] in lane 0, values[-2] in lane 1, and so
    on, each lane bits wide: sum(v << bits * (n - 1 - i)) over values[i]
    by Horner's rule, so a negative value borrows from the lane above."""
    packed = 0
    for v in values:
        packed = (packed << bits) + v
    return packed


def overflow_free(ifmaps, kernels, bias) -> bool:
    """Whether |bias << f| + max|x| * sum|w| <= acc_max for every output
    channel of a layer's SampleTensors, the sum taken over that channel's
    kernel.  Every partial and running sum of a window, in any order, then
    stays within the accumulator, so no clamp can fire.  This is
    safe_sample_bound's inequality, evaluated on the data."""
    fmt = ifmaps.fmt
    xmax = max(map(abs, ifmaps.payload))
    w = kernels.payload
    per = len(w) // len(bias.payload)
    return all(abs(b << fmt.frac_bits) + xmax * sum(map(abs, w[i:i + per])) <= fmt.acc_max
               for b, i in zip(bias.payload, range(0, len(w), per)))
