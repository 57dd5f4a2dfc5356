"""Embedded network presets and deterministic synthetic tensors.

Synthetic data comes from a 64-bit linear congruential generator with the
MMIX constants (state' = 6364136223846793005 * state + 1442695040888963407
mod 2**64; each draw takes the top 31 bits).  The same seed produces the
same bytes on every platform.  Sample magnitudes are bounded per layer
shape so that a full window accumulation over k*k * (c/groups) products
plus the bias can never overflow the accumulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fixedpoint import DEFAULT_FORMAT, FixedFormat
from .layers import LayerParams
from .tensors import SampleTensor

_LCG_MUL = 6364136223846793005
_LCG_ADD = 1442695040888963407
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class NetworkPreset:
    name: str
    layers: tuple  # tuple[LayerParams], batch 1


ALEXNET = NetworkPreset("alexnet", (
    LayerParams.from_shape(n=1, c=3, m=96, h=227, k=11, stride=4, pad=0, groups=1),
    LayerParams.from_shape(n=1, c=96, m=256, h=27, k=5, stride=1, pad=2, groups=2),
    LayerParams.from_shape(n=1, c=256, m=384, h=13, k=3, stride=1, pad=1, groups=1),
    LayerParams.from_shape(n=1, c=384, m=384, h=13, k=3, stride=1, pad=1, groups=2),
    LayerParams.from_shape(n=1, c=384, m=256, h=13, k=3, stride=1, pad=1, groups=2),
))

_VGG_PLAN = [
    (3, 64, 224), (64, 64, 224),
    (64, 128, 112), (128, 128, 112),
    (128, 256, 56), (256, 256, 56), (256, 256, 56),
    (256, 512, 28), (512, 512, 28), (512, 512, 28),
    (512, 512, 14), (512, 512, 14), (512, 512, 14),
]

VGG16 = NetworkPreset("vgg16", tuple(
    LayerParams.from_shape(n=1, c=c, m=m, h=h, k=3, stride=1, pad=1, groups=1)
    for c, m, h in _VGG_PLAN
))

PRESETS = {p.name: p for p in (ALEXNET, VGG16)}


class _Pool(dict):
    """The sample values in [-bound, bound] by offset from -bound, each one
    int object made when first drawn, so the pool holds only values drawn."""

    def __init__(self, bound: int):
        super().__init__()
        self.bound, self.span = bound, 2 * bound + 1
        self.values = None   # every value in offset order, once a call draws span or more

    def __missing__(self, offset: int) -> int:
        value = self[offset] = offset - self.bound
        return value

    def table(self, count: int):
        """What count draws index.  Once one call draws at least span
        samples, a tuple of every value is no larger than those draws and
        faster to index: it takes over the ints drawn so far, and the dict
        empties.  Until then, the pool itself."""
        if self.values is None and count >= self.span:
            self.values = tuple(_Sized(map(self.get, range(self.span),
                                           range(-self.bound, self.bound + 1)), self.span))
            self.clear()
        return self.values or self


_POOLS: dict = {}   # bound -> _Pool, shared by every synth_tensors call


class _Sized:
    """An iterator with a known length, which list() and tuple() read to
    allocate their result once, at full size."""

    __slots__ = ("iterator", "length")

    def __init__(self, iterator, length: int):
        self.iterator, self.length = iterator, length

    def __iter__(self):
        return self.iterator

    def __len__(self) -> int:
        return self.length


class _Lcg:
    def __init__(self, seed: int):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & _MASK64
        for _ in range(4):
            self.next_raw()

    def next_raw(self) -> int:
        self.state = (_LCG_MUL * self.state + _LCG_ADD) & _MASK64
        return self.state >> 33

    def draws(self, pool: _Pool, count: int) -> tuple:
        """count draws, each pool[next_raw() % pool.span].

        The draws fill a list of exactly count slots, which the tuple then
        copies.  Drawn straight into a tuple, a payload fits the block that
        its predecessor freed only if nothing took part of that block in
        between, so a process that builds inputs over and over peaks one
        payload higher in some runs than in others."""
        return tuple(list(_Sized(self._samples(pool, count), count)))

    def _samples(self, pool: _Pool, count: int):
        state, values, span = self.state, pool.table(count), pool.span
        for _ in range(count):
            state = (_LCG_MUL * state + _LCG_ADD) & _MASK64
            yield values[(state >> 33) % span]
        self.state = state


def safe_sample_bound(p: LayerParams, fmt: FixedFormat = DEFAULT_FORMAT) -> int:
    """Largest magnitude R so that |bias<<f| + k*k*(c/groups)*R^2 stays in
    the accumulator for any window of this layer."""
    terms = p.k * p.k * p.c_per_group
    budget = fmt.acc_max
    lo, hi = 1, fmt.sample_max
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if terms * mid * mid + (mid << fmt.frac_bits) <= budget:
            lo = mid
        else:
            hi = mid - 1
    return lo


def synth_tensors(p: LayerParams, seed: int, fmt: FixedFormat = DEFAULT_FORMAT):
    """Deterministic (ifmaps, kernels, bias) for a layer.  Every sample is
    drawn uniformly from the 2R+1 values in [-R, R], and equal samples,
    across calls too, share one int object."""
    rng = _Lcg(seed)
    bound = min(safe_sample_bound(p, fmt), 4 << fmt.frac_bits)
    pool = _POOLS.setdefault(bound, _Pool(bound))

    def tensor(dims):
        return SampleTensor(dims, rng.draws(pool, math.prod(dims)), fmt)

    ifmaps = tensor(p.ifmap_dims())
    kernels = tensor(p.kernel_dims())
    bias = tensor(p.bias_dims())
    return ifmaps, kernels, bias
