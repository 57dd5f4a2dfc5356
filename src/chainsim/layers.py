"""Convolutional layer shapes, their polyphase decomposition, and
arithmetic-intensity bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass

from .tensors import ShapeError


@dataclass(frozen=True)
class LayerParams:
    """One square convolutional layer.

    n: batch, c: input channels, m: output channels, h: input map size,
    e: output map size, k: kernel size, plus stride / zero padding /
    channel groups.  e is redundant and checked against the others.
    """

    n: int
    c: int
    m: int
    h: int
    e: int
    k: int
    stride: int = 1
    pad: int = 0
    groups: int = 1

    def __post_init__(self):
        for name in ("n", "c", "m", "h", "e", "k", "stride", "groups"):
            if getattr(self, name) < 1:
                raise ShapeError("%s must be positive" % name)
        if self.pad < 0:
            raise ShapeError("pad must be non-negative")
        if self.k > self.h + 2 * self.pad:
            raise ShapeError("k exceeds padded input size on axis h")
        expect = (self.h + 2 * self.pad - self.k) // self.stride + 1
        if self.e != expect:
            raise ShapeError("e must be %d for this h/k/stride/pad, got %d" % (expect, self.e))
        if self.c % self.groups:
            raise ShapeError("c not divisible by groups")
        if self.m % self.groups:
            raise ShapeError("m not divisible by groups")

    @classmethod
    def from_shape(cls, n, c, m, h, k, stride=1, pad=0, groups=1) -> "LayerParams":
        e = (h + 2 * pad - k) // stride + 1
        return cls(n=n, c=c, m=m, h=h, e=e, k=k, stride=stride, pad=pad, groups=groups)

    @property
    def c_per_group(self) -> int:
        return self.c // self.groups

    @property
    def m_per_group(self) -> int:
        return self.m // self.groups

    def filter_group_of(self, m: int) -> int:
        return m // self.m_per_group

    def input_channels_of_group(self, g: int) -> range:
        return range(g * self.c_per_group, (g + 1) * self.c_per_group)

    def ifmap_dims(self):
        return (self.n, self.c, self.h, self.h)

    def kernel_dims(self):
        return (self.m, self.c_per_group, self.k, self.k)

    def bias_dims(self):
        return (self.m,)

    def ofmap_dims(self):
        return (self.n, self.m, self.e, self.e)

    def check_tensors(self, ifmaps=None, kernels=None, bias=None) -> None:
        """Raise a ShapeError naming the first of the given tensors whose
        dims are not this layer's."""
        for name, tensor, dims in (("ifmaps", ifmaps, self.ifmap_dims()),
                                   ("kernel", kernels, self.kernel_dims()),
                                   ("bias", bias, self.bias_dims())):
            if tensor is not None and tensor.dims != dims:
                raise ShapeError("%s dims %r do not match layer %r" % (name, tensor.dims, dims))


def mac_count(p: LayerParams) -> int:
    """Multiply-accumulate operations for the full layer."""
    return p.n * p.m * p.e * p.e * p.c_per_group * p.k * p.k


def phase_side(p: LayerParams) -> int:
    """Phase offsets per axis in p's polyphase decomposition: min(stride, k)."""
    return min(p.stride, p.k)


def phase_taps(p: LayerParams, a: int) -> int:
    """Kernel rows (equally, columns) of phase offset a: a, a + s, ... < k."""
    return len(range(a, p.k, p.stride))


def polyphase(p: LayerParams) -> LayerParams:
    """The stride-1 layer the chain runs for p.

    A stride-s convolution is exactly the sum of t*t stride-1 convolutions,
    t = min(s, k).  Sub-channel (c, a, b), numbered c*t*t + a*t + b, reads
    the decimated map whose pixel (i, j) is ifmap pixel
    (s*i + a - pad, s*j + b - pad) and holds the ceil(k/s)^2 kernel taps
    (s*i' + a, s*j' + b), zero past k.  The decimated map is
    e + ceil(k/s) - 1 pixels square and already padded.  Stride 1 is the
    single phase (0, 0)."""
    t = phase_side(p)
    k = phase_taps(p, 0)
    return LayerParams(n=p.n, c=p.c * t * t, m=p.m, h=p.e + k - 1, e=p.e, k=k,
                       groups=p.groups)


def phase_rows(p: LayerParams, a: int) -> range:
    """Rows (equally, columns) of phase offset a's decimated map that hold
    a real ifmap pixel, 0 <= s*i + a - pad < h; the others are zero pads."""
    s = p.stride
    return range(max(0, (p.pad - a + s - 1) // s),
                 min(p.e + phase_taps(p, 0) - 1, (p.h - 1 + p.pad - a) // s + 1))
