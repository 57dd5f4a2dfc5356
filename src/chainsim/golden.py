"""Direct triple-loop convolution oracle, in real or fixed arithmetic.

Every simulated output in the project is checked against this function.
Where a clamp can fire, the fixed path uses one mandated summation order
(input channel outer, kernel row middle, kernel column inner) so results
are bit-reproducible.  Where none can (overflow_free), every order gives
the same sum, and each output sample is its seed plus one sum of its
window's products.
"""

from __future__ import annotations

from operator import itemgetter, mul

from .fixedpoint import acc_to_sample, clamp_acc, overflow_free, quantize
from .layers import LayerParams
from .tensors import SampleTensor, ShapeError


def _check_dims(ifmaps, kernels, bias, p: LayerParams):
    if ifmaps.dims != p.ifmap_dims():
        raise ShapeError("ifmaps dims %r do not match layer %r" % (ifmaps.dims, p.ifmap_dims()))
    if kernels.dims != p.kernel_dims():
        raise ShapeError("kernel dims %r do not match layer %r" % (kernels.dims, p.kernel_dims()))
    if bias.dims != p.bias_dims():
        raise ShapeError("bias dims %r do not match layer %r" % (bias.dims, p.bias_dims()))


def _taps(p: LayerParams):
    """The in-map taps of each output position x * e + y, in the mandated
    order: (ifmap, kernels, clip).  ifmap[pos] lists their offsets from the
    filter group's first input channel of an image, and kernels[clip[pos]]
    their offsets from the start of an output channel's kernel, one list
    per way the map's edges clip a window."""
    h, k, s, pad, cpg = p.h, p.k, p.stride, p.pad, p.c_per_group
    clips = {}   # the kernel rows that fall in the map -> clip number
    lines = []   # per output row x (or column y): its clip number and the map rows it reads
    for top in range(-pad, p.e * s - pad, s):
        ij = range(max(0, -top), min(k, h - top))
        lines.append((clips.setdefault(ij, len(clips)), range(top + ij.start, top + ij.stop)))
    kernels = [[c * k * k + i * k + j for c in range(cpg) for i in ri for j in rj]
               for ri in clips for rj in clips]
    flat = list(range(cpg * h * h))   # one int per ifmap offset, shared by every window
    ifmap, clip = [], []
    for cx, rows in lines:
        starts = [c * h * h + r * h for c in range(cpg) for r in rows]
        for cy, cols in lines:
            ifmap.append([a for b in starts for a in flat[b + cols.start:b + cols.stop]])
            clip.append(cx * len(clips) + cy)
    return ifmap, kernels, clip


def _windows(p: LayerParams):
    """Per output sample, in [n][m][x][y] order: its output channel and the
    (ifmap index, kernel index) pairs of its in-map taps, in the mandated
    order."""
    ifmap, kernels, clip = _taps(p)
    for n in range(p.n):
        for m in range(p.m):
            if_base = (n * p.c + p.filter_group_of(m) * p.c_per_group) * p.h * p.h
            k_base = m * p.c_per_group * p.k * p.k
            for offsets, i in zip(ifmap, clip):
                yield m, [(if_base + a, k_base + b) for a, b in zip(offsets, kernels[i])]


def _gather(idx):
    """A callable that returns the tuple of d[i] for i in idx."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return lambda d: tuple(map(d.__getitem__, idx))   # no tap, or itemgetter's bare item


def _window_sums(ifmaps, kernels, bias, p: LayerParams) -> list:
    """The fixed-point output payload when no clamp can fire: each sample
    is bias << f plus one sum of its window's products.  Each position's
    operands are gathered once per (image, filter group) and serve every
    output channel of the group."""
    fmt = ifmaps.fmt
    ifmap, kernel_taps, clip = _taps(p)
    operands, weights = list(map(_gather, ifmap)), list(map(_gather, kernel_taps))
    plane, kk = p.c_per_group * p.h * p.h, p.c_per_group * p.k * p.k
    ifpay, kpay = ifmaps.payload, kernels.payload
    out = []
    for n in range(p.n):
        for g in range(p.groups):
            base = (n * p.groups + g) * plane
            group = ifpay[base:base + plane]
            ops = [get(group) for get in operands]
            for m in range(g * p.m_per_group, (g + 1) * p.m_per_group):
                kernel = kpay[m * kk:(m + 1) * kk]
                w = [get(kernel) for get in weights]
                seed = bias.payload[m] << fmt.frac_bits
                out += [acc_to_sample(seed + sum(map(mul, o, w[i])), fmt)[0]
                        for o, i in zip(ops, clip)]
    return out


def golden_convolution(ifmaps: SampleTensor, kernels: SampleTensor, bias: SampleTensor,
                       p: LayerParams, arithmetic: str = "fixed"):
    """Compute the layer's output maps.  Returns (ofmaps, overflow_events).

    arithmetic == "fixed": exact integer MACs in the accumulator format.
    arithmetic == "real":  float arithmetic on dequantized values, then
    quantized once at the end (overflow_events counts clamped samples).
    """
    if arithmetic not in ("fixed", "real"):
        raise ValueError("arithmetic must be 'fixed' or 'real'")
    if arithmetic == "real":
        payload, clamped = quantize(conv_real_values(ifmaps, kernels, bias, p), ifmaps.fmt)
        return SampleTensor(p.ofmap_dims(), payload, ifmaps.fmt), clamped
    _check_dims(ifmaps, kernels, bias, p)
    fmt = ifmaps.fmt
    if overflow_free(ifmaps, kernels, bias):
        return SampleTensor(p.ofmap_dims(), _window_sums(ifmaps, kernels, bias, p), fmt), 0
    ifpay, kpay = ifmaps.payload, kernels.payload
    out = []
    overflow = 0
    for m, taps in _windows(p):
        acc, ovf = clamp_acc(bias.at(m) << fmt.frac_bits, fmt)
        overflow += ovf
        for a, b in taps:
            acc, ovf = clamp_acc(acc + ifpay[a] * kpay[b], fmt)
            overflow += ovf
        out.append(acc_to_sample(acc, fmt)[0])
    return SampleTensor(p.ofmap_dims(), out, fmt), overflow


def conv_real_values(ifmaps: SampleTensor, kernels: SampleTensor, bias: SampleTensor,
                     p: LayerParams) -> list[float]:
    """Real-arithmetic output values without the final quantization step."""
    _check_dims(ifmaps, kernels, bias, p)
    scale = ifmaps.fmt.scale
    ifpay, kpay = ifmaps.payload, kernels.payload
    vals = []
    for m, taps in _windows(p):
        total = bias.at(m) / scale
        for a, b in taps:
            total += (ifpay[a] / scale) * (kpay[b] / scale)
        vals.append(total)
    return vals
