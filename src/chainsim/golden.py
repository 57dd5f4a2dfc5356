"""Direct convolution oracle, in real or fixed arithmetic.

Every simulated output in the project is checked against this function.
Where a clamp can fire, the fixed path uses one mandated summation order
(input channel outer, kernel row middle, kernel column inner) so results
are bit-reproducible.  Where none can (overflow_free), every order gives
the same sum, and the fixed path slides each kernel row along each input
row by Kronecker substitution: an output row is the sum of one big-int
product per (input row, kernel row) pair of the filter group, read out
one lane per output column, seeded and rescaled in one batch.
"""

from __future__ import annotations

from operator import mul

from .fixedpoint import acc_to_sample, acc_to_samples, clamp_acc, overflow_free, quantize
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


def _horner(values, bits: int) -> int:
    """One int holding values[-1] in lane 0, values[-2] in lane 1, and so
    on, each lane bits wide; negative values borrow from the lane above."""
    packed = 0
    for v in values:
        packed = (packed << bits) + v
    return packed


def _row_products(ifmaps, kernels, bias, p: LayerParams) -> list:
    """The fixed-point output payload when no clamp can fire, by Kronecker
    substitution: one big-int product per (input row, kernel row).

    A row packed into one int, L = accumulator_bits + 1 bits per lane, is
    its polynomial evaluated at 2**L.  Input rows hold column j in lane
    pad + j, and kernel rows hold tap j in lane k - 1 - j, so lane
    s*y + k - 1 of their product is the row's partial window sum at output
    column y.  Output row x of channel m is the sum of such products over
    the filter group's channels and the kernel rows whose input row lies
    in the map.  Under the bound every lane, edge lanes included, holds a
    partial window sum of magnitude <= max|x| * sum|w| <= acc_max
    < 2**(L-1), so adding half a lane to every lane makes each one a
    non-negative L-bit field that borrows nothing from its neighbour."""
    fmt = ifmaps.fmt
    h, k, s, pad, e, cpg = p.h, p.k, p.stride, p.pad, p.e, p.c_per_group
    bits = fmt.accumulator_bits + 1
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    shifts = [(s * y + k - 1) * bits for y in range(e)]
    halves = _horner([half] * (shifts[-1] // bits + 1), bits)
    ipay, kpay = ifmaps.payload, kernels.payload
    rows = [_horner(reversed(ipay[r:r + h]), bits) << pad * bits
            for r in range(0, len(ipay), h)]
    clips = {}   # the kernel rows that fall in the map -> clip number
    lines = []   # per output row x: its clip number and the input rows it reads
    for top in range(-pad, e * s - pad, s):
        ri = range(max(0, -top), min(k, h - top))
        lines.append((clips.setdefault(ri, len(clips)), [c * h + top + i
                                                          for c in range(cpg) for i in ri]))
    ee, taps = e * e, cpg * k * k
    out = [0] * (p.n * p.m * ee)
    for g in range(p.groups):
        # per image and output row: the filter group's input rows it reads
        ops = [[[rows[(n * p.c + g * cpg) * h + r] for r in line] for _, line in lines]
               for n in range(p.n)]
        for m in range(g * p.m_per_group, (g + 1) * p.m_per_group):
            krows = [_horner(kpay[i:i + k], bits) for i in range(m * taps, (m + 1) * taps, k)]
            weights = [[krows[c * k + i] for c in range(cpg) for i in ri] for ri in clips]
            offset = (bias.payload[m] << fmt.frac_bits) - half
            for n, image in enumerate(ops):
                acc = []
                for o, (clip, _) in zip(image, lines):
                    lanes = sum(map(mul, o, weights[clip]), halves)
                    acc += [((lanes >> sh) & mask) + offset for sh in shifts]
                base = (n * p.m + m) * ee
                out[base:base + ee] = acc_to_samples(acc, fmt)
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
        return SampleTensor(p.ofmap_dims(), _row_products(ifmaps, kernels, bias, p), fmt), 0
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
