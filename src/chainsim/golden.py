"""Direct triple-loop convolution oracle, in real or fixed arithmetic.

Every simulated output in the project is checked against this function.
The fixed path uses one mandated summation order (input channel outer,
kernel row middle, kernel column inner) so results are bit-reproducible.
"""

from __future__ import annotations

from .fixedpoint import acc_to_sample, clamp_acc, quantize
from .layers import LayerParams
from .tensors import SampleTensor, ShapeError


def _check_dims(ifmaps, kernels, bias, p: LayerParams):
    if ifmaps.dims != p.ifmap_dims():
        raise ShapeError("ifmaps dims %r do not match layer %r" % (ifmaps.dims, p.ifmap_dims()))
    if kernels.dims != p.kernel_dims():
        raise ShapeError("kernel dims %r do not match layer %r" % (kernels.dims, p.kernel_dims()))
    if bias.dims != p.bias_dims():
        raise ShapeError("bias dims %r do not match layer %r" % (bias.dims, p.bias_dims()))


def _windows(p: LayerParams):
    """Per output sample, in [n][m][x][y] order: its output channel and the
    (ifmap index, kernel index) pairs of its in-map taps, in the mandated
    order (input channel outer, kernel row middle, kernel column inner)."""
    h, k, s, pad = p.h, p.k, p.stride, p.pad
    for n in range(p.n):
        for m in range(p.m):
            c_range = p.input_channels_of_group(p.filter_group_of(m))
            for x in range(p.e):
                for y in range(p.e):
                    taps = []
                    for c in c_range:
                        if_base = (n * p.c + c) * h * h
                        k_base = (m * p.c_per_group + c - c_range.start) * k * k
                        for i in range(k):
                            row = x * s + i - pad
                            if row < 0 or row >= h:
                                continue
                            for j in range(k):
                                col = y * s + j - pad
                                if 0 <= col < h:
                                    taps.append((if_base + row * h + col, k_base + i * k + j))
                    yield m, taps


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
