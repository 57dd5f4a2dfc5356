"""Direct convolution oracle in the accumulator's fixed-point format.

Every simulated output in the project is checked against this function.
Where a clamp can fire, it sums each output sample in the chain's order,
written here on the original layer: seed with clamp(bias << f); then take
input channels in ascending order and, within each, the phases (a, b) of
t = min(s, k), row-major.  A phase's partial starts at 0 and adds its taps
in PE order, tap (s*(q % k') + a, s*(q // k') + b) for q = 0, 1, ... with
k' = ceil(k / s), which is column-major, skipping taps past k and pixels
off the map and clamping after every step; it then enters the
accumulator with one more clamp, and the sample is rescaled once.
Where no clamp can fire (overflow_free), every order gives the same sum,
and each kernel row slides along each input row by Kronecker
substitution: an output row is the sum of one big-int product per (input
row, kernel row) pair of the filter group, rows off the map being zero
rows, read out one lane per output column, seeded and rescaled in one
batch.
"""

from __future__ import annotations

from operator import mul

from .fixedpoint import acc_to_samples, clamp_acc, overflow_free, pack_lanes
from .layers import LayerParams
from .tensors import SampleTensor


def _row_products(ifmaps, kernels, bias, p: LayerParams) -> list:
    """The fixed-point output payload when no clamp can fire, by Kronecker
    substitution: one big-int product per (input row, kernel row).

    A row packed into one int, L = accumulator_bits + 1 bits per lane, is
    its polynomial evaluated at 2**L.  Input rows hold column j in lane
    pad + j, and kernel rows hold tap j in lane k - 1 - j, so lane
    s*y + k - 1 of their product is the row's partial window sum at output
    column y.  Each input plane is read between pad zero rows above and
    below, so output row x of channel m is the sum of such products over
    the filter group's channels and all k kernel rows, padded rows s*x ..
    s*x + k - 1, a zero row adding nothing.  Under the bound every lane,
    edge lanes included, holds a partial window sum of magnitude
    <= max|x| * sum|w| <= acc_max < 2**(L-1), so adding half a lane to
    every lane makes each one a non-negative L-bit field that borrows
    nothing from its neighbour."""
    fmt = ifmaps.fmt
    h, k, s, pad, e, cpg = p.h, p.k, p.stride, p.pad, p.e, p.c_per_group
    bits = fmt.accumulator_bits + 1
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    shifts = [(s * y + k - 1) * bits for y in range(e)]
    halves = pack_lanes([half] * (shifts[-1] // bits + 1), bits)
    ipay, kpay = ifmaps.payload, kernels.payload
    hp, zeros = h + 2 * pad, [0] * pad
    rows = [row for plane in range(0, len(ipay), h * h)
            for row in zeros + [pack_lanes(reversed(ipay[r:r + h]), bits) << pad * bits
                                for r in range(plane, plane + h * h, h)] + zeros]
    ee, taps = e * e, cpg * k * k
    out = [0] * (p.n * p.m * ee)
    for g in range(p.groups):
        # per image and output row: the k padded rows it reads of each of the group's planes
        ops = [[[rows[(n * p.c + g * cpg + c) * hp + s * x + i] for c in range(cpg)
                 for i in range(k)] for x in range(e)] for n in range(p.n)]
        for m in range(g * p.m_per_group, (g + 1) * p.m_per_group):
            weights = [pack_lanes(kpay[i:i + k], bits) for i in range(m * taps, (m + 1) * taps, k)]
            offset = (bias.payload[m] << fmt.frac_bits) - half
            for n, image in enumerate(ops):
                acc = []
                for o in image:
                    lanes = sum(map(mul, o, weights), halves)
                    acc += [((lanes >> sh) & mask) + offset for sh in shifts]
                base = (n * p.m + m) * ee
                out[base:base + ee] = acc_to_samples(acc, fmt)
    return out


def _chain_order(p: LayerParams) -> list:
    """Per output position x * e + y: the in-map taps of each of its
    sub-channels, in the chain's order, as lists of (ifmap offset from the
    filter group's first input channel of an image, kernel offset from the
    start of an output channel's kernel); sub-channels without one left out."""
    h, k, s, pad = p.h, p.k, p.stride, p.pad
    side = -(-k // s)   # taps per axis of a phase
    pes = [(s * (q % side), s * (q // side)) for q in range(side * side)]   # PE order
    phases = [[(i + a, j + b) for i, j in pes if i + a < k and j + b < k]
              for a in range(min(s, k)) for b in range(min(s, k))]
    order = []
    for top in range(-pad, p.e * s - pad, s):
        for left in range(-pad, p.e * s - pad, s):
            subs = ([(c * h * h + (top + i) * h + left + j, (c * k + i) * k + j)
                     for i, j in taps if 0 <= top + i < h and 0 <= left + j < h]
                    for c in range(p.c_per_group) for taps in phases)
            order.append([sub for sub in subs if sub])
    return order


def golden_convolution(ifmaps: SampleTensor, kernels: SampleTensor, bias: SampleTensor,
                       p: LayerParams):
    """Compute the layer's output maps with exact integer MACs in the
    accumulator format.  Returns (ofmaps, overflow_events)."""
    p.check_tensors(ifmaps, kernels, bias)
    fmt = ifmaps.fmt
    if overflow_free(ifmaps, kernels, bias):
        return SampleTensor(p.ofmap_dims(), _row_products(ifmaps, kernels, bias, p), fmt), 0
    lo, hi = fmt.acc_min, fmt.acc_max
    plane, taps = p.c_per_group * p.h * p.h, p.c_per_group * p.k * p.k
    order = _chain_order(p)
    out = []
    overflow = 0
    for n in range(p.n):
        for m in range(p.m):
            start = (n * p.c + p.filter_group_of(m) * p.c_per_group) * p.h * p.h
            x, w = ifmaps.payload[start:start + plane], kernels.payload[m * taps:(m + 1) * taps]
            seed, clamped = clamp_acc(bias.payload[m] << fmt.frac_bits, fmt)
            overflow += clamped * len(order)
            for subs in order:
                acc = seed
                for sub in subs:
                    part = 0
                    for a, b in sub:
                        part += x[a] * w[b]
                        if part > hi or part < lo:
                            part = clamp_acc(part, fmt)[0]
                            overflow += 1
                    acc += part
                    if acc > hi or acc < lo:
                        acc = clamp_acc(acc, fmt)[0]
                        overflow += 1
                out.append(acc)
    return SampleTensor(p.ofmap_dims(), acc_to_samples(out, fmt), fmt), overflow
