"""The chain's sample datapath beside the scan: iMemory's decimated maps
and the row kernel, as the simulator module's docstring describes them.
simulator.run_layer drives both.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter, lshift, mul

from .fixedpoint import pack_lanes
from .layers import LayerParams
from .tensors import SampleTensor


def fill_imem(p: LayerParams, ifmaps: SampleTensor, real: list, rows: int, w: int) -> list:
    """iMemory: one rows x w decimated map, row-major, per (image n,
    sub-channel c) of polyphase(p), at n * c_sub + c.  Pixel (i, j) of
    phase (a, b) is ifmap pixel (s*i + a - pad, s*j + b - pad) where i is
    in real[a] and j in real[b] (phase_rows), and 0 elsewhere."""
    s, h, pay = p.stride, p.h, ifmaps.payload
    maps = []
    for plane in range(0, p.n * p.c * h * h, h * h):
        for a in range(len(real)):
            for b, cols in enumerate(real):
                dmap = [0] * (rows * w)
                for i in real[a]:
                    src = plane + (s * i + a - p.pad) * h + s * cols.start + b - p.pad
                    dmap[i * w + cols.start:i * w + cols.stop] = pay[src:src + s * len(cols):s]
                maps.append(dmap)
    return maps


def row_pass(maps, omem, tiles, kernels, window, kpay, step: int, w: int, e: int, k: int,
             bits: int) -> None:
    """Add the window sums of a phase's resident sub-channels into the
    oMemory accumulators of its tiles, one big-int product per
    (primitive, sub-channel, kernel row, band of output rows).

    maps[n][d] is image n's decimated map of the d-th resident sub-channel,
    w columns wide, and omem[n][m] image n's accumulators of output
    channel m, in output order.
    kernels[d] is (kb, pes): the sub-channel's kernel starts kb into an
    output channel's kernels, which start at m * step in kpay, and pes maps
    each PE that holds one of its taps to the tap's offset in that kernel.
    window holds the validated operands of the scan's window at output
    (0, 0) in PE order, as strip offsets, so PE pe's tap sits at row i,
    column j of the sub-kernel for (i, j) = divmod(window[pe], w); a
    kernel row's taps are one strided slice of the payload.  A map row is
    packed with column j in lane j and a kernel row with column j in lane
    k - 1 - j, padded to k lanes, so lane y + k - 1 of their product, one
    of w + k - 1 lanes, is the row's part of the window sum at column y.
    For a band of output rows x0 .. x0 + band - 1, kernel row i's operand
    stacks map rows x0 + x + i at lane x * (w + k - 1), so one product
    holds the band's row products side by side, sharing no lane.  Under
    overflow_free every lane of a sum of products holds a partial window
    sum within the accumulator, so half a lane added to each keeps it a
    non-negative bits-wide field, which less half a lane is the sum.  Of
    each map only the band + k - 1 rows that a band reads are held packed.

    A tile of prims primitives takes bands of min(e, max(1, prims // k))
    rows.  A band's operands are built once and read by every primitive of
    its tiles, while each product is split into band rows per primitive,
    so a band pays only on a tile of at least 2k primitives.  On full-size
    AlexNet (2-core Xeon, CPython 3.11) conv3's 64-primitive tiles on 13
    columns took 0.86 s in one-row products and 0.57 s in bands of 13 rows,
    and the stride-4 workload's 4-primitive tile 0.051 s in one-row
    products and 0.063 s in bands of 55 rows (medians of 8 and 60
    alternating runs)."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    span = (w + k - 1) * bits
    rowmask = (1 << span) - 1
    # per (sub-channel d, kernel row i), in reads: the row's taps past
    # m * step in kpay as a slice lo:hi:s, and the zero lanes past them as a shift
    reads, taps = [], []
    for d, (kb, pes) in enumerate(kernels):
        by_row = {}
        for pe, o in pes.items():
            i, j = divmod(window[pe], w)
            by_row.setdefault(i, {})[j] = kb + o
        for i, cols in sorted(by_row.items()):
            lo, hi = cols[0], cols[len(cols) - 1] + 1
            reads.append((d, i))
            taps.append((lo, hi, cols.get(1, hi) - lo, (k - len(cols)) * bits))
    for band, group in groupby(tiles, lambda tile: min(e, max(1, len(tile) // k))):
        halves = half * ((1 << band * span) - 1) // mask
        lifts = range(0, band * span, span)
        xs = [x for x in range(band) for y in range(e)]
        shifts = [(y + k - 1) * bits for x in range(band) for y in range(e)]
        # per primitive of the group: its output channel m and kernel rows
        weights = [(m, [pack_lanes(kpay[m * step + lo:m * step + hi:s], bits) << pad
                        for lo, hi, s, pad in taps]) for tile in group for m in tile]
        for image, accs in zip(maps, omem):
            # held[r - x0][d]: map d's row r packed, for the rows x0 .. x0 + nb + k - 2
            # that the band from row x0 on reads
            held = []
            for x0 in range(0, e, band):
                nb = min(band, e - x0)
                held = held[band:]
                held += [[pack_lanes(reversed(dmap[r * w:r * w + w]), bits) for dmap in image]
                         for r in range(x0 + len(held), x0 + nb + k - 1)]
                # a one-row band's operand is its packed row as it stands
                ops = [sum(map(lshift, map(itemgetter(d), held[i:i + nb]), lifts)) if nb > 1
                       else held[i][d] for d, i in reads]
                base, end = x0 * e, (x0 + nb) * e
                for m, wq in weights:
                    lanes = sum(map(mul, ops, wq), halves)
                    # split into rows first, so that no lane's shift copies the whole band
                    chunks = [(lanes >> x * span) & rowmask for x in range(nb)]
                    acc = accs[m]
                    acc[base:end] = [a + ((chunks[x] >> sh) & mask) - half
                                     for a, x, sh in zip(acc[base:end], xs, shifts)]
