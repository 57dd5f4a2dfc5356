"""The chain's sample datapath beside the scan: iMemory's decimated maps
and the two value kernels, which simulator.run_layer calls once per phase.

Both kernels take one signature and return their overflow events.
maps[n][d] is image n's w x w decimated map of the phase's d-th resident
sub-channel, row-major, and omem[n][m] image n's accumulators of output
channel m, in output order.  kernels[d] is (kb, pes): the sub-channel's
kernel starts kb into an output channel's kernels, which start at
m * step in kpay, and pes holds, in PE order, one (map offset, kernel
offset) pair per PE that holds a tap: its operand in the window at output
(0, 0), a validated strip offset i * w + j, and the tap's offset in that
kernel.  The window at output (x, y) reads x * w + y further on.  e is
the output side and k the sub-kernel side.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter, lshift, mul

from .fixedpoint import FixedFormat, clamp_acc, pack_lanes
from .layers import LayerParams
from .tensors import SampleTensor


def fill_imem(p: LayerParams, ifmaps: SampleTensor, real: list, w: int) -> list:
    """iMemory: one w x w decimated map, row-major, per (image n,
    sub-channel c) of polyphase(p), at n * c_sub + c.  Pixel
    (i, j) of phase (a, b) is ifmap pixel (s*i + a - pad, s*j + b - pad)
    where i is in real[a] and j in real[b] (phase_rows), and 0 elsewhere."""
    s, h, pay = p.stride, p.h, ifmaps.payload
    maps = []
    for plane in range(0, p.n * p.c * h * h, h * h):
        for a in range(len(real)):
            for b, cols in enumerate(real):
                dmap = [0] * (w * w)
                for i in real[a]:
                    src = plane + (s * i + a - p.pad) * h + s * cols.start + b - p.pad
                    dmap[i * w + cols.start:i * w + cols.stop] = pay[src:src + s * len(cols):s]
                maps.append(dmap)
    return maps


def gather(idx):
    """A callable that returns the tuple of d[i] for i in idx."""
    if len(idx) > 1:
        return itemgetter(*idx)
    i, = idx
    return lambda d: (d[i],)   # itemgetter returns a bare item for one index


def row_pass(maps, omem, tiles, kernels, kpay, step: int, w: int, e: int, k: int,
             fmt: FixedFormat) -> int:
    """Add the window sums of a phase's resident sub-channels into the
    oMemory accumulators of its tiles, one big-int product per
    (primitive, sub-channel, kernel row, band of output rows), on data
    that meets overflow_free, where no clamp can fire: 0 events.

    A PE's tap sits at row i, column j of the sub-kernel for (i, j) =
    divmod(map offset, w), so a kernel row's taps are one strided slice of
    the payload.  A map row is packed with column j in lane j and a kernel
    row with column j in lane k - 1 - j, padded to k lanes, so lane
    y + k - 1 of their product, one of w + k - 1 lanes, is the row's part
    of the window sum at column y.
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
    bits = fmt.accumulator_bits
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    span = (w + k - 1) * bits
    rowmask = (1 << span) - 1
    # per (sub-channel d, kernel row i), in reads: the row's taps past
    # m * step in kpay as a slice lo:hi:s, and the zero lanes past them as a shift
    reads, taps = [], []
    for d, (kb, pes) in enumerate(kernels):
        by_row = {}
        for off, o in pes:
            i, j = divmod(off, w)
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
    return 0


def clamp_pass(maps, omem, tiles, kernels, kpay, step: int, w: int, e: int, k: int,
               fmt: FixedFormat) -> int:
    """Add the window sums of a phase's resident sub-channels into the
    oMemory accumulators of its tiles as the chain computes them, on any
    data, and return the number of overflow events.

    Per (tile, image, sub-channel, output row x), one copy of map rows
    x .. x + k - 1 serves the row's windows: the window at column y reads
    its operands by one gather, at the PEs' map offsets plus y.  Each
    primitive multiply-accumulates them in PE order, the chain's cycle
    order, clamping after every step, and adds its partial into its
    accumulator, clamping again.  Every output sample takes its
    sub-channels in ascending order."""
    acc_min, acc_max, overflow = fmt.acc_min, fmt.acc_max, 0
    # per sub-channel, one gather per output column
    gets = [[gather([off + y for off, _ in pes]) for y in range(e)] for _, pes in kernels]
    for tile in tiles:
        # per sub-channel, each primitive's weights in PE order
        weights = [[[kpay[m * step + kb + o] for _, o in pes] for m in tile]
                   for kb, pes in kernels]
        for image, accs in zip(maps, omem):
            accs = [accs[m] for m in tile]
            for dmap, row_gets, wd in zip(image, gets, weights):
                for x in range(e):
                    rows = dmap[x * w:(x + k) * w]
                    for j, get in enumerate(row_gets, x * e):
                        vals = get(rows)
                        for wq, acc in zip(wd, accs):
                            part = 0
                            for v, wt in zip(vals, wq):
                                if v:
                                    part += v * wt
                                    if part > acc_max or part < acc_min:
                                        part, _ = clamp_acc(part, fmt)  # saturate or wrap
                                        overflow += 1
                            total = acc[j] + part
                            if total > acc_max or total < acc_min:
                                total, _ = clamp_acc(total, fmt)
                                overflow += 1
                            acc[j] = total
    return overflow
