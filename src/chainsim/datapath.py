"""The chain's sample datapath beside the scan: iMemory's decimated maps,
the row kernel and oMemory's drain, as the simulator module's docstring
describes them.  simulator.run_layer drives all three.
"""

from __future__ import annotations

from operator import mul

from .fixedpoint import acc_to_samples, pack_lanes
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


def takes_rows(prims: int, e: int, t: int) -> bool:
    """Whether an overflow-free tile of prims primitives, in a layer of t*t
    phases and e output columns, takes the row kernel (row_pass), whose
    products do e*k MACs each, rather than the window kernel, whose
    products do prims.  On full-size AlexNet (2-core Xeon) rows win on
    narrow tiles (conv2 1.63 -> 0.64 s), lose at stride 1 on 64 primitives
    against 13 columns (conv3 0.77 -> 1.00 s) and win at t > 1, where a
    window pass reads one sub-channel (conv1 0.49 against 0.62 s, medians
    of 8 alternating runs)."""
    return t > 1 or prims < e


def row_pass(maps, accs, tiles, kernels, window, kpay, step: int, w: int, e: int, k: int,
             bits: int) -> None:
    """Add the window sums of a phase's resident sub-channels into the
    packed oMemory accumulators of row-kernel tiles, one big-int product per
    (primitive, sub-channel, kernel row, output row).

    maps[n][d] is image n's decimated map of the d-th resident sub-channel,
    w columns wide, and accs[n][t] image n's accumulators of tiles[t].
    kernels[d] is (kb, pes): the sub-channel's kernel starts kb into an
    output channel's kernels, which start at m * step in kpay, and pes maps
    each PE that holds one of its taps to the tap's offset in that kernel.
    window holds the validated operands of the scan's window at output
    (0, 0) in PE order, as strip offsets, so PE pe's tap sits at row i,
    column j of the sub-kernel for (i, j) = divmod(window[pe], w).  For output
    row x, row x + i of a map is packed with column j in lane j and its
    kernel row with column j in lane k - 1 - j, padded to k lanes, so lane
    y + k - 1 of the product is that row's part of the window sum at
    output (x, y).  Under overflow_free every lane of a sum of products
    holds a partial window sum within the accumulator, so half a lane
    added to each keeps it a non-negative bits-wide field.  Of each map
    only the k rows that output row x reads are held packed."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    halves = pack_lanes([half] * (w + k - 1), bits)
    shifts = [(y + k - 1) * bits for y in range(e)]
    # per sub-channel, its kernel rows (i, cols), cols[j] column j's tap's
    # offset past m * step in kpay, None where no PE holds a tap
    rows_of = []
    for kb, pes in kernels:
        by_row = {}
        for pe, o in pes.items():
            i, j = divmod(window[pe], w)
            by_row.setdefault(i, [None] * k)[j] = kb + o
        rows_of.append(sorted(by_row.items()))
    reads = [(d, i) for d, rows in enumerate(rows_of) for i, _ in rows]
    weights = [[[pack_lanes([0 if o is None else kpay[m * step + o] for o in cols], bits)
                 for rows in rows_of for _, cols in rows] for m in tile] for tile in tiles]
    offsets = [pack_lanes([half] * len(tile), bits) for tile in tiles]
    for image, tile_accs in zip(maps, accs):
        # row r of map d sits at held[d][r % k]
        held = [[pack_lanes(reversed(dmap[r * w:r * w + w]), bits) for r in range(k - 1)] + [0]
                for dmap in image]
        for x in range(e):
            r = x + k - 1
            for rows, dmap in zip(held, image):
                rows[r % k] = pack_lanes(reversed(dmap[r * w:r * w + w]), bits)
            ops = [held[d][(x + i) % k] for d, i in reads]
            base = x * e
            for wts, acc, offset in zip(weights, tile_accs, offsets):
                row = [a - offset for a in acc[base:base + e]]
                for q, wq in enumerate(wts):
                    lanes = sum(map(mul, ops, wq), halves) << q * bits
                    lane = mask << q * bits
                    row = [a + ((lanes >> sh) & lane) for a, sh in zip(row, shifts)]
                acc[base:base + e] = row


def drain_lanes(omem, p: LayerParams, fmt) -> list:
    """The output payload in ofmap order: every packed accumulator split
    into its primitives' lanes, the lane offset undone, rescaled."""
    bits, lo = fmt.accumulator_bits, fmt.acc_min
    mask = (1 << bits) - 1
    out = [0] * (p.n * p.m * p.e * p.e)
    for (n, tile), acc in omem.items():
        for q, m in enumerate(tile):
            base, shift = (n * p.m + m) * len(acc), q * bits
            out[base:base + len(acc)] = acc_to_samples([((a >> shift) & mask) + lo
                                                        for a in acc], fmt)
    return out
