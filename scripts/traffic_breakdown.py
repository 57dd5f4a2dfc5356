#!/usr/bin/env python3
"""Per-layer memory traffic for the AlexNet preset at batch 4.

Prints analytic event counts and megabytes per hierarchy level.  Absolute
megabytes depend on unpublished tiling choices in the original chip, so
only the level ordering (oMemory above kMemory above iMemory on the 3x3
layers) is a checked property; the table here is for inspection.
"""

import dataclasses
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from chainsim import ChainConfig, analytic_traffic, plan_tiling
from chainsim.presets import ALEXNET

BATCH = 4


def main():
    chain = ChainConfig(num_pes=576)
    print("%-7s %12s %12s %12s %12s   (MB at batch %d)"
          % ("layer", "dram", "imem", "kmem", "omem", BATCH))
    totals = [0.0] * 4
    for i, p in enumerate(ALEXNET.layers, start=1):
        p = dataclasses.replace(p, n=BATCH)
        t = analytic_traffic(p, plan_tiling(p, chain), chain)
        mbs = [t.dram.bytes / 1e6, t.imem.bytes / 1e6,
               t.kmem.bytes / 1e6, t.omem.bytes / 1e6]
        totals = [a + b for a, b in zip(totals, mbs)]
        print("conv%-3d %12.1f %12.1f %12.1f %12.1f" % (i, *mbs))
    print("%-7s %12.1f %12.1f %12.1f %12.1f" % ("total", *totals))


if __name__ == "__main__":
    main()
