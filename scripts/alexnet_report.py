#!/usr/bin/env python3
"""Reproduce the headline performance numbers on the AlexNet preset.

Writes report JSON files for the ideal (cycle lower bound) and scheduled
(closed-form schedule spans) models and prints both reports.  The ideal
model upper-bounds the published 326.2 fps figure.  The scheduled model
counts what the simulator runs: every layer, the stride-4 first layer
included, as its polyphase decomposition into stride-1 sub-convolutions,
which lands near the published fps at batch 128 and 4.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from chainsim.cli import main as cli_main

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"


def main():
    OUT_DIR.mkdir(exist_ok=True)
    for model in ("ideal", "scheduled"):
        for batch in (4, 128):
            path = OUT_DIR / ("alexnet_%s_batch%d.json" % (model, batch))
            print("=== %s model, batch %d (-> %s) ===" % (model, batch, path))
            rc = cli_main(["report", "--preset", "alexnet", "--model", model,
                           "--batch", str(batch), "--json-out", str(path)])
            if rc:
                return rc
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
