#!/usr/bin/env python3
"""Reproduce the headline performance numbers on the AlexNet preset.

Writes report JSON files for the ideal (cycle lower bound) and scheduled
(closed-form schedule spans) models and prints both reports.  The ideal
model upper-bounds the published 326.2 fps figure.  The scheduled model
counts what the simulator runs: every layer, the stride-4 first layer
included, as its polyphase decomposition into stride-1 sub-convolutions,
which lands near the published fps at batch 128 and 4.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from chainsim import ChainConfig, network_report
from chainsim.perf import analytic_layer_cycles
from chainsim.presets import ALEXNET

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"


def main():
    OUT_DIR.mkdir(exist_ok=True)
    chain = ChainConfig(num_pes=576)
    for model in ("ideal", "scheduled"):
        layers = [analytic_layer_cycles(p, chain, model=model, name="conv%d" % i)
                  for i, p in enumerate(ALEXNET.layers, start=1)]
        for batch in (4, 128):
            rep = network_report(layers, chain, batch=batch)
            path = OUT_DIR / ("alexnet_%s_batch%d.json" % (model, batch))
            with open(path, "w") as fh:
                json.dump(rep.to_json_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            print("=== %s model, batch %d (-> %s) ===" % (model, batch, path))
            print(rep.to_text())


if __name__ == "__main__":
    main()
