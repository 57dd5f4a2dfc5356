#!/usr/bin/env python3
"""Run the benchmark on every workload at seeds 0 and 7 and keep the results.

    python3 scripts/bench.py 11       # writes BENCH_11.json at the repository root
    python3 scripts/bench.py --against HEAD~1 --workload stride4 --pairs 6
    python3 scripts/bench.py --against HEAD~1 --workload report --pairs 10 --full-size

Each run is ``perfbench/run.py --workload W --seed S --trace 0`` with the
benchmark's run length (``run_seconds`` in BENCHMARK.json, or
``--seconds``), for every workload W at seeds S = 0 and 7.  BENCH_<n>.json
holds, per run, the metrics line, the summary line, the fingerprint and
the run record perfbench prints, together with the host, the Python
version and the git SHA of the checkout.  It then times run_layer, and
after it golden_convolution, in a child process on each of the five
full-size AlexNet layers (seed 0, default chain), recording seconds,
MMAC/s and overflow events, and fails without writing the file if an
output's digest differs from the committed table in
scripts/out/alexnet_fullsize_sha256.json.  One more row, conv5@24, reads
conv5's tensors in a 24-bit accumulator format, where the data fails
overflow_free and saturates, so it times the clamp kernel at full size.
A performance claim compares two such files measured on one host.

``--against REV`` instead runs interleaved pairs of runs, REV's files (a
``git archive`` copy in a temporary directory) against this work tree,
alternating which side runs first, and prints each end-to-end metric's
median and quartiles per side.  With ``--full-size`` every pair also
times run_layer on the six full-size rows, each side in a child process,
and the comparison fails if an output's digest differs from the
committed table.  Every run's line on stderr names its pair and
side; a workload's line also gives its wall_s, peak_rss_mb and the number
of passes perfbench timed (peak_rss_mb grows with it, as perfbench keeps
every pass).
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT
WORKLOADS = ("stride1", "stride4", "report", "corpus")
SEEDS = (0, 7)              # the benchmark's default seed and its held-out seed
# AlexNet layers timed whole; convN@B reads convN's tensors with a B-bit accumulator
FULL_SIZE = ("conv1", "conv2", "conv3", "conv4", "conv5", "conv5@24")
DIGESTS = ROOT / "scripts" / "out" / "alexnet_fullsize_sha256.json"


def git_state() -> dict:
    """HEAD's SHA and whether the work tree differs from it (None outside git)."""
    def git(*args):
        return subprocess.run(("git",) + args, cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        return {"git_sha": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.CalledProcessError):
        return {"git_sha": None, "dirty": None}


def run_one(workload: str, seed: int, seconds: float, root: Path = ROOT) -> dict:
    """One perfbench run of the checkout at root, its tagged lines parsed;
    raises if it fails."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError("%s exited %d: %s" % (" ".join(cmd[1:]), done.returncode,
                                                 done.stderr.strip()[-500:]))
    lines = done.stdout.splitlines()
    tagged = dict(line.split(" ", 1) for line in lines[:-1])
    return {"workload": workload, "seed": seed, **json.loads(lines[-1]),
            "summary": json.loads(tagged["summary"]),
            "fingerprint": json.loads(tagged["fingerprint"]),
            "run_record": json.loads(tagged["run-record"])}


# ``python3 -c TIMER SRC ORACLE NAME...`` imports chainsim from SRC and
# prints one JSON object per named full-size row: its MACs and, for
# run_layer and, when ORACLE is 1, golden_convolution on synth_tensors(p,
# 0), read in FixedFormat(accumulator_bits=B) for a name convN@B, and the
# default chain, the seconds, the overflow events and the output's sha256
# (of SampleTensor.dump_bytes).
TIMER = """
import hashlib, json, sys
from time import perf_counter
sys.path.insert(0, sys.argv[1])
from chainsim import (ChainConfig, FixedFormat, SampleTensor, golden_convolution,
                      mac_count, run_layer)
from chainsim.presets import ALEXNET, synth_tensors
def chain(p, t):
    run = run_layer(p, *t, ChainConfig())
    return run.ofmaps, run.counters.overflow_events
sides = (("simulator", chain),
         ("oracle", lambda p, t: golden_convolution(*t, p)))[:1 + int(sys.argv[2])]
for name in sys.argv[3:]:
    layer, _, bits = name.partition("@")
    p = ALEXNET.layers[int(layer[len("conv"):]) - 1]
    tensors = synth_tensors(p, 0)
    if bits:
        fmt = FixedFormat(accumulator_bits=int(bits))
        tensors = [SampleTensor(t.dims, t.payload, fmt) for t in tensors]
    row = {"layer": name, "macs": mac_count(p)}
    for side, run in sides:
        start = perf_counter()
        out, events = run(p, tensors)
        row[side + "_s"] = perf_counter() - start
        row[side + "_overflow_events"] = events
        row[side + "_sha256"] = hashlib.sha256(out.dump_bytes()).hexdigest()
    print(json.dumps(row), flush=True)
"""


def full_size(names, root: Path = ROOT, oracle: bool = True, tag: str = "") -> tuple:
    """run_layer, then (unless oracle is false) golden_convolution, on each
    named full-size row of the checkout at root, in a child process
    (TIMER): per row its MACs and each side's seconds, MMAC/s, overflow
    events and output digest; and one line per output whose digest is not
    the committed one, or whose events differ between the two sides.
    Each row's progress line on stderr carries tag."""
    done = subprocess.run([sys.executable, "-c", TIMER, str(root / "src"), str(int(oracle)),
                           *names], capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError("full-size timing exited %d: %s"
                           % (done.returncode, done.stderr.strip()[-500:]))
    want = json.loads(DIGESTS.read_text())
    rows, wrong = [json.loads(line) for line in done.stdout.splitlines()], []
    for row in rows:
        name = row["layer"]
        for side in ("simulator", "oracle")[:1 + oracle]:
            row[side + "_mmac_s"] = row["macs"] / row[side + "_s"] / 1e6
            if row[side + "_sha256"] != want[name]:
                wrong.append("full-size %s: %s output sha256 %s, committed %s"
                             % (name, side, row[side + "_sha256"], want[name]))
        if oracle and row["simulator_overflow_events"] != row["oracle_overflow_events"]:
            wrong.append("full-size %s: simulator overflow events %d, oracle %d"
                         % (name, row["simulator_overflow_events"], row["oracle_overflow_events"]))
        print("%-8s %sfull size  run_layer %.2f s%s  events %d" % (
            name, tag, row["simulator_s"], "  oracle %.2f s" % row["oracle_s"] if oracle else "",
            row["simulator_overflow_events"]), file=sys.stderr)
    return rows, wrong


def spread(values) -> tuple:
    """Median, first and third quartile."""
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return med, q1, q3


def compare(rev: str, workloads, pairs: int, seed: int, seconds: float, spec: dict,
            layers=()) -> tuple:
    """Interleaved pairs of runs, REV's files against this work tree, in
    alternating order: per workload, each end-to-end metric's values per
    side ("parent", "change") and each side's set of fingerprints; per
    full-size layer named in layers, each side's run_layer seconds; and one
    line per full-size output off the committed digests."""
    results = {w: {"parent": [], "change": []} for w in workloads}
    timed = {name: {"parent": [], "change": []} for name in layers}
    wrong = []
    tree = Path(tempfile.mkdtemp(prefix="chainsim-bench-")) / "parent"
    try:
        tree.mkdir()
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        for i in range(pairs):
            sides = [("parent", tree), ("change", ROOT)]
            order = sides[::-1] if i % 2 else sides
            for w in workloads:
                for side, root in order:
                    run = run_one(w, seed, seconds, root)
                    results[w][side].append(run)
                    print("%-8s pair %d %-6s wall_s %.4f  peak_rss_mb %.3f  passes %d" % (
                        w, i + 1, side, run["metrics"]["wall_s"]["value"],
                        run["metrics"]["peak_rss_mb"]["value"], len(run["summary"]["pass_walls"])),
                        file=sys.stderr)
            for side, root in order if layers else ():
                rows, off = full_size(layers, root, oracle=False,
                                      tag="pair %d %-6s " % (i + 1, side))
                wrong += ["%s %s" % (side, line) for line in off]
                for row in rows:
                    timed[row["layer"]][side].append(row["simulator_s"])
    finally:
        shutil.rmtree(tree.parent, ignore_errors=True)
    table = {}
    for w, sides in results.items():
        table[w] = {"fingerprints": {side: sorted({r["fingerprint"]["sha256"] for r in runs})
                                     for side, runs in sides.items()},
                    "correct": all(r["correct"] for runs in sides.values() for r in runs)}
        for m in spec["end_to_end"]:
            table[w][m["name"]] = {side: [r["metrics"][m["name"]]["value"] for r in runs]
                                   for side, runs in sides.items()}
    return table, timed, wrong


def _print_row(name: str, old, new, better_sign: int) -> None:
    better = sum(better_sign * (b - a) > 0 for a, b in zip(old, new))
    (om, o1, o3), (nm, n1, n3) = spread(old), spread(new)
    print("  %-13s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  %+.1f%%  "
          "better in %d/%d" % (name, om, o1, o3, nm, n1, n3,
                               100 * (nm - om) / om if om else 0.0, better, len(old)))


def print_comparison(table: dict, spec: dict, timed=None) -> None:
    for w, row in table.items():
        same = row["fingerprints"]["parent"] == row["fingerprints"]["change"]
        print("%s: fingerprints %s, correct %s" % (w, "identical" if same else "DIFFER",
                                                   row["correct"]))
        for m in spec["end_to_end"]:
            _print_row(m["name"], row[m["name"]]["parent"], row[m["name"]]["change"],
                       -1 if m["better"] == "lower" else 1)
    if timed:
        print("full size: run_layer seconds")
        for name, sides in timed.items():
            _print_row(name, sides["parent"], sides["change"], -1)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("number", type=int, nargs="?", help="n of the BENCH_<n>.json to write")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--against", metavar="REV", help="compare this work tree against REV")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="with --against: a workload to compare (repeatable; default all)")
    ap.add_argument("--pairs", type=int, default=6, help="with --against: interleaved pairs")
    ap.add_argument("--seed", type=int, default=0, help="with --against: the seed")
    ap.add_argument("--full-size", action="store_true",
                    help="with --against: time run_layer on the full-size AlexNet layers in "
                         "every pair, checking their digests")
    args = ap.parse_args(argv)
    if (args.number is None) == (args.against is None):
        ap.error("give either a BENCH number or --against REV")
    if args.against:
        table, timed, wrong = compare(args.against, args.workload or WORKLOADS, args.pairs,
                                      args.seed, args.seconds, spec,
                                      FULL_SIZE if args.full_size else ())
        print_comparison(table, spec, timed)
        if wrong:
            print("\n".join(wrong), file=sys.stderr)
            return 1
        return 0

    runs = []
    for seed in SEEDS:
        for workload in WORKLOADS:
            runs.append(run_one(workload, seed, args.seconds))
            wall = runs[-1]["metrics"]["wall_s"]["value"]
            print("%-8s seed %d  wall_s %.4f" % (workload, seed, wall), file=sys.stderr)
    layers, wrong = full_size(FULL_SIZE)
    if wrong:
        print("\n".join(wrong), file=sys.stderr)
        return 1
    record = runs[0]["run_record"]
    bench = {"bench": args.number, **git_state(), "python": platform.python_version(),
             "host": {"cpu": record["cpu"], "nproc": record["nproc"],
                      "platform": platform.platform()},
             "seconds": args.seconds, "runs": runs, "alexnet_full_size": layers}
    path = OUT_DIR / ("BENCH_%d.json" % args.number)
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
