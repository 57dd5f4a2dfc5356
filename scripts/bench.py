#!/usr/bin/env python3
"""Run the benchmark on every workload at seeds 0 and 7 and keep the results.

    python3 scripts/bench.py 11       # writes BENCH_11.json at the repository root
    python3 scripts/bench.py --against HEAD~1 --workload stride4 --pairs 6

Each run is ``perfbench/run.py --workload W --seed S --trace 0`` with the
benchmark's run length (``run_seconds`` in BENCHMARK.json, or
``--seconds``), for every workload W at seeds S = 0 and 7.  BENCH_<n>.json
holds, per run, the metrics line, the summary line, the fingerprint and
the run record perfbench prints, together with the host, the Python
version and the git SHA of the checkout.  A performance claim compares
two such files measured on one host.
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


def spread(values) -> tuple:
    """Median, first and third quartile."""
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return med, q1, q3


def compare(rev: str, workloads, pairs: int, seed: int, seconds: float, spec: dict) -> dict:
    """Interleaved pairs of runs, REV's checkout against this work tree:
    per workload, each end-to-end metric's values per side ("parent",
    "change") and each side's set of fingerprints."""
    results = {w: {"parent": [], "change": []} for w in workloads}
    tree = Path(tempfile.mkdtemp(prefix="chainsim-bench-")) / "parent"
    try:
        subprocess.run(["git", "worktree", "add", "--detach", str(tree), rev], cwd=ROOT,
                       check=True, capture_output=True)
        for i in range(pairs):
            for w in workloads:
                sides = [("parent", tree), ("change", ROOT)]
                for side, root in sides[::-1] if i % 2 else sides:
                    results[w][side].append(run_one(w, seed, seconds, root))
                    print("%-8s pair %d %-6s wall_s %.4f" % (
                        w, i + 1, side, results[w][side][-1]["metrics"]["wall_s"]["value"]),
                        file=sys.stderr)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT,
                       capture_output=True)
        shutil.rmtree(tree.parent, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
    table = {}
    for w, sides in results.items():
        table[w] = {"fingerprints": {side: sorted({r["fingerprint"]["sha256"] for r in runs})
                                     for side, runs in sides.items()},
                    "correct": all(r["correct"] for runs in sides.values() for r in runs)}
        for m in spec["end_to_end"]:
            table[w][m["name"]] = {side: [r["metrics"][m["name"]]["value"] for r in runs]
                                   for side, runs in sides.items()}
    return table


def print_comparison(table: dict, spec: dict) -> None:
    for w, row in table.items():
        same = row["fingerprints"]["parent"] == row["fingerprints"]["change"]
        print("%s: fingerprints %s, correct %s" % (w, "identical" if same else "DIFFER",
                                                   row["correct"]))
        for m in spec["end_to_end"]:
            old, new = row[m["name"]]["parent"], row[m["name"]]["change"]
            sign = -1 if m["better"] == "lower" else 1
            better = sum(sign * (b - a) > 0 for a, b in zip(old, new))
            (om, o1, o3), (nm, n1, n3) = spread(old), spread(new)
            print("  %-13s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  %+.1f%%  "
                  "better in %d/%d" % (m["name"], om, o1, o3, nm, n1, n3,
                                       100 * (nm - om) / om if om else 0.0, better, len(old)))


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
    args = ap.parse_args(argv)
    if (args.number is None) == (args.against is None):
        ap.error("give either a BENCH number or --against REV")
    if args.against:
        print_comparison(compare(args.against, args.workload or WORKLOADS, args.pairs,
                                 args.seed, args.seconds, spec), spec)
        return 0

    runs = []
    for seed in SEEDS:
        for workload in WORKLOADS:
            runs.append(run_one(workload, seed, args.seconds))
            wall = runs[-1]["metrics"]["wall_s"]["value"]
            print("%-8s seed %d  wall_s %.4f" % (workload, seed, wall), file=sys.stderr)
    record = runs[0]["run_record"]
    bench = {"bench": args.number, **git_state(), "python": platform.python_version(),
             "host": {"cpu": record["cpu"], "nproc": record["nproc"],
                      "platform": platform.platform()},
             "seconds": args.seconds, "runs": runs}
    path = OUT_DIR / ("BENCH_%d.json" % args.number)
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
