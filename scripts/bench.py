#!/usr/bin/env python3
"""Run the benchmark on every workload at seeds 0 and 7 and keep the results.

    python3 scripts/bench.py 11       # writes BENCH_11.json at the repository root

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
import subprocess
import sys
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


def run_one(workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run, its tagged lines parsed; raises if it fails."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError("%s exited %d: %s" % (" ".join(cmd[1:]), done.returncode,
                                                 done.stderr.strip()[-500:]))
    lines = done.stdout.splitlines()
    tagged = dict(line.split(" ", 1) for line in lines[:-1])
    return {"workload": workload, "seed": seed, **json.loads(lines[-1]),
            "summary": json.loads(tagged["summary"]),
            "fingerprint": json.loads(tagged["fingerprint"]),
            "run_record": json.loads(tagged["run-record"])}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("number", type=int, help="n of the BENCH_<n>.json to write")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)

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
