"""Smoke tests of the experiment scripts under scripts/: each one runs to
completion against the current API and writes what it promises."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

from chainsim import ChainConfig, mac_count, network_report
from chainsim.perf import analytic_layer_cycles
from chainsim.presets import ALEXNET

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / (name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_alexnet_report_writes_four_reports(tmp_path, capsys):
    mod = load("alexnet_report")
    mod.OUT_DIR = tmp_path
    assert not mod.main()  # exit status 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["alexnet_%s_batch%d.json" % (model, batch)
                     for model in ("ideal", "scheduled") for batch in (128, 4)]
    chain = ChainConfig(num_pes=576)
    layers = [analytic_layer_cycles(p, chain, model="scheduled", name="conv%d" % i)
              for i, p in enumerate(ALEXNET.layers, start=1)]
    written = json.loads((tmp_path / "alexnet_scheduled_batch128.json").read_text())
    assert written["fps"] == network_report(layers, chain, batch=128).fps
    assert "=== scheduled model, batch 128" in capsys.readouterr().out


def test_kernel_size_sweep_writes_csv(tmp_path):
    mod = load("kernel_size_sweep")
    mod.OUT = tmp_path / "out" / "kernel_size_sweep.csv"
    assert mod.main() == 0
    lines = mod.OUT.read_text().splitlines()
    assert lines[0] == ("num_pes,kernel,batch,primitives,active_pes,efficiency,"
                        "peak_gops,effective_gops,ideal_fps_alexnet")
    assert len(lines) == 1 + 4 * 7 * 3  # chain sizes x kernel sizes x batches


def test_traffic_breakdown_prints_every_layer(capsys):
    mod = load("traffic_breakdown")
    assert not mod.main()
    rows = capsys.readouterr().out.splitlines()
    assert [r.split()[0] for r in rows[1:]] == ["conv1", "conv2", "conv3", "conv4",
                                               "conv5", "total"]


def test_bench_writes_every_run_with_its_host(tmp_path, capsys):
    mod = load("bench")
    mod.OUT_DIR, mod.WORKLOADS, mod.SEEDS = tmp_path, ("report",), (0,)
    mod.FULL_SIZE = ("conv5",)   # the smallest full-size layer
    assert mod.main(["3", "--seconds", "0.1"]) == 0
    bench = json.loads((tmp_path / "BENCH_3.json").read_text())
    assert bench["bench"] == 3 and bench["seconds"] == 0.1
    assert bench["python"] and bench["host"]["nproc"] >= 1
    run, = bench["runs"]
    assert (run["workload"], run["seed"], run["correct"]) == ("report", 0, True)
    assert run["metrics"]["wall_s"]["unit"] == "s"
    assert run["summary"]["fail_frac"] == 0
    assert len(run["fingerprint"]["sha256"]) == 64
    row, = bench["alexnet_full_size"]
    assert (row["layer"], row["macs"]) == ("conv5", mac_count(ALEXNET.layers[4]))
    assert row["simulator_mmac_s"] == pytest.approx(row["macs"] / row["simulator_s"] / 1e6)
    assert row["oracle_mmac_s"] == pytest.approx(row["macs"] / row["oracle_s"] / 1e6)
    committed = json.loads(mod.DIGESTS.read_text())
    assert row["simulator_sha256"] == row["oracle_sha256"] == committed["conv5"]
    assert "BENCH_3.json" in capsys.readouterr().out


def test_bench_fails_on_a_full_size_digest_off_the_table(tmp_path, capsys):
    mod = load("bench")
    mod.OUT_DIR, mod.WORKLOADS, mod.SEEDS = tmp_path, ("report",), (0,)
    mod.FULL_SIZE = ("conv5",)
    table = json.loads(mod.DIGESTS.read_text())
    mod.DIGESTS = tmp_path / "digests.json"
    mod.DIGESTS.write_text(json.dumps({**table, "conv5": "0" * 64}))
    assert mod.main(["4", "--seconds", "0.1"]) == 1
    err = capsys.readouterr().err
    assert "full-size conv5: simulator output sha256 %s, committed %s" % (
        table["conv5"], "0" * 64) in err
    assert "full-size conv5: oracle output" in err
    assert not (tmp_path / "BENCH_4.json").exists()


def test_import_peak_prints_both_imports_and_every_compile():
    done = subprocess.run([sys.executable, str(SCRIPTS / "import_peak.py")], capture_output=True,
                          text=True, check=True)
    rows = [line.split() for line in done.stdout.splitlines()]
    modules = sorted(p.name for p in (SCRIPTS.parent / "src" / "chainsim").glob("*.py"))
    assert [" ".join(r[:-4]) for r in rows] == (
        ["import chainsim, first", "import chainsim, second"]
        + ["compile " + name for name in modules])
    for *_, peak, unit, kib, kib_unit in rows:
        assert (unit, kib_unit) == ("B", "KiB")
        assert int(peak.replace(",", "")) > 0
        assert float(kib) == round(int(peak.replace(",", "")) / 1024, 1)


def test_bench_against_a_revision_compares_interleaved_pairs(capsys):
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=SCRIPTS, capture_output=True).returncode:
        pytest.skip("needs a git checkout to take the revision from")
    mod = load("bench")
    worktrees = subprocess.run(["git", "worktree", "list"], cwd=SCRIPTS, capture_output=True,
                               text=True).stdout
    assert mod.main(["--against", "HEAD", "--workload", "report", "--pairs", "1",
                     "--seconds", "0.1"]) == 0
    out = capsys.readouterr()
    first = out.out.splitlines()[0]   # identical unless the work tree changes the model
    assert first.startswith("report: fingerprints ") and first.endswith(", correct True")
    assert "  wall_s        parent " in out.out and "better in " in out.out
    assert "report   pair 1 parent wall_s" in out.err and "report   pair 1 change" in out.err
    # the temporary worktree is gone
    assert subprocess.run(["git", "worktree", "list"], cwd=SCRIPTS, capture_output=True,
                          text=True).stdout == worktrees
