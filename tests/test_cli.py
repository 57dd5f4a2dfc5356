import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, fields

import pytest

import chainsim.cli
from chainsim import LayerParams, SampleTensor, synth_tensors
from chainsim.cli import main
from chainsim.config import ConfigError, RunConfig, parse_config
from chainsim.fixedpoint import FixedFormat
from chainsim.presets import ALEXNET, PRESETS, VGG16, safe_sample_bound
from chainsim.simulator import overflow_free


# ------------------------------------------------------------------ presets

def test_alexnet_preset_shapes():
    assert len(ALEXNET.layers) == 5
    p1 = ALEXNET.layers[0]
    assert (p1.c, p1.m, p1.h, p1.e, p1.k, p1.stride, p1.pad, p1.groups) == \
        (3, 96, 227, 55, 11, 4, 0, 1)
    p3 = ALEXNET.layers[2]
    assert (p3.c, p3.m, p3.e, p3.k) == (256, 384, 13, 3)
    assert all(p.e == (p.h + 2 * p.pad - p.k) // p.stride + 1 for p in ALEXNET.layers)


def test_vgg16_preset_is_all_3x3():
    assert len(VGG16.layers) == 13
    assert all(p.k == 3 and p.stride == 1 and p.pad == 1 for p in VGG16.layers)


def test_synth_same_seed_same_bytes():
    p = ALEXNET.layers[2]
    small = LayerParams.from_shape(n=1, c=8, m=12, h=13, k=3, pad=1)
    a = synth_tensors(small, seed=0)
    b = synth_tensors(small, seed=0)
    assert all(x == y for x, y in zip(a, b))
    c = synth_tensors(small, seed=1)
    assert a[0] != c[0]


def test_synth_seed0_checksum_pinned():
    # conv3-shaped scaled layer, seed 0: pinned at first implementation
    small = LayerParams.from_shape(n=1, c=8, m=12, h=13, k=3, pad=1)
    ifm, ker, bias = synth_tensors(small, seed=0)
    digest = hashlib.sha256(
        ifm.dump_bytes() + ker.dump_bytes() + bias.dump_bytes()).hexdigest()
    assert digest == PINNED_SYNTH_SHA256


PINNED_SYNTH_SHA256 = "d3653e056251cd474357d72ff835042119868ee78dcba29344343e5b4d1e9bb6"


def test_synth_values_respect_overflow_budget():
    from chainsim import DEFAULT_FORMAT
    p = ALEXNET.layers[2]
    bound = safe_sample_bound(p)
    assert p.k * p.k * p.c_per_group * bound * bound + (bound << 8) <= DEFAULT_FORMAT.acc_max


# Per tensor (ifmaps, kernels, bias), the SHA-256 of its dump at seed 0
PINNED_SYNTH_PRESET_SHA256 = {
    "conv1": ("bf6a62103f696b9b627c1748f16b53b1d27f477c72622c4efdc1f62cc13bf292",
              "24042901be18f479335304d572851838364f5ae020feaf37dd3ff1e1d0a0f4a8",
              "bdafe0c7b356c4d2b2dd0b221a273683cda7226c07559f38356dad8e061dc1a7"),
    "conv3": ("fe83b58a4d108d427f1d2a753ce562c3da7bb8d09bd2e1901e1da2be8ba0f4c6",
              "71802a4b7d9f660d6cf8b4cd7da3e37099e62823d675e884bd19f90e55e543b6",
              "485f3fff145b1e4122d5cd9550cab74b97e829addb93c5e67b79ff4667983aef"),
}


@pytest.mark.parametrize("index", [0, 2])
def test_synth_alexnet_payloads_pinned(index):
    tensors = synth_tensors(ALEXNET.layers[index], seed=0)
    digests = tuple(hashlib.sha256(t.dump_bytes()).hexdigest() for t in tensors)
    assert digests == PINNED_SYNTH_PRESET_SHA256["conv%d" % (index + 1)]
    assert overflow_free(*tensors)


@pytest.mark.parametrize("layer", ALEXNET.layers + VGG16.layers)
def test_synth_data_of_every_preset_layer_meets_the_lane_bound(layer):
    # synth samples lie in [-R, R] with R <= safe_sample_bound, so one
    # output channel with every sample at R is their worst case
    r = safe_sample_bound(layer)
    worst = (SampleTensor((1, 1, 1, 1), [r]),
             SampleTensor((1, layer.c_per_group, layer.k, layer.k),
                          [r] * (layer.c_per_group * layer.k * layer.k)),
             SampleTensor((1,), [r]))
    assert overflow_free(*worst)


def test_synth_calls_with_one_bound_share_int_objects():
    # the big layer's ifmaps are the first draw of at least 2R+1 samples,
    # which turns the pool into a tuple: it must keep the ints drawn before
    small = LayerParams.from_shape(n=1, c=2, m=3, h=6, k=3, pad=1)
    big = LayerParams.from_shape(n=1, c=16, m=4, h=13, k=3, pad=1)
    assert min(safe_sample_bound(small), safe_sample_bound(big)) > 4 << 8   # both capped
    calls = [synth_tensors(p, seed=seed) for seed, p in enumerate((small, big, small))]
    for before, after in zip(calls, calls[1:]):
        drawn = {v: v for t in before for v in t.payload}
        shared = [v for t in after for v in t.payload
                  if v in drawn and not -5 <= v <= 256]   # CPython caches those ints anyway
        assert len(shared) > 50
        assert all(v is drawn[v] for v in shared)


def test_synth_memory_grows_with_the_samples_not_the_format():
    # [-R, R] holds 8.4 M values at frac_bits 20, and six samples are drawn
    fmt = FixedFormat(total_bits=32, frac_bits=20, accumulator_bits=64)
    p = LayerParams.from_shape(n=1, c=1, m=1, h=2, k=1)
    tracemalloc.start()
    try:
        tensors = synth_tensors(p, seed=0, fmt=fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(abs(v) for t in tensors for v in t.payload) > 1 << 20
    assert peak < 64 * 1024


def test_synth_peaks_at_two_copies_of_a_large_payload():
    # AlexNet conv1's maps at c=3: 154,587 samples, 1.2 MB of pointers.  The
    # draws fill one list of that length, which the payload tuple copies.
    p = LayerParams.from_shape(n=1, c=3, m=4, h=227, k=11, stride=4)
    synth_tensors(p, seed=1)   # the pool of sample ints is made once per bound
    tracemalloc.start()
    try:
        ifmaps = synth_tensors(p, seed=0)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.05 * 8 * len(ifmaps.payload)


def test_import_loads_no_third_party_module():
    # peak RSS in the benchmark counts every module import chainsim pulls in
    code = ("import sys; before = set(sys.modules); import chainsim; "
            "print(sorted(m for m in set(sys.modules) - before "
            "if m.partition('.')[0] not in sys.stdlib_module_names | {'chainsim'}))")
    src = os.path.dirname(os.path.dirname(chainsim.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# ------------------------------------------------------------------- config

def test_empty_config_is_all_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert cfg.num_pes == 576 and cfg.clock_hz == 700e6
    assert cfg.total_bits == 16 and cfg.frac_bits == 8
    assert cfg.mode == "dual" and cfg.seed == 0


def test_single_primitive_config():
    cfg = parse_config("num_pes: 9\nkernel: 3\n")
    assert cfg.num_pes == 9 and cfg.kernel == 3


def test_config_round_trip_identity():
    text = "\n".join([
        "num_pes: 288", "pipeline_stages: 5", "clock_hz: 500000000",
        "kmem_capacity: 128", "imem_bytes: 16384",
        "total_bits: 16", "frac_bits: 6", "accumulator_bits: 32",
        "overflow: wrap", "mode: single", "seed: 42", "batch: 4",
        "preset: alexnet", "layer: 3", "kernel: 5", "ifmap: 27",
        "in_channels: 48", "out_channels: 64", "stride: 1", "pad: 2",
        "groups: 2", "energy_mac: 1.5",
        "energy_kmem: 2.0", "energy_imem: 8.0", "energy_omem: 9.0",
        "energy_dram: 150.0",
    ])
    assert asdict(parse_config(text)) == dict(
        num_pes=288, pipeline_stages=5, clock_hz=500000000.0, kmem_capacity=128,
        imem_bytes=16384, total_bits=16, frac_bits=6, accumulator_bits=32, overflow="wrap",
        mode="single", seed=42, batch=4, preset="alexnet", layer=3, kernel=5, ifmap=27,
        in_channels=48, out_channels=64, stride=1, pad=2, groups=2, energy_mac=1.5, energy_kmem=2.0, energy_imem=8.0, energy_omem=9.0,
        energy_dram=150.0)


def test_dropped_overhead_cycles_key_exits_2_naming_its_line(tmp_path, capsys):
    # the report's fps has one formula; no setting adds cycles to it
    cfg = tmp_path / "overhead.cfg"
    cfg.write_text("preset: alexnet\noverhead_cycles: 0\n")
    assert main(["report", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: line 2: unknown key 'overhead_cycles'\n"
    assert len(fields(RunConfig)) == 26


def test_unknown_key_is_error_with_line():
    with pytest.raises(ConfigError) as err:
        parse_config("num_pes: 9\nwat: 1\n")
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_preset_name_parses(name):
    assert parse_config("preset: %s\n" % name).preset == name


def test_common_options_set_run_config_fields():
    # each option's dest is the RunConfig field it sets, so _load_config
    # copies them without a rename map
    args = chainsim.cli.build_parser().parse_args(
        ["simulate", "--pes", "18", "--stages", "2", "--k", "5", "--h", "9",
         "--mode", "single", "--in-channels", "2", "--out-channels", "3"])
    cfg = chainsim.cli._load_config(args)
    assert (cfg.num_pes, cfg.pipeline_stages, cfg.kernel, cfg.ifmap, cfg.mode,
            cfg.in_channels, cfg.out_channels) == (18, 2, 5, 9, "single", 2, 3)


# The setting flags each command accepts: those whose value changes what it
# prints or writes.  COMMAND_FLAGS are the flags of one command's own.
SHAPE_FLAGS = ["--preset", "--layer", "--k", "--h", "--stride", "--pad"]
LAYER_FLAGS = SHAPE_FLAGS + ["--in-channels", "--out-channels", "--groups"]
ACCEPTED_SETTINGS = {
    "map": ["--config", "--pes"],
    "schedule": ["--config", "--mode"] + SHAPE_FLAGS,
    "simulate": ["--config", "--pes", "--stages", "--mode", "--seed", "--batch"] + LAYER_FLAGS,
    "verify": ["--config", "--pes", "--mode", "--seed", "--batch"] + LAYER_FLAGS,
    "report": ["--config", "--pes", "--mode", "--batch"] + LAYER_FLAGS,
    "sweep": ["--config", "--preset", "--layer"],
}
COMMAND_FLAGS = {
    "map": ["--k-list"],
    "schedule": ["--group", "--trace-out"],
    "simulate": ["--small", "--json-out", "--traffic-csv", "--cycle-trace"],
    "verify": ["--small", "--dump-tensors"],
    "report": ["--model", "--json-out"],
    "sweep": ["--k-list", "--pes-list", "--batch-list", "--csv-out"],
}
# every command took these until each accepted only the settings it reads
FORMER_COMMON_FLAGS = ["--config", "--pes", "--stages", "--mode", "--single-channel", "--seed",
                       "--batch"] + LAYER_FLAGS


def test_each_command_accepts_exactly_its_settings():
    ap = chainsim.cli.build_parser()
    subs = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {name: sorted(opt for action in sub._actions for opt in action.option_strings
                             if opt not in ("-h", "--help"))
                for name, sub in subs.choices.items()}
    assert accepted == {name: sorted(ACCEPTED_SETTINGS[name] + COMMAND_FLAGS[name])
                        for name in ACCEPTED_SETTINGS}
    assert sum(map(len, accepted.values())) == 70


@pytest.mark.parametrize("command, flag", [
    pytest.param(command, flag, id="%s %s" % (command, flag))
    for command in ACCEPTED_SETTINGS for flag in FORMER_COMMON_FLAGS
    if flag not in ACCEPTED_SETTINGS[command]])
def test_flag_a_command_does_not_read_is_a_usage_error(capsys, command, flag):
    value = {"--single-channel": [], "--mode": ["single"], "--preset": ["alexnet"]}
    with pytest.raises(SystemExit) as exc:
        chainsim.cli.build_parser().parse_args([command, flag] + value.get(flag, ["1"]))
    assert exc.value.code == 2
    assert "unrecognized arguments: %s" % flag in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_usage_error_prints_the_command_usage(capsys, command):
    # an argument the command does not take is reported with the command's
    # own usage, which lists the flags it does take
    with pytest.raises(SystemExit) as exc:
        chainsim.cli.main([command, "--no-such-flag"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: chainsim %s [-h] [--config CONFIG]" % command)
    assert err[-1] == "chainsim %s: error: unrecognized arguments: --no-such-flag" % command


def _readme_command_lines():
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [line.split("#", 1)[0].split() for line in lines if line.startswith("chainsim ")]


@pytest.mark.parametrize("argv", _readme_command_lines(), ids=" ".join)
def test_readme_command_line_runs(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv[1:]) == 0


def test_bad_value_is_error():
    with pytest.raises(ConfigError):
        parse_config("num_pes: many\n")
    with pytest.raises(ConfigError):
        parse_config("mode: triple\n")
    with pytest.raises(ConfigError):
        parse_config("num_pes: 0\n")


def test_comments_and_blanks_ignored():
    cfg = parse_config("# header\n\nnum_pes: 18  # trailing\n")
    assert cfg.num_pes == 18


def test_energy_costs_load_from_config():
    cfg = parse_config("energy_dram: 500.0\nenergy_mac: 0.5\n")
    table = cfg.energy_table()
    assert table.dram == 500.0 and table.mac == 0.5 and table.imem == 6.0


# ---------------------------------------------------------------------- cli

def test_map_command_exit_zero(capsys):
    assert main(["map", "--pes", "576", "--k-list", "3", "5", "7", "9", "11"]) == 0
    out = capsys.readouterr().out
    assert "576" in out and "484" in out and "84.0%" in out
    assert "published table prints" in out  # the 9x9 flag


def test_verify_small_layer_exit_zero(capsys):
    rc = main(["verify", "--k", "3", "--h", "8", "--in-channels", "2",
               "--out-channels", "3", "--pes", "18"])
    assert rc == 0
    assert "bit-exact" in capsys.readouterr().out


def test_verify_applies_batch(capsys):
    rc = main(["verify", "--k", "3", "--h", "5", "--pes", "9", "--batch", "3"])
    assert rc == 0
    assert "layer: OK (27 samples bit-exact)" in capsys.readouterr().out


def test_verify_preset_layer3_small(capsys):
    rc = main(["verify", "--preset", "alexnet", "--layer", "3", "--small"])
    assert rc == 0


def test_verify_whole_preset_small_covers_all_shapes(capsys):
    # exercises the stride-4 first layer and the grouped layers end to end
    rc = main(["verify", "--preset", "alexnet", "--small"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("OK") == 5


def test_verify_vgg16_small_runs_every_layer_through_chain_and_oracle(capsys):
    rc = main(["verify", "--preset", "vgg16", "--small"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 13
    assert all(line.startswith("conv%d: OK (" % i) for i, line in enumerate(out, start=1))


def test_verify_mismatch_exit_one(monkeypatch, capsys):
    import chainsim.cli as climod

    def wrong_golden(ifm, ker, bias, p):
        t = SampleTensor(p.ofmap_dims(),
                         [1] * (p.n * p.m * p.e * p.e))
        return t, 0
    monkeypatch.setattr(climod, "golden_convolution", wrong_golden)
    rc = main(["verify", "--k", "3", "--h", "8", "--pes", "9"])
    assert rc == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_verify_names_the_first_differing_sample(monkeypatch, capsys):
    import chainsim.cli as climod
    oracle, seen = climod.golden_convolution, []

    def one_off_golden(ifm, ker, bias, p):
        t, ovf = oracle(ifm, ker, bias, p)
        i = t.flat_index(1, 2, 3, 4)
        seen.append(t.payload[i])
        return SampleTensor(t.dims, t.payload[:i] + (t.payload[i] + 1,) + t.payload[i + 1:],
                            t.fmt), ovf
    monkeypatch.setattr(climod, "golden_convolution", one_off_golden)
    rc = main(["verify", "--k", "3", "--h", "8", "--pes", "9", "--out-channels", "3",
               "--batch", "2"])
    assert rc == 1
    assert capsys.readouterr().out == (
        "layer: MISMATCH (1 of 216 samples differ); first (n, m, x, y) = (1, 2, 3, 4): "
        "expected %d, simulated %d\n" % (seen[0] + 1, seen[0]))


def test_verify_dump_tensors_round_trip(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["verify", "--k", "3", "--h", "6", "--pes", "9", "--dump-tensors"])
    assert rc == 0
    sim = SampleTensor.load(tmp_path / "layer_simulated.cnnt")
    gold = SampleTensor.load(tmp_path / "layer_golden.cnnt")
    assert sim == gold


def test_config_error_exit_two(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense: 1\n")
    assert main(["simulate", "--config", str(bad)]) == 2


@pytest.mark.parametrize("args, config", [
    (["map", "--pes", "0"], None),
    (["simulate", "--stages", "0"], None),
    (["simulate"], "frac_bits: 20\n"),
    (["simulate"], "clock_hz: 0\n"),
    (["simulate"], "energy_dram: -1\n"),
    (["report", "--preset", "alexnet"], "clock_hz: nan\n"),
    (["report", "--preset", "alexnet"], "clock_hz: inf\n"),
    (["simulate"], "energy_dram: nan\n"),
    (["report", "--preset", "alexnet", "--layer", "9"], None),
    (["sweep", "--preset", "alexnet", "--layer", "9"], None),
    (["report", "--layer", "3"], None),
    (["sweep", "--layer", "3"], None),
    (["simulate", "--small"], None),
    (["verify", "--small"], None),
])
def test_invalid_setting_exit_two_with_one_line(tmp_path, capsys, args, config):
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config)
        args = args + ["--config", str(path)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_undecodable_config_exit_two_with_one_line(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"\xffseed: 1\n")
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "0xff" in err


@pytest.mark.parametrize("args", [
    ["map", "--k-list", "0"],
    ["sweep", "--k-list", "0"],
    ["sweep", "--pes-list", "0"],
    ["sweep", "--preset", "alexnet", "--batch-list", "-5"],
    ["sweep", "--preset", "alexnet", "--batch-list", "0"],
])
def test_list_option_below_one_exit_two_with_one_line(capsys, args):
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert args[-2] in err


@pytest.mark.parametrize("args, config", [
    (["simulate", "--preset", "alexnet", "--small", "--traffic-csv", "t.csv"], None),
    (["verify", "--in-channels", "64", "--dump-tensors"],
     "total_bits: 20\naccumulator_bits: 40\n"),
])
def test_unwritable_output_exit_two_before_any_layer_runs(tmp_path, monkeypatch, capsys,
                                                          args, config):
    # one traffic CSV cannot hold several layers, and a tensor dump holds
    # int16 samples only
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        args = args + ["--config", "run.cfg"]
    assert main(args) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("config error: ") and out.err.count("\n") == 1
    assert os.listdir(tmp_path) == (["run.cfg"] if config else [])


def test_capacity_error_exit_three():
    assert main(["simulate", "--k", "25", "--h", "30", "--pes", "576"]) == 3


def test_schedule_command_writes_trace(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    rc = main(["schedule", "--k", "3", "--h", "7", "--trace-out", str(trace)])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    lines = trace.read_text().splitlines()
    assert lines[0].split() == ["0", "odd=-", "even=(0,0)"]


def test_schedule_group_header_names_row_group_and_phase(capsys):
    # --group indexes (row group, phase) placements: 4 phases per row group here
    argv = ["schedule", "--k", "2", "--h", "9", "--stride", "2", "--pad", "1", "--mode", "single"]
    headers = []
    for g in ("1", "4"):
        assert main(argv + ["--group", g]) == 0
        headers.append(capsys.readouterr().out.splitlines()[0])
    assert headers == ["layer group 1 (single, stride 2, row group 0, phase 0,1): outputs=5 feeds=5",
                       "layer group 4 (single, stride 2, row group 1, phase 0,0): outputs=5 feeds=5"]
    assert main(argv + ["--group", "20"]) == 2
    assert "(row group, phase) placements 0..19" in capsys.readouterr().err


def test_scheduled_report_follows_the_channel_mode(capsys):
    reports = {}
    for mode in ("dual", "single"):
        assert main(["report", "--preset", "alexnet", "--model", "scheduled", "--batch", "4",
                     "--mode", mode]) == 0
        reports[mode] = capsys.readouterr().out
    assert reports["dual"] != reports["single"]
    fps = {m: float(next(line.split()[1] for line in r.splitlines()
                         if line.startswith("throughput "))) for m, r in reports.items()}
    assert fps["single"] < fps["dual"]


def test_simulate_json_deterministic(tmp_path):
    args = ["simulate", "--pes", "18", "--k", "3", "--h", "8",
            "--in-channels", "2", "--out-channels", "2", "--seed", "7"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--json-out", str(out1)]) == 0
    assert main(args + ["--json-out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload[0]["reconcile_pass"] is True


def test_cycle_trace_text_pinned(tmp_path):
    # one primitive, two row groups (the second with a dummy row), zero pad
    trace = tmp_path / "trace.txt"
    assert main(["simulate", "--pes", "4", "--k", "2", "--h", "2", "--pad", "1",
                 "--cycle-trace", str(trace)]) == 0
    assert trace.read_text() == PINNED_TINY_TRACE


PINNED_TINY_TRACE = """\
4 compute prim=0 feeds=odd:(-1,-1)z out=-
5 compute prim=0 feeds=odd:(0,-1)z out=-
6 compute prim=0 feeds=odd:(1,-1)z out=-
7 compute prim=0 feeds=even:(-1,0)z out=-
8 compute prim=0 feeds=even:(0,0) odd:(-1,1)z out=(m0,0,0)
9 compute prim=0 feeds=even:(1,0) odd:(0,1) out=(m0,1,0)
10 compute prim=0 feeds=odd:(1,1) out=(m0,0,1)
11 compute prim=0 feeds=even:(-1,2)z out=(m0,1,1)
12 compute prim=0 feeds=even:(0,2)z out=(m0,0,2)
13 compute prim=0 feeds=even:(1,2)z out=(m0,1,2)
14 compute prim=0 feeds=- out=-
15 compute prim=0 feeds=- out=-
16 compute prim=0 feeds=- out=-
17 compute prim=0 feeds=odd:(1,-1)z out=-
18 compute prim=0 feeds=odd:(2,-1)z out=-
19 compute prim=0 feeds=odd:(3,-1)z out=-
20 compute prim=0 feeds=even:(1,0) out=-
21 compute prim=0 feeds=even:(2,0)z odd:(1,1) out=(m0,2,0)
22 compute prim=0 feeds=even:(3,0)z odd:(2,1)z out=(m0,3,0)d
23 compute prim=0 feeds=odd:(3,1)z out=(m0,2,1)
24 compute prim=0 feeds=even:(1,2)z out=(m0,3,1)d
25 compute prim=0 feeds=even:(2,2)z out=(m0,2,2)
26 compute prim=0 feeds=even:(3,2)z out=(m0,3,2)d
27 compute prim=0 feeds=- out=-
28 compute prim=0 feeds=- out=-
29 compute prim=0 feeds=- out=-
"""


def test_sweep_csv_deterministic(tmp_path):
    args = ["sweep", "--preset", "alexnet", "--k-list", "3", "11",
            "--pes-list", "576", "--batch-list", "4", "128"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--csv-out", str(a)]) == 0
    assert main(args + ["--csv-out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = a.read_text().strip().splitlines()
    assert rows[0].startswith("num_pes,kernel,batch")
    assert len(rows) == 5


@pytest.mark.parametrize("preset, column", [("vgg16", "ideal_fps_vgg16"), (None, "ideal_fps")])
def test_sweep_names_fps_column_after_preset(capsys, preset, column):
    args = ["sweep", "--k-list", "3", "--pes-list", "576"]
    assert main(args + (["--preset", preset] if preset else [])) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split(",")[-1] == column
    assert bool(row.split(",")[-1]) == bool(preset)


def test_sweep_evaluates_network_once_per_pe_count(monkeypatch):
    calls = []

    def counted(*args, _fn=chainsim.cli.analytic_layer_cycles, **kw):
        calls.append(args)
        return _fn(*args, **kw)
    monkeypatch.setattr(chainsim.cli, "analytic_layer_cycles", counted)
    assert main(["sweep", "--preset", "alexnet", "--k-list", "3", "5", "7", "11",
                 "--pes-list", "288", "576", "--batch-list", "1", "4", "128"]) == 0
    assert len(calls) == 2 * len(ALEXNET.layers)


def test_report_json_matches_contract(tmp_path):
    out = tmp_path / "rep.json"
    rc = main(["report", "--preset", "alexnet", "--batch", "128",
               "--json-out", str(out)])
    assert rc == 0
    d = json.loads(out.read_text())
    assert d["fps"] >= 326.2
    assert d["cycles"]["load"] == 2_332_704


@pytest.mark.parametrize("model", ["ideal", "scheduled"])
@pytest.mark.parametrize("batch", [4, 128])
def test_report_fps_is_its_fps_row(tmp_path, model, batch):
    # the throughput line and the fps_batch<N> reference row share one formula
    out = tmp_path / "rep.json"
    assert main(["report", "--preset", "alexnet", "--batch", str(batch), "--model", model,
                 "--json-out", str(out)]) == 0
    d = json.loads(out.read_text())
    row = next(r for r in d["reference"] if r["metric"] == "fps_batch%d" % batch)
    assert d["fps"] == row["ours"]


def test_report_layer_selects_one_preset_layer(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["report", "--preset", "alexnet", "--layer", "3",
                 "--json-out", str(out)]) == 0
    assert [layer["name"] for layer in json.loads(out.read_text())["layers"]] == ["conv3"]


def test_single_channel_simulation_utilization(capsys):
    rc = main(["simulate", "--pes", "9", "--k", "3", "--h", "36", "--mode", "single"])
    assert rc == 0
    out = capsys.readouterr().out
    util = float(out.split("temporal utilization")[1].split(",")[0])
    assert abs(util - 1 / 3) < 0.04


def test_machine_readable_outputs_pinned(tmp_path):
    # one digest over every JSON and CSV output below: file names, then bytes
    cfg = tmp_path / "small_kmem.cfg"
    cfg.write_text("kmem_capacity: 2\naccumulator_bits: 18\noverflow: saturate\n")
    runs = [
        ["simulate", "--pes", "18", "--k", "3", "--h", "9", "--stride", "2", "--pad", "1",
         "--in-channels", "2", "--out-channels", "3", "--batch", "2", "--seed", "3",
         "--json-out", "dual.json", "--traffic-csv", "dual.csv"],
        ["simulate", "--config", str(cfg), "--pes", "18", "--k", "3", "--h", "8",
         "--in-channels", "4", "--out-channels", "6", "--groups", "2", "--mode", "single",
         "--json-out", "grouped.json", "--traffic-csv", "grouped.csv"],
        ["report", "--preset", "alexnet", "--batch", "128", "--json-out", "ideal.json"],
        ["report", "--preset", "alexnet", "--batch", "128", "--model", "scheduled",
         "--json-out", "scheduled.json"],
        ["sweep", "--preset", "alexnet", "--k-list", "3", "5", "11",
         "--pes-list", "288", "576", "--batch-list", "4", "128", "--csv-out", "sweep.csv"],
    ]
    digest = hashlib.sha256()
    for argv in runs:
        argv = [str(tmp_path / a) if a.endswith((".json", ".csv")) else a for a in argv]
        assert main(argv) == 0
    outputs = sorted(p for p in tmp_path.iterdir() if p.suffix in (".json", ".csv"))
    assert [p.name for p in outputs] == ["dual.csv", "dual.json", "grouped.csv", "grouped.json",
                                         "ideal.json", "scheduled.json", "sweep.csv"]
    for path in outputs:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == PINNED_CLI_OUTPUTS_SHA256


PINNED_CLI_OUTPUTS_SHA256 = "b88d22348eeda9cf6649bb1397e5d92dc4b55a181a1796187f4a8bffaf517259"
