"""Acceptance criteria, one test per criterion, one printed verdict line each.

Every tolerance is pinned here; nothing defers to later calibration.
"""

import json
import random
from fractions import Fraction

import pytest

from chainsim import (ChainConfig, LayerParams, analytic_traffic, golden_convolution,
                      mac_count, network_report, plan_tiling, reconcile, run_layer,
                      synth_tensors, traffic_from_counters, partition_chain,
                      peak_throughput)
from chainsim.cli import main
from chainsim.fixedpoint import FixedFormat
from chainsim.perf import analytic_layer_cycles
from chainsim.presets import ALEXNET
from chainsim.scheduler import build_schedule, row_groups, validate_schedule

from conftest import column_counts, rand_tensor, random_layer, small_chain

CHAIN576 = ChainConfig(num_pes=576)


def _verdict(num, ok, text):
    print("ACCEPTANCE %2d: %s - %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, text


# -------------------------------------------------------------- criterion 1

def test_criterion_1_active_pe_table():
    rows = {k: partition_chain(CHAIN576, k) for k in [3, 5, 7, 9, 11]}
    published = {3: (64, 576, 1.000), 5: (23, 575, 0.998),
                 7: (11, 539, 0.936), 11: (4, 484, 0.840)}
    ok = True
    for k, (prims, active, eff) in published.items():
        cm = rows[k]
        ok &= cm.active_primitives == prims and cm.active_pes == active
        ok &= abs(cm.efficiency - eff) <= 0.001
    nine = rows[9]
    ok &= (nine.active_primitives, nine.active_pes) == (7, 567)
    ok &= abs(nine.efficiency - 0.984) <= 0.001
    ok &= nine.efficiency != 1.0  # printed value flagged, not matched
    _verdict(1, ok, "576-PE table exact for k in {3,5,7,11}; k=9 reported as "
                    "7/567/98.4% against the printed 100%")


# -------------------------------------------------------------- criterion 2

def test_criterion_2_peak_throughput():
    peak = peak_throughput(CHAIN576)
    _verdict(2, peak == 806.4e9,
             "576 PEs x 2 ops x 700 MHz == 806.4 GOPS exactly (got %.10g)" % peak)


# ----------------------------------------------------- criteria 3 and 7 body

def _criterion3_corpus():
    """(layer, mode, tensors): 200 layers of bounded data, then a slice of
    20 whose +-300 samples overflow an 18-bit saturating accumulator."""
    rng = random.Random(0x5EED)
    for i in range(200):
        p = random_layer(rng, k_choices=(1, 2, 3, 5), h_max=16)
        mode = "single" if i % 10 == 9 else "dual"
        yield p, mode, synth_tensors(p, seed=i)
    rng, fmt = random.Random(0x0F10), FixedFormat(accumulator_bits=18)
    for i in range(20):
        p = random_layer(rng, k_choices=(1, 2, 3, 5), h_max=16)
        mode = "single" if i % 10 == 9 else "dual"
        yield p, mode, [rand_tensor(rng, dims, 300, fmt)
                        for dims in (p.ifmap_dims(), p.kernel_dims(), p.bias_dims())]


@pytest.fixture(scope="module")
def corpus_results():
    results = []
    for p, mode, (ifm, ker, bias) in _criterion3_corpus():
        cfg = small_chain(p)
        run = run_layer(p, ifm, ker, bias, cfg, mode=mode)
        want, events = golden_convolution(ifm, ker, bias, p)
        plan = plan_tiling(p, cfg)
        rec = reconcile(analytic_traffic(p, plan, cfg, mode),
                        traffic_from_counters(run.counters))
        exact = (run.ofmaps, run.counters.overflow_events) == (want, events)
        results.append((p, mode, exact, rec.passed, run))
    return results


def test_criterion_3_bit_exactness(corpus_results):
    mismatches = [(p, mode) for p, mode, exact, _, _ in corpus_results if not exact]
    overflowing = sum(run.counters.overflow_events > 0 for *_, run in corpus_results)
    _verdict(3, len(corpus_results) >= 220 and overflowing >= 10 and not mismatches,
             "%d randomized layers, %d of them with saturating overflow, bit-exact "
             "against the direct convolution in outputs and overflow events "
             "(%d mismatches)" % (len(corpus_results), overflowing, len(mismatches)))


# -------------------------------------------------------------- criterion 4

def test_criterion_4_window_property_and_throughput():
    ok = True
    details = []
    for k, h in ((2, 53), (3, 36), (5, 29)):
        p = LayerParams.from_shape(n=1, c=1, m=1, h=h, k=k)
        for g in row_groups(p):
            s = build_schedule(g, p, "dual")
            rep = validate_schedule(s, p)
            ok &= rep.ok
            ok &= rep.first_valid_cycle <= k * k
            ok &= rep.measured_throughput == 1
            ok &= rep.steady_cycles_observed >= 100
        details.append("k=%d first=%d" % (k, rep.first_valid_cycle))
    # single-channel measured rate over one band of >= 100 cycles
    p = LayerParams.from_shape(n=1, c=1, m=1, h=36, k=3)  # e = 34
    s = build_schedule(row_groups(p)[0], p, "single")
    rep = validate_schedule(s, p)
    ok &= rep.ok
    band = [o.cycle for o in s.outputs if o.row == 0]
    rate = (len(band) - 1) / (band[-1] - band[0])
    ok &= band[-1] - band[0] >= 99
    ok &= abs(rate - 1 / 3) <= 0.01
    _verdict(4, ok, "dual schedules validate with first window <= k*k and 1 "
                    "output/cycle (%s); single channel measures %.4f vs 1/3"
             % (", ".join(details), rate))


# -------------------------------------------------------------- criterion 5

def test_criterion_5_reuse_factors():
    ok = True
    notes = []
    for k in (3, 5, 7):
        h = 4 * k + (k - 1)  # every strip fully real, e divisible by k
        p = LayerParams.from_shape(n=1, c=1, m=1, h=h, k=k)
        cfg = ChainConfig(num_pes=k * k)
        ifm, ker, bias = synth_tensors(p, seed=k)
        run = run_layer(p, ifm, ker, bias, cfg)
        groups = p.e // k
        # exact per-sweep totals: interior rows read (2k-1)/k times on average
        ok &= run.counters.imem_reads == groups * (2 * k - 1) * p.h
        per_pixel = Fraction(run.counters.imem_reads, p.h * p.h)
        boundary = Fraction(2 * k - 1, k) - per_pixel  # closed-form correction
        ok &= per_pixel + boundary == Fraction(2 * k - 1, k)
        interior_rows = range(k, (groups - 1) * k)
        rows, _ = column_counts(p, axis=0)   # each strip row holds h real columns
        ok &= Fraction(sum(rows[r] for r in interior_rows), len(interior_rows) * p.h) \
            == Fraction(2 * k - 1, k)
        feeds, macs = column_counts(p)
        ok &= sum(feeds.values()) == run.counters.imem_reads
        ok &= sum(macs.values()) == run.counters.macs - run.counters.dummy_macs
        for col in range(k - 1, p.h - k + 1):
            ok &= Fraction(macs[col], feeds[col]) == Fraction(k ** 3, 2 * k - 1)
        notes.append("k=%d" % k)
    _verdict(5, ok, "iMemory reads follow (2k-1)/k exactly and interior MAC/feed "
                    "ratio is k^3/(2k-1) for %s" % ", ".join(notes))


# -------------------------------------------------------------- criterion 6

def test_criterion_6_kmem_activity():
    # conv3-shaped layer scaled in channels only: k = 3, e = 13
    p = LayerParams.from_shape(n=1, c=8, m=12, h=13, k=3, pad=1)
    cfg = ChainConfig(num_pes=18)
    ifm, ker, bias = synth_tensors(p, seed=6)
    run = run_layer(p, ifm, ker, bias, cfg)
    plan = plan_tiling(p, cfg)
    measured = Fraction(run.counters.kmem_reads,
                        run.cycles.compute * plan.chain.active_pes)
    formula = Fraction(1, p.k * p.e)
    ok = measured == formula == Fraction(1, 39)
    pct, paper_pct = 100 / 39, 2.22
    _verdict(6, ok, "kmem reads / (compute x active PEs) == 1/(k*e) == 1/39 "
                    "(%.2f%%), reported next to the published 2.22%% as a "
                    "documented discrepancy" % pct)


# -------------------------------------------------------------- criterion 7

def test_criterion_7_reconciliation_and_ordering(corpus_results):
    failures = [p for p, _, _, rec_ok, _ in corpus_results if not rec_ok]
    ok = not failures
    for p in ALEXNET.layers[2:]:
        p4 = LayerParams.from_shape(n=4, c=p.c, m=p.m, h=p.h, k=p.k,
                                    stride=p.stride, pad=p.pad, groups=p.groups)
        t = analytic_traffic(p4, plan_tiling(p4, CHAIN576), CHAIN576)
        ok &= t.omem.events > t.kmem.events > t.imem.events
    _verdict(7, ok, "analytic traffic equals simulated counters on all %d corpus "
                    "layers; oMemory > kMemory > iMemory holds for the three "
                    "3x3 layers at batch 4" % len(corpus_results))


# -------------------------------------------------------------- criterion 8

def test_criterion_8_alexnet_arithmetic():
    total_macs = sum(mac_count(p) for p in ALEXNET.layers)
    load_cycles = 0
    for p in ALEXNET.layers:
        plan_tiling(p, CHAIN576)  # the full network must plan cleanly
        load_cycles += p.m * p.c_per_group * p.k * p.k
    ms = load_cycles / 700e6 * 1e3
    ok = abs(total_macs - 666e6) / 666e6 <= 0.01
    ok &= load_cycles == 2_332_704
    ok &= abs(ms - 3.25) / 3.25 <= 0.05
    _verdict(8, ok, "mac count %d (666M +- 1%%), kernel load %d cycles = %.3f ms "
                    "(within 5%% of 3.25 ms)" % (total_macs, load_cycles, ms))


# -------------------------------------------------------------- criterion 9

def test_criterion_9_fps_bounding():
    layers = [analytic_layer_cycles(p, CHAIN576, model="ideal", name="conv%d" % i)
              for i, p in enumerate(ALEXNET.layers, start=1)]
    rep = network_report(layers, CHAIN576, batch=128)
    ok = rep.fps >= 326.2
    metrics = {r.metric: r for r in rep.reference}
    row = metrics.get("published_fps_vs_batch_time")
    ok &= row is not None and row.status == "documented-discrepancy"
    ok &= row is not None and abs(row.ours - 365.8) < 0.1
    _verdict(9, ok, "zero-overhead fps %.1f >= 326.2 at batch 128; the 349.92 ms "
                    "vs 326.2 fps inconsistency (implied %.1f fps) is recorded"
             % (rep.fps, row.ours if row else float("nan")))


# ------------------------------------------------------------- criterion 10

def test_criterion_10_determinism_and_pipeline_independence(tmp_path):
    sim_args = ["simulate", "--pes", "18", "--k", "3", "--h", "9",
                "--in-channels", "2", "--out-channels", "2", "--seed", "9"]
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(sim_args + ["--json-out", str(j1)]) == 0
    assert main(sim_args + ["--json-out", str(j2)]) == 0
    ok = j1.read_bytes() == j2.read_bytes()

    sweep_args = ["sweep", "--k-list", "3", "5", "--pes-list", "72",
                  "--batch-list", "1", "4"]
    c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(sweep_args + ["--csv-out", str(c1)]) == 0
    assert main(sweep_args + ["--csv-out", str(c2)]) == 0
    ok &= c1.read_bytes() == c2.read_bytes()

    p = LayerParams.from_shape(n=1, c=2, m=2, h=9, k=3, pad=1)
    ifm, ker, bias = synth_tensors(p, seed=10)
    runs = {}
    for stages in (1, 3, 5):
        cfg = ChainConfig(num_pes=18, pipeline_stages=stages)
        runs[stages] = run_layer(p, ifm, ker, bias, cfg)
    ok &= runs[1].ofmaps == runs[3].ofmaps == runs[5].ofmaps
    ok &= runs[1].cycles.compute == runs[3].cycles.compute == runs[5].cycles.compute
    ok &= runs[1].counters.macs == runs[3].counters.macs == runs[5].counters.macs
    latencies = [runs[s].first_output_cycle for s in (1, 3, 5)]
    ok &= latencies[1] - latencies[0] == 2 and latencies[2] - latencies[1] == 2
    _verdict(10, ok, "seeded JSON/CSV byte-identical; pipeline stages 1/3/5 "
                     "shift only the first-output latency (%s)" % latencies)
