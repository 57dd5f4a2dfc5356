import itertools
import json
import random

import pytest

import chainsim.perf
from chainsim import (ChainConfig, LayerParams, cycle_lower_bound, ifmap_reuse_factor,
                      kmem_activity, network_report, partition_chain, peak_throughput,
                      run_layer, synth_tensors, utilization_report)
from chainsim.perf import LayerCycles, analytic_layer_cycles
from chainsim.presets import ALEXNET
from chainsim.scheduler import DUAL, SINGLE

from conftest import random_layer, small_chain

CHAIN576 = ChainConfig(num_pes=576)


def alexnet_cycles(model="ideal"):
    return [analytic_layer_cycles(p, CHAIN576, model=model, name="conv%d" % i)
            for i, p in enumerate(ALEXNET.layers, start=1)]


def test_peak_throughput_published_figure():
    assert peak_throughput(CHAIN576) == 806.4e9


def test_effective_peak_for_11x11():
    cm = partition_chain(CHAIN576, 11)
    assert peak_throughput(CHAIN576, cm) == 484 * 2 * 700e6


def test_single_pe_at_one_hz():
    assert peak_throughput(ChainConfig(num_pes=1, clock_hz=1.0)) == 2.0


def test_conv1_cycle_lower_bound():
    p = ALEXNET.layers[0]
    cm = partition_chain(CHAIN576, p.k)
    assert cycle_lower_bound(p, cm) == 217_800  # 105,415,200 MACs / 484 PEs


def test_lower_bound_one_cycle_when_macs_equal_pes():
    p = LayerParams.from_shape(n=1, c=1, m=1, h=3, k=3)  # nine MACs
    cm = partition_chain(ChainConfig(num_pes=9), 3)
    assert cycle_lower_bound(p, cm) == 1


def test_simulated_cycles_never_beat_lower_bound():
    r = random.Random(17)
    for _ in range(8):
        p = random_layer(r)
        cfg = small_chain(p)
        ifm, ker, bias = synth_tensors(p, seed=3)
        run = run_layer(p, ifm, ker, bias, cfg)
        cm = partition_chain(cfg, p.k)
        assert run.cycles.compute + run.cycles.drain >= cycle_lower_bound(p, cm)


def test_utilization_report_interior_dual():
    # e divisible by k, m a multiple of the primitive count: no idle slots
    p = LayerParams.from_shape(n=1, c=2, m=4, h=8, k=3)
    cfg = small_chain(p)
    ifm, ker, bias = synth_tensors(p, seed=1)
    run = run_layer(p, ifm, ker, bias, cfg)
    mapping, temporal = utilization_report(run, partition_chain(cfg, p.k))
    assert mapping == 1.0
    assert temporal >= 0.95


def test_utilization_report_single_channel_is_one_over_k():
    p = LayerParams.from_shape(n=1, c=1, m=2, h=36, k=3)  # e = 34
    cfg = small_chain(p)
    ifm, ker, bias = synth_tensors(p, seed=1)
    run = run_layer(p, ifm, ker, bias, cfg, mode="single")
    _, temporal = utilization_report(run, partition_chain(cfg, p.k))
    assert abs(temporal - 1 / 3) < 0.04


def test_mapping_efficiency_k11():
    cm = partition_chain(CHAIN576, 11)
    assert abs(cm.efficiency - 0.84) < 0.001


def test_alexnet_ideal_fps_bounds_published_figure():
    rep = network_report(alexnet_cycles(), CHAIN576, batch=128)
    assert rep.fps >= 326.2
    assert rep.load_cycles == 2_332_704


def test_fps_non_decreasing_in_batch():
    layers = alexnet_cycles()
    fps = [network_report(layers, CHAIN576, batch=b, include_reference=False).fps
           for b in (1, 4, 32, 128)]
    assert fps == sorted(fps)


def test_kernel_load_share_shrinks_with_batch():
    layers = alexnet_cycles()
    odds = []
    for b in (1, 128):
        rep = network_report(layers, CHAIN576, batch=b, include_reference=False)
        share = rep.load_cycles / rep.total_cycles
        odds.append(share / (1 - share))
    # load/compute odds scale exactly with 1/batch
    assert odds[0] == pytest.approx(128 * odds[1])


def test_single_layer_network_share_is_one():
    p = LayerParams.from_shape(n=1, c=2, m=2, h=7, k=3)
    layers = [analytic_layer_cycles(p, ChainConfig(num_pes=18), name="only")]
    rep = network_report(layers, ChainConfig(num_pes=18), batch=1,
                         include_reference=False)
    assert len(rep.layer_shares) == 1
    assert rep.layer_shares[0][1] == pytest.approx(1.0)


def test_layer_shares_sum_to_one():
    rep = network_report(alexnet_cycles(), CHAIN576, batch=128)
    assert sum(s for _, s in rep.layer_shares) == pytest.approx(1.0)


@pytest.mark.parametrize("batch", [4, 128])
def test_reference_table_covers_required_metrics(batch):
    # every compared figure appears with an explicit status at any batch
    rep = network_report(alexnet_cycles(), CHAIN576, batch=batch)
    metrics = {r.metric: r.status for r in rep.reference}
    for needed in ("peak_gops", "active_pes_k3", "active_pes_k5", "active_pes_k7",
                   "active_pes_k9", "active_pes_k11", "alexnet_macs_per_image",
                   "kernel_load_ms", "fps_batch128", "fps_batch4",
                   "published_fps_vs_batch_time", "kmem_activity_conv3",
                   "imem_reads_per_pixel_k3"):
        assert needed in metrics, needed
    assert metrics["active_pes_k9"] == "documented-discrepancy"
    assert metrics["published_fps_vs_batch_time"] == "documented-discrepancy"
    assert metrics["fps_batch128"] == "bounded"
    assert metrics["fps_batch4"] == "bounded"
    ours = {r.metric: r.ours for r in rep.reference}
    assert ours["fps_batch128"] >= 326.2 and ours["fps_batch4"] >= 275.6


def test_formula_rows_are_computed_and_compared(monkeypatch):
    # the k=3 rows take ours from memmodel's formulas and their status
    # from comparing it with the published value
    def rows():
        rep = network_report(alexnet_cycles(), CHAIN576, batch=128)
        return {r.metric: (r.ours, r.status) for r in rep.reference}

    macs_per_feed, macs_per_pixel = ifmap_reuse_factor(3)
    got = rows()
    assert got["kmem_activity_conv3"] == (float(kmem_activity(3, 13)),
                                          "documented-discrepancy")
    assert got["imem_reads_per_pixel_k3"] == (float(macs_per_pixel / macs_per_feed),
                                              "reproduced")
    assert got["ifmap_reuse_per_pixel_k3"] == (macs_per_pixel, "reproduced")
    assert got["imem_reads_per_pixel_k3"][0] == 5 / 3
    monkeypatch.setitem(chainsim.perf.PUBLISHED, "ifmap_reuse_per_pixel_k3", 10)
    monkeypatch.setitem(chainsim.perf.PUBLISHED, "kmem_activity_conv3", 1 / 39)
    got = rows()
    assert got["ifmap_reuse_per_pixel_k3"] == (9, "documented-discrepancy")
    assert got["kmem_activity_conv3"] == (1 / 39, "reproduced")


def test_json_dict_field_names_are_stable():
    rep = network_report(alexnet_cycles(), CHAIN576, batch=128)
    d = rep.to_json_dict()
    assert set(d) >= {"peak_gops", "achieved_gops", "cycles", "utilization",
                      "fps", "layers", "reference"}
    assert set(d["cycles"]) >= {"load", "compute"}
    assert set(d["utilization"]) == {"mapping", "temporal"}
    assert all(set(row) == {"metric", "ours", "paper", "delta", "status", "note"}
               for row in d["reference"])
    json.dumps(d)  # must be serializable


def test_achieved_gops_consistent_with_counters():
    p = LayerParams.from_shape(n=1, c=2, m=4, h=8, k=3)
    cfg = small_chain(p)
    ifm, ker, bias = synth_tensors(p, seed=2)
    run = run_layer(p, ifm, ker, bias, cfg)
    lc = LayerCycles(name="l", k=p.k, load_cycles=run.cycles.kernel_load,
                     compute_cycles=run.cycles.compute + run.cycles.drain,
                     macs=run.counters.macs - run.counters.dummy_macs)
    rep = network_report([lc], cfg, batch=1, include_reference=False)
    macs = run.counters.macs - run.counters.dummy_macs
    want = 2 * macs / (rep.total_cycles / cfg.clock_hz)
    assert rep.achieved_gops == pytest.approx(want)


def test_scheduled_conv1_runs_its_polyphase_layer():
    # 11x11 stride 4: 48 sub-channels of 3x3 on the 64-primitive chain
    lc = analytic_layer_cycles(ALEXNET.layers[0], CHAIN576, model="scheduled")
    assert (lc.k, lc.load_cycles, lc.compute_cycles) == (3, 41_472, 331_968)
    layers = alexnet_cycles("scheduled")
    fps = {b: network_report(layers, CHAIN576, batch=b).fps for b in (4, 128)}
    assert round(fps[128], 1) == 358.3 and round(fps[4], 1) == 277.7


def test_scheduled_model_equals_simulated_cycles():
    for shape, mode in itertools.product(
            (dict(c=2, m=2, h=9, k=3), dict(c=2, m=3, h=11, k=3, stride=2, pad=1),
             dict(c=1, m=2, h=15, k=7, stride=4), dict(c=2, m=2, h=12, k=5, pad=2)),
            (DUAL, SINGLE)):
        p = LayerParams.from_shape(n=1, **shape)
        cfg = small_chain(p)
        ifm, ker, bias = synth_tensors(p, seed=4)
        run = run_layer(p, ifm, ker, bias, cfg, mode=mode)
        lc = analytic_layer_cycles(p, cfg, model="scheduled", mode=mode)
        # the closed-form pass model matches the simulator except the final
        # pipeline flush of (stages - 1) cycles
        assert lc.compute_cycles == (run.cycles.compute + run.cycles.drain
                                     - (cfg.pipeline_stages - 1))
        assert lc.load_cycles == run.cycles.kernel_load
