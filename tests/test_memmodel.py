import ast
import random
from fractions import Fraction

import pytest

from chainsim import memmodel, perf
from chainsim import (ChainConfig, LayerParams, analytic_traffic, energy_proxy,
                      ifmap_reuse_factor, kmem_activity, plan_tiling, reconcile,
                      run_layer, synth_tensors, traffic_from_counters)
from chainsim.memmodel import EnergyCostTable, LevelTraffic, TrafficCounters
from chainsim.presets import ALEXNET

from conftest import column_counts, random_layer, small_chain


def simulate(p, mode="dual", cfg=None):
    cfg = cfg or small_chain(p)
    ifm, ker, bias = synth_tensors(p, seed=11)
    return run_layer(p, ifm, ker, bias, cfg, mode=mode), cfg


# ------------------------------------------------------------ reconciliation

@pytest.mark.parametrize("mode", ["dual", "single"])
def test_reconcile_passes_on_random_layers(mode):
    r = random.Random(42)
    for _ in range(10):
        p = random_layer(r)
        run, cfg = simulate(p, mode)
        plan = plan_tiling(p, cfg)
        rep = reconcile(analytic_traffic(p, plan, cfg, mode),
                        traffic_from_counters(run.counters))
        assert rep.passed, "%s\n%s" % (p, rep)


def test_perturbed_analytic_fails_naming_field():
    p = LayerParams.from_shape(n=1, c=2, m=2, h=7, k=3)
    run, cfg = simulate(p)
    plan = plan_tiling(p, cfg)
    good = analytic_traffic(p, plan, cfg)
    bad = TrafficCounters(
        dram=good.dram,
        imem=LevelTraffic(good.imem.reads + 40, good.imem.writes),
        kmem=good.kmem, omem=good.omem)
    rep = reconcile(bad, traffic_from_counters(run.counters))
    assert not rep.passed
    broken = [d[0] for d in rep.diffs if d[3] != 0]
    assert broken == ["imem.reads"]


# ----------------------------------------------------------------- formulas

def test_kmem_activity_values():
    assert kmem_activity(3, 13) == Fraction(1, 39)   # about 2.56%
    assert kmem_activity(1, 1) == 1
    with pytest.raises(ValueError):
        kmem_activity(0, 5)


def test_ifmap_reuse_factors():
    per_feed, per_pixel = ifmap_reuse_factor(3)
    assert per_feed == Fraction(27, 5)
    assert per_pixel == 9
    assert ifmap_reuse_factor(1) == (Fraction(1), 1)


def test_kmem_activity_measured_equals_formula():
    # e divisible by k and m filling every primitive keeps the identity exact
    p = LayerParams.from_shape(n=1, c=2, m=4, h=8, k=3)  # e = 6
    run, cfg = simulate(p)
    plan = plan_tiling(p, cfg)
    measured = Fraction(run.counters.kmem_reads,
                        run.cycles.compute * plan.chain.active_pes)
    assert measured == kmem_activity(p.k, p.e)


@pytest.mark.parametrize("k", [3, 5, 7])
def test_interior_column_mac_per_feed_ratio(k):
    h = 3 * k + (k - 1)
    p = LayerParams.from_shape(n=1, c=1, m=1, h=h, k=k)
    run, cfg = simulate(p)
    feeds, macs = column_counts(p)
    assert sum(feeds.values()) == run.counters.imem_reads
    assert sum(macs.values()) == run.counters.macs - run.counters.dummy_macs
    for col in range(k - 1, p.h - k + 1):
        assert Fraction(macs[col], feeds[col]) == Fraction(k ** 3, 2 * k - 1)


def test_kernel_dram_traffic_independent_of_batch():
    traffics = {}
    for n in (1, 4):
        p = LayerParams.from_shape(n=n, c=2, m=2, h=7, k=3)
        cfg = ChainConfig(num_pes=18)
        traffics[n] = analytic_traffic(p, plan_tiling(p, cfg), cfg)
    assert traffics[1].kmem.writes == traffics[4].kmem.writes
    assert traffics[4].kmem.reads == 4 * traffics[1].kmem.reads


def test_alexnet_layers_2_to_5_traffic_ordering():
    # published breakdown property: partial-sum and weight-store traffic
    # dominate input reads on every layer after the first
    cfg = ChainConfig(num_pes=576)
    for p in ALEXNET.layers[1:]:
        p4 = LayerParams.from_shape(n=4, c=p.c, m=p.m, h=p.h, k=p.k,
                                    stride=p.stride, pad=p.pad, groups=p.groups)
        t = analytic_traffic(p4, plan_tiling(p4, cfg), cfg)
        assert t.omem.events > t.kmem.events > t.imem.events


# ------------------------------------------------------------------- energy

def test_energy_zero_table_and_linearity():
    p = LayerParams.from_shape(n=1, c=1, m=1, h=5, k=3)
    run, cfg = simulate(p)
    traffic = traffic_from_counters(run.counters)
    zero = EnergyCostTable(mac=0, kmem=0, imem=0, omem=0, dram=0)
    assert energy_proxy(traffic, run.counters.macs, zero)[0] == 0
    base = EnergyCostTable()
    doubled = EnergyCostTable(mac=2, kmem=2, imem=12, omem=12, dram=400)
    e1, _ = energy_proxy(traffic, run.counters.macs, base)
    e2, _ = energy_proxy(traffic, run.counters.macs, doubled)
    assert e2 == pytest.approx(2 * e1)


def test_memory_share_monotone_in_sram_cost():
    p = LayerParams.from_shape(n=1, c=2, m=2, h=7, k=3)
    run, cfg = simulate(p)
    traffic = traffic_from_counters(run.counters)
    shares = []
    for sram in (1.0, 4.0, 16.0, 64.0):
        table = EnergyCostTable(mac=1.0, kmem=sram, imem=sram, omem=sram, dram=sram)
        _, parts = energy_proxy(traffic, run.counters.macs, table)
        shares.append(parts["kmem"] + parts["imem"] + parts["omem"] + parts["dram"])
    assert shares == sorted(shares)


def test_energy_shares_sum_to_one():
    p = LayerParams.from_shape(n=1, c=1, m=2, h=6, k=3)
    run, cfg = simulate(p)
    _, parts = energy_proxy(traffic_from_counters(run.counters),
                            run.counters.macs, EnergyCostTable())
    assert sum(parts.values()) == pytest.approx(1.0)


def test_energy_table_rejects_unknown_and_negative():
    with pytest.raises(TypeError):
        EnergyCostTable(sram=1.0)
    with pytest.raises(ValueError):
        EnergyCostTable(mac=-1.0)


def test_traffic_csv_has_fixed_columns():
    p = LayerParams.from_shape(n=1, c=1, m=1, h=5, k=3)
    run, cfg = simulate(p)
    csv = traffic_from_counters(run.counters).to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "level,reads,writes,bytes,activity"
    assert [l.split(",")[0] for l in lines[1:]] == ["dram", "imem", "kmem", "omem"]


def test_analytic_models_import_no_simulator_module():
    # the traffic and cycle models are reconciled against run_layer, so they
    # share none of its module
    for mod in (memmodel, perf):
        imported = set()
        for node in ast.walk(ast.parse(open(mod.__file__).read())):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(a.name for a in node.names)
            elif isinstance(node, ast.Import):
                imported.update(a.name for a in node.names)
        assert not any(name.rpartition(".")[2] == "simulator" for name in imported), mod
