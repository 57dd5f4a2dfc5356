"""The benchmark's four workloads.

Each workload has two parts:

* ``make_*`` builds the inputs from the seed.  This is the set-up that
  ``setup_s`` times, together with importing ``chainsim``.
* ``*_pass`` runs the workload's operations once through the public
  ``chainsim`` API and checks them.  ``h`` is the harness's ``Pass``:
  ``h.op`` times one operation into ``wall_s`` and ``h.call`` wraps one
  public call in a span.  Checks run outside ``h.op``, so they cost no
  ``wall_s``.

A pass returns ``(stats, fingerprint)``; ``report_pass`` adds the
scheduled AlexNet layer cycles.  ``stats`` holds the modelled counters
behind the per-layer metrics.  ``fingerprint`` maps a name to the exact
modelled statistics of one layer or model, and must read the same on every
pass.
"""

from __future__ import annotations

import hashlib
import random
from array import array
from collections import Counter
from dataclasses import dataclass

# AlexNet conv2-conv5 at full spatial size, with their k, pad and groups.
# Channels are sliced to (c, m): (preset layer index, c, m).
STRIDE1_SLICES = ((1, 8, 16), (2, 16, 32), (3, 16, 32), (4, 16, 32))
# AlexNet conv1 at 227x227, all 3 input channels, m = one tile of the
# 4 primitives that k = 11 leaves on the 576-PE chain.
STRIDE4_SLICE = (0, 3, 4)

# The corpus reuses the shape draw of acceptance criterion 3, so its cost
# does not depend on the seed; the seed picks the data.
CORPUS_SHAPE_SEED = 0x5EED
CORPUS_LAYERS = 200
# Layers with i % 10 == 4 get saturating-overflow data instead of bounded
# data: samples in +-300 and an 18-bit accumulator.
OVERFLOW_SLOT = 4
OVERFLOW_BOUND = 300
OVERFLOW_ACC_BITS = 18

FIDELITY_BATCHES = (128, 4)
SWEEP_PES = (144, 288, 576, 1152)      # the grid of scripts/kernel_size_sweep.py
SWEEP_KS = (1, 2, 3, 5, 7, 9, 11)
SWEEP_BATCHES = (1, 4, 128)


@dataclass
class Case:
    """One layer run on the simulator."""

    name: str
    p: object
    cfg: object
    mode: str
    tensors: tuple           # (ifmaps, kernels, bias)
    overflow: bool = False   # saturating-overflow data, see OVERFLOW_SLOT


def tensor_digest(*tensors) -> str:
    h = hashlib.sha256()
    for t in tensors:
        h.update(repr(t.dims).encode())
        h.update(array("h", t.payload).tobytes())
    return h.hexdigest()


def case_key(case: Case) -> str:
    """Digest of everything the oracle reads, to look up recorded results."""
    p = case.p
    shape = (p.n, p.c, p.m, p.h, p.k, p.stride, p.pad, p.groups,
             case.tensors[0].fmt.accumulator_bits, case.tensors[0].fmt.overflow)
    return hashlib.sha256((repr(shape) + tensor_digest(*case.tensors)).encode()).hexdigest()


# ---------------------------------------------------------------- inputs

def _alexnet_slice(cs, index, c, m):
    base = cs.ALEXNET.layers[index]
    return cs.LayerParams.from_shape(n=1, c=c, m=m, h=base.h, k=base.k, stride=base.stride,
                                     pad=base.pad, groups=base.groups)


def _alexnet_cases(cs, seed, slices):
    cfg = cs.ChainConfig()
    cases = []
    for index, c, m in slices:
        p = _alexnet_slice(cs, index, c, m)
        cases.append(Case("conv%d" % (index + 1), p, cfg, "dual",
                          cs.synth_tensors(p, seed * 1000 + index)))
    return cases


def make_stride1(cs, seed):
    return _alexnet_cases(cs, seed, STRIDE1_SLICES)


def make_stride4(cs, seed):
    return _alexnet_cases(cs, seed, (STRIDE4_SLICE,))


def _corpus_shape(cs, rng):
    """One layer drawn like acceptance criterion 3 (k in {1,2,3,5},
    stride 1/2, pad 0/1, groups 1/2, h <= 16)."""
    while True:
        k = rng.choice((1, 2, 3, 5))
        stride = rng.choice([1, 2])
        pad = rng.choice([0, 1])
        groups = rng.choice([1, 2])
        c = rng.choice([v for v in range(1, 5) if v % groups == 0])
        m = rng.choice([v for v in range(1, 9) if v % groups == 0])
        h_min = max(3, k - 2 * pad, stride * (k - 1) + k - 2 * pad)
        if h_min > 16:
            continue
        h = rng.randint(h_min, 16)
        try:
            return cs.LayerParams.from_shape(n=1, c=c, m=m, h=h, k=k, stride=stride,
                                             pad=pad, groups=groups)
        except ValueError:
            continue


def _overflow_tensors(cs, p, seed):
    fmt = cs.FixedFormat(accumulator_bits=OVERFLOW_ACC_BITS, overflow="saturate")
    rng = random.Random(seed)

    def tensor(dims):
        size = 1
        for d in dims:
            size *= d
        return cs.SampleTensor(dims, [rng.randint(-OVERFLOW_BOUND, OVERFLOW_BOUND)
                                      for _ in range(size)], fmt)

    return tensor(p.ifmap_dims()), tensor(p.kernel_dims()), tensor(p.bias_dims())


def make_corpus(cs, seed):
    shapes = random.Random(CORPUS_SHAPE_SEED)
    cases = []
    for i in range(CORPUS_LAYERS):
        p = _corpus_shape(cs, shapes)
        cfg = cs.ChainConfig(num_pes=2 * p.k * p.k)   # two primitives
        mode = "single" if i % 10 == 9 else "dual"
        overflow = i % 10 == OVERFLOW_SLOT
        data_seed = seed * 1000 + i
        tensors = (_overflow_tensors(cs, p, data_seed) if overflow
                   else cs.synth_tensors(p, data_seed))
        cases.append(Case("l%03d" % i, p, cfg, mode, tensors, overflow=overflow))
    return cases


def make_report(cs, seed):
    """The analytic model has no data; the seed changes nothing here."""
    return {"alexnet": cs.ALEXNET.layers, "vgg16": cs.VGG16.layers}


MAKERS = {"stride1": make_stride1, "stride4": make_stride4,
          "report": make_report, "corpus": make_corpus}


# ---------------------------------------------------------------- simulator passes

def _sim_layer(cs, h, case, time_oracle):
    p, cfg = case.p, case.cfg
    plan = h.call("tiling.plan_tiling", cs.plan_tiling, p, cfg)
    run = h.call("simulator.run_layer", cs.run_layer, p, *case.tensors, cfg,
                 mode=case.mode, plan=plan)
    want = None
    if time_oracle:
        want, _ = h.call("golden.golden_convolution", cs.golden_convolution, *case.tensors, p)
    analytic = h.call("memmodel.analytic_traffic", cs.analytic_traffic, p, plan, cfg,
                      case.mode)
    simulated = h.call("memmodel.traffic_from_counters", cs.traffic_from_counters,
                       run.counters)
    rec = h.call("memmodel.reconcile", cs.reconcile, analytic, simulated)
    energy, _ = h.call("memmodel.energy_proxy", cs.energy_proxy, analytic, run.counters.macs,
                       cs.EnergyCostTable())
    return plan, run, want, analytic, simulated, rec, energy


def _mismatches(got, want) -> int:
    return sum(1 for a, b in zip(got.payload, want.payload) if a != b)


def sim_pass(cs, h, cases, time_oracle=False):
    """stride1, stride4 and corpus: one operation per layer.

    Without ``time_oracle`` the digest of each output goes to
    ``h.outputs``, to be checked against the oracle after timing; with it
    (corpus) the oracle is part of the operation.  Overflow-slice layers
    are held to reconcile and to not raising; their oracle mismatches are
    counted, not failed (see README).
    """
    stats = Counter()
    fingerprint = {}
    for case in cases:
        idx, out = h.op(case.name, _sim_layer, cs, h, case, time_oracle)
        if out is None:
            continue
        plan, run, want, analytic, simulated, rec, energy = out
        p, c = case.p, run.counters
        if time_oracle:
            bad = _mismatches(run.ofmaps, want) if run.ofmaps.dims == want.dims else -1
        else:
            bad = 0
            h.outputs[case.name] = (idx, tensor_digest(run.ofmaps))
        if case.overflow and bad >= 0:
            stats["overflow_mismatch_samples"] += bad
            stats["overflow_mismatch_layers"] += bad > 0
        elif bad:
            h.fail(idx, "%s: output differs from the oracle" % case.name)
        if not rec.passed:
            stats["reconcile_fails"] += 1
            h.fail(idx, "%s: reconcile failed\n%s" % (case.name, rec))
        useful = c.macs - c.dummy_macs
        denom = run.compute_spans * plan.chain.active_pes
        stats.update({
            "layer_macs": cs.mac_count(p),
            "phases": plan.num_phases, "pass_pairs": plan.tile_channel_pairs,
            "macs": c.macs, "dummy_macs": c.dummy_macs, "useful_macs": useful,
            "util_denominator": denom, "overflow_events": c.overflow_events,
            "cycles_load": run.cycles.kernel_load, "cycles_compute": run.cycles.compute,
            "cycles_drain": run.cycles.drain, "refeeds": run.refeed_count,
            "dram_events": analytic.dram.events, "imem_events": analytic.imem.events,
            "kmem_events": analytic.kmem.events, "omem_events": analytic.omem.events,
            "energy": energy,
            "useful_macs." + case.name: useful,
            "util_denominator." + case.name: denom,
        })
        fingerprint[case.name] = [
            run.cycles.kernel_load, run.cycles.compute, run.cycles.drain,
            c.macs, c.dummy_macs, run.refeed_count, c.overflow_events,
            simulated.dram.reads, simulated.dram.writes, simulated.imem.reads,
            simulated.imem.writes, simulated.kmem.reads, simulated.kmem.writes,
            simulated.omem.reads, simulated.omem.writes]
    return stats, fingerprint


FINGERPRINT_FIELDS = (
    "cycles_load", "cycles_compute", "cycles_drain", "macs", "dummy_macs", "refeeds",
    "overflow_events", "dram_reads", "dram_writes", "imem_reads", "imem_writes",
    "kmem_reads", "kmem_writes", "omem_reads", "omem_writes")


# ---------------------------------------------------------------- analytic model

def _model_layers(cs, h, net, layers, cfg, model):
    out = []
    for i, p in enumerate(layers, start=1):
        name = "%s.conv%d" % (net, i)
        _, lc = h.op(name, lambda p=p: h.call(
            "perf.analytic_layer_cycles", cs.perf.analytic_layer_cycles, p, cfg, model=model,
            name="conv%d" % i))
        out.append(lc)
    return out


def _report(cs, h, name, layers, cfg, batch, include_reference=True):
    _, rep = h.op(name, lambda: h.call("perf.network_report", cs.network_report, layers, cfg,
                                       batch, include_reference=include_reference))
    return rep


def alexnet_fidelity(cs, layers=None):
    """Scheduled-model AlexNet layer cycles and fps at FIDELITY_BATCHES.

    ``layers`` reuses the report workload's own model results; the other
    workloads evaluate the model here, outside any timed region."""
    cfg = cs.ChainConfig()
    if layers is None or None in layers:
        layers = [cs.perf.analytic_layer_cycles(p, cfg, model="scheduled", name="conv%d" % i)
                  for i, p in enumerate(cs.ALEXNET.layers, start=1)]
    return layers, {b: cs.network_report(layers, cfg, b).fps for b in FIDELITY_BATCHES}


def report_pass(cs, h, nets):
    """The analytic model only: per-layer cycles and network reports for
    AlexNet and VGG16 under both models, then the ideal-model sweep grid."""
    cfg = cs.ChainConfig()
    stats = Counter()
    fingerprint = {}
    published = cs.perf.PUBLISHED
    models = {}
    for net, layers in nets.items():
        for model in ("ideal", "scheduled"):
            lcs = _model_layers(cs, h, net, layers, cfg, model)
            models[net, model] = lcs
            if None in lcs:
                continue
            for b in FIDELITY_BATCHES:
                rep = _report(cs, h, "%s.%s.b%d" % (net, model, b), lcs, cfg, b)
                if rep is not None:
                    fingerprint["%s.%s.b%d" % (net, model, b)] = repr(rep.fps)
                    if model == "ideal" and net == "alexnet" and \
                            rep.fps < published["fps_batch%d" % b]:
                        h.fail(None, "ideal AlexNet fps %.1f at batch %d is below the "
                                     "published %.1f it must bound" % (
                                         rep.fps, b, published["fps_batch%d" % b]))
            fingerprint["%s.%s.layers" % (net, model)] = [
                [lc.load_cycles, lc.compute_cycles, lc.macs] for lc in lcs]
        ideal, sched = models[net, "ideal"], models[net, "scheduled"]
        if None not in ideal and None not in sched:
            for lo, hi in zip(ideal, sched):
                if lo.compute_cycles > hi.compute_cycles:
                    h.fail(None, "%s %s: ideal cycles above scheduled" % (net, lo.name))
        if net == "vgg16" and None not in sched:
            stats["vgg16.compute_cycles"] = sum(lc.compute_cycles for lc in sched)

    sweep = []
    for pes in SWEEP_PES:
        chain = cs.ChainConfig(num_pes=pes)
        for k in SWEEP_KS:
            try:
                cs.partition_chain(chain, k)
            except cs.CapacityError:
                continue   # the sweep script skips points whose primitive does not fit
            for b in SWEEP_BATCHES:
                lcs = _model_layers(cs, h, "sweep", nets["alexnet"], chain, "ideal")
                if None not in lcs:
                    rep = _report(cs, h, "sweep.p%d.k%d.b%d" % (pes, k, b), lcs, chain, b,
                                  include_reference=False)
                    sweep.append(None if rep is None else repr(rep.fps))
    fingerprint["sweep.fps"] = sweep
    return stats, fingerprint, models["alexnet", "scheduled"]
