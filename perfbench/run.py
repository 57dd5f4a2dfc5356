#!/usr/bin/env python3
"""chainsim benchmark: host speed and model fidelity over four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload stride1 --seed 0 --seconds 10 --trace 0

One process, one thread.  Set-up (importing chainsim and building the
inputs from the seed) is repeated; ``setup_s`` is its median.  Passes of
the workload then repeat until ``--seconds`` have gone by (and at least
MIN_PASSES); each pass runs every operation once and checks it, and every
pass is counted.  ``wall_s`` is the median pass.  Both are read on the
reference clock (see RefClock): a timer signal runs a fixed pure-Python
kernel every few milliseconds, and each timed interval is scaled by how
fast that kernel ran inside it, so a host that slows down for a while
does not move them.  The summary line keeps the host seconds.  The last
line of stdout is one JSON object: with ``--trace 0`` it holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics, taken from
traced passes that alternate with untraced ones.  Earlier lines give the
run record, the modelled-statistics fingerprint and a summary.

``--record-oracle`` runs the oracle on the stride1/stride4 inputs of the
seed and stores the digests of its outputs in oracle.json; runs whose
inputs match a stored digest compare against it instead of re-running
the oracle.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import signal
import statistics
import sys
import traceback
import weakref
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import workloads as W

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ORACLE_FILE = BENCH / "oracle.json"
OUT_DIR = BENCH / "out"

WORKLOADS = ("stride1", "stride4", "report", "corpus")
SETUPS = 5            # set-ups before the first pass; one more precedes every pass
MIN_PASSES = 2        # the fewest passes a run makes, so passes can be compared
# The reference clock.  REF_UNIT_S is the nominal time of one ref_unit():
# a timed interval is reported as the seconds it would take on a host that
# runs one unit in exactly that time.
REF_UNIT_S = 0.0004
REF_PERIOD_S = 0.004  # one ref_unit() is run every this many seconds while timing
SEGMENT_UNITS = 25    # operations are scaled in segments holding this many units
HELD_OUT_SEED = 7     # a second seed on which claims must also hold
# Public calls that run another layer inside them; traced passes time that
# layer's public functions again on the same inputs.
RETIMED = ("simulator.run_layer", "memmodel.analytic_traffic", "perf.analytic_layer_cycles")
ALEXNET_CONVS = ("conv1", "conv2", "conv3", "conv4", "conv5")
RUN_STATE = ("every layer starts with empty kMemory, iMemory and oMemory; kernel-load "
             "cycles are counted; no warm-up pass is discarded")


_REF_ROW = tuple(range(64))
_REF_TABLE = {}


def ref_unit():
    """A fixed slice of pure-Python work like the package's inner loops:
    integer arithmetic, tuple indexing, dict updates and calls.  It creates
    no container objects, so it does not move the garbage collector."""
    row, table = _REF_ROW, _REF_TABLE
    table.clear()
    acc = 0
    for i in range(2000):
        j = i & 63
        v = row[j] * 3 + (i >> 2)
        table[j] = table.get(j, 0) + v
        acc += abs(v - row[63 - j])
    return acc + len(table)


class RefClock:
    """Converts host seconds to reference seconds.

    A shared host runs the same code at speeds up to 1.8x apart, switching
    within seconds.  While the clock runs, a SIGALRM timer interrupts the
    benchmark every REF_PERIOD_S and runs one ref_unit() in the handler, so
    reference samples are spread through every timed interval.  For an
    interval, ``host`` is its seconds minus those spent in the handler and
    in cyclic garbage collections, and its scale is REF_UNIT_S over the mean
    unit time inside it.

    Collections are timed apart (``gc_s``) because their time depends on
    the heap's layout and on memory speed, which ref_unit() does not track:
    on stride4 they are a third of the host time and most of its spread."""

    def __init__(self):
        self.units = 0
        self.unit_s = 0.0      # seconds spent in ref_unit()
        self.paused_s = 0.0    # seconds spent in the handler, ref_unit() included
        self.gc_s = 0.0        # seconds spent in cyclic garbage collections
        self.collections = 0
        self._busy = False     # in the handler or in a collection
        self._gc_from = None

    def _tick(self, signum, frame):
        if self._busy:         # a signal that arrives inside the handler is dropped
            return
        self._busy = True
        t0 = perf_counter()
        ref_unit()
        t1 = perf_counter()
        self.units += 1
        self.unit_s += t1 - t0
        self.paused_s += perf_counter() - t0
        self._busy = False

    def _gc(self, phase, info):
        if phase == "start":
            if not self._busy:
                self._busy = True
                self._gc_from = perf_counter()
        elif self._gc_from is not None:
            self.gc_s += perf_counter() - self._gc_from
            self.collections += 1
            self._gc_from = None
            self._busy = False

    @contextlib.contextmanager
    def running(self):
        gc.callbacks.append(self._gc)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            gc.callbacks.remove(self._gc)

    def read(self):
        return (perf_counter(), self.paused_s + self.gc_s, self.units, self.unit_s, self.gc_s,
                self.collections)

    def since(self, mark):
        """(host seconds, units, unit seconds, collection seconds, collections)
        since ``mark = self.read()``."""
        now = self.read()
        return (now[0] - mark[0] - (now[1] - mark[1]),) + tuple(
            b - a for a, b in zip(mark[2:], now[2:]))

    def scale(self, units, unit_s):
        """Reference seconds per host second, from the units run in an
        interval; an interval without any takes the run's mean so far."""
        if not units:
            units, unit_s = self.units, self.unit_s
        return REF_UNIT_S * units / unit_s if units else 1.0


class Span:
    """One timed public call.  A derived span times an inner layer again
    after the pass, outside its wall time; ``parent`` is a span index."""

    __slots__ = ("name", "start", "end", "parent", "layer", "derived", "took")

    def __init__(self, name, start, end, parent, layer, derived=False, took=None):
        self.name, self.start, self.end = name, start, end
        self.parent, self.layer, self.derived = parent, layer, derived
        self.took = took      # host seconds, the clock's handler and collections left out


class Pass:
    """One pass: times operations into ``wall`` (host seconds) and ``ref``
    (reference seconds), counts attempts and failures, and in a traced pass
    records a Span around each public call.  All times leave out the
    reference clock's handler and garbage collections."""

    def __init__(self, traced: bool, clock: RefClock):
        self.traced = traced
        self.clock = clock
        self.wall = 0.0
        self.ref = 0.0
        self.gc_s = 0.0            # host seconds of collections inside operations
        self.collections = 0
        self._segment = [0.0, 0, 0.0]   # host seconds, units, unit seconds not yet scaled
        self.attempted = 0
        self.failed = {}
        self.call_s = Counter()    # host seconds per public call
        self.spans = []
        self.retimed_args = {}
        self.outputs = {}          # stride1/stride4: layer -> (operation index, output digest)
        self.stats = self.fingerprint = self.alexnet = None   # set by run_pass
        self.inner = Counter()     # traced: tiling and scheduler counts from retime_inner
        self._stack = []           # (span index, clock mark) of the open spans
        self._layer = None

    def _open(self, name, mark):
        sid = len(self.spans)
        self.spans.append(Span(name, mark[0], None, self._stack[-1][0] if self._stack else None,
                               self._layer))
        self._stack.append((sid, mark))
        return sid

    def _close(self):
        sid, mark = self._stack.pop()
        span = self.spans[sid]
        span.took = self.clock.since(mark)[0]
        span.end = perf_counter()

    def op(self, layer, fn, /, *args):
        """Run one operation.  Returns (index, result or None if it raised)."""
        idx = self.attempted
        self.attempted += 1
        self._layer = layer
        mark = self.clock.read()
        if self.traced:
            self._open("bench.op", mark)
        try:
            out = fn(*args)
        except Exception as exc:  # a failed operation is counted, the run goes on
            out = None
            self.failed[idx] = "%s: %s: %s" % (layer, type(exc).__name__, exc)
        finally:
            if self.traced:
                self._close()
        took = self.clock.since(mark)
        self.wall += took[0]
        self.gc_s += took[3]
        self.collections += took[4]
        seg = self._segment
        for i in range(3):
            seg[i] += took[i]
        if seg[1] >= SEGMENT_UNITS:
            self.close_segment()
        return idx, out

    def close_segment(self):
        """Scale the operations since the last segment by the reference
        units run among them.  A pass's last segment may hold fewer units
        than SEGMENT_UNITS."""
        host, units, unit_s = self._segment
        if host:
            self.ref += host * self.clock.scale(units, unit_s)
        self._segment = [0.0, 0, 0.0]

    @property
    def scale(self):
        """Reference seconds per host second, over the pass."""
        return self.ref / self.wall if self.wall else 1.0

    def fail(self, idx, reason):
        self.failed.setdefault(reason if idx is None else idx, reason)

    def call(self, name, fn, /, *args, **kw):
        mark = self.clock.read()
        if not self.traced:
            out = fn(*args, **kw)
        else:
            sid = self._open(name, mark)
            if name in RETIMED:
                self.retimed_args[sid] = (args, kw)
            try:
                out = fn(*args, **kw)
            finally:
                self._close()
        self.call_s[name] += self.clock.since(mark)[0]
        return out

    def derived(self, parent, name, fn, /, *args):
        mark = self.clock.read()
        out = fn(*args)
        self.spans.append(Span(name, mark[0], perf_counter(), parent, self.spans[parent].layer,
                               True, self.clock.since(mark)[0]))
        return out

    def total(self, name, derived=False):
        return sum(s.took for s in self.spans if s.name == name and s.derived == derived)


# ---------------------------------------------------------------- set-up

def drop_chainsim():
    for name in [m for m in sys.modules if m == "chainsim" or m.startswith("chainsim.")]:
        del sys.modules[name]


def import_chainsim():
    drop_chainsim()
    return importlib.import_module("chainsim")


class Setup:
    """Set-up timings: a fresh import of chainsim plus building the inputs.

    Set-up is repeated before and between passes, so its samples spread
    over the run like the passes do; ``setup_s`` is their median in
    reference seconds.  ``raw`` keeps the host seconds."""

    def __init__(self, workload, seed, clock):
        self.workload, self.seed, self.clock = workload, seed, clock
        self.totals, self.builds, self.raw = [], [], []

    def once(self):
        gc.collect()   # frees the previous module generation before timing
        mark = self.clock.read()
        cs = import_chainsim()
        imported = self.clock.since(mark)[0]
        inputs = W.MAKERS[self.workload](cs, self.seed)
        host, units, unit_s, _, _ = self.clock.since(mark)
        scale = self.clock.scale(units, unit_s)
        self.raw.append(host)
        self.totals.append(host * scale)
        self.builds.append((host - imported) * scale)
        return cs, inputs


def load_oracle_table():
    if ORACLE_FILE.exists():
        return json.loads(ORACLE_FILE.read_text())
    return {}


def check_outputs(cs, cases, passes):
    """Check the stride1/stride4 outputs of every pass against the oracle's:
    a recorded output digest where the inputs match one, else a fresh
    golden_convolution run.  It runs after timing, so the process state
    that timing starts from does not depend on the seed.  Returns the
    number of oracle runs."""
    table = load_oracle_table()
    ran = 0
    for case in cases:
        digest = table.get(W.case_key(case))
        if digest is None:
            want, _ = cs.golden_convolution(*case.tensors, case.p)
            digest = W.tensor_digest(want)
            ran += 1
        for h in passes:
            if case.name in h.outputs:
                idx, got = h.outputs[case.name]
                if got != digest:
                    h.fail(idx, "%s: output differs from the oracle" % case.name)
    return ran


def record_oracle(cs, workload, cases):
    table = load_oracle_table()
    for case in cases:
        want, _ = cs.golden_convolution(*case.tensors, case.p)
        table[W.case_key(case)] = W.tensor_digest(want)
        print("recorded %s %s" % (workload, case.name))
    ORACLE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------- passes

def retime_inner(cs, h):
    """Time the layers that RETIMED calls run inside themselves, as derived
    spans under the parent.  This mirrors what the package calls today.
    Returns the tiling and scheduler counters of what they build."""
    counts = Counter()
    live = []      # weak references: a schedule served from a cache comes back alive
    seen = set()

    def rebuild(sid, layer, g, p, mode, validate):
        s = h.derived(sid, "scheduler.build_schedule", cs.build_schedule, g, p, mode)
        if not any(ref() is s for ref in live):
            counts["schedules_built"] += 1
            live.append(weakref.ref(s))
        if validate:
            h.derived(sid, "scheduler.validate_schedule", cs.validate_schedule, s, p)
        if (layer, g.index, mode) not in seen:   # each distinct schedule counted once
            seen.add((layer, g.index, mode))
            counts.update(feed_slots=s.feed_count, real_feeds=s.real_feed_count,
                          refeeds=s.refeed_count, span_cycles=s.span_cycles,
                          distinct_pixels=len({(f.row, f.col) for f in s.feeds
                                               if not f.is_pad}))

    for sid, (args, kw) in list(h.retimed_args.items()):
        name, layer = h.spans[sid].name, h.spans[sid].layer
        if name == "simulator.run_layer":
            p, mode, validate = args[0], kw.get("mode", "dual"), True
        elif name == "memmodel.analytic_traffic":
            p, mode, validate = args[0], args[3], False
            if p.stride == 1:
                continue   # closed form; strides above 1 replay the schedule builder
        else:
            p, mode, validate = args[0], "dual", False
            plan = h.derived(sid, "tiling.plan_tiling", cs.plan_tiling, p, args[1])
            if kw.get("model") != "scheduled":
                continue
            counts.update(phases=plan.num_phases, pass_pairs=plan.tile_channel_pairs)
        for g in cs.row_groups(p):
            rebuild(sid, layer, g, p, mode, validate)
    return counts


def run_pass(cs, workload, inputs, traced, clock):
    h = Pass(traced, clock)
    if workload == "report":
        h.stats, h.fingerprint, h.alexnet = W.report_pass(cs, h, inputs)
    else:
        h.stats, h.fingerprint = W.sim_pass(cs, h, inputs, time_oracle=workload == "corpus")
    h.close_segment()
    if traced:
        h.inner = retime_inner(cs, h)
    return h


def measure(cs, workload, inputs, seconds, trace, setup):
    """Passes until `seconds` have gone by and at least MIN_PASSES were made
    (traced runs alternate untraced and traced passes, at least MIN_PASSES
    of each), each after one more timed set-up whose module and inputs are
    discarded.  Every pass counts."""
    passes = []
    least = MIN_PASSES * (2 if trace else 1)
    start = perf_counter()
    while len(passes) < least or perf_counter() - start < seconds:
        setup.once()
        drop_chainsim()   # the passes keep using `cs`; the new generation is garbage
        gc.collect()
        passes.append(run_pass(cs, workload, inputs, trace and len(passes) % 2 == 1,
                               setup.clock))
    for h in passes[1:]:
        if h.fingerprint != passes[0].fingerprint:
            h.fail(None, "modelled statistics differ from the first pass")
    return passes


# ---------------------------------------------------------------- metrics

def fingerprint_digest(fingerprint) -> str:
    return hashlib.sha256(json.dumps(fingerprint, sort_keys=True).encode()).hexdigest()


def fingerprint_summary(workload, fingerprint):
    if workload == "report":
        return {k: v for k, v in fingerprint.items() if k != "sweep.fps"}
    sums = [sum(col) for col in zip(*fingerprint.values())]
    return dict(zip(W.FINGERPRINT_FIELDS, sums))


def self_shares(h):
    """Self time of each module as a share of the pass's wall time.  The
    self time of a parent with derived children is itself derived."""
    child = defaultdict(float)
    for s in h.spans:
        if s.parent is not None:
            child[s.parent] += s.took
    selfs = Counter()
    for sid, s in enumerate(h.spans):
        selfs[s.name.split(".")[0]] += s.took - (0.0 if s.derived else child[sid])
    selfs["gc"] = h.gc_s
    return {k: round(v / h.wall, 4) for k, v in sorted(selfs.items())}


def per_layer(passes, fid_layers, fps, synth_s):
    traced = [h for h in passes if h.traced]
    plain = [h for h in passes if not h.traced]
    stats, sched = passes[0].stats, traced[0].inner

    def med(fn):
        """Median over the traced passes, in reference seconds."""
        return statistics.median(fn(h) * h.scale for h in traced)

    def by_layer(h, name, layer):
        return sum(s.took for s in h.spans
                   if s.name == name and s.layer == layer and not s.derived)

    def replay(h):
        runs = {sid for sid, s in enumerate(h.spans) if s.name == "simulator.run_layer"}
        inner = sum(s.took for s in h.spans if s.derived and s.parent in runs)
        return h.total("simulator.run_layer") - inner

    def ratio(a, b):
        return a / b if b else 0.0

    run_s = med(lambda h: h.total("simulator.run_layer"))
    golden_s = med(lambda h: h.total("golden.golden_convolution"))
    m = {
        "presets.synth_s": synth_s,
        "tiling.plan_s": med(lambda h: h.total("tiling.plan_tiling")
                             + h.total("tiling.plan_tiling", derived=True)),
        "tiling.phases": stats["phases"] + sched["phases"],
        "tiling.pass_pairs": stats["pass_pairs"] + sched["pass_pairs"],
        "scheduler.build_s": med(lambda h: h.total("scheduler.build_schedule", True)),
        "scheduler.validate_s": med(lambda h: h.total("scheduler.validate_schedule", True)),
        "scheduler.schedules_built": sched["schedules_built"],
        "scheduler.feed_slots": sched["feed_slots"],
        "scheduler.real_feeds": sched["real_feeds"],
        "scheduler.refeeds": sched["refeeds"],
        "scheduler.feed_useful_ratio": ratio(sched["distinct_pixels"], sched["real_feeds"]),
        "scheduler.span_cycles": sched["span_cycles"],
        "simulator.run_s": run_s,
        "simulator.replay_s": med(replay),
        "simulator.macs_per_s": ratio(stats["layer_macs"], run_s),
        "simulator.macs": stats["macs"],
        "simulator.dummy_macs": stats["dummy_macs"],
        "simulator.useful_mac_ratio": ratio(stats["useful_macs"], stats["macs"]),
        "simulator.cycles_load": stats["cycles_load"],
        "simulator.cycles_compute": stats["cycles_compute"],
        "simulator.cycles_drain": stats["cycles_drain"],
        "simulator.temporal_util": ratio(stats["useful_macs"], stats["util_denominator"]),
        "simulator.overflow_events": stats["overflow_events"],
        "simulator.overflow_mismatch_layers": stats["overflow_mismatch_layers"],
        "simulator.overflow_mismatch_samples": stats["overflow_mismatch_samples"],
    }
    for conv in ALEXNET_CONVS:
        m["simulator.%s.run_s" % conv] = med(
            lambda h: by_layer(h, "simulator.run_layer", conv))
        m["simulator.%s.temporal_util" % conv] = ratio(
            stats["useful_macs." + conv], stats["util_denominator." + conv])
    m.update({
        "gc.collect_s": statistics.median(h.gc_s for h in traced),
        "gc.collections": statistics.median(h.collections for h in traced),
        "golden.run_s": golden_s,
        "golden.macs_per_s": ratio(stats["layer_macs"], golden_s),
        "memmodel.analytic_s": med(lambda h: h.total("memmodel.analytic_traffic")),
        "memmodel.reconcile_fails": stats["reconcile_fails"],
        "memmodel.dram_events": stats["dram_events"],
        "memmodel.imem_events": stats["imem_events"],
        "memmodel.kmem_events": stats["kmem_events"],
        "memmodel.omem_events": stats["omem_events"],
        "memmodel.energy": stats["energy"],
        "perf.layer_cycles_s": med(lambda h: h.total("perf.analytic_layer_cycles")),
        "perf.report_s": med(lambda h: h.total("perf.network_report")),
    })
    for conv, lc in zip(ALEXNET_CONVS, fid_layers):
        m["perf.alexnet.%s.load_cycles" % conv] = lc.load_cycles
        m["perf.alexnet.%s.compute_cycles" % conv] = lc.compute_cycles
    m["perf.vgg16.compute_cycles"] = stats["vgg16.compute_cycles"]
    m["perf.alexnet.fps_b128"] = fps[128]
    m["perf.alexnet.fps_b4"] = fps[4]
    m["trace.overhead_s"] = (statistics.median(h.ref for h in traced)
                             - statistics.median(h.ref for h in plain))
    return m


# ---------------------------------------------------------------- run record

def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def numpy_version():
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return None


def rss_bytes():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


# ---------------------------------------------------------------- main

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-oracle", action="store_true",
                    help="store oracle output digests for this seed (stride1, stride4)")
    args = ap.parse_args(argv)

    if not (SRC / "chainsim" / "__init__.py").is_file():
        print("perfbench: %s/chainsim not found; run from a chainsim checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    rss_bare = rss_bytes()
    clock = RefClock()
    setup = Setup(args.workload, args.seed, clock)
    with clock.running():
        for _ in range(SETUPS):
            cs, inputs = setup.once()
    if args.record_oracle:
        if args.workload not in ("stride1", "stride4"):
            ap.error("--record-oracle applies to stride1 and stride4")
        record_oracle(cs, args.workload, inputs)
        return 0

    gc.collect()
    rss_setup = rss_bytes()
    with clock.running():
        passes = measure(cs, args.workload, inputs, args.seconds, args.trace, setup)
    setup_s, synth_s = statistics.median(setup.totals), statistics.median(setup.builds)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    oracle_runs = 0
    if args.workload in ("stride1", "stride4"):
        t0 = perf_counter()
        oracle_runs = check_outputs(cs, inputs, passes)
        oracle_prep_s = perf_counter() - t0
    fid_layers, fps = W.alexnet_fidelity(cs, passes[0].alexnet)

    attempted = sum(h.attempted for h in passes)
    failures = [r for h in passes for r in h.failed.values()]
    stats, fingerprint = passes[0].stats, passes[0].fingerprint
    published = cs.perf.PUBLISHED
    plain = [h for h in passes if not h.traced]

    record = {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace, "seconds": args.seconds, "passes": len(passes),
        "setups": len(setup.totals), "nproc": os.cpu_count(), "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": numpy_version(),
        "git_sha": git_sha(), "state": RUN_STATE,
        "published": {"fps_batch128": published["fps_batch128"],
                      "fps_batch4": published["fps_batch4"]},
        "oracle": ("in the timed operations" if args.workload == "corpus" else
                   "none" if args.workload == "report" else
                   "%d of %d layers run after timing (%.2f s), the rest checked against "
                   "recorded digests" % (oracle_runs, len(inputs), oracle_prep_s)),
    }
    print("run-record " + json.dumps(record, sort_keys=True))
    print("fingerprint " + json.dumps({"sha256": fingerprint_digest(fingerprint),
                                       "totals": fingerprint_summary(args.workload,
                                                                     fingerprint)},
                                      sort_keys=True))
    fps_err = {b: abs(fps[b] - published["fps_batch%d" % b]) / published["fps_batch%d" % b]
               for b in W.FIDELITY_BATCHES}
    summary = {
        "setup_s": setup_s, "wall_s": statistics.median(h.ref for h in plain),
        "raw_setup_s": statistics.median(setup.raw),
        "raw_wall_s": statistics.median(h.wall for h in plain),
        "pass_walls": [h.wall for h in plain], "pass_refs": [h.ref for h in plain],
        "gc_s": statistics.median(h.gc_s for h in plain),
        "peak_rss_mb": (peak - rss_bare) / 1e6,
        "work_rss_mb": (peak - rss_setup) / 1e6,
        "fail_frac": len(failures) / attempted, "attempted": attempted,
        "failed": len(failures), "fps_err_b128": fps_err[128], "fps_err_b4": fps_err[4],
        "overflow_mismatch_layers": stats["overflow_mismatch_layers"],
        "overflow_mismatch_samples": stats["overflow_mismatch_samples"],
    }
    for key, call in (("sim_macs_per_s", "simulator.run_layer"),
                      ("oracle_macs_per_s", "golden.golden_convolution")):
        if plain[0].call_s[call]:
            summary[key] = statistics.median(stats["layer_macs"] / (h.call_s[call] * h.scale)
                                             for h in plain)
    print("summary " + json.dumps(summary, sort_keys=True))
    for reason in failures[:5]:
        print("FAILED " + reason, file=sys.stderr)

    if args.trace:
        values = per_layer(passes, fid_layers, fps, synth_s)
        print("shares " + json.dumps(self_shares(next(h for h in passes if h.traced)),
                                     sort_keys=True))
        write_trace(args, passes)
    else:
        values = {"setup_s": setup_s, "wall_s": summary["wall_s"],
                  "peak_rss_mb": summary["peak_rss_mb"], "pass_frac": 1 - summary["fail_frac"],
                  "fps_err_b128": fps_err[128], "fps_err_b4": fps_err[4]}
    # BENCHMARK.json names the metrics and their units; a name missing here raises.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def write_trace(args, passes):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / ("trace-%s-seed%d.jsonl" % (args.workload, args.seed))
    origin = min(h.spans[0].start for h in passes if h.spans)
    with open(path, "w") as fh:
        for n, h in enumerate(passes):
            for sid, s in enumerate(h.spans):
                fh.write(json.dumps({"pass": n, "id": sid, "name": s.name,
                                     "start": s.start - origin, "end": s.end - origin,
                                     "parent": s.parent, "workload": args.workload,
                                     "layer": s.layer, "derived": s.derived}) + "\n")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
