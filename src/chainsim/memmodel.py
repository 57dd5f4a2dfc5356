"""Closed-form memory-traffic model and reconciliation against counters.

Traffic is counted in *events* (one sample access each) of the polyphase
layer the chain runs (layers.polyphase).  The hierarchy: DRAM feeds
iMemory (each real pixel of the decimated maps once per m-tile residency;
pads cost nothing) and the per-PE weight stores (once per batch, phase by
phase, zero taps included); oMemory holds partial window sums across the
sub-channel loop.  iMemory reads follow the (2k-1)/k-per-interior-pixel
law of the column-wise scan; the per-PE weight store is read once per
(row group x sub-channel) pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction

from .layers import LayerParams, phase_rows, phase_side, phase_taps
from .mapping import ChainConfig
from .scheduler import DUAL, _bands
from .tiling import SAMPLE_BYTES, TilingPlan

ACC_BYTES = 4


@dataclass(frozen=True)
class LevelTraffic:
    reads: int = 0
    writes: int = 0
    bytes_per_event: int = SAMPLE_BYTES

    @property
    def events(self) -> int:
        return self.reads + self.writes

    @property
    def bytes(self) -> int:
        return self.events * self.bytes_per_event


@dataclass(frozen=True)
class TrafficCounters:
    dram: LevelTraffic
    imem: LevelTraffic
    kmem: LevelTraffic
    omem: LevelTraffic

    def level(self, name: str) -> LevelTraffic:
        return getattr(self, name)

    def to_csv(self) -> str:
        # the activity column stays, empty, so the CSV layout holds
        lines = ["level,reads,writes,bytes,activity"]
        for name in ("dram", "imem", "kmem", "omem"):
            lvl = self.level(name)
            lines.append("%s,%d,%d,%d," % (name, lvl.reads, lvl.writes, lvl.bytes))
        return "\n".join(lines) + "\n"


def strip_feed_counts(p: LayerParams, mode: str = DUAL) -> int:
    """Real feeds of one full sweep of all row groups and phases of one
    input channel, in closed form: per row group, phase row offset and scan
    band, the band's real strip rows (phase_rows) times each phase's real columns."""
    k, t = phase_taps(p, 0), phase_side(p)
    rows = [phase_rows(p, a) for a in range(t)]
    real = 0
    for top in range(0, p.e, k):   # each row group's first output row
        for r0, n, _ in _bands(k, p.e, mode)[0]:
            start, stop = top + r0, top + r0 + n + k - 1   # the band's strip rows
            real += sum(max(0, min(stop, ra.stop) - max(start, ra.start)) for ra in rows)
    return real * sum(map(len, rows))


def analytic_traffic(p: LayerParams, plan: TilingPlan, cfg: ChainConfig,
                     mode: str = DUAL) -> TrafficCounters:
    """Predict the event counters run_layer will report, field by field."""
    q = plan.layer
    n, cg, e, k = p.n, q.c_per_group, p.e, q.k
    kk = k * k
    num_groups = plan.num_row_groups
    t = phase_side(p)
    pairs = plan.tile_channel_pairs // (t * t)  # (m-tile, input channel) pairs

    real_feeds = strip_feed_counts(p, mode)
    imem_reads = n * pairs * real_feeds
    # filled from DRAM per residency: the real pixels of the t*t decimated maps
    imem_writes = n * pairs * sum(len(phase_rows(p, a)) for a in range(t)) ** 2

    kmem_reads = n * num_groups * cg * kk * p.m  # one weight fetch per PE per pass
    kmem_writes = p.m * cg * kk                  # every weight loaded once per batch

    omem_writes = n * cg * e * e * p.m
    omem_reads = n * (cg - 1) * e * e * p.m

    dram_reads = imem_writes + kmem_writes      # ifmap residencies + kernels
    dram_writes = n * p.m * e * e

    return TrafficCounters(
        dram=LevelTraffic(dram_reads, dram_writes),
        imem=LevelTraffic(imem_reads, imem_writes),
        kmem=LevelTraffic(kmem_reads, kmem_writes),
        omem=LevelTraffic(omem_reads, omem_writes, bytes_per_event=ACC_BYTES),
    )


def traffic_from_counters(c) -> TrafficCounters:
    return TrafficCounters(
        dram=LevelTraffic(c.dram_ifmap_reads + c.dram_kernel_reads, c.dram_ofmap_writes),
        imem=LevelTraffic(c.imem_reads, c.dram_ifmap_reads),
        kmem=LevelTraffic(c.kmem_reads, c.kmem_writes),
        omem=LevelTraffic(c.omem_reads, c.omem_writes, bytes_per_event=ACC_BYTES),
    )


def kmem_activity(k: int, e: int) -> Fraction:
    """Weight-store read duty during compute: one fetch per k*e output cycles."""
    if k < 1 or e < 1:
        raise ValueError("k and e must be positive")
    return Fraction(1, k * e)


def ifmap_reuse_factor(k: int) -> tuple[Fraction, int]:
    """(MAC events per SRAM feed on interior strips, MACs per distinct pixel)."""
    if k < 1:
        raise ValueError("k must be positive")
    return Fraction(k ** 3, 2 * k - 1), k * k


@dataclass(frozen=True)
class EnergyCostTable:
    """Relative energy units per access event; no process-node fidelity."""

    mac: float = 1.0
    kmem: float = 1.0
    imem: float = 6.0
    omem: float = 6.0
    dram: float = 200.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError("energy cost %s must be finite and non-negative" % f.name)


def energy_proxy(traffic: TrafficCounters, mac_events: int,
                 table: EnergyCostTable) -> tuple[float, dict]:
    """Weighted event sum.  Returns (total, per-component share dict)."""
    parts = {
        "mac": mac_events * table.mac,
        "kmem": traffic.kmem.events * table.kmem,
        "imem": traffic.imem.events * table.imem,
        "omem": traffic.omem.events * table.omem,
        "dram": traffic.dram.events * table.dram,
    }
    total = sum(parts.values())
    if total > 0:
        shares = {k: v / total for k, v in parts.items()}
    else:
        shares = {k: 0.0 for k in parts}
    return total, shares


@dataclass(frozen=True)
class ReconcileReport:
    passed: bool
    diffs: tuple  # (field, analytic, simulated, abs diff, rel diff)

    def __str__(self):
        lines = ["reconcile: %s" % ("PASS" if self.passed else "FAIL")]
        for f, a, s, d, r in self.diffs:
            mark = "" if d == 0 else "  <-- mismatch"
            lines.append("  %-12s analytic=%-12d simulated=%-12d diff=%d (%.4f)%s"
                         % (f, a, s, d, r, mark))
        return "\n".join(lines)


def reconcile(analytic: TrafficCounters, simulated: TrafficCounters) -> ReconcileReport:
    """Exact-equality check of analytic predictions against counted events."""
    diffs = []
    ok = True
    for level in ("imem", "kmem", "omem", "dram"):
        for kind in ("reads", "writes"):
            a = getattr(analytic.level(level), kind)
            s = getattr(simulated.level(level), kind)
            d = abs(a - s)
            rel = d / a if a else (0.0 if d == 0 else float("inf"))
            if d:
                ok = False
            diffs.append(("%s.%s" % (level, kind), a, s, d, rel))
    return ReconcileReport(passed=ok, diffs=tuple(diffs))
