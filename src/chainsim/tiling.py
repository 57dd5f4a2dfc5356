"""Dataflow planning: output-channel tiling and kernel-store phases.

A layer executes as a sequence of *phases*.  Within one phase every PE's
weight store holds all the (output channel, input channel) contexts the
phase needs, so kernels stream in exactly once per phase per batch.  A
phase covers as many output-channel tiles as the context budget allows,
times one resident input-channel chunk (the chunk is the whole per-group
range unless that alone overflows the store).  Each tile maps one output
channel per primitive, round-robin, with trailing primitives idle on a
short tail tile.  Every layer is planned as its polyphase decomposition
(layers.polyphase), the stride-1 layer the chain runs, so the chain is
partitioned for the sub-kernel and input channels count sub-channels.
"""

from __future__ import annotations

from dataclasses import dataclass

from .layers import LayerParams, polyphase
from .mapping import CapacityError, ChainConfig, ChainMap, partition_chain

SAMPLE_BYTES = 2   # one sample in iMemory, kMemory and DRAM


@dataclass(frozen=True)
class PhasePlan:
    """One kernel-residency period: output-channel tiles times an
    input-channel chunk.  Layers whose per-group channel count exceeds the
    weight store split the channel range too; partial sums accumulate in
    the output buffer across chunks exactly as they do across channels."""

    filter_group: int
    tiles: tuple      # tuple of tuples of output-channel indices, one per primitive
    c_range: tuple    # input channels resident during this phase

    @property
    def kernels(self) -> int:
        """The (output channel, input channel) kernels resident, each k*k
        weights streamed in once."""
        return sum(map(len, self.tiles)) * len(self.c_range)


@dataclass(frozen=True)
class LoopLevel:
    name: str
    trips: int


@dataclass(frozen=True)
class TilingPlan:
    layer: LayerParams    # the polyphase layer that runs on the chain
    chain: ChainMap
    para_tile: int
    phases: tuple  # tuple[PhasePlan]
    num_row_groups: int
    kernel_context_demand: int  # contexts/PE if the whole layer stayed resident
    loop_nest: tuple  # tuple[LoopLevel]

    @property
    def num_m_tiles(self) -> int:
        return sum(len(ph.tiles) for ph in self.phases)

    @property
    def num_phases(self) -> int:
        return len(self.phases)

    @property
    def needs_kernel_reload(self) -> bool:
        return self.num_phases > 1

    @property
    def tile_channel_pairs(self) -> int:
        """(output-channel tile, input channel) pass pairs per image."""
        return sum(len(ph.tiles) * len(ph.c_range) for ph in self.phases)


def plan_tiling(p: LayerParams, cfg: ChainConfig) -> TilingPlan:
    """Plan polyphase(p) on the chain."""
    p = polyphase(p)
    chain = partition_chain(cfg, p.k)

    strip_rows = 2 * p.k - 1
    strip_cols = p.h
    strip_bytes = strip_rows * strip_cols * SAMPLE_BYTES
    if strip_bytes > cfg.imem_bytes:
        raise CapacityError(
            "iMemory (%d B) cannot hold one %dx%d input strip of one channel (%d B); "
            "column splitting is not supported" % (cfg.imem_bytes, strip_rows, strip_cols, strip_bytes)
        )

    cg = p.c_per_group
    para_tile = min(chain.active_primitives, p.m_per_group)
    c_chunk = min(cg, cfg.kmem_capacity)
    tiles_per_phase_cap = cfg.kmem_capacity // c_chunk  # tiles one PE keeps resident

    phases = []
    demand = 0
    for g in range(p.groups):
        ms = list(range(g * p.m_per_group, (g + 1) * p.m_per_group))
        tiles = [tuple(ms[i:i + para_tile]) for i in range(0, len(ms), para_tile)]
        demand = max(demand, len(tiles) * cg)
        c_all = list(p.input_channels_of_group(g))
        for start in range(0, len(tiles), tiles_per_phase_cap):
            chunk = tuple(tiles[start:start + tiles_per_phase_cap])
            for c_lo in range(0, cg, c_chunk):
                c_range = tuple(c_all[c_lo:c_lo + c_chunk])
                phases.append(PhasePlan(filter_group=g, tiles=chunk, c_range=c_range))

    num_groups = -(-p.e // p.k)  # ceil
    plan = TilingPlan(
        layer=p,
        chain=chain,
        para_tile=para_tile,
        phases=tuple(phases),
        num_row_groups=num_groups,
        kernel_context_demand=demand,
        loop_nest=(
            LoopLevel("phase", len(phases)),
            LoopLevel("m_tile", sum(len(ph.tiles) for ph in phases)),
            LoopLevel("batch", p.n),
            LoopLevel("row_group", num_groups),
            LoopLevel("in_channel", cg),
            LoopLevel("scan", p.k * p.e),
        ),
    )
    return plan

