"""Partitioning a PE chain into K*K systolic primitives."""

from __future__ import annotations

import math
from dataclasses import dataclass


class CapacityError(Exception):
    """A resource (PE count, weight store, input buffer) cannot hold the layer."""


@dataclass(frozen=True)
class ChainConfig:
    """Hardware instance parameters."""

    num_pes: int = 576
    pipeline_stages: int = 3
    clock_hz: float = 700e6
    kmem_capacity: int = 256       # stationary weights per PE
    imem_bytes: int = 32 * 1024    # input-map buffer

    def __post_init__(self):
        if self.num_pes < 1 or self.pipeline_stages < 1 or self.kmem_capacity < 1:
            raise ValueError("ChainConfig fields must be positive")
        if not (math.isfinite(self.clock_hz) and self.clock_hz > 0) or self.imem_bytes < 1:
            raise ValueError("ChainConfig fields must be positive and finite")


@dataclass(frozen=True)
class ChainMap:
    """How a chain of num_pes splits into primitives for kernel size k."""

    k: int
    num_pes: int
    pes_per_primitive: int
    active_primitives: int
    active_pes: int
    idle_pes: int
    efficiency: float


def partition_chain(cfg: ChainConfig, k: int) -> ChainMap:
    if k < 1:
        raise ValueError("k must be positive")
    per = k * k
    if per > cfg.num_pes:
        raise CapacityError(
            "kernel %dx%d needs %d PEs per primitive but the chain has %d"
            % (k, k, per, cfg.num_pes)
        )
    prims = cfg.num_pes // per
    active = prims * per
    return ChainMap(
        k=k,
        num_pes=cfg.num_pes,
        pes_per_primitive=per,
        active_primitives=prims,
        active_pes=active,
        idle_pes=cfg.num_pes - active,
        efficiency=active / cfg.num_pes,
    )
