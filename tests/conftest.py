import random
from collections import Counter

import pytest

from chainsim import DEFAULT_FORMAT, ChainConfig, LayerParams, SampleTensor
from chainsim.scheduler import build_schedule, row_groups, validate_schedule


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def rand_tensor(rng, dims, bound=500, fmt=DEFAULT_FORMAT):
    size = 1
    for d in dims:
        size *= d
    return SampleTensor(dims, [rng.randint(-bound, bound) for _ in range(size)], fmt)


def small_chain(p: LayerParams, primitives=2, kmem=256) -> ChainConfig:
    return ChainConfig(num_pes=primitives * p.k * p.k, kmem_capacity=kmem)


def random_layer(rng, k_choices=(1, 2, 3, 5), h_max=16):
    """One layer from the randomized correctness grid."""
    while True:
        k = rng.choice(k_choices)
        stride = rng.choice([1, 2])
        pad = rng.choice([0, 1])
        groups = rng.choice([1, 2])
        c = rng.choice([v for v in range(1, 5) if v % groups == 0])
        m = rng.choice([v for v in range(1, 9) if v % groups == 0])
        h_min = max(3, k - 2 * pad, stride * (k - 1) + k - 2 * pad)
        if h_min > h_max:
            continue
        h = rng.randint(h_min, h_max)
        try:
            return LayerParams.from_shape(n=1, c=c, m=m, h=h, k=k,
                                          stride=stride, pad=pad, groups=groups)
        except ValueError:
            continue


def column_counts(p: LayerParams, mode="dual", axis=1):
    """(iMemory reads, MACs) per ifmap column (axis 1) or row (axis 0) of a
    one-channel layer with one output channel, as Counters: the validated
    scan's feeds and operand table placed at each row group.  Pads count in
    neither."""
    groups = row_groups(p)
    s = build_schedule(groups[0], p, mode)
    assert validate_schedule(s, p).ok
    feeds, macs = Counter(), Counter()
    for g in groups:
        fed = [(f.a, f.b) for f in s.scan]
        used = [divmod(i, s.strip_cols) for i in s.operands]
        feeds.update(g.coordinate(*pos)[axis] for pos in fed if not g.is_pad(*pos))
        macs.update(g.coordinate(*pos)[axis] for pos in used if not g.is_pad(*pos))
    return feeds, macs
