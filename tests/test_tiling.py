import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsim import CapacityError, ChainConfig, LayerParams, plan_tiling
from chainsim.layers import polyphase
from chainsim.presets import ALEXNET, VGG16

CHAIN576 = ChainConfig(num_pes=576)


def test_conv3_shape_subtiles_on_weight_store_overflow():
    # c=256, m=384, k=3: 64 primitives, 6 output-channel tiles, and the
    # 6*256 = 1536 contexts per PE overflow the 256-entry store, forcing
    # one reload phase per tile.
    p = LayerParams.from_shape(n=1, c=256, m=384, h=13, k=3, pad=1)
    plan = plan_tiling(p, CHAIN576)
    assert plan.para_tile == 64
    assert plan.num_m_tiles == 6
    assert plan.kernel_context_demand == 6 * 256
    assert plan.needs_kernel_reload
    assert plan.num_phases == 6
    assert all(len(ph.tiles) * len(ph.c_range) <= CHAIN576.kmem_capacity for ph in plan.phases)


def test_smallest_layer_plan():
    p = LayerParams.from_shape(n=1, c=1, m=1, h=5, k=3)
    plan = plan_tiling(p, ChainConfig(num_pes=9))
    assert plan.para_tile == 1
    assert plan.num_m_tiles == 1
    assert plan.kernel_context_demand == 1
    assert not plan.needs_kernel_reload


def test_grouped_layer_tiles_within_filter_groups():
    p = LayerParams.from_shape(n=1, c=4, m=6, h=6, k=3, groups=2)
    plan = plan_tiling(p, ChainConfig(num_pes=18))  # 2 primitives
    assert plan.para_tile == 2
    # 3 output channels per filter group over 2 primitives -> 2 tiles each
    assert plan.num_m_tiles == 4
    for ph in plan.phases:
        for tile in ph.tiles:
            groups = {m // p.m_per_group for m in tile}
            assert groups == {ph.filter_group}


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_loop_nest_is_a_bijection_onto_the_layer(seed):
    from conftest import random_layer
    r = random.Random(seed)
    p = random_layer(r, h_max=9)
    plan = plan_tiling(p, ChainConfig(num_pes=2 * p.k * p.k, kmem_capacity=16))
    # the plan walks the polyphase layer: sub-channels, sub-kernel row groups
    q = polyphase(p)
    assert plan.layer == q
    assert _pass_pairs(plan) == Counter(
        {(m, c): 1 for m in range(q.m)
         for c in q.input_channels_of_group(q.filter_group_of(m))})
    _assert_row_groups_cover(plan)


def _pass_pairs(plan):
    """How often each (m, c) pair lies in a (residency phase, tile) with c
    resident in that phase."""
    return Counter((m, c) for ph in plan.phases for tile in ph.tiles
                   for m in tile for c in ph.c_range)


def _assert_row_groups_cover(plan):
    """Every output row lies in a row group, and no group is all dummy rows."""
    q = plan.layer
    assert (plan.num_row_groups - 1) * q.k < q.e <= plan.num_row_groups * q.k


def test_alexnet_total_streamed_weights():
    total = 0
    shapes = [(3, 96, 227, 11, 4, 0, 1), (96, 256, 27, 5, 1, 2, 2),
              (256, 384, 13, 3, 1, 1, 1), (384, 384, 13, 3, 1, 1, 2),
              (384, 256, 13, 3, 1, 1, 2)]
    for c, m, h, k, stride, pad, groups in shapes:
        p = LayerParams.from_shape(n=1, c=c, m=m, h=h, k=k, stride=stride,
                                   pad=pad, groups=groups)
        plan_tiling(p, CHAIN576)  # must plan without capacity errors
        total += m * p.c_per_group * k * k
    assert total == 2_332_704


def test_strip_too_large_for_imem_is_rejected():
    p = LayerParams.from_shape(n=1, c=1, m=1, h=64, k=3)
    with pytest.raises(CapacityError):
        plan_tiling(p, ChainConfig(num_pes=9, imem_bytes=256))


def test_channel_range_splits_when_one_context_set_overflows_kmem():
    # 8 input channels against a 4-entry weight store: the channel range
    # splits into resident chunks with a kernel reload between them
    p = LayerParams.from_shape(n=1, c=8, m=1, h=5, k=3)
    plan = plan_tiling(p, ChainConfig(num_pes=9, kmem_capacity=4))
    assert plan.num_phases == 2
    assert [len(ph.c_range) for ph in plan.phases] == [4, 4]
    assert all(len(ph.tiles) * len(ph.c_range) <= 4 for ph in plan.phases)
    assert _pass_pairs(plan) == Counter({(0, c): 1 for c in range(p.c)})
    _assert_row_groups_cover(plan)


def test_vgg16_deep_layers_plan_with_channel_chunks():
    p = VGG16.layers[-1]  # 512 channels exceed the 256-entry weight store
    plan = plan_tiling(p, CHAIN576)
    assert plan.num_phases > p.m // plan.para_tile
    assert all(len(ph.tiles) * len(ph.c_range) <= 256 for ph in plan.phases)
    covered = set()
    for ph in plan.phases:
        for c in ph.c_range:
            for tile in ph.tiles:
                covered.update((m, c) for m in tile)
    assert len(covered) == p.m * p.c_per_group


@pytest.mark.parametrize("p, cfg", [
    *(pytest.param(p, CHAIN576, id="%s-%d" % (net.name, i))
      for net in (ALEXNET, VGG16) for i, p in enumerate(net.layers, start=1)),
    # grouped, with a 4-context weight store that splits the tiles into phases
    pytest.param(LayerParams.from_shape(n=1, c=4, m=6, h=6, k=3, groups=2),
                 ChainConfig(num_pes=18, kmem_capacity=4), id="grouped-kmem4"),
    # a channel range split across phases, with a short tail tile
    pytest.param(LayerParams.from_shape(n=1, c=8, m=5, h=5, k=3),
                 ChainConfig(num_pes=18, kmem_capacity=4), id="channel-split-kmem4"),
    # conv1's geometry, its 16 phases per input channel split unevenly
    pytest.param(LayerParams.from_shape(n=1, c=2, m=7, h=23, k=11, stride=4),
                 ChainConfig(num_pes=27, kmem_capacity=5), id="stride4-kmem5"),
])
def test_every_tile_is_a_run_of_output_channels_in_its_group(p, cfg):
    # the simulator reads one tap's weights across a tile as one strided
    # slice of the kernel payload, which holds output channels in order
    plan = plan_tiling(p, cfg)
    for ph in plan.phases:
        group = range(ph.filter_group * p.m_per_group, (ph.filter_group + 1) * p.m_per_group)
        for tile in ph.tiles:
            assert tile == tuple(range(tile[0], tile[0] + len(tile)))
            assert tile[0] in group and tile[-1] in group
