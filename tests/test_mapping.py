import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainsim import CapacityError, ChainConfig, partition_chain

CHAIN576 = ChainConfig(num_pes=576)

# published 576-PE table; the 9x9 row is printed as 100% but 567/576 is 98.4%
TABLE_ROWS = {
    3: (64, 576, 1.0),
    5: (23, 575, 575 / 576),
    7: (11, 539, 539 / 576),
    11: (4, 484, 484 / 576),
}


@pytest.mark.parametrize("k,row", sorted(TABLE_ROWS.items()))
def test_published_active_pe_rows(k, row):
    cm = partition_chain(CHAIN576, k)
    prims, active, eff = row
    assert cm.active_primitives == prims
    assert cm.active_pes == active
    assert abs(cm.efficiency - eff) < 1e-3


def test_9x9_row_derived_not_printed():
    cm = partition_chain(CHAIN576, 9)
    assert (cm.active_primitives, cm.active_pes) == (7, 567)
    assert abs(cm.efficiency - 0.984375) < 1e-9
    assert cm.efficiency != 1.0  # the published table prints 100% here


def test_exact_fit_single_primitive():
    cm = partition_chain(ChainConfig(num_pes=9), 3)
    assert cm.active_primitives == 1 and cm.efficiency == 1.0


def test_577_pes_floor_division():
    cm = partition_chain(ChainConfig(num_pes=577), 3)
    assert (cm.active_primitives, cm.active_pes) == (64, 576)
    assert abs(cm.efficiency - 576 / 577) < 1e-9


def test_oversized_kernel_is_capacity_error():
    with pytest.raises(CapacityError):
        partition_chain(ChainConfig(num_pes=100), 11)


def test_utilization_table_matches_partition():
    rows = [partition_chain(CHAIN576, k) for k in [3, 5, 7, 9, 11]]
    assert [r.active_pes for r in rows] == [576, 575, 539, 567, 484]


def test_mainstream_kernels_stay_above_84_percent():
    for cm in (partition_chain(CHAIN576, k) for k in [3, 5, 7, 9, 11]):
        assert cm.efficiency >= 0.84


@given(st.integers(1, 24), st.integers(1, 4096))
def test_partition_invariants(k, pes):
    cfg = ChainConfig(num_pes=pes)
    if k * k > pes:
        with pytest.raises(CapacityError):
            partition_chain(cfg, k)
        return
    cm = partition_chain(cfg, k)
    assert cm.active_pes <= pes
    assert cm.active_pes % (k * k) == 0
    assert cm.active_pes + cm.idle_pes == pes
    assert cm.efficiency == cm.active_pes / pes
