"""Unit tests for page-placement policies and the page table."""

import pytest

from dataclasses import replace

from repro.config import PlacementPolicy, scaled_config
from repro.errors import PlacementError
from repro.locality import PLACEMENT_KINDS, PlacementSpec
from repro.memory.page_table import PageTable


def make_placement(policy, n_sockets=4):
    cfg = replace(scaled_config(n_sockets=n_sockets), placement=policy)
    return PageTable(cfg)


def test_local_only_always_socket_zero():
    placement = make_placement(PlacementPolicy.LOCAL_ONLY)
    for addr in (0, 4096, 10**9):
        assert placement.home_socket(addr, accessor=3) == 0


def test_single_socket_always_local():
    placement = make_placement(PlacementPolicy.FIRST_TOUCH, n_sockets=1)
    assert placement.home_socket(12345, accessor=0) == 0


def test_fine_interleave_strides_at_granularity():
    placement = make_placement(PlacementPolicy.FINE_INTERLEAVE)
    gran = placement.policy.granularity
    homes = [placement.home_socket(i * gran, accessor=0) for i in range(8)]
    assert homes == [0, 1, 2, 3, 0, 1, 2, 3]


def test_fine_interleave_same_block_same_home():
    placement = make_placement(PlacementPolicy.FINE_INTERLEAVE)
    gran = placement.policy.granularity
    assert placement.home_socket(0, 0) == placement.home_socket(gran - 1, 0)


def test_page_interleave_strides_by_page():
    placement = make_placement(PlacementPolicy.PAGE_INTERLEAVE)
    page = placement.page_size
    homes = [placement.home_socket(i * page, accessor=0) for i in range(8)]
    assert homes == [0, 1, 2, 3, 0, 1, 2, 3]


def test_interleave_remote_fraction_is_three_quarters():
    """75% of fine-interleaved accesses are remote in a 4-GPU system (§3)."""
    placement = make_placement(PlacementPolicy.FINE_INTERLEAVE)
    gran = placement.policy.granularity
    remote = sum(
        1 for i in range(1000) if placement.home_socket(i * gran, 0) != 0
    )
    assert remote / 1000 == pytest.approx(0.75, abs=0.01)


def test_first_touch_claims_for_accessor():
    placement = make_placement(PlacementPolicy.FIRST_TOUCH)
    assert placement.home_socket(0, accessor=2) == 2
    # Later accesses from other sockets see the claimed home.
    assert placement.home_socket(64, accessor=0) == 2


def test_first_touch_counts_migrations_once_per_page():
    placement = make_placement(PlacementPolicy.FIRST_TOUCH)
    placement.home_socket(0, 1)
    placement.home_socket(128, 2)  # same page
    placement.home_socket(placement.page_size, 3)  # next page
    assert placement.migrations == 2


def test_is_first_touch():
    placement = make_placement(PlacementPolicy.FIRST_TOUCH)
    assert placement.policy.is_first_touch(0)
    placement.home_socket(0, 1)
    assert not placement.policy.is_first_touch(0)


def test_is_first_touch_false_for_other_policies():
    placement = make_placement(PlacementPolicy.PAGE_INTERLEAVE)
    assert not placement.policy.is_first_touch(0)


def test_accessor_out_of_range():
    # Every translate() path (fused first touch, dynamic, generic, one
    # socket) raises the same range error as home_socket().
    for kind in PLACEMENT_KINDS:
        for n_sockets in (1, 4):
            table = PageTable(replace(
                scaled_config(n_sockets=n_sockets),
                placement_spec=PlacementSpec(kind=kind),
            ))
            for accessor in (n_sockets, -1):
                with pytest.raises(PlacementError):
                    table.home_socket(0, accessor=accessor)
                with pytest.raises(PlacementError):
                    table.translate(0, accessor=accessor)


# ---------------------------------------------------------------------------
# page table
# ---------------------------------------------------------------------------

def test_page_table_charges_migration_once():
    cfg = scaled_config()
    table = PageTable(cfg)
    home, extra = table.translate(0, accessor=1)
    assert home == 1
    assert extra == cfg.migration_latency
    home2, extra2 = table.translate(64, accessor=3)
    assert home2 == 1
    assert extra2 == 0


def test_page_table_no_charge_for_arithmetic_policies():
    cfg = replace(scaled_config(), placement=PlacementPolicy.PAGE_INTERLEAVE)
    table = PageTable(cfg)
    _home, extra = table.translate(0, accessor=1)
    assert extra == 0
    assert table.migrations == 0


def test_page_table_counts_faults_and_translations():
    table = PageTable(scaled_config())
    table.translate(0, 0)
    table.translate(1, 0)
    assert table.stats["translations"] == 2
    assert table.stats["faults"] == 1
