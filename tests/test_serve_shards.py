"""Sharded sweep correctness: partitioning, parity, cancellation."""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.dse.explorer import DSEResult, DSEStatistics, explore
from repro.dse.space import (
    DesignSpace,
    default_bandwidths,
    default_pe_counts,
    kc_partitioned_variants,
)
from repro.equiv import transpose_dataflow
from repro.exec import AnalysisCache
from repro.serve.shards import (
    ShardUpdate,
    SweepCancelled,
    merge_shard_results,
    shard_pe_counts,
    shard_spaces,
    sharded_explore,
)


AREA, POWER = 16.0, 450.0

#: Every integer counter of DSEStatistics, read off the dataclass so a
#: counter added to the explorer is covered without editing this file.
COUNTERS = tuple(
    field.name
    for field in dataclasses.fields(DSEStatistics)
    if field.type in (int, "int")
)

#: Search screens whose counters only become non-zero with the screen
#: on: (explore kwargs, the counter that must be merged).
SCREEN_CASES = {
    "comm_prune_reduction_free": (
        dict(spatial_reduction=False, comm_prune=True),
        "comm_rejects",
    ),
    "equiv_prune": (dict(equiv_prune=True), "equiv_replays"),
}


def counters(statistics: DSEStatistics) -> dict:
    return {name: getattr(statistics, name) for name in COUNTERS}


@pytest.fixture(scope="module")
def small_space():
    return DesignSpace(
        pe_counts=default_pe_counts(max_pes=64, step=16),
        noc_bandwidths=default_bandwidths(16),
        dataflow_variants=kc_partitioned_variants(),
    )


@pytest.fixture(scope="module")
def twin_space():
    """KC-P variants plus their R<->S/Y<->X transposes: equiv_prune replays."""
    base = kc_partitioned_variants(c_tiles=(8, 16), spatial_tiles=((1, 1), (1, 4)))
    variants = list(base)
    for label, flow in base:
        variants.append((f"{label}~T", transpose_dataflow(flow)))
    return DesignSpace(
        pe_counts=default_pe_counts(max_pes=64, step=16),
        noc_bandwidths=default_bandwidths(16),
        dataflow_variants=variants,
    )


@pytest.fixture(scope="module")
def conv_layer(vgg16):
    return vgg16.layer("CONV1")


class TestPartitioning:
    def test_blocks_are_contiguous_and_complete(self):
        counts = list(range(8, 264, 8))
        blocks = shard_pe_counts(counts, 5)
        assert [pe for block in blocks for pe in block] == counts
        assert len(blocks) == 5
        sizes = [len(block) for block in blocks]
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_points_collapses(self):
        blocks = shard_pe_counts([8, 16], 16)
        assert blocks == [[8], [16]]

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            shard_pe_counts([8], 0)

    def test_shard_spaces_keep_other_axes(self, small_space):
        spaces = shard_spaces(small_space, 3)
        assert len(spaces) == 3
        for shard in spaces:
            assert shard.noc_bandwidths == small_space.noc_bandwidths
            assert shard.dataflow_variants == small_space.dataflow_variants
        assert sum(s.size for s in spaces) == small_space.size


class TestParity:
    """The tentpole invariant: sharded == whole-space, bit for bit."""

    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_front_and_optima_bit_identical(self, conv_layer, small_space, shards):
        direct = explore(conv_layer, small_space, AREA, POWER, cache=False)
        sharded = sharded_explore(
            conv_layer,
            small_space,
            area_budget=AREA,
            power_budget=POWER,
            shards=shards,
            cache=False,
        )
        assert sharded.points == direct.points
        assert sharded.pareto() == direct.pareto()
        assert sharded.throughput_optimal == direct.throughput_optimal
        assert sharded.energy_optimal == direct.energy_optimal
        assert sharded.edp_optimal == direct.edp_optimal
        assert direct.statistics.explored == small_space.size
        assert counters(sharded.statistics) == counters(direct.statistics)

    @pytest.mark.parametrize("case", sorted(SCREEN_CASES))
    def test_screen_counters_merged(self, conv_layer, twin_space, case):
        kwargs, counter = SCREEN_CASES[case]
        direct = explore(
            conv_layer, twin_space, AREA, POWER, cache=False, **kwargs
        )
        sharded = sharded_explore(
            conv_layer,
            twin_space,
            area_budget=AREA,
            power_budget=POWER,
            shards=3,
            cache=False,
            **kwargs,
        )
        assert getattr(direct.statistics, counter) > 0
        assert counters(sharded.statistics) == counters(direct.statistics)
        assert sharded.points == direct.points
        assert sharded.pareto() == direct.pareto()

    def test_merge_sums_every_counter(self):
        shard_stats = [
            DSEStatistics(
                elapsed_seconds=1.0,
                **{name: scale * (i + 1) for i, name in enumerate(COUNTERS)},
            )
            for scale in (1, 100)
        ]
        merged = merge_shard_results(
            [
                DSEResult(
                    points=(),
                    statistics=stats,
                    throughput_optimal=None,
                    energy_optimal=None,
                    edp_optimal=None,
                )
                for stats in shard_stats
            ],
            elapsed_seconds=2.0,
        )
        assert counters(merged.statistics) == {
            name: 101 * (i + 1) for i, name in enumerate(COUNTERS)
        }

    def test_shared_cache_across_shards(self, conv_layer, small_space):
        cache = AnalysisCache(max_entries=4096)
        first = sharded_explore(
            conv_layer,
            small_space,
            area_budget=AREA,
            power_budget=POWER,
            shards=2,
            cache=cache,
        )
        second = sharded_explore(
            conv_layer,
            small_space,
            area_budget=AREA,
            power_budget=POWER,
            shards=3,
            cache=cache,
        )
        assert second.pareto() == first.pareto()
        # The second sweep re-used the first sweep's outcomes entirely.
        assert second.statistics.cache_hits == second.statistics.cost_model_calls

    def test_merge_preserves_executor_label(self, conv_layer, small_space):
        result = sharded_explore(
            conv_layer,
            small_space,
            area_budget=AREA,
            power_budget=POWER,
            shards=2,
            cache=False,
        )
        assert result.statistics.executor.startswith("sharded[2]/")


class TestAnytimeUpdates:
    def test_updates_cover_all_shards(self, conv_layer, small_space):
        updates = []
        result = sharded_explore(
            conv_layer,
            small_space,
            area_budget=AREA,
            power_budget=POWER,
            shards=3,
            cache=False,
            on_update=updates.append,
        )
        assert [u.shards_done for u in updates] == [1, 2, 3]
        assert all(isinstance(u, ShardUpdate) for u in updates)
        assert all(u.shards_total == 3 for u in updates)
        # Explored counts are monotone and end at the full space.
        explored = [u.points_explored for u in updates]
        assert explored == sorted(explored)
        assert explored[-1] == small_space.size
        # The last anytime front is the final front.
        assert list(updates[-1].front) == result.pareto()

    def test_single_shard_still_reports(self, conv_layer, small_space):
        updates = []
        sharded_explore(
            conv_layer,
            small_space,
            area_budget=AREA,
            power_budget=POWER,
            shards=1,
            cache=False,
            on_update=updates.append,
        )
        assert len(updates) == 1
        assert updates[0].shards_done == updates[0].shards_total == 1


class TestCancellation:
    def test_pre_set_cancel_aborts_immediately(self, conv_layer, small_space):
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(SweepCancelled):
            sharded_explore(
                conv_layer,
                small_space,
                area_budget=AREA,
                power_budget=POWER,
                shards=2,
                cache=False,
                cancel=cancel,
            )

    def test_cancel_after_first_shard(self, conv_layer, small_space):
        cancel = threading.Event()

        def cancel_on_first(update: ShardUpdate) -> None:
            cancel.set()

        with pytest.raises(SweepCancelled):
            sharded_explore(
                conv_layer,
                small_space,
                area_budget=AREA,
                power_budget=POWER,
                shards=4,
                cache=False,
                on_update=cancel_on_first,
                cancel=cancel,
            )


def test_merge_empty_rejected():
    with pytest.raises(ValueError):
        merge_shard_results([], 0.0)
