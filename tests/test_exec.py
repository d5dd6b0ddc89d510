"""Tests for the batch-evaluation backend (executors + memoization).

The load-bearing property: every executor/cache combination returns
results *bit-identical* to the serial uncached loop — dataclass
equality, float bits, and dict iteration order included — so the sweep
consumers can treat ``executor``/``jobs``/``cache`` as pure performance
knobs.
"""

import hashlib
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.dataflow import Dataflow
from repro.dataflow.directives import (
    ClusterDirective,
    MapDirective,
    evaluate_size,
    spatial_map,
    temporal_map,
)
from repro.dse import explore
from repro.dse.space import (
    DesignSpace,
    default_bandwidths,
    default_pe_counts,
    kc_partitioned_variants,
    yr_partitioned_variants,
)
from repro.equiv import canonicalize, integral_active
from repro.exec import (
    AnalysisCache,
    BatchEvaluator,
    EvalPoint,
    analysis_from_dict,
    analysis_to_dict,
    cache_key,
    cache_keys,
    canonical_point_payload,
    dataflow_cache_payload,
    evaluate_batch,
    model_version_salt,
    resolve_cache,
)
from repro.exec.cache import canonical_directives
from repro.hardware.accelerator import Accelerator, NoC
from repro.hardware.energy import DEFAULT_ENERGY_MODEL
from repro.hetero import SubAccelerator, analyze_heterogeneous
from repro.model.layer import conv2d
from repro.model.network import Network
from repro.tensors import dims as D
from repro.tuner.search import tune_layer
from repro.tuner.templates import (
    SCHEDULES,
    SPATIAL_DIMS,
    CandidateSpec,
    enumerate_candidates,
)


@pytest.fixture(scope="module")
def layer():
    return conv2d("exec-t", k=16, c=16, y=12, x=12, r=3, s=3)


@pytest.fixture(scope="module")
def points(layer):
    from repro.dataflow.library import kc_partitioned, yr_partitioned

    flows = [kc_partitioned(c_tile=8), yr_partitioned()]
    return [
        EvalPoint(layer, flow, Accelerator(num_pes=pes, noc=NoC(bandwidth=bw)))
        for flow in flows
        for pes in (16, 64)
        for bw in (4, 32)
    ]


def assert_reports_bit_identical(left, right):
    assert left == right
    # Dataclass equality compares mappings by content; iteration order
    # is part of the backend's contract, so check it explicitly.
    for field in (
        "l2_reads",
        "l2_writes",
        "l1_reads",
        "l1_writes",
        "dram_reads",
        "dram_writes",
        "reuse_factors",
        "max_reuse_factors",
        "energy_breakdown",
    ):
        assert list(getattr(left, field)) == list(getattr(right, field))


class TestExecutorEquivalence:
    def test_process_matches_serial(self, points):
        serial = evaluate_batch(points, executor="serial", cache=False)
        process = evaluate_batch(points, executor="process", jobs=2, cache=False)
        assert serial.stats.executor == "serial"
        assert process.stats.executor == "process"
        assert len(serial) == len(process) == len(points)
        for a, b in zip(serial, process):
            assert a.ok == b.ok
            if a.ok:
                assert_reports_bit_identical(a.report, b.report)

    def test_cold_and_warm_cache_match_serial(self, points):
        reference = evaluate_batch(points, executor="serial", cache=False)
        cache = AnalysisCache()
        cold = evaluate_batch(points, executor="serial", cache=cache)
        warm = evaluate_batch(points, executor="process", jobs=2, cache=cache)
        assert cold.stats.cache_hits == 0
        assert cold.stats.evaluated == len(points)
        assert warm.stats.cache_hits == len(points)
        assert warm.stats.evaluated == 0
        # A fully warm batch never needs workers.
        assert warm.stats.executor == "serial"
        for ref, c, w in zip(reference, cold, warm):
            assert_reports_bit_identical(ref.report, c.report)
            assert_reports_bit_identical(ref.report, w.report)
            assert not c.cached and w.cached

    def test_auto_stays_serial_for_small_batches(self, points):
        result = evaluate_batch(points, executor="auto", jobs=4, cache=False)
        assert result.stats.executor == "serial"

    def test_rejections_become_outcomes_and_are_cached(self, layer):
        too_wide = Dataflow(
            name="too-wide",
            directives=(
                spatial_map(1, 1, D.K),
                ClusterDirective(4096),  # no 4-PE array holds this
                spatial_map(1, 1, D.C),
            ),
        )
        point = EvalPoint(layer, too_wide, Accelerator(num_pes=4))
        cache = AnalysisCache()
        cold = evaluate_batch([point], cache=cache)
        warm = evaluate_batch([point], cache=cache)
        for result in (cold, warm):
            (outcome,) = result.outcomes
            assert not outcome.ok
            assert outcome.error_type == "BindingError"
            assert "4096" in outcome.error_message
        assert warm.stats.cache_hits == 1
        assert warm.outcomes[0].cached

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            BatchEvaluator(executor="threads")
        with pytest.raises(ValueError):
            BatchEvaluator(jobs=0)

    def test_empty_batch(self):
        result = evaluate_batch([], cache=False)
        assert len(result) == 0
        assert result.stats.submitted == 0

    def test_points_are_picklable(self, points):
        clone = pickle.loads(pickle.dumps(points[0]))
        assert clone.layer == points[0].layer
        assert clone.dataflow == points[0].dataflow
        assert clone.key() == points[0].key()


class TestCache:
    def test_lru_eviction(self, layer, points):
        cache = AnalysisCache(max_entries=4)
        evaluate_batch(points, cache=cache)
        assert len(cache) == 4
        assert cache.evictions == len(points) - 4

    def test_disk_roundtrip_bit_identical(self, tmp_path, points):
        reference = evaluate_batch(points, cache=False)
        writer = AnalysisCache(disk_dir=tmp_path)
        evaluate_batch(points, cache=writer)
        # Fresh memory tier: every hit must come from the JSON files.
        reader = AnalysisCache(disk_dir=tmp_path)
        replayed = evaluate_batch(points, cache=reader)
        assert reader.disk_hits == len(points)
        assert replayed.stats.cache_hits == len(points)
        for ref, hit in zip(reference, replayed):
            assert_reports_bit_identical(ref.report, hit.report)

    def test_disk_layout_sharded_by_salt(self, tmp_path, points):
        cache = AnalysisCache(disk_dir=tmp_path)
        evaluate_batch(points[:1], cache=cache)
        files = list(tmp_path.rglob("*.json"))
        assert len(files) == 1
        assert files[0].parent.parent.name == model_version_salt()

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path, points):
        cache = AnalysisCache(disk_dir=tmp_path)
        evaluate_batch(points[:1], cache=cache)
        (path,) = list(tmp_path.rglob("*.json"))
        path.write_text("{not json")
        reader = AnalysisCache(disk_dir=tmp_path)
        result = evaluate_batch(points[:1], cache=reader)
        assert result.stats.cache_hits == 0
        assert result.outcomes[0].ok

    def test_corrupt_entry_is_counted_logged_deleted_and_rewritten(
        self, tmp_path, points, caplog
    ):
        import logging

        cache = AnalysisCache(disk_dir=tmp_path)
        evaluate_batch(points[:1], cache=cache)
        (path,) = list(tmp_path.rglob("*.json"))
        path.write_text('{"report": {"layer_na')  # an interrupted writer
        reader = AnalysisCache(disk_dir=tmp_path)
        key = points[0].key()
        with caplog.at_level(logging.WARNING, logger="repro.exec.cache"):
            assert reader.get(key) is None  # corrupt = miss, not a crash
        assert reader.corrupt_entries == 1
        assert not path.exists()  # the bad file is dropped
        assert any("corrupt cache entry" in r.message for r in caplog.records)
        # The recompute rewrites a good entry at the same path.
        result = evaluate_batch(points[:1], cache=reader)
        assert result.outcomes[0].ok
        fresh = AnalysisCache(disk_dir=tmp_path)
        assert fresh.get(key) is not None
        assert fresh.corrupt_entries == 0

    def test_corrupt_entry_increments_the_obs_counter(self, tmp_path, points):
        from repro import obs

        cache = AnalysisCache(disk_dir=tmp_path)
        evaluate_batch(points[:1], cache=cache)
        (path,) = list(tmp_path.rglob("*.json"))
        path.write_text("not json at all")
        reader = AnalysisCache(disk_dir=tmp_path)
        obs.configure(enabled=True, reset=True)
        try:
            assert reader.get(points[0].key()) is None
            assert obs.counter_value("cache.corrupt_entries") == 1
            assert obs.counter_value("cache.misses") == 1
        finally:
            obs.configure(enabled=False, reset=True)

    def test_resolve_cache(self):
        assert resolve_cache(False) is None
        assert resolve_cache(None) is None
        instance = AnalysisCache()
        assert resolve_cache(instance) is instance
        assert resolve_cache(True) is resolve_cache(True)  # shared singleton
        with pytest.raises(TypeError):
            resolve_cache("yes")

    def test_analysis_dict_roundtrip(self, points):
        report = evaluate_batch(points[:1], cache=False).outcomes[0].report
        clone = analysis_from_dict(analysis_to_dict(report))
        assert_reports_bit_identical(report, clone)


# ----------------------------------------------------------------------
# Cache-key properties: injective on distinct canonical mappings, stable
# across the spelling-equivalent forms PR 1 proved bind identically.
# ----------------------------------------------------------------------
key_layers = st.builds(
    lambda k, c, yx, rs: conv2d("key-prop", k=k, c=c, y=max(yx, rs), x=max(yx, rs), r=rs, s=rs),
    k=st.integers(1, 16),
    c=st.integers(1, 16),
    yx=st.integers(4, 12),
    rs=st.integers(1, 3),
)

key_specs = st.builds(
    CandidateSpec,
    outer_spatial=st.sampled_from(SPATIAL_DIMS),
    schedule=st.sampled_from(SCHEDULES),
    c_tile=st.sampled_from([1, 2, 4]),
    k_tile=st.sampled_from([1, 2]),
    y_tile=st.sampled_from([1, 2]),
    x_tile=st.sampled_from([1, 2]),
)

_KEY_HW = Accelerator(num_pes=16, noc=NoC(bandwidth=8))


def _renamed(dataflow, name):
    return Dataflow(name=name, directives=dataflow.directives)


def _concrete_spelling(dataflow, layer):
    """Rewrite every symbolic size/offset as its concrete integer."""
    sizes = layer.all_dim_sizes()
    strides = {D.Y: layer.stride[0], D.X: layer.stride[1]}
    directives = []
    for directive in dataflow.directives:
        if isinstance(directive, ClusterDirective):
            directives.append(ClusterDirective(evaluate_size(directive.size, sizes, strides)))
        else:
            build = spatial_map if directive.spatial else temporal_map
            directives.append(
                build(
                    evaluate_size(directive.size, sizes, strides),
                    evaluate_size(directive.offset, sizes, strides),
                    directive.dim,
                )
            )
    return Dataflow(name=dataflow.name, directives=tuple(directives))


class TestCacheKeyProperties:
    @settings(max_examples=40, deadline=None)
    @given(layer=key_layers, spec_a=key_specs, spec_b=key_specs)
    def test_injective_on_distinct_canonical_mappings(self, layer, spec_a, spec_b):
        flow_a = _renamed(spec_a.build(), "same-name")
        flow_b = _renamed(spec_b.build(), "same-name")
        key_a = cache_key(layer, flow_a, _KEY_HW, DEFAULT_ENERGY_MODEL)
        key_b = cache_key(layer, flow_b, _KEY_HW, DEFAULT_ENERGY_MODEL)
        payload_a = dataflow_cache_payload(flow_a, layer, _KEY_HW.num_pes)
        payload_b = dataflow_cache_payload(flow_b, layer, _KEY_HW.num_pes)
        if payload_a != payload_b:
            assert key_a != key_b
        else:
            assert key_a == key_b
        # The quotient only ever merges what the raw spelling tier kept
        # apart, never the reverse: identical evaluated spellings (same
        # name) must still share a key.
        if canonical_directives(flow_a, layer) == canonical_directives(flow_b, layer):
            assert key_a == key_b

    @settings(max_examples=40, deadline=None)
    @given(layer=key_layers, spec=key_specs)
    def test_stable_across_spelling_equivalent_forms(self, layer, spec):
        symbolic = spec.build()
        concrete = _concrete_spelling(symbolic, layer)
        assert cache_key(layer, symbolic, _KEY_HW, DEFAULT_ENERGY_MODEL) == cache_key(
            layer, concrete, _KEY_HW, DEFAULT_ENERGY_MODEL
        )

    def test_key_distinguishes_hardware_and_energy(self, layer):
        from repro.dataflow.library import kc_partitioned
        from repro.hardware.energy import EnergyModel

        flow = kc_partitioned(c_tile=8)
        base = cache_key(layer, flow, _KEY_HW, DEFAULT_ENERGY_MODEL)
        other_hw = cache_key(
            layer, flow, Accelerator(num_pes=32, noc=NoC(bandwidth=8)), DEFAULT_ENERGY_MODEL
        )
        other_energy = cache_key(layer, flow, _KEY_HW, EnergyModel(dram=100.0))
        assert len({base, other_hw, other_energy}) == 3

    def test_payload_carries_model_version_salt(self, layer):
        from repro.dataflow.library import kc_partitioned

        payload = canonical_point_payload(
            layer, kc_partitioned(c_tile=8), _KEY_HW, DEFAULT_ENERGY_MODEL
        )
        assert payload["salt"] == model_version_salt()
        assert len(model_version_salt()) == 12


# ----------------------------------------------------------------------
# Batch key builder: every key equals the spec, sha256 of the sorted
# JSON of canonical_point_payload, whatever the batch shares.
# ----------------------------------------------------------------------
def _spec_key(layer, dataflow, accelerator, energy_model):
    payload = canonical_point_payload(layer, dataflow, accelerator, energy_model)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def assert_keys_match_spec(points):
    keys = cache_keys(points)
    assert keys == [_spec_key(*point) for point in points]
    return keys


_SQUARE = conv2d("key-square", k=16, c=16, y=14, x=14, r=3, s=3)


def _grid(layers, flows, pe_counts, bandwidths=(8,), energy_models=(DEFAULT_ENERGY_MODEL,)):
    return [
        (layer, flow, Accelerator(num_pes=pes, noc=NoC(bandwidth=bw)), energy)
        for layer in layers
        for flow in flows
        for pes in pe_counts
        for bw in bandwidths
        for energy in energy_models
    ]


def _tuned(name):
    return next(spec.build() for spec in enumerate_candidates() if spec.build().name == name)


class TestBatchKeyIdentity:
    def test_fig13_grids(self):
        from repro.model.zoo import build

        vgg16 = build("vgg16")
        layers = [vgg16.layer("CONV2"), vgg16.layer("CONV11")]
        variants = kc_partitioned_variants() + yr_partitioned_variants()
        flows = [flow for _, flow in variants]
        points = _grid(
            layers, flows, default_pe_counts(max_pes=512, step=16), default_bandwidths(128)
        )
        assert len(set(assert_keys_match_spec(points))) > len(points) // 8

    def test_tuner_candidate_slice(self, layer):
        flows = [spec.build() for spec in list(enumerate_candidates())[::23]]
        assert_keys_match_spec(_grid([layer, _SQUARE], flows, (12, 16, 24, 64)))

    def test_fallback_spelling(self, layer):
        duplicate = Dataflow(
            name="dup",
            directives=(
                MapDirective(dim="K", size=2, offset=2, spatial=False),
                MapDirective(dim="K", size=4, offset=4, spatial=False),
            ),
        )
        assert canonicalize(duplicate, layer).fallback
        keys = assert_keys_match_spec(_grid([layer], [duplicate], (16, 64)))
        assert dataflow_cache_payload(duplicate, layer, 16)["name"] == "dup"
        assert len(set(keys)) == 2

    def test_transpose_certificate_flips_within_batch(self):
        flow = _tuned("tuned-KCx8-reduction-c1k1y1x1")
        form = canonicalize(flow, _SQUARE)
        assert integral_active(form, 16) and integral_active(form, 24) is False
        assert dataflow_cache_payload(flow, _SQUARE, 16) != dataflow_cache_payload(
            flow, _SQUARE, 24
        )
        assert_keys_match_spec(_grid([_SQUARE], [flow], (12, 16, 24, 48, 64), (4, 8)))

    def test_cluster_larger_than_pes_names_the_mapping(self):
        flow = _tuned("tuned-KCx32-reduction-c1k1y1x1")
        assert dataflow_cache_payload(flow, _SQUARE, 16)["name"] == flow.name
        assert "name" not in dataflow_cache_payload(flow, _SQUARE, 64)
        assert_keys_match_spec(_grid([_SQUARE], [flow], (16, 64)))

    def test_equivalent_spellings_with_different_names(self, layer):
        from repro.dataflow.library import kc_partitioned

        flow = kc_partitioned(c_tile=8)
        twin = _renamed(_concrete_spelling(flow, layer), "twin")
        keys = assert_keys_match_spec(_grid([layer], [flow, twin], (16, 64)))
        assert keys[:2] == keys[2:]

    def test_equal_hardware_spelled_differently(self, layer):
        from repro.dataflow.library import kc_partitioned

        flow = kc_partitioned(c_tile=8)
        spellings = [NoC(bandwidth=8, avg_latency=v) for v in (2, 2.0, 0.0, -0.0)]
        assert spellings[0] == spellings[1] and spellings[2] == spellings[3]
        points = [
            (layer, flow, Accelerator(num_pes=16, noc=noc), DEFAULT_ENERGY_MODEL)
            for noc in spellings
        ]
        assert len(set(assert_keys_match_spec(points))) == 4

    def test_memo_is_per_dataflow_and_layer(self, layer):
        from repro.dataflow.library import kc_partitioned
        from repro.hardware.energy import EnergyModel

        flow = kc_partitioned(c_tile=8)
        other = conv2d("key-other", k=32, c=4, y=10, x=10, r=5, s=5)
        assert dataflow_cache_payload(flow, layer, 16) != dataflow_cache_payload(
            flow, other, 16
        )
        energy_models = (DEFAULT_ENERGY_MODEL, EnergyModel(dram=100.0))
        points = _grid([layer, other], [flow], (16, 64), energy_models=energy_models)
        keys = assert_keys_match_spec(points)
        assert len(set(keys)) == len(points)
        assert keys == [cache_key(*point) for point in points]


# ----------------------------------------------------------------------
# Sweep consumers through the backend.
# ----------------------------------------------------------------------
class TestExploreThroughBackend:
    @pytest.fixture(scope="class")
    def space(self):
        return DesignSpace(
            pe_counts=[16, 32, 64],
            noc_bandwidths=[4, 32],
            dataflow_variants=kc_partitioned_variants(
                c_tiles=(8, 64), spatial_tiles=((1, 1), (4, 4))
            ),
        )

    def test_serial_process_cold_warm_all_identical(self, layer, space):
        reference = explore(
            layer, space, area_budget=16.0, power_budget=450.0,
            executor="serial", cache=False,
        )
        process = explore(
            layer, space, area_budget=16.0, power_budget=450.0,
            executor="process", jobs=2, cache=False,
        )
        shared = AnalysisCache()
        cold = explore(
            layer, space, area_budget=16.0, power_budget=450.0,
            executor="serial", cache=shared,
        )
        warm = explore(
            layer, space, area_budget=16.0, power_budget=450.0,
            executor="process", jobs=2, cache=shared,
        )
        assert warm.statistics.cache_hits == warm.statistics.cost_model_calls > 0
        for other in (process, cold, warm):
            assert other.points == reference.points  # order included
            assert other.throughput_optimal == reference.throughput_optimal
            assert other.energy_optimal == reference.energy_optimal
            assert other.edp_optimal == reference.edp_optimal
            for field in ("explored", "evaluated", "valid", "pruned",
                          "static_rejects", "cost_model_calls"):
                assert getattr(other.statistics, field) == getattr(
                    reference.statistics, field
                )

    def test_statistics_partition_the_grid(self, layer, space):
        # With the lint disabled, binding failures surface as cost-model
        # failures; the partition invariant must hold either way.
        for static_lint in (True, False):
            result = explore(
                layer, space, area_budget=16.0, power_budget=450.0,
                static_lint=static_lint, cache=False,
            )
            stats = result.statistics
            failures = stats.cost_model_calls - stats.evaluated
            assert stats.explored == space.size
            assert stats.cost_model_calls + stats.pruned == stats.explored
            assert stats.evaluated + failures + stats.pruned == stats.explored
        assert failures > 0  # the space contains unbindable variants


class TestTunerThroughBackend:
    @pytest.fixture(scope="class")
    def specs(self):
        from repro.tuner.templates import enumerate_candidates

        return list(enumerate_candidates(c_tiles=(1, 4), k_tiles=(1,), cluster_sizes=(8,)))

    def test_equivalent_across_backends(self, layer, specs):
        accelerator = Accelerator(num_pes=32, noc=NoC(bandwidth=16))
        reference = tune_layer(
            layer, accelerator, candidates=specs, executor="serial", cache=False
        )
        shared = AnalysisCache()
        process = tune_layer(
            layer, accelerator, candidates=specs,
            executor="process", jobs=2, cache=shared,
        )
        warm = tune_layer(
            layer, accelerator, candidates=specs, executor="serial", cache=shared
        )
        assert warm.cache_hits > 0
        for other in (process, warm):
            assert other.best.spec == reference.best.spec
            assert other.best.report == reference.best.report
            assert [c.spec for c in other.top] == [c.spec for c in reference.top]
            assert other.evaluated == reference.evaluated
            assert other.rejected == reference.rejected
            assert other.statically_rejected == reference.statically_rejected


class TestHeteroThroughBackend:
    def test_equivalent_across_backends(self):
        from repro.dataflow.library import kc_partitioned, yr_partitioned

        network = Network(
            name="pair",
            layers=(
                conv2d("early", k=16, c=8, y=14, x=14, r=3, s=3),
                conv2d("late", k=32, c=16, y=7, x=7, r=3, s=3),
            ),
        )
        subs = [
            SubAccelerator("kc", Accelerator(num_pes=32), kc_partitioned(c_tile=8)),
            SubAccelerator("yr", Accelerator(num_pes=32), yr_partitioned()),
        ]
        for mode in ("sequential", "pipelined"):
            reference = analyze_heterogeneous(
                network, subs, mode=mode, executor="serial", cache=False
            )
            shared = AnalysisCache()
            cold = analyze_heterogeneous(
                network, subs, mode=mode, executor="process", jobs=2, cache=shared
            )
            warm = analyze_heterogeneous(
                network, subs, mode=mode, executor="serial", cache=shared
            )
            for other in (cold, warm):
                assert other.assignments == reference.assignments
                assert other.runtime == reference.runtime
                assert other.energy_total == reference.energy_total


class TestSingleFlight:
    """Within-batch dedup: one leader computes, followers replay."""

    def test_duplicates_share_one_evaluation(self, layer, points):
        cache = AnalysisCache()
        duplicated = points + points  # every point appears twice
        batch = evaluate_batch(duplicated, executor="serial", cache=cache)
        stats = batch.stats
        assert stats.submitted == len(duplicated)
        assert stats.evaluated == len(points)  # leaders only
        assert stats.singleflight_hits == len(points)
        assert stats.cache_hits == 0  # dedup happened in-flight, not via cache
        for leader, follower in zip(batch.outcomes, batch.outcomes[len(points):]):
            assert follower.ok == leader.ok
            if leader.ok:
                assert_reports_bit_identical(leader.report, follower.report)

    def test_follower_outcomes_bit_identical_to_unique_batch(self, points):
        reference = evaluate_batch(points, executor="serial", cache=False)
        batch = evaluate_batch(
            points + points, executor="serial", cache=AnalysisCache()
        )
        for index, ref in enumerate(reference):
            for outcome in (batch.outcomes[index], batch.outcomes[index + len(points)]):
                assert outcome.ok == ref.ok
                if ref.ok:
                    assert_reports_bit_identical(ref.report, outcome.report)

    def test_equivalent_spelling_follower_keeps_its_name(self, layer):
        from dataclasses import replace as dc_replace

        from repro.dataflow.library import kc_partitioned

        flow = kc_partitioned(c_tile=8)
        twin = dc_replace(flow, name=flow.name + "-twin")
        accelerator = Accelerator(num_pes=32, noc=NoC(bandwidth=16))
        batch = evaluate_batch(
            [
                EvalPoint(layer, flow, accelerator),
                EvalPoint(layer, twin, accelerator),
            ],
            executor="serial",
            cache=AnalysisCache(),
        )
        leader, follower = batch.outcomes
        assert batch.stats.singleflight_hits == 1
        assert leader.report.dataflow_name == flow.name
        assert follower.report.dataflow_name == twin.name
        left = dc_replace(leader.report, dataflow_name="")
        right = dc_replace(follower.report, dataflow_name="")
        assert_reports_bit_identical(left, right)

    def test_no_dedup_without_cache(self, points):
        batch = evaluate_batch(points + points, executor="serial", cache=False)
        assert batch.stats.singleflight_hits == 0
        assert batch.stats.evaluated == 2 * len(points)

    def test_counter_reaches_obs(self, layer, points):
        from repro import obs
        from repro.obs.metrics import counter_value

        obs.configure(enabled=True, reset=True)
        try:
            evaluate_batch(
                points + points, executor="serial", cache=AnalysisCache()
            )
            assert counter_value("exec.cache.singleflight_hits") == len(points)
        finally:
            obs.configure(enabled=False, reset=True)
