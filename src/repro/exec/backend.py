"""The batch evaluator: cache lookup + serial/process/vector execution.

The contract that makes the backend a drop-in replacement for a serial
sweep loop: outcomes come back *in input order*, and every
:class:`~repro.engines.analysis.LayerAnalysis` is bit-identical to what
``analyze_layer`` would have returned inline — dict iteration order
included — whether it was computed serially, in a worker process, by the
vectorized whole-grid engine, or replayed from the cache.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.engines.analysis import analyze_layer
from repro import obs
from repro.dataflow.dataflow import Dataflow
from repro.errors import BindingError, DataflowError
from repro.exec.cache import AnalysisCache, cache_key, cache_keys, resolve_cache
from repro.exec.serialize import EvalOutcome
from repro.hardware.accelerator import Accelerator
from repro.hardware.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from repro.model.layer import Layer
from repro.vector.engine import evaluate_grid
from repro.vector.lower import GroupKey, VectorLoweringError, group_key, lower_group

#: Executor names accepted everywhere.
EXECUTORS = ("auto", "serial", "process", "vector")

#: Below this many cache misses, ``auto`` stays serial: process start-up
#: and pickling would dominate the analytical model's microsecond scale.
AUTO_PROCESS_THRESHOLD = 256

#: Under the ``vector`` executor, groups smaller than this run through
#: the scalar engines instead: lowering + array set-up costs more than a
#: handful of point evaluations.
VECTOR_MIN_GROUP = 8

#: ``auto`` switches to the vector executor when the largest
#: same-template miss group reaches this size — the shape of a
#: grid-style sweep, where the whole-grid engine beats both the serial
#: loop and process workers by an order of magnitude.
VECTOR_AUTO_MIN_GROUP = 64


@dataclass(frozen=True)
class EvalPoint:
    """One (layer, dataflow, hardware) evaluation request."""

    layer: Layer
    dataflow: Dataflow
    accelerator: Accelerator
    energy_model: EnergyModel = DEFAULT_ENERGY_MODEL

    def key(self) -> str:
        """The point's content-addressed cache key."""
        return cache_key(self.layer, self.dataflow, self.accelerator, self.energy_model)


@dataclass(frozen=True)
class BatchStats:
    """Per-batch accounting, surfaced next to the sweep counters.

    ``vector_points`` counts misses evaluated by the whole-grid vector
    engine; ``vector_fallbacks`` counts misses that ran through the
    scalar engines while the vector executor was active (group too
    small, or the group could not be lowered). ``equiv_twin_hits``
    counts cache hits satisfied by an *equivalent* mapping's entry
    (shared canonical cache key, different mapping name) — a subset of
    ``cache_hits``. ``singleflight_hits`` counts misses that shared an
    identical in-flight computation inside the same batch (same
    canonical cache key): one leader pays the cost-model call, the
    followers replay its outcome instead of racing it through the
    executor. ``evaluated`` counts only the leaders.
    """

    submitted: int
    cache_hits: int
    evaluated: int
    failures: int
    executor: str
    jobs: int
    wall_seconds: float
    vector_points: int = 0
    vector_fallbacks: int = 0
    equiv_twin_hits: int = 0
    singleflight_hits: int = 0


@dataclass(frozen=True)
class BatchResult:
    """Outcomes in input order plus the batch statistics."""

    outcomes: Tuple[EvalOutcome, ...]
    stats: BatchStats

    def __iter__(self) -> Iterator[EvalOutcome]:
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)


def _evaluate_one(point: EvalPoint) -> EvalOutcome:
    """Run the cost model on one point; model rejections become outcomes."""
    try:
        report = analyze_layer(
            point.layer, point.dataflow, point.accelerator, point.energy_model
        )
    except (BindingError, DataflowError) as error:
        return EvalOutcome(
            report=None,
            error_type=type(error).__name__,
            error_message=str(error),
        )
    return EvalOutcome(report=report)


def _evaluate_chunk(points: Sequence[EvalPoint]) -> List[EvalOutcome]:
    """Worker entry point: evaluate one submission chunk serially."""
    return [_evaluate_one(point) for point in points]


def _evaluate_chunk_traced(points: Sequence[EvalPoint]) -> Tuple[List[EvalOutcome], list, dict]:
    """Tracing worker entry point: outcomes plus the worker's spans/metrics.

    The buffer is reset first: under the fork start method the child
    inherits the driver's spans, which must not be exported twice. The
    driver re-parents the returned spans with :func:`repro.obs.adopt_spans`.
    """
    obs.configure(enabled=True, reset=True)
    with obs.span("exec.worker_chunk", points=len(points)):
        outcomes = [_evaluate_one(point) for point in points]
    return outcomes, obs.export_spans(), obs.metrics_snapshot()


def _chunked(items: Sequence, chunk_size: int) -> List[Sequence]:
    return [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]


@dataclass
class BatchEvaluator:
    """A configured evaluation backend.

    Parameters
    ----------
    executor:
        ``"serial"``, ``"process"``, ``"vector"``, or ``"auto"``.
        ``vector`` groups misses by (layer, dataflow, accelerator
        template) and runs each group through the whole-grid NumPy
        engine, falling back to the scalar engines point by point for
        groups it cannot express. ``auto`` picks vector for grid-shaped
        batches (largest group >= ``VECTOR_AUTO_MIN_GROUP``), process
        when the miss count and core count justify the start-up cost,
        and serial otherwise.
    jobs:
        Worker processes for the process executor; defaults to the
        machine's core count.
    cache:
        ``True`` (the shared default cache), ``False``/``None`` (no
        memoization), or an :class:`AnalysisCache` instance.
    """

    executor: str = "auto"
    jobs: Optional[int] = None
    cache: Union[bool, AnalysisCache, None] = True
    _cache: Optional[AnalysisCache] = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if self.executor not in EXECUTORS:
            raise ValueError(f"unknown executor {self.executor!r}; choose from {EXECUTORS}")
        if self.jobs is not None and self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        self._cache = resolve_cache(self.cache)

    def _resolve_jobs(self) -> int:
        return self.jobs if self.jobs is not None else (os.cpu_count() or 1)

    def _pick_executor(
        self, misses: int, groups: Optional[Dict[GroupKey, List[int]]]
    ) -> Tuple[str, int]:
        jobs = self._resolve_jobs()
        if misses == 0:
            # Fully warm batch: no work, no workers — report what ran.
            return "serial", 1
        if self.executor == "vector":
            return "vector", 1
        if self.executor == "auto" and groups:
            # Grid-shaped batch: many points per (layer, dataflow,
            # template) group means the whole-grid engine wins.
            if max(len(g) for g in groups.values()) >= VECTOR_AUTO_MIN_GROUP:
                return "vector", 1
        if self.executor == "serial" or jobs <= 1:
            return "serial", 1
        if self.executor == "process":
            return "process", jobs
        if misses >= AUTO_PROCESS_THRESHOLD:
            return "process", jobs
        return "serial", 1

    def _evaluate_vector(
        self,
        points: List[EvalPoint],
        groups: Dict[GroupKey, List[int]],
        outcomes: List[Optional[EvalOutcome]],
    ) -> Tuple[int, int]:
        """Evaluate miss groups through the whole-grid vector engine.

        Returns ``(vector_points, vector_fallbacks)``. A group falls
        back to the scalar engines point by point when it is too small
        to amortize lowering or when :func:`lower_group` rejects it;
        every fallback is counted in the obs metrics so a sweep that
        silently degrades to scalar speed is visible.
        """
        vectorized = 0
        fallbacks = 0
        for indices in groups.values():
            first = points[indices[0]]
            group_outcomes: Optional[List[EvalOutcome]] = None
            if len(indices) >= VECTOR_MIN_GROUP:
                accelerators = [points[i].accelerator for i in indices]
                with obs.span(
                    "exec.vector_group",
                    points=len(indices),
                    layer=first.layer.name,
                    dataflow=first.dataflow.name,
                ):
                    try:
                        lowered = lower_group(
                            first.layer,
                            first.dataflow,
                            accelerators[0],
                            first.energy_model,
                        )
                        group_outcomes = evaluate_grid(
                            first.layer,
                            first.dataflow,
                            accelerators,
                            first.energy_model,
                            lowered=lowered,
                        )
                    except VectorLoweringError:
                        obs.inc("exec.vector.lowering_failures")
            if group_outcomes is None:
                for index in indices:
                    outcomes[index] = _evaluate_one(points[index])
                fallbacks += len(indices)
                obs.inc("exec.vector.points_fallback", len(indices))
                continue
            for index, outcome in zip(indices, group_outcomes):
                outcomes[index] = outcome
            vectorized += len(indices)
            obs.inc("exec.vector.points_vectorized", len(indices))
        return vectorized, fallbacks

    def evaluate(self, points: Iterable[EvalPoint]) -> BatchResult:
        """Evaluate every point, cache-first, preserving input order."""
        batch = list(points)
        with obs.span("exec.evaluate", submitted=len(batch)):
            return self._evaluate(batch)

    def _evaluate(self, points: List[EvalPoint]) -> BatchResult:
        start = time.perf_counter()
        outcomes: List[Optional[EvalOutcome]] = [None] * len(points)
        obs.inc("exec.points_submitted", len(points))

        # Cache pass: satisfy what we can, remember the miss positions.
        miss_indices: List[int] = []
        keys: Sequence[Optional[str]] = [None] * len(points)
        equiv_twin_hits = 0
        if self._cache is not None:
            with obs.span("exec.cache_lookup"):
                keys = cache_keys(
                    [(p.layer, p.dataflow, p.accelerator, p.energy_model) for p in points]
                )
                for index, (point, key) in enumerate(zip(points, keys)):
                    hit = self._cache.get(key)
                    if hit is not None:
                        if (
                            hit.report is not None
                            and hit.report.dataflow_name != point.dataflow.name
                        ):
                            # Shared canonical entry computed under an
                            # equivalent twin's name: restore this
                            # point's name (the only field the
                            # equivalence quotient legitimately changes).
                            equiv_twin_hits += 1
                            obs.inc("exec.equiv.twin_hits")
                            hit = EvalOutcome(
                                report=replace(
                                    hit.report, dataflow_name=point.dataflow.name
                                ),
                                cached=True,
                            )
                        outcomes[index] = hit
                    else:
                        miss_indices.append(index)
        else:
            miss_indices = list(range(len(points)))

        cache_hits = len(points) - len(miss_indices)

        # Single-flight pass: identical concurrent misses (same canonical
        # cache key — duplicate points, or equivalent spellings the
        # analyzer quotients together) are computed once. The first miss
        # per key is the leader; followers replay its outcome after the
        # executors run instead of racing the same computation. Only
        # meaningful with the cache on (keys are what prove identity).
        singleflight_hits = 0
        follower_of: Dict[int, int] = {}
        if self._cache is not None and len(miss_indices) > 1:
            leader_by_key: Dict[str, int] = {}
            leaders: List[int] = []
            for index in miss_indices:
                key_str = keys[index]
                assert key_str is not None
                leader = leader_by_key.get(key_str)
                if leader is None:
                    leader_by_key[key_str] = index
                    leaders.append(index)
                else:
                    follower_of[index] = leader
            if follower_of:
                singleflight_hits = len(follower_of)
                miss_indices = leaders
                obs.inc("exec.cache.singleflight_hits", singleflight_hits)

        groups: Optional[Dict[GroupKey, List[int]]] = None
        if miss_indices and self.executor in ("vector", "auto"):
            groups = {}
            for index in miss_indices:
                point = points[index]
                key_tuple = group_key(
                    point.layer, point.dataflow, point.accelerator, point.energy_model
                )
                groups.setdefault(key_tuple, []).append(index)
        executor, jobs = self._pick_executor(len(miss_indices), groups)
        obs.inc("exec.cache_hits", cache_hits)
        obs.inc("exec.points_evaluated", len(miss_indices))

        vector_points = 0
        vector_fallbacks = 0
        if executor == "vector":
            assert groups is not None
            with obs.span("exec.vector_evaluate", misses=len(miss_indices)):
                vector_points, vector_fallbacks = self._evaluate_vector(
                    points, groups, outcomes
                )
        elif executor == "serial":
            with obs.span("exec.serial_evaluate", misses=len(miss_indices)):
                for index in miss_indices:
                    outcomes[index] = _evaluate_one(points[index])
        elif miss_indices:
            misses = [points[i] for i in miss_indices]
            # Chunked submission: a few chunks per worker amortizes
            # pickling without starving the pool on uneven chunks.
            chunk_size = max(1, -(-len(misses) // (jobs * 4)))
            chunks = _chunked(misses, chunk_size)
            obs.set_gauge("exec.chunk_queue_depth", len(chunks))
            obs.inc("exec.chunks_submitted", len(chunks))
            # With tracing on, workers capture their own spans/metrics
            # and ship them back for re-parenting into this trace.
            traced = obs.is_enabled()
            worker_fn: Callable[[Sequence[EvalPoint]], Any] = (
                _evaluate_chunk_traced if traced else _evaluate_chunk
            )
            with obs.span("exec.process_pool", chunks=len(chunks), jobs=jobs):
                with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
                    cursor = 0
                    pending = len(chunks)
                    for result in pool.map(worker_fn, chunks):
                        if traced:
                            chunk_outcomes, worker_spans, worker_metrics = result
                            obs.adopt_spans(worker_spans)
                            obs.merge_metrics(worker_metrics)
                            pending -= 1
                            obs.set_gauge("exec.chunk_queue_depth", pending)
                        else:
                            chunk_outcomes = result
                        for outcome in chunk_outcomes:
                            outcomes[miss_indices[cursor]] = outcome
                            cursor += 1

        # Replay leader outcomes to single-flight followers, restoring
        # each follower's mapping name (the only field the equivalence
        # quotient legitimately changes) exactly like the cache-hit path.
        for index, leader in follower_of.items():
            leader_outcome = outcomes[leader]
            assert leader_outcome is not None
            point = points[index]
            if (
                leader_outcome.report is not None
                and leader_outcome.report.dataflow_name != point.dataflow.name
            ):
                leader_outcome = EvalOutcome(
                    report=replace(
                        leader_outcome.report, dataflow_name=point.dataflow.name
                    )
                )
            outcomes[index] = leader_outcome

        if self._cache is not None:
            with obs.span("exec.cache_store", misses=len(miss_indices)):
                for index in miss_indices:
                    key_str = keys[index]
                    outcome = outcomes[index]
                    if key_str is not None and outcome is not None:
                        self._cache.put(key_str, outcome)

        final = [outcome for outcome in outcomes if outcome is not None]
        assert len(final) == len(outcomes), "every point must produce an outcome"
        failures = sum(1 for outcome in final if not outcome.ok)
        stats = BatchStats(
            submitted=len(points),
            cache_hits=cache_hits,
            evaluated=len(miss_indices),
            failures=failures,
            executor=executor,
            jobs=jobs,
            wall_seconds=time.perf_counter() - start,
            vector_points=vector_points,
            vector_fallbacks=vector_fallbacks,
            equiv_twin_hits=equiv_twin_hits,
            singleflight_hits=singleflight_hits,
        )
        return BatchResult(outcomes=tuple(final), stats=stats)


def evaluate_batch(
    points: Iterable[EvalPoint],
    executor: str = "auto",
    jobs: Optional[int] = None,
    cache: Union[bool, AnalysisCache, None] = True,
) -> BatchResult:
    """One-shot convenience wrapper around :class:`BatchEvaluator`."""
    return BatchEvaluator(executor=executor, jobs=jobs, cache=cache).evaluate(points)
