"""Search strategies for the dataflow auto-tuner."""

from __future__ import annotations

import time
import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro import obs
from repro.dataflow.dataflow import Dataflow
from repro.engines.analysis import LayerAnalysis
from repro.errors import BindingError, DataflowError
from repro.exec import AnalysisCache, BatchEvaluator, EvalOutcome, EvalPoint
from repro.hardware.accelerator import Accelerator
from repro.hardware.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from repro.lint.engine import static_errors
from repro.model.layer import Layer
from repro.model.network import Network
from repro.tuner.templates import CandidateSpec, enumerate_candidates

#: Objectives: report -> score to minimize.
OBJECTIVES: Dict[str, Callable[[LayerAnalysis], float]] = {
    "runtime": lambda report: report.runtime,
    "energy": lambda report: report.energy_total,
    "edp": lambda report: report.edp,
}


@dataclass(frozen=True)
class ScoredCandidate:
    """One evaluated candidate."""

    spec: CandidateSpec
    dataflow: Dataflow
    report: LayerAnalysis
    score: float


@dataclass(frozen=True)
class TunerResult:
    """Outcome of tuning one layer."""

    layer_name: str
    objective: str
    best: ScoredCandidate
    top: Tuple[ScoredCandidate, ...]
    evaluated: int
    rejected: int
    #: How many of ``rejected`` the static mapping analyzer caught
    #: before any cost-model evaluation.
    statically_rejected: int = 0
    #: How many of ``rejected`` the iteration-space verifier refuted
    #: (proven missed/double-counted MACs) before evaluation; only
    #: counted when ``verify_coverage`` is enabled.
    coverage_rejected: int = 0
    #: How many of ``rejected`` the communication classifier screened
    #: out (spatially mapped reduction on reduction-free hardware —
    #: the DF300 race); only counted when ``comm_prune`` is enabled
    #: and the accelerator lacks ``reduction_support``.
    comm_rejected: int = 0
    #: How many candidates were scored by replaying an equivalent
    #: candidate's outcome instead of a cost-model call (``equiv_prune``:
    #: same canonical key, provably identical report).
    equiv_replayed: int = 0
    #: How many cost-model answers came from the memoization cache
    #: (free on tuner restarts and overlapping candidate grids).
    cache_hits: int = 0
    #: Points that needed a cost-model answer, memoized or fresh.
    cost_model_calls: int = 0
    #: Wall-clock seconds the whole tuning run took.
    elapsed_seconds: float = 0.0

    @property
    def best_dataflow(self) -> Dataflow:
        return self.best.dataflow

    @property
    def best_report(self) -> LayerAnalysis:
        return self.best.report


def tune_layer(
    layer: Layer,
    accelerator: Accelerator,
    objective: str = "runtime",
    candidates: Optional[Iterable[CandidateSpec]] = None,
    strategy: str = "exhaustive",
    budget: int = 200,
    max_l1_bytes: Optional[int] = None,
    max_l2_bytes: Optional[int] = None,
    energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
    top_k: int = 5,
    seed: int = 0,
    static_lint: bool = True,
    verify_coverage: bool = False,
    comm_prune: bool = False,
    equiv_prune: bool = False,
    executor: str = "auto",
    jobs: Optional[int] = None,
    cache: Union[bool, AnalysisCache, None] = True,
) -> TunerResult:
    """Find the best dataflow for ``layer`` on ``accelerator``.

    ``strategy`` is ``"exhaustive"`` (walk the whole candidate grid) or
    ``"random"`` (sample ``budget`` candidates uniformly). Candidates
    whose buffer requirements exceed ``max_l1_bytes``/``max_l2_bytes``
    or that fail to bind are rejected. With ``static_lint`` (the
    default) invalid candidates are caught by the static mapping
    analyzer before any cost-model evaluation; the check is
    binding-equivalent, so the surviving candidate set is identical.

    With ``verify_coverage`` each surviving candidate is additionally
    checked by the iteration-space verifier (:mod:`repro.verify`) and
    rejected when *proven* not to cover the layer's compute space
    exactly once. The pruning is sound — only refuted mappings are
    dropped — so the best candidate among correct mappings is
    unchanged.

    Surviving candidates are scored through the batch-evaluation backend
    (:mod:`repro.exec`): ``executor``/``jobs``/``cache`` are pure
    performance knobs — every combination scores the identical set
    (``executor="vector"`` batches same-template candidates through the
    whole-grid NumPy engine in :mod:`repro.vector`).

    With ``comm_prune`` and an accelerator *without*
    ``reduction_support``, each candidate is classified once by the
    communication analyzer (:mod:`repro.comm`) and rejected when it
    spatially maps a reduction-carried dimension — the DF300 write-race
    hazard — before any cost-model call (``comm_rejected``). On
    reduction-capable hardware the screen never runs, so the result is
    bit-identical with or without the flag; candidates the classifier
    cannot bind or classify are never pruned.

    With ``equiv_prune`` the surviving candidates are quotiented by the
    equivalence analyzer (:mod:`repro.equiv`): only one representative
    per canonical-form class (extended to the symmetry orbit where the
    integer-activity certificate proves transposed twins bit-identical
    on this accelerator) pays a cost-model call; the rest replay its
    report with their own mapping name restored (``equiv_replayed``).
    Every replayed report is provably bit-identical to a fresh
    evaluation, so the scored set — and the winner — are unchanged.

    Buffer caps are applied to the evaluated reports only: a static
    pre-screen against the caps (symbolic or capacity bounds) cost more
    wall time than the evaluations it skipped.
    """
    start = time.perf_counter()
    try:
        score_fn = OBJECTIVES[objective]
    except KeyError:
        raise KeyError(f"unknown objective {objective!r}; available: {sorted(OBJECTIVES)}")

    specs = list(candidates) if candidates is not None else list(enumerate_candidates())
    if strategy == "random":
        rng = random.Random(seed)
        if len(specs) > budget:
            specs = rng.sample(specs, budget)
    elif strategy != "exhaustive":
        raise ValueError(f"unknown strategy {strategy!r}")

    # Phase 1 — enumerate: build + statically screen the candidates.
    with obs.span("tuner.enumerate", specs=len(specs)):
        rejected = 0
        statically_rejected = 0
        runnable: List[Tuple[CandidateSpec, Dataflow]] = []
        for spec in specs:
            try:
                dataflow = spec.build()
            except (BindingError, DataflowError):
                rejected += 1
                continue
            if static_lint and static_errors(dataflow, layer, accelerator):
                rejected += 1
                statically_rejected += 1
                continue
            runnable.append((spec, dataflow))

    coverage_rejected = 0
    if verify_coverage:
        with obs.span("tuner.verify_screen", candidates=len(runnable)):
            from repro.verify import Verdict, verify_dataflow

            survivors: List[Tuple[CandidateSpec, Dataflow]] = []
            verdicts: Dict[str, bool] = {}  # dataflow name -> refuted
            for spec, dataflow in runnable:
                refuted = verdicts.get(dataflow.name)
                if refuted is None:
                    try:
                        result = verify_dataflow(dataflow, layer)
                        refuted = result.verdict is Verdict.REFUTED
                    except Exception:
                        refuted = False  # never let verification break tuning
                    verdicts[dataflow.name] = refuted
                if refuted:
                    rejected += 1
                    coverage_rejected += 1
                    continue
                survivors.append((spec, dataflow))
            runnable = survivors

    comm_rejected = 0
    if comm_prune and not accelerator.reduction_support:
        with obs.span("tuner.comm_screen", candidates=len(runnable)):
            from repro.comm import classify_dataflow

            survivors = []
            races: Dict[str, bool] = {}  # dataflow name -> races
            for spec, dataflow in runnable:
                racy = races.get(dataflow.name)
                if racy is None:
                    try:
                        racy = classify_dataflow(
                            dataflow, layer, accelerator
                        ).requires_spatial_reduction
                    except Exception:
                        racy = False  # never let classification break tuning
                    races[dataflow.name] = racy
                if racy:
                    rejected += 1
                    comm_rejected += 1
                    continue
                survivors.append((spec, dataflow))
            runnable = survivors

    # Equivalence screen: one representative per canonical-form class
    # pays a cost-model call; the others replay its (provably identical)
    # report below. The orbit quotient applies only where the
    # integer-activity certificate holds at this accelerator's PE count.
    equiv_replayed = 0
    eval_indices = list(range(len(runnable)))
    replay_of: Dict[int, int] = {}
    if equiv_prune:
        with obs.span("tuner.equiv_screen", candidates=len(runnable)):
            from repro.equiv import (
                canonicalize,
                integral_active,
                layer_symmetries,
                orbit_key,
            )

            symmetries = layer_symmetries(layer)
            representatives: Dict[object, int] = {}
            eval_indices = []
            for index, (spec, dataflow) in enumerate(runnable):
                form = canonicalize(dataflow, layer)
                class_key = form.key
                if symmetries and integral_active(form, accelerator.num_pes):
                    class_key = orbit_key(class_key, symmetries)
                representative = representatives.get(class_key)
                if representative is None:
                    representatives[class_key] = index
                    eval_indices.append(index)
                else:
                    replay_of[index] = representative
            equiv_replayed = len(replay_of)
            obs.inc("tuner.pruned_by_equiv", equiv_replayed)

    # Phase 2 — evaluate through the backend (memoized, parallelizable).
    evaluator = BatchEvaluator(executor=executor, jobs=jobs, cache=cache)
    with obs.span("tuner.evaluate", candidates=len(eval_indices)):
        batch = evaluator.evaluate(
            EvalPoint(
                layer=layer,
                dataflow=runnable[index][1],
                accelerator=accelerator,
                energy_model=energy_model,
            )
            for index in eval_indices
        )
    outcome_at = dict(zip(eval_indices, batch))

    # Phase 3 — filter and score, in enumeration order.
    with obs.span("tuner.score"):
        scored: List[ScoredCandidate] = []
        for index, (spec, dataflow) in enumerate(runnable):
            outcome = outcome_at.get(index)
            if outcome is None:
                outcome = outcome_at[replay_of[index]]
                if outcome.ok and outcome.report.dataflow_name != dataflow.name:
                    outcome = EvalOutcome(
                        report=replace(outcome.report, dataflow_name=dataflow.name),
                        cached=outcome.cached,
                    )
            if not outcome.ok:
                rejected += 1
                continue
            report = outcome.report
            if max_l1_bytes is not None and report.l1_buffer_req > max_l1_bytes:
                rejected += 1
                continue
            if max_l2_bytes is not None and report.l2_buffer_req > max_l2_bytes:
                rejected += 1
                continue
            scored.append(
                ScoredCandidate(spec=spec, dataflow=dataflow, report=report, score=score_fn(report))
            )
        if not scored:
            raise DataflowError(f"no tuner candidate is feasible for layer {layer.name!r}")
        scored.sort(key=lambda candidate: candidate.score)
    obs.inc("tuner.candidates_evaluated", len(scored))
    obs.inc("tuner.pruned_by_lint", statically_rejected)
    obs.inc("tuner.pruned_by_verify", coverage_rejected)
    obs.inc("tuner.pruned_by_comm", comm_rejected)
    return TunerResult(
        layer_name=layer.name,
        objective=objective,
        best=scored[0],
        top=tuple(scored[:top_k]),
        evaluated=len(scored),
        rejected=rejected,
        statically_rejected=statically_rejected,
        coverage_rejected=coverage_rejected,
        comm_rejected=comm_rejected,
        equiv_replayed=equiv_replayed,
        cache_hits=batch.stats.cache_hits,
        cost_model_calls=batch.stats.submitted,
        elapsed_seconds=time.perf_counter() - start,
    )


def tune_network(
    network: Network,
    accelerator: Accelerator,
    objective: str = "runtime",
    **kwargs,
) -> Dict[str, TunerResult]:
    """Tune every layer of a network independently."""
    return {
        layer.name: tune_layer(layer, accelerator, objective, **kwargs)
        for layer in network.layers
    }
