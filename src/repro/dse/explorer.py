"""The pruned design-space sweep (the paper's DSE tool, Section 5.2).

For every (PEs, bandwidth, dataflow-variant) triple the explorer:

1. prunes by lower-bound area/power *before* touching the cost model —
   if PEs + NoC alone exceed the budget, every buffer choice above them
   does too, so the whole subspace is skipped (the optimization behind
   the paper's 0.17M designs/second effective rate);
2. rejects statically unbindable mappings via the lint engine;
3. evaluates every surviving candidate through the batch-evaluation
   backend (:mod:`repro.exec`): memoized against previous sweeps and,
   for large miss sets, fanned out over worker processes — results are
   bit-identical to the serial loop, in the same order;
4. sizes L1/L2 exactly to the model's reported requirement and applies
   the area/power constraint to the resulting concrete design;
5. records the point and maintains throughput-, energy-, and
   EDP-optimized leaders plus the full valid set for Pareto analysis.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro import obs
from repro.dse.space import DesignPoint, DesignSpace
from repro.errors import DataflowError
from repro.exec import AnalysisCache, BatchEvaluator, EvalPoint
from repro.hardware.accelerator import Accelerator, NoC
from repro.hardware.area import DEFAULT_AREA_MODEL, AreaModel
from repro.hardware.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from repro.lint.engine import required_pes, static_errors
from repro.model.layer import Layer
from repro.util.pareto import pareto_front


@dataclass(frozen=True)
class DSEStatistics:
    """Sweep statistics, the paper's Figure 13(c) table.

    ``pruned`` includes ``static_rejects``: mapping×hardware points the
    static mapping analyzer rejected without a cost-model run.
    ``cost_model_calls`` counts the points that needed a cost-model
    answer — memoized (``cache_hits``) or freshly evaluated (including
    evaluations that were rejected by binding) — so the lint pruning win
    stays measurable with the cache on. With ``equiv_prune``,
    ``equiv_replays`` counts grid points satisfied by replaying an
    equivalent candidate's outcome instead of a cost-model call. The
    sweep invariant checked by :func:`explore`::

        explored == space.size
        cost_model_calls + pruned + equiv_replays == explored
        evaluated <= cost_model_calls  (failures are the difference)
    """

    explored: int
    evaluated: int
    valid: int
    pruned: int
    elapsed_seconds: float
    static_rejects: int = 0
    coverage_rejects: int = 0
    cost_model_calls: int = 0
    cache_hits: int = 0
    executor: str = "serial"
    eval_wall_seconds: float = 0.0
    #: Points whose mapping the communication classifier proved to race
    #: (spatially mapped reduction on reduction-free hardware) under
    #: ``comm_prune``; zero whenever the hardware supports reduction.
    comm_rejects: int = 0
    #: Points answered by replaying an equivalence-class representative's
    #: outcome (``equiv_prune``): same canonical key at the same grid
    #: point, so the cost model's answer is provably identical.
    equiv_replays: int = 0

    @property
    def effective_rate(self) -> float:
        """Explored designs per second (pruned subspaces included)."""
        return self.explored / self.elapsed_seconds if self.elapsed_seconds else 0.0


@dataclass(frozen=True)
class DSEResult:
    """All valid designs plus the per-objective optima."""

    points: Tuple[DesignPoint, ...]
    statistics: DSEStatistics
    throughput_optimal: Optional[DesignPoint]
    energy_optimal: Optional[DesignPoint]
    edp_optimal: Optional[DesignPoint]

    def pareto(self) -> List[DesignPoint]:
        """Throughput/energy Pareto front of the valid designs."""
        return pareto_front(
            list(self.points),
            objectives=[lambda p: -p.throughput, lambda p: p.energy],
        )


def explore(
    layer: Layer,
    space: DesignSpace,
    area_budget: float,
    power_budget: float,
    area_model: AreaModel = DEFAULT_AREA_MODEL,
    energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
    noc_latency: int = 2,
    static_lint: bool = True,
    verify_coverage: bool = False,
    executor: str = "auto",
    jobs: Optional[int] = None,
    cache: Union[bool, AnalysisCache, None] = True,
    spatial_reduction: bool = True,
    noc_multicast: bool = True,
    comm_prune: bool = False,
    equiv_prune: bool = False,
) -> DSEResult:
    """Sweep ``space`` for ``layer`` under the given budgets.

    With ``static_lint`` (the default) every dataflow variant is checked
    once by the static mapping analyzer; points whose mapping cannot
    bind (wrong sizes, duplicated dims, cluster hierarchy larger than
    the PE array) are counted into ``pruned`` without paying a
    cost-model evaluation. The check is binding-equivalent, so the
    surviving set — and therefore every optimum — is identical to a
    sweep with ``static_lint=False``.

    With ``verify_coverage`` the iteration-space verifier
    (:mod:`repro.verify`) additionally checks each variant once against
    the layer and prunes variants *proven* not to cover the compute
    space exactly once (``coverage_rejects``). The pruning is sound:
    only mappings refuted with a concrete missed or double-counted MAC
    are dropped, so the optima over *correct* mappings are unchanged
    (and bit-identical when every variant is sound).

    ``executor``/``jobs``/``cache`` configure the batch-evaluation
    backend (:mod:`repro.exec`); every combination returns bit-identical
    results, so they are pure performance knobs. Grid-shaped sweeps
    auto-select the ``vector`` executor, which evaluates a whole
    hardware grid per (layer, dataflow) through the NumPy engine
    (:mod:`repro.vector`); pruning passes compose with it by shrinking
    the groups before they reach the backend.

    ``spatial_reduction`` and ``noc_multicast`` set the communication
    capabilities of every swept accelerator (the Table 5 switches). With
    ``comm_prune`` on *reduction-free* hardware
    (``spatial_reduction=False``), each variant is probe-classified once
    by the communication analyzer (:mod:`repro.comm`) and grid points
    where the mapping spatially maps a reduction-carried dimension —
    i.e. would race its output writes, the DF300 hazard — are rejected
    (``comm_rejects``) before any cost-model call. The screen factors
    the classification by PE count (inner-level races are PE-count
    independent; a top-level race needs two or more top clusters), so
    one probe decides every grid point. On reduction-capable hardware
    the screen is inert by construction, so optima are bit-identical
    with or without ``comm_prune``; variants the classifier cannot bind
    or classify are never pruned.

    With ``equiv_prune`` the mapping axis is quotiented by the
    equivalence analyzer (:mod:`repro.equiv`): each variant's canonical
    form is computed once, and at every (PEs, bandwidth) grid point only
    one representative per equivalence class pays a cost-model call —
    the other members replay its outcome (``equiv_replays``). Classes
    use the exact canonical key, extended to the symmetry orbit only
    where the integer-activity certificate proves transposed twins
    bit-identical, so every replayed outcome is provably equal to what
    the cost model would have returned and all optima are bit-identical
    to the unquotiented sweep. Variants the analyzer cannot certify fall
    back to raw-spelling identity and are never grouped beyond it.

    There is no symbolic (interval branch-and-bound) or static-capacity
    screen: under the vector executor both cost more wall time than the
    evaluations they skipped, so every surviving candidate goes through
    one evaluate-and-fold path.
    """
    start = time.perf_counter()
    explored = pruned = static_rejects = coverage_rejects = comm_rejects = 0

    def make_noc(bandwidth: int) -> NoC:
        return NoC(
            bandwidth=bandwidth, avg_latency=noc_latency, multicast=noc_multicast
        )

    # One static pass per variant: the layer-only lint verdict and the
    # PE demand of the cluster hierarchy (compared per PE count below).
    variant_lint: dict = {}
    if static_lint:
        with obs.span("dse.static_screen"):
            for label, dataflow in space.dataflow_variants:
                try:
                    needed = required_pes(dataflow, layer)
                except DataflowError:
                    variant_lint[(label, dataflow.name)] = (True, 0)
                    continue
                errors = static_errors(dataflow, layer)
                variant_lint[(label, dataflow.name)] = (bool(errors), needed)

    # One coverage verification per variant (the layer is fixed, so the
    # verdict is independent of the hardware grid): refuted variants are
    # pruned from every grid point they would have occupied.
    variant_refuted: dict = {}
    if verify_coverage:
        with obs.span("dse.verify_screen"):
            from repro.verify import Verdict, verify_dataflow

            for label, dataflow in space.dataflow_variants:
                key = (label, dataflow.name)
                if static_lint and variant_lint.get(key, (False, 0))[0]:
                    continue  # already rejected statically
                try:
                    result = verify_dataflow(dataflow, layer)
                except Exception:
                    continue  # never let verification break the sweep
                variant_refuted[key] = result.verdict is Verdict.REFUTED

    # One communication probe per variant: only meaningful (and only
    # run) when the swept hardware lacks spatial reduction, so the
    # screen cannot touch a capable-hardware sweep. A probe that cannot
    # classify (binding failure, exotic mapping) yields no demand and
    # never prunes.
    variant_demand: dict = {}
    if comm_prune and not spatial_reduction:
        with obs.span("dse.comm_screen"):
            from repro.comm import reduction_demand

            for label, dataflow in space.dataflow_variants:
                key = (label, dataflow.name)
                if static_lint and variant_lint.get(key, (False, 0))[0]:
                    continue  # already rejected statically
                if verify_coverage and variant_refuted.get(key):
                    continue  # already rejected by the verifier
                try:
                    variant_demand[key] = reduction_demand(dataflow, layer)
                except Exception:
                    continue  # never let classification break the sweep

    # One canonical form per variant (layer fixed, so the form — and the
    # layer's symmetry group — are independent of the hardware grid).
    # Only the orbit extension depends on the PE count, decided per grid
    # point below by the integer-activity certificate.
    variant_form: dict = {}
    equiv_symmetries: tuple = ()
    if equiv_prune:
        with obs.span("dse.equiv_screen"):
            from repro.equiv import canonicalize, layer_symmetries

            equiv_symmetries = layer_symmetries(layer)
            for label, dataflow in space.dataflow_variants:
                variant_form[(label, dataflow.name)] = canonicalize(dataflow, layer)

    # ------------------------------------------------------------------
    # Phase 1 — enumerate: classify every grid point as budget-pruned,
    # statically rejected, or a candidate for the cost model.
    # ------------------------------------------------------------------
    candidates: List[Tuple[int, int, str, object]] = []  # (pes, bw, label, flow)
    with obs.span("dse.enumerate"):
        for num_pes in space.pe_counts:
            # Prune the whole PE row if even the cheapest NoC busts the budget.
            min_bw = min(space.noc_bandwidths)
            if (
                area_model.min_area(num_pes, min_bw) > area_budget
                or area_model.min_power(num_pes, min_bw) > power_budget
            ):
                pruned += len(space.noc_bandwidths) * len(space.dataflow_variants)
                explored += len(space.noc_bandwidths) * len(space.dataflow_variants)
                continue
            for bandwidth in space.noc_bandwidths:
                if (
                    area_model.min_area(num_pes, bandwidth) > area_budget
                    or area_model.min_power(num_pes, bandwidth) > power_budget
                ):
                    pruned += len(space.dataflow_variants)
                    explored += len(space.dataflow_variants)
                    continue
                for label, dataflow in space.dataflow_variants:
                    explored += 1
                    if static_lint:
                        bad, needed = variant_lint[(label, dataflow.name)]
                        if bad or needed > num_pes:
                            pruned += 1
                            static_rejects += 1
                            continue
                    if verify_coverage and variant_refuted.get((label, dataflow.name)):
                        pruned += 1
                        coverage_rejects += 1
                        continue
                    demand = variant_demand.get((label, dataflow.name))
                    if demand is not None and demand.races_on(num_pes):
                        pruned += 1
                        comm_rejects += 1
                        continue
                    candidates.append((num_pes, bandwidth, label, dataflow))

    def fold_point(
        num_pes: int, bandwidth: int, label: str, dataflow, report
    ) -> Optional[DesignPoint]:
        """Size the buffers, apply the budget, build the design point."""
        l1 = max(report.l1_buffer_req, 1)
        l2 = max(report.l2_buffer_req, 1)
        sized = Accelerator(
            num_pes=num_pes,
            l1_size=l1,
            l2_size=l2,
            noc=make_noc(bandwidth),
            spatial_reduction=spatial_reduction,
        )
        area = area_model.area(sized)
        power = area_model.power(sized)
        if area > area_budget or power > power_budget:
            return None
        return DesignPoint(
            num_pes=num_pes,
            noc_bandwidth=bandwidth,
            dataflow_name=dataflow.name,
            tile_label=label,
            l1_size=l1,
            l2_size=l2,
            area=area,
            power=power,
            throughput=report.throughput,
            runtime=report.runtime,
            energy=report.energy_total,
        )

    # ------------------------------------------------------------------
    # Phase 2 — evaluate the candidates through the batch backend. Under
    # equiv_prune, pick one representative per (PEs, bandwidth,
    # equivalence class); the other members replay its outcome. The
    # orbit key is used only where the integer-activity certificate
    # proves transposed twins bit-identical at that PE count.
    # ------------------------------------------------------------------
    eval_indices = list(range(len(candidates)))
    replay_of: dict = {}  # candidate index -> representative index
    if variant_form:
        from repro.equiv import integral_active, orbit_key

        representatives: dict = {}
        eval_indices = []
        for index, (num_pes, bandwidth, label, dataflow) in enumerate(candidates):
            form = variant_form[(label, dataflow.name)]
            class_key = form.key
            if equiv_symmetries and integral_active(form, num_pes):
                class_key = orbit_key(class_key, equiv_symmetries)
            group = (num_pes, bandwidth, class_key)
            representative = representatives.get(group)
            if representative is None:
                representatives[group] = index
                eval_indices.append(index)
            else:
                replay_of[index] = representative
        obs.inc("dse.pruned_by_equiv", len(replay_of))
    equiv_replays = len(replay_of)

    evaluator = BatchEvaluator(executor=executor, jobs=jobs, cache=cache)
    with obs.span("dse.evaluate", candidates=len(eval_indices)):
        batch = evaluator.evaluate(
            EvalPoint(
                layer=layer,
                dataflow=candidates[index][3],
                accelerator=Accelerator(
                    num_pes=candidates[index][0],
                    noc=make_noc(candidates[index][1]),
                    spatial_reduction=spatial_reduction,
                ),
                energy_model=energy_model,
            )
            for index in eval_indices
        )
    outcome_at = dict(zip(eval_indices, batch))

    # ------------------------------------------------------------------
    # Phase 3 — fold the valid points in enumeration order: the leaders
    # are first-achiever-stable, so the optima do not depend on which
    # candidates were replayed or how the backend batched them.
    # ------------------------------------------------------------------
    evaluated = 0
    points: List[DesignPoint] = []
    best = {"throughput": None, "energy": None, "edp": None}
    with obs.span("dse.fold"):
        for index, (num_pes, bandwidth, label, dataflow) in enumerate(candidates):
            outcome = outcome_at.get(index)
            replayed = outcome is None
            if replayed:
                outcome = outcome_at[replay_of[index]]
            if not outcome.ok:
                continue
            if not replayed:
                evaluated += 1
            point = fold_point(num_pes, bandwidth, label, dataflow, outcome.report)
            if point is not None:
                points.append(point)
                _update_leaders(best, point)

    # The ExploreResult invariant, explicit: every grid point is
    # accounted for exactly once — budget-pruned, lint-rejected, replayed,
    # or answered by the cost model (evaluated successfully or failed).
    calls_submitted = batch.stats.submitted
    failures = calls_submitted - evaluated
    budget_pruned = pruned - static_rejects - coverage_rejects - comm_rejects
    assert explored == space.size, (
        f"enumeration drift: walked {explored} of {space.size} grid points"
    )
    assert (
        evaluated
        + failures
        + static_rejects
        + coverage_rejects
        + comm_rejects
        + budget_pruned
        + equiv_replays
        == space.size
    ), (
        f"statistics drift: evaluated={evaluated} failures={failures} "
        f"static_rejects={static_rejects} coverage_rejects={coverage_rejects} "
        f"comm_rejects={comm_rejects} budget_pruned={budget_pruned} "
        f"equiv_replays={equiv_replays} "
        f"do not partition the {space.size}-point grid"
    )

    elapsed = time.perf_counter() - start
    obs.inc("dse.points_explored", explored)
    obs.inc("dse.mappings_evaluated", evaluated)
    obs.inc("dse.pruned_by_lint", static_rejects)
    obs.inc("dse.pruned_by_verify", coverage_rejects)
    obs.inc("dse.pruned_by_comm", comm_rejects)
    statistics = DSEStatistics(
        explored=explored,
        evaluated=evaluated,
        valid=len(points),
        pruned=pruned,
        elapsed_seconds=elapsed,
        static_rejects=static_rejects,
        coverage_rejects=coverage_rejects,
        cost_model_calls=calls_submitted,
        cache_hits=batch.stats.cache_hits,
        executor=batch.stats.executor,
        eval_wall_seconds=batch.stats.wall_seconds,
        comm_rejects=comm_rejects,
        equiv_replays=equiv_replays,
    )
    return DSEResult(
        points=tuple(points),
        statistics=statistics,
        throughput_optimal=best["throughput"],
        energy_optimal=best["energy"],
        edp_optimal=best["edp"],
    )


def _update_leaders(best: dict, point: DesignPoint) -> None:
    if best["throughput"] is None or point.throughput > best["throughput"].throughput:
        best["throughput"] = point
    if best["energy"] is None or point.energy < best["energy"].energy:
        best["energy"] = point
    if best["edp"] is None or point.edp < best["edp"].edp:
        best["edp"] = point
