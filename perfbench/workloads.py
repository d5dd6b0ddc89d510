"""The benchmark's four workloads.

Each workload builds its inputs from the seed, times the user-visible
operations it repeats for ``--seconds``, and checks every output right
after the operation's timed region: against a committed digest
(``golden.json``) or, for the server, against the in-process answer.

Every workload fills the same two end-to-end slots (:data:`SLOTS`), a
primary and a secondary rate, so that one metric list covers them all;
each workload's ``slots`` says which of its own named figures fills each
slot. The report prints every figure under its own name, including the
medians and tails that are not gated.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench import loadgen, stats
from perfbench.calibrate import HostSpeed
from perfbench.tracing import Tracer, untraced

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: The gated end-to-end slots every workload fills, besides set-up and
#: memory. Latency medians and tails are reported, not gated: on a
#: 2-vCPU VM the server's spread 44-53 % of their median over ten seeds.
SLOTS = ("a_per_s", "b_per_s")

#: Fig. 13 budget: the Eyeriss chip's 16 mm^2 and 450 mW.
AREA_BUDGET = 16.0
POWER_BUDGET = 450.0


def digest(value: Any) -> str:
    """Short content hash of a JSON-able value (floats at full precision)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_golden() -> Dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


class Checker:
    """Counts operations and the ones whose output was wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def expect(self, label: str, expected: Any, actual: Any) -> bool:
        self.attempted += 1
        if expected == actual:
            return True
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(f"{label}: expected {expected!r}, got {actual!r}")
        return False


@dataclass
class RunResult:
    """What one timed run of a workload measured."""

    #: Figures under their own names: ``name -> (value, unit)``.
    named: Dict[str, Tuple[float, str]]
    #: Timing summaries (median, tail, tail percentile, count) by name.
    timings: Dict[str, Dict[str, float]]
    checker: Checker
    #: Share of the timed work no traced span covers (traced runs).
    unattributed_share: float = 0.0
    #: Per-layer figures only the workload can measure (the server's).
    layer_extra: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Base class: ``setup`` once, ``run`` one or more times, ``close``."""

    name = ""
    #: ``slot -> named figure`` for this workload.
    slots: Dict[str, str] = {}
    #: The named rate compared between untraced and traced runs.
    overhead_basis = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.golden = load_golden().get(self.name, {})

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, tracer: Optional[Tracer] = None) -> RunResult:
        raise NotImplementedError

    def close(self) -> None:
        pass


def _rounds_left(deadline: float, rounds: int, round_s: float) -> bool:
    """Another whole round fits before ``deadline`` (always run one)."""
    return rounds == 0 or time.perf_counter() + round_s <= deadline


# ----------------------------------------------------------------------
# dse_fig13
# ----------------------------------------------------------------------
def dse_digest(result: Any) -> str:
    """Pareto front plus the three optima of one sweep."""
    optima = (result.throughput_optimal, result.energy_optimal, result.edp_optimal)
    return digest(
        {
            "front": [dataclasses.astuple(point) for point in result.pareto()],
            "optima": [dataclasses.astuple(p) if p is not None else None for p in optima],
        }
    )


class DseFig13(Workload):
    name = "dse_fig13"
    slots = {
        "a_per_s": "dse_cold_points_per_s",
        "b_per_s": "dse_warm_points_per_s",
    }
    overhead_basis = "dse_cold_points_per_s"
    SETTINGS = (("KC-P", "CONV2"), ("KC-P", "CONV11"), ("YR-P", "CONV2"), ("YR-P", "CONV11"))

    def setup(self) -> None:
        from repro.dse import explore
        from repro.dse.space import (
            DesignSpace, default_bandwidths, default_pe_counts,
            kc_partitioned_variants, yr_partitioned_variants,
        )
        from repro.exec import AnalysisCache
        from repro.model.zoo import build

        self._cache_type = AnalysisCache
        vgg16 = build("vgg16")
        self.layers = {name: vgg16.layer(name) for _, name in self.SETTINGS}
        self.spaces = {
            flow: DesignSpace(
                pe_counts=default_pe_counts(max_pes=512, step=16),
                noc_bandwidths=default_bandwidths(128),
                dataflow_variants=variants(),
            )
            for flow, variants in (
                ("KC-P", kc_partitioned_variants), ("YR-P", yr_partitioned_variants),
            )
        }
        # First-call set-up (NumPy kernels, lazily built tables): one
        # small vector sweep with the cache off.
        small = DesignSpace(
            pe_counts=default_pe_counts(max_pes=256, step=16),
            noc_bandwidths=[32],
            dataflow_variants=kc_partitioned_variants()[:1],
        )
        explore(self.layers["CONV2"], small, AREA_BUDGET, POWER_BUDGET,
                executor="vector", cache=False)

    def run(self, seconds: float, tracer: Optional[Tracer] = None) -> RunResult:
        # Called through the package at call time, so a traced run sees
        # the wrapped function.
        from repro import dse

        rng = random.Random(self.seed)
        checker = Checker()
        deadline = time.perf_counter() + seconds
        speed = HostSpeed()
        cold, warm = stats.RoundTimes(), stats.RoundTimes()
        rounds = 0
        round_s = 0.0
        while _rounds_left(deadline, rounds, round_s):
            round_start = time.perf_counter()
            order = list(self.SETTINGS)
            rng.shuffle(order)
            for flow, layer_name in order:
                layer, space = self.layers[layer_name], self.spaces[flow]
                # Pass 1 fills a fresh cache (writes); pass 2 reads it. A
                # sweep takes about half a second, so each is scaled by
                # loop samples taken right before and right after it.
                cache = self._cache_type()
                results = []
                for times in (cold, warm):
                    with untraced():
                        speed.sample(repeats=4)
                    t0 = time.perf_counter()
                    results.append(
                        dse.explore(layer, space, AREA_BUDGET, POWER_BUDGET, cache=cache)
                    )
                    times.add((flow, layer_name), time.perf_counter() - t0)
                    with untraced():
                        speed.sample(repeats=4)
                    times.end_round(speed.end_round())
                with untraced():
                    expected = self.golden.get(f"{flow}/{layer_name}")
                    for result in results:
                        checker.expect(f"{flow}/{layer_name} front", expected, dse_digest(result))
                        checker.expect(
                            f"{flow}/{layer_name} explored",
                            space.size, result.statistics.explored,
                        )
            rounds += 1
            round_s = time.perf_counter() - round_start
        # KC-P and YR-P grids differ in size, so rates are points over a
        # typical round's time, not medians over single sweeps.
        points = sum(self.spaces[flow].size for flow, _ in self.SETTINGS)
        cold_round = stats.median_total(cold.ref)
        warm_round = stats.median_total(warm.ref)
        cold_summary = stats.summary(cold.samples(), 1e3)
        warm_summary = stats.summary(warm.samples(), 1e3)
        # A run holds only a few dozen sweeps: the tail pools both passes.
        any_summary = stats.summary(cold.samples() + warm.samples(), 1e3)
        timed = sum(cold.samples()) + sum(warm.samples())
        return RunResult(
            named={
                "dse_cold_points_per_s": (points / cold_round, "1/s"),
                "dse_warm_points_per_s": (points / warm_round, "1/s"),
                "dse_cold_points_per_s_raw": (points / stats.median_total(cold.raw), "1/s"),
                "dse_warm_points_per_s_raw": (points / stats.median_total(warm.raw), "1/s"),
                "dse_cold_sweep_ms": (
                    stats.median_total(cold.raw) * 1e3 / len(self.SETTINGS), "ms",
                ),
                "dse_warm_sweep_ms": (
                    stats.median_total(warm.raw) * 1e3 / len(self.SETTINGS), "ms",
                ),
                "dse_sweep_tail_ms": (any_summary["tail"], "ms"),
                "host_slowdown": (speed.run_factor(), "ratio"),
            },
            timings={
                "cold_sweep_ms": cold_summary,
                "warm_sweep_ms": warm_summary,
                "sweep_ms": any_summary,
            },
            checker=checker,
            unattributed_share=_unattributed(tracer, timed),
        )


def _unattributed(tracer: Optional[Tracer], timed_s: float) -> float:
    """Share of the timed operations outside every top-level span."""
    if tracer is None or timed_s <= 0:
        return 0.0
    return max(0.0, timed_s - tracer.root_s) / timed_s


# ----------------------------------------------------------------------
# mapping_search
# ----------------------------------------------------------------------
def network_digest(analysis: Any) -> str:
    return digest([analysis.runtime, analysis.energy_total])


def tuner_digest(result: Any) -> str:
    return digest(
        {
            "top": [
                [c.dataflow.name, c.score, c.report.runtime, c.report.energy_total]
                for c in result.top
            ],
            "counts": [result.evaluated, result.rejected, result.statically_rejected],
        }
    )


class MappingSearch(Workload):
    name = "mapping_search"
    slots = {
        "a_per_s": "analyze_layers_per_s",
        "b_per_s": "tune_candidates_per_s",
    }
    overhead_basis = "analyze_layers_per_s"
    MODELS = ("resnet50", "vgg16", "resnext50", "mobilenet_v2", "unet")
    TUNE = (("CONV2", 64), ("CONV2", 256), ("CONV11", 64), ("CONV11", 256))

    def setup(self) -> None:
        from repro.dataflow.library import table3_dataflows
        from repro.engines.analysis import analyze_layer
        from repro.exec import AnalysisCache
        from repro.hardware.accelerator import Accelerator, NoC
        from repro.model.zoo import build
        from repro.tuner import enumerate_candidates, tune_layer

        self._cache_type = AnalysisCache
        self.networks = {name: build(name) for name in self.MODELS}
        self.flows = table3_dataflows()
        # Fig. 10: 256 PEs, NoC bandwidth 32.
        self.accelerator = Accelerator(num_pes=256, noc=NoC(bandwidth=32))
        self.tune_accelerators = {
            pes: Accelerator(num_pes=pes, noc=NoC(bandwidth=32)) for _, pes in self.TUNE
        }
        vgg16 = self.networks["vgg16"]
        analyze_layer(vgg16.layer("CONV1"), self.flows["KC-P"], self.accelerator)
        tune_layer(
            vgg16.layer("CONV1"), self.accelerator,
            candidates=list(enumerate_candidates())[:8], executor="serial", cache=False,
        )

    def run(self, seconds: float, tracer: Optional[Tracer] = None) -> RunResult:
        from repro import tuner
        from repro.engines import analysis as engines

        rng = random.Random(self.seed)
        checker = Checker()
        deadline = time.perf_counter() + seconds
        ops: List[Tuple[str, str, Any]] = [
            ("net", model, flow) for model in self.MODELS for flow in self.flows
        ] + [("tune", layer, pes) for layer, pes in self.TUNE]
        per_layer_ms: List[float] = []
        tune_ms: List[float] = []
        speed = HostSpeed()
        net_s, tune_s = stats.RoundTimes(), stats.RoundTimes()
        # The work each operation does, the same in every round.
        layers: Dict[Tuple[str, str], int] = {}
        candidates: Dict[Tuple[str, int], int] = {}
        rounds = 0
        round_s = 0.0
        while _rounds_left(deadline, rounds, round_s):
            round_start = time.perf_counter()
            rng.shuffle(ops)
            for kind, name, arg in ops:
                if kind == "net":
                    t0 = time.perf_counter()
                    analysis = engines.analyze_network(
                        self.networks[name], self.flows[arg], self.accelerator
                    )
                    elapsed = time.perf_counter() - t0
                    with untraced():
                        checker.expect(
                            f"{name}/{arg}", self.golden.get("network", {}).get(f"{name}/{arg}"),
                            network_digest(analysis),
                        )
                    count = len(analysis.layer_reports)
                    layers[name, arg] = count
                    net_s.add((name, arg), elapsed)
                    per_layer_ms.append(elapsed * 1e3 / count)
                else:
                    layer = self.networks["vgg16"].layer(name)
                    # A fresh cache per call: every candidate is evaluated.
                    # One executor process: the scalar engines do the work
                    # in this process, where the traced run sees them.
                    t0 = time.perf_counter()
                    result = tuner.tune_layer(
                        layer, self.tune_accelerators[arg],
                        executor="serial", cache=self._cache_type(),
                    )
                    elapsed = time.perf_counter() - t0
                    with untraced():
                        checker.expect(
                            f"tune {name}@{arg}",
                            self.golden.get("tune", {}).get(f"{name}@{arg}"),
                            tuner_digest(result),
                        )
                    candidates[name, arg] = result.evaluated + result.rejected
                    tune_s.add((name, arg), elapsed)
                    tune_ms.append(elapsed * 1e3)
                speed.sample(repeats=2)
            slowdown = speed.end_round()
            net_s.end_round(slowdown)
            tune_s.end_round(slowdown)
            rounds += 1
            round_s = time.perf_counter() - round_start
        # Fig. 9's "ms per layer" over every model in a typical round: the
        # models' per-layer costs differ, so a median over single calls
        # would fall between them.
        net_round = stats.median_total(net_s.ref)
        tune_round = stats.median_total(tune_s.ref)
        all_layers = sum(layers.values())
        all_candidates = sum(candidates.values())
        timed = sum(net_s.samples()) + sum(tune_s.samples())
        layer_summary = stats.summary(per_layer_ms)
        tune_summary = stats.summary(tune_ms)
        return RunResult(
            named={
                "analyze_layers_per_s": (all_layers / net_round, "1/s"),
                "tune_candidates_per_s": (all_candidates / tune_round, "1/s"),
                "analyze_layers_per_s_raw": (
                    all_layers / stats.median_total(net_s.raw), "1/s",
                ),
                "tune_candidates_per_s_raw": (
                    all_candidates / stats.median_total(tune_s.raw), "1/s",
                ),
                "analyze_ms_per_layer": (
                    stats.median_total(net_s.raw) * 1e3 / all_layers, "ms",
                ),
                "tune_call_ms": (tune_summary["p50"], "ms"),
                "analyze_ms_per_layer_tail": (layer_summary["tail"], "ms"),
                "host_slowdown": (speed.run_factor(), "ratio"),
            },
            timings={"analyze_ms_per_layer": layer_summary, "tune_call_ms": tune_summary},
            checker=checker,
            unattributed_share=_unattributed(tracer, timed),
        )


# ----------------------------------------------------------------------
# library_check
# ----------------------------------------------------------------------
def library_outcome(report: Any, verdict: Any) -> str:
    """What ``golden.json`` stores per pair: lint codes, in order, and the verdict."""
    return ",".join(d.code for d in report.diagnostics) + "|" + verdict.verdict.value


class LibraryCheck(Workload):
    name = "library_check"
    slots = {
        "a_per_s": "lint_pairs_per_s",
        "b_per_s": "verify_pairs_per_s",
    }
    overhead_basis = "lint_pairs_per_s"
    MODELS = ("vgg16", "mobilenet_v2")
    #: Every this-many-th pair of the catalogue (model, layer, dataflow
    #: order) is checked in each round. Coprime with the catalogue's 8
    #: dataflows, so the 96 pairs cover every layer and each dataflow
    #: equally; a round is short enough for a run to repeat it.
    STRIDE = 7

    def setup(self) -> None:
        from repro.equiv.crosscheck import library_flows
        from repro.hardware.accelerator import Accelerator
        from repro.lint import lint_dataflow
        from repro.model.zoo import build
        from repro.verify import verify_dataflow

        # The stock catalogue: Table 3 plus RS, WS-K and OS-YX.
        self.flows = library_flows(include_playground=False)
        self.accelerator = Accelerator(num_pes=256)
        self.pairs = [
            (f"{model}/{layer.name}/{flow_name}", layer, flow)
            for model in self.MODELS
            for layer in build(model).layers
            for flow_name, flow in self.flows.items()
        ][::self.STRIDE]
        _, layer, flow = self.pairs[0]
        lint_dataflow(flow, layer, self.accelerator)
        verify_dataflow(flow, layer)

    def run(self, seconds: float, tracer: Optional[Tracer] = None) -> RunResult:
        from repro import lint, verify

        rng = random.Random(self.seed)
        checker = Checker()
        deadline = time.perf_counter() + seconds
        speed = HostSpeed()
        lint_s, verify_s = stats.RoundTimes(), stats.RoundTimes()
        order = list(self.pairs)
        rounds = 0
        round_s = 0.0
        while _rounds_left(deadline, rounds, round_s):
            round_start = time.perf_counter()
            rng.shuffle(order)
            for key, layer, flow in order:
                t0 = time.perf_counter()
                report = lint.lint_dataflow(flow, layer, self.accelerator)
                t1 = time.perf_counter()
                verdict = verify.verify_dataflow(flow, layer)
                t2 = time.perf_counter()
                with untraced():
                    checker.expect(key, self.golden.get(key), library_outcome(report, verdict))
                    speed.sample()
                lint_s.add(key, t1 - t0)
                verify_s.add(key, t2 - t1)
            slowdown = speed.end_round()
            lint_s.end_round(slowdown)
            verify_s.end_round(slowdown)
            rounds += 1
            round_s = time.perf_counter() - round_start
        pairs = len(self.pairs)
        lint_summary = stats.summary(lint_s.samples(), 1e3)
        verify_summary = stats.summary(verify_s.samples(), 1e3)
        return RunResult(
            named={
                "lint_pairs_per_s": (pairs / stats.median_total(lint_s.ref), "1/s"),
                "verify_pairs_per_s": (pairs / stats.median_total(verify_s.ref), "1/s"),
                "lint_pairs_per_s_raw": (pairs / stats.median_total(lint_s.raw), "1/s"),
                "verify_pairs_per_s_raw": (pairs / stats.median_total(verify_s.raw), "1/s"),
                "lint_pair_ms": (lint_summary["p50"], "ms"),
                "verify_pair_ms": (verify_summary["p50"], "ms"),
                "lint_pair_tail_ms": (lint_summary["tail"], "ms"),
                "host_slowdown": (speed.run_factor(), "ratio"),
            },
            timings={"lint_pair_ms": lint_summary, "verify_pair_ms": verify_summary},
            checker=checker,
            unattributed_share=_unattributed(
                tracer, sum(lint_s.samples()) + sum(verify_s.samples())
            ),
        )


# ----------------------------------------------------------------------
# serve_analyze
# ----------------------------------------------------------------------
Key = Tuple[str, str, str, int]


class ServeAnalyze(Workload):
    name = "serve_analyze"
    slots = {
        "a_per_s": "serve_max_rps",
        "b_per_s": "serve_saturated_rps",
    }
    overhead_basis = "serve_saturated_rps"
    #: ``(offered requests/s, share of --seconds)``, lowest rate first.
    #: The top rung is past the server's capacity on purpose: it
    #: measures the saturated throughput. It is sent as bursts of the
    #: share given here, each drained before the next, until the run's
    #: time is up, and its throughput is their median: one burst's
    #: backlog stays far below the server's admission queue, a second in
    #: which the host stalls moves one burst, not the figure, and a slow
    #: host gets fewer bursts, not a longer run.
    LADDER = ((2.5, 0.08), (5.0, 0.24), (40.0, 0.05))
    #: The top rung sends at least this many bursts.
    MIN_BURSTS = 3
    #: The tail latency a rung must meet, from due time.
    LIMIT_MS = 250.0
    HOT_SHARE = 0.8
    #: Arrival times come from this fixed seed, not the run's seed: the
    #: run's seed picks the requests, while every run sees the same
    #: Poisson bursts, so runs differ by what was asked, not by luck in
    #: how arrivals clustered.
    SCHEDULE_SEED = 7919
    #: The small repeated set: served from the cache after warm-up.
    HOT: Tuple[Key, ...] = (
        ("vgg16", "CONV1", "KC-P", 256),
        ("vgg16", "CONV2", "YR-P", 256),
        ("vgg16", "CONV4", "X-P", 256),
        ("vgg16", "CONV6", "C-P", 256),
        ("vgg16", "CONV8", "YX-P", 256),
        ("vgg16", "CONV10", "KC-P", 256),
        ("vgg16", "CONV11", "YR-P", 256),
        ("vgg16", "CONV13", "X-P", 256),
    )
    #: Fresh keys: a VGG16 convolution, a Table-3 dataflow and a PE
    #: count, never repeated. One model keeps the per-request lint cost
    #: of fresh and hot requests alike, so the two p50s compare.
    FRESH_MODEL = "vgg16"
    FRESH_PES = tuple(range(128, 1025, 8))
    BANDWIDTH = 32
    #: Server worker slots: the machine's two cores.
    MAX_CONCURRENCY = 2

    def setup(self) -> None:
        from repro.dataflow.library import table3_dataflows
        from repro.engines.analysis import analyze_layer
        from repro.exec import AnalysisCache
        from repro.exec.serialize import analysis_to_dict
        from repro.hardware.accelerator import Accelerator, NoC
        from repro.model.zoo import build
        from repro.serve import ServeConfig, ThreadedServer

        self._analyze, self._to_dict = analyze_layer, analysis_to_dict
        self._accelerator = lambda pes: Accelerator(num_pes=pes, noc=NoC(bandwidth=self.BANDWIDTH))
        self.networks = {self.FRESH_MODEL: build(self.FRESH_MODEL)}
        self.flows = table3_dataflows()
        # The lint gate's cost depends on the layer and dataflow (3-60 ms),
        # so every burst asks for the same mix: 10 fresh (layer, dataflow)
        # pairs, over 10 of the 13 convolutions and each Table-3 dataflow
        # twice, each with a PE count never sent before.
        convs = [
            layer.name for layer in self.networks[self.FRESH_MODEL].layers
            if layer.name.startswith("CONV")
        ]
        flows = list(self.flows)
        self.fresh_pairs = [
            (convs[3 * i % len(convs)], flows[i % len(flows)]) for i in range(10)
        ]
        self.rng = random.Random(self.seed)
        self.used: set = set(self.HOT)
        self.fresh_uses: Dict[Tuple[str, str], int] = {}
        self.references: Dict[Key, str] = {}
        self.server = ThreadedServer(
            ServeConfig(port=0, max_concurrency=self.MAX_CONCURRENCY, cache=AnalysisCache())
        )
        self.server.__enter__()
        self.phase = 0
        # Warm the shared cache with the hot set (the stated start state).
        warm = asyncio.run(
            loadgen.run_open_loop([0.0] * len(self.HOT), lambda i: self._send(self.HOT[i], f"warm-{i}"))
        )
        if not all(sample.status == 200 for sample in warm):
            raise RuntimeError(f"hot-set warm-up failed: {[s.status for s in warm]}")

    def close(self) -> None:
        self.server.stop()

    def _fresh_key(self, layer: str, flow: str) -> Key:
        """The next key for ``layer`` and ``flow`` this process never sent.

        PE counts are taken in a fixed order, not drawn: the PE count
        alone moves the lint gate's cost of a pair by up to 4x, so
        drawing them would let the seed move the throughput.
        """
        while True:
            uses = self.fresh_uses.get((layer, flow), 0)
            self.fresh_uses[layer, flow] = uses + 1
            # A stride coprime with the 113 counts visits them all, spread
            # over the range.
            pes = self.FRESH_PES[41 * uses % len(self.FRESH_PES)]
            key = (self.FRESH_MODEL, layer, flow, pes)
            if key not in self.used:
                self.used.add(key)
                return key

    def _send(self, key: Key, request_id: str) -> Any:
        model, layer, flow, pes = key
        doc = {
            "model": model, "layer": layer, "dataflow": flow,
            "accelerator": {"pes": pes, "bandwidth": self.BANDWIDTH},
        }
        return loadgen.post_json("127.0.0.1", self.server.port, "/v1/analyze", doc, request_id)

    def _reference(self, key: Key) -> str:
        """The in-process answer, as the JSON the server should have sent."""
        if key not in self.references:
            model, layer, flow, pes = key
            report = self._analyze(
                self.networks[model].layer(layer), self.flows[flow], self._accelerator(pes)
            )
            self.references[key] = json.dumps(self._to_dict(report), sort_keys=True)
        return self.references[key]

    def _check(self, checker: Checker, key: Key, sample: loadgen.Sample) -> None:
        """One check per request: HTTP 200 carrying the in-process report."""
        answer = None
        if sample.status == 200:
            layers = (sample.body or {}).get("layers") or [{}]
            answer = json.dumps(layers[0].get("report"), sort_keys=True)
        sample.correct = checker.expect(
            "/".join(map(str, key)), (200, self._reference(key)), (sample.status, answer)
        )

    def _sample_in_server(self, speed: HostSpeed, repeats: int) -> None:
        """Time the reference loop on the server's event-loop thread."""

        async def sample() -> None:
            speed.sample(repeats)

        loop = self.server.server._loop  # the running server's event loop
        asyncio.run_coroutine_threadsafe(sample(), loop).result()

    def _keys(self, count: int) -> List[Key]:
        """``count`` request keys in seeded order: exactly the hot share hot,
        the hot keys and the fresh pairs each taken in turn."""
        fresh = round(count * (1.0 - self.HOT_SHARE))
        keys = [self.HOT[i % len(self.HOT)] for i in range(count - fresh)] + [
            self._fresh_key(*self.fresh_pairs[i % len(self.fresh_pairs)]) for i in range(fresh)
        ]
        self.rng.shuffle(keys)
        return keys

    def run(self, seconds: float, tracer: Optional[Tracer] = None) -> RunResult:
        self.phase += 1
        checker = Checker()
        # The loop is sampled after each burst, while the server is idle,
        # and the saturated throughput is scaled by the run's median: a
        # burst's few samples miss the sub-second swings of the server's
        # threads' speed, while the run's median follows the host (README).
        speed = HostSpeed()
        #: ``(throughput, host slowdown)`` of each top-rung burst.
        bursts: List[Tuple[float, float]] = []
        rungs: List[loadgen.RungReport] = []
        samples_by_rung: List[Sequence[loadgen.Sample]] = []
        kinds_by_rung: List[List[str]] = []
        deadline = time.perf_counter() + seconds
        for rung, (rate, share) in enumerate(self.LADDER):
            top = rung == len(self.LADDER) - 1
            samples: List[loadgen.Sample] = []
            kinds: List[str] = []
            throughputs: List[float] = []
            episode = 0
            burst_s = 0.0
            while episode == 0 or (top and (
                episode < self.MIN_BURSTS or time.perf_counter() + burst_s <= deadline
            )):
                burst_start = time.perf_counter()
                offsets = loadgen.poisson_offsets(
                    random.Random(self.SCHEDULE_SEED + 100 * rung + episode),
                    rate, share * seconds,
                )
                keys = self._keys(len(offsets))
                prefix = f"p{self.phase}-r{rung}-e{episode}"
                part = asyncio.run(
                    loadgen.run_open_loop(offsets, lambda i: self._send(keys[i], f"{prefix}-{i}"))
                )
                with untraced():
                    for key, sample in zip(keys, part):
                        self._check(checker, key, sample)
                    # The server is idle now: nothing competes with the loop,
                    # run on the server's event-loop thread, which does most
                    # of a request's work.
                    self._sample_in_server(speed, repeats=10)
                throughput = loadgen.evaluate_rung(part, rate, self.LIMIT_MS).throughput
                throughputs.append(throughput)
                slowdown = speed.end_round()
                if top:
                    bursts.append((throughput, slowdown))
                samples += part
                kinds += ["hot" if key in self.HOT else "fresh" for key in keys]
                episode += 1
                burst_s = time.perf_counter() - burst_start
            report = loadgen.evaluate_rung(samples, rate, self.LIMIT_MS)
            rungs.append(dataclasses.replace(report, throughput=stats.median(throughputs)))
            samples_by_rung.append(samples)
            kinds_by_rung.append(kinds)

        passing = [report for report in rungs if report.meets_limit]
        middle = len(self.LADDER) // 2
        mid_samples, mid_kinds = samples_by_rung[middle], kinds_by_rung[middle]
        hot = [s.latency_ms for s, k in zip(mid_samples, mid_kinds) if k == "hot"]
        fresh = [s.latency_ms for s, k in zip(mid_samples, mid_kinds) if k == "fresh"]
        everything = [s.latency_ms for s in mid_samples]
        all_samples = [s for rung_samples in samples_by_rung for s in rung_samples]
        timings = {
            "hot_ms": stats.summary(hot),
            "fresh_ms": stats.summary(fresh),
            "all_ms": stats.summary(everything),
        }
        layer_extra = {
            "serve.gen_lag_ms": max(s.lag_ms for s in all_samples),
            "serve.requests.sent": len(all_samples),
            "serve.requests.ok": sum(1 for s in all_samples if s.ok),
            "serve.requests.failed": sum(1 for s in all_samples if not s.ok),
            "serve.requests.busy_503": sum(1 for s in all_samples if s.status == 503),
        }
        unattributed = 0.0
        if tracer is not None:
            # Latency not covered by the request's server-side spans, at
            # the middle rate (the top rung's backlog would swamp it).
            latency = wait = 0.0
            for sample in mid_samples:
                served = tracer.requests.get(f"p{self.phase}-r{middle}-e0-{sample.index}")
                if served is None or not sample.ok:
                    continue
                total = sample.done - sample.due
                latency += total
                wait += total - served[1]
            layer_extra["serve.wait_s"] = wait
            unattributed = wait / latency if latency else 0.0
        return RunResult(
            named={
                "serve_max_rps": (passing[-1].throughput if passing else 0.0, "1/s"),
                "serve_saturated_rps": (rungs[-1].throughput * speed.run_factor(), "1/s"),
                "serve_saturated_rps_raw": (rungs[-1].throughput, "1/s"),
                "serve_hot_p50_ms": (timings["hot_ms"]["p50"], "ms"),
                "serve_fresh_p50_ms": (timings["fresh_ms"]["p50"], "ms"),
                "serve_tail_ms": (timings["all_ms"]["tail"], "ms"),
                "host_slowdown": (speed.run_factor(), "ratio"),
            },
            timings={
                **timings,
                "top_bursts": bursts,
                "ladder": {
                    f"{report.rate:g}/s": dataclasses.asdict(report) for report in rungs
                },
            },
            checker=checker,
            unattributed_share=unattributed,
            layer_extra=layer_extra,
        )


WORKLOADS = {
    workload.name: workload
    for workload in (DseFig13, MappingSearch, ServeAnalyze, LibraryCheck)
}
