"""Which public functions of each layer the traced run wraps, and the
per-layer metrics it derives from them.

Span names follow the repository's packages (``engines``, ``exec``,
``vector``, ``dse``, ``tuner``, ``lint``, ``capacity``, ``comm``,
``equiv``, ``absint``, ``verify``, ``serve``). Counts are read from the
public result objects the wrapped calls return, never from private
state.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Any, Dict, List, Optional, Tuple

from perfbench.tracing import Tracer

#: Lint rule codes registered in ``repro.lint.rules.RULES`` when this
#: benchmark was defined; each gets a ``lint.rule.<CODE>.self_s`` metric.
RULE_CODES = (
    "DF001", "DF002", "DF003", "DF004", "DF005", "DF006", "DF007", "DF008",
    "DF009", "DF010", "DF011", "DF012", "DF013", "DF014", "DF015", "DF016",
    "DF017", "DF018", "DF101", "DF102", "DF103", "DF300", "DF301", "DF302",
    "DF303", "DF400", "DF401", "DF402", "DF403", "DF500", "DF501", "DF502",
    "DF503", "DF504",
)

#: ``(span name, module, function)`` wrapped wherever ``repro`` holds it.
FUNCTIONS = (
    ("engines.analyze_layer", "repro.engines.analysis", "analyze_layer"),
    ("engines.binding", "repro.engines.binding", "bind_dataflow"),
    ("engines.tensor", "repro.engines.tensor_analysis", "analyze_tensors"),
    ("engines.reuse", "repro.engines.reuse", "analyze_level_reuse"),
    ("vector.lower", "repro.vector.lower", "lower_group"),
    ("vector.evaluate", "repro.vector.engine", "evaluate_grid"),
    ("dse.explore", "repro.dse.explorer", "explore"),
    ("tuner.tune", "repro.tuner.search", "tune_layer"),
    ("lint.lint_dataflow", "repro.lint.engine", "lint_dataflow"),
    ("lint.static_errors", "repro.lint.engine", "static_errors"),
    ("capacity.bounds", "repro.capacity.bounds", "compute_capacity_bounds"),
    ("capacity.bounds", "repro.capacity.roofline", "classify_roofline"),
    ("comm.classify", "repro.comm.classify", "classify_level"),
    ("equiv.canonicalize", "repro.equiv.canonical", "canonicalize"),
    ("absint", "repro.absint.engine", "abstract_analyze"),
    ("verify.verify_dataflow", "repro.verify.engine", "verify_dataflow"),
    ("serve.validate", "repro.serve.protocol", "validate"),
    ("serve.lint_gate", "repro.serve.protocol", "lint_gate"),
    ("serve.job_key", "repro.serve.protocol", "job_key"),
    ("serve.serialize", "repro.exec.serialize", "analysis_to_dict"),
    ("serve.serialize", "repro.serve.http", "send_json"),
)

#: Modules imported before patching so every alias of a wrapped
#: function is already bound where it will be looked up.
PRELOAD = (
    "repro.dse.explorer", "repro.tuner.search", "repro.exec.backend",
    "repro.serve.app", "repro.serve.protocol", "repro.capacity",
    "repro.comm.classify", "repro.equiv", "repro.equiv.dominance",
    "repro.absint", "repro.verify", "repro.lint",
)


def _count_cache_get(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("exec.cache.misses" if result is None else "exec.cache.hits")


def _count_batch(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("exec.singleflight_hits", result.stats.singleflight_hits)
    tracer.count("vector.lanes", result.stats.vector_points)
    tracer.count("vector.fallback_points", result.stats.vector_fallbacks)


def _count_explore(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    stats = result.statistics
    tracer.count("dse.points_explored", stats.explored)
    tracer.count("dse.cost_model_calls", stats.cost_model_calls)
    tracer.count("dse.valid", stats.valid)
    tracer.count("dse.evaluated", stats.evaluated)


def _count_tune(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("tuner.candidates", result.evaluated + result.rejected)
    tracer.count("tuner.evaluated", result.evaluated)
    tracer.count("tuner.rejected", result.rejected)


def _count_lint(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("lint.diagnostics", len(result.diagnostics))


_VERDICT_BUCKET = {"proven": "proved", "refuted": "refuted"}


def _count_verify(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    bucket = _VERDICT_BUCKET.get(result.verdict.value, "unknown")
    tracer.count(f"verify.verdicts.{bucket}")


_HOOKS = {
    "dse.explore": _count_explore,
    "tuner.tune": _count_tune,
    "lint.lint_dataflow": _count_lint,
    "verify.verify_dataflow": _count_verify,
}


def _request_id(args: tuple) -> Optional[str]:
    """The benchmark's request id header of a server ``_dispatch`` call."""
    return args[1].headers.get("x-request-id")


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary; undo with ``tracer.restore()``."""
    for module in PRELOAD:
        importlib.import_module(module)
    for name, module, attr in FUNCTIONS:
        tracer.patch_function(module, attr, name, on_result=_HOOKS.get(name))

    from repro.exec.backend import BatchEvaluator
    from repro.exec.cache import AnalysisCache
    from repro.lint.rules import RULES
    from repro.serve.app import AnalysisServer

    tracer.patch_method(BatchEvaluator, "evaluate", "exec.evaluate", on_result=_count_batch)
    tracer.patch_method(AnalysisCache, "get", "exec.cache.get", on_result=_count_cache_get)
    tracer.patch_method(AnalysisCache, "put", "exec.cache.put")
    tracer.patch_method(
        AnalysisServer, "_dispatch", "serve.request", request_id=_request_id
    )
    tracer.patch_method(AnalysisServer, "_work_analyze", "serve.work")
    for code, rule in list(RULES.items()):
        check = tracer.wrap(rule.check, f"lint.rule.{code}", consume=True)
        tracer.patch_item(RULES, code, dataclasses.replace(rule, check=check))


def per_layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    names = [
        ("engines.calls", "count"),
        ("engines.binding.calls", "count"),
        ("engines.binding.self_s", "s"),
        ("engines.tensor.self_s", "s"),
        ("engines.reuse.self_s", "s"),
        ("engines.fold.self_s", "s"),
        ("exec.evaluate.self_s", "s"),
        ("exec.cache.hits", "count"),
        ("exec.cache.misses", "count"),
        ("exec.cache.hit_ratio", "ratio"),
        ("exec.cache.get_s", "s"),
        ("exec.cache.put_s", "s"),
        ("exec.singleflight_hits", "count"),
        ("vector.lower.self_s", "s"),
        ("vector.evaluate.self_s", "s"),
        ("vector.lanes", "count"),
        ("vector.fallback_points", "count"),
        ("dse.explore.self_s", "s"),
        ("dse.points_explored", "count"),
        ("dse.cost_model_calls", "count"),
        ("dse.valid_ratio", "ratio"),
        ("tuner.tune.self_s", "s"),
        ("tuner.candidates", "count"),
        ("tuner.evaluated", "count"),
        ("tuner.rejected", "count"),
        ("lint.lint_dataflow.s", "s"),
        ("lint.static_errors.s", "s"),
    ]
    names += [(f"lint.rule.{code}.self_s", "s") for code in RULE_CODES]
    names += [
        ("lint.diagnostics", "count"),
        ("capacity.bounds.calls", "count"),
        ("capacity.bounds.s", "s"),
        ("comm.classify.calls", "count"),
        ("comm.classify.s", "s"),
        ("equiv.canonicalize.calls", "count"),
        ("equiv.canonicalize.s", "s"),
        ("absint.calls", "count"),
        ("absint.s", "s"),
        ("verify.verify_dataflow.s", "s"),
        ("verify.verdicts.proved", "count"),
        ("verify.verdicts.refuted", "count"),
        ("verify.verdicts.unknown", "count"),
        ("serve.validate.s", "s"),
        ("serve.lint_gate.s", "s"),
        ("serve.job_key.s", "s"),
        ("serve.work.s", "s"),
        ("serve.serialize.s", "s"),
        ("serve.wait_s", "s"),
        ("serve.gen_lag_ms", "ms"),
        ("serve.requests.sent", "count"),
        ("serve.requests.ok", "count"),
        ("serve.requests.failed", "count"),
        ("serve.requests.busy_503", "count"),
        ("unattributed_share", "ratio"),
        ("trace_overhead_ratio", "ratio"),
    ]
    return names


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_values(tracer: Tracer) -> Dict[str, float]:
    """Per-layer values the tracer alone determines.

    The workload adds the ``serve.wait_s``/``serve.gen_lag_ms``/
    ``serve.requests.*`` figures its load generator measured, plus
    ``unattributed_share`` and ``trace_overhead_ratio``.
    """
    counts = tracer.counts
    hits, misses = counts["exec.cache.hits"], counts["exec.cache.misses"]
    values: Dict[str, float] = {
        "engines.calls": tracer.calls("engines.analyze_layer"),
        "engines.binding.calls": tracer.calls("engines.binding"),
        "engines.binding.self_s": tracer.self_s("engines.binding"),
        "engines.tensor.self_s": tracer.self_s("engines.tensor"),
        "engines.reuse.self_s": tracer.self_s("engines.reuse"),
        "engines.fold.self_s": tracer.self_s("engines.analyze_layer"),
        "exec.evaluate.self_s": tracer.self_s("exec.evaluate"),
        "exec.cache.hits": hits,
        "exec.cache.misses": misses,
        "exec.cache.hit_ratio": _ratio(hits, hits + misses),
        "exec.cache.get_s": tracer.total_s("exec.cache.get"),
        "exec.cache.put_s": tracer.total_s("exec.cache.put"),
        "exec.singleflight_hits": counts["exec.singleflight_hits"],
        "vector.lower.self_s": tracer.self_s("vector.lower"),
        "vector.evaluate.self_s": tracer.self_s("vector.evaluate"),
        "vector.lanes": counts["vector.lanes"],
        "vector.fallback_points": counts["vector.fallback_points"],
        "dse.explore.self_s": tracer.self_s("dse.explore"),
        "dse.points_explored": counts["dse.points_explored"],
        "dse.cost_model_calls": counts["dse.cost_model_calls"],
        "dse.valid_ratio": _ratio(counts["dse.valid"], counts["dse.evaluated"]),
        "tuner.tune.self_s": tracer.self_s("tuner.tune"),
        "tuner.candidates": counts["tuner.candidates"],
        "tuner.evaluated": counts["tuner.evaluated"],
        "tuner.rejected": counts["tuner.rejected"],
        "lint.lint_dataflow.s": tracer.total_s("lint.lint_dataflow"),
        "lint.static_errors.s": tracer.total_s("lint.static_errors"),
        "lint.diagnostics": counts["lint.diagnostics"],
        "verify.verify_dataflow.s": tracer.total_s("verify.verify_dataflow"),
        "verify.verdicts.proved": counts["verify.verdicts.proved"],
        "verify.verdicts.refuted": counts["verify.verdicts.refuted"],
        "verify.verdicts.unknown": counts["verify.verdicts.unknown"],
    }
    for code in RULE_CODES:
        values[f"lint.rule.{code}.self_s"] = tracer.self_s(f"lint.rule.{code}")
    for layer in ("capacity.bounds", "comm.classify", "equiv.canonicalize", "absint"):
        values[f"{layer}.calls"] = tracer.calls(layer)
        values[f"{layer}.s"] = tracer.total_s(layer)
    for part in ("validate", "lint_gate", "job_key", "work", "serialize"):
        values[f"serve.{part}.s"] = tracer.total_s(f"serve.{part}")
    return values
