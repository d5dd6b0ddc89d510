"""Batch evaluation backend: parallel executors + memoized cost model.

The paper's selling point is that the analytical model is fast enough to
sweep enormous (layer, dataflow, hardware) spaces. The sweep consumers
(:mod:`repro.dse`, :mod:`repro.tuner`, :mod:`repro.hetero`) used to walk
those spaces serially, one :func:`~repro.engines.analysis.analyze_layer`
call per point, with zero result reuse. This package decouples *what to
evaluate* from *how it is evaluated*:

- :func:`evaluate_batch` / :class:`BatchEvaluator` take an iterable of
  :class:`EvalPoint` and return one :class:`EvalOutcome` per point, in
  input order, bit-identical to a serial loop (dict iteration order of
  every report field included);
- the ``serial`` and ``process`` executors (auto-selected by workload
  size and core count) run the misses, the latter through a
  :class:`~concurrent.futures.ProcessPoolExecutor` with chunked
  submission;
- an :class:`AnalysisCache` memoizes outcomes under a content-addressed
  key (layer dims + canonicalized directives + hardware + energy model +
  a model-version salt), with an in-memory LRU tier and an optional
  on-disk JSON store under ``$REPRO_CACHE_DIR`` (or ``~/.cache/repro``),
  so repeated points across DSE grids, tuner restarts, and benchmark
  reruns are free;
- :class:`BatchStats` reports submitted / cache-hit / evaluated / failed
  counts and the evaluation wall time, surfaced alongside the sweep
  consumers' existing ``static_rejects`` / ``cost_model_calls`` counters.

See ``docs/evaluation-backend.md`` for the full story.
"""

from repro.exec.backend import (
    BatchEvaluator,
    BatchResult,
    BatchStats,
    EvalPoint,
    evaluate_batch,
)
from repro.exec.cache import (
    AnalysisCache,
    cache_key,
    cache_keys,
    canonical_point_payload,
    dataflow_cache_payload,
    default_cache,
    model_version_salt,
    resolve_cache,
)
from repro.exec.serialize import EvalOutcome, analysis_from_dict, analysis_to_dict

__all__ = [
    "AnalysisCache",
    "BatchEvaluator",
    "BatchResult",
    "BatchStats",
    "EvalOutcome",
    "EvalPoint",
    "analysis_from_dict",
    "analysis_to_dict",
    "cache_key",
    "cache_keys",
    "canonical_point_payload",
    "dataflow_cache_payload",
    "default_cache",
    "evaluate_batch",
    "model_version_salt",
    "resolve_cache",
]
