"""Content-addressed memoization of cost-model outcomes.

The cache key is a SHA-256 over a *canonical* description of the
evaluation point:

- the layer (operator structure, dimension extents, stride, dilation,
  groups, densities);
- the dataflow's *canonical form* under the equivalence analyzer
  (:mod:`repro.equiv`): symbolic sizes evaluated against the layer,
  inert single-chunk temporal maps elided, spatial slots sorted, and —
  when the layer is transpose-symmetric and the integer-activity
  certificate holds at the accelerator's PE count — the least
  representative of the symmetry orbit. Every spelling the analyzer
  proves bit-identical shares one cache entry; anything it cannot
  certify falls back to keying on the raw evaluated directive list,
  exactly as before. The mapping *name* is part of the key only in the
  fallback tier and for points whose cluster hierarchy provably exceeds
  the PE count (binding rejections embed the name in their message);
  for shared entries the backend restores the requesting mapping's name
  on every hit;
- the full hardware configuration and energy model;
- a model-version salt hashed from the source of the cost-model modules,
  so any change to the engines invalidates every stale entry
  automatically.

:func:`canonical_point_payload` is the readable specification of that
payload. Keys are built a batch at a time by :func:`cache_keys`, which
joins the same JSON text from pieces computed once per (layer, energy
model), per (dataflow, layer) and per PE count, so a hardware grid pays
for canonicalization once per mapping rather than once per point; the
keys are byte-identical to hashing the specification directly.
:func:`cache_key` is the one-point call of the same builder.

Storage is two-tier: an in-memory LRU (always on) and an optional
on-disk JSON store, one file per key under
``$REPRO_CACHE_DIR`` (or ``~/.cache/repro`` when enabled explicitly),
sharded as ``<dir>/<salt>/<key[:2]>/<key>.json`` so wiping one salt
directory drops exactly one model version's entries.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.dataflow.dataflow import Dataflow
from repro.dataflow.directives import ClusterDirective, evaluate_size
from repro.errors import DataflowError
from repro.hardware.accelerator import Accelerator
from repro.hardware.energy import EnergyModel
from repro.model.layer import Layer
from repro.exec.serialize import EvalOutcome, outcome_from_json, outcome_to_json
from repro.tensors import dims as D

#: Environment variable naming the on-disk cache directory. When set, the
#: default cache persists outcomes across processes (and sessions).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_DEFAULT_DISK_DIR = Path.home() / ".cache" / "repro"

logger = logging.getLogger(__name__)

_salt_cache: Optional[str] = None


def _salt_source_files() -> List[Path]:
    """Source files whose content defines the cost model's semantics."""
    import repro.dataflow
    import repro.engines
    import repro.equiv
    import repro.hardware
    import repro.model.layer
    import repro.tensors

    files: List[Path] = [Path(repro.model.layer.__file__)]
    for package in (
        repro.engines,
        repro.tensors,
        repro.dataflow,
        repro.hardware,
        repro.equiv,
    ):
        files.extend(sorted(Path(package.__file__).parent.glob("*.py")))
    return files


def model_version_salt() -> str:
    """A short hash of the cost-model source: the cache-version salt.

    Any edit to the engines (or the modules they build on) changes the
    salt, so entries computed by older model code can never be returned
    for a new one. Computed once per process.
    """
    global _salt_cache
    if _salt_cache is None:
        digest = hashlib.sha256()
        for path in _salt_source_files():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        _salt_cache = digest.hexdigest()[:12]
    return _salt_cache


def _canonical_size(size: Any, dim_sizes: Dict[str, int], strides: Dict[str, int]) -> Any:
    try:
        return evaluate_size(size, dim_sizes, strides)
    except DataflowError:
        # Unresolvable spelling: key on the raw text (the point will be
        # rejected by binding anyway, and rejections are cached too).
        return f"raw:{size}"


def canonical_directives(dataflow: Dataflow, layer: Layer) -> List[List[Any]]:
    """The directive list with all sizes evaluated against ``layer``.

    Spellings that the binding engine resolves identically (symbolic
    ``Sz``/``St`` expressions vs. their concrete values) canonicalize to
    the same list; structurally different mappings never collide.
    """
    dim_sizes = layer.all_dim_sizes()
    strides = {D.Y: layer.stride[0], D.X: layer.stride[1]}
    canonical: List[List[Any]] = []
    for directive in dataflow.directives:
        if isinstance(directive, ClusterDirective):
            canonical.append(["C", _canonical_size(directive.size, dim_sizes, strides)])
        else:
            canonical.append(
                [
                    "S" if directive.spatial else "T",
                    directive.dim,
                    _canonical_size(directive.size, dim_sizes, strides),
                    _canonical_size(directive.offset, dim_sizes, strides),
                ]
            )
    return canonical


def _layer_payload(layer: Layer) -> Dict[str, Any]:
    operator = layer.operator
    return {
        "name": layer.name,
        "operator": {
            "name": operator.name,
            "tensors": [
                [t.name, t.role.value, list(t.axis_templates)] for t in operator.tensors
            ],
            "reduction_dims": sorted(operator.reduction_dims),
            "compute_templates": list(operator.compute_templates),
            "used_dims": sorted(operator.used_dims),
        },
        "dims": {dim: size for dim, size in sorted(layer.dims.items())},
        "stride": list(layer.stride),
        "dilation": list(layer.dilation),
        "groups": layer.groups,
        "densities": {name: d for name, d in sorted(layer.densities.items())},
    }


def _accelerator_payload(accelerator: Accelerator) -> Dict[str, Any]:
    return {
        "num_pes": accelerator.num_pes,
        "l1_size": accelerator.l1_size,
        "l2_size": accelerator.l2_size,
        "noc": {
            "bandwidth": accelerator.noc.bandwidth,
            "avg_latency": accelerator.noc.avg_latency,
            "multicast": accelerator.noc.multicast,
        },
        "spatial_reduction": accelerator.spatial_reduction,
        "double_buffered": accelerator.double_buffered,
        "vector_width": accelerator.vector_width,
        "element_bytes": accelerator.element_bytes,
        "clock_ghz": accelerator.clock_ghz,
        "dram_bandwidth": accelerator.dram_bandwidth,
    }


def _energy_payload(model: EnergyModel) -> Dict[str, Any]:
    return {
        "mac": model.mac,
        "sram_base": model.sram_base,
        "sram_sqrt": model.sram_sqrt,
        "sram_write_factor": model.sram_write_factor,
        "noc_hop": model.noc_hop,
        "dram": model.dram,
    }


class _FlowKeyRule:
    """The dataflow part of the cache key for one ``(dataflow, layer)`` pair.

    Everything the payload needs that does not depend on the PE count —
    the canonical form, the layer's symmetries, the PE product of the
    cluster hierarchy — is computed once here; :meth:`payload` then only
    decides the two PE-dependent questions (is the transposition
    certified at ``num_pes``, and does the hierarchy exceed it).
    """

    def __init__(self, dataflow: Dataflow, layer: Layer) -> None:
        # Deferred: repro.equiv imports repro.exec (its crosscheck).
        from repro.equiv.canonical import canonicalize
        from repro.equiv.symmetry import layer_symmetries
        from repro.util.intmath import prod

        self.name = dataflow.name
        self.form = canonicalize(dataflow, layer)
        if self.form.fallback:
            self.directives = canonical_directives(dataflow, layer)
            return
        self.symmetries = layer_symmetries(layer)
        self.cluster_pes = prod(
            [level.cluster_size for level in self.form.levels if level.cluster_size is not None]
        )

    def payload(self, num_pes: int) -> Dict[str, Any]:
        from repro.equiv.canonical import key_to_json
        from repro.equiv.symmetry import integral_active, orbit_key

        if self.form.fallback:
            return {"name": self.name, "directives": self.directives}
        key = self.form.key
        if self.symmetries and integral_active(self.form, num_pes):
            key = orbit_key(key, self.symmetries)
        payload: Dict[str, Any] = {"key": key_to_json(key)}
        if self.cluster_pes > num_pes:
            payload["name"] = self.name  # binding rejects; message names the mapping
        return payload


def dataflow_cache_payload(
    dataflow: Dataflow, layer: Layer, num_pes: int
) -> Dict[str, Any]:
    """The dataflow portion of the cache key: the equivalence quotient.

    Non-fallback canonical forms key on the structural canonical key —
    the orbit-least key when the transposition is certified bit-exact at
    ``num_pes`` — with the mapping name dropped, so every spelling the
    analyzer proves equivalent addresses one shared entry. Two
    exceptions keep names in the key: fallback forms (nothing proven —
    raw spelling plus name, the pre-equivalence behavior), and points
    whose cluster hierarchy needs more than ``num_pes`` PEs, where the
    outcome is a ``BindingError`` whose message embeds the name. Other
    model rejections arising after a successful bind may still share an
    entry across equivalent spellings; their ``error_message`` then
    carries the first-evaluated twin's name (``error_type``, which sweep
    consumers branch on, is spelling-independent).
    """
    return _FlowKeyRule(dataflow, layer).payload(num_pes)


def canonical_point_payload(
    layer: Layer,
    dataflow: Dataflow,
    accelerator: Accelerator,
    energy_model: EnergyModel,
) -> Dict[str, Any]:
    """The full canonical description one cache key is hashed from.

    The readable specification of the key: :func:`cache_keys` produces
    exactly ``sha256`` of this payload's sorted, compact JSON.
    """
    return {
        "salt": model_version_salt(),
        "layer": _layer_payload(layer),
        "dataflow": dataflow_cache_payload(dataflow, layer, accelerator.num_pes),
        "accelerator": _accelerator_payload(accelerator),
        "energy": _energy_payload(energy_model),
    }


#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))`` without
#: building a new encoder on every call (the key is joined from several
#: texts; the encoder holds no per-call state).
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


#: One key's inputs, in :func:`cache_key`'s argument order.
KeyPoint = Tuple[Layer, Dataflow, Accelerator, EnergyModel]


def cache_keys(points: Sequence[KeyPoint]) -> List[str]:
    """The cache keys of a batch of points, in input order.

    Each key is ``sha256`` of :func:`canonical_point_payload`'s JSON
    with sorted keys — ``{"accelerator":…,"dataflow":…,"energy":…,
    "layer":…,"salt":…}`` — joined from pieces built once at the
    smallest scope they depend on: the layer/energy/salt text once per
    (layer, energy model), the canonical form once per (dataflow,
    layer), the dataflow text once per (dataflow, layer, PE count), the
    accelerator text once per distinct hardware configuration. Per
    point one join and one hash remain. Points are keyed one (dataflow,
    layer) group at a time, so a single canonical form is alive at once.
    Objects are told apart by ``id``, which is safe because ``points``
    keeps them alive for the call.
    """
    groups: Dict[Tuple[int, int], List[int]] = {}
    for index, (layer, dataflow, _, _) in enumerate(points):
        groups.setdefault((id(dataflow), id(layer)), []).append(index)
    tails: Dict[Tuple[int, int], str] = {}
    # Keyed on the payload's repr, not its value: equality would merge
    # 2 with 2.0 (or 0.0 with -0.0), which JSON spells differently.
    hardware_texts: Dict[str, str] = {}
    keys: List[str] = [""] * len(points)
    for indices in groups.values():
        layer, dataflow = points[indices[0]][:2]
        rule = _FlowKeyRule(dataflow, layer)
        flow_texts: Dict[int, str] = {}
        for index in indices:
            accelerator, energy_model = points[index][2:]
            flow_text = flow_texts.get(accelerator.num_pes)
            if flow_text is None:
                flow_text = _dumps(rule.payload(accelerator.num_pes))
                flow_texts[accelerator.num_pes] = flow_text
            tail = tails.get((id(layer), id(energy_model)))
            if tail is None:
                # The keys after "dataflow" in sorted order: this object's
                # text minus its "{" is the end of the point's text.
                rest = {
                    "energy": _energy_payload(energy_model),
                    "layer": _layer_payload(layer),
                    "salt": model_version_salt(),
                }
                tail = tails[(id(layer), id(energy_model))] = "," + _dumps(rest)[1:]
            hardware = _accelerator_payload(accelerator)
            spelled = repr(hardware)
            hardware_text = hardware_texts.get(spelled)
            if hardware_text is None:
                hardware_text = hardware_texts[spelled] = _dumps(hardware)
            text = f'{{"accelerator":{hardware_text},"dataflow":{flow_text}{tail}'
            keys[index] = hashlib.sha256(text.encode()).hexdigest()
    return keys


def cache_key(
    layer: Layer,
    dataflow: Dataflow,
    accelerator: Accelerator,
    energy_model: EnergyModel,
) -> str:
    """Stable content hash of one (layer, dataflow, hardware) point."""
    return cache_keys([(layer, dataflow, accelerator, energy_model)])[0]


class AnalysisCache:
    """Two-tier (memory LRU + optional disk) outcome cache.

    Parameters
    ----------
    max_entries:
        In-memory LRU capacity; oldest entries are evicted first.
    disk_dir:
        On-disk store root. ``None`` disables the disk tier; the string
        ``"auto"`` uses ``$REPRO_CACHE_DIR`` when set and
        ``~/.cache/repro`` otherwise.
    """

    def __init__(
        self,
        max_entries: int = 65536,
        disk_dir: Union[str, Path, None] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        if disk_dir == "auto":
            disk_dir = os.environ.get(CACHE_DIR_ENV) or _DEFAULT_DISK_DIR
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self._memory: Dict[str, EvalOutcome] = {}
        # The memory tier is shared across threads when the cache is
        # promoted to a cross-request tier (repro.serve): one lock keeps
        # the LRU reinsert/evict sequences atomic. Disk I/O stays outside
        # the lock — os.replace already makes entries whole-or-absent.
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.evictions = 0
        self.corrupt_entries = 0

    def __len__(self) -> int:
        return len(self._memory)

    def _disk_path(self, key: str) -> Path:
        assert self.disk_dir is not None
        return self.disk_dir / model_version_salt() / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[EvalOutcome]:
        """The memoized outcome for ``key``, or ``None`` on a miss.

        A corrupt or truncated disk entry (interrupted writer, disk
        fault, stale handwritten file) is never fatal and never a silent
        permanent miss: it is logged, counted (``corrupt_entries`` and
        the ``cache.corrupt_entries`` metric), deleted, and the point is
        recomputed — the next ``put`` rewrites a good entry.
        """
        with self._lock:
            outcome = self._memory.pop(key, None)
            if outcome is not None:
                self._memory[key] = outcome  # re-insert: most recently used
                self.hits += 1
        if outcome is not None:
            obs.inc("cache.memory_hits")
            return outcome.as_cached()
        if self.disk_dir is not None:
            path = self._disk_path(key)
            try:
                text: Optional[str] = path.read_text()
            except OSError:
                text = None
            outcome = None
            if text is not None:
                try:
                    outcome = outcome_from_json(text)
                except (ValueError, KeyError, TypeError) as error:
                    self.corrupt_entries += 1
                    obs.inc("cache.corrupt_entries")
                    logger.warning(
                        "dropping corrupt cache entry %s (%s: %s); recomputing",
                        path,
                        type(error).__name__,
                        error,
                    )
                    try:
                        path.unlink()
                    except OSError:
                        pass
            if outcome is not None:
                self._remember(key, outcome)
                self.hits += 1
                self.disk_hits += 1
                obs.inc("cache.disk_hits")
                return outcome.as_cached()
        self.misses += 1
        obs.inc("cache.misses")
        return None

    def put(self, key: str, outcome: EvalOutcome) -> None:
        """Memoize ``outcome`` (successes and model rejections alike)."""
        outcome = EvalOutcome(
            report=outcome.report,
            error_type=outcome.error_type,
            error_message=outcome.error_message,
        )
        self._remember(key, outcome)
        if self.disk_dir is not None:
            self._write_disk(key, outcome)

    def _remember(self, key: str, outcome: EvalOutcome) -> None:
        evicted = 0
        with self._lock:
            self._memory.pop(key, None)
            self._memory[key] = outcome
            while len(self._memory) > self.max_entries:
                oldest = next(iter(self._memory))
                del self._memory[oldest]
                self.evictions += 1
                evicted += 1
        if evicted:
            obs.inc("cache.evictions", evicted)

    def _write_disk(self, key: str, outcome: EvalOutcome) -> None:
        path = self._disk_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(outcome_to_json(outcome))
                os.replace(tmp, path)  # atomic: concurrent readers see old or new
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            pass  # the disk tier is best-effort; memory stays authoritative

    def clear(self) -> None:
        """Drop the in-memory tier (the disk tier is left untouched)."""
        with self._lock:
            self._memory.clear()


_default_cache: Optional[AnalysisCache] = None


def default_cache() -> AnalysisCache:
    """The process-wide shared cache (disk tier iff ``$REPRO_CACHE_DIR``)."""
    global _default_cache
    if _default_cache is None:
        disk = os.environ.get(CACHE_DIR_ENV)
        _default_cache = AnalysisCache(disk_dir=disk if disk else None)
    return _default_cache


def resolve_cache(
    cache: Union[bool, AnalysisCache, None],
) -> Optional[AnalysisCache]:
    """Normalize the ``cache`` argument every sweep entry point accepts.

    ``True`` means the shared :func:`default_cache`, ``False``/``None``
    disables memoization, and an :class:`AnalysisCache` instance is used
    as-is.
    """
    if cache is True:
        return default_cache()
    if cache is False or cache is None:
        return None
    if isinstance(cache, AnalysisCache):
        return cache
    raise TypeError(f"cache must be a bool or AnalysisCache, got {cache!r}")
