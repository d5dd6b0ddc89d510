"""Adaptive dataflow selection (Section 5.1, Figure 10(f)).

The paper observes that different DNN operators prefer different
dataflows and quantifies the benefit of picking the best dataflow per
layer (a flexible accelerator like MAERI/FlexFlow, or a heterogeneous
multi-sub-accelerator chip): about 37% runtime and 10% energy reduction
on average. :func:`adaptive_analysis` reproduces that experiment: it
evaluates every candidate dataflow on every layer and keeps the best
one per layer under the chosen metric.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Hashable, List, Mapping, Tuple

from repro.dataflow.dataflow import Dataflow
from repro.engines.analysis import LayerAnalysis, analyze_layer
from repro.errors import BindingError, DataflowError
from repro.hardware.accelerator import Accelerator
from repro.hardware.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from repro.model.network import Network

#: Selection metrics: map a layer report to a score to minimize.
METRICS: Dict[str, Callable[[LayerAnalysis], float]] = {
    "runtime": lambda report: report.runtime,
    "energy": lambda report: report.energy_total,
    "edp": lambda report: report.edp,
}


@dataclass(frozen=True)
class AdaptiveChoice:
    """The winning dataflow for one layer."""

    layer_name: str
    dataflow_name: str
    report: LayerAnalysis


@dataclass(frozen=True)
class AdaptiveAnalysis:
    """Per-layer best-dataflow selection over a network."""

    network_name: str
    metric: str
    choices: Tuple[AdaptiveChoice, ...]

    @property
    def runtime(self) -> float:
        return sum(choice.report.runtime for choice in self.choices)

    @property
    def energy_total(self) -> float:
        return sum(choice.report.energy_total for choice in self.choices)

    def dataflow_histogram(self) -> Dict[str, int]:
        """How often each dataflow wins."""
        histogram: Dict[str, int] = {}
        for choice in self.choices:
            histogram[choice.dataflow_name] = (
                histogram.get(choice.dataflow_name, 0) + 1
            )
        return histogram


def select_per_layer(
    network: Network,
    dataflows: Mapping[str, Dataflow],
    accelerator: Accelerator,
    energy_model: EnergyModel,
    metric: str,
    unbound: str = "no candidate dataflow binds to layer {!r}",
) -> List[AdaptiveChoice]:
    """The best dataflow per layer under ``metric``, in network order.

    Candidates that fail to bind are skipped; ties keep the earlier
    candidate. Each distinct layer shape (:meth:`Layer.shape_key`) is
    evaluated once and its choice reused, renamed, for later layers of
    that shape. A layer no candidate binds to raises
    :class:`DataflowError` with ``unbound`` formatted with its name.
    """
    try:
        score = METRICS[metric]
    except KeyError:
        raise KeyError(f"unknown metric {metric!r}; available: {sorted(METRICS)}")

    by_shape: Dict[Hashable, AdaptiveChoice] = {}
    choices: List[AdaptiveChoice] = []
    for layer in network.layers:
        key = layer.shape_key()
        best = by_shape.get(key)
        if best is not None:
            report = replace(best.report, layer_name=layer.name)
            choices.append(replace(best, layer_name=layer.name, report=report))
            continue
        for name, dataflow in dataflows.items():
            try:
                report = analyze_layer(layer, dataflow, accelerator, energy_model)
            except (BindingError, DataflowError):
                continue
            if best is None or score(report) < score(best.report):
                best = AdaptiveChoice(
                    layer_name=layer.name, dataflow_name=name, report=report
                )
        if best is None:
            raise DataflowError(unbound.format(layer.name))
        by_shape[key] = best
        choices.append(best)
    return choices


def adaptive_analysis(
    network: Network,
    dataflows: Mapping[str, Dataflow],
    accelerator: Accelerator,
    metric: str = "runtime",
    energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
) -> AdaptiveAnalysis:
    """Pick the best dataflow per layer; see the module docstring."""
    choices = select_per_layer(network, dataflows, accelerator, energy_model, metric)
    return AdaptiveAnalysis(
        network_name=network.name, metric=metric, choices=tuple(choices)
    )
