"""End-to-end network scheduling with inter-layer activation residency.

The per-layer cost model charges every layer a DRAM read of its inputs
and a DRAM write of its outputs. When the shared L2 scratchpad is large
enough to hold a layer's output *alongside* the next layer's working
set, a real accelerator keeps the intermediate activation on chip and
skips that DRAM round trip — often the single largest energy lever at
the network level. This module layers that analysis on top of
:func:`repro.engines.analyze_layer`:

- pick a dataflow per layer (a fixed dataflow, or the best of a
  candidate set per layer, as in the adaptive experiment);
- walk producer->consumer pairs in network order and test whether the
  intermediate tensor fits in L2 next to the consumer's double-buffered
  working set;
- report the adjusted energy and the DRAM traffic saved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple, Union

from repro import obs
from repro.dataflow.dataflow import Dataflow
from repro.adaptive import select_per_layer
from repro.engines.analysis import LayerAnalysis
from repro.hardware.accelerator import Accelerator
from repro.hardware.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from repro.model.network import Network

DataflowChoice = Union[Dataflow, Mapping[str, Dataflow]]


@dataclass(frozen=True)
class LayerSchedule:
    """One layer's placement in the network schedule."""

    layer_name: str
    dataflow_name: str
    report: LayerAnalysis
    input_resident: bool
    dram_bytes_saved: float


@dataclass(frozen=True)
class NetworkSchedule:
    """The scheduled network: per-layer choices plus adjusted totals."""

    network_name: str
    layers: Tuple[LayerSchedule, ...]
    energy_model: EnergyModel

    @property
    def runtime(self) -> float:
        return sum(entry.report.runtime for entry in self.layers)

    @property
    def raw_energy(self) -> float:
        """Energy before residency savings (per-layer model sum)."""
        return sum(entry.report.energy_total for entry in self.layers)

    @property
    def dram_energy_saved(self) -> float:
        element_savings = sum(entry.dram_bytes_saved for entry in self.layers)
        return element_savings * self.energy_model.dram

    @property
    def energy_total(self) -> float:
        return self.raw_energy - self.dram_energy_saved

    @property
    def resident_fraction(self) -> float:
        """Fraction of layer inputs kept on chip."""
        if len(self.layers) <= 1:
            return 0.0
        resident = sum(1 for entry in self.layers[1:] if entry.input_resident)
        return resident / (len(self.layers) - 1)


def schedule_network(
    network: Network,
    dataflows: DataflowChoice,
    accelerator: Accelerator,
    energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
    metric: str = "runtime",
) -> NetworkSchedule:
    """Schedule ``network`` end to end; see the module docstring.

    ``dataflows`` is either one dataflow for every layer or a candidate
    set, in which case the best per layer under ``metric`` is selected
    (the Figure 10(f) adaptive approach).
    """
    if isinstance(dataflows, Dataflow):
        dataflows = {dataflows.name: dataflows}
    with obs.span("pipeline.select", network=network.name, metric=metric):
        choices = select_per_layer(
            network, dataflows, accelerator, energy_model, metric,
            unbound="no dataflow binds to layer {!r}",
        )

    with obs.span("pipeline.schedule", network=network.name):
        entries: List[LayerSchedule] = []
        previous_output_elements: Optional[float] = None
        l2_capacity = accelerator.l2_size  # None = unconstrained (fits)
        for index, choice in enumerate(choices):
            report = choice.report
            input_resident = False
            saved = 0.0
            if index > 0 and previous_output_elements is not None:
                needed = (
                    previous_output_elements * accelerator.element_bytes
                    + report.l2_buffer_req
                )
                if l2_capacity is None or needed <= l2_capacity:
                    input_resident = True
                    # Skip the producer's DRAM write-back and this layer's
                    # DRAM fetch of the same tensor (element counts; the
                    # consumer may read a cropped/pooled subset, so take the
                    # smaller side).
                    consumed = min(
                        previous_output_elements,
                        sum(report.dram_reads.values()),
                    )
                    saved = previous_output_elements + consumed
            entries.append(
                LayerSchedule(
                    layer_name=choice.layer_name,
                    dataflow_name=choice.dataflow_name,
                    report=report,
                    input_resident=input_resident,
                    dram_bytes_saved=saved,
                )
            )
            previous_output_elements = sum(report.dram_writes.values())
    obs.inc("pipeline.layers_scheduled", len(entries))
    return NetworkSchedule(
        network_name=network.name,
        layers=tuple(entries),
        energy_model=energy_model,
    )
