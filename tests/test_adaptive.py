"""Tests for adaptive (per-layer best) dataflow selection."""

import pytest

from repro.adaptive import METRICS, adaptive_analysis
from repro.dataflow.library import kc_partitioned, table3_dataflows, yr_partitioned
from repro.engines.analysis import analyze_layer, analyze_network
from repro.errors import BindingError, DataflowError
from repro.hardware.accelerator import Accelerator


@pytest.fixture(scope="module")
def accelerator():
    return Accelerator(num_pes=256)


@pytest.fixture(scope="module")
def network(request):
    from repro.model.zoo import build

    return build("mobilenet_v2")


@pytest.fixture(scope="module")
def adaptive(network, accelerator):
    return adaptive_analysis(network, table3_dataflows(), accelerator, metric="runtime")


class TestAdaptive:
    def test_covers_every_layer(self, adaptive, network):
        assert len(adaptive.choices) == len(network.layers)

    def test_beats_or_matches_every_single_dataflow(self, adaptive, network, accelerator):
        for name, flow in table3_dataflows().items():
            single = analyze_network(network, flow, accelerator)
            assert adaptive.runtime <= single.runtime * 1.0001

    def test_choice_is_layerwise_optimal(self, adaptive, network, accelerator):
        """Spot-check: no other dataflow beats the winner on its layer."""
        from repro.engines.analysis import analyze_layer

        choice = adaptive.choices[0]
        layer = network.layer(choice.layer_name)
        for name, flow in table3_dataflows().items():
            report = analyze_layer(layer, flow, accelerator)
            assert choice.report.runtime <= report.runtime * 1.0001

    def test_histogram_sums_to_layer_count(self, adaptive, network):
        assert sum(adaptive.dataflow_histogram().values()) == len(network.layers)

    def test_meaningful_runtime_reduction(self, adaptive, network, accelerator):
        """The paper's Figure 10(f): adaptive cuts runtime noticeably."""
        best_single = min(
            analyze_network(network, flow, accelerator).runtime
            for flow in table3_dataflows().values()
        )
        assert adaptive.runtime < best_single * 0.9

    def test_energy_metric(self, network, accelerator):
        by_energy = adaptive_analysis(
            network, table3_dataflows(), accelerator, metric="energy"
        )
        by_runtime = adaptive_analysis(
            network, table3_dataflows(), accelerator, metric="runtime"
        )
        assert by_energy.energy_total <= by_runtime.energy_total * 1.0001

    def test_unknown_metric_rejected(self, network, accelerator):
        with pytest.raises(KeyError):
            adaptive_analysis(network, table3_dataflows(), accelerator, metric="area")

    def test_metrics_registry(self):
        assert set(METRICS) == {"runtime", "energy", "edp"}


def per_layer_choices(network, dataflows, accelerator, metric):
    """The selection as a plain loop over every (layer, dataflow) pair."""
    score = METRICS[metric]
    choices = []
    for layer in network.layers:
        best = None
        for name, flow in dataflows.items():
            try:
                report = analyze_layer(layer, flow, accelerator)
            except (BindingError, DataflowError):
                continue
            if best is None or score(report) < score(best[1]):
                best = (name, report)
        choices.append((layer.name, *best))
    return choices


def as_tuples(result):
    return [(c.layer_name, c.dataflow_name, c.report) for c in result.choices]


class TestShapeMemo:
    """Each distinct layer shape is evaluated once; choices are unchanged."""

    @pytest.mark.parametrize("metric", sorted(METRICS))
    def test_choices_match_per_layer_selection(self, network, accelerator, metric):
        flows = table3_dataflows()
        result = adaptive_analysis(network, flows, accelerator, metric=metric)
        assert as_tuples(result) == per_layer_choices(network, flows, accelerator, metric)

    def test_analyze_layer_runs_once_per_shape_and_dataflow(
        self, network, accelerator, monkeypatch
    ):
        import repro.adaptive

        calls = []
        monkeypatch.setattr(
            repro.adaptive, "analyze_layer",
            lambda layer, *args: calls.append(layer.name) or analyze_layer(layer, *args),
        )
        adaptive_analysis(network, table3_dataflows(), accelerator)
        shapes = {layer.shape_key() for layer in network.layers}
        assert len(calls) == len(shapes) * len(table3_dataflows()) == 36 * 5

    def test_candidate_failing_on_repeated_shape_is_skipped(self, failing_repeat_network):
        flows = {"YR-P": yr_partitioned(), "KC-P": kc_partitioned(c_tile=4)}
        acc = Accelerator(num_pes=8)
        result = adaptive_analysis(failing_repeat_network, flows, acc)
        expected = per_layer_choices(failing_repeat_network, flows, acc, "runtime")
        assert as_tuples(result) == expected
        big = [flow for layer, flow, _ in expected if layer.startswith("big")]
        assert big == ["KC-P", "KC-P"]

    def test_no_binding_candidate_names_the_layer(self, failing_repeat_network):
        with pytest.raises(
            DataflowError, match="no candidate dataflow binds to layer 'big1'"
        ):
            adaptive_analysis(
                failing_repeat_network, {"YR-P": yr_partitioned()}, Accelerator(num_pes=8)
            )
