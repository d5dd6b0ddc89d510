"""Tests for end-to-end network scheduling with activation residency."""

import pytest

from repro.dataflow.library import (
    kc_partitioned,
    table3_dataflows,
    yr_partitioned,
    yx_partitioned,
)
from repro.errors import DataflowError
from repro.hardware.accelerator import Accelerator
from repro.model.layer import conv2d, fc
from repro.model.network import Network
from repro.model.zoo import build
from repro.pipeline import schedule_network
from tests.test_adaptive import per_layer_choices


@pytest.fixture(scope="module")
def tiny_net():
    return Network(
        name="tiny",
        layers=(
            conv2d("c1", k=8, c=3, y=18, x=18, r=3, s=3),
            conv2d("c2", k=8, c=8, y=16, x=16, r=3, s=3),
            fc("f1", k=10, c=8 * 14 * 14),
        ),
    )


class TestResidency:
    def test_unconstrained_l2_keeps_everything_resident(self, tiny_net):
        schedule = schedule_network(
            tiny_net, yx_partitioned(), Accelerator(num_pes=16)
        )
        assert schedule.resident_fraction == 1.0
        assert schedule.energy_total < schedule.raw_energy

    def test_tiny_l2_spills_everything(self, tiny_net):
        schedule = schedule_network(
            tiny_net, yx_partitioned(), Accelerator(num_pes=16, l2_size=64)
        )
        assert schedule.resident_fraction == 0.0
        assert schedule.energy_total == pytest.approx(schedule.raw_energy)

    def test_savings_bounded_by_intermediate_volumes(self, tiny_net):
        schedule = schedule_network(
            tiny_net, yx_partitioned(), Accelerator(num_pes=16)
        )
        upper = 2 * sum(
            layer.tensor_volume("O") for layer in tiny_net.layers[:-1]
        )
        total_saved = sum(entry.dram_bytes_saved for entry in schedule.layers)
        assert 0 < total_saved <= upper

    def test_first_layer_never_resident(self, tiny_net):
        schedule = schedule_network(
            tiny_net, yx_partitioned(), Accelerator(num_pes=16)
        )
        assert not schedule.layers[0].input_resident

    def test_larger_l2_never_saves_less(self, tiny_net):
        small = schedule_network(
            tiny_net, yx_partitioned(), Accelerator(num_pes=16, l2_size=4 << 10)
        )
        large = schedule_network(
            tiny_net, yx_partitioned(), Accelerator(num_pes=16, l2_size=4 << 20)
        )
        assert large.dram_energy_saved >= small.dram_energy_saved


class TestSelection:
    def test_adaptive_candidates(self, tiny_net):
        schedule = schedule_network(
            tiny_net, table3_dataflows(), Accelerator(num_pes=64)
        )
        names = {entry.dataflow_name for entry in schedule.layers}
        assert names <= set(table3_dataflows())
        fixed = schedule_network(
            tiny_net, kc_partitioned(c_tile=8), Accelerator(num_pes=64)
        )
        assert schedule.runtime <= fixed.runtime * 1.0001

    def test_unknown_metric(self, tiny_net):
        with pytest.raises(KeyError):
            schedule_network(
                tiny_net, yx_partitioned(), Accelerator(num_pes=16), metric="area"
            )


class TestRealNetwork:
    def test_mobilenet_end_to_end(self):
        network = build("mobilenet_v2")
        schedule = schedule_network(
            network, kc_partitioned(c_tile=16),
            Accelerator(num_pes=256, l2_size=1 << 20),
        )
        assert len(schedule.layers) == len(network.layers)
        assert 0.0 < schedule.resident_fraction <= 1.0
        assert schedule.energy_total < schedule.raw_energy

    def test_lstm_network_schedules(self):
        network = build("lstm")
        schedule = schedule_network(
            network, kc_partitioned(c_tile=16), Accelerator(num_pes=64)
        )
        assert schedule.runtime > 0


class TestShapeMemo:
    """Selection evaluates each distinct shape once; choices are unchanged."""

    @pytest.mark.parametrize("metric", ["runtime", "energy"])
    def test_choices_match_per_layer_selection(self, metric):
        network = build("resnet50")
        flows = table3_dataflows()
        acc = Accelerator(num_pes=256, l2_size=1 << 20)
        schedule = schedule_network(network, flows, acc, metric=metric)
        assert [
            (entry.layer_name, entry.dataflow_name, entry.report)
            for entry in schedule.layers
        ] == per_layer_choices(network, flows, acc, metric)

    def test_repeated_failing_candidate_is_skipped(self, failing_repeat_network):
        flows = {"YR-P": yr_partitioned(), "KC-P": kc_partitioned(c_tile=4)}
        acc = Accelerator(num_pes=8)
        schedule = schedule_network(failing_repeat_network, flows, acc)
        assert [
            (entry.layer_name, entry.dataflow_name, entry.report)
            for entry in schedule.layers
        ] == per_layer_choices(failing_repeat_network, flows, acc, "runtime")

    def test_no_binding_dataflow_names_the_layer(self, failing_repeat_network):
        with pytest.raises(DataflowError, match="^no dataflow binds to layer 'big1'"):
            schedule_network(
                failing_repeat_network, yr_partitioned(), Accelerator(num_pes=8)
            )
