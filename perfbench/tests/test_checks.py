"""Output checks: a perturbed answer is counted as failed; stats helpers;
the benchmark refuses to run without the program's source."""

import dataclasses
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from perfbench import stats
from perfbench.calibrate import REFERENCE_S, HostSpeed
from perfbench.workloads import Checker, library_outcome, load_golden, network_digest

ROOT = Path(__file__).resolve().parents[2]


def lint_and_verify(model, layer_name, flow_name):
    from repro.dataflow.library import table3_dataflows
    from repro.hardware.accelerator import Accelerator
    from repro.lint import lint_dataflow
    from repro.model.zoo import build
    from repro.verify import verify_dataflow

    layer = build(model).layer(layer_name)
    flow = table3_dataflows()[flow_name]
    return lint_dataflow(flow, layer, Accelerator(num_pes=256)), verify_dataflow(flow, layer)


def test_library_pair_matches_golden_and_a_perturbed_report_fails():
    key = "vgg16/CONV3/KC-P"
    expected = load_golden()["library_check"][key]
    report, verdict = lint_and_verify("vgg16", "CONV3", "KC-P")
    checker = Checker()
    assert checker.expect(key, expected, library_outcome(report, verdict))
    perturbed = dataclasses.replace(report, diagnostics=report.diagnostics[1:])
    assert not checker.expect(key, expected, library_outcome(perturbed, verdict))
    assert (checker.attempted, checker.failed) == (2, 1)
    assert "expected" in checker.messages[0]


def test_network_digest_sees_the_last_digit():
    class Analysis:
        runtime = 1234.5
        energy_total = 6.75

    class Perturbed(Analysis):
        energy_total = 6.75 + 1e-12

    assert network_digest(Analysis) != network_digest(Perturbed)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 101))
    assert stats.tail(values) == (90, 90.0)
    assert stats.tail(list(range(1, 1001)))[1] == 99.0
    # Too few samples for any such percentile: the maximum, stated as p100.
    assert stats.tail([3, 1, 2]) == (3, 100.0)
    summary = stats.summary(values, scale=2.0)
    assert summary["p50"] == 101.0 and summary["tail"] == 180 and summary["n"] == 100


def test_median_total_ignores_a_round_the_host_stalled():
    times = {"a": [1.0, 1.1, 0.9], "b": [2.0, 9.0, 2.0]}
    # b's second round stalled: the typical round is 1.0 + 2.0, not the mean.
    assert stats.median_total(times) == 3.0
    assert stats.median_total({}) == 0


def test_round_times_scale_each_round_by_its_slowdown():
    times = stats.RoundTimes()
    times.add("a", 2.0)
    times.add("b", 4.0)
    times.end_round(2.0)
    times.add("a", 1.0)
    times.add("b", 2.0)
    times.end_round(1.0)
    assert times.raw == {"a": [2.0, 1.0], "b": [4.0, 2.0]}
    # The slow round and the fast one read alike at the reference speed.
    assert times.ref == {"a": [1.0, 1.0], "b": [2.0, 2.0]}
    assert sorted(times.samples()) == [1.0, 2.0, 2.0, 4.0]


def test_host_speed_is_read_per_round_against_the_reference():
    speed = HostSpeed()
    speed.sample(repeats=3)
    assert len(speed.samples) == 3
    assert speed.end_round() == statistics.median(speed.samples) / REFERENCE_S
    # A round without samples reads as the reference speed.
    assert speed.end_round() == 1.0


def test_run_without_program_source_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dse_fig13", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
