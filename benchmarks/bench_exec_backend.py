"""Micro-benchmarks for the batch-evaluation backend (:mod:`repro.exec`).

Timed kernels for the CI regression gate: the serial cold path (pure
cost-model throughput), the warm memoization path (cache-lookup
throughput), and cache-key construction, both for one point and for the
key pass over a Figure-13-shaped grid. A pure-Python calibration spin
lets ``check_regression.py`` normalize away machine-speed differences
between the baseline host and the CI runner.
"""

import pytest

from repro.dataflow.library import kc_partitioned, yr_partitioned
from repro.dse.space import default_bandwidths, default_pe_counts
from repro.exec import AnalysisCache, EvalPoint, cache_key, cache_keys, evaluate_batch
from repro.hardware.accelerator import Accelerator, NoC
from repro.hardware.energy import DEFAULT_ENERGY_MODEL
from repro.model.zoo import build
from repro.util.text_table import format_table


@pytest.fixture(scope="module")
def points():
    layer = build("vgg16").layer("CONV11")
    flows = [kc_partitioned(c_tile=16), yr_partitioned()]
    return [
        EvalPoint(layer, flow, Accelerator(num_pes=pes, noc=NoC(bandwidth=bw)))
        for flow in flows
        for pes in (64, 128, 256, 512)
        for bw in (8, 16, 32, 64)
    ]


def test_bench_serial_cold(benchmark, points):
    """Uncached serial evaluation: the pre-backend sweep behavior."""
    result = benchmark(evaluate_batch, points, executor="serial", cache=False)
    assert result.stats.evaluated == len(points)


def test_bench_cache_warm(benchmark, points):
    """Fully warm memoized evaluation: the tuner-restart fast path."""
    cache = AnalysisCache()
    evaluate_batch(points, cache=cache)

    result = benchmark(evaluate_batch, points, cache=cache)
    assert result.stats.cache_hits == len(points)


def test_bench_cache_key(benchmark, points):
    """Content-addressed key construction (paid once per novel point)."""
    point = points[0]
    key = benchmark(
        cache_key, point.layer, point.dataflow, point.accelerator, point.energy_model
    )
    assert len(key) == 64


def test_bench_batch_keys(benchmark):
    """The key pass of one Fig-13-shaped batch: 2 flows x 32 PE counts x 8 bandwidths."""
    layer = build("vgg16").layer("CONV11")
    grid = [
        (layer, flow, Accelerator(num_pes=pes, noc=NoC(bandwidth=bw)), DEFAULT_ENERGY_MODEL)
        for flow in (kc_partitioned(c_tile=16), yr_partitioned())
        for pes in default_pe_counts(max_pes=512, step=16)
        for bw in default_bandwidths(128)
    ]
    keys = benchmark(cache_keys, grid)
    assert len(keys) == len(grid) == 512


def test_bench_calibration(benchmark):
    """Pure-Python spin used to normalize cross-machine regressions."""
    def spin():
        total = 0
        for i in range(200_000):
            total += i * i
        return total

    assert benchmark(spin) > 0


def test_backend_throughput_table(points, emit_result):
    """Human-readable summary of the cold-vs-warm throughput gap."""
    import time

    start = time.perf_counter()
    cold = evaluate_batch(points, executor="serial", cache=False)
    cold_seconds = time.perf_counter() - start

    cache = AnalysisCache()
    evaluate_batch(points, cache=cache)
    start = time.perf_counter()
    warm = evaluate_batch(points, cache=cache)
    warm_seconds = time.perf_counter() - start

    for a, b in zip(cold, warm):
        assert a.report == b.report
    rows = [
        [
            "serial cold", len(points), cold.stats.evaluated,
            f"{cold_seconds * 1e3:.1f}", f"{len(points) / cold_seconds:,.0f}",
        ],
        [
            "cache warm", len(points), warm.stats.cache_hits,
            f"{warm_seconds * 1e3:.1f}", f"{len(points) / warm_seconds:,.0f}",
        ],
    ]
    emit_result(
        "exec_backend_throughput",
        format_table(
            ["path", "points", "computed/hits", "time (ms)", "points/s"],
            rows,
            title="Batch-evaluation backend — cold vs warm throughput",
        ),
    )
