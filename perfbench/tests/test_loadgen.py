"""Open-loop timing and the rules that judge a rung of the rate ladder."""

import asyncio
import math
import random
import time

from perfbench import loadgen
from perfbench.loadgen import Sample, evaluate_rung
from perfbench.workloads import Checker, ServeAnalyze


def test_latency_is_timed_from_due_time_so_a_stall_delays_later_requests():
    async def send(index):
        if index == 0:
            time.sleep(0.2)  # blocks the generator's event loop
        return 200, {}

    samples = asyncio.run(loadgen.run_open_loop([0.0, 0.05, 0.1], send))
    assert [s.status for s in samples] == [200, 200, 200]
    # Requests 1 and 2 were due during the stall: the generator sent them
    # late, and their latency counts the whole wait from their due time.
    for sample in samples[1:]:
        assert sample.lag_ms >= 80
        assert sample.latency_ms >= sample.lag_ms
        assert sample.latency_ms == (sample.done - sample.due) * 1e3
    assert samples[1].latency_ms >= 140


def test_poisson_offsets_are_seeded_sorted_and_sized():
    offsets = loadgen.poisson_offsets(random.Random(3), rate=10.0, duration=2.0)
    assert len(offsets) == 20
    assert offsets == sorted(offsets) and 0.0 <= offsets[0] and offsets[-1] <= 2.0
    assert offsets == loadgen.poisson_offsets(random.Random(3), rate=10.0, duration=2.0)


def fast_samples(statuses):
    return [
        Sample(index=i, due=float(i), sent=float(i), done=i + 0.001, status=status, body={})
        for i, status in enumerate(statuses)
    ]


def test_rung_meets_limit_when_every_request_is_fast():
    report = evaluate_rung(fast_samples([200] * 20), rate=1.0, limit_ms=50.0)
    assert report.meets_limit and report.failed == 0


def test_a_503_counts_as_failed_and_as_a_latency_miss():
    samples = fast_samples([200] * 10 + [503] + [200] * 9)
    assert math.isinf(samples[10].latency_ms)
    report = evaluate_rung(samples, rate=1.0, limit_ms=50.0)
    assert report.failed == 1 and report.busy_503 == 1 and report.ok == 19
    # Every answered request met the limit; the refused one alone fails the rung.
    assert report.tail_ms <= 50.0
    assert not report.meets_limit


def test_a_503_fails_the_serve_output_check():
    workload = ServeAnalyze.__new__(ServeAnalyze)
    key = ("vgg16", "CONV2", "KC-P", 256)
    workload.references = {key: "{}"}
    checker = Checker()
    busy, ok = fast_samples([503, 200])
    ok.body = {"layers": [{"report": {}}]}
    workload._check(checker, key, busy)
    workload._check(checker, key, ok)
    assert (checker.attempted, checker.failed) == (2, 1)
    assert not busy.ok and ok.ok


def test_a_growing_backlog_fails_the_rung():
    # Every request is answered, but each waits longer than the last.
    samples = [
        Sample(index=i, due=float(i), sent=float(i), done=i + 0.02 * i, status=200, body={})
        for i in range(40)
    ]
    report = evaluate_rung(samples, rate=1.0, limit_ms=600.0)
    assert report.failed == 0 and report.tail_ms <= 600.0
    assert report.last_quarter_p50_ms > 600.0 and not report.meets_limit
