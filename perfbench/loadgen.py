"""Open-loop load generation against the analysis server.

Requests are sent on a schedule fixed in advance, whether or not
earlier ones have been answered, the way independent users arrive. Each
request's latency is timed from when it was *due*, not from when the
generator got round to sending it, so a stall that delays the generator
shows up in the latency of every request it held back. How late the
generator ran is recorded too.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from perfbench import stats

#: A request gets this long before it counts as timed out (failed).
REQUEST_TIMEOUT_S = 30.0


@dataclass
class Sample:
    """One request as the generator saw it (clock: ``time.perf_counter``)."""

    index: int
    due: float
    sent: float
    done: float
    status: int
    body: Optional[Dict[str, Any]]
    #: Cleared when the answer differs from the in-process reference.
    correct: bool = True

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.correct

    @property
    def latency_ms(self) -> float:
        """Due-to-done time; a failed request misses every limit."""
        return (self.done - self.due) * 1e3 if self.ok else math.inf

    @property
    def lag_ms(self) -> float:
        return (self.sent - self.due) * 1e3


def poisson_offsets(rng: random.Random, rate: float, duration: float) -> List[float]:
    """Arrival offsets of a Poisson process with exactly ``rate * duration`` arrivals.

    Conditioned on its count, a Poisson process's arrival times are
    independent and uniform over the interval, so sorting uniform draws
    gives the schedule while keeping the offered load fixed per rung.
    """
    count = max(1, round(rate * duration))
    return sorted(rng.uniform(0.0, duration) for _ in range(count))


async def run_open_loop(
    offsets: Sequence[float],
    send: Callable[[int], Awaitable[Tuple[int, Optional[Dict[str, Any]]]]],
) -> List[Sample]:
    """Send request ``i`` at ``offsets[i]`` seconds from now; wait for all."""
    start = time.perf_counter()

    async def one(index: int, due: float) -> Sample:
        sent = time.perf_counter()
        try:
            status, body = await asyncio.wait_for(send(index), REQUEST_TIMEOUT_S)
        except (asyncio.TimeoutError, ConnectionError, OSError, ValueError):
            status, body = 0, None
        return Sample(index, due, sent, time.perf_counter(), status, body)

    tasks = []
    for index, offset in enumerate(offsets):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(one(index, due)))
    return list(await asyncio.gather(*tasks))


async def post_json(
    host: str, port: int, path: str, doc: Dict[str, Any], request_id: str
) -> Tuple[int, Optional[Dict[str, Any]]]:
    """One ``POST`` on its own connection, the server's connection model."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = json.dumps(doc).encode()
        head = (
            f"POST {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            f"X-Request-Id: {request_id}\r\nConnection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head_bytes, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head_bytes.split(b" ", 2)[1])
    return status, (json.loads(payload) if payload else None)


@dataclass
class RungReport:
    """What one rate of the ladder measured."""

    rate: float
    sent: int
    ok: int
    failed: int
    busy_503: int
    tail_ms: float
    tail_pct: float
    last_quarter_p50_ms: float
    throughput: float
    max_lag_ms: float
    meets_limit: bool


def evaluate_rung(samples: Sequence[Sample], rate: float, limit_ms: float) -> RungReport:
    """Judge one rung: its tail must meet ``limit_ms`` with no growing backlog.

    A failed request (non-200, 503, time-out, wrong answer) counts as
    missing the limit. Backlog is judged on the latest-due quarter of
    the rung: when the queue keeps growing those requests wait longest.
    """
    ordered = sorted(samples, key=lambda sample: sample.due)
    latencies = [sample.latency_ms for sample in ordered]
    failed = sum(1 for sample in ordered if not sample.ok)
    tail_ms, tail_pct = stats.tail(latencies)
    last_quarter = latencies[-max(1, len(latencies) // 4):]
    last_p50 = stats.median(last_quarter)
    ok = len(ordered) - failed
    span = max(sample.done for sample in ordered) - ordered[0].due
    return RungReport(
        rate=rate,
        sent=len(ordered),
        ok=ok,
        failed=failed,
        busy_503=sum(1 for sample in ordered if sample.status == 503),
        tail_ms=tail_ms,
        tail_pct=tail_pct,
        last_quarter_p50_ms=last_p50,
        throughput=ok / span if span > 0 else 0.0,
        max_lag_ms=max(sample.lag_ms for sample in ordered),
        meets_limit=failed == 0 and tail_ms <= limit_ms and last_p50 <= limit_ms,
    )
