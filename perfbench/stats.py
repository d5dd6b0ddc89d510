"""Order statistics used by every workload's report.

A timing is reported as its median plus the highest percentile that
still has at least ten samples beyond it, together with the sample
count, so a tail figure never rests on one or two outliers.
"""

from __future__ import annotations

import statistics
from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

#: Samples that must lie beyond a reported tail percentile.
TAIL_MARGIN = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def median_total(times: Mapping[Hashable, Sequence[float]]) -> float:
    """Time of one typical round: the sum over operations of each one's median.

    A workload repeats the same operations round after round. Taking
    each operation's median over the rounds before summing drops the
    rounds in which the host stalled that operation, so one slow second
    on a shared host moves the total far less than a plain sum would.
    """
    return sum(median(samples) for samples in times.values())


class RoundTimes:
    """Operation times by operation, one sample per round.

    Each time is kept as measured (``raw``) and divided by the round's
    host slowdown (``ref``, see :mod:`perfbench.calibrate`).
    """

    def __init__(self) -> None:
        self.raw: Dict[Hashable, List[float]] = {}
        self.ref: Dict[Hashable, List[float]] = {}
        self._round: Dict[Hashable, float] = {}

    def add(self, key: Hashable, seconds: float) -> None:
        self._round[key] = seconds

    def end_round(self, slowdown: float) -> None:
        for key, seconds in self._round.items():
            self.raw.setdefault(key, []).append(seconds)
            self.ref.setdefault(key, []).append(seconds / slowdown)
        self._round = {}

    def samples(self) -> List[float]:
        """Every time as measured."""
        return [t for samples in self.raw.values() for t in samples]


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with ``TAIL_MARGIN`` samples beyond.

    With too few samples for any such percentile the maximum is
    returned as percentile 100, so the caller can state it as such.
    """
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    n = len(ordered)
    index = n - TAIL_MARGIN - 1
    if index < 0:
        return ordered[-1], 100.0
    return ordered[index], 100.0 * (index + 1) / n


def summary(values: Sequence[float], scale: float = 1.0) -> Dict[str, float]:
    """Median, tail and count of ``values`` (times ``scale``), for the report."""
    high, pct = tail(values)
    return {
        "p50": median(values) * scale,
        "tail": high * scale,
        "tail_pct": round(pct, 1),
        "n": len(values),
    }

