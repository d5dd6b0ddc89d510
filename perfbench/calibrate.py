"""Host speed, read from a fixed loop that the program under test never runs.

On a shared host the same interpreter runs the same code 20-35 % faster
or slower from one stretch of seconds to the next, and 50-70 % slower
while neighbours load the machine; a whole run can sit in a fast or a
slow stretch. Each workload therefore times :func:`reference_loop`
between its operations, outside the timed regions, and divides its times
by how much slower than :data:`REFERENCE_S` the loop ran around them.
The result reads as time on the reference host. The loop calls no code
of the program, so a change to the program moves the raw and the
corrected figures alike.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: Median time of :func:`reference_loop` on the reference host (2-vCPU
#: VM, Python 3.11.7): a corrected time is a raw time scaled to it.
REFERENCE_S = 0.002


def reference_loop() -> int:
    """Fixed interpreter work: integer arithmetic, a list and a dict."""
    total = 0
    seen = {}
    items = []
    for i in range(20000):
        total += i * i % 7
        items.append(total)
        seen[i & 63] = total
    return total + len(seen) + len(items)


class HostSpeed:
    """Samples of the reference loop, taken between a workload's operations."""

    def __init__(self) -> None:
        #: Every sample of the run, in seconds.
        self.samples: List[float] = []
        self._round: List[float] = []

    def sample(self, repeats: int = 1) -> None:
        """Time the reference loop ``repeats`` times (never inside a timed region)."""
        for _ in range(repeats):
            start = time.perf_counter()
            reference_loop()
            elapsed = time.perf_counter() - start
            self.samples.append(elapsed)
            self._round.append(elapsed)

    def end_round(self) -> float:
        """How many times slower than the reference host this round ran.

        Starts the next round. A round with no sample reads as the
        reference speed.
        """
        factor = statistics.median(self._round) / REFERENCE_S if self._round else 1.0
        self._round = []
        return factor

    def run_factor(self) -> float:
        """The same, over every sample of the run."""
        return statistics.median(self.samples) / REFERENCE_S if self.samples else 1.0
