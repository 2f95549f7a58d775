"""Host speed probe: a fixed piece of work that uses no kzeta, timed next to
the ops of a run, so that the benchmark can state its times at one fixed host
speed.

The shared host described in README.md runs for minutes at a time 30-60% slower
than at other times, for any code, and in between it switches between fast and
slow within seconds.  No statistic of raw op times over one run escapes that.
The probe, timed right before an op, slows by about the same factor as the op,
so the ratio of the two repeats where either alone does not.  A time is stated
at the reference speed as REF_S times such a ratio.  See README.md, Noise.
"""

from __future__ import annotations

import math
import statistics
import time

# Best time of reference() on the host described in README.md, in a calm
# minute.  Times scaled with it read as seconds on that host at its fastest.
REF_S = 0.0021


def reference() -> int:
    """About 2 ms of work of the kinds kzeta does: products of big integers (the
    resultants), small modular powers in an interpreter loop with a dict (the
    discrete logs and bucket sums), and a bytearray sieve (the prime counts)."""
    big_a = [(i * 7919 + 13) ** 90 for i in range(16)]
    big_b = [(i * 104729 + 7) ** 90 for i in range(16)]
    acc = [0] * 31
    for i, x in enumerate(big_a):
        for j, y in enumerate(big_b):
            acc[i + j] += x * y
    table: dict[int, int] = {}
    for a in range(2, 1200):
        r = pow(a, 1009, 10007)
        table[r % 211] = table.get(r % 211, 0) + r
    n = 400_000
    flags = bytearray([1]) * n
    for q in (2, 3, 5, 7, 11, 13, 17, 19):
        flags[q * q :: q] = bytes(len(range(q * q, n, q)))
    return (acc[15] ^ sum(table.values()) ^ flags.count(1)) & 1


class Probe:
    """Times reference() when asked, or when its last time is stale."""

    def __init__(self, every_s: float = 0.05):
        self.every_s = every_s
        self.times: list[float] = []
        self._end = -math.inf

    def sample(self, times: int = 1) -> float:
        """Time reference() `times` times; return the median of these times."""
        new = []
        for _ in range(times):
            t0 = time.perf_counter()
            reference()
            self._end = time.perf_counter()
            new.append(self._end - t0)
        self.times += new
        return statistics.median(new)

    def recent(self) -> float:
        """The probe's time, sampled again if the last sample ended more than
        every_s ago, so an op of more than every_s gets a probe of its own."""
        if time.perf_counter() - self._end >= self.every_s:
            self.sample()
        return self.times[-1]

    def factor(self) -> float:
        """REF_S over the median probe time: the typical scale of this run."""
        return REF_S / statistics.median(self.times)
