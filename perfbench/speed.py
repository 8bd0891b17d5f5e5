"""Machine-speed calibration shared by every timed process of the benchmark.

The CPU speed seen by a process on a shared host drifts by well over ten
percent within seconds, so raw wall times of the same work do not repeat
between runs. Every timed region is therefore paired with nearby samples
of a fixed reference kernel (integer elimination and Fraction arithmetic,
the operations the library spends its time on), and times are reported
rescaled to a nominal reference speed:

    normalized = raw * NOMINAL_S / (median of nearby reference samples)

The raw times are printed alongside, so both views stay visible.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Reference-kernel time, in seconds, at the nominal speed that normalized
# times are expressed in (close to the kernel's median on a 2-core x86 VM
# with Python 3.11; ``python3 perfbench/speed.py`` prints it for this host).
NOMINAL_S = 0.0018
# A sample at most every INTERVAL_S of timed work; a time is rescaled by the
# median of the WINDOW samples nearest to it.
INTERVAL_S = 0.03
WINDOW = 11

_SIZE = 18


def _kernel() -> int:
    rows = [[((i * 7 + j * 13) % 11) - 5 for j in range(_SIZE)] for i in range(_SIZE)]
    for c in range(_SIZE):
        p = rows[c][c] or 1
        rp = rows[c]
        for i in range(c + 1, _SIZE):
            f = rows[i][c]
            ri = rows[i]
            for j in range(c, _SIZE):
                ri[j] = p * ri[j] - f * rp[j]
    table = {}
    for i in range(600):
        table[(i, i % 7)] = Fraction(i, 7) + 1
    return len(table) + rows[-1][-1] % 2


def sample() -> tuple[float, float]:
    """Run the reference kernel once; returns (start time, duration)."""
    t0 = time.perf_counter()
    _kernel()
    return t0, time.perf_counter() - t0


class Calibration:
    """Reference samples taken along a run, and the local speed factor."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def take(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(sample())

    def maybe_take(self) -> None:
        """Take a sample when the last one is older than the interval."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= INTERVAL_S:
            self.take()

    def factor_at(self, t: float) -> float:
        """NOMINAL_S over the median of the samples nearest to time ``t``."""
        nearest = sorted(self.samples, key=lambda s: abs(s[0] - t))[:WINDOW]
        return NOMINAL_S / statistics.median(d for _, d in nearest)


if __name__ == "__main__":
    cal = Calibration()
    cal.take(200)
    durations = [d for _, d in cal.samples]
    print(f"reference kernel median {statistics.median(durations) * 1e3:.3f} ms "
          f"(min {min(durations) * 1e3:.3f}, max {max(durations) * 1e3:.3f})")
