"""Host speed sampling, for timings that survive a noisy machine.

On a shared virtual machine the CPU speed a process gets can halve and
recover within seconds, with no steal time or load visible from inside.
A raw timing then measures the neighbours as much as the program.  The
sampler tracks that speed while the benchmark runs: every INTERVAL_S a
SIGALRM handler times a fixed pure-Python kernel that shares no code
with chessval.  A span of wall time is converted into *reference
seconds*, the time it would have taken with the host at its reference
speed, by multiplying it by the speed sampled around it.  A change
to chessval cannot change the kernel, so a calibrated time still moves
with the program, but not with the host.

The handler's own time is excluded from every measured span.
"""

from __future__ import annotations

import signal
import time
from array import array
from bisect import bisect_left, bisect_right

INTERVAL_S = 0.05

# Kernel time at the reference speed; the 2-vCPU host the benchmark was
# defined on (Python 3.11) ran it in 0.2 to 0.4 ms.
REFERENCE_KERNEL_S = 0.00025


class _Piece:
    __slots__ = ("x", "y", "colour")

    def __init__(self, x, y, colour):
        self.x, self.y, self.colour = x, y, colour


_PIECES = tuple(
    _Piece(x, y, (x + y) % 2) for x in range(1, 9) for y in range(1, 9) if (x * y) % 3
)
_OFFSETS = ((1, 2), (2, 1), (-1, 2), (-2, 1), (1, -2), (2, -1), (-1, -2), (-2, -1))


def kernel(rounds: int = 2) -> int:
    """Fixed work shaped like move generation: an occupancy dict keyed by
    square tuples, attribute reads, identity tests, short-lived tuples,
    lists and frozensets.  Everything it allocates dies before it
    returns, so it leaves the garbage collector's counts where they were."""
    total = 0
    for _ in range(rounds):
        occupied = {(p.x, p.y): p for p in _PIECES}
        for p in _PIECES:
            targets = []
            for dx, dy in _OFFSETS:
                other = occupied.get((p.x + dx, p.y + dy))
                if other is None or other.colour is not p.colour:
                    targets.append((p.x + dx, p.y + dy))
            total += len(frozenset(targets))
    return total


class SpeedSampler:
    """Samples host speed every INTERVAL_S while started."""

    def __init__(self):
        self.stamps = array("d")  # sample end times (perf_counter)
        self.speeds = array("d")  # REFERENCE_KERNEL_S / kernel time
        self.busy_s = 0.0  # total time spent in the handler
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.stamps.append(end)
        self.speeds.append(REFERENCE_KERNEL_S / (end - start))
        self.busy_s += end - start
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed_between(self, start: float, end: float) -> float:
        """Interquartile mean of the speeds sampled over [start, end],
        widened by two intervals on each side.  Trimming drops samples a
        preemption happened to hit, which would read far too slow."""
        lo = bisect_left(self.stamps, start - 2 * INTERVAL_S)
        hi = bisect_right(self.stamps, end + 2 * INTERVAL_S)
        if hi == lo:
            return self.speeds[min(lo, len(self.speeds) - 1)]
        window = sorted(self.speeds[lo:hi])
        cut = len(window) // 4
        kept = window[cut:len(window) - cut]
        return sum(kept) / len(kept)

    def reference_seconds(self, start: float, end: float, busy_before: float) -> float:
        """Wall span [start, end] minus the handler time inside it, at the
        reference speed.  busy_before is busy_s read at start."""
        elapsed = end - start - (self.busy_s - busy_before)
        return elapsed * self.speed_between(start, end)
