"""A fixed reference kernel that measures how fast the host runs Python now.

The host this benchmark was written on gives the same code 10-30% more or
less throughput from one minute to the next, and that drift, not the
program, dominated the spread of raw wall times between runs.  Each worker
therefore runs slices of this kernel just before its ops, every
``EVERY_S`` seconds while they run (from a ``SIGALRM`` timer, so that a
single long op is sampled too), and just after them, all in the same
process, and expresses every op's time in units of the slices around it.

The kernel lives in the benchmark's own files and calls nothing in
``hookcounts``, so no change to the program moves it: a program that gets
10% slower still reads 10% slower after normalisation, while a host that
gets 10% slower moves kernel and workload together and cancels.  It mixes
what the workloads spend their time on: a partition walk that builds
tuples, dict counting over the parts, and a big-integer power-series
product.
"""

from __future__ import annotations

import signal
from statistics import median
from time import perf_counter

# Time one slice takes on the 2-vCPU Intel Xeon the bounds were set on, at a
# quiet moment.  Normalised times are scaled by it, so that they read as the
# seconds the workload would take on that host at that speed.
NOMINAL_SLICE_S = 0.025

SLICES = 4        # slices before the ops, and again after them
EVERY_S = 0.25    # while the ops run, one slice this often
NEAREST = 5       # an op with fewer slices inside it also uses the nearest ones
CHECKSUM = 81_463_138_222


def _partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _slice() -> int:
    # partitions of 26, with the multiplicities of their parts counted
    acc = 0
    for p in _partitions(26, 26):
        counts: dict[int, int] = {}
        for part in p:
            counts[part] = counts.get(part, 0) + 1
        acc += len(counts) * len(p)
    # prod_k 1/(1-q^k)^3 to order 300: coefficients grow past machine words
    coeffs = [1] + [0] * 300
    for k in range(1, 301):
        for _ in range(3):
            for i in range(k, 301):
                coeffs[i] += coeffs[i - k]
    return acc * 1_000_003 + coeffs[300] % 1_000_000_007


class Reference:
    """Slices of the kernel run around and during one repetition's ops."""

    def __init__(self):
        self.slices: list[tuple[float, float]] = []  # (start, end)

    def run(self, count: int) -> None:
        for _ in range(count):
            t0 = perf_counter()
            value = _slice()
            t1 = perf_counter()
            if value != CHECKSUM:
                raise SystemExit(f"reference kernel gave {value}, not {CHECKSUM}")
            self.slices.append((t0, t1))

    def start_sampling(self) -> None:
        """Run one slice every ``EVERY_S`` seconds, whatever code is running."""
        signal.signal(signal.SIGALRM, lambda signum, frame: self.run(1))
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop_sampling(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def op_seconds(self, t0: float, t1: float) -> tuple[float, float]:
        """(raw, normalised) seconds of an op timed as [t0, t1], slices taken out."""
        # a slice runs whole inside the signal handler, so it lies either
        # wholly inside an op's [t0, t1] or wholly outside it
        near = [(a, b) for a, b in self.slices if t0 <= a and b <= t1]
        raw = (t1 - t0) - sum(b - a for a, b in near)
        if len(near) < NEAREST:
            mid = (t0 + t1) / 2
            near = sorted(self.slices, key=lambda s: abs(s[0] + s[1] - 2 * mid))[:NEAREST]
        return raw, raw * NOMINAL_SLICE_S / median(b - a for a, b in near)

    def median_s(self) -> float:
        return median(b - a for a, b in self.slices)
