"""Host-speed reference: a fixed pure-Python kernel timed next to the work it scales.

On a shared host the speed of this machine drifts by up to ~1.8x over periods
of seconds to minutes (neighbours' load), and every layer of the program slows
together.  The benchmark times this kernel immediately before and after each
unit of work and reports times scaled to the kernel's NOMINAL_S speed:

    scaled = measured * NOMINAL_S / kernel_time

The kernel is not program code, so a change to the program cannot move it; it
mixes Fraction arithmetic, integer arithmetic and small allocations, like the
program's hot paths.  Raw times are kept in the run record next to the
scaled ones.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# The kernel's best time on the reference host (Intel Xeon, 2 vCPUs, Python
# 3.11) in a quiet period; scaled times are seconds at that speed.
NOMINAL_S = 0.0007
REPEATS = 5


def _kernel() -> int:
    acc = Fraction(0)
    x = Fraction(3, 7)
    for i in range(1, 150):
        acc = acc + x * Fraction(i, i + 1)
    v = 1
    for i in range(1, 3000):
        v = (v * 31 + i) % 1000003
    table = {}
    for i in range(300):
        table[(i, i * i)] = [i, v]
    return len(table) + acc.denominator % 7


def kernel_time() -> float:
    """Best of REPEATS timings of the kernel, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best


def scale(seconds: float, before: float, after: float) -> float:
    """Scale a measured time by the kernel timings taken just before and after it."""
    return seconds * NOMINAL_S * 2 / (before + after)
