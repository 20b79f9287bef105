"""How fast the host runs Python right now, from a fixed reference kernel.

The benchmark runs on shared hosts whose other tenants slow a process by up
to half for seconds or minutes at a time; raw op times then differ more
between runs than any change worth measuring. The kernel below is fixed
work of the two kinds balcfg spends its time in: exact rational arithmetic
on growing integers (as in root isolation and exact determinant tables) and
float determinants (as in float tables). It is timed around every op, and
op times are reported as if measured on a reference host on which the
kernel takes REFERENCE_S: time * REFERENCE_S / kernel time around it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# kernel time of the reference host, a fixed convention; on a shared 2-vCPU
# x86-64 VM with Python 3.11 the kernel took 1.5 ms in a busy hour
REFERENCE_S = 0.001

_COEFFS = tuple((-1) ** i * (3 * i * i + 7) * 10**12 + i for i in range(22))
_POINTS = tuple((i * 0.37, 1.0 - i * 0.11) for i in range(24))


def kernel():
    """One Taylor shift by 3/7 of a fixed integer polynomial in exact
    rationals, then a table of float determinants."""
    c = [Fraction(x) for x in _COEFFS]
    a = Fraction(3, 7)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += a * c[j + 1]
    table = [x1 * y2 - y1 * x2 for x1, y1 in _POINTS for x2, y2 in _POINTS]
    return c, table


def time_kernel(repeats: int = 1) -> float:
    """Median seconds of `repeats` kernel runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(seconds: float, kernel_seconds: float) -> float:
    """`seconds` measured here, as it would read on the reference host."""
    return seconds * REFERENCE_S / kernel_seconds
