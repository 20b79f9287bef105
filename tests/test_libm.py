"""The platform assumption (README) against an exact reference.

One certificate rests on libm, which IEEE 754 does not bind:
balance._residual_bounds trusts the float roots of unity cos and sin of
fl(2 pi e / m), the members of roots_of_unity(m), which canon's route reads
as its targets, to lie within TARGET_ERR of the exact root. The reference
evaluates every root in decimal at 40 digits: 2 pi e / m is reduced exactly
on the rational e / m to the nearest quarter turn k / 4, so the rest lies in
[-pi/4, pi/4], where the Taylor series of cos and sin converge fast, and a
quarter-turn rotation puts the result back. Its error is near 1e-38, far
below the 1e-15 that libm's floats miss by.

tier-1 checks every odd m <= 201 and m = 401, 801 and 2001; CI checks every
odd m <= 2001 and m = 20001 by importing check_platform_assumption.
"""

import math
from decimal import Decimal, localcontext

from balcfg.balance import TARGET_ERR
from balcfg.geometry import roots_of_unity

PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")
DIGITS = 40
# |x| <= pi/4 and (pi/4)^36 / 36! < 1e-44, so 17 pairs of terms reach DIGITS
TERMS = 17
TIER1_MS = [*range(3, 202, 2), 401, 801, 2001]


def exact_root(m, e):
    """(cos, sin) of 2 pi e / m as Decimals within about 1e-38, in a context
    of DIGITS digits: k is the nearest quarter turn to e / m, the rest 2 pi
    (e / m - k / 4) = pi (4e - km) / (2m) lies in [-pi/4, pi/4], and (cos,
    sin) of the rest, turned by k quarter turns, is the root."""
    k = (8 * e + m) // (2 * m)  # round(4e / m): no tie, as m is odd
    x = PI * (4 * e - k * m) / (2 * m)
    x2 = -x * x
    c = term_c = Decimal(1)
    s = term_s = x
    for j in range(1, TERMS + 1):
        term_c = term_c * x2 / ((2 * j - 1) * (2 * j))
        term_s = term_s * x2 / ((2 * j) * (2 * j + 1))
        c += term_c
        s += term_s
    return ((c, s), (-s, c), (-c, -s), (s, -c))[k % 4]


def exact_roots(m):
    """[exact_root(m, e) for e in range(m)], at DIGITS digits."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return [exact_root(m, e) for e in range(m)]


def distances(m):
    """Over e in range(m), the distance of roots_of_unity(m)'s member e from
    the exact root."""
    c = roots_of_unity(m)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return [
            math.hypot(Decimal(x) - cos, Decimal(y) - sin)
            for (cos, sin), x, y in zip(exact_roots(m), c.xs, c.ys)
        ]


def check_platform_assumption(ms):
    """Assert the assumption for every member of U_m, m in ms, naming the
    worst case; return the worst distance."""
    worst = (0.0, 0, 0)
    for m in ms:
        values = distances(m)
        d = max(values)
        worst = max(worst, (d, m, values.index(d)))
    assert worst[0] <= TARGET_ERR, f"target (distance, m, e) = {worst}"
    return worst[0]


def test_the_reference_hits_the_closed_forms_in_every_quadrant():
    # m = 3 and 5 turn by k = 0, 1, 2 and 3 quarter turns among them
    with localcontext() as ctx:
        ctx.prec = DIGITS
        root3, root5 = Decimal(3).sqrt(), Decimal(5).sqrt()
        cos5, cos25 = (root5 - 1) / 4, -(root5 + 1) / 4
        sin5, sin25 = ((10 + 2 * root5).sqrt() / 4, (10 - 2 * root5).sqrt() / 4)
        closed = {
            3: [(1, 0), (Decimal(-0.5), root3 / 2), (Decimal(-0.5), -root3 / 2)],
            5: [(1, 0), (cos5, sin5), (cos25, sin25), (cos25, -sin25), (cos5, -sin5)],
        }
        for m, roots in closed.items():
            for (c, s), (ref_c, ref_s) in zip(exact_roots(m), roots):
                assert abs(c - ref_c) < Decimal("1e-37") and abs(s - ref_s) < Decimal("1e-37")


def test_the_reference_lies_on_the_unit_circle():
    with localcontext() as ctx:
        ctx.prec = DIGITS
        for m in (7, 201, 2001):
            assert all(abs(c * c + s * s - 1) < Decimal("1e-37") for c, s in exact_roots(m))


def test_libm_meets_the_platform_assumption():
    # the worst seen is near 1e-15, an order below the bound: a reference
    # that agreed with libm to the last bit would show 0 and prove nothing
    assert check_platform_assumption(TIER1_MS) > 0
