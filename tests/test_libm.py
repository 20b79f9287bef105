"""The platform assumption (README) against an exact reference.

Two certificates rest on libm, which IEEE 754 does not bind:
balance._residual_bounds trusts the float roots of unity cos and sin of
fl(2 pi e / m), the members of roots_of_unity(m), which canon's route reads
as its targets, to lie within TARGET_ERR of the exact root, and its floor
trusts math.sin(math.pi / m) to lie within FLOOR_ERR of sin(pi / m),
relatively; balance._gap_floor trusts atan2, the fold into [0, 2 pi) and
fmod(., pi) to lie within ARGUMENT_ERR of the exact argument. The reference
evaluates every root in decimal at 40 digits: 2 pi e / m is reduced exactly
on the rational e / m to the nearest quarter turn k / 4, so the rest lies in
[-pi/4, pi/4], where the Taylor series of cos and sin converge fast, and a
quarter-turn rotation puts the result back. Its error is near 1e-38, far
below the 1e-15 that libm's floats miss by. sin(pi / m) is the sine of root
n = (m - 1) / 2, as 2 pi n / m = pi - pi / m.

tier-1 checks every odd m <= 201 and m = 401, 801 and 2001; CI checks every
odd m <= 2001 and m = 20001 by importing check_platform_assumption.
"""

import math
from decimal import Decimal, localcontext

from balcfg.balance import ARGUMENT_ERR, BOUND_SLACK, TARGET_ERR
from balcfg.geometry import roots_of_unity

PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")
DIGITS = 40
# |x| <= pi/4 and (pi/4)^36 / 36! < 1e-44, so 17 pairs of terms reach DIGITS
TERMS = 17
TIER1_MS = [*range(3, 202, 2), 401, 801, 2001]
# Relative error bound of math.sin(math.pi / m): _residual_bounds rounds the
# floor's first term down by BOUND_SLACK, which must cover this error and the
# rounding of that product; 2^-10 of it, about 4 ulp, leaves a wide margin.
FLOOR_ERR = BOUND_SLACK / 1024


def exact_roots(m):
    """[(cos, sin) of 2 pi e / m for e in range(m)] as Decimals within about
    1e-38: k is the nearest quarter turn to e / m, the rest 2 pi (e / m -
    k / 4) = pi (4e - km) / (2m) lies in [-pi/4, pi/4], and (cos, sin) of
    the rest, turned by k quarter turns, is the root."""
    roots = []
    with localcontext() as ctx:
        ctx.prec = DIGITS
        for e in range(m):
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
            roots.append(((c, s), (-s, c), (-c, -s), (s, -c))[k % 4])
    return roots


def distances(m):
    """(target, argument, mod_pi, floor) lists: over e in range(m), the
    distance of roots_of_unity(m)'s member e from the exact root, of its
    argument from 2 pi e / m, and of that argument's fmod by pi from
    2 pi e / m mod pi; and, as floor's one entry, the relative error of
    math.sin(math.pi / m)."""
    c = roots_of_unity(m)
    target, argument, mod_pi = [], [], []
    with localcontext() as ctx:
        ctx.prec = DIGITS
        roots = exact_roots(m)
        for e, ((cos, sin), x, y, theta) in enumerate(zip(roots, c.xs, c.ys, c.arguments)):
            target.append(math.hypot(Decimal(x) - cos, Decimal(y) - sin))
            argument.append(float(abs(Decimal(theta) - 2 * PI * e / m)))
            reduced = Decimal(math.fmod(theta, math.pi))
            mod_pi.append(float(abs(reduced - PI * (2 * e % m) / m)))
        sin_floor = roots[(m - 1) // 2][1]
        floor = float(abs(Decimal(math.sin(math.pi / m)) - sin_floor) / sin_floor)
    return target, argument, mod_pi, [floor]


def check_platform_assumption(ms):
    """Assert every part of the assumption for every m in ms, on each member
    of U_m and on the floor's sin(pi / m), naming the worst case of each
    part (e = 0 for the floor); return the four worst distances."""
    worst = [(0.0, None, None)] * 4
    for m in ms:
        for part, values in enumerate(distances(m)):
            d = max(values)
            if d > worst[part][0]:
                worst[part] = (d, m, values.index(d))
    (target, *_), (argument, *_), (mod_pi, *_), (floor, *_) = worst
    assert target <= TARGET_ERR, f"target (distance, m, e) = {worst[0]}"
    assert argument <= ARGUMENT_ERR, f"argument (distance, m, e) = {worst[1]}"
    assert mod_pi <= ARGUMENT_ERR, f"argument mod pi (distance, m, e) = {worst[2]}"
    assert floor <= FLOOR_ERR, f"floor sin(pi / m) (relative error, m, e) = {worst[3]}"
    return target, argument, mod_pi, floor


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
    target, argument, mod_pi, floor = check_platform_assumption(TIER1_MS)
    # the worst seen is near 1e-15 (2e-16 for the floor), an order below
    # each bound: a reference that agreed with libm to the last bit would
    # show 0 and prove nothing
    assert target > 0 and argument > 0 and mod_pi > 0 and floor > 0
