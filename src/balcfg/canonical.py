"""Canonical forms under GL2: every uniform balanced configuration of odd
size m = 2n+1 is an invertible linear image of the m-th roots of unity, and
the map is computed explicitly.

Pipeline: sort by argument; frame (v_0, v_n) onto the unit frame by g_C;
read t_C off g_C.v_{n+1}; compose with the inverse of the frame g_n of
(1, w^n). The composite g sends v_j to w^j, and its residual (max distance)
certifies the equivalence. Labeled by argument, an image of U_m is
v_j = L.w^j for one linear L (linear maps keep or reverse cyclic order), so
g_C.v_{n+1} = (t_n, -1), t_n = 2cos(2n*pi/m), as w^{n+1} = w^{-n} =
t_n - w^n. The residual alone tests that: slot n+1 misses w^{n+1} by
(t_C - t_n, 0) + (y + 1).w^n, where y is g_C.v_{n+1}'s second coordinate.

Certificate first, rows last: _route runs the steps above once per member
set, unless the members' row sums already refute balance
(balance._row_sums_refute), and balance._residual_bounds bounds its form's
determinants by the residual; where they clear the tolerance
(balance._certified), is_balanced and is_uniform certify the input with no
row, for every caller. Otherwise
the rows decide, so no verdict, witness or certificate class depends on the
route, and canonicalize raises ResidualTooLarge after them. Exact input
takes the exact verdicts, which only m = 3 passes (Niven's theorem).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Tuple

from .balance import require_balanced_uniform, require_tolerance
from .errors import BalcfgError, ResidualTooLarge, SingularFrame
from .geometry import (
    EXACT,
    Configuration,
    PlaneVector,
    Scalar,
    det2,
    label_by_increasing_arguments,
    unit_vector,
)

# Relative threshold for frame construction: a frame (v0, vn) with
# |det(v0, vn)| <= FRAME_DET_TOL * |v0| * |vn| is singular, at any scale.
FRAME_DET_TOL = 1e-12
# Default acceptable residual for canonicalize.
RESIDUAL_TOL = 1e-8


class LinearMap2(NamedTuple):
    """Row-major 2x2 map (a b / c d); must be invertible where it matters."""

    a: Scalar
    b: Scalar
    c: Scalar
    d: Scalar

    def det(self) -> Scalar:
        return self.a * self.d - self.b * self.c

    def apply(self, v: PlaneVector) -> PlaneVector:
        return PlaneVector(self.a * v.x + self.b * v.y, self.c * v.x + self.d * v.y)

    def apply_configuration(self, c: Configuration) -> Configuration:
        xs, ys = c.xs, c.ys
        a, b, c, d = self  # each field read is a descriptor call: one per field, not per member
        return Configuration(
            [a * x + b * y for x, y in zip(xs, ys)], [c * x + d * y for x, y in zip(xs, ys)]
        )

    def compose(self, other: "LinearMap2") -> "LinearMap2":
        """self after other (matrix product self . other)."""
        return LinearMap2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "LinearMap2":
        dt = self.det()
        if dt == 0:
            raise SingularFrame("map is singular")
        return LinearMap2(self.d / dt, -self.b / dt, -self.c / dt, self.a / dt)

    def scale(self, s: Scalar) -> "LinearMap2":
        return LinearMap2(s * self.a, s * self.b, s * self.c, s * self.d)

    def rows(self) -> Tuple[Tuple[Scalar, Scalar], Tuple[Scalar, Scalar]]:
        return ((self.a, self.b), (self.c, self.d))


class CanonicalForm(NamedTuple):
    """Witness of equivalence to the roots of unity: the map g, the frame
    parameter t, its grid index k = n, slot j's root exponent j, the residual."""

    g: LinearMap2
    t: float
    k: int
    index_map: Tuple[int, ...]
    residual: float


def frame_map(v0: PlaneVector, vn: PlaneVector) -> LinearMap2:
    """The unique g with g.v0 = (1,0) and g.vn = (0,1): the inverse of the
    matrix with columns v0, vn. An exact frame is singular at det(v0, vn) = 0,
    a float one within FRAME_DET_TOL."""
    d = det2(v0, vn)
    limit = 0
    if isinstance(d, float):
        limit = FRAME_DET_TOL * (math.hypot(v0.x, v0.y) * math.hypot(vn.x, vn.y))
    # "not >" so that a NaN limit (0 * inf) or a NaN d refuses as well
    if not abs(d) > limit:
        raise SingularFrame(f"frame vectors are dependent (det = {d})")
    return LinearMap2(vn.y / d, -vn.x / d, -v0.y / d, v0.x / d)


def _map_onto_roots(c: Configuration) -> CanonicalForm:
    """The form that labels c (float, odd m >= 3) by argument, frames it,
    reads t_C and measures g's residual against w^j; raises what those steps
    raise, and ValueError for a residual that is not finite."""
    labeled = label_by_increasing_arguments(c)
    m, n = labeled.m, labeled.n
    g_frame = frame_map(labeled[0], labeled[n])
    # apply builds a PlaneVector, which refuses a t_C that is not finite
    t_c = g_frame.apply(labeled[n + 1]).x
    tau, xs, ys = 2.0 * math.pi, labeled.xs, labeled.ys
    g = frame_map(PlaneVector(1.0, 0.0), unit_vector(tau * n / m)).inverse().compose(g_frame)
    thetas = [tau * j / m for j in range(m)]
    ga, gb, gc, gd = g
    gx = [ga * x + gb * y - cos for x, y, cos in zip(xs, ys, map(math.cos, thetas))]
    gy = [gc * x + gd * y - sin for x, y, sin in zip(xs, ys, map(math.sin, thetas))]
    misses = list(map(math.hypot, gx, gy))
    residual = max(misses)
    # max passes over a NaN that is not first; their sum is NaN exactly when one is there
    if not residual < math.inf or math.isnan(sum(misses)):
        raise ValueError(f"residual of the map {tuple(g)} is not finite")
    return CanonicalForm(g, t_c, n, tuple(range(m)), residual)


def _route(c: Configuration):
    """_map_onto_roots(c)'s form, or the BalcfgError, ArithmeticError or
    ValueError it raised, without the frames that its memo would keep alive."""
    try:
        return _map_onto_roots(c)
    except (BalcfgError, ArithmeticError, ValueError) as exc:
        return exc.with_traceback(None)


def canonicalize(c: Configuration, tol: float = RESIDUAL_TOL) -> CanonicalForm:
    """Certify that c is GL2-equivalent to the roots of unity and produce
    the explicit map.

    Raises a CertificateError with a witness when the input provably is not
    equivalent: NotBalanced, NotUniform, or ResidualTooLarge when the map
    misses the roots of unity by more than tol. DuplicateArgument,
    SingularFrame and a t_C or residual that is not finite (ValueError) are
    float precision refusals, not certificates. A tol that is not a finite
    number >= 0 raises ValueError, as does a float copy of c whose largest
    norm has no finite nonzero reciprocal to rescale by, or whose rescale
    flushes a member to (0, 0).

    Exact c takes the exact verdicts on c itself, as check does; by Niven's
    theorem only m = 3 passes them. Float c takes the verdicts of its copy
    scaled to max norm 1, on which the map is computed, so NotBalanced's
    witness is c's determinant over c's largest norm^2. The route's refusal
    comes after the verdicts.
    """
    require_tolerance(tol)
    if c.m < 3:
        raise ValueError(f"canonicalization needs m >= 3, got m = {c.m}")
    if c.mode == EXACT:
        require_balanced_uniform(c)
    work = c.as_float()
    top = max(map(math.hypot, work.xs, work.ys))
    s = 1.0 / top
    if not (0.0 < s < math.inf):
        raise ValueError(f"largest norm {top!r} has no finite nonzero reciprocal to rescale by")
    xs, ys = [s * x for x in work.xs], [s * y for y in work.ys]
    if (0.0, 0.0) in zip(xs, ys):
        i = list(zip(xs, ys)).index((0.0, 0.0))
        raise ValueError(
            f"rescaling by 1/{top!r} flushes member {i} ({work.xs[i]!r}, {work.ys[i]!r}) to zero"
        )
    work = Configuration(xs, ys)
    if c.mode != EXACT:
        require_balanced_uniform(work)
    form = work.per_member_set(_route)
    if not isinstance(form, CanonicalForm):
        raise form
    if form.residual > tol:
        raise ResidualTooLarge(f"residual {form.residual:.3e} exceeds {tol:.3e}", form.residual)
    return form._replace(g=form.g.scale(s))

