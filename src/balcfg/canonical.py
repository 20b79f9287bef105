"""Canonical forms under GL2: every uniform balanced configuration of odd
size m = 2n+1 is an invertible linear image of the m-th roots of unity, and
the map is computed explicitly.

Pipeline: sort by argument; build the frame g_C sending (v_0, v_n) to the
unit frame; read t_C off g_C.v_{n+1} = (t_C, -1); match t_C against the
closure grid to find k_C; compose with the inverse of the frame g_k built
the same way from (1, w^{k_C}) on the actual roots of unity. The composite g
sends v_0 to 1 and v_n to w^{k_C}, and the remaining members land on the
exponents

    slot i      ->  -2 k_C i     (mod m)   for i = 0..n
    slot n+1+i  ->  -k_C (1+2i)  (mod m)   for i = 0..n-1,

a bijection onto {0..m-1}. The residual (max distance from the assigned
roots of unity) certifies the equivalence.

Certificate first, rows last: _route runs the steps above once per member
set, and balance._residual_bounds bounds its form's determinants by the
residual; where they clear the tolerance (balance._certified), is_balanced
and is_uniform certify the input with no row, for every caller. Otherwise
the rows decide, so no verdict, witness or certificate class depends on the
route, and canonicalize raises the route's refusal after them. Exact input
takes the exact verdicts, which only m = 3 passes (Niven's theorem).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Tuple

from .balance import require_balanced_uniform, require_tolerance
from .errors import (
    BalcfgError,
    CertificateError,
    NoGridMatch,
    NotNormalized,
    ResidualTooLarge,
    SingularFrame,
)
from .geometry import (
    EXACT,
    Configuration,
    PlaneVector,
    Scalar,
    det2,
    label_by_increasing_arguments,
    unit_vector,
)
from .sequences import closed_form_t

# Relative threshold for frame construction: a frame (v0, vn) with
# |det(v0, vn)| <= FRAME_DET_TOL * |v0| * |vn| is singular, at any scale.
FRAME_DET_TOL = 1e-12
# |t - grid| and |y + 1| matching tolerance; match_k narrows its |t - grid|
# window where grid values lie closer than 4 * GRID_TOL.
GRID_TOL = 1e-6
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
    parameter t, the matched grid index k, the exponent assignment per slot,
    and the achieved residual."""

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


def extract_t(g: LinearMap2, v_next: PlaneVector) -> Scalar:
    """x-coordinate of g.v_next, after checking its y-coordinate is -1
    (which the step-constant structure forces for v_{n+1} in frame g)."""
    p = g.apply(v_next)
    if abs(p.y + 1) > GRID_TOL:
        raise NotNormalized(
            f"g.v_next = ({p.x}, {p.y}) does not have y = -1: "
            "input is not balanced or is mislabeled",
            witness=p.y,
        )
    return p.x


def match_k(t: Scalar, m: int) -> int:
    """The k in 1..n nearest to t on the grid t_k = 2cos(2k*pi/m), provided
    t lies within the window of t_k: GRID_TOL, or a quarter of the gap from
    t_k to its nearest grid neighbour when that is smaller.

    Since acos(t_k/2) = 2k*pi/m, k is read off directly as the rounded
    m*acos(t/2)/(2*pi), with t/2 clamped to [-1, 1] and k to 1..n. The
    smallest gap, between t_{n-1} and t_n, is about 8*pi^2/m^2, so the
    window is GRID_TOL for every m <= 4441 and shrinks as 1/m^2 beyond, so
    the windows of two neighbours never meet (GRID_TOL alone makes them
    overlap from m = 6285 on). A t that is not finite raises ValueError:
    it proves nothing about equivalence.
    """
    if m % 2 == 0 or m < 3:
        raise ValueError(f"matching needs odd m >= 3, got {m}")
    if not math.isfinite(t):
        raise ValueError(f"t = {t!r} is not finite")
    n = (m - 1) // 2
    half = min(1.0, max(-1.0, float(t) / 2.0))
    k = min(n, max(1, round(m * math.acos(half) / (2.0 * math.pi))))
    t_k = closed_form_t(m, k)
    gaps = [abs(closed_form_t(m, j) - t_k) for j in (k - 1, k + 1) if 1 <= j <= n]
    if abs(float(t) - t_k) <= min([GRID_TOL, *(g / 4 for g in gaps)]):
        return k
    raise NoGridMatch(
        f"t = {float(t):.9g} is not a grid parameter for m = {m}: "
        "the configuration is not equivalent to the roots of unity",
        witness=float(t),
    )


def _diagram_exponents(m: int, k: int) -> Tuple[int, ...]:
    # -k*j mod m over the slot order j = 0, 2, .., 2n, 1, 3, .., 2n-1: that
    # order is all of Z/m, so this is a bijection exactly when gcd(k, m) = 1
    return tuple(-k * j % m for j in (*range(0, m, 2), *range(1, m, 2)))


def _map_onto_roots(c: Configuration) -> CanonicalForm:
    """The form that labels c (float, odd m >= 3) by argument, frames it,
    matches t_C on the grid, and measures the residual of the composite map
    against the assigned roots of unity; raises what those steps raise."""
    labeled = label_by_increasing_arguments(c)
    m, n = labeled.m, labeled.n
    g_frame = frame_map(labeled[0], labeled[n])
    t_c = extract_t(g_frame, labeled[n + 1])
    k_c = match_k(t_c, m)

    g_k = frame_map(PlaneVector(1.0, 0.0), unit_vector(2.0 * math.pi * k_c / m))
    g = g_k.inverse().compose(g_frame)

    exponents = _diagram_exponents(m, k_c)
    if math.gcd(k_c, m) != 1:
        raise ResidualTooLarge(
            f"exponent assignment is not a bijection (k = {k_c}, m = {m})",
            witness=exponents,
        )
    tau, xs, ys = 2.0 * math.pi, labeled.xs, labeled.ys
    thetas = [tau * e / m for e in exponents]
    ga, gb, gc, gd = g
    gx = [ga * x + gb * y - cos for x, y, cos in zip(xs, ys, map(math.cos, thetas))]
    gy = [gc * x + gd * y - sin for x, y, sin in zip(xs, ys, map(math.sin, thetas))]
    residual = max(0.0, *map(math.hypot, gx, gy))
    return CanonicalForm(g, t_c, k_c, exponents, residual)


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
    equivalent: NotBalanced, NotUniform, NotNormalized, NoGridMatch, or
    ResidualTooLarge when the map misses the roots of unity by more than tol.
    DuplicateArgument and SingularFrame are float precision refusals, not
    certificates. A tol that is not a finite number >= 0 raises ValueError,
    as does a float copy of c whose largest norm has no finite nonzero
    reciprocal to rescale by.

    Exact c takes the exact verdicts on c itself, as check does; by Niven's
    theorem only m = 3 passes them. Float c takes the verdicts of its copy
    scaled to max norm 1, on which the map is computed, so NotBalanced's
    witness is c's determinant over c's largest norm^2. The route's refusals
    come after the verdicts.
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
    work = Configuration([s * x for x in work.xs], [s * y for y in work.ys])

    if c.mode != EXACT:
        require_balanced_uniform(work)
    form = work.per_member_set(_route)
    if not isinstance(form, CanonicalForm):
        raise form
    if form.residual > tol:
        raise ResidualTooLarge(
            f"residual {form.residual:.3e} exceeds {tol:.3e}", witness=form.residual
        )
    return form._replace(g=form.g.scale(s))


class EquivalenceVerdict(NamedTuple):
    equivalent: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.equivalent


def gl2_equivalent(
    a: Configuration, b: Configuration, tol: float = RESIDUAL_TOL
) -> EquivalenceVerdict:
    """Two configurations of one size are equivalent when both canonicalize
    (transitivity onto the roots of unity), and not when exactly one does: the
    false verdict carries that one's certificate, and balance and uniformity
    are GL2 invariants. When neither canonicalizes, no certificate decides,
    and ValueError names both refusals. A precision refusal
    (DuplicateArgument, SingularFrame) is raised, as canonicalize raises it."""
    if a.m != b.m:
        return EquivalenceVerdict(False, f"size mismatch: {a.m} != {b.m}")
    refused = []
    for which, cfg in (("first", a), ("second", b)):
        try:
            canonicalize(cfg, tol)
        except CertificateError as exc:
            refused.append(f"{which}: {type(exc).__name__}")
    if len(refused) == 2:
        raise ValueError(f"equivalence undecided, neither canonicalizes ({', '.join(refused)})")
    return EquivalenceVerdict(not refused, *refused)
