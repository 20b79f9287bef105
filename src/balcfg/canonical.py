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

Seed-triple reconstruction: with A1 = det(v_n, v_{n+1}), An = det(v_0, v_n)
and r = -A1/An, the members interleave out of the triple via

    v_i      = r v_{n+i} - v_{i-1}
    v_{n+i+1} = r v_i - v_{n+i}        for i = 1..n-1,

the first sign being forced by det(v_{i-1}, v_{n+i}) = -An. Read in the order
y = v_0, v_{n+1}, v_1, v_{n+2}, ..., that is the one three-term recurrence
y_{j+1} = r y_j - y_{j-1}, the same as the model sequences' (r = t there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .balance import is_balanced, is_uniform, require_tolerance
from .errors import (
    CertificateError,
    DegenerateStep,
    NoGridMatch,
    NotBalanced,
    NotNormalized,
    NotUniform,
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

# Absolute |det| threshold for frame construction on unit-scale input.
FRAME_DET_TOL = 1e-12
# |t - grid| and |y + 1| matching tolerance; match_k narrows its |t - grid|
# window where grid values lie closer than 4 * GRID_TOL.
GRID_TOL = 1e-6
# Default acceptable residual for canonicalize.
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class LinearMap2:
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
        return Configuration([self.apply(v) for v in c.vectors])

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


IDENTITY = LinearMap2(1.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class CanonicalForm:
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
    matrix with columns v0, vn."""
    d = det2(v0, vn)
    if (d == 0) if v0.mode == EXACT else (abs(d) <= FRAME_DET_TOL):
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
    overlap from m = 6285 on).
    """
    if m % 2 == 0 or m < 3:
        raise ValueError(f"matching needs odd m >= 3, got {m}")
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


def reconstruct_from_triple(
    v0: PlaneVector,
    vn: PlaneVector,
    vn1: PlaneVector,
    m: int,
) -> Configuration:
    """Rebuild the whole configuration in label order from (v_0, v_n, v_{n+1}).

    Works in the vectors' own arithmetic mode (exact stays exact). For m = 3
    the triple already is the configuration.
    """
    if m % 2 == 0 or m < 3:
        raise ValueError(f"reconstruction needs odd m >= 3, got {m}")
    n = (m - 1) // 2
    an = det2(v0, vn)
    if (an == 0) if v0.mode == EXACT else (abs(an) <= FRAME_DET_TOL):
        raise SingularFrame(f"det(v0, vn) = {an}; seed frame is singular")
    r = -(det2(vn, vn1) / an)
    scale = max(v.norm() for v in (v0, vn, vn1))
    # y_j = slot j/2 (j even) or slot n+1+j//2 (j odd): y_{j+1} = r y_j - y_{j-1}
    ys = [v0, vn1]
    for j in range(2, 2 * n):
        produced = ys[j - 1].scale(r) - ys[j - 2]
        _check_step(produced, j // 2 if j % 2 == 0 else n + 1 + j // 2, scale)
        ys.append(produced)
    return Configuration(ys[0::2] + [vn] + ys[1::2])


def _check_step(v: PlaneVector, slot: int, scale: float) -> None:
    if v.mode == EXACT:
        bad = v.is_zero()
    else:
        bad = v.norm() <= FRAME_DET_TOL * scale
    if bad:
        raise DegenerateStep(f"reconstruction produced a zero vector at slot {slot}")


def _diagram_exponents(m: int, k: int) -> Tuple[int, ...]:
    n = (m - 1) // 2
    exps = [(-2 * k * i) % m for i in range(n + 1)]
    exps += [(-k * (1 + 2 * i)) % m for i in range(n)]
    return tuple(exps)


def canonicalize(c: Configuration, tol: float = RESIDUAL_TOL) -> CanonicalForm:
    """Certify that c is GL2-equivalent to the roots of unity and produce
    the explicit map.

    Raises a CertificateError with a witness when the input provably is not
    equivalent: NotBalanced, NotUniform, NotNormalized, NoGridMatch, or
    ResidualTooLarge when the map misses the roots of unity by more than tol.
    DuplicateArgument and SingularFrame are float precision refusals, not
    certificates. A tol that is not a finite number >= 0 raises ValueError.
    """
    require_tolerance(tol)
    if c.m < 3:
        raise ValueError(f"canonicalization needs m >= 3, got m = {c.m}")
    work = c.as_float()
    scale = max(v.norm() for v in work.vectors)
    work = Configuration([v.scale(1.0 / scale) for v in work.vectors])

    report = is_balanced(work)
    if not report.balanced:
        raise NotBalanced("configuration is not balanced", witness=report.witness)
    uniform, pair = is_uniform(work)
    if not uniform:
        raise NotUniform("configuration is not uniform", witness=pair)
    if c.m % 2 == 0:
        # balanced + even size excludes uniformity; reachable only when the
        # tolerance blessed a borderline input, so refuse with the true reason
        raise NotUniform(f"even m = {c.m} cannot be uniform balanced", witness=None)

    labeled = label_by_increasing_arguments(work)
    m, n = labeled.m, labeled.n
    g_frame = frame_map(labeled[0], labeled[n])
    t_c = extract_t(g_frame, labeled[n + 1])
    k_c = match_k(t_c, m)

    g_k = frame_map(PlaneVector(1.0, 0.0), unit_vector(2.0 * math.pi * k_c / m))
    g = g_k.inverse().compose(g_frame)

    exponents = _diagram_exponents(m, k_c)
    if len(set(exponents)) != m:
        raise ResidualTooLarge(
            f"exponent assignment is not a bijection (k = {k_c}, m = {m})",
            witness=exponents,
        )
    residual = 0.0
    for i, v in enumerate(labeled.vectors):
        target = unit_vector(2.0 * math.pi * exponents[i] / m)
        residual = max(residual, (g.apply(v) - target).norm())
    if residual > tol:
        raise ResidualTooLarge(
            f"residual {residual:.3e} exceeds {tol:.3e}", witness=residual
        )
    return CanonicalForm(
        g=g.scale(1.0 / scale),
        t=float(t_c),
        k=k_c,
        index_map=exponents,
        residual=residual,
    )


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.equivalent


def gl2_equivalent(
    a: Configuration, b: Configuration, tol: float = RESIDUAL_TOL
) -> EquivalenceVerdict:
    """Two configurations are equivalent iff they have the same odd size and
    both canonicalize (transitivity onto the roots of unity). A certificate
    comes back as a false verdict carrying its name; a precision refusal
    (DuplicateArgument, SingularFrame) is raised, as canonicalize raises it."""
    if a.m != b.m:
        return EquivalenceVerdict(False, f"size mismatch: {a.m} != {b.m}")
    for which, cfg in (("first", a), ("second", b)):
        try:
            canonicalize(cfg, tol)
        except CertificateError as exc:
            return EquivalenceVerdict(False, f"{which}: {type(exc).__name__}")
    return EquivalenceVerdict(True)
