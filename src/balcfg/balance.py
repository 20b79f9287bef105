"""Balanced/uniform verdicts, their witnesses, the step constants, and the
canonical map onto the roots of unity.

A configuration is *balanced* when, for every member v_i, the multiset of
determinants {det(v_i, v_j) : j != i} is symmetric around 0: sorted into d
of length N, |d[j] + d[N-1-j]| <= tol for every j < N // 2, and an odd
row's middle entry, which pairs with nothing, has |d[N // 2]| <= tol (not
|2 d[N // 2]|). tol is 0 in exact mode and an absolute tolerance in float
mode. It is *uniform* when no two members are linearly dependent. The m-th
roots of unity are the model uniform balanced configuration.

Every uniform balanced configuration of odd size m = 2n+1 is an invertible
linear image of the m-th roots of unity, and _map_onto_roots computes the
map: sort by argument; frame (v_0, v_n) onto the unit frame by g_C; read t_C
off g_C.v_{n+1}; compose with the inverse of the frame g_n of (1, w^n). The
composite g sends v_j to w^j, and its residual is the largest distance
|g.v_j - w^j|. Labeled by argument, an image of U_m is v_j = L.w^j for one
linear L (linear maps keep or reverse cyclic order), so g_C.v_{n+1} = (t_n,
-1), t_n = 2cos(2n*pi/m), as w^{n+1} = w^{-n} = t_n - w^n. The residual
alone tests that: slot n+1 misses w^{n+1} by (t_C - t_n, 0) + (y + 1).w^n,
where y is g_C.v_{n+1}'s second coordinate.

Certificate first, rows last. is_balanced and is_uniform first ask that map
(_certified), for every caller: a float GL2 image of U_m (odd m >= 3) whose
residual bounds (_residual_bounds) clear the tolerance is balanced and
uniform with no row. The map, memoized per member set, runs only where a
bound can hold: on coordinates in SAFE_COORDINATE_RANGE, past a gate on the
members' sum S: row i sums to det(v_i, S), so a set whose max |det(v_i, S)|
exceeds what rows balanced at the tolerance can sum to is not balanced
(_row_sums_refute). A member set closed under v -> -v is balanced once row
0 has passed: row i holds -det(v_i, v_j) next to each det(v_i, v_j). Exact
is_uniform and even_m_witness compare the members' lines, with no row;
float is_uniform bounds every |det| from below on the table's ints by each
member's nearer gap between lines (_gap_floor). step_constants of a
certified image listed in an affine relabeling of its label order reads
(A1, An) off row 0's two entries, as every step entry lies within the
certificate's pair bound of them.

Otherwise the verdicts read the rows of the one exact table in order
(Configuration.det_row: the ints D^2 * det in both modes, a float being the
dyadic rational it holds) and stop at the first that decides, so no
verdict, witness or certificate class depends on the map or on rounding,
and canonicalize's one refusal of the map (ResidualTooLarge, on float
input) comes after them. A value a caller reads (a witness, a step
constant) is Configuration.det of the pair that decided.

The default float tolerance is 1e-9 * det_max, both read exactly, and
det_max reads every row (streamed). Every verdict hands the values it
compares, and the table entries it holds, to one _Bracket, which decides
each comparison at the ends of a bracket first. The certificate and the
gate compute in floats, build no int, and bound the exact table; this
module holds their error model (Higham 2002, ch. 3), on norm_sq_bound
(coordinates in_safe_range), and each constant it rests on, README's libm
assumption (TARGET_ERR) included.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from itertools import repeat
from typing import Dict, NamedTuple, Optional, Tuple

from .errors import BalcfgError, InconsistentConstants, NotBalanced, NotUniform, ResidualTooLarge
from .geometry import (
    EXACT,
    Configuration,
    LinearMap2,
    Scalar,
    frame_map,
    label_by_increasing_arguments,
    roots_of_unity,
)

# Relative factor for the default float tolerance: tol = 1e-9 * max |det|,
# with 1e-9 read at its exact value _REL_NUM / _REL_DEN.
DEFAULT_REL_TOL = 1e-9
_REL_NUM, _REL_DEN = DEFAULT_REL_TOL.as_integer_ratio()
# Default acceptable residual for canonicalize.
RESIDUAL_TOL = 1e-8
# Unit roundoff of binary64.
UNIT_ROUNDOFF = 2.0**-53
# Nonzero |coordinates| in this range keep every product of two of them, and
# every sum of two such products, a normal float: there the rounding of each
# float operation is relative, which every bound below relies on.
SAFE_COORDINATE_RANGE = (2.0**-480, 2.0**480)
# Relative slack by which a bound is rounded outward, far above the rounding
# of the few float operations that evaluate it.
BOUND_SLACK = 2.0**-40
# Distance bound between member e of roots_of_unity(m), the float target of
# slot e, and the exact root of unity: the float angle is within about 4 ulp
# of 2*pi of the exact one, and cos and sin round to within 1 ulp.
TARGET_ERR = 1e-14


class BalanceReport(NamedTuple):
    """Outcome of is_balanced: the verdict, and the (index, value) witness
    where multiset symmetry fails, in input units."""

    balanced: bool
    witness: Optional[Tuple[int, Scalar]]


class StepConstants(NamedTuple):
    """The common step determinants of a uniform balanced labeled
    configuration: A1 = det(v_k, v_{k+1}) and An = det(v_k, v_{k+n})."""

    A1: Scalar
    An: Scalar


class CanonicalForm(NamedTuple):
    """Witness of equivalence to the roots of unity: the map g, which sends
    slot j of the argument order to w^j, the frame parameter t, and the
    residual."""

    g: LinearMap2
    t: float
    residual: float


def require_tolerance(tol: float) -> float:
    """tol itself when it is a finite number >= 0; otherwise ValueError.

    A NaN tolerance fails every comparison, so it would pass every row and
    switch every gate off; inf would bless everything and a negative one
    nothing.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")
    return tol


def in_safe_range(values) -> bool:
    """True when every nonzero |value| lies in SAFE_COORDINATE_RANGE; NaN
    and inf do not. C-level passes over one list of magnitudes: its
    extremes, dropping the zeros only when the least one is zero, then its
    sum, which is NaN exactly when a NaN is there (max refuses inf)."""
    tiny, huge = SAFE_COORDINATE_RANGE
    sizes = list(map(abs, values))
    least = min(sizes) or min(filter(None, sizes), default=tiny)
    return tiny <= least and max(sizes) <= huge and not math.isnan(sum(sizes))


def norm_sq_bound(c: Configuration) -> Optional[float]:
    """A float high >= |v|^2 for every member v of a float configuration
    whose coordinates are in_safe_range; None in exact mode or outside that
    range, where no bound below holds.

    fl(x*x + y*y) is within a relative 3u of |v|^2 (u = UNIT_ROUNDOFF), as
    x*x and y*y are normal floats or exact zeros; high widens it by
    BOUND_SLACK.
    """
    if c.mode == EXACT or not in_safe_range(c.xs + c.ys):
        return None
    return max([x * x + y * y for x, y in zip(c.xs, c.ys)]) * (1.0 + BOUND_SLACK)


class _Bracket:
    """The tolerance eff that every verdict compares c's table entries
    with, exactly, as an int in table units (the scale D^2 of det_row), with
    lo <= eff <= hi there. Exact mode: eff = 0 (tol ignored). An explicit
    tol: eff = floor(tol * D^2), tol read exactly, and lo = hi = eff. The
    default: eff = floor(1e-9 * det_max), 1e-9 read exactly, and each
    comparison hands its values to above or within with the entries it
    holds, so det_max, which reads every row, is read only for a value
    between lo = floor(1e-9 * max |held|) (the table holds -d next to each
    d) and hi = floor(1e-9 * 2 max |X| max |Y|) over the members' ints, as
    |X_i Y_j - Y_i X_j| <= |X_i| |Y_j| + |Y_i| |X_j|. eff and hi are
    computed on first read; lo starts at 0 and is raised by held only where
    a comparison needs it.
    """

    def __init__(self, c: Configuration, tol: Optional[float]):
        self.c, self.tol = c, tol
        if tol is not None:
            require_tolerance(tol)
        if c.mode == EXACT:
            self.lo = self.hi = self.eff = 0
        elif tol is None:
            self.lo = 0

    @cached_property
    def eff(self) -> int:
        if self.tol is None:
            return _REL_NUM * self.c.det_max // _REL_DEN
        num, den = self.tol.as_integer_ratio()
        return num * self.c._det_coords[2] // den

    @cached_property
    def lo(self) -> int:
        return self.eff

    @cached_property
    def hi(self) -> int:
        if self.tol is not None:
            return self.eff
        xs, ys, _ = self.c._det_coords
        return _REL_NUM * 2 * max(map(abs, xs)) * max(map(abs, ys)) // _REL_DEN

    def _lift(self, held) -> int:
        """lo, raised to floor(1e-9 * max |held|) where that is higher."""
        if self.lo < self.hi:
            self.lo = max(self.lo, _REL_NUM * max(map(abs, held), default=0) // _REL_DEN)
        return self.lo

    def above(self, values: list, held) -> Optional[int]:
        """The first j with values[j] > eff, or None: None when no value
        exceeds lo (one C-level max; held is read only when one exceeds the
        lo of earlier comparisons), j when values[j] is the first above lo
        and is above hi too; anything else narrows the bracket to eff."""
        top = max(values, default=self.lo)
        if top <= self.lo or top <= self._lift(held):
            return None
        j = _first(operator.lt, self.lo, values)
        if values[j] > self.hi:
            return j
        return self._at_eff(operator.lt, values)

    def within(self, values: list, held) -> Optional[int]:
        """above's mirror: the first j with values[j] <= eff, or None. None
        when every value exceeds hi (one C-level min), j when values[j] is the
        first within hi and is within lo too, which reads held only then."""
        if min(values, default=math.inf) > self.hi:
            return None
        j = _first(operator.ge, self.hi, values)
        if values[j] <= self.lo or values[j] <= self._lift(held):
            return j
        return self._at_eff(operator.ge, values)

    def _at_eff(self, op, values: list) -> Optional[int]:
        """Narrow the bracket to eff itself, and decide there."""
        self.lo = self.hi = self.eff
        return _first(op, self.eff, values)


def _first(op, eff: Scalar, values) -> Optional[int]:
    """The first j with op(eff, values[j]), or None: one C-level pass."""
    hits = list(map(op, repeat(eff), values))
    return hits.index(True) if True in hits else None


def _negation_closed(c: Configuration) -> bool:
    """Whether c's members, as a multiset, are closed under v -> -v, which
    certifies every row symmetric at every tolerance >= 0.

    Member j then pairs with a member equal to -v_j, so row i holds the int
    det(v_i, -v_j) = -det(v_i, v_j) next to each entry, and a 0 from the
    member equal to -v_i. Odd m is refused by parity (no nonzero vector is
    its own negation); otherwise one C-level sort of the scaled coordinate
    pairs is compared with its negated reversal.
    """
    if c.m % 2:
        return False
    xs, ys, _ = c._det_coords
    sx, sy = zip(*sorted(zip(xs, ys)))
    return all(s == tuple(map(operator.neg, reversed(s))) for s in (sx, sy))


def _map_onto_roots(c: Configuration) -> CanonicalForm:
    """The form that labels c (float, odd m >= 3) by argument, frames it,
    reads t_C and measures g's residual against w^j; raises what those steps
    raise, and ValueError for a residual that is not finite."""
    labeled = label_by_increasing_arguments(c)
    m, n = labeled.m, labeled.n
    g_frame = frame_map(labeled[0], labeled[n])
    # apply builds a PlaneVector, which refuses a t_C that is not finite
    t_c = g_frame.apply(labeled[n + 1]).x
    roots = roots_of_unity(m)
    g = frame_map(roots[0], roots[n]).inverse().compose(g_frame)
    ga, gb, gc, gd = g
    misses = [
        math.hypot(ga * x + gb * y - cos, gc * x + gd * y - sin)
        for x, y, cos, sin in zip(labeled.xs, labeled.ys, roots.xs, roots.ys)
    ]
    residual = max(misses)
    # max passes over a NaN that is not first; their sum is NaN exactly when one is there
    if not residual < math.inf or math.isnan(sum(misses)):
        raise ValueError(f"residual of the map {tuple(g)} is not finite")
    return CanonicalForm(g, t_c, residual)


def _residual_bounds(form: CanonicalForm, high: float, m: int) -> Optional[Tuple[float, float]]:
    """(pair, floor) from _map_onto_roots's form on m members, given high,
    their norm_sq_bound, which exists: every pair sum that is_balanced
    forms on a sorted row of their exact determinant table is at most pair
    in magnitude, and every off-diagonal |det| is at least floor. None when
    no bound holds: an entry of the map outside SAFE_COORDINATE_RANGE (where
    products may round other than relatively), a map whose determinant is not
    bounded away from 0, or a bound that is not finite.

    Let G be the float map read as an exact matrix, w^i the exact root of
    unity that slot i goes to (v_i -> w^i), and u the unit
    roundoff. Forward-error terms:
    - r >= max |G v_i - w^i|: the residual as evaluated, times 1 + 4u
      for the subtraction and hypot; plus 3u (|a| + |b| + |c| + |d|) max |v|
      for the evaluation of G v_i (two products and a sum per coordinate);
      plus TARGET_ERR for the float target, member i of roots_of_unity(m).
    - det(G v_i, G v_j) = det(G) det(v_i, v_j) = sin(2 pi (j - i) / m) +
      delta_ij, |delta_ij| <= 2r + r^2, as |det(a, b)| <= |a| |b|.
    - |det G| is bracketed by fl(ad - bc) -+ 3u (|ad| + |bc|).
    Each row {sin(2 pi (j - i) / m) : j != i} is symmetric, as j - i runs
    over the nonzero residues mod m. Sorting is 1-Lipschitz in the max norm,
    so each sorted pair sum of the row {det(v_i, v_j)} is within 2 (2r +
    r^2) / |det G| of 0: that is pair. For odd m, the smallest |sin(2 pi k /
    m)|, k != 0, is sin(pi / m) >= x - x^3 / 6 for x = math.pi / m rounded
    down, below pi / m <= pi / 3: sin y >= y - y^3 / 6 for y >= 0, and y -
    y^3 / 6 increases on [0, sqrt 2]. So every |det| is at least (x - x^3 /
    6 - 2r - r^2) / |det G|: that is floor. Each term is rounded outward by
    BOUND_SLACK.
    """
    g = form.g
    if not in_safe_range((g.a, g.b, g.c, g.d)):
        return None
    u = UNIT_ROUNDOFF
    up, down = 1.0 + BOUND_SLACK, 1.0 - BOUND_SLACK
    cross = abs(g.a * g.d) + abs(g.b * g.c)
    det_g = abs(g.a * g.d - g.b * g.c)
    det_lo = (det_g * down - 3.0 * u * cross * up) * down
    if not det_lo > 0:
        return None
    det_hi = (det_g + 3.0 * u * cross) * up
    size = abs(g.a) + abs(g.b) + abs(g.c) + abs(g.d)
    r = (form.residual * (1.0 + 4.0 * u) + 3.0 * u * size * math.sqrt(high) + TARGET_ERR) * up
    spread = (2.0 * r + r * r) * up
    pair = 2.0 * spread / det_lo * up
    x = math.pi / m * down
    floor = ((x - x * x * x / 6.0) * down - spread) / det_hi * down
    if not (math.isfinite(pair) and math.isfinite(floor)):
        return None
    return pair, floor


def _certificate(c: Configuration) -> Optional[Tuple[float, float]]:
    """_residual_bounds (pair, floor) of the route's form on c under its
    norm_sq_bound, which exists; None where no bound holds or the route
    refuses (canonicalize raises that again). Once per member set, like the form."""
    try:
        form = c.per_member_set(_map_onto_roots)
    except (BalcfgError, ArithmeticError, ValueError):
        return None
    return _residual_bounds(form, c.per_member_set(norm_sq_bound), c.m)


def _row_sums(c: Configuration) -> Tuple[float, float]:
    """(max_i |fl det(v_i, s)|, |s_x| + |s_y|) for the float sum s of c's
    members, each column summed by math.fsum (correctly rounded); the same
    for every order of the members."""
    sx, sy = math.fsum(c.xs), math.fsum(c.ys)
    dets = [x * sy - y * sx for x, y in zip(c.xs, c.ys)]
    return max(max(dets), -min(dets)), abs(sx) + abs(sy)


def _row_sums_refute(c: Configuration, top: float, high: float) -> bool:
    """Whether some row of c (float, odd m, with norm_sq_bound high) fails
    at the float tolerance top, and so at eff <= top, by its sum alone.

    Row i sums to det(v_i, S) exactly, S the exact sum of the members, as
    det(v_i, v_i) = 0. A row of m - 1 = 2n entries that passes at top has n
    pair sums within top of 0, so |det(v_i, S)| <= n top. The statistic
    fl det(v_i, s) on the correctly rounded s (|s - S| <= u |S| per
    coordinate) is within 4u max |v| (|s_x| + |s_y|) of det(v_i, S), plus
    2^-1073 for two products that underflow. A statistic past the sum of
    these, rounded outward by BOUND_SLACK, refutes that row."""
    stat, size = c.per_member_set(_row_sums)
    own = 4.0 * UNIT_ROUNDOFF * math.sqrt(high) * size + 2.0**-1073
    return stat > (c.n * top + own) * (1.0 + BOUND_SLACK)


def _certified(c: Configuration, tol: Optional[float]) -> bool:
    """Whether c is a certified GL2 image of U_m at tolerance tol (None: the
    default). No bound can hold, and no route runs, for even m, m < 3, no
    norm_sq_bound high (exact input, or a float coordinate outside
    SAFE_COORDINATE_RANGE) or a set whose row sums refute balance at top
    (_row_sums_refute), as a set that is not balanced has no certificate;
    the gate reads no row and never det_max. top >= eff is tol, or 1e-9 *
    high, above 1e-9 * max |v|^2 >= 1e-9 * det_max by BOUND_SLACK, far above
    the product's rounding. Then _certificate's (pair, floor) must clear
    the tolerance: floor > top >= eff, and pair <= eff, an explicit tol
    itself or the default 1e-9 * det_max >= 1e-9 * floor (floor bounds every
    off-diagonal |det|), which the float product, rounded down by
    BOUND_SLACK, never exceeds. A certified set passes every row, so the
    gate never refutes one."""
    high = c.per_member_set(norm_sq_bound) if c.m % 2 and c.m >= 3 else None
    if high is None:
        return False
    top = DEFAULT_REL_TOL * high if tol is None else tol
    bounds = None if _row_sums_refute(c, top, high) else c.per_member_set(_certificate)
    if bounds is None:
        return False
    pair, floor = bounds
    limit = DEFAULT_REL_TOL * floor * (1.0 - BOUND_SLACK) if tol is None else tol
    return floor > top and pair <= limit


def is_balanced(c: Configuration, tol: Optional[float] = None) -> BalanceReport:
    """Decide multiset symmetry of every determinant row.

    Exact mode compares exactly (tol ignored); float mode compares the exact
    table within an absolute tolerance (default 1e-9 * max |det|), read
    exactly (_Bracket). A certified GL2 image of U_m (_certified) is
    balanced with no row. Otherwise the rows are computed in order, each
    sorted without its diagonal entry. Each row hands the bracket (above)
    the |sums| of its extreme pairs, srow[j] + srow[N-1-j] for j < N // 2,
    then an odd row's |middle entry| as j = N // 2, where srow[j] and
    srow[N-1-j] are that one entry, with the row as the bracket's held
    entries. Once row 0 has passed, a member set closed under negation is
    balanced with no further row (_negation_closed).
    The witness is (i, c.det(i, j)) for the first row i that fails, and
    the first member j whose entry is the larger-magnitude side of its first
    bad pair, else its middle entry.
    """
    bracket = _Bracket(c, tol)
    if _certified(c, tol):
        return BalanceReport(True, None)
    for i in range(c.m):
        row = c.det_row(i)
        srow = sorted(row[:i] + row[i + 1 :])
        half = len(srow) // 2
        sums = list(map(abs, map(operator.add, srow[:half], reversed(srow))))
        sums += map(abs, srow[half : len(srow) - half])
        j = bracket.above(sums, srow)
        if j is not None:
            lo, hi = srow[j], srow[-1 - j]
            value = hi if abs(hi) >= abs(lo) else lo
            return BalanceReport(False, (i, c.det(i, row.index(value))))
        if i == 0 and _negation_closed(c):
            break
    return BalanceReport(True, None)


def _gap_floor(c: Configuration, bracket: _Bracket) -> bool:
    """Whether every |D[i][j]|, i != j, of float c exceeds the bracket's eff
    by each member's nearer gap between lines, decided exactly on the ints X,
    Y of c._det_coords, at any scale; False leaves the rows to decide.

    Member k's line is represented by u_k = (X, Y) if Y > 0 or Y == 0 < X,
    else (-X, -Y); c.arguments propose only their ring order, which holds
    when every d_k = det(u_k, u_{k+1}) > 0, u_m = -u_0: the gaps between
    neighbouring lines then sum to pi. |det(u_i, u_j)| >= |u_i| |u_j|
    sin(g_i), g_i the nearer of u_i's two gaps, and |u_k| sin(gap to u_{k+1})
    = d_k / |u_{k+1}|. So, N_k = |u_k|^2 (N_m = N_0), every entry exceeds T
    when min N d_k^2 > T^2 max(N_k, N_{k+1}) for every k, T = eff for an
    explicit tol, else floor(1e-9 max N) >= eff, as |det(a, b)| <= |a| |b|.
    min N min d^2 > T^2 max N implies each k's test and decides most images.
    """
    ring = sorted(
        (a, x, y) if y > 0 or y == 0 < x else ((a + math.pi) % math.tau, -x, -y)
        for x, y, a in zip(*c._det_coords[:2], c.arguments)
    )
    _, us, vs = zip(*ring)
    mul = operator.mul
    ds = list(map(operator.sub, map(mul, us, vs[1:] + (-vs[0],)), map(mul, vs, us[1:] + (-us[0],))))
    ns = list(map(operator.add, map(mul, us, us), map(mul, vs, vs)))
    least, most = min(ns), max(ns)
    t = bracket.eff if bracket.tol is not None else _REL_NUM * most // _REL_DEN
    return min(ds) > 0 and (
        least * min(ds) ** 2 > t * t * most
        or all(least * d * d > t * t * max(a, b) for d, a, b in zip(ds, ns, ns[1:] + ns[:1]))
    )


def is_uniform(
    c: Configuration, tol: Optional[float] = None
) -> Tuple[bool, Optional[Tuple[int, int]]]:
    """True when no pair of members is linearly dependent; otherwise False
    plus the first violating index pair (i, j), i < j.

    Exact mode (tol checked, then ignored) takes the least i whose line
    (Configuration.lines) holds a later member, and the least such j. In
    float mode, a certified GL2 image of U_m (_certified) is uniform with no
    row, and so is one whose neighbouring lines bound every |det| above eff
    (_gap_floor). Otherwise each row hands its |D[i][j]|, j > i, to the
    bracket (within), whose C-level minimum decides whether the row holds
    such a pair; only such a row is scanned for its j. Rows are computed in
    order, so the scan stops at the first row that holds a pair.
    """
    bracket = _Bracket(c, tol)
    if c.mode == EXACT:
        first: Dict[tuple, int] = {}
        later = [(first[key], j) for j, key in enumerate(c.lines) if first.setdefault(key, j) < j]
        return not later, min(later, default=None)
    if _certified(c, tol) or _gap_floor(c, bracket):
        return True, None
    for i in range(c.m - 1):
        rest = list(map(abs, c.det_row(i)[i + 1 :]))
        j = bracket.within(rest, rest)
        if j is not None:
            return False, (i, i + 1 + j)
    return True, None


def require_balanced_uniform(c: Configuration, tol: Optional[float] = None) -> None:
    """Raise NotBalanced with is_balanced's witness, else NotUniform with
    is_uniform's pair, unless c is balanced and uniform at tol."""
    report = is_balanced(c, tol)
    if not report.balanced:
        raise NotBalanced("configuration is not balanced", witness=report.witness)
    ok, pair = is_uniform(c, tol)
    if not ok:
        raise NotUniform("configuration is not uniform", witness=pair)


def canonicalize(c: Configuration, tol: float = RESIDUAL_TOL) -> CanonicalForm:
    """Certify that c is GL2-equivalent to the roots of unity and produce
    the explicit map.

    Raises a CertificateError with a witness: NotBalanced or NotUniform when
    the verdicts find c not balanced or not uniform, or, for float c,
    ResidualTooLarge when the float canonical map misses w^j by more than
    tol. That map is the labeling by argument plus the frame (v_0, v_n) ->
    (1, w^n), with slot j -> w^j; no error bound is applied to its residual,
    so ResidualTooLarge does not yet prove that c is not equivalent (ROADMAP
    item 25). DuplicateArgument, SingularFrame and a t_C
    or residual that is not finite (ValueError) are float precision
    refusals, not certificates. A tol that is not a finite number >= 0
    raises ValueError, as does a float copy of c whose largest norm
    overflows, whose rescale flushes a member to (0, 0), or whose map,
    scaled back to c's units, is not finite. A largest norm whose reciprocal
    overflows scales the copy up by 2^600 first, which is exact.

    Exact c takes the exact verdicts on c itself, as check does; by Niven's
    theorem only m = 3 passes them, and three pairwise independent members
    that sum to 0 are exactly G.U_3 for G = [v_1 v_2] [1 w]^-1. So exact c
    never gets ResidualTooLarge: a residual above tol is a float precision
    limit (ValueError). Float c takes the verdicts of its copy scaled to max
    norm 1, on which the map is computed, so NotBalanced's witness is c's
    determinant over c's largest norm^2. The route's refusal, raised again by
    the memoized map, comes after the verdicts.
    """
    require_tolerance(tol)
    if c.m < 3:
        raise ValueError(f"canonicalization needs m >= 3, got m = {c.m}")
    if c.mode == EXACT:
        require_balanced_uniform(c)
    work = c.as_float()
    top = max(map(math.hypot, work.xs, work.ys))
    s, up, xs, ys = 1.0 / top, 1.0, work.xs, work.ys
    if s == 0.0:
        raise ValueError(f"largest norm {top!r} has no finite nonzero reciprocal to rescale by")
    if s == math.inf:  # top below about 5.6e-309: scale up by 2^600 first, exactly
        up = 2.0**600
        xs, ys = [up * x for x in xs], [up * y for y in ys]
        s = 1.0 / max(map(math.hypot, xs, ys))
    xs, ys = tuple([s * x for x in xs]), tuple([s * y for y in ys])
    if (0.0, 0.0) in zip(xs, ys):
        i = list(zip(xs, ys)).index((0.0, 0.0))
        raise ValueError(
            f"rescaling by 1/{top!r} flushes member {i} ({work.xs[i]!r}, {work.ys[i]!r}) to zero"
        )
    # finite, as each |s * x| rounds |x| / top <= 1, and nonzero, as just tested
    work = Configuration._of_checked(xs, ys)
    if c.mode != EXACT:
        require_balanced_uniform(work)
    form = work.per_member_set(_map_onto_roots)
    if form.residual > tol:
        message = f"residual {form.residual:.3e} exceeds {tol:.3e}"
        if c.mode == EXACT:
            raise ValueError(f"{message} on an exact image of U_3: a float precision limit")
        raise ResidualTooLarge(message, form.residual)
    g = form.g.scale(s).scale(up)
    if not all(map(math.isfinite, g)):
        raise ValueError(f"the map {tuple(form.g)} scaled by 1/{top!r} is not finite")
    return form._replace(g=g)


def even_m_witness(c: Configuration, tol: Optional[float] = None) -> int:
    """For a balanced configuration of even size, return the j >= 1 with the
    smallest |det(v_0, v_j)|, which is 0 (within the tolerance).

    The row multiset at index 0 has odd cardinality m-1; a symmetric multiset
    of odd cardinality contains 0, so such a j exists. The returned j
    certifies non-uniformity by itself: v_0 and v_j are dependent. In exact
    mode (tol checked, then ignored) that j is the first later member on
    v_0's line (Configuration.lines), with no row. Otherwise only row 0 is
    read: when it has no zero, that row alone shows the configuration is
    not balanced, and NotBalanced carries (0, c.det(0, j)) for the first
    j whose entry is nearest 0.
    """
    if c.m % 2 == 1:
        raise ValueError(f"m = {c.m} is odd; the even-m obstruction does not apply")
    bracket = _Bracket(c, tol)
    if c.mode == EXACT and c.lines.count(c.lines[0]) > 1:
        return c.lines.index(c.lines[0], 1)
    row = c.det_row(0)
    j = min(range(1, c.m), key=lambda i: abs(row[i]))
    if bracket.above([abs(row[j])], row) is not None:
        raise NotBalanced(
            "row 0 has odd cardinality and no zero determinant",
            witness=(0, c.det(0, j)),
        )
    return j


def step_constants(c: Configuration, tol: Optional[float] = None) -> StepConstants:
    """Return (A1, An) for a uniform balanced labeled configuration and verify
    det(v_k, v_{k+1}) = A1 and det(v_k, v_{k+n}) = An for every k cyclically.

    A certified GL2 image of U_m (_certified) whose member order is an
    affine relabeling f = r + d*l (mod m) of its label order l
    (Configuration.label_order) scans nothing: the entry at each k and
    offset a is det(w_l, w_{l+b}) for the labeled members w and one b =
    a / d, within the certificate's pair <= eff of det(w_0, w_b) = D[0][a]
    (see _residual_bounds), so A1 = D[0][1] and An = D[0][n] pass every k.
    Any other input takes _step_scan. A1 and An are c.det(0, 1) and
    c.det(0, n) either way.
    """
    if c.m % 2 == 0 or c.m < 3:
        raise ValueError(f"step constants require odd m >= 3, got m = {c.m}")
    bracket = _Bracket(c, tol)
    if not (_certified(c, tol) and _affine(c.label_order)):
        _step_scan(c, bracket)
    return StepConstants(A1=c.det(0, 1), An=c.det(0, c.n))


def _affine(order: list) -> bool:
    """Whether order[l] = r + d*l (mod m) for every l, with r = order[0] and
    d = order[1] - r: one C-level pass."""
    m, r = len(order), order[0]
    d = order[1] - r
    return order == list(map(operator.mod, range(r, r + d * m, d), repeat(m)))


def _step_scan(c: Configuration, bracket: _Bracket) -> None:
    """step_constants' check of its 2m step determinants, read off the
    table's ints and those rotated by 1 and by n, so they are det_row's
    entries; their distances from (D[0][1], D[0][n]) go to the bracket
    (above), with the 2m entries as its lower end's. Raises
    InconsistentConstants naming the first violating k."""
    xs, ys, _ = c._det_coords
    mul, sub = operator.mul, operator.sub
    steps = [
        list(map(sub, map(mul, xs, ys[a:] + ys[:a]), map(mul, ys, xs[a:] + xs[:a])))
        for a in (1, c.n)
    ]
    held = steps[0] + steps[1]
    misses = [list(map(abs, map(sub, row, repeat(row[0])))) for row in steps]
    found = [k for k in (bracket.above(miss, held) for miss in misses) if k is not None]
    k = min(found, default=None)
    if k is not None:
        raise InconsistentConstants(
            f"step determinants at k = {k} differ from (A1, An)", witness=k
        )
