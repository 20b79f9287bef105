"""Planar primitives: vectors in two arithmetic modes, determinants, linear
maps and frames, polar arguments, labeling, and roots-of-unity generation.

Coordinates are exact (fractions.Fraction, in lowest terms) or binary floats,
never mixed in one operation. A Configuration stores its m nonzero, finite
members of one mode as two columns xs and ys. Its one constructor, the one
test of member values, takes the columns (or (x, y) pairs, or PlaneVectors),
tests them in C-level passes and coerces only columns that need it; take
copies members that passed it, and roots_of_unity, canonicalize's rescaled
copy and model_configuration build members that pass it by construction,
untested (Configuration._of_checked). A PlaneVector, built only on request,
is a checked named tuple (x, y) with mode and no arithmetic: every member
computation runs on the columns.

A configuration's determinant table is one exact table of ints in both
modes. Every coordinate, a Fraction or a binary float, is a rational whose
denominator divides D, the denominators' lcm (a power of two 2^k in
float mode), so the ints x*D, y*D hold every member exactly and
each entry is the int D^2 * det2. The verdicts sort, add and compare these
ints. Each row is computed where it is read, by one comprehension
(Configuration.det_row), as a fresh list that nothing caches: a verdict
holds one row at a time, and no m x m table is built. A value that leaves
the package (a witness, a step constant) is Configuration.det of the pair
that decided: det2 in the members' own arithmetic, the exact det in exact
mode and the float entry fl(x_i*y_j - y_i*x_j) in float mode.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Optional, Tuple, Union

from .errors import DuplicateArgument, SingularFrame

Scalar = Union[Fraction, float]

EXACT = "exact"
FLOAT = "float"

# Two float arguments closer than this (radians, cyclically) are treated as
# equal rather than ordered.
ARGUMENT_TIE_TOL = 1e-12
# Relative threshold for frame construction: a frame (v0, vn) with
# |det(v0, vn)| <= FRAME_DET_TOL * |v0| * |vn| is singular, at any scale.
FRAME_DET_TOL = 1e-12


def _coerce_pair(x, y) -> tuple:
    """Both coordinates as two floats when either is a float, else as two
    Fractions; a Fraction is immutable, so an exact one is kept as it is."""
    for value in (x, y):
        if isinstance(value, bool):
            raise TypeError("boolean is not a coordinate")
        if not isinstance(value, (int, float, Fraction)):
            raise TypeError(f"unsupported coordinate type {type(value).__name__}")
    x, y = (v if type(v) is Fraction or isinstance(v, float) else Fraction(v) for v in (x, y))
    if isinstance(x, float) or isinstance(y, float):
        return float(x), float(y)
    return x, y


class PlaneVector(NamedTuple("PlaneVector", [("x", Scalar), ("y", Scalar)])):
    """A vector of R^2. Ints coerce to Fraction; a float coordinate forces
    float mode for the whole vector, and a NaN or infinite one raises
    ValueError."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, x: Scalar, y: Scalar):
        x, y = _coerce_pair(x, y)
        if isinstance(x, float) and not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"vector ({x!r}, {y!r}) is not finite")
        return super().__new__(cls, x, y)

    @property
    def mode(self) -> str:
        return FLOAT if isinstance(self.x, float) else EXACT


def det2(a: PlaneVector, b: PlaneVector) -> Scalar:
    """Determinant of the 2x2 matrix with columns a, b: a.x*b.y - a.y*b.x."""
    if a.mode != b.mode:
        raise ValueError(f"det2 operands in different modes: {a.mode} vs {b.mode}")
    return a.x * b.y - a.y * b.x


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

    def compose(self, other: LinearMap2) -> LinearMap2:
        """self after other (matrix product self . other)."""
        return LinearMap2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> LinearMap2:
        dt = self.det()
        if dt == 0:
            raise SingularFrame("map is singular")
        return LinearMap2(self.d / dt, -self.b / dt, -self.c / dt, self.a / dt)

    def scale(self, s: Scalar) -> LinearMap2:
        return LinearMap2(s * self.a, s * self.b, s * self.c, s * self.d)

    def rows(self) -> Tuple[Tuple[Scalar, Scalar], Tuple[Scalar, Scalar]]:
        return ((self.a, self.b), (self.c, self.d))


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


class Configuration:
    """Ordered list of m >= 1 nonzero, finite vectors sharing one arithmetic
    mode, as two columns; equality and hashing compare the coordinates only.
    Its fields are read-only; cached values go straight into __dict__."""

    def __init__(self, xs: Iterable, ys: Optional[Iterable] = None):
        if ys is None:
            pairs = [(v[0], v[1]) for v in xs]
            xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        xs, ys = tuple(xs), tuple(ys)
        if not xs or len(xs) != len(ys):
            raise ValueError("a configuration needs at least one vector and equal columns")
        if set(map(type, xs)).union(map(type, ys)) not in ({float}, {Fraction}):
            # coerce every member to two floats or two Fractions
            xs, ys = tuple(zip(*[_coerce_pair(x, y) for x, y in zip(xs, ys)]))
            if len(set(map(type, xs))) > 1:
                raise ValueError("configuration mixes exact and float vectors")
        if (0, 0) in zip(xs, ys):
            i = list(zip(xs, ys)).index((0, 0))
            raise ValueError(f"configuration member {i} is the zero vector")
        if type(xs[0]) is float and not all(map(math.isfinite, xs + ys)):
            i = [math.isfinite(x) and math.isfinite(y) for x, y in zip(xs, ys)].index(False)
            raise ValueError(f"configuration member {i} ({xs[i]!r}, {ys[i]!r}) is not finite")
        self.__dict__.update(xs=xs, ys=ys)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.xs, self.ys) == (other.xs, other.ys)

    def __hash__(self) -> int:
        return hash((self.xs, self.ys))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(xs={self.xs!r}, ys={self.ys!r})"

    @property
    def mode(self) -> str:
        return FLOAT if type(self.xs[0]) is float else EXACT

    # the members as PlaneVectors, built by __iter__ on each read
    vectors = property(tuple)

    @property
    def m(self) -> int:
        return len(self.xs)

    @property
    def n(self) -> int:
        """(m-1)/2; ValueError when m is even."""
        if self.m % 2 == 0:
            raise ValueError("n is defined only for odd m")
        return (self.m - 1) // 2

    def __len__(self) -> int:
        return len(self.xs)

    def __getitem__(self, i: int) -> PlaneVector:
        return PlaneVector(self.xs[i], self.ys[i])

    def __iter__(self):
        return map(PlaneVector, self.xs, self.ys)

    def as_float(self) -> "Configuration":
        """The float copy; ValueError names the first member with an exact
        coordinate that does not fit a float, or whose copy is (0, 0)."""
        if self.mode == FLOAT:
            return self
        xs, ys = [], []
        for x, y in zip(self.xs, self.ys):
            try:
                fx, fy = float(x), float(y)
            except OverflowError:
                axis, value = ("x", x) if abs(x) >= abs(y) else ("y", y)
                raise ValueError(f"exact {axis} coordinate {value} does not fit a float") from None
            if fx == 0 and fy == 0:
                raise ValueError(f"exact coordinates ({x}, {y}) have no nonzero float copy")
            xs.append(fx)
            ys.append(fy)
        return Configuration(xs, ys)

    @cached_property
    def arguments(self) -> tuple:
        """Each member's polar angle in [0, 2*pi), for ordering, computed once:
        a C-level atan2 pass, then a negative angle folds into [0, 2*pi) by
        + 2*pi, and by % where atan2(-tiny, x) + 2*pi rounds to 2*pi itself."""
        tau = 2.0 * math.pi
        thetas = map(math.atan2, self.ys, self.xs)
        return tuple([t if t >= 0.0 else (t + tau) % tau for t in thetas])

    @cached_property
    def label_order(self) -> list:
        """The member indices by increasing argument: slot l of the labeled
        copy (label_by_increasing_arguments) holds member label_order[l]."""
        args = self.arguments
        return sorted(range(len(args)), key=args.__getitem__)

    def per_member_set(self, fn: Callable):
        """fn(self) once per member set, which the relabeled copy shares: fn must ignore order."""
        memo = self.__dict__.setdefault("_memo", {})
        if fn not in memo:
            memo[fn] = fn(self)
        return memo[fn]

    @cached_property
    def _det_coords(self) -> tuple:
        """(xs, ys, scale) that every determinant row is built from: the
        ints x*D, y*D at scale D^2, D the lcm of the denominators that
        as_integer_ratio gives (in float mode the largest, a power of two)."""
        ratios = [v.as_integer_ratio() for v in self.xs + self.ys]
        dens = {q for _, q in ratios}
        d = math.lcm(*dens)
        # one division per distinct denominator, of which a float set has few
        factor = {q: d // q for q in dens}
        ints = [p * factor[q] for p, q in ratios]
        return ints[: self.m], ints[self.m :], d * d

    @cached_property
    def lines(self) -> tuple:
        """Each member's line through the origin, in exact mode only: its
        _det_coords ints over their gcd, the first nonzero one positive."""
        xs, ys, _ = self._det_coords
        return tuple(
            (x // g, y // g) if (x, y) > (0, 0) else (-x // g, -y // g)
            for x, y, g in zip(xs, ys, map(math.gcd, xs, ys))
        )

    @classmethod
    def _of_checked(cls, xs: tuple, ys: tuple) -> "Configuration":
        """The nonempty columns of members that already passed __init__'s
        tests, or that pass them by construction."""
        c = object.__new__(cls)
        vars(c).update(xs=xs, ys=ys)
        return c

    def take(self, idx) -> "Configuration":
        """The members at the indices idx, in that order, not tested again; no
        index at all meets the constructor's refusal. The copy shares their
        lines where this configuration holds them: a line is a primitive
        direction, whatever the common denominator D."""
        xs, ys = tuple([self.xs[a] for a in idx]), tuple([self.ys[a] for a in idx])
        sub = Configuration._of_checked(xs, ys) if xs else Configuration(xs, ys)
        if "lines" in self.__dict__:
            sub.__dict__["lines"] = tuple([self.lines[a] for a in idx])
        return sub

    def det_row(self, i: int) -> list:
        """Row i of the scaled determinant table, computed afresh on every
        call by the one comprehension every row comes from, and cached
        nowhere: entry j is the int D^2 * det2(v_i, v_j), exactly, in both
        modes."""
        xs, ys, _ = self._det_coords
        xi, yi = xs[i], ys[i]
        return [xi * yj - yi * xj for xj, yj in zip(xs, ys)]

    def det(self, i: int, j: int) -> Scalar:
        """det2(v_i, v_j) in the members' own arithmetic, the value that a
        witness or step constant reports: exact in exact mode, the float
        entry fl(x_i*y_j - y_i*x_j) in float mode."""
        return self.xs[i] * self.ys[j] - self.ys[i] * self.xs[j]

    @cached_property
    def det_max(self) -> int:
        """max |det| in table units (the int D^2 * max |det2|): the table's
        largest entry, as it holds -d next to each d, and 0 on its
        diagonal. A streaming maximum: each row is computed, reduced to its
        maximum and dropped, so the memory is O(m)."""
        return max(map(max, map(self.det_row, range(self.m))))


def label_by_increasing_arguments(c: Configuration) -> Configuration:
    """Sort the members by polar argument ascending in [0, 2*pi), once per
    member set (per_member_set), which the labeled copy shares.

    Raises DuplicateArgument when two members are angularly closer than
    ARGUMENT_TIE_TOL (cyclically), since the strict ordering the labeling
    promises does not exist; uniform configurations never tie.
    """
    return c.per_member_set(_label)


def _label(c: Configuration) -> Configuration:
    args, order = c.arguments, c.label_order
    theta = [args[i] for i in order]
    # gap pos lies between order[pos - 1] and order[pos], cyclically
    gaps = [theta[0] - theta[-1] + 2.0 * math.pi] + [b - a for a, b in zip(theta, theta[1:])]
    ties = [abs(gap) < ARGUMENT_TIE_TOL for gap in gaps]
    if True in ties:
        pos = ties.index(True)
        i, j = order[pos - 1], order[pos]
        raise DuplicateArgument(f"members {i} and {j} share an argument (gap {gaps[pos]:.3e} rad)")
    labeled = c.take(order)
    # the labeled copy shares c's memo, and is in its own label order
    labeled.__dict__.update(_memo=c.__dict__.setdefault("_memo", {}), label_order=[*range(c.m)])
    return labeled


def roots_of_unity(m: int) -> Configuration:
    """The m-th roots of unity as a float configuration, in label order.

    Only odd m is meaningful downstream (m = 1 is allowed as the degenerate
    single vector); even m is rejected here to fail close to the mistake.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if m % 2 == 0:
        raise ValueError("m must be odd")
    thetas = [2.0 * math.pi * k / m for k in range(m)]
    # cos and sin of a finite angle are finite and never both zero
    return Configuration._of_checked(tuple(map(math.cos, thetas)), tuple(map(math.sin, thetas)))
