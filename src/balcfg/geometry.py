"""Planar primitives: vectors in two arithmetic modes, determinants, polar
arguments, cyclic indexing, and roots-of-unity generation.

Every vector carries either exact rational coordinates (fractions.Fraction,
kept in lowest terms by construction) or binary floats; the two modes never
mix inside one operation. Configurations are immutable ordered lists of
nonzero vectors with a single mode.

A configuration's determinant rows keep their entries at one scale. In
exact mode, with D the lcm of the coordinate denominators, each row is built
from the integer coordinates x*D, y*D, so every entry is the int D^2 * det2
and the scale is D^2; the verdicts sort, add and compare these ints. In float
mode the entries are the float det2 values and the scale is 1. Rows are built
one at a time, on demand, by one comprehension (Configuration.det_row); the
whole table (det_table) is the tuple of those rows, built only for a verdict
that reads them all. A value that leaves the package (a witness, a maximum)
is divided back to input units by Configuration.unscale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Union

from .errors import DuplicateArgument

Scalar = Union[Fraction, float]

EXACT = "exact"
FLOAT = "float"

# Two float arguments closer than this (radians, cyclically) are treated as
# equal rather than ordered.
ARGUMENT_TIE_TOL = 1e-12


def _coerce(value) -> Scalar:
    """Map an input coordinate to one of the two supported scalar kinds."""
    if isinstance(value, bool):
        raise TypeError("boolean is not a coordinate")
    if isinstance(value, float):
        return value
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"unsupported coordinate type {type(value).__name__}")


@dataclass(frozen=True)
class PlaneVector:
    """A vector of R^2. Ints coerce to Fraction; a float coordinate forces
    float mode for the whole vector."""

    x: Scalar
    y: Scalar

    def __post_init__(self):
        x, y = _coerce(self.x), _coerce(self.y)
        if isinstance(x, float) or isinstance(y, float):
            x, y = float(x), float(y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def mode(self) -> str:
        return FLOAT if isinstance(self.x, float) else EXACT

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def __add__(self, other: "PlaneVector") -> "PlaneVector":
        return PlaneVector(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "PlaneVector") -> "PlaneVector":
        return PlaneVector(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "PlaneVector":
        return PlaneVector(-self.x, -self.y)

    def scale(self, s: Scalar) -> "PlaneVector":
        return PlaneVector(s * self.x, s * self.y)

    def norm(self) -> float:
        """Euclidean length, always as a float."""
        return math.hypot(float(self.x), float(self.y))

    def as_float(self) -> "PlaneVector":
        """The float copy; ValueError names an exact coordinate that does
        not fit a float."""
        if self.mode == FLOAT:
            return self
        try:
            return PlaneVector(float(self.x), float(self.y))
        except OverflowError:
            axis, value = ("x", self.x) if abs(self.x) >= abs(self.y) else ("y", self.y)
            raise ValueError(f"exact {axis} coordinate {value} does not fit a float") from None

    def as_tuple(self) -> tuple:
        return (self.x, self.y)


def det2(a: PlaneVector, b: PlaneVector) -> Scalar:
    """Determinant of the 2x2 matrix with columns a, b: a.x*b.y - a.y*b.x."""
    if a.mode != b.mode:
        raise ValueError(f"det2 operands in different modes: {a.mode} vs {b.mode}")
    return a.x * b.y - a.y * b.x


def argument(v: PlaneVector) -> float:
    """Polar angle of v in [0, 2*pi), measured from the positive x-axis.

    Exact-mode vectors fall back to float internally; the result is always a
    float and is used for ordering only.
    """
    if v.is_zero():
        raise ValueError("argument of the zero vector is undefined")
    theta = math.atan2(float(v.y), float(v.x))
    if theta < 0.0:
        theta += 2.0 * math.pi
    # atan2(-tiny, x) + 2*pi can round to 2*pi itself; fold back.
    if theta >= 2.0 * math.pi:
        theta = 0.0
    return theta


@dataclass(frozen=True)
class Configuration:
    """Ordered list of m >= 1 nonzero vectors sharing one arithmetic mode."""

    vectors: tuple = field(default=())

    def __init__(self, vectors: Iterable):
        vecs = tuple(
            v if isinstance(v, PlaneVector) else PlaneVector(v[0], v[1])
            for v in vectors
        )
        if not vecs:
            raise ValueError("a configuration needs at least one vector")
        modes = {v.mode for v in vecs}
        if len(modes) > 1:
            raise ValueError("configuration mixes exact and float vectors")
        for i, v in enumerate(vecs):
            if v.is_zero():
                raise ValueError(f"configuration member {i} is the zero vector")
        object.__setattr__(self, "vectors", vecs)

    @property
    def mode(self) -> str:
        return self.vectors[0].mode

    @property
    def m(self) -> int:
        return len(self.vectors)

    @property
    def n(self) -> int:
        """(m-1)/2 when m is odd; meaningless otherwise."""
        if self.m % 2 == 0:
            raise ValueError("n is defined only for odd m")
        return (self.m - 1) // 2

    def __len__(self) -> int:
        return len(self.vectors)

    def __getitem__(self, i: int) -> PlaneVector:
        return self.vectors[i]

    def __iter__(self):
        return iter(self.vectors)

    def as_float(self) -> "Configuration":
        if self.mode == FLOAT:
            return self
        return Configuration([v.as_float() for v in self.vectors])

    @cached_property
    def _det_coords(self) -> tuple:
        """(xs, ys, scale): the coordinates every determinant row is built
        from, unpacked once. In exact mode they are the ints x*D, y*D (D the
        lcm of the denominators) and the scale is D^2; in float mode they are
        the floats themselves and the scale is 1."""
        vecs = self.vectors
        if self.mode == FLOAT:
            return [v.x for v in vecs], [v.y for v in vecs], 1
        d = math.lcm(*[v.x.denominator for v in vecs], *[v.y.denominator for v in vecs])
        xs = [v.x.numerator * (d // v.x.denominator) for v in vecs]
        ys = [v.y.numerator * (d // v.y.denominator) for v in vecs]
        return xs, ys, d * d

    @cached_property
    def _det_rows(self) -> list:
        """Row i of the scaled table once det_row has built it, else None."""
        return [None] * self.m

    @cached_property
    def _sorted_rows(self) -> list:
        """Row i of sorted_det_row once it has been sorted, else None."""
        return [None] * self.m

    def det_row(self, i: int) -> tuple:
        """Row i of the scaled determinant table, built on first use by the
        one comprehension every row comes from and then cached: entry j is
        exactly D^2 * det2(v_i, v_j) in exact mode, det2(v_i, v_j) itself in
        float mode, the sign of a zero included. No mode check is needed:
        __init__ rejects mixed modes."""
        row = self._det_rows[i]
        if row is None:
            xs, ys, _ = self._det_coords
            xi, yi = xs[i], ys[i]
            row = self._det_rows[i] = tuple([xi * yj - yi * xj for xj, yj in zip(xs, ys)])
        return row

    def sorted_det_row(self, i: int) -> tuple:
        """det_row(i) without its diagonal entry, sorted once (in table
        units: see unscale)."""
        srow = self._sorted_rows[i]
        if srow is None:
            row = self.det_row(i)
            srow = self._sorted_rows[i] = tuple(sorted(row[:i] + row[i + 1 :]))
        return srow

    def unscale(self, value) -> Scalar:
        """A scaled table entry, or a sum of them, in input units."""
        return value if self.mode == FLOAT else Fraction(value, self._det_coords[2])

    @cached_property
    def det_table(self) -> tuple:
        """The antisymmetric m x m table, scaled: every det_row, built on
        first use and then shared by every verdict that reads the whole
        table."""
        return tuple(map(self.det_row, range(self.m)))

    @cached_property
    def det_max(self) -> Scalar:
        """max |det| in input units: the table's largest entry off the
        diagonal, as it holds -d next to each d; this mode's zero when there
        is none.

        A float diagonal entry x*y - y*x is NaN when x*y overflows, and max
        keeps a NaN that comes first. So row 0 is read past its diagonal,
        every row's maximum comes after a zero, and a NaN row maximum is
        skipped: a NaN here would make the default tolerance NaN and pass
        every comparison.
        """
        rows = self.det_table
        zero = 0.0 if self.mode == FLOAT else 0
        return self.unscale(max((zero, *rows[0][1:], *map(max, rows[1:]))))


def label_by_increasing_arguments(c: Configuration) -> Configuration:
    """Sort the members by polar argument ascending in [0, 2*pi).

    Raises DuplicateArgument when two members are angularly closer than
    ARGUMENT_TIE_TOL (cyclically), since the strict ordering the labeling
    promises does not exist; uniform configurations never tie.
    """
    args = [argument(v) for v in c.vectors]
    order = sorted(range(len(args)), key=args.__getitem__)
    if len(order) > 1:
        for pos in range(len(order)):
            i, j = order[pos - 1], order[pos]
            gap = args[j] - args[i]
            if pos == 0:
                gap += 2.0 * math.pi
            if abs(gap) < ARGUMENT_TIE_TOL:
                raise DuplicateArgument(
                    f"members {i} and {j} share an argument (gap {gap:.3e} rad)"
                )
    return Configuration([c.vectors[i] for i in order])


def cyclic_index(k: int, m: int) -> int:
    """Index k reduced modulo m to its nonnegative representative."""
    if m < 1:
        raise ValueError("m must be positive")
    return k % m


def roots_of_unity(m: int) -> Configuration:
    """The m-th roots of unity as a float configuration, in label order.

    Only odd m is meaningful downstream (m = 1 is allowed as the degenerate
    single vector); even m is rejected here to fail close to the mistake.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if m % 2 == 0:
        raise ValueError("m must be odd")
    vecs = [
        PlaneVector(math.cos(2.0 * math.pi * k / m), math.sin(2.0 * math.pi * k / m))
        for k in range(m)
    ]
    return Configuration(vecs)


def unit_vector(theta: float) -> PlaneVector:
    """Float unit vector at angle theta."""
    return PlaneVector(math.cos(theta), math.sin(theta))
