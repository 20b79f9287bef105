"""Independent oracles: seeded random invertible maps, seeded perturbations,
and exhaustive enumeration of balanced configurations over small exact grids.

Enumeration treats a configuration as a set of pairwise distinct nonzero grid
vectors (the objects the definitions quantify over) and lists each set once,
in lexicographic order of the sorted representative, so results are
reproducible byte for byte. It never tests all C(n, m) candidates: a balanced
set is collinear or sums to zero, so it lists the collinear sets of each line
of the grid (Configuration.lines). A zero-sum set on 2 lines is balanced
exactly when closed under v -> -v, so at even m it lists those hits from the
grid's antipodal pairs. At even m every line of a balanced set that is not
collinear holds two or more of its members, so such a set spans at most
most = m // 2 lines (most = m at odd m). When most >= 3 it meets the zero-sum
sets on 3 to most lines in the middle, joining the sums of the grid's
ceil(m/2)-subsets with a table of its floor(m/2)-subset sums (for m > n/2, of
the n - m points each set leaves out). Each joined set is decided on the
grid's ints and lines (see _hits), and is_balanced decides only a set of
m >= 5 on 3 lines, or on 4 or more with a zero third moment. Each hit is
listed as its sorted tuple of grid indices: search_balanced counts the hits,
and the uniform ones, from those tuples and the grid's lines alone, and
builds each hit's Configuration from its tuple only when asked.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections import Counter
from fractions import Fraction
from typing import List, NamedTuple, Optional, Set, Tuple

from .balance import is_balanced
from .errors import BudgetExceeded
from .geometry import Configuration, LinearMap2

DEFAULT_BUDGET = 10**7
# Bytes of a join table entry and of a grid vector with small ints, the most one
# took (tracemalloc, 3.11; small rationals, m <= 5), and what each 30-bit digit
# past the first of the grid's largest int x*D adds: to an entry its packed key
# (at most 7 B measured), to a vector its line and packed and cubic keys (98 B).
TABLE_B, TABLE_DIGIT_B = 260, 8
GRID_B, GRID_DIGIT_B = 780, 100
# Most entries of the join's table, grid vectors and collinear sets with small
# ints: 1 GiB at TABLE_B, GRID_B and 600 B (the most one collinear set took).
TABLE_CAP = 2**30 // TABLE_B
GRID_CAP = 2**30 // GRID_B
HIT_CAP = 2**30 // 600
# Largest condition number of a random_invertible map.
COND_MAX = 100.0


def random_invertible(seed: int) -> LinearMap2:
    """Seeded random 2x2 map with condition number <= COND_MAX and
    |det| >= 1/COND_MAX, by rejection sampling of entries in [-1, 1]."""
    rng = random.Random(seed)
    while True:
        a, b, c, d = (rng.uniform(-1.0, 1.0) for _ in range(4))
        det = a * d - b * c
        if abs(det) < 1.0 / COND_MAX:
            continue
        # singular values of a 2x2: s^2 are the eigenvalues of G^T G
        trace = a * a + b * b + c * c + d * d
        disc = math.sqrt(max(trace * trace - 4.0 * det * det, 0.0))
        smin_sq = (trace - disc) / 2.0
        cond = math.sqrt((trace + disc) / 2.0 / smin_sq)
        if cond <= COND_MAX:
            return LinearMap2(a, b, c, d)


def perturb(c: Configuration, eps: float, seed: int = 0) -> Configuration:
    """Add a seeded pseudo-random offset of Euclidean magnitude <= eps to
    every member; eps = 0 returns the float image unchanged."""
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be a finite number >= 0, got {eps!r}")
    rng = random.Random(seed)
    out = []
    floats = c.as_float()
    for x, y in zip(floats.xs, floats.ys):
        radius = eps * rng.random()
        theta = 2.0 * math.pi * rng.random()
        out.append((x + radius * math.cos(theta), y + radius * math.sin(theta)))
    return Configuration(out)


class SearchSpec(
    NamedTuple(
        "SearchSpec",
        [("m", int), ("coordinate_set", Tuple[Fraction, ...]), ("require_uniform", bool)],
    )
):
    """Exhaustive-search request: size m over an exact coordinate grid."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, m: int, coordinate_set: Tuple[Fraction, ...], require_uniform: bool = False):
        if m < 1:
            raise ValueError("m must be >= 1")
        coords = tuple(sorted({x if type(x) is Fraction else Fraction(x) for x in coordinate_set}))
        if not coords:
            raise ValueError("coordinate set must be nonempty")
        return super().__new__(cls, m, coords, require_uniform)


def enumerate_balanced(spec: SearchSpec) -> List[Configuration]:
    """All balanced configurations of m pairwise distinct vectors over the
    grid, exact arithmetic, in deterministic lexicographic order; optionally
    only the uniform ones: search_balanced's hits."""
    return search_balanced(spec, build=True)[2]


def search_balanced(spec: SearchSpec, build: bool = False) -> Tuple[int, int, List[Configuration]]:
    """(count, uniform_count, hits) of one enumeration. A hit is uniform
    exactly when its members lie on pairwise distinct lines of the grid
    (Configuration.lines), exact is_uniform's rule, read off its index tuple
    (_hits), so none goes to is_uniform. Only under build are the hits
    listed (else []), each by Configuration.take after the sort."""
    grid, found = _hits(spec)
    hits = [grid.take(idx) for idx in sorted(found)] if build else []
    return len(found), len(_uniform(grid, found)), hits


def _uniform(grid: Configuration, found) -> List[tuple]:
    """The index tuples of found whose members lie on pairwise distinct lines
    of the grid: search_balanced's rule for a uniform hit."""
    return [idx for idx in found if len(set(map(grid.lines.__getitem__, idx))) == len(idx)]


def _hits(spec: SearchSpec) -> Tuple[Optional[Configuration], Set[tuple]]:
    """The grid (None when it has fewer than m vectors) and the set of each
    hit's sorted index tuple; under require_uniform, only the tuples
    _uniform keeps.

    Row i of a configuration sums to det(v_i, S), S the sum of its members,
    and a symmetric row sums to 0. So a balanced set is collinear (every det
    is 0, and it is balanced) or has S = 0 (two independent members force
    it). The collinear sets are listed on each line of the grid's own
    Configuration. Rule 3: a zero-sum set on exactly 2 lines is balanced
    exactly when closed under v -> -v, as the row of a member of one line is
    a nonzero multiple of the other line's signed lengths. So at even m
    these hits are listed from one dict of the grid's int points: j pairs
    {v, -v} of one line and m/2 - j of another, 1 <= j < m/2. At odd m there
    are none.

    Rule 2: at even m a set with a member alone on its line is not balanced,
    as that member's row has odd length and no zero (see even_m_witness). So
    a balanced set that is not collinear spans at most most = m // 2 lines at
    even m (most = m at odd m), and the zero-sum sets on 3 to most lines are
    met in the middle (Horowitz & Sahni 1974, see _join) when most >= 3, on
    the _det_coords ints packed by _pack into x*K + y, K = 2*m*max|coordinate|
    + 1, so a sum of at most m points is 0 exactly when both of its
    coordinate sums are. When m > n/2 the join lists the n - m points left
    out, whose sum is the grid's total. It skips a set on fewer than 3 or
    more than most lines and decides the rest by the first exact rule that
    applies. 1: on 4 or more lines through the origin with a nonzero third
    moment (sum x^3, sum x^2 y, sum x y^2, sum y^3, packed the same way, and
    only when most >= 4), it is not balanced: every odd power sum of a
    symmetric row is 0, so the cubic form sum_j det(u, v_j)^3 vanishes on
    the line of every member, and a nonzero binary cubic vanishes on at most
    3 lines. 2: at even m with a member alone on its line, it is not
    balanced. 4: at m = 3 it is balanced, as each row's 2 entries sum to
    det(v_i, S) = 0, with no Configuration built. 5: otherwise is_balanced
    decides on the set's Configuration.take. No grid table and no row is
    built.
    The join's table of C(n, floor(s/2)) entries, s = min(m, n - m), is
    held in memory. At every m, BudgetExceeded refuses more than
    DEFAULT_BUDGET left halves, C(n, ceil(s/2)) for n grid vectors, or
    TABLE_CAP table entries, then GRID_CAP grid vectors (both caps lowered
    by each 30-bit digit of the grid's ints past the first) or HIT_CAP
    collinear sets, before any is built.
    """
    coords = spec.coordinate_set
    # the grid's nonzero vectors, counted before any is built
    m, n = spec.m, len(coords) ** 2 - (0 in coords)
    if m > n:
        return None, set()
    # a set sums to zero exactly when the rest of the grid sums to the
    # grid's total, so the join lists the smaller of the two
    size = min(m, n - m)
    left = size - size // 2
    # C(n, left) = C(n, k), and C(n, j) grows with j <= k <= n / 2
    k = min(left, n - left)
    subsets = 1
    for j in range(1, k + 1):
        subsets = subsets * (n - j + 1) // j
        if subsets > DEFAULT_BUDGET:
            raise BudgetExceeded(
                f"C({n}, {left}) {'=' if j == k else '>='} {subsets} subsets "
                f"exceed the budget of {DEFAULT_BUDGET}"
            )
    # the grid's coordinates as the ints x*D, y*D; past one 30-bit digit,
    # each digit adds to the bytes of a table entry and of a grid vector
    d = math.lcm(*[c.denominator for c in coords])
    ints = [c.numerator * (d // c.denominator) for c in coords]
    digits = (max(map(abs, ints)).bit_length() - 1) // 30
    # C(n, right) <= C(n, left), which passed the budget
    entries = math.comb(n, size // 2)
    cap = TABLE_CAP * TABLE_B // (TABLE_B + TABLE_DIGIT_B * digits)
    if entries > cap:
        raise BudgetExceeded(f"C({n}, {size // 2}) = {entries} table entries exceed {cap}")
    cap = GRID_CAP * GRID_B // (GRID_B + GRID_DIGIT_B * digits)
    if n > cap:
        raise BudgetExceeded(f"{n} grid vectors exceed {cap}")
    # the grid's nonzero vectors, lexicographic by (x, y)
    xs = [x for x in ints for y in ints if x or y]
    ys = [y for x in ints for y in ints if x or y]
    # a line holds at most k = len(coords) grid vectors and C(j, m) is convex in
    # j, so at most n/k * C(k, m) sets are collinear; past HIT_CAP, count them
    # line by line, on |x*K + y| // gcd(x, y), K > 2*max|y|: one int per line
    if n * math.comb(len(coords), m) > HIT_CAP * len(coords):
        packed = map(abs, _pack([xs, ys], 1))
        on_line = Counter(map(operator.floordiv, packed, map(math.gcd, xs, ys)))
        collinear = sum(map(math.comb, on_line.values(), itertools.repeat(m)))
        if collinear > HIT_CAP:
            raise BudgetExceeded(f"{collinear} collinear sets exceed {HIT_CAP}")
    cells = [(a, b) for a, x in zip(coords, ints) for b, y in zip(coords, ints) if x or y]
    grid = Configuration._of_checked(*zip(*cells))
    grid.__dict__["_det_coords"] = xs, ys, d * d
    line_of = grid.lines
    lines = {}
    for i, line in enumerate(line_of):
        lines.setdefault(line, []).append(i)
    found = {idx for members in lines.values() for idx in itertools.combinations(members, m)}
    if m % 2 == 0:
        # rule 3: j pairs {v, -v} of one line and m/2 - j of another
        at = dict(zip(zip(xs, ys), range(n)))
        pairs = {}
        for (x, y), i in at.items():
            if (j := at.get((-x, -y), -1)) > i:
                pairs.setdefault(line_of[i], []).append((i, j))
        for one, two in itertools.combinations(pairs.values(), 2):
            for j in range(1, m // 2):
                for a, b in itertools.product(
                    itertools.combinations(one, j), itertools.combinations(two, m // 2 - j)
                ):
                    found.add(tuple(sorted(itertools.chain(*a, *b))))
    # rule 2: at even m a set with no member alone on its line spans at most
    # m/2 lines, so the join needs only the zero-sum sets on 3..most lines
    most = m if m % 2 else m // 2
    if most >= 3:
        keys = _pack([xs, ys], m)
        if most >= 4:
            # the columns x^3, x^2 y, x y^2, y^3
            cubes = _pack([[x ** (3 - e) * y**e for x, y in zip(xs, ys)] for e in range(4)], m)
        target = 0 if size == m else sum(keys)
        for part in _join(keys, size, target):
            idx = part if size == m else tuple(sorted(set(range(n)).difference(part)))
            on = {line_of[a] for a in idx}
            if not 3 <= len(on) <= most or len(on) >= 4 and sum([cubes[a] for a in idx]):
                continue
            if m % 2 == 0 and 1 in map([line_of[a] for a in idx].count, on):
                continue
            if m == 3 or is_balanced(grid.take(idx)).balanced:
                found.add(idx)
    if spec.require_uniform:
        return grid, set(_uniform(grid, found))
    return grid, found


def _join(keys: List[int], size: int, target: int):
    """Every increasing index tuple of `size` members whose keys sum to
    `target`, met in the middle: a table maps target minus the sum of each
    floor(size/2)-subset to its index tuples, each ceil(size/2)-subset looks
    up its own sum, and a right part is kept when it starts past the left
    part's last index, so each tuple is met once."""
    n = len(keys)
    left, right = size - size // 2, size // 2
    table = {}
    for total, idx in zip(_sums(keys, right), itertools.combinations(range(n), right)):
        table.setdefault(target - total, []).append(idx)
    # only the left parts whose sum the table holds leave the C-level pipeline
    met = itertools.compress(
        itertools.combinations(range(n), left), map(table.__contains__, _sums(keys, left))
    )
    for head in met:
        for tail in table[sum([keys[a] for a in head])]:
            if not tail or tail[0] > head[-1]:
                yield head + tail


def _sums(keys: List[int], r: int):
    """The key sum of each r-subset, in combinations order; a pair's by one
    C-level add, with no call of sum."""
    if r == 2:
        return itertools.starmap(operator.add, itertools.combinations(keys, 2))
    return map(sum, itertools.combinations(keys, r))


def _pack(columns: List[List[int]], m: int) -> List[int]:
    """One int per point from its int columns, as digits in base
    K = 2*m*max|entry| + 1: a sum of at most m packed points is 0
    exactly when the sum of every column is."""
    base = itertools.repeat(2 * m * max([max(map(abs, c)) for c in columns]) + 1)
    packed = columns[0]
    for column in columns[1:]:
        packed = list(map(operator.add, map(operator.mul, packed, base), column))
    return packed
