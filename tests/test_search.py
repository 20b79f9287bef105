import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balcfg import search
from balcfg.balance import even_m_witness, is_balanced, is_uniform
from balcfg.errors import BudgetExceeded
from balcfg.geometry import Configuration, PlaneVector, roots_of_unity
from balcfg.search import (
    SearchSpec,
    enumerate_balanced,
    perturb,
    random_invertible,
    search_balanced,
)

GRID3 = (Fraction(-1), Fraction(0), Fraction(1))
GRID5 = tuple(Fraction(k, 2) for k in range(-2, 3))
# lines through the origin with three grid points and a nonzero sum, such as
# (-1, -1), (1, 1), (2, 2): balanced only as collinear sets
GRID4 = tuple(map(Fraction, (-1, 0, 1, 2)))


def grid_vectors(coords):
    """All nonzero vectors over the grid, lexicographic by (x, y): the
    candidates of the brute-force oracle."""
    return [
        PlaneVector(x, y) for x in coords for y in coords if not (x == 0 and y == 0)
    ]


def test_random_invertible_is_seed_deterministic():
    a = random_invertible(seed=123)
    b = random_invertible(seed=123)
    assert a.rows() == b.rows()
    assert random_invertible(seed=124).rows() != a.rows()


@given(st.integers(0, 10**6))
def test_random_invertible_is_well_conditioned(seed):
    g = random_invertible(seed=seed)
    (a, b), (c, d) = g.rows()
    det = a * d - b * c
    assert abs(det) >= 1.0 / 100.0
    # singular values from the 2x2 closed form
    sq = a * a + b * b + c * c + d * d
    disc = math.sqrt(max(sq * sq - 4.0 * det * det, 0.0))
    smax = math.sqrt((sq + disc) / 2.0)
    smin = math.sqrt(max((sq - disc) / 2.0, 0.0))
    assert smax / smin <= 100.0 + 1e-9


def test_perturb_zero_eps_is_identity():
    u = roots_of_unity(7)
    same = perturb(u, eps=0.0, seed=5)
    assert [tuple(v) for v in same] == [tuple(v) for v in u]


def test_perturb_is_seeded_and_bounded():
    u = roots_of_unity(7)
    a = perturb(u, eps=0.05, seed=6)
    b = perturb(u, eps=0.05, seed=6)
    assert [tuple(v) for v in a] == [tuple(v) for v in b]
    for moved, orig in zip(a, u):
        assert math.hypot(moved.x - orig.x, moved.y - orig.y) <= 0.05 + 1e-15
    assert any(math.hypot(v.x - w.x, v.y - w.y) > 0 for v, w in zip(a, u))


def test_grid_vectors_exclude_zero():
    vecs = grid_vectors(GRID3)
    assert len(vecs) == 8
    assert all(not (v.x == 0 and v.y == 0) for v in vecs)
    tuples = [tuple(v) for v in vecs]
    assert tuples == sorted(tuples)


def test_spec_normalizes_coordinates():
    spec = SearchSpec(m=3, coordinate_set=(Fraction(1), Fraction(0), Fraction(1)))
    assert spec.coordinate_set == (Fraction(0), Fraction(1))


def test_spec_refuses_an_empty_coordinate_set():
    with pytest.raises(ValueError, match="coordinate set must be nonempty"):
        SearchSpec(m=3, coordinate_set=())


@pytest.mark.parametrize("eps", [math.nan, math.inf, -1.0])
def test_perturb_refuses_an_eps_that_is_not_a_finite_number_at_least_0(eps):
    # a NaN eps used to pass the eps < 0 test and build NaN members
    with pytest.raises(ValueError, match=f"^eps must be a finite number >= 0, got {eps!r}$"):
        perturb(roots_of_unity(5), eps)


def test_single_vector_grid_has_no_triples():
    spec = SearchSpec(m=3, coordinate_set=(Fraction(1),))
    assert enumerate_balanced(spec) == []


def test_enumeration_counts_on_the_small_grid():
    hits = enumerate_balanced(SearchSpec(m=3, coordinate_set=GRID3))
    assert len(hits) == 4
    assert all(is_balanced(h).balanced for h in hits)
    assert all(is_uniform(h)[0] for h in hits)


def test_even_grid_is_balanced_but_never_uniform():
    hits = enumerate_balanced(SearchSpec(m=4, coordinate_set=GRID3))
    assert len(hits) == 6
    uniform_hits = enumerate_balanced(
        SearchSpec(m=4, coordinate_set=GRID3, require_uniform=True)
    )
    assert uniform_hits == []
    for h in hits:
        assert 0 <= even_m_witness(h) < 4


def _rows(c):
    """Every determinant row of c, in order."""
    return [c.det_row(i) for i in range(c.m)]


def brute_force(coords, m, require_uniform):
    hits = []
    for cand in itertools.combinations(grid_vectors(coords), m):
        cfg = Configuration(cand)
        if not is_balanced(cfg).balanced:
            continue
        if require_uniform and not is_uniform(cfg)[0]:
            continue
        hits.append(cfg)
    return hits


@pytest.mark.parametrize("require_uniform", [False, True])
@pytest.mark.parametrize(
    "coords, m", [(GRID3, m) for m in range(1, 6)] + [(GRID5, 3), (GRID4, 2), (GRID4, 3)]
)
def test_enumeration_equals_its_definition(coords, m, require_uniform):
    hits = enumerate_balanced(SearchSpec(m, coords, require_uniform))
    expected = brute_force(coords, m, require_uniform)
    # Configuration equality compares the vectors in order
    assert hits == expected
    assert list(map(_rows, hits)) == list(map(_rows, expected))


def test_budget_guard():
    # the join walks the C(n, ceil(m / 2)) left halves of the n grid
    # vectors: C(99, 6) is about 1.1e9
    with pytest.raises(BudgetExceeded, match=r"C\(99, 6\)"):
        enumerate_balanced(SearchSpec(m=12, coordinate_set=tuple(range(10))))


def test_join_runs_where_the_prefix_walk_was_refused():
    # C(99, 3) left halves, where C(99, 5) prefixes exceeded the budget: no
    # set sums to zero on a grid of nonnegative coordinates, so the hits are
    # the 6-subsets of the three lines that hold 9 grid points each
    hits = enumerate_balanced(SearchSpec(m=6, coordinate_set=tuple(range(10))))
    assert len(hits) == 3 * math.comb(9, 6)


@given(st.lists(st.integers(-10**30, 10**30), max_size=8), st.integers(0, 4))
def test_subset_sums_follow_combinations_order(keys, r):
    # pairs by operator.add, other sizes by sum, in the order _join zips them in
    assert list(search._sums(keys, r)) == [sum(c) for c in itertools.combinations(keys, r)]


@pytest.mark.parametrize("m", [8, 10, 13, 15])
def test_large_m_joins_the_points_left_out(m):
    # m > n / 2 on the 15 vectors of GRID4: the join lists the n - m points
    # that each set leaves out, whose sum is the grid's total, (8, 8); at
    # m = 8 one hit is not collinear
    assert enumerate_balanced(SearchSpec(m, GRID4)) == brute_force(GRID4, m, False)


def test_large_m_runs_within_a_small_budget():
    # m = n - 1 and m = n on the 24 vectors of {-2, ..., 2}^2 cost C(24, 1)
    # and C(24, 0) left halves, not C(24, 12): no point is the grid's total
    # (0), and the whole grid is centrally symmetric, so balanced
    coords = tuple(range(-2, 3))
    assert enumerate_balanced(SearchSpec(23, coords)) == []
    assert enumerate_balanced(SearchSpec(24, coords)) == [Configuration(grid_vectors(coords))]


def test_table_cap_refuses_a_join_before_building_its_table():
    # m = 6 on the 323 vectors of {0, ..., 17}^2: C(323, 3) left halves pass
    # the budget, but the right-hand table of C(323, 3) entries would take
    # about 1.4 GB, so it is refused before any entry is built
    assert search.TABLE_CAP < math.comb(323, 3) <= search.DEFAULT_BUDGET
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=r"C\(323, 3\) = 5564321 table entries"):
        enumerate_balanced(SearchSpec(m=6, coordinate_set=tuple(range(18))))
    assert time.perf_counter() - start < 1.0


def test_budget_refuses_a_huge_walk_without_counting_it_in_full():
    # the join lists the 499998 points each set leaves out: C(999999,
    # 249999) has about 244 000 digits; the refusal stops at the first
    # C(n, j) past the budget, so it takes milliseconds
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=r"C\(999999, 249999\) >= "):
        enumerate_balanced(SearchSpec(m=500001, coordinate_set=tuple(range(1000))))
    assert time.perf_counter() - start < 1.0


def test_budget_counts_prefixes_not_coordinate_tuples():
    # 3^16 coordinate tuples, but only C(8, 4) = 70 left halves: the one hit
    # is every nonzero vector of the grid
    hits = enumerate_balanced(SearchSpec(m=8, coordinate_set=GRID3))
    assert hits == [Configuration(grid_vectors(GRID3))]


RANDOM_COORDS = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 5]))


@settings(max_examples=15, deadline=None)
@given(
    # m = 5 and m = 6 split 3 + 2 and 3 + 3; brute force stays cheap on at
    # most 4 coordinates
    st.integers(1, 6).flatmap(
        lambda m: st.tuples(
            st.lists(RANDOM_COORDS, min_size=2, max_size=5 if m <= 4 else 4, unique=True),
            st.just(m),
        )
    ),
    st.booleans(),
)
@example(([Fraction(1, 2), Fraction(-1), Fraction(2)], 1), False)
@example(([Fraction(-1), Fraction(0), Fraction(1), Fraction(2)], 2), True)
@example(([Fraction(-1), Fraction(0), Fraction(1), Fraction(2)], 5), False)
@example(([Fraction(-2), Fraction(-1, 2), Fraction(0), Fraction(1)], 6), False)
# {(1, 0), (2, 0), (-3, 0), (0, 1), (0, 2), (0, -3)} sums to zero on 2 lines,
# is not closed under negation, and is not balanced
@example(([Fraction(-3), Fraction(0), Fraction(1), Fraction(2)], 6), False)
# m = 4 runs no join: its hits off one line are pairs {a, -a, b, -b}, here
# on lines with two such pairs, and on grids with and without 0
@example(([Fraction(-1), Fraction(-1, 3), Fraction(0), Fraction(1, 3), Fraction(1)], 4), False)
@example(([Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2), Fraction(2)], 4), True)
@example(([Fraction(-2, 3), Fraction(1, 5), Fraction(2, 3), Fraction(3)], 4), False)
def test_enumeration_equals_brute_force_on_random_grids(grid, require_uniform):
    # the collinear listing and the zero-sum join together must list exactly
    # the brute-force hits
    coords, m = grid
    hits = enumerate_balanced(SearchSpec(m, tuple(coords), require_uniform))
    expected = brute_force(tuple(sorted(coords)), m, require_uniform)
    assert hits == expected
    assert list(map(_rows, hits)) == list(map(_rows, expected))


@settings(max_examples=40, deadline=None)
@given(
    # no brute force here, so the grids may be larger than above
    st.integers(1, 6).flatmap(
        lambda m: st.tuples(
            st.lists(RANDOM_COORDS, min_size=1, max_size=6 if m <= 4 else 5, unique=True),
            st.just(m),
        )
    ),
    st.booleans(),
)
def test_count_balanced_agrees_with_enumerate_balanced_on_random_grids(grid, require_uniform):
    # search_balanced reads a hit's uniformity off the grid's lines; is_uniform
    # decides it on the hit that enumerate_balanced builds
    coords, m = grid
    spec = SearchSpec(m, tuple(coords), require_uniform)
    hits = enumerate_balanced(spec)
    uniform = sum(is_uniform(cfg)[0] for cfg in hits)
    assert search_balanced(spec)[:2] == (len(hits), uniform)
    assert not require_uniform or uniform == len(hits)


def two_line_hits(coords, m):
    """Brute force over every pair of the grid's lines: the balanced m-subsets
    of their union that hold a member of each line, as sorted vector tuples."""
    on_line = {}
    for x, y in [(x, y) for x in coords for y in coords if x or y]:
        on_line.setdefault(None if x == 0 else y / x, []).append((x, y))
    hits = []
    for one, two in itertools.combinations(on_line.values(), 2):
        for cand in itertools.combinations(sorted(one + two), m):
            if set(cand) - set(one) and set(cand) - set(two):
                if is_balanced(Configuration(cand)).balanced:
                    hits.append(cand)
    return sorted(hits)


TWO_LINE_GRIDS = {
    "-2..2": tuple(range(-2, 3)),
    "-3..3": tuple(range(-3, 4)),
    # two pairs {v, -v} on each axis and diagonal, and 1 without -1
    "halves": tuple(Fraction(k, 2) for k in (-3, -1, 0, 1, 2, 3)),
}


@pytest.mark.parametrize("m", [4, 6, 8])
@pytest.mark.parametrize("grid", TWO_LINE_GRIDS)
def test_two_line_hits_equal_a_brute_force_over_each_pair_of_lines(monkeypatch, grid, m):
    # at even m the hits on exactly two lines are listed from antipodal pairs,
    # never joined; m = 8 on -3..3 would join for about 20 s, so its join is
    # replaced by one that lists nothing, which keeps every two-line hit
    coords = TWO_LINE_GRIDS[grid]
    if (grid, m) == ("-3..3", 8):
        monkeypatch.setattr(search, "_join", lambda keys, size, target: iter(()))
    hits = enumerate_balanced(SearchSpec(m, tuple(map(Fraction, coords))))
    listed = [
        tuple(tuple(v) for v in cfg) for cfg in hits if len(lines_through_the_origin(cfg)) == 2
    ]
    expected = two_line_hits(coords, m)
    assert expected and listed == expected


def _refusing_join(keys, size, target):
    raise AssertionError("the join ran")


@pytest.mark.parametrize("coords", [tuple(range(-2, 3)), GRID4, GRID5])
def test_no_join_runs_at_m_1_2_and_4(monkeypatch, coords):
    # no set of m <= 2 lies on 3 lines, and at m = 4 every set on 3 or more
    # lines has a member alone on its line, so the join cannot add a hit
    monkeypatch.setattr(search, "_join", _refusing_join)
    for m in (1, 2, 4):
        assert enumerate_balanced(SearchSpec(m, coords)) == brute_force(coords, m, False)
    for m in (3, 5, 6):
        with pytest.raises(AssertionError, match="^the join ran$"):
            enumerate_balanced(SearchSpec(m, coords))


def test_keys_are_packed_exactly_where_the_line_bound_lets_a_rule_need_them(monkeypatch):
    # a zero-sum set that is not collinear spans 3..most lines, most = m at
    # odd m and m/2 at even m (rule 2), so the join's 2-column keys are built
    # exactly when most >= 3 and the 4-column cubic keys when most >= 4:
    # never at m = 6; the collinear count packs no key on this grid
    coords = tuple(range(-2, 3))
    pack, columns = search._pack, []
    monkeypatch.setattr(search, "_pack", lambda c, m: columns.append(len(c)) or pack(c, m))
    cubic = []
    for m in range(1, 11):
        most = m if m % 2 else m // 2
        columns.clear()
        enumerate_balanced(SearchSpec(m, coords))
        assert columns == [2] * (most >= 3) + [4] * (most >= 4), m
        cubic += [m] * (4 in columns)
    assert cubic == [5, 7, 8, 9, 10]


# ints on both sides of 2^64, so a key past one machine word is packed too
BIG_INTS = st.integers(-(2**70), 2**70) | st.integers(-3, 3)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 4]),
    st.integers(1, 6),
    st.lists(st.tuples(*[BIG_INTS] * 4), min_size=1, max_size=6),
    st.booleans(),
)
@example(2, 2, [(1, 3, 0, 0), (-1, 4, 0, 0)], True)
def test_pack_sums_to_zero_exactly_when_every_column_does(width, m, points, close):
    # every m or fewer packed points sum to 0 exactly when each column does;
    # a point that closes the first m - 1 to a zero sum makes that case occur
    points = [p[:width] for p in points]
    if close:
        points.append(tuple(-sum(column) for column in zip(*points[: m - 1])) or (0,) * width)
    columns = [list(column) for column in zip(*points)]
    packed = search._pack(columns, m)
    for size in range(m + 1):
        for chosen in itertools.combinations(range(len(points)), size):
            zero = all(sum([column[i] for i in chosen]) == 0 for column in columns)
            assert (sum([packed[i] for i in chosen]) == 0) == zero


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(BIG_INTS, BIG_INTS).filter(any), min_size=1, max_size=12, unique=True))
def test_packed_line_key_groups_the_points_as_their_lines_do(points):
    # |x*K + y| // gcd(x, y), K = 2*max|entry| + 1, the HIT_CAP count's key
    # of a line, groups the points exactly as Configuration.lines does
    xs, ys = [list(column) for column in zip(*points)]
    keys = [abs(k) // math.gcd(x, y) for k, x, y in zip(search._pack([xs, ys], 1), xs, ys)]
    lines = Configuration(points).lines
    for i, j in itertools.combinations(range(len(points)), 2):
        assert (keys[i] == keys[j]) == (lines[i] == lines[j])


def test_caps_refuse_a_huge_grid_and_its_collinear_sets_before_building_either():
    # m = 2 on the 999999 vectors of {0, ..., 999}^2 passes the budget and
    # TABLE_CAP with 999999 left halves and table entries, but its lines
    # hold 4432881 collinear pairs, counted on ints before any grid exists
    assert search.DEFAULT_BUDGET > search.TABLE_CAP > 999999
    assert search.GRID_CAP > 999999
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=f"^4432881 collinear sets exceed {search.HIT_CAP}$"):
        enumerate_balanced(SearchSpec(m=2, coordinate_set=tuple(range(1000))))
    assert time.perf_counter() - start < 1.0
    # 1200^2 - 1 vectors at m = 1 are refused by their count alone
    with pytest.raises(BudgetExceeded, match=f"^1439999 grid vectors exceed {search.GRID_CAP}$"):
        enumerate_balanced(SearchSpec(m=1, coordinate_set=tuple(range(1200))))


def _digits_past_the_first(coords):
    """30-bit digits past the first of the grid's largest int x*D."""
    d = math.lcm(*[c.denominator for c in coords])
    return (max(abs(c.numerator * (d // c.denominator)) for c in coords).bit_length() - 1) // 30


# 0 and 1/p^200 for five primes p: D is their product, and the largest x*D,
# D/3^200, has 2460 bits
BIG_INTS = (Fraction(0),) + tuple(Fraction(1, p**200) for p in (3, 5, 7, 11, 13))


@pytest.mark.parametrize(
    "cap, item_b, digit_b, m, refusal",
    [
        ("GRID_CAP", "GRID_B", "GRID_DIGIT_B", 1, "35 grid vectors"),
        ("TABLE_CAP", "TABLE_B", "TABLE_DIGIT_B", 3, r"C\(35, 1\) = 35 table entries"),
    ],
)
def test_caps_count_the_bytes_of_the_grid_ints(monkeypatch, cap, item_b, digit_b, m, refusal):
    # a cap patched to the 35 vectors (or 35 table entries) of a 6-coordinate
    # grid lets small ints through, and refuses the same count of ints that
    # are 82 digits long, before the grid is built
    small = tuple(map(Fraction, range(6)))
    monkeypatch.setattr(search, cap, 35)
    assert enumerate_balanced(SearchSpec(m, small)) == brute_force(small, m, False)
    digits = _digits_past_the_first(BIG_INTS)
    assert digits == 81
    base = getattr(search, item_b)
    lowered = 35 * base // (base + getattr(search, digit_b) * digits)
    assert lowered < 35
    monkeypatch.setattr(Configuration, "_of_checked", None)
    with pytest.raises(BudgetExceeded, match=f"^{refusal} exceed {lowered}$"):
        enumerate_balanced(SearchSpec(m, BIG_INTS))


def test_grid_cap_refuses_big_denominators_that_small_ints_would_pass():
    # 300 coordinates k / (10^6 + k): m = n - 1 joins one point and builds the
    # cubic keys, thousands of bits per vector; 89999 vectors of small ints pass
    coords = (Fraction(0),) + tuple(Fraction(k, 10**6 + k) for k in range(1, 300))
    assert 89999 <= search.GRID_CAP
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=r"^89999 grid vectors exceed \d+$"):
        enumerate_balanced(SearchSpec(89998, coords))
    assert time.perf_counter() - start < 1.0


def collinear_sets(coords, m):
    """Sum over the grid's lines of C(k, m), from Configuration.lines."""
    vectors = grid_vectors(coords)
    lines = Configuration(vectors).lines if vectors else ()
    return sum(math.comb(lines.count(line), m) for line in set(lines))


@settings(max_examples=40, deadline=None)
@given(st.lists(RANDOM_COORDS, min_size=1, max_size=7, unique=True), st.integers(1, 4))
@example([Fraction(-3), Fraction(-1), Fraction(0), Fraction(1), Fraction(2), Fraction(3)], 3)
def test_hit_cap_counts_the_collinear_sets_line_by_line(coords, m):
    # a cap below the count refuses it and names the count, which the int
    # keys must find as the lines do; a cap at the count lets every hit through
    expected = collinear_sets(tuple(sorted(coords)), m)
    spec = SearchSpec(m, tuple(coords))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "HIT_CAP", expected - 1)
        if expected:
            with pytest.raises(BudgetExceeded, match=f"^{expected} collinear sets exceed"):
                enumerate_balanced(spec)
        patch.setattr(search, "HIT_CAP", expected)
        hits = enumerate_balanced(spec)
    assert hits == enumerate_balanced(spec)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.builds(Fraction, st.integers(-12, 12).filter(bool), st.sampled_from([1, 2, 3, 4, 9, 10])),
        min_size=1,
        max_size=6,
        unique=True,
    ),
    st.booleans(),
)
def test_grid_ints_come_from_the_coordinates(coords, with_zero):
    # the search grid's ints x*D, y*D come from the coordinate values, and
    # must be what a fresh grid Configuration's _det_coords computes
    coords = tuple(sorted(set(coords) | ({Fraction(0)} if with_zero else set())))
    built, of_checked = [], Configuration._of_checked.__func__
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            Configuration,
            "_of_checked",
            classmethod(lambda cls, xs, ys: built.append(of_checked(cls, xs, ys)) or built[-1]),
        )
        enumerate_balanced(SearchSpec(1, coords))
    grid, fresh = built[0], Configuration(grid_vectors(coords))
    assert grid == fresh
    assert grid.__dict__["_det_coords"] == fresh._det_coords
    assert grid.lines == fresh.lines


def lines_through_the_origin(cfg):
    """The distinct lines through the origin that hold a member: slope y/x,
    or None for the y-axis."""
    return {None if v.x == 0 else v.y / v.x for v in cfg}


def moments(cfg):
    """(sum of v, third moment (sum x^3, sum x^2 y, sum x y^2, sum y^3))."""
    first = (sum(v.x for v in cfg), sum(v.y for v in cfg))
    third = tuple(sum(v.x ** (3 - k) * v.y**k for v in cfg) for k in range(4))
    return first, third


def sums_to_zero(vectors):
    """Whether the vectors sum to (0, 0); the cheap half of moments."""
    return sum(v.x for v in vectors) == 0 and sum(v.y for v in vectors) == 0


def assert_moment_lemma(cfg):
    # a balanced set on 2 or more lines sums to zero, and one on 4 or more
    # lines has a zero third moment
    first, third = moments(cfg)
    on = len(lines_through_the_origin(cfg))
    if on >= 2:
        assert first == (0, 0)
    if on >= 4:
        assert third == (0, 0, 0, 0)


@pytest.mark.parametrize(
    "m, coords",
    [(4, range(-2, 3)), (5, range(-2, 3)), (6, GRID5), (8, range(-2, 3)), (8, GRID3)],
)
def test_search_hits_obey_the_moment_lemma(m, coords):
    hits = enumerate_balanced(SearchSpec(m, tuple(coords)))
    assert hits
    for cfg in hits:
        assert_moment_lemma(cfg)
    # the third moment is tested: both m = 8 grids have hits on 4 lines
    if m == 8:
        assert any(len(lines_through_the_origin(cfg)) >= 4 for cfg in hits)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(RANDOM_COORDS, RANDOM_COORDS).filter(lambda v: v != (0, 0)),
        min_size=1,
        max_size=6,
        unique_by=lambda v: (v[0], v[1]) if v > (0, 0) else (-v[0], -v[1]),
    )
)
def test_centrally_symmetric_sets_obey_the_moment_lemma(halves):
    # {v, -v} is balanced: row v holds det(v, w) and det(v, -w) for each w
    cfg = Configuration([v for x, y in halves for v in ((x, y), (-x, -y))])
    assert is_balanced(cfg).balanced
    assert_moment_lemma(cfg)


# over {-3, -1, 1, 3}, 8 zero-sum 6-sets on 3 or more lines that the moment
# test keeps have a member alone on its line, and the other 44 reach
# is_balanced
@pytest.mark.parametrize("m, coords", [(5, tuple(range(-2, 3))), (6, (-3, -1, 1, 3))])
def test_moment_filter_runs_before_is_balanced(monkeypatch, m, coords):
    # every set that reaches is_balanced sums to zero and lies on 3 lines, or
    # on 4 or more with a zero third moment, and at even m has no member
    # alone on its line; some zero-sum sets on 4 or more lines are dropped
    # unseen
    seen = []

    def recording(cfg):
        seen.append(cfg)
        return is_balanced(cfg)

    monkeypatch.setattr(search, "is_balanced", recording)
    hits = enumerate_balanced(SearchSpec(m, coords))
    assert hits == brute_force(coords, m, False)
    assert seen
    for cfg in seen:
        first, third = moments(cfg)
        on = [None if v.x == 0 else v.y / v.x for v in cfg]
        assert first == (0, 0) and len(set(on)) >= 3
        assert len(set(on)) == 3 or third == (0, 0, 0, 0)
        assert m % 2 or min(map(on.count, on)) >= 2
    zero_sum = [
        cand
        for cand in itertools.combinations(grid_vectors(coords), m)
        if sums_to_zero(cand) and len(lines_through_the_origin(cand)) >= 2
    ]
    assert len(seen) < len(zero_sum)


@pytest.mark.parametrize(
    "m, rules",
    [
        # at m = 4 a 2-line zero-sum set is {a, -a, b, -b}
        (4, {(1, False), (2, False), (3, True)}),
        # at odd m none is closed under negation, and rule 2 does not apply
        (5, {(1, False), (3, False)}),
        # no line of this grid holds two pairs v, -v
        (6, {(1, False), (2, False), (3, False)}),
    ],
)
def test_zero_sum_rules_agree_with_is_balanced(m, rules):
    # every zero-sum set over {-3, -1, 0, 1, 2}^2 that is not collinear is
    # not balanced on 4 or more lines with a nonzero third moment (rule 1),
    # nor at even m with a member alone on its line (rule 2); on 2 lines it
    # is balanced exactly when closed under v -> -v (rule 3); the search
    # lists exactly the ones that is_balanced accepts
    coords = (-3, -1, 0, 1, 2)
    vectors = [(x, y) for x in coords for y in coords if x or y]
    decided, balanced = set(), []
    for cand in itertools.combinations(vectors, m):
        if sum([x for x, _ in cand]) or sum([y for _, y in cand]):
            continue
        on = [None if x == 0 else Fraction(y, x) for x, y in cand]
        if len(set(on)) == 1:
            continue
        cfg = Configuration(cand)
        verdict = is_balanced(cfg).balanced
        if verdict:
            balanced.append(cfg)
        if len(set(on)) >= 4 and any(sum(x ** (3 - k) * y**k for x, y in cand) for k in range(4)):
            rule, expected = 1, False
        elif m % 2 == 0 and 1 in map(on.count, on):
            rule, expected = 2, False
        elif len(set(on)) == 2:
            rule, expected = 3, set(cand) == {(-x, -y) for x, y in cand}
        else:
            continue
        assert verdict == expected, (rule, cand)
        decided.add((rule, verdict))
    assert decided == rules
    hits = enumerate_balanced(SearchSpec(m, tuple(map(Fraction, coords))))
    assert [cfg for cfg in hits if len(lines_through_the_origin(cfg)) > 1] == balanced
