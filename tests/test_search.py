import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balcfg import (
    BudgetExceeded,
    Configuration,
    SearchSpec,
    enumerate_balanced,
    even_m_witness,
    is_balanced,
    is_uniform,
    perturb,
    random_invertible,
    roots_of_unity,
)
from balcfg import search
from balcfg.geometry import PlaneVector

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
    assert [v.as_tuple() for v in same] == [v.as_tuple() for v in u]


def test_perturb_is_seeded_and_bounded():
    u = roots_of_unity(7)
    a = perturb(u, eps=0.05, seed=6)
    b = perturb(u, eps=0.05, seed=6)
    assert [v.as_tuple() for v in a] == [v.as_tuple() for v in b]
    for moved, orig in zip(a, u):
        assert math.hypot(moved.x - orig.x, moved.y - orig.y) <= 0.05 + 1e-15
    assert any(math.hypot(v.x - w.x, v.y - w.y) > 0 for v, w in zip(a, u))


def test_grid_vectors_exclude_zero():
    vecs = grid_vectors(GRID3)
    assert len(vecs) == 8
    assert all(not (v.x == 0 and v.y == 0) for v in vecs)
    tuples = [v.as_tuple() for v in vecs]
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
def test_enumeration_equals_brute_force_on_random_grids(grid, require_uniform):
    # the collinear listing and the zero-sum join together must list exactly
    # the brute-force hits
    coords, m = grid
    hits = enumerate_balanced(SearchSpec(m, tuple(coords), require_uniform))
    expected = brute_force(tuple(sorted(coords)), m, require_uniform)
    assert hits == expected
    assert list(map(_rows, hits)) == list(map(_rows, expected))


def lines_through_the_origin(cfg):
    """The distinct lines through the origin that hold a member: slope y/x,
    or None for the y-axis."""
    return {None if v.x == 0 else v.y / v.x for v in cfg}


def moments(cfg):
    """(sum of v, third moment (sum x^3, sum x^2 y, sum x y^2, sum y^3))."""
    first = (sum(v.x for v in cfg), sum(v.y for v in cfg))
    third = tuple(sum(v.x ** (3 - k) * v.y**k for v in cfg) for k in range(4))
    return first, third


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


def test_moment_filter_runs_before_is_balanced(monkeypatch):
    # every set that reaches is_balanced sums to zero, is not collinear, and
    # lies on at most 3 lines or has a zero third moment; some zero-sum sets
    # on 4 or more lines are dropped unseen
    seen = []

    def recording(cfg):
        seen.append(cfg)
        return is_balanced(cfg)

    monkeypatch.setattr(search, "is_balanced", recording)
    hits = enumerate_balanced(SearchSpec(4, GRID4))
    assert hits == brute_force(GRID4, 4, False)
    for cfg in seen:
        first, third = moments(cfg)
        on = len(lines_through_the_origin(cfg))
        assert first == (0, 0) and on >= 2
        assert on <= 3 or third == (0, 0, 0, 0)
    zero_sum = [
        cand
        for cand in itertools.combinations(grid_vectors(GRID4), 4)
        if moments(cand)[0] == (0, 0) and len(lines_through_the_origin(cand)) >= 2
    ]
    assert len(seen) < len(zero_sum)
