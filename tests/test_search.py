import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
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
from balcfg.search import grid_vectors

GRID3 = (Fraction(-1), Fraction(0), Fraction(1))
GRID5 = tuple(Fraction(k, 2) for k in range(-2, 3))
# lines through the origin with three grid points and a nonzero sum, such as
# (-1, -1), (1, 1), (2, 2): balanced only as collinear sets
GRID4 = tuple(map(Fraction, (-1, 0, 1, 2)))


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
        assert (moved - orig).norm() <= 0.05 + 1e-15
    assert any((moved - orig).norm() > 0 for moved, orig in zip(a, u))


def test_grid_vectors_exclude_zero():
    vecs = grid_vectors(GRID3)
    assert len(vecs) == 8
    assert all(not v.is_zero() for v in vecs)
    tuples = [v.as_tuple() for v in vecs]
    assert tuples == sorted(tuples)


def test_spec_normalizes_coordinates():
    spec = SearchSpec(m=3, coordinate_set=(Fraction(1), Fraction(0), Fraction(1)))
    assert spec.coordinate_set == (Fraction(0), Fraction(1))


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
    assert [h.det_table for h in hits] == [e.det_table for e in expected]


def test_budget_guard():
    # the walk visits C(n, m - 1) prefixes of the n grid vectors: C(99, 5)
    # is about 7.2e7
    with pytest.raises(BudgetExceeded, match=r"C\(99, 5\)"):
        enumerate_balanced(SearchSpec(m=6, coordinate_set=tuple(range(10))))


def test_budget_refuses_a_huge_walk_without_counting_it_in_full():
    # C(999999, 500000) has about 300 000 digits; the refusal stops at the
    # first C(n, j) past the budget, so it takes milliseconds
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=r"C\(999999, 500000\) >= "):
        enumerate_balanced(SearchSpec(m=500001, coordinate_set=tuple(range(1000))))
    assert time.perf_counter() - start < 1.0


def test_budget_counts_prefixes_not_coordinate_tuples():
    # 3^16 coordinate tuples, but only C(8, 7) = 8 prefixes: the one hit is
    # every nonzero vector of the grid
    hits = enumerate_balanced(SearchSpec(m=8, coordinate_set=GRID3))
    assert hits == [Configuration(grid_vectors(GRID3))]


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 5])),
        min_size=2,
        max_size=5,
        unique=True,
    ),
    st.integers(1, 4),
    st.booleans(),
)
def test_enumeration_equals_brute_force_on_random_grids(coords, m, require_uniform):
    # the collinear listing and the zero-sum walk together must list exactly
    # the brute-force hits
    hits = enumerate_balanced(SearchSpec(m, tuple(coords), require_uniform))
    expected = brute_force(tuple(sorted(coords)), m, require_uniform)
    assert hits == expected
    assert [h.det_table for h in hits] == [e.det_table for e in expected]
