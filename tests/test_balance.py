import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from balcfg.balance import (
    BalanceReport,
    canonicalize,
    even_m_witness,
    in_safe_range,
    is_balanced,
    is_uniform,
    step_constants,
)
from balcfg.errors import InconsistentConstants, NotBalanced, NotUniform
from balcfg.geometry import Configuration, LinearMap2, det2, roots_of_unity
from balcfg.search import perturb, random_invertible
import exact_oracle
from paper_lemmas import AmbiguousPairing, build_pairing, verify_antisymmetry

SQUARE = Configuration([(1, 0), (0, 1), (-1, 0), (0, -1)])


def _sorted_row(c, i):
    """Row i of c without its diagonal entry, sorted, each entry as det2
    gives it, the value a witness reports."""
    return tuple(sorted(det2(c[i], c[j]) for j in range(c.m) if j != i))


def test_roots_of_unity_are_balanced_and_uniform():
    for m in (3, 5, 7, 9):
        u = roots_of_unity(m)
        report = is_balanced(u)
        assert report.balanced
        assert report.witness is None
        ok, pair = is_uniform(u)
        assert ok and pair is None


def test_balance_rows_are_sign_symmetric():
    c = roots_of_unity(7)
    assert is_balanced(c).balanced
    for i in range(c.m):
        row = _sorted_row(c, i)
        assert len(row) == 6
        for a, b in zip(row, reversed(row)):
            assert math.isclose(a, -b, abs_tol=1e-12)


def test_unbalanced_witness_points_at_an_unmatched_value():
    c = Configuration([(1.0, 0.0), (0.0, 1.0), (-1.0, -0.25)])
    report = is_balanced(c)
    assert not report.balanced
    i, value = report.witness
    row = _sorted_row(c, i)
    assert value in row
    assert min(abs(value + d) for d in row) > 1e-9


def test_square_is_balanced_but_not_uniform():
    report = is_balanced(SQUARE)
    assert report.balanced
    ok, pair = is_uniform(SQUARE)
    assert not ok
    assert pair == (0, 2)
    # opposite members are collinear, so the zero row entry names one
    assert even_m_witness(SQUARE) == 2


def test_even_m_witness_requires_even_size():
    with pytest.raises(ValueError, match="m = 5 is odd"):
        even_m_witness(roots_of_unity(5))


def test_even_m_witness_rejects_a_row_0_without_zero():
    c = Configuration([(1, 0), (0, 1), (1, 1), (1, 2)])
    with pytest.raises(NotBalanced) as caught:
        even_m_witness(c)
    assert caught.value.witness == (0, 1)


@given(st.permutations(list(range(7))))
def test_balance_survives_relabeling(perm):
    u = roots_of_unity(7)
    shuffled = Configuration([u[p] for p in perm])
    assert is_balanced(shuffled).balanced
    ok, _ = is_uniform(shuffled)
    assert ok


exact_entries = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=16
)


@given(exact_entries, exact_entries, exact_entries, exact_entries)
def test_balance_verdict_is_linear_map_invariant(a, b, c, d):
    # det(gv, gw) = det(g) det(v, w), so every row rescales uniformly
    if a * d - b * c == 0:
        return
    g = LinearMap2(a, b, c, d)
    base = Configuration([(1, 0), (0, 1), (-1, -1)])
    assert is_balanced(base).balanced
    assert is_balanced(g.apply_configuration(base)).balanced
    skew = Configuration([(1, 0), (0, 1), (-1, -2)])
    assert not is_balanced(skew).balanced
    assert not is_balanced(g.apply_configuration(skew)).balanced


def test_pairing_frozen_values_m5():
    pairing = build_pairing(roots_of_unity(5))
    assert pairing.phi_of(0, 1) == 3
    # closed form for the regular configuration: (k + l) / 2 mod m
    for pair, i in pairing.phi.items():
        k, l = sorted(pair)
        assert i == (k + l) * 3 % 5  # 3 = 2^(-1) mod 5


def test_pairing_partitions_each_complement():
    for m in (3, 5, 7, 9, 11):
        pairing = build_pairing(roots_of_unity(m))
        assert len(pairing.phi) == m * (m - 1) // 2
        for i, fiber in enumerate(pairing.per_index):
            seen = set()
            for pair in fiber:
                assert i not in pair
                assert not (pair & seen)
                seen |= pair
            assert seen == set(range(m)) - {i}


def test_pairing_rejects_even_and_non_uniform():
    with pytest.raises(ValueError):
        build_pairing(SQUARE)
    # three collinear members: every determinant is zero, so the multisets
    # are trivially symmetric but no pair is independent
    collinear = Configuration([(1, 0), (-1, 0), (2, 0)])
    assert is_balanced(collinear).balanced
    with pytest.raises(NotUniform):
        build_pairing(collinear)


def test_pairing_names_a_pair_two_rows_claim():
    # a float m = 5 set that is balanced and uniform at tol 0.45, where rows
    # 0 and 3 both pair member 2 with member 4
    c = Configuration(
        [
            (1.11927274492244, -0.09693755220174939),
            (0.12864575258786445, 0.7252064687844431),
            (-1.0219684647689085, 0.9187988951729917),
            (-0.7573265257430035, -0.595905989893189),
            (0.5053854004991467, -1.0988691926353142),
        ]
    )
    assert is_balanced(c, tol=0.45).balanced
    assert is_uniform(c, tol=0.45) == (True, None)
    with pytest.raises(AmbiguousPairing) as caught:
        build_pairing(c, tol=0.45)
    assert caught.value.witness == (0, 3, (2, 4))


def test_antisymmetry_on_roots_of_unity():
    for m in (3, 5, 7, 21):
        ok, witness = verify_antisymmetry(roots_of_unity(m), tol=1e-12)
        assert ok and witness is None


def test_antisymmetry_fails_with_witness_after_perturbation():
    bent = perturb(roots_of_unity(7), eps=0.05, seed=1)
    ok, witness = verify_antisymmetry(bent, tol=1e-12)
    assert not ok
    k, a = witness
    assert 0 <= k < 7 and 1 <= a <= 3


def test_antisymmetry_rejects_even_size():
    with pytest.raises(ValueError, match="odd m"):
        verify_antisymmetry(SQUARE)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_in_safe_range_refuses_values_that_are_not_finite(bad):
    assert in_safe_range([1.0, 0.0, -2.0])
    assert not in_safe_range([1.0, bad, 0.5])
    assert not in_safe_range([bad])


def test_step_constants_frozen_m5():
    consts = step_constants(roots_of_unity(5))
    assert math.isclose(consts.A1, math.sin(2 * math.pi / 5), abs_tol=1e-15)
    assert math.isclose(consts.An, math.sin(4 * math.pi / 5), abs_tol=1e-15)


def test_step_constants_inconsistent_after_perturbation():
    bent = perturb(roots_of_unity(7), eps=0.05, seed=2)
    with pytest.raises(InconsistentConstants) as info:
        step_constants(bent, tol=1e-12)
    assert isinstance(info.value.witness, int)


def test_step_constants_reject_even_size():
    with pytest.raises(ValueError):
        step_constants(SQUARE)


float_coords = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
rational_coords = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4
)


def configurations(coords):
    vectors = st.tuples(coords, coords).filter(lambda v: v != (0, 0))
    return st.lists(vectors, min_size=1, max_size=7).map(Configuration)


@given(
    st.one_of(configurations(float_coords), configurations(rational_coords)),
    st.sampled_from([None, 1e-6, 0.5]),
)
def test_verdicts_read_the_pairwise_determinants(c, tol):
    # in both modes every row holds ints, which divided by the one scale
    # are exactly det(v_i, v_j) of the rationals the coordinates hold
    _, _, scale = c._det_coords
    rows = [c.det_row(i) for i in range(c.m)]
    assert {type(e) for row in rows for e in row} == {int}
    table = [[Fraction(e, scale) for e in row] for row in rows]
    exact = exact_oracle.table(c)
    assert table == [[Fraction(e, exact.scale) for e in row] for row in exact.rows]
    assert is_uniform(c, tol) == exact_oracle.is_uniform(c, tol)


# signed zeros and a few small values make exact ties (|lo| == |hi|) and
# zero determinants of either sign; the near values land near a tolerance
tie_coords = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0, 1.0 + 2**-20, -1.0 - 2**-30]
)
# products of these overflow to inf as floats, so a reported det2 can be
# inf or inf - inf = NaN, while the exact table decides
huge_coords = st.sampled_from([1e200, -1e200, 1e160, 1.0, -1.0, 0.0, 1e-200])


@settings(deadline=None)
@given(
    st.one_of(
        configurations(tie_coords),
        configurations(huge_coords),
        configurations(float_coords),
        configurations(rational_coords),
    ),
    st.sampled_from([None, 0.0, 2**-25, 1e-6, 0.5]),
)
def test_row_kernels_match_the_former_loops(c, tol):
    report = is_balanced(c, tol)
    verdict, witness = exact_oracle.is_balanced(c, tol)
    assert report.balanced == verdict
    # repr, so that a witness of -0.0 is not passed by 0.0
    assert repr(report.witness) == repr(witness)
    assert is_uniform(c, tol) == exact_oracle.is_uniform(c, tol)


@st.composite
def moved_negation_closed(draw):
    """v and -v for a drawn list of float vectors, shuffled, then one member
    (the twin of v_0, or another) moved across v_0's line by a drawn factor
    of 1e-9 * det_max / |v_0|, so that row 0's smallest entry lands near
    the default tolerance."""
    vectors = st.tuples(float_coords, float_coords).filter(lambda v: v != (0, 0))
    half = draw(st.lists(vectors, min_size=1, max_size=4))
    members = draw(st.permutations(half + [(-x, -y) for x, y in half]))
    (x0, y0), c = members[0], Configuration(members)
    twins = [j for j in range(1, c.m) if members[j] == (-x0, -y0)]
    k = draw(st.sampled_from(twins + [draw(st.integers(1, c.m - 1))]))
    factor = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.25, 4.0)))
    norm = math.hypot(x0, y0)
    exact = exact_oracle.table(c)
    step = factor * 1e-9 * float(Fraction(exact.det_max, exact.scale)) / norm
    x, y = members[k]
    members[k] = (x - step * y0 / norm, y + step * x0 / norm)
    # a subnormal v_0 can overflow the move; such a member is no input
    assume(all(map(math.isfinite, members[k])))
    return Configuration(members)


def _even(coords):
    return configurations(coords).filter(lambda c: c.m % 2 == 0)


@settings(deadline=None, max_examples=200)
@given(
    st.one_of(
        moved_negation_closed(),
        _even(tie_coords),
        _even(huge_coords),
        _even(float_coords),
        _even(rational_coords),
    ),
    st.sampled_from([None, None, 0.0, 2**-25, 1e-6]),
)
def test_even_m_witness_matches_row_0_of_the_full_table(c, tol):
    assert _outcome(even_m_witness, c, tol) == _outcome(exact_oracle.even_m_witness, c, tol)


def _outcome(verdict, c, tol):
    """What verdict(c, tol) returns, or NotBalanced's witness, as reprs."""
    try:
        return "ok", repr(verdict(c, tol))
    except NotBalanced as exc:
        return "NotBalanced", repr(exc.witness)


@pytest.mark.parametrize("verdict", [is_balanced, verify_antisymmetry])
def test_verdicts_over_every_row_hold_one_row_at_a_time(verdict):
    # both verdicts read all 801 rows of a U_801 image; the whole table of
    # 801^2 floats would take about 20 MiB, one row about 25 KiB
    c = random_invertible(4).apply_configuration(roots_of_unity(801))
    tracemalloc.start()
    try:
        outcome = verdict(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome in (BalanceReport(True, None), (True, None))
    assert peak < 2**20


def test_odd_row_middle_is_compared_with_tol_not_twice_itself():
    # m = 4: rows of odd length 3. Only rows 0 and 2 are asymmetric, each in
    # its middle entry: row 0 sorts to (-1, s, 1) and row 2 to (-1, -s, 1)
    s = 0.25
    c = Configuration([(1.0, 0.0), (0.0, 1.0), (-1.0, s), (0.0, -1.0)])
    assert _sorted_row(c, 0) == (-1.0, s, 1.0)
    # |s| <= tol < |2 s|: the middle pairs with nothing, so it is within tol
    assert is_balanced(c, tol=0.3).balanced
    assert is_balanced(c, tol=s).balanced
    report = is_balanced(c, tol=0.2)
    assert not report.balanced
    assert report.witness == (0, s)
    assert is_balanced(c).witness == (0, s)


@pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
def test_tolerance_that_is_not_finite_and_nonnegative_raises(bad):
    u5 = roots_of_unity(5)
    for verdict in (is_balanced, is_uniform, step_constants):
        with pytest.raises(ValueError, match="tolerance"):
            verdict(u5, bad)
    # exact mode ignores tol, but not one that is malformed
    for verdict in (is_balanced, is_uniform, even_m_witness):
        with pytest.raises(ValueError, match="tolerance"):
            verdict(SQUARE, bad)
    with pytest.raises(ValueError, match="tolerance"):
        canonicalize(u5, bad)
    # zero stays legal; float U_5 misses it by rounding
    assert not is_balanced(u5, 0.0).balanced


@st.composite
def images_and_pairs(draw):
    """A float U_m image (m odd, 3..41) or a {v, -v} set, perturbed by a
    drawn eps in [0, 1e-3], with every coordinate in SAFE_COORDINATE_RANGE."""
    if draw(st.booleans()):
        m = draw(st.integers(1, 20)) * 2 + 1
        c = random_invertible(draw(st.integers(0, 2**16))).apply_configuration(roots_of_unity(m))
    else:
        vectors = st.tuples(float_coords, float_coords).filter(lambda v: v != (0, 0))
        half = draw(st.lists(vectors, min_size=1, max_size=5))
        c = Configuration(half + [(-x, -y) for x, y in half])
    eps = draw(st.one_of(st.just(0.0), st.floats(1e-15, 1e-3)))
    c = perturb(c, eps, seed=draw(st.integers(0, 2**16)))
    assume((0.0, 0.0) not in zip(c.xs, c.ys) and in_safe_range(c.xs + c.ys))
    return c


@settings(deadline=None, max_examples=120)
@given(images_and_pairs(), st.data())
def test_verdicts_survive_the_exact_float_maps(c, data):
    # the swap (x, y) -> (y, x) negates every float det2 exactly, the flip
    # v -> -v keeps it, and a scaling by 2^k that keeps every coordinate in
    # SAFE_COORDINATE_RANGE multiplies it by 4^k, so all three keep the
    # verdicts and the uniform pair, and multiply the balance witness value
    # by -1, 1 and 4^k. A permutation of the members keeps the verdicts.
    balanced, uniform = is_balanced(c), is_uniform(c)
    value = None if balanced.witness is None else balanced.witness[1]
    swap = Configuration(c.ys, c.xs)
    flip = Configuration([-x for x in c.xs], [-y for y in c.ys])
    k = data.draw(st.integers(-400, 400))
    scaled = Configuration([math.ldexp(x, k) for x in c.xs], [math.ldexp(y, k) for y in c.ys])
    assume(in_safe_range(scaled.xs + scaled.ys))
    for image, factor in ((swap, -1), (flip, 1), (scaled, 4.0**k)):
        report = is_balanced(image)
        assert report.balanced == balanced.balanced
        if value is not None:
            assert report.witness == (balanced.witness[0], factor * value)
        assert is_uniform(image) == uniform
    order = data.draw(st.permutations(range(c.m)))
    relabeled = Configuration([c.xs[i] for i in order], [c.ys[i] for i in order])
    assert is_balanced(relabeled).balanced == balanced.balanced
    assert is_uniform(relabeled)[0] == uniform[0]


@st.composite
def exact_sets(draw):
    """An exact zero-sum triple, {v, -v} set, collinear set or random set."""
    vectors = st.tuples(rational_coords, rational_coords).filter(lambda v: v != (0, 0))
    kind = draw(st.sampled_from(["triple", "pairs", "collinear", "random"]))
    if kind == "triple":
        (ax, ay), (bx, by) = draw(vectors), draw(vectors)
        members = [(ax, ay), (bx, by), (-ax - bx, -ay - by)]
    elif kind == "pairs":
        half = draw(st.lists(vectors, min_size=1, max_size=4))
        members = half + [(-x, -y) for x, y in half]
    elif kind == "collinear":
        x, y = draw(vectors)
        scalars = draw(st.lists(rational_coords.filter(bool), min_size=1, max_size=7))
        members = [(s * x, s * y) for s in scalars]
    else:
        members = draw(st.lists(vectors, min_size=1, max_size=7))
    assume((0, 0) not in members)
    return Configuration(members)


@settings(deadline=None, max_examples=150)
@given(exact_sets(), st.tuples(*[rational_coords] * 4))
def test_exact_verdicts_survive_invertible_rational_maps(c, entries):
    # det(G v, G w) = det G det(v, w), so an invertible rational G keeps both
    # verdicts, the witness row and the uniform pair, and multiplies the
    # balance witness value by det G
    g = LinearMap2(*entries)
    assume(g.det() != 0)
    image = g.apply_configuration(c)
    balanced, report = is_balanced(c), is_balanced(image)
    assert report.balanced == balanced.balanced
    if balanced.witness is None:
        assert report.witness is None
    else:
        assert report.witness == (balanced.witness[0], g.det() * balanced.witness[1])
    assert is_uniform(image) == is_uniform(c)
