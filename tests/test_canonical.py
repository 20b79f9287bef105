import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from balcfg import balance
from balcfg.balance import _map_onto_roots, canonicalize, is_balanced, is_uniform
from balcfg.errors import (
    CertificateError,
    DuplicateArgument,
    NotBalanced,
    NotUniform,
    SingularFrame,
)
from balcfg.geometry import (
    Configuration,
    LinearMap2,
    PlaneVector,
    det2,
    frame_map,
    label_by_increasing_arguments,
    roots_of_unity,
)
from balcfg.search import perturb, random_invertible
from balcfg.sequences import closed_form_t
from balcfg.serialization import load_config
from paper_lemmas import (
    NoGridMatch,
    gl2_equivalent,
    match_grid_index,
    reconstruct_from_triple,
    slot_exponents,
)
from test_exact_audit import (
    ILL_CONDITIONED_CASES,
    antipodal_family,
    ill_conditioned_family,
    image_family,
    item13_triples,
    near_tolerance_family,
    scaled_family,
)


def test_linear_map_algebra():
    g = LinearMap2(2.0, 1.0, 0.0, 1.0)
    assert g.det() == 2.0
    v = PlaneVector(1.0, 1.0)
    assert tuple(g.apply(v)) == (3.0, 1.0)
    round_trip = g.inverse().compose(g)
    assert tuple(round_trip.apply(v)) == (1.0, 1.0)
    assert g.compose(LinearMap2(1.0, 0.0, 0.0, 1.0)).rows() == g.rows()


def test_inverse_rejects_singular():
    with pytest.raises(SingularFrame):
        LinearMap2(1.0, 2.0, 2.0, 4.0).inverse()


def test_frame_map_frozen_example():
    g = frame_map(PlaneVector(1.0, 0.0), PlaneVector(-0.5, 0.8660254))
    (a, b), (c, d) = g.rows()
    assert abs(a - 1.0) < 1e-7
    assert abs(b - 0.5773503) < 1e-7
    assert abs(c) < 1e-7
    assert abs(d - 1.1547005) < 1e-7
    # by construction the frame sends v0 and vn to the unit axes
    assert tuple(g.apply(PlaneVector(1.0, 0.0))) == pytest.approx((1.0, 0.0))
    assert tuple(g.apply(PlaneVector(-0.5, 0.8660254))) == pytest.approx((0.0, 1.0))


HUGE = PlaneVector(1e308, 1.7976931348623157e308)  # its norm overflows


@pytest.mark.parametrize(
    "v0, vn",
    [
        (PlaneVector(1.0, 2.0), PlaneVector(2.0, 4.0)),
        # det = 0 against a limit of FRAME_DET_TOL * 0 * inf = NaN
        (PlaneVector(0.0, 0.0), HUGE),
        (HUGE, PlaneVector(0.0, 0.0)),
    ],
    ids=["parallel", "zero-v0-huge-vn", "huge-v0-zero-vn"],
)
def test_frame_map_rejects_collinear(v0, vn):
    with pytest.raises(SingularFrame):
        frame_map(v0, vn)


def test_match_grid_index_frozen_values():
    assert match_grid_index(-1.618033988749895, 5) == 2
    assert match_grid_index(-1.0, 3) == 1
    # t_1 of m = 5 is a grid value, but not t_n: the general route's k
    assert match_grid_index(0.6180339887498949, 5) == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda bad: frame_map(PlaneVector(bad, 1.0), PlaneVector(0.0, 1.0)),
        lambda bad: frame_map(PlaneVector(1.0, 0.0), PlaneVector(0.0, bad)),
        lambda bad: LinearMap2(1.0, 0.0, 0.0, 1.0).apply(PlaneVector(bad, -1.0)),
        # LinearMap2.apply builds the image as a PlaneVector, which refuses it
        lambda bad: LinearMap2(bad, 0.0, 0.0, 1.0).apply(PlaneVector(1.0, -1.0)),
        lambda bad: reconstruct_from_triple(
            PlaneVector(1.0, 0.0), PlaneVector(0.0, 1.0), PlaneVector(bad, -1.0), 5
        ),
        lambda bad: reconstruct_from_triple(
            PlaneVector(bad, 0.0), PlaneVector(0.0, 1.0), PlaneVector(0.5, -1.0), 5
        ),
    ],
    ids=["frame_map-v0", "frame_map-vn", "apply-vector", "apply-map",
         "reconstruct-vn1", "reconstruct-v0"],
)
def test_frame_steps_refuse_a_vector_that_is_not_finite(call, bad):
    # no frame step can take or make a NaN or infinite vector, so none
    # returns a NaN map or a NaN t: the route reads t_C through apply
    with pytest.raises(ValueError, match=r"^vector \(.*\) is not finite$"):
        call(bad)


@pytest.mark.parametrize(
    "vectors",
    [
        # g = (1e308, -0.81 / 0, 0.59): slot 1's miss overflows to inf
        [(1e-308, 0.0), (2.0, 1.0), (0.0, 1.0), (1e-308, -1.0), (1.0, -1.0)],
        # g = (1e308, 1e308 / 0, 0.59): slot 4's miss is inf - inf = NaN,
        # which max passes over after slot 1's finite 1.5e308
        [(1e-308, 0.0), (1.0, 0.5), (-1.0, 1.0), (1.0, -1.0), (2.0, -1.9)],
    ],
    ids=["inf", "nan"],
)
def test_route_refuses_a_residual_that_is_not_finite(vectors):
    # t_C is finite on both, so only the residual can refuse them, and a
    # NaN residual would pass every "residual > tol" test
    with pytest.raises(ValueError, match=r"^residual of the map \(.*\) is not finite$") as caught:
        _map_onto_roots(Configuration(vectors))
    assert not isinstance(caught.value, CertificateError)


def _slot_exponents_by_slot_halves(m, k):
    # slots 0..n take -2ki, slots n+1..2n take -k(1 + 2i), each mod m
    n = (m - 1) // 2
    return tuple([-2 * k * i % m for i in range(n + 1)] + [-k * (1 + 2 * i) % m for i in range(n)])


@given(st.integers(1, 1000).flatmap(lambda n: st.tuples(st.just(2 * n + 1), st.integers(1, n))))
def test_slot_exponents_are_a_bijection_exactly_when_k_is_prime_to_m(mk):
    m, k = mk
    exponents = slot_exponents(m, k)
    assert exponents == _slot_exponents_by_slot_halves(m, k)
    assert (len(set(exponents)) == m) == (math.gcd(k, m) == 1)
    # the one index that canon's route takes assigns slot j to w^j
    assert slot_exponents(m, (m - 1) // 2) == tuple(range(m))


def test_match_grid_index_finds_every_index_on_a_fine_grid():
    m = 20001
    assert all(match_grid_index(closed_form_t(m, k), m) == k for k in range(1, (m - 1) // 2 + 1))


@pytest.mark.parametrize("m", [3, 5, 7, 51, 201, 4441])
@pytest.mark.parametrize("along", ["e1", "w^n"])
def test_the_residual_measures_t_and_y_at_slot_n_plus_1(m, along):
    # g.v_{n+1} - w^{n+1} = (t_C - t_n) e1 + (y + 1) w^n: moving v_{n+1} of
    # U_m by 1e-4 along e1 moves t_C alone, along w^n moves y alone, and
    # either way the residual is the move
    n = (m - 1) // 2
    theta = 2 * math.pi * n / m
    dx, dy = (1e-4, 0.0) if along == "e1" else (1e-4 * math.cos(theta), 1e-4 * math.sin(theta))
    vecs = list(roots_of_unity(m))
    vecs[n + 1] = (vecs[n + 1].x + dx, vecs[n + 1].y + dy)
    form = _map_onto_roots(Configuration(vecs))
    moved_t = closed_form_t(m, n) + (1e-4 if along == "e1" else 0.0)
    assert form.t == pytest.approx(moved_t, abs=1e-12)
    assert form.residual == pytest.approx(1e-4, rel=1e-9)


def test_match_grid_index_window_shrinks_with_the_grid_gap():
    # at m = 10001 grid neighbours lie 7.9e-7 apart, closer than 2 * GRID_TOL:
    # their midpoint is a grid parameter of neither
    m = 10001
    n = (m - 1) // 2
    midpoint = (closed_form_t(m, n - 1) + closed_form_t(m, n)) / 2
    with pytest.raises(NoGridMatch):
        match_grid_index(midpoint, m)
    assert match_grid_index(closed_form_t(m, n - 1), m) == n - 1


@pytest.mark.parametrize(
    "refuse",
    [
        lambda m: match_grid_index(0.0, m),
        lambda m: reconstruct_from_triple(
            PlaneVector(1.0, 0.0), PlaneVector(0.0, 1.0), PlaneVector(-1.0, -1.0), m
        ),
    ],
    ids=["match_grid_index", "reconstruct_from_triple"],
)
def test_grid_matching_and_reconstruction_refuse_even_m(refuse):
    with pytest.raises(ValueError, match="needs odd m >= 3, got 6$"):
        refuse(6)


def test_reconstruction_recovers_pentagon():
    u5 = roots_of_unity(5)
    rebuilt = reconstruct_from_triple(u5[0], u5[2], u5[3], 5)
    assert rebuilt.m == 5
    for got, want in zip(rebuilt, u5):
        assert math.hypot(got.x - want.x, got.y - want.y) < 1e-12


def test_reconstruction_commutes_with_a_map():
    for m in (3, 5, 7, 11):
        g = random_invertible(seed=m)
        u = g.apply_configuration(roots_of_unity(m))
        n = (m - 1) // 2
        rebuilt = reconstruct_from_triple(u[0], u[n], u[n + 1], m)
        for got, want in zip(rebuilt, u):
            assert math.hypot(got.x - want.x, got.y - want.y) < 1e-9


def test_reconstruction_rejects_collinear_anchor():
    with pytest.raises(SingularFrame):
        reconstruct_from_triple(
            PlaneVector(1.0, 0.0), PlaneVector(2.0, 0.0), PlaneVector(0.0, 1.0), 5
        )


def test_reconstruction_detects_degenerate_walk():
    # this triple forces slot 1 to the zero vector
    with pytest.raises(ValueError, match="zero vector at slot 1"):
        reconstruct_from_triple(PlaneVector(1, 0), PlaneVector(0, 1), PlaneVector(-1, 0), 5)


@pytest.mark.parametrize(
    "triple, m",
    [(((1, 0), (0, 1), (-1, -1)), 3), (((2, 0), (1, 3), (-3, -1)), 5)],
)
def test_reconstruction_keeps_exact_input_beyond_the_float_range(triple, m):
    # no float copy of 10^400 exists, and exact mode never needs one: the
    # rebuilt set is the unscaled one times 10^400
    big = 10**400
    small = reconstruct_from_triple(*(PlaneVector(x, y) for x, y in triple), m)
    rebuilt = reconstruct_from_triple(*(PlaneVector(x * big, y * big) for x, y in triple), m)
    assert rebuilt.mode == "exact"
    assert rebuilt == Configuration([(Fraction(big) * v.x, Fraction(big) * v.y) for v in small])
    if m == 3:
        assert [tuple(v) for v in small] == list(triple)


def _vector_recurrence(v0, vn, vn1, m):
    """The members rebuilt one PlaneVector at a time by z_{j+1} = r z_j -
    z_{j-1}, in label order: the reference of the column recurrence."""
    n = (m - 1) // 2
    r = -(det2(vn, vn1) / det2(v0, vn))
    zs = [v0, vn1]
    for _ in range(2, 2 * n):
        zs.append(PlaneVector(r * zs[-1].x - zs[-2].x, r * zs[-1].y - zs[-2].y))
    return Configuration(zs[0::2] + [vn] + zs[1::2])


def test_reconstruction_equals_the_vector_recurrence():
    # the columns take the same operations in the same order as the vector
    # recurrence, so float and exact triples rebuild to == columns
    for seed in range(60):
        rng = random.Random(seed)
        m = 2 * rng.randint(1, 20) + 1
        n = (m - 1) // 2
        image = random_invertible(seed).apply_configuration(roots_of_unity(m))
        image = perturb(image, rng.choice([0.0, 1e-9, 1e-3]), seed=seed)
        ratios = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)]
        exact = [PlaneVector(x, y) for x, y in zip(ratios[0::2], ratios[1::2])]
        for triple in ((image[0], image[n], image[n + 1]), exact):
            if det2(triple[0], triple[1]) == 0:
                continue
            got, want = reconstruct_from_triple(*triple, m), _vector_recurrence(*triple, m)
            assert (got.xs, got.ys) == (want.xs, want.ys)


def test_reconstruction_refuses_a_recurrence_that_overflows():
    # r = 1e200, so slot 1 = r v_{n+1} - v_0 has x = 1e400, which no float holds
    named = r"^configuration member 1 \(inf, -1e\+200\) is not finite$"
    with pytest.raises(ValueError, match=named):
        reconstruct_from_triple(
            PlaneVector(1.0, 0.0), PlaneVector(0.0, 1.0), PlaneVector(1e200, -1.0), 5
        )


def _largest_miss(form, c):
    """max |g.v_j - w^j| over the slots j of c's argument order, recomputed
    through PlaneVector, math.cos and math.sin."""
    labeled = label_by_increasing_arguments(c)
    misses = []
    for j, v in enumerate(labeled):
        image, theta = form.g.apply(v), 2 * math.pi * j / c.m
        misses.append(math.hypot(image.x - math.cos(theta), image.y - math.sin(theta)))
    return max(misses)


def test_canonicalize_pentagon_is_already_canonical():
    u5 = roots_of_unity(5)
    form = canonicalize(u5)
    assert abs(form.t + 1.6180340) < 1e-6
    assert form.residual <= 1e-8
    assert _largest_miss(form, u5) <= 1e-8
    (a, b), (c, d) = form.g.rows()
    assert abs(a - 1) < 1e-12 and abs(d - 1) < 1e-12
    assert abs(b) < 1e-12 and abs(c) < 1e-12


def test_canonicalize_inverts_a_hidden_map():
    g = random_invertible(seed=42)
    hidden = g.apply_configuration(roots_of_unity(7))
    form = canonicalize(hidden)
    assert form.residual <= 1e-8
    # slot j of the argument order goes to w^j
    assert _largest_miss(form, hidden) <= 1e-8


def test_canonicalize_ignores_input_order_and_scale():
    u7 = roots_of_unity(7)
    scrambled = Configuration([(3.5 * u7[i].x, 3.5 * u7[i].y) for i in (4, 1, 6, 2, 0, 5, 3)])
    form = canonicalize(scrambled)
    base = canonicalize(u7)
    assert abs(form.t - base.t) < 1e-9
    assert form.residual <= 1e-8


def test_canonicalize_refuses_unbalanced():
    with pytest.raises(NotBalanced):
        canonicalize(perturb(roots_of_unity(5), eps=0.05, seed=3))


def test_canonicalize_refuses_even_or_degenerate():
    with pytest.raises(NotUniform):
        canonicalize(Configuration([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]))
    with pytest.raises(ValueError):
        canonicalize(Configuration([(1.0, 0.0)]))


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10**6), st.sampled_from([3, 5, 7, 9, 11]))
def test_canonicalize_round_trip_property(seed, m):
    g = random_invertible(seed=seed)
    image = g.apply_configuration(roots_of_unity(m))
    form = canonicalize(image)
    assert form.residual <= 1e-8
    assert _largest_miss(form, image) <= 1e-8


def test_gl2_equivalence_verdicts():
    u5 = roots_of_unity(5)
    moved = random_invertible(seed=9).apply_configuration(u5)
    verdict = gl2_equivalent(u5, moved)
    assert verdict
    assert verdict.reason is None

    bent = perturb(u5, eps=0.05, seed=4)
    verdict = gl2_equivalent(u5, bent)
    assert not verdict
    assert verdict.reason == "second: NotBalanced"

    assert not gl2_equivalent(u5, roots_of_unity(7)).equivalent


@pytest.mark.parametrize(
    "c, reason",
    [
        (Configuration([(1, 0), (0, 1), (-1, 0), (0, -1)]), "NotUniform"),
        (
            perturb(random_invertible(seed=9).apply_configuration(roots_of_unity(5)), 0.05, 4),
            "NotBalanced",
        ),
    ],
    ids=["square", "perturbed-u5-image"],
)
def test_gl2_equivalent_raises_when_neither_input_canonicalizes(c, reason):
    # the identity maps c onto itself, so "not equivalent" would be a lie; two
    # refusals prove nothing about each other, so no verdict comes back
    both = f"first: {reason}, second: {reason}"
    with pytest.raises(ValueError, match=rf"^equivalence undecided, neither canonicalizes \({both}\)$"):
        gl2_equivalent(c, c)


def test_gl2_equivalent_refuses_arguments_below_float_precision():
    # a GL2 image of U_5 whose arguments collapse under ARGUMENT_TIE_TOL
    squeezed = LinearMap2(1.0, 0.0, 0.0, 1e-13).apply_configuration(roots_of_unity(5))
    with pytest.raises(DuplicateArgument):
        gl2_equivalent(roots_of_unity(5), squeezed)


def _rounded(c, den):
    """The members of c with every coordinate rounded to a multiple of 1/den."""
    return [(Fraction(round(v.x * den), den), Fraction(round(v.y * den), den)) for v in c]


_SMALL = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))
_VECTOR = st.tuples(_SMALL, _SMALL).filter(lambda v: v != (0, 0))


@st.composite
def _exact_inputs(draw):
    kind = draw(st.sampled_from(["image", "triple", "symmetric"]))
    if kind == "image":
        # a rational rounding of a GL2 image of U_m, odd m <= 15
        m = draw(st.sampled_from(range(3, 16, 2)))
        g = random_invertible(draw(st.integers(0, 10**6)))
        den = draw(st.sampled_from([1, 2, 3, 10, 10**3, 10**6]))
        vecs = _rounded(g.apply_configuration(roots_of_unity(m)), den)
    elif kind == "triple":
        # three rationals that sum to zero, perhaps with one coordinate moved
        a, b = draw(_VECTOR), draw(_VECTOR)
        vecs = [a, b, (-a[0] - b[0], -a[1] - b[1])]
        if draw(st.booleans()):
            i, j = draw(st.integers(0, 2)), draw(st.integers(0, 1))
            den = draw(st.sampled_from([1, 7, 10**6, 10**15]))
            step = Fraction(draw(st.sampled_from([-1, 1])), den)
            vecs[i] = tuple(x + step if k == j else x for k, x in enumerate(vecs[i]))
    else:
        # {v, -v}: balanced, even m, never uniform
        half = draw(st.lists(_VECTOR, min_size=2, max_size=6))
        vecs = half + [(-x, -y) for x, y in half]
    assume(all(v != (0, 0) for v in vecs))
    return Configuration(vecs)


@settings(deadline=None, max_examples=200)
@given(_exact_inputs())
def test_exact_input_takes_the_exact_verdicts(c):
    # canonicalize certifies exact input exactly when the exact verdicts find
    # it balanced and uniform, and then m = 3 (Niven); otherwise it raises
    # their certificate with their witness, in input units
    report = is_balanced(c)
    uniform, pair = is_uniform(c)
    try:
        form = canonicalize(c)
    except CertificateError as exc:
        assert not (report.balanced and uniform)
        if not report.balanced:
            assert isinstance(exc, NotBalanced) and exc.witness == report.witness
        else:
            assert isinstance(exc, NotUniform) and exc.witness == pair
    else:
        assert report.balanced and uniform and c.m == 3
        assert form.residual <= 1e-8


@st.composite
def _balanced_even(draw):
    """A balanced set of even m >= 4 in a drawn order: {v, -v} for exact v,
    their float copies or float v, where float products round symmetrically;
    or integer multiples of one vector, exact, or float on an axis, where
    every float determinant is exactly 0."""
    kind = draw(st.sampled_from(["exact", "float", "collinear", "axis"]))
    if kind in ("exact", "float"):
        coords = _SMALL if kind == "exact" or draw(st.booleans()) else st.floats(-8.0, 8.0)
        half = draw(st.lists(st.tuples(coords, coords).filter(any), min_size=2, max_size=6))
        vecs = half + [(-x, -y) for x, y in half]
    else:
        x, y = draw(_VECTOR) if kind == "collinear" else draw(st.sampled_from([(1, 0), (0, 1)]))
        ks = draw(st.lists(st.integers(-9, 9).filter(bool), min_size=2, max_size=3))
        vecs = [(k * x, k * y) for k in ks * 2]
    if kind in ("float", "axis"):
        vecs = [(float(x), float(y)) for x, y in vecs]
    return Configuration(draw(st.permutations(vecs)))


@settings(deadline=None, max_examples=200)
@given(_balanced_even())
# 5e-324 / 2 rounds to 0: the copy scaled to max norm 1 would hold (0, 0)
@example(Configuration([(0.0, 2.0), (0.0, 5e-324), (-0.0, -2.0), (-0.0, -5e-324)]))
# 1 / 1e-310 overflows: the copy is scaled up by 2^600 first, exactly
@example(Configuration([(0.0, 1e-310), (0.0, 5e-324), (-0.0, -1e-310), (-0.0, -5e-324)]))
def test_balanced_even_m_is_refused_with_is_uniforms_pair(c):
    # a balanced even-m set has the zero of its odd-sized row 0, so the
    # verdicts canonicalize takes (on c when exact, else on its copy scaled
    # to max norm 1) find a dependent pair, and NotUniform carries it
    work = c
    if c.mode != "exact":
        xs, ys = c.xs, c.ys
        s = 1.0 / max(map(math.hypot, xs, ys))
        if s == math.inf:  # subnormal members: canonicalize scales up by 2^600 first
            xs, ys = [x * 2.0**600 for x in xs], [y * 2.0**600 for y in ys]
            s = 1.0 / max(map(math.hypot, xs, ys))
        xs, ys = [s * x for x in xs], [s * y for y in ys]
        if (0.0, 0.0) in zip(xs, ys):  # a member the rescale flushes: refused before the copy
            i = list(zip(xs, ys)).index((0.0, 0.0))
            with pytest.raises(ValueError, match=f"flushes member {i} "):
                canonicalize(c)
            return
        work = Configuration(xs, ys)
    assert is_balanced(work).balanced
    uniform, pair = is_uniform(work)
    assert not uniform and pair is not None
    with pytest.raises(NotUniform) as refused:
        canonicalize(c)
    assert refused.value.witness == pair


def test_rounded_exact_pentagon_is_not_equivalent():
    rounded = Configuration(_rounded(roots_of_unity(5), 10**12))
    verdict = gl2_equivalent(rounded, roots_of_unity(5))
    assert not verdict
    assert verdict.reason == "first: NotBalanced"


class _Decided(Exception):
    """Raised in place of the verdicts on canonicalize's rescaled copy."""


def test_canons_rescaled_copy_passes_the_constructor_it_skips(monkeypatch):
    # canonicalize builds its copy scaled to max norm 1 untested, after its
    # own test for a flushed member: each copy must be finite and nonzero
    # float pairs that the constructor keeps as they are
    copies = []

    def record(work, tol=None):
        copies.append(work)
        raise _Decided

    monkeypatch.setattr(balance, "require_balanced_uniform", record)
    data = Path(__file__).parent / "data"
    configs = [load_config(path) for path in sorted(data.glob("*.json"))]
    families = [near_tolerance_family(), item13_triples(), antipodal_family()]
    families += [image_family(m) for m in range(3, 42, 2)]
    families += [ill_conditioned_family(m, c) for m, c in ILL_CONDITIONED_CASES]
    families += [scaled_family(k) for k in (-470, -400, -200, 200, 400, 470)]
    configs += [Configuration(vectors) for family in families for vectors in family]
    floats = [c for c in configs if c.mode == "float"]
    for c in floats:
        with pytest.raises(_Decided):
            canonicalize(c)
    assert len(copies) == len(floats) > 2000
    for work in copies:
        assert Configuration(work.xs, work.ys) == work
