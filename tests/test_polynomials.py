from fractions import Fraction
from math import inf, lcm, nan, sqrt

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from balcfg import polynomials as ip
from balcfg import sequences

# ascending coefficient tuples: (2, -2, -1, 1) is t^3 - t^2 - 2t + 2
CUBIC_MIXED = (2, -2, -1, 1)


def test_trim_and_degree():
    assert ip.trim([1, 2, 0, 0]) == (1, 2)
    assert ip.trim([0, 0]) == ()
    assert ip.degree(()) == -1
    assert ip.degree((5,)) == 0
    assert ip.degree((0, 0, 3)) == 2


def test_arithmetic_frozen():
    assert ip.add((1, 2), (3, -2)) == (4,)
    assert ip.sub((1, 2), (1, 2)) == ()
    assert ip.neg((1, -2)) == (-1, 2)
    assert ip.shift_up((1, 2)) == (0, 1, 2)


def test_eval_modes():
    p = (-1, 0, 1)  # t^2 - 1
    assert ip.eval_at(p, 2.0) == 3.0
    assert ip.eval_at(p, Fraction(1, 2)) == Fraction(-3, 4)
    assert isinstance(ip.eval_at(p, Fraction(1, 2)), Fraction)


def test_parity_predicates():
    assert ip.is_even_poly((-1, 0, 1))
    assert not ip.is_odd_poly((-1, 0, 1))
    assert ip.is_odd_poly((0, -2, 0, 1))
    assert ip.is_even_poly(())  # zero polynomial is both
    assert ip.is_odd_poly(())


def test_sign_at_is_exact_at_roots():
    p = (-1, 0, 1)
    assert ip.sign_at(p, Fraction(1)) == 0
    assert ip.sign_at(p, Fraction(1, 2)) == -1
    assert ip.sign_at(p, Fraction(3, 2)) == 1


@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=8),
    st.fractions(min_value=Fraction(-10), max_value=Fraction(10), max_denominator=32),
)
def test_sign_at_matches_exact_evaluation(coeffs, x):
    p = ip.trim(coeffs)
    if not p:
        return
    value = ip.eval_at(p, x)
    assert ip.sign_at(p, x) == (0 if value == 0 else (1 if value > 0 else -1))


def test_root_bound_is_a_power_of_two_bound():
    b = ip.root_bound((2, -2, -1, 1))
    assert b & (b - 1) == 0
    # no sign change outside [-b, b]
    assert ip.sign_at((2, -2, -1, 1), Fraction(b)) == ip.sign_at(
        (2, -2, -1, 1), Fraction(4 * b)
    )


def test_descartes_count_isolates():
    p = (-1, 0, 1)
    assert ip.descartes_count(p, Fraction(0), Fraction(2)) == 1
    assert ip.descartes_count(p, Fraction(-2), Fraction(0)) == 1
    assert ip.descartes_count(p, Fraction(2), Fraction(4)) == 0


def _from_roots(roots):
    # integer polynomial prod (den * t - num) over the rational roots
    p = (1,)
    for r in roots:
        scaled = ip.shift_up(tuple(r.denominator * a for a in p))
        p = ip.sub(scaled, tuple(r.numerator * a for a in p))
    return p


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return ip.trim(out)


RATIONALS = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=12)


def _dyadic(x):
    return x.denominator & (x.denominator - 1) == 0


@given(
    st.lists(RATIONALS, min_size=1, max_size=6, unique=True),
    RATIONALS,
    st.fractions(min_value=Fraction(1, 12), max_value=Fraction(6), max_denominator=12),
)
def test_descartes_count_is_exact_when_zero_or_one(roots, a, width):
    b = a + width
    assume(not _dyadic(a) and not _dyadic(b))
    inside = sum(1 for r in roots if a < r < b)
    count = ip.descartes_count(_from_roots(roots), a, b)
    assert count >= inside and (count - inside) % 2 == 0
    if count <= 1:
        assert count == inside


def test_primitive_gcd_removes_content_and_sign():
    # 6(t - 1)(t + 2) and -4(t - 1)(t - 3) share t - 1
    assert ip.primitive_gcd((-12, 6, 6), (-12, 16, -4)) == (-1, 1)
    assert ip.primitive_gcd((0, -6), ()) == (0, 1)
    assert ip.primitive_gcd((), ()) == ()
    assert ip.primitive_gcd((-1, 0, 1), (1, 0, 1)) == (1,)


def test_certified_roots_quadratic():
    width = Fraction(1, 10**12)
    roots = ip.certified_roots((-1, 0, 1), width)
    assert len(roots) == 2
    for (lo, hi), expect in zip(roots, (-1, 1)):
        assert hi - lo <= width
        assert lo <= expect <= hi


def test_certified_roots_with_exact_dyadic_root():
    # (t - 1)(t^2 - 2): the rational root must not break bisection
    width = Fraction(1, 10**12)
    roots = ip.certified_roots(CUBIC_MIXED, width)
    assert len(roots) == 3
    mids = [float((lo + hi) / 2) for lo, hi in roots]
    assert abs(mids[0] + 2 ** 0.5) < 1e-12
    assert mids[1] == 1.0
    assert roots[1][0] == roots[1][1] == 1  # exact hit, zero width
    assert abs(mids[2] - 2 ** 0.5) < 1e-12


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5, unique=True))
def test_certified_roots_recover_integer_roots(int_roots):
    p = (1,)
    for r in int_roots:
        # multiply by (t - r)
        p = ip.add(ip.shift_up(p), ip.neg(tuple(r * a for a in p)))
    width = Fraction(1, 10**9)
    found = ip.certified_roots(p, width)
    assert len(found) == len(int_roots)
    for (lo, hi), expect in zip(found, sorted(int_roots)):
        assert lo <= expect <= hi


def test_certified_roots_none_for_positive_definite():
    assert ip.certified_roots((1, 0, 1), Fraction(1, 1000)) == []


def test_certified_roots_degenerate_inputs():
    # constants (and the zero polynomial) have no isolatable roots
    assert ip.certified_roots((), Fraction(1, 2)) == []
    assert ip.certified_roots((7,), Fraction(1, 2)) == []


@pytest.mark.parametrize("p", [(), (7,), (1, 0, 1), (-1, 0, 1), CUBIC_MIXED])
@pytest.mark.parametrize("width", [Fraction(0), Fraction(-1, 2)])
def test_certified_roots_rejects_a_width_that_is_not_positive(p, width):
    # on entry, so a root-free input cannot return [] for a width of 0
    with pytest.raises(ValueError, match="width must be positive"):
        ip.certified_roots(p, width)


@pytest.mark.parametrize("p", [(), (7,), (-1, 0, 1)])
@pytest.mark.parametrize("width", [Fraction(0), Fraction(-1, 2)])
def test_certify_cells_rejects_a_width_that_is_not_positive(p, width):
    with pytest.raises(ValueError, match="width must be positive"):
        ip.certify_cells(p, [-1.0, 1.0], width)


def test_certified_roots_gives_up_on_a_double_root():
    # (3t - 1)^2: no dyadic midpoint hits 1/3 and every interval around it
    # counts 2, so bisection runs past MAX_ISOLATION_DEPTH
    with pytest.raises(ArithmeticError, match="did not terminate"):
        ip.certified_roots((1, -6, 9), Fraction(1, 10**12))


def _reference_shift(c, a):
    # p(x) -> p(x + a), synthetic Horner scheme, on a copy
    c = list(c)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += a * c[j + 1]
    return c


def _reference_unit_count(q):
    """The former Descartes count on (0, 1): the sign variations of
    (1 + y)^d q(1 / (1 + y)), one Taylor shift per call."""
    signs = [c > 0 for c in _reference_shift(q[::-1], 1) if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _reference_certified_roots(p, width):
    """The former isolator, kept as the oracle for the Bernstein one: each
    node carries q, p mapped onto (0, 1), its halves are q(y/2) * 2^d and
    that shifted by one, and a midpoint root is divided out of both."""
    p = ip.trim(p)
    if len(p) <= 1:
        return []
    bound = Fraction(ip.root_bound(p))
    results = []
    stack = [(p, ip._onto_unit(p, -bound, bound), -bound, bound, 0)]
    while stack:
        poly, q, lo, hi, depth = stack.pop()
        if depth > ip.MAX_ISOLATION_DEPTH:
            raise ArithmeticError("root isolation did not terminate; input not square-free?")
        count = _reference_unit_count(q)
        if count == 0:
            continue
        if count == 1:
            results.append(ip.refine_root(poly, lo, hi, width))
            continue
        mid = (lo + hi) / 2
        left = [c << (len(q) - 1 - i) for i, c in enumerate(q)]
        right = _reference_shift(left, 1)
        if right[0] == 0:
            results.append((mid, mid))
            poly = ip._deflate(poly, mid)
            right = right[1:]
            left = _reference_shift(right, -1)
        stack.append((poly, left, lo, mid, depth + 1))
        stack.append((poly, right, mid, hi, depth + 1))
    results.sort(key=lambda iv: iv[0])
    return results


def _outcome(isolate, p, width):
    # the intervals, or the error's type and message
    try:
        return isolate(p, width)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


# roots that bisection from a power-of-two bound meets as a midpoint
DYADIC_MIDPOINTS = st.sampled_from(
    [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(-3, 2), Fraction(2)]
)
IRREDUCIBLE = st.sampled_from([(1,), (-2, 0, 1), (-3, 0, 1), (-1, -1, 1), (1, -5, 2), (1, 0, 1)])


@given(
    st.lists(st.one_of(RATIONALS, DYADIC_MIDPOINTS), min_size=0, max_size=6),
    IRREDUCIBLE,
    st.sampled_from([Fraction(1, 3), Fraction(1, 2**20), Fraction(1, 10**12)]),
)
def test_certified_roots_match_the_shift_isolator(roots, quadratic, width):
    # repeated entries make the input non-square-free: the isolator gives
    # up, peels a repeated dyadic root, or isolates the rest, and the two
    # routes must agree on every outcome
    p = _times(_from_roots(roots), quadratic)
    expect = _outcome(_reference_certified_roots, p, width)
    assert _outcome(ip.certified_roots, p, width) == expect


@given(
    st.lists(st.one_of(RATIONALS, DYADIC_MIDPOINTS), min_size=1, max_size=7),
    IRREDUCIBLE,
    RATIONALS,
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(12), max_denominator=100),
)
def test_descartes_count_matches_the_shift_count(roots, quadratic, a, width):
    # every count, not only 0 and 1, on intervals with any endpoints
    p = _times(_from_roots(roots), quadratic)
    b = a + width
    assert ip.descartes_count(p, a, b) == _reference_unit_count(ip._onto_unit(p, a, b))


def _closure_polynomial(n):
    wn = sequences.symbolic_sequences(n)[1][n]
    return ip.primitive_gcd(wn.y, ip.sub(wn.x, (1,)))


@pytest.mark.parametrize("n, peeled", [(24, 0), (61, 1)])
def test_isolation_shifts_only_at_the_root(monkeypatch, n, peeled):
    # the Taylor shifts are the root's conversion to Bernstein form, not one
    # or two per bisection node; n = 61 (m = 123 = 3 * 41) also peels t = -1
    # at a bisection midpoint
    calls = {"_shift": 0, "_deflate": 0}
    for name in calls:
        def counted(*args, name=name, original=getattr(ip, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(ip, name, counted)
    p = _closure_polynomial(n)
    roots = ip.certified_roots(p, Fraction(1, 10**12))
    assert calls == {"_shift": 2, "_deflate": peeled}
    assert len(roots) == ip.degree(p)
    assert ((Fraction(-1), Fraction(-1)) in roots) == bool(peeled)


def _fraction_bisection(p, lo, hi, width):
    """Bisection on Fraction endpoints: the plainest statement of the cell
    refine_root returns."""
    s_lo = ip.sign_at(p, lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        s_mid = ip.sign_at(p, mid)
        if s_mid == 0:
            return mid, mid
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


@given(
    st.lists(RATIONALS, min_size=1, max_size=5, unique=True),
    st.sampled_from([0, 2, 3]),
    st.sampled_from([Fraction(1, 3), Fraction(1, 2**20), Fraction(1, 10**9)]),
)
def test_refine_root_matches_the_fraction_bisection(roots, irrational, width):
    # rational roots (dyadic ones are hit exactly) and, for 2 and 3, the
    # irrational pair +-sqrt(k)
    p = _from_roots(roots)
    if irrational:
        p = ip.sub(ip.shift_up(ip.shift_up(p)), tuple(irrational * a for a in p))
    for lo, hi in ip.certified_roots(p, Fraction(1, 2)):
        # an endpoint can be a root certified_roots divided out before
        if lo != hi and ip.sign_at(p, lo) and ip.sign_at(p, hi):
            assert ip.refine_root(p, lo, hi, width) == _fraction_bisection(p, lo, hi, width)


def test_refine_root_rejects_a_width_that_is_not_positive():
    with pytest.raises(ValueError):
        ip.refine_root((-2, 0, 1), Fraction(1), Fraction(2), Fraction(0))


def test_refine_root_rejects_an_inverted_interval():
    with pytest.raises(ValueError):
        ip.refine_root((-2, 0, 1), Fraction(2), Fraction(1), Fraction(1, 10**6))


def _reference_refine(p, lo, hi, width):
    """The former bisection refine_root (integer endpoints over one
    power-of-two denominator, one halving per step), kept as the oracle for
    the secant refinement."""
    if lo == hi:
        return lo, hi
    rev = ip.trim(p)[::-1]
    den = lcm(lo.denominator, hi.denominator)
    a, b = int(lo * den), int(hi * den)

    def sign(num, d):
        acc, power = rev[0], 1
        for c in rev[1:]:
            power *= d
            acc = acc * num + c * power
        return (acc > 0) - (acc < 0)

    s_lo = sign(a, den)
    ratio = (hi - lo) / width
    steps = ((ratio.numerator - 1) // ratio.denominator).bit_length()
    for e in range(1, steps + 1):
        mid = a + b
        s_mid = sign(mid, den << e)
        if s_mid == 0:
            return Fraction(mid, den << e), Fraction(mid, den << e)
        if s_mid == s_lo:
            a, b = mid, b << 1
        else:
            a, b = a << 1, mid
    return Fraction(a, den << steps), Fraction(b, den << steps)


def _halvings(lo, hi, width):
    # the bisection's step count: the least s with (hi - lo) / 2^s <= width
    steps = 0
    while (hi - lo) / 2**steps > width:
        steps += 1
    return steps


def _counted_refine(p, lo, hi, width):
    """refine_root's result and the number of polynomial evaluations it
    made, counted on the Horner helper."""
    evaluations = 0
    horner = ip._scaled_value

    def counted(*args):
        nonlocal evaluations
        evaluations += 1
        return horner(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ip, "_scaled_value", counted)
        result = ip.refine_root(p, lo, hi, width)
    return result, evaluations


def _closure_intervals(n_max):
    """Every (polynomial, lo, hi, width) that certified_roots hands to
    refine_root on the closure polynomials W_n, n = 1..n_max. The tree runs
    on them directly: closure_roots reaches it only when certify_cells
    fails."""
    seen = []
    refine = ip.refine_root

    def record(p, lo, hi, width):
        seen.append((tuple(p), lo, hi, width))
        return refine(p, lo, hi, width)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ip, "refine_root", record)
        for n in range(1, n_max + 1):
            ip.certified_roots(_closure_polynomial(n), sequences.ROOT_WIDTH)
    assert seen
    return tuple(seen)


def test_refine_root_matches_the_bisection_on_every_closure_interval():
    for p, lo, hi, width in _closure_intervals(40):
        result, evaluations = _counted_refine(p, lo, hi, width)
        assert result == _reference_refine(p, lo, hi, width)
        assert evaluations <= 2 * _halvings(lo, hi, width) + 2


def test_refine_root_needs_half_the_evaluations_of_bisection():
    intervals = _closure_intervals(24)
    secant = sum(_counted_refine(*iv)[1] for iv in intervals)
    # bisection evaluates both endpoints and one midpoint per halving
    bisection = sum(_halvings(lo, hi, width) + 2 for _, lo, hi, width in intervals)
    assert secant <= bisection / 2


@pytest.mark.parametrize("degree", [5, 11, 25, 51])
def test_refine_root_bisects_where_the_secant_stalls(degree):
    # t^d + t - 1 is flat left of its root and steep right of it, so from a
    # wide bracket regula falsi creeps in from one side; the bisection steps
    # keep the count within 2 * halvings + 2
    p = (-1, 1) + (0,) * (degree - 2) + (1,)
    width = Fraction(1, 10**12)
    for lo, hi in ((Fraction(0), Fraction(2)), (Fraction(-1, 3), Fraction(5))):
        result, evaluations = _counted_refine(p, lo, hi, width)
        assert result == _reference_refine(p, lo, hi, width)
        assert evaluations <= 2 * _halvings(lo, hi, width) + 2


def test_refine_root_lands_on_a_grid_root_exactly():
    # (8t - 3)(4t - 5)(t^2 - 2): 3/8 is a point of the dyadic grid over
    # [0, 1], and 5/4 one of the grid over [1, 4/3], so both refinements
    # stop there, zero-width
    p = _times(_from_roots([Fraction(3, 8), Fraction(5, 4)]), (-2, 0, 1))
    for lo, hi, root in ((Fraction(0), Fraction(1), Fraction(3, 8)),
                         (Fraction(1), Fraction(4, 3), Fraction(5, 4))):
        assert ip.descartes_count(p, lo, hi) == 1
        assert ip.refine_root(p, lo, hi, Fraction(1, 10**12)) == (root, root)
        assert _reference_refine(p, lo, hi, Fraction(1, 10**12)) == (root, root)


WIDTHS = st.sampled_from([Fraction(1, 2**40), Fraction(1, 10**12), Fraction(1, 7**9)])
# non-dyadic margins: denominators 3, 5, 7, ... times a power of two
MARGINS = st.builds(
    lambda k, odd, e: Fraction(k, odd << e),
    st.integers(1, 40), st.sampled_from([3, 5, 7, 9, 11, 15]), st.integers(0, 12),
)


@given(
    st.lists(RATIONALS, min_size=0, max_size=4, unique=True),
    st.sampled_from([(-2, 0, 1), (-3, 0, 1), (-1, -1, 1), (1, -5, 2)]),
    WIDTHS,
    MARGINS,
    MARGINS,
    st.integers(0, 8),
)
def test_refine_root_matches_the_bisection_on_square_free_polynomials(
    roots, quadratic, width, left, right, level
):
    # a product of (q t - p) factors with an irreducible quadratic; every
    # root's isolating interval, as certified_roots leaves it (dyadic
    # endpoints, so dyadic roots are hit exactly) and widened by non-dyadic
    # margins, plus, per rational root, an interval with non-dyadic endpoints
    # whose level-`level` grid holds that root
    p = _times(_from_roots(roots), quadratic)
    candidates = []
    for lo, hi in ip.certified_roots(p, Fraction(1, 2)):
        if lo != hi:
            candidates += [(lo, hi), (lo - left, hi + right)]
    for r in roots:
        span = left + right
        offset = span * Fraction(1 + 2 * (left.numerator % (1 << level)), 2 << level)
        candidates.append((r - offset, r - offset + span))
    for lo, hi in candidates:
        if ip.sign_at(p, lo) and ip.sign_at(p, hi) and ip.descartes_count(p, lo, hi) == 1:
            result, evaluations = _counted_refine(p, lo, hi, width)
            assert result == _reference_refine(p, lo, hi, width)
            assert evaluations <= 2 * _halvings(lo, hi, width) + 2


def _closure_case(n):
    # W_n, the closed-form guesses for its roots and the level-L cell width
    p = _closure_polynomial(n)
    bound = ip.root_bound(p)
    cell = Fraction(2 * bound)
    while cell > sequences.ROOT_WIDTH:
        cell /= 2
    return p, list(sequences.t_grid(2 * n + 1).values), bound, cell


@pytest.mark.parametrize("n", list(range(1, 101)) + [200])
def test_certify_cells_equals_the_tree_on_the_closure_polynomials(n):
    # m = 2n + 1; when 3 | m the root t = -1 is a grid point, zero-width
    p, guesses, _, _ = _closure_case(n)
    cells = ip.certify_cells(p, guesses, sequences.ROOT_WIDTH)
    assert cells is not None
    assert cells == ip.certified_roots(p, sequences.ROOT_WIDTH)
    assert ((Fraction(-1), Fraction(-1)) in cells) == ((2 * n + 1) % 3 == 0)


def _changed(guesses, i, value):
    return guesses[:i] + [value] + guesses[i + 1:]


def test_certify_cells_returns_none_when_the_guesses_prove_nothing():
    p, guesses, bound, cell = _closure_case(24)
    width = sequences.ROOT_WIDTH
    assert ip.certify_cells(p, guesses, width) is not None
    shifted = [[g + k * float(cell) for g in guesses] for k in (-5, -2, 2, 3, 1000)]
    bad = [
        guesses[:-1],                          # too few
        guesses + [1.999],                     # too many
        guesses[::-1],                         # out of order
        _changed(guesses, 1, guesses[0]),      # two guesses in one cell
        *shifted,                              # two or more cells off
        _changed(guesses, 3, nan),
        _changed(guesses, 3, inf),
        _changed(guesses, 0, -inf),
        _changed(guesses, 0, -float(bound)),   # outside (-B, B)
        _changed(guesses, 23, float(bound)),
        _changed(guesses, 23, 2.0 * bound),
    ]
    for wrong in bad:
        assert ip.certify_cells(p, wrong, width) is None


def test_certify_cells_returns_none_for_two_roots_in_one_cell():
    # 3/10 and 3/10 + 10^-14 share a cell of width <= 10^-12, where the
    # tree bisects further and returns two narrower intervals
    roots = [Fraction(3, 10), Fraction(3, 10) + Fraction(1, 10**14)]
    p = _from_roots(roots)
    width = Fraction(1, 10**12)
    assert len(ip.certified_roots(p, width)) == 2
    assert ip.certify_cells(p, [float(r) for r in roots], width) is None


def test_certify_cells_on_constants():
    assert ip.certify_cells((7,), [], Fraction(1, 2)) == ip.certified_roots((7,), Fraction(1, 2)) == []
    assert ip.certify_cells((), [], Fraction(1, 2)) is None


DISTINCT_INTEGER_AND_DYADIC_ROOTS = st.lists(
    st.one_of(
        st.integers(-6, 6).map(Fraction),
        st.builds(lambda k, e: Fraction(k, 2**e), st.integers(-300, 300), st.integers(1, 8)),
    ),
    min_size=0,
    max_size=6,
    unique=True,
)


@given(
    DISTINCT_INTEGER_AND_DYADIC_ROOTS,
    st.sampled_from([0, 2, 3, 5]),
    st.lists(st.floats(-3.0, 3.0), min_size=8, max_size=8),
    st.sampled_from([Fraction(1, 3), Fraction(1, 2**20), Fraction(1, 10**12)]),
    st.sampled_from([0.0, 1e-13, 1e-9, 1e-3, 0.5]),
)
def test_certify_cells_is_the_tree_or_none(roots, square, noise, width, scale):
    # the distinct rational roots, times t^2 - square for the irrational
    # pair +-sqrt(square) that no grid point hits; the guesses are the
    # roots moved by up to 3 * scale, sorted: the certificate either proves
    # certified_roots' very intervals or gives up
    p = _from_roots(roots)
    exact = [float(r) for r in roots]
    if square:
        p = ip.sub(ip.shift_up(ip.shift_up(p)), tuple(square * a for a in p))
        exact += [-sqrt(square), sqrt(square)]
    guesses = sorted(g + scale * e for g, e in zip(exact, noise))
    cells = ip.certify_cells(p, guesses, width)
    assert cells is None or cells == ip.certified_roots(p, width)
    if scale == 0.0 and width == Fraction(1, 10**12):
        # guesses within a float rounding of roots at least 2^-8 apart
        # always succeed
        assert cells == ip.certified_roots(p, width)
