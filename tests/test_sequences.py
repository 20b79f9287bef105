import math
from fractions import Fraction

import pytest

from balcfg.geometry import Configuration, frame_map, roots_of_unity
from balcfg.sequences import (
    RootGrid,
    certify_cells,
    chebyshev_s,
    closed_form_t,
    closure_roots,
    model_configuration,
    t_grid,
    trim,
)
from paper_lemmas import (
    ParityVerdict,
    PolyPair,
    check_parity_degrees,
    numeric_sequences,
    shift_up,
    symbolic_sequences,
)
from polynomial_oracles import add, degree, eval_at, neg, primitive_gcd, sub

# hand-expanded low-order terms, ascending coefficients
U1 = PolyPair(x=(-1, 0, 1), y=(0, -1))            # (t^2 - 1, -t)
W1 = PolyPair(x=(0, -2, 0, 1), y=(1, 0, -1))      # (t^3 - 2t, 1 - t^2)
W2 = PolyPair(x=(0, 3, 0, -4, 0, 1), y=(-1, 0, 3, 0, -1))


def _reference_symbolic_sequences(n):
    # the vector recurrence u_{i+1} = t w_i - u_i, w_{i+1} = t u_{i+1} - w_i
    us = [PolyPair(x=(1,), y=())]
    ws = [PolyPair(x=(0, 1), y=(-1,))]
    for _ in range(n):
        u, w = us[-1], ws[-1]
        ux = sub(shift_up(w.x), u.x)
        uy = sub(shift_up(w.y), u.y)
        wx = sub(shift_up(ux), w.x)
        wy = sub(shift_up(uy), w.y)
        us.append(PolyPair(x=ux, y=uy))
        ws.append(PolyPair(x=wx, y=wy))
    return us, ws


def test_symbolic_sequences_equal_the_vector_recurrence():
    reference = _reference_symbolic_sequences(60)
    for n in range(1, 61):
        us, ws = symbolic_sequences(n)
        assert us == reference[0][: n + 1]
        assert ws == reference[1][: n + 1]


def test_symbolic_frozen_low_orders():
    us, ws = symbolic_sequences(2)
    assert us[0] == PolyPair(x=(1,), y=())
    assert ws[0] == PolyPair(x=(0, 1), y=(-1,))
    assert us[1] == U1
    assert ws[1] == W1
    assert ws[2] == W2


def test_recurrence_sign_is_forced():
    # flipping the w step to use the previous u collapses w_1 to (0, 1),
    # whose x part is the zero polynomial instead of odd degree 3
    u0 = PolyPair(x=(1,), y=())
    w0 = PolyPair(x=(0, 1), y=(-1,))
    w1_variant = PolyPair(
        x=sub(shift_up(u0.x), w0.x),
        y=sub(shift_up(u0.y), w0.y),
    )
    assert w1_variant == PolyPair(x=(), y=(1,))
    assert degree(w1_variant.x) < 3
    verdict = check_parity_degrees([u0, U1], [w0, w1_variant])
    assert not verdict
    assert (verdict.index, verdict.which) == (1, "w.x")


def test_numeric_matches_symbolic_evaluation():
    us_s, ws_s = symbolic_sequences(3)
    for t in (0.7, -1.2):
        us_n, ws_n = numeric_sequences(t, 3)
        for i in range(4):
            assert math.isclose(us_n[i].x, eval_at(us_s[i].x, t), abs_tol=1e-12)
            assert math.isclose(us_n[i].y, eval_at(us_s[i].y, t), abs_tol=1e-12)
            assert math.isclose(ws_n[i].x, eval_at(ws_s[i].x, t), abs_tol=1e-12)
            assert math.isclose(ws_n[i].y, eval_at(ws_s[i].y, t), abs_tol=1e-12)


def test_numeric_sequences_exact_mode():
    us, ws = numeric_sequences(Fraction(1, 2), 2)
    assert tuple(us[1]) == (Fraction(-3, 4), Fraction(-1, 2))
    assert ws[1].mode == "exact"


def test_parity_degrees_hold_through_order_ten():
    us, ws = symbolic_sequences(10)
    assert check_parity_degrees(us, ws)


@pytest.mark.parametrize("which", ["u.x", "u.y", "w.x", "w.y"])
def test_parity_check_names_a_corrupted_polynomial(which):
    # one more leading coefficient breaks both the parity and the degree
    us, ws = symbolic_sequences(3)
    seq = list(us if which[0] == "u" else ws)
    axis = which[2]
    seq[2] = seq[2]._replace(**{axis: (*getattr(seq[2], axis), 1)})
    bent = (seq, ws) if which[0] == "u" else (us, seq)
    assert check_parity_degrees(*bent) == ParityVerdict(False, 2, which)


def test_roots_frozen_n1_n2():
    assert closure_roots(t_grid(3)).values == (-1.0,)
    g2 = closure_roots(t_grid(5)).values
    assert len(g2) == 2
    assert abs(g2[0] + 1.6180340) < 1e-6
    assert abs(g2[1] - 0.6180340) < 1e-6


def test_roots_agree_with_closed_form_grid():
    for n in range(1, 9):
        grid = t_grid(2 * n + 1)
        solved = closure_roots(grid)
        assert solved.m == grid.m == 2 * n + 1
        assert len(solved.values) == len(grid.values) == n
        for a, b in zip(solved.values, grid.values):
            assert abs(a - b) < 1e-10


def _closure_polynomial(n):
    # W_n = s_n + s_{n-1}, as closure_roots builds it
    return add(chebyshev_s(n), chebyshev_s(n - 1))


def _mul(p, q):
    product = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            product[i + j] += a * b
    return trim(product)


@pytest.mark.parametrize("n, m", [(3, 9), (3, 5), (24, 51)])
def test_the_closed_form_guesses_of_another_m_prove_nothing(n, m):
    # the closed-form guesses of another m prove nothing about W_n's roots:
    # certify_cells returns None, which closure_roots turns into a refusal
    # that names m, never a wrong answer
    assert certify_cells(_closure_polynomial(n), t_grid(m).values) is None


def test_chebyshev_s_closed_form_low_orders():
    assert [chebyshev_s(j) for j in range(5)] == [
        (1,), (0, 1), (-1, 0, 1), (0, -2, 0, 1), (1, 0, -3, 0, 1)
    ]


def test_chebyshev_s_gives_the_closure_equations_of_the_sequences():
    # w_n = (s_{2n+1}, -s_{2n}), from the closed form and the recurrence
    _, ws = symbolic_sequences(400)
    for n in list(range(1, 61)) + [200, 400]:
        assert chebyshev_s(2 * n + 1) == ws[n].x
        assert neg(chebyshev_s(2 * n)) == ws[n].y


def test_closure_equations_factor_through_the_closed_form_w_n():
    # x(w_n) - 1 = W_n V_{n+1} and y(w_n) = -W_n V_n, V_j = s_j - s_{j-1}
    _, ws = symbolic_sequences(60)
    for n in range(1, 61):
        w, v, v_next = (
            _closure_polynomial(n),
            sub(chebyshev_s(n), chebyshev_s(n - 1)),
            sub(chebyshev_s(n + 1), chebyshev_s(n)),
        )
        assert sub(ws[n].x, (1,)) == _mul(w, v_next)
        assert ws[n].y == neg(_mul(w, v))


@pytest.mark.parametrize("n", range(1, 101))
def test_closure_roots_are_the_rounded_cell_midpoints(n):
    # one int ratio per midpoint rounds as the Fraction midpoint does
    grid = t_grid(2 * n + 1)
    cells = certify_cells(_closure_polynomial(n), grid.values)
    solved = closure_roots(grid)
    assert solved.m == grid.m
    assert list(solved.values) == [float(Fraction(a + b, 2**41)) for a, b in cells]


def test_closure_gcd_is_the_fourth_kind_chebyshev_polynomial():
    # W_0 = 1, W_1 = t + 1, W_{j+1} = t W_j - W_{j-1}, and W_n = s_n + s_{n-1}:
    # V_n and V_{n+1} are coprime, so the gcd is W_n itself
    _, ws = symbolic_sequences(60)
    prev, cur = (1,), (1, 1)
    for n in range(1, 61):
        assert primitive_gcd(ws[n].y, sub(ws[n].x, (1,))) == cur == _closure_polynomial(n)
        prev, cur = cur, sub(shift_up(cur), prev)


def _remainder_by_monic(p, divisor):
    # remainder of p on division by a monic divisor in Z[t]
    assert divisor[-1] == 1
    rem = list(trim(p))
    while len(rem) >= len(divisor):
        lead, shift = rem[-1], len(rem) - len(divisor)
        for i, c in enumerate(divisor):
            rem[shift + i] -= lead * c
        rem = list(trim(rem))
    return tuple(rem)


def test_closure_gcd_divides_both_closure_equations_exactly():
    # the closure claim for every k at once: W_n divides y(w_n), x(w_n) - 1,
    # x(u_n) and y(u_n) - 1 in Z[t], so u_n = (0, 1) and w_n = (1, 0) at
    # every root of W_n, with no tolerance
    us, ws = symbolic_sequences(40)
    for n in range(1, 41):
        closure = primitive_gcd(ws[n].y, sub(ws[n].x, (1,)))
        for p in (ws[n].y, sub(ws[n].x, (1,)), us[n].x, sub(us[n].y, (1,))):
            assert _remainder_by_monic(p, closure) == ()


def test_exact_root_at_minus_one_when_three_divides_m():
    # m = 9 includes t = 2cos(2pi/3) = -1, a rational root the isolator
    # must peel off exactly
    assert any(v == -1.0 for v in closure_roots(t_grid(9)).values)


def test_t_grid_frozen_m5():
    grid = t_grid(5)
    assert abs(grid.values[0] + 1.618033988749895) < 1e-15
    assert abs(grid.values[1] - 0.6180339887498949) < 1e-15
    assert closed_form_t(5, 1) == 2 * math.cos(2 * math.pi / 5)


def test_t_grid_rejects_even_m():
    with pytest.raises(ValueError):
        t_grid(6)


def test_root_grid_validates_count():
    with pytest.raises(ValueError, match="needs 2 values"):
        RootGrid(m=5, values=(-1.0,))


def test_root_grid_validates_order_and_range():
    with pytest.raises(ValueError):
        RootGrid(m=5, values=(0.6, -1.6))
    with pytest.raises(ValueError):
        RootGrid(m=5, values=(-2.5, 0.6))


@pytest.mark.parametrize(
    "m, values, message",
    [
        (6, (-1.0, 0.5), "grid needs odd m >= 3, got 6"),
        (5, (0.5, 0.5), "grid values must be distinct"),
    ],
)
def test_root_grid_refuses_even_m_and_a_repeated_value(m, values, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        RootGrid(m=m, values=values)


def test_symbolic_sequences_refuse_n_below_1():
    with pytest.raises(ValueError, match="n must be >= 1"):
        symbolic_sequences(0)


def test_model_configuration_layout_m5():
    for k in (1, 2):
        c = model_configuration(5, k)
        assert c.m == 5
        t = closed_form_t(5, k)
        us, ws = numeric_sequences(t, 2)
        assert tuple(c[2]) == (0.0, 1.0)
        for slot, v in ((0, us[0]), (1, us[1]), (3, ws[0]), (4, ws[1])):
            for got, want in zip(c[slot], v):
                assert math.isclose(got, want, rel_tol=0.0, abs_tol=1e-15)


def test_model_configuration_is_the_frame_image_of_the_roots_of_unity_m801():
    # the float vector recurrence misses closure by up to 1.6e-9 here; the
    # model must land on g_k . w^e, with g_k the frame of (1, w^k), for every k
    m, n = 801, 400
    u = roots_of_unity(m)
    for k in range(1, n + 1):
        g = frame_map(u[0], u[k])
        exponents = [-2 * k * i for i in range(n)] + [k] + [-k * (2 * i + 1) for i in range(n)]
        for v, e in zip(model_configuration(m, k).vectors, exponents):
            x, y = u[e % m]
            assert math.hypot(v.x - (g.a * x + g.b * y), v.y - (g.c * x + g.d * y)) <= 1e-12


def test_model_configuration_passes_the_constructor_it_skips():
    # model_configuration builds its members untested: each must be a finite,
    # nonzero float pair that the constructor keeps as it is
    for m in range(3, 202, 2):
        for k in range(1, (m - 1) // 2 + 1):
            c = model_configuration(m, k)
            assert Configuration(c.xs, c.ys) == c


def test_model_configuration_rejects_bad_k():
    with pytest.raises(ValueError):
        model_configuration(5, 3)
    with pytest.raises(ValueError):
        model_configuration(5, 0)
    with pytest.raises(ValueError):
        model_configuration(4, 1)


@pytest.mark.parametrize("n", [0, -3])
def test_closure_route_refuses_n_below_1(n):
    # m = 2n + 1 < 3 has no closure parameter, so t_grid refuses it
    with pytest.raises(ValueError, match=f"^grid needs odd m >= 3, got {2 * n + 1}$"):
        closure_roots(t_grid(2 * n + 1))
