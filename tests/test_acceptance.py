"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line so the suite doubles as a runnable
checklist: pytest -s tests/test_acceptance.py
"""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

from balcfg import polynomials as ip
from balcfg import (
    InconsistentConstants,
    SearchSpec,
    canonicalize,
    enumerate_balanced,
    even_m_witness,
    frame_map,
    is_uniform,
    perturb,
    random_invertible,
    roots_of_unity,
    step_constants,
)
from balcfg.cli import main
from balcfg.sequences import closed_form_t, closure_roots, t_grid
from paper_lemmas import (
    PolyPair,
    build_pairing,
    check_parity_degrees,
    numeric_sequences,
    reconstruct_from_triple,
    shift_up,
    symbolic_sequences,
    verify_antisymmetry,
)
from polynomial_oracles import eval_at

HERE = Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"

ROUND_TRIP_SIZES = (3, 5, 7, 9, 11, 13, 21)


def report(ok: bool, label: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_acceptance_01_round_trip_canonicalization():
    start = time.perf_counter()
    worst = 0.0
    for m in ROUND_TRIP_SIZES:
        u = roots_of_unity(m)
        for seed in range(100):
            g = random_invertible(seed=seed)
            form = canonicalize(g.apply_configuration(u))
            worst = max(worst, form.residual)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report(
        ok,
        f"round trip: 100 seeded maps x m in {ROUND_TRIP_SIZES}, "
        f"worst residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_acceptance_02_root_set_identity():
    worst = 0.0
    ok = True
    for n in range(1, 61):
        grid = t_grid(2 * n + 1)
        solved = closure_roots(grid)
        if len(solved.values) != n or len(grid.values) != n:
            ok = False
            break
        worst = max(worst, max(abs(a - b) for a, b in zip(solved.values, grid.values)))
    ok = ok and worst <= 1e-10
    spot1 = closure_roots(t_grid(3)).values
    spot2 = closure_roots(t_grid(5)).values
    ok = ok and spot1 == (-1.0,)
    ok = ok and abs(spot2[0] + 1.6180340) < 1e-6 and abs(spot2[1] - 0.6180340) < 1e-6
    report(ok, f"root sets match the closed-form grid for n=1..60, worst gap {worst:.2e}")


def test_acceptance_03a_recurrence_sign_regression():
    u0 = PolyPair(x=(1,), y=())
    w0 = PolyPair(x=(0, 1), y=(-1,))
    # the sign variant that reuses the previous u term
    w1_variant = PolyPair(
        x=ip.sub(shift_up(u0.x), w0.x),
        y=ip.sub(shift_up(u0.y), w0.y),
    )
    degree_violated = ip.degree(w1_variant.x) != 3
    us, ws = symbolic_sequences(1)
    variant_verdict = check_parity_degrees(us, [w0, w1_variant])
    ok = degree_violated and not variant_verdict and variant_verdict.which == "w.x"
    report(ok, "sign-variant recurrence breaks the odd-degree-3 shape of w_1.x")


def test_acceptance_03b_closure_parameter_form():
    _, ws = symbolic_sequences(2)
    off = 1.0 / math.sin(2.0 * math.pi / 5.0)
    on = 2.0 * math.cos(2.0 * math.pi / 5.0)
    gap_off = math.hypot(eval_at(ws[2].x, off) - 1.0, eval_at(ws[2].y, off))
    gap_on = math.hypot(eval_at(ws[2].x, on) - 1.0, eval_at(ws[2].y, on))
    ok = gap_off > 0.1 and gap_on <= 1e-10
    report(
        ok,
        f"reciprocal-sine parameter misses the solution set by {gap_off:.3f}; "
        f"2cos lands within {gap_on:.1e}",
    )


def test_acceptance_04_antisymmetry_and_step_constants():
    ok = True
    for m in range(3, 102, 2):
        u = roots_of_unity(m)
        passed, _ = verify_antisymmetry(u, tol=1e-12)
        ok = ok and passed
        try:
            step_constants(u, tol=1e-12)
        except InconsistentConstants:
            ok = False
    u7 = roots_of_unity(7)
    for seed in range(100):
        bent = perturb(u7, eps=0.05, seed=seed)
        passed, _ = verify_antisymmetry(bent, tol=1e-12)
        if passed:
            ok = False
        try:
            step_constants(bent, tol=1e-12)
            ok = False
        except InconsistentConstants:
            pass
    report(ok, "antisymmetry and step constants hold on U_m (odd m <= 101) and "
               "fail on all 100 perturbations of U_7")


def test_acceptance_05_pairing_partition():
    ok = True
    for m in range(3, 32, 2):
        n = (m - 1) // 2
        pairing = build_pairing(roots_of_unity(m))
        ok = ok and pairing.phi_of(0, 1) == n + 1
        ok = ok and len(pairing.phi) == m * (m - 1) // 2
        for i, fiber in enumerate(pairing.per_index):
            covered = set()
            for pair in fiber:
                if i in pair or (pair & covered):
                    ok = False
                covered |= pair
            ok = ok and covered == set(range(m)) - {i}
    report(ok, "pairing fibers partition the complement for odd m <= 31 and "
               "phi({0,1}) = n+1")


def test_acceptance_06_parity_degrees_exact():
    start = time.perf_counter()
    us, ws = symbolic_sequences(50)
    verdict = check_parity_degrees(us, ws)
    elapsed = time.perf_counter() - start
    ok = bool(verdict) and elapsed < 5.0
    report(ok, f"parity and degree pattern holds through order 50 in {elapsed:.2f}s")


def test_acceptance_07_triple_reconstruction():
    worst = 0.0
    for m in range(3, 22, 2):
        n = (m - 1) // 2
        u = roots_of_unity(m)
        for seed in range(10):
            g = random_invertible(seed=seed)
            moved = g.apply_configuration(u)
            rebuilt = reconstruct_from_triple(moved[0], moved[n], moved[n + 1], m)
            worst = max(
                worst,
                max(math.hypot(a.x - b.x, a.y - b.y) for a, b in zip(rebuilt, moved)),
            )
    ok = worst <= 1e-9
    report(ok, f"triples rebuild the whole configuration, worst gap {worst:.2e}")


def test_acceptance_08_even_size_enumeration():
    spec = SearchSpec(
        m=4, coordinate_set=(Fraction(-1), Fraction(0), Fraction(1))
    )
    hits = enumerate_balanced(spec)
    ok = len(hits) >= 1
    ok = ok and all(not is_uniform(h)[0] for h in hits)
    for h in hits:
        witness = even_m_witness(h)
        ok = ok and 0 <= witness < 4
    report(ok, f"even grid search: {len(hits)} balanced, none uniform, "
               "all with a collinear witness")


def test_acceptance_08b_no_uniform_balanced_exact_pentagon():
    # Niven (1956): a uniform balanced exact configuration of odd size
    # m >= 5 does not exist, so the exact oracle finds balanced m = 5 sets
    # over a rational grid but none of them uniform
    counts = []
    for coords in ((-2, -1, 0, 1, 2), (-1, Fraction(-1, 2), 0, Fraction(1, 2), 1)):
        hits = enumerate_balanced(SearchSpec(m=5, coordinate_set=coords))
        counts.append((len(hits), sum(is_uniform(h)[0] for h in hits)))
    report(counts == [(92, 0), (92, 0)],
           f"exact m = 5 search: (balanced, uniform) hits {counts}, none uniform")


def test_acceptance_09_model_sequence_identity():
    worst = 0.0
    for m in range(3, 22, 2):
        n = (m - 1) // 2
        u = roots_of_unity(m)
        for k in range(1, n + 1):
            g_k = frame_map(u[0], u[k])
            _, ws = numeric_sequences(closed_form_t(m, k), n)
            for i in range(n):
                target = g_k.apply(u[(-k * (1 + 2 * i)) % m])
                worst = max(worst, math.hypot(ws[i].x - target.x, ws[i].y - target.y))
    ok = worst <= 1e-9
    report(ok, f"w_i(t_k) equals the mapped root of unity, worst gap {worst:.2e}")


CLI_GOLDEN_CASES = [
    (["check", str(DATA / "u5.json")], GOLDEN / "check_u5.json", 0),
    (["canon", str(DATA / "u7_moved.json")], GOLDEN / "canon_u7_moved.json", 0),
    (["roots", "--n", "3"], GOLDEN / "roots_n3.json", 0),
    (["roots", "--n", "24"], GOLDEN / "roots_n24.json", 0),
    (["roots", "--n", "61"], GOLDEN / "roots_n61.json", 0),
    (["roots", "--n", "200"], GOLDEN / "roots_n200.json", 0),
    (["render", str(DATA / "u5.json"), "--format", "svg"], GOLDEN / "u5.svg", 0),
    # exact input: canon takes check's verdicts, so U_5 rounded to
    # 10^-12 is not balanced, with check's witness, and an exact
    # triple that sums to zero is U_3's image
    (["check", str(DATA / "u5_exact_rounded.json")], GOLDEN / "check_u5_exact_rounded.json", 1),
    (["canon", str(DATA / "u5_exact_rounded.json")], GOLDEN / "canon_u5_exact_rounded.json", 1),
    (["check", str(DATA / "u3_exact.json")], GOLDEN / "check_u3_exact.json", 0),
    (["canon", str(DATA / "u3_exact.json")], GOLDEN / "canon_u3_exact.json", 0),
    # an exact {v, -v} set of m = 100: balanced, never uniform, with the
    # even-m witness and the pair that row 0 holds
    (["check", str(DATA / "sym100_exact.json")], GOLDEN / "check_sym100_exact.json", 0),
    (["canon", str(DATA / "sym100_exact.json")], GOLDEN / "canon_sym100_exact.json", 1),
    # the generators' columns, mapped and rendered, byte for byte
    (["gen", "--m", "201", "--seed", "5"], GOLDEN / "gen_m201_seed5.json", 0),
    (["gen", "--m", "201", "--k", "37"], GOLDEN / "gen_m201_k37.json", 0),
    (["gen", "--m", "51", "--format", "svg"], GOLDEN / "gen_m51.svg", 0),
]


def test_acceptance_10_cli_golden_files(capsys):
    ok = True
    for argv, golden, want_code in CLI_GOLDEN_CASES:
        code = main(list(argv))
        first = capsys.readouterr().out
        code2 = main(list(argv))
        second = capsys.readouterr().out
        ok = ok and code == code2 == want_code
        ok = ok and first == second == golden.read_text()
    with capsys.disabled():
        report(ok, "CLI reports and SVG are byte-identical to the golden files")


def test_acceptance_10_cli_golden_files_across_a_usage_error(capsys):
    # every main call in a process parses with the same parser, so a usage
    # error between two rounds of the golden commands changes no byte
    def golden_round():
        return all(main(list(argv)) == want_code and capsys.readouterr().out == golden.read_text()
                   for argv, golden, want_code in CLI_GOLDEN_CASES)

    ok = golden_round()
    try:
        code = main(["roots", "--n", "3", "--bogus"])
    except SystemExit as exc:
        code = exc.code
    ok = ok and code == 2 and "unrecognized arguments: --bogus" in capsys.readouterr().err
    ok = ok and golden_round()
    with capsys.disabled():
        report(ok, "two rounds of golden CLI calls around a usage error are byte-identical")


def test_acceptance_10_search_golden_directory(capsys, tmp_path):
    # three of the 14 hits are collinear with a nonzero sum, so the golden
    # directory pins the collinear listing as well as the zero-sum walk
    golden = GOLDEN / "search_m3_-1_0_1_2"
    out = tmp_path / "hits"
    code = main(["search", "--m", "3", "--coords", "-1,0,1,2", "--out", str(out)])
    stdout = capsys.readouterr().out
    names = sorted(p.name for p in golden.iterdir())
    ok = code == 0 and stdout == (golden / "summary.json").read_text()
    ok = ok and sorted(p.name for p in out.iterdir()) == names
    ok = ok and all((out / name).read_bytes() == (golden / name).read_bytes() for name in names)
    with capsys.disabled():
        report(ok, "search --out writes the golden hit files and summary byte for byte")


def test_acceptance_10_check_report_is_valid_json(capsys):
    main(["check", str(DATA / "u5.json")])
    out = capsys.readouterr().out
    report(json.loads(out)["balanced"] is True, "golden check report parses as JSON")
