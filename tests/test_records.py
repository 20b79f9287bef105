"""The package's value types: the plain records are named tuples, the three
validating types check their fields in __new__, and Configuration is a plain
class that compares its coordinates. Their reprs are the ones the package
printed when they were frozen dataclasses, recorded before the change."""

import importlib
import math
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import balcfg
from balcfg.balance import BalanceReport, CanonicalForm, StepConstants
from balcfg.geometry import Configuration, LinearMap2, PlaneVector
from balcfg.search import SearchSpec
from balcfg.sequences import RootGrid
from paper_lemmas import EquivalenceVerdict, PairingMap, ParityVerdict, PolyPair

# (factory, repr recorded from the dataclass version); each factory builds a
# fresh object from fresh, equal fields on every call
RECORDS = [
    (lambda: BalanceReport(True, None), "BalanceReport(balanced=True, witness=None)"),
    (
        lambda: BalanceReport(False, (1, Fraction(-1, 2))),
        "BalanceReport(balanced=False, witness=(1, Fraction(-1, 2)))",
    ),
    (
        lambda: PairingMap(per_index=(frozenset({frozenset({1, 2})}),), phi={frozenset({1, 2}): 0}),
        "PairingMap(per_index=(frozenset({frozenset({1, 2})}),), phi={frozenset({1, 2}): 0})",
    ),
    (
        lambda: StepConstants(A1=Fraction(1), An=Fraction(-1, 2)),
        "StepConstants(A1=Fraction(1, 1), An=Fraction(-1, 2))",
    ),
    (lambda: StepConstants(A1=0.5, An=-1.25), "StepConstants(A1=0.5, An=-1.25)"),
    (lambda: LinearMap2(1.0, 0.5, -0.25, 2.0), "LinearMap2(a=1.0, b=0.5, c=-0.25, d=2.0)"),
    (
        lambda: LinearMap2(Fraction(1), Fraction(0), Fraction(1, 3), Fraction(-2)),
        "LinearMap2(a=Fraction(1, 1), b=Fraction(0, 1), c=Fraction(1, 3), d=Fraction(-2, 1))",
    ),
    (
        lambda: CanonicalForm(g=LinearMap2(1.0, 0.0, 0.0, 1.0), t=0.5, residual=1e-12),
        "CanonicalForm(g=LinearMap2(a=1.0, b=0.0, c=0.0, d=1.0), t=0.5, residual=1e-12)",
    ),
    (lambda: EquivalenceVerdict(True), "EquivalenceVerdict(equivalent=True, reason=None)"),
    (
        lambda: EquivalenceVerdict(False, "size mismatch: 3 != 5"),
        "EquivalenceVerdict(equivalent=False, reason='size mismatch: 3 != 5')",
    ),
    (lambda: PolyPair(x=(1, 0, -1), y=(0, 1)), "PolyPair(x=(1, 0, -1), y=(0, 1))"),
    (lambda: ParityVerdict(True), "ParityVerdict(ok=True, index=None, which=None)"),
    (lambda: ParityVerdict(False, 2, "u.x"), "ParityVerdict(ok=False, index=2, which='u.x')"),
    (lambda: PlaneVector(1, 2), "PlaneVector(x=Fraction(1, 1), y=Fraction(2, 1))"),
    (lambda: PlaneVector(Fraction(1, 3), 0), "PlaneVector(x=Fraction(1, 3), y=Fraction(0, 1))"),
    (lambda: PlaneVector(0.5, -0.0), "PlaneVector(x=0.5, y=-0.0)"),
    (lambda: PlaneVector(1, 0.5), "PlaneVector(x=1.0, y=0.5)"),
    (lambda: RootGrid(5, (-1.5, 0.5)), "RootGrid(m=5, values=(-1.5, 0.5))"),
    (
        lambda: SearchSpec(3, (2, 0, 1, 0)),
        "SearchSpec(m=3, coordinate_set=(Fraction(0, 1), Fraction(1, 1), Fraction(2, 1)),"
        " require_uniform=False)",
    ),
    (
        lambda: SearchSpec(4, (Fraction(1, 2), -1), True),
        "SearchSpec(m=4, coordinate_set=(Fraction(-1, 1), Fraction(1, 2)), require_uniform=True)",
    ),
    (
        lambda: Configuration([(1, 0), (0, 1)]),
        "Configuration(xs=(Fraction(1, 1), Fraction(0, 1)), ys=(Fraction(0, 1), Fraction(1, 1)))",
    ),
    (
        lambda: Configuration([(0.5, 0.0), (-1.0, 2.0)]),
        "Configuration(xs=(0.5, -1.0), ys=(0.0, 2.0))",
    ),
]
IDS = [want.split("(")[0] + str(i) for i, (_, want) in enumerate(RECORDS)]


@pytest.mark.parametrize("make, want", RECORDS, ids=IDS)
def test_repr_is_the_recorded_one(make, want):
    assert repr(make()) == want


@pytest.mark.parametrize("make, want", RECORDS, ids=IDS)
def test_equal_fields_give_equal_objects_and_hashes(make, want):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if not isinstance(a, PairingMap):  # its dict field is unhashable
        assert hash(a) == hash(b)


@pytest.mark.parametrize("make, want", RECORDS, ids=IDS)
def test_fields_refuse_assignment(make, want):
    obj = make()
    field = want[want.index("(") + 1 : want.index("=")]
    with pytest.raises(AttributeError):
        setattr(obj, field, getattr(obj, field))
    with pytest.raises(AttributeError):
        delattr(obj, field)


def test_configurations_compare_their_coordinates_only():
    c = Configuration([(1, 0), (0, 1)])
    assert c == Configuration([Fraction(1), Fraction(0)], [0, 1])
    assert c != Configuration([(0, 1), (1, 0)])
    assert c != ((1, 0), (0, 1))
    # cached values go into __dict__ and take no part in equality
    assert c.lines and c == Configuration([(1, 0), (0, 1)])


@pytest.mark.parametrize("cls", [ParityVerdict, EquivalenceVerdict])
def test_verdict_truth_follows_the_verdict(cls):
    assert bool(cls(True)) is True
    assert bool(cls(False)) is False
    assert bool(cls(False, 1 if cls is ParityVerdict else "why")) is False


# each validating constructor's refusal, with the message it gave as a dataclass
REFUSALS = [
    (PlaneVector, (True, 0), TypeError, "boolean is not a coordinate"),
    (PlaneVector, ("1", 0), TypeError, "unsupported coordinate type str"),
    (PlaneVector, (math.nan, 0), ValueError, "vector (nan, 0.0) is not finite"),
    (PlaneVector, (1, math.inf), ValueError, "vector (1.0, inf) is not finite"),
    (PlaneVector, (-math.inf, 0.0), ValueError, "vector (-inf, 0.0) is not finite"),
    (RootGrid, (4, ()), ValueError, "grid needs odd m >= 3, got 4"),
    (RootGrid, (1, ()), ValueError, "grid needs odd m >= 3, got 1"),
    (RootGrid, (5, (0.5,)), ValueError, "grid for m = 5 needs 2 values, got 1"),
    (RootGrid, (5, (0.5, -1.5)), ValueError, "grid values must be sorted ascending"),
    (RootGrid, (5, (-2.0, 0.5)), ValueError, "grid value -2.0 outside (-2, 2)"),
    (RootGrid, (5, (0.5, 0.5)), ValueError, "grid values must be distinct"),
    (RootGrid, (3, (math.nan,)), ValueError, "grid value nan outside (-2, 2)"),
    (SearchSpec, (0, (1,)), ValueError, "m must be >= 1"),
    (SearchSpec, (3, ()), ValueError, "coordinate set must be nonempty"),
    (
        Configuration,
        ([],),
        ValueError,
        "a configuration needs at least one vector and equal columns",
    ),
    (
        Configuration,
        ([1, 2], [3]),
        ValueError,
        "a configuration needs at least one vector and equal columns",
    ),
    (Configuration, ([(0, 0)],), ValueError, "configuration member 0 is the zero vector"),
    (
        Configuration,
        ([(1, 0), (1.0, 0.0)],),
        ValueError,
        "configuration mixes exact and float vectors",
    ),
    (
        Configuration,
        ([(1.0, 0.0), (math.nan, 0.0)],),
        ValueError,
        "configuration member 1 (nan, 0.0) is not finite",
    ),
    (Configuration, ([(1, 0), (True, 1)],), TypeError, "boolean is not a coordinate"),
]


@pytest.mark.parametrize("cls, args, error, message", REFUSALS)
def test_validating_constructors_keep_their_messages(cls, args, error, message):
    with pytest.raises(error) as info:
        cls(*args)
    assert str(info.value) == message


def test_replace_runs_the_checks_as_the_constructor_does():
    with pytest.raises(ValueError, match="is not finite"):
        PlaneVector(1.0, 0.0)._replace(x=math.nan)
    with pytest.raises(ValueError, match="must be sorted"):
        RootGrid(5, (-1.5, 0.5))._replace(values=(0.5, -1.5))
    spec = SearchSpec(3, (1,))._replace(coordinate_set=[2, 1, 2])
    assert spec == SearchSpec(3, (1, 2)) and spec.coordinate_set == (Fraction(1), Fraction(2))
    assert PlaneVector(1, 2)._replace(y=3) == PlaneVector(1, 3)


def test_validating_constructors_take_keywords():
    assert PlaneVector(y=2, x=1) == PlaneVector(1, 2)
    assert RootGrid(m=3, values=(-1.0,)).n == 1
    spec = SearchSpec(m=2, coordinate_set=[1, 0, 1], require_uniform=True)
    assert spec.coordinate_set == (Fraction(0), Fraction(1)) and spec.require_uniform


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # each takes milliseconds to import, which every balcfg command would pay;
    # the child imports the balcfg that this run imports, from src or installed
    code = "import balcfg.cli, sys; assert not {'dataclasses', 'inspect'} & set(sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(balcfg.__file__).parent.parent)},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


def _modules():
    """The package and each of its modules, every one imported."""
    return [balcfg] + [
        importlib.import_module(f"balcfg.{info.name}")
        for info in pkgutil.iter_modules(balcfg.__path__)
    ]


def test_the_package_binds_its_version_and_submodules_only():
    # one import path per name: the module that defines it
    modules = {mod.__name__.partition(".")[2] for mod in _modules()[1:]}
    public = {name for name in vars(balcfg) if not name.startswith("_")}
    assert public == modules - {"__main__"}
    assert isinstance(balcfg.__version__, str) and not hasattr(balcfg, "__all__")


# the proof's steps and the polynomial arithmetic only tests use, which no
# command runs: tests/paper_lemmas.py and tests/polynomial_oracles.py hold them
LEMMA_NAMES = (
    "AmbiguousPairing", "EquivalenceVerdict", "PairingMap", "ParityVerdict", "PolyPair",
    "_diagram_exponents", "_interleaved", "_negligible", "add", "build_pairing",
    "check_parity_degrees", "cyclic_index", "degree", "gl2_equivalent", "is_even_poly",
    "is_odd_poly", "match_grid_index", "neg", "numeric_sequences", "reconstruct_from_triple",
    "shift_up", "slot_exponents", "sub", "symbolic_sequences", "verify_antisymmetry",
    "wn_equation_roots",
)
# names that no command called, each with the spelling the tests use instead:
# Configuration.arguments, tuple(v) and serialize_config. Configuration.vectors
# stays, because the benchmark's workloads read it. Then canon's gates on t_C
# and y, which its residual against w^j replaced; tests/paper_lemmas.py keeps
# GRID_TOL, NotNormalized and NoGridMatch for the general grid route. Then
# unit_vector, whose one caller, canon's route, reads roots_of_unity(m). Last
# _route, which kept the route's refusal as a memo value: the route itself is
# memoized now, and canonicalize raises a refusal again where it reads one.
# Then two names that only tests read: search.count_balanced, spelled
# search_balanced(spec)[:2], and cli.COMMANDS, whose six names the tests hold.
UNCALLED_NAMES = (
    "argument", "as_tuple", "save_config",
    "extract_t", "match_k", "GRID_TOL", "NotNormalized", "NoGridMatch", "unit_vector",
    "_route", "count_balanced", "COMMANDS",
)


def test_no_balcfg_module_binds_a_lemma():
    modules = _modules()
    held = {"balance", "errors", "geometry", "sequences"}
    assert held <= {mod.__name__.rpartition(".")[2] for mod in modules}
    bound = [(mod.__name__, name) for mod in modules for name in LEMMA_NAMES if hasattr(mod, name)]
    assert bound == []


def test_no_balcfg_module_or_value_type_binds_an_uncalled_name():
    holders = [*_modules(), PlaneVector, Configuration]
    bound = [(h.__name__, name) for h in holders for name in UNCALLED_NAMES if hasattr(h, name)]
    assert bound == []
