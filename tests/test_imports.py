"""Every module of the package reads each name that it imports, imports
only at module level, and takes part in no import cycle, checked on its
syntax tree with the standard library's ast module alone."""

import ast
import graphlib
from pathlib import Path

import pytest

import balcfg

MODULES = sorted(Path(balcfg.__file__).parent.glob("*.py"))


def _unread_imports(source: str) -> list:
    """The names that source imports and never reads, in import order. A
    string annotation, such as -> "Configuration", is parsed and read."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]
    annotations = [
        node.annotation if isinstance(node, (ast.arg, ast.AnnAssign)) else node.returns
        for node in ast.walk(tree)
        if isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    trees = [tree] + [
        ast.parse(leaf.value, mode="eval")
        for annotation in annotations
        if annotation is not None
        for leaf in ast.walk(annotation)
        if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)
    ]
    read = {
        node.id
        for root in trees
        for node in ast.walk(root)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in read]


def test_the_check_finds_an_unread_import_and_reads_string_annotations():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from typing import List, Optional, Tuple\n"
        "def f(x: 'Optional[int]') -> List['Tuple[int, int]']:\n"
        "    return os.path.sep\n"
    )
    assert _unread_imports(source) == ["math"]
    assert _unread_imports(source.replace(" -> List['Tuple[int, int]']", "")) == [
        "math", "List", "Tuple"
    ]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_imported_name_is_read(path):
    assert _unread_imports(path.read_text(encoding="utf-8")) == []


def _function_imports(source: str) -> list:
    """The sorted lines of the import statements inside function bodies."""
    return sorted(
        {
            node.lineno
            for function in ast.walk(ast.parse(source))
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            for node in ast.walk(function)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
    )


def _import_edges(sources: dict) -> dict:
    """For each module name of sources (name -> source text), the modules of
    sources that it names in a relative `from .x import`."""
    return {
        name: {
            node.module
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in sources
        }
        for name, source in sources.items()
    }


def _cycle(edges: dict) -> list:
    """A cycle of edges as [a, b, ..., a], or [] when there is none."""
    try:
        tuple(graphlib.TopologicalSorter(edges).static_order())
    except graphlib.CycleError as exc:
        return exc.args[1]
    return []


def test_the_checks_find_a_function_level_import_and_an_import_cycle():
    source = "import math\ndef f():\n    from .c import g\n    def h():\n        import os\n"
    assert _function_imports(source) == [3, 5]
    edges = _import_edges({"a": "from .b import g\n", "b": source, "c": "from .a import h\n"})
    # the import inside f is an edge too
    assert edges == {"a": {"b"}, "b": {"c"}, "c": {"a"}}
    cycle = _cycle(edges)
    assert len(cycle) == 4 and cycle[0] == cycle[-1] and set(cycle) == {"a", "b", "c"}
    edges["c"].clear()
    assert _cycle(edges) == []


def test_no_module_imports_inside_a_function():
    found = {path.name: _function_imports(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_modules_import_one_another_with_no_cycle():
    edges = _import_edges({path.stem: path.read_text(encoding="utf-8") for path in MODULES})
    assert _cycle(edges) == []
