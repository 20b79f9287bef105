"""Every module of the package reads each name that it imports, checked on
its syntax tree with the standard library's ast module alone."""

import ast
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
