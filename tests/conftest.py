import sys
from functools import cached_property

import pytest

from balcfg.geometry import Configuration


@pytest.fixture
def tables_built(monkeypatch):
    """The size m of every determinant table (Configuration.det_table) built
    during the test, in build order. Rows built on demand by det_row, with no
    whole table, are not listed."""
    build = Configuration.det_table.func
    sizes = []

    def counting(self):
        sizes.append(self.m)
        return build(self)

    counted = cached_property(counting)
    counted.__set_name__(Configuration, "det_table")
    monkeypatch.setattr(Configuration, "det_table", counted)
    return sizes


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(fn) returns the list of the argument tuples of every later
    call of fn, a balcfg function, through every balcfg module that binds
    it."""

    def install(fn):
        calls = []

        def counting(*args):
            calls.append(args)
            return fn(*args)

        for name, module in list(sys.modules.items()):
            if name == "balcfg" or name.startswith("balcfg."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counting)
        return calls

    return install


@pytest.fixture
def rows_built(monkeypatch):
    """(m, i) for every determinant row that Configuration.det_row builds and
    caches during the test, in build order. A row it finds in its cache, and
    a row read once by transient_det_row without caching, are not listed."""
    det_row = Configuration.det_row
    built = []

    def counting(self, i):
        if self._det_rows[i] is None:
            built.append((self.m, i))
        return det_row(self, i)

    monkeypatch.setattr(Configuration, "det_row", counting)
    return built
