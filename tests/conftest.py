import sys

import pytest

from balcfg.geometry import Configuration


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
def rows_computed(monkeypatch):
    """(m, i) for every determinant row that Configuration.det_row computes
    during the test, in call order; each call computes its row afresh."""
    det_row = Configuration.det_row
    computed = []

    def counting(self, i):
        computed.append((self.m, i))
        return det_row(self, i)

    monkeypatch.setattr(Configuration, "det_row", counting)
    return computed
