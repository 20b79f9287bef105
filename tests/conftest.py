from functools import cached_property

import pytest

from balcfg.geometry import Configuration


@pytest.fixture
def tables_built(monkeypatch):
    """The size m of every determinant table built during the test, in build
    order. A table that _restrict reads from its parent's table is not built,
    so it is not listed."""
    build = Configuration.det_table.func
    sizes = []

    def counting(self):
        sizes.append(self.m)
        return build(self)

    counted = cached_property(counting)
    counted.__set_name__(Configuration, "det_table")
    monkeypatch.setattr(Configuration, "det_table", counted)
    return sizes
