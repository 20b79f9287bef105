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
