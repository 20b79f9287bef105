import sys

import pytest

from balcfg import geometry


@pytest.fixture
def det2_calls(monkeypatch):
    """The list of det2 calls made during the test, counted through every
    module binding, as a from-import copies it."""
    real = geometry.det2
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("balcfg") and getattr(module, "det2", None) is real:
            monkeypatch.setattr(module, "det2", counting)
    return calls
