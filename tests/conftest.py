import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import pytest

import fsdsq.census


@pytest.fixture
def census_calls(monkeypatch):
    """Codes of every ``_census_scan`` call, through whichever module
    binds the name."""
    calls: list[bytes] = []
    scan = fsdsq.census._census_scan

    def counted(codes):
        calls.append(bytes(codes))
        return scan(codes)

    for name, module in list(sys.modules.items()):
        if name.startswith("fsdsq") and getattr(module, "_census_scan", None) is scan:
            monkeypatch.setattr(module, "_census_scan", counted)
    return calls
