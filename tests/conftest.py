import os
import sys
from contextlib import contextmanager

sys.path.insert(0, os.path.dirname(__file__))

import pytest

import fsdsq.census
import fsdsq.sweep


@pytest.fixture
def census_calls(monkeypatch):
    """Codes of every ``_census_scan`` call."""
    calls: list[bytes] = []
    scan = fsdsq.census._census_scan

    def counted(codes):
        calls.append(bytes(codes))
        return scan(codes)

    monkeypatch.setattr(fsdsq.census, "_census_scan", counted)
    return calls


class SimulatedCrash(Exception):
    """Raised in place of a block, as if the sweep's process had died."""


@pytest.fixture
def crash_after(monkeypatch):
    """``with crash_after(k): <sweep>`` runs the sweep until ``k`` blocks
    have finished and then crashes it, leaving those blocks in its
    checkpoint.  The sweep must run at jobs=1: the wrapper is a local
    function, which cannot be pickled into a worker pool."""

    @contextmanager
    def crash(k: int):
        process = fsdsq.sweep._process_block
        finished = 0

        def crashing(args):
            nonlocal finished
            if finished == k:
                raise SimulatedCrash(f"crash after {k} blocks")
            finished += 1
            return process(args)

        with monkeypatch.context() as patch:
            patch.setattr(fsdsq.sweep, "_process_block", crashing)
            with pytest.raises(SimulatedCrash):
                yield

    return crash
