"""Spans recorded from the benchmark's side, and the per-layer metrics.

The benchmark replaces functions of the package by timing wrappers, as the
calling module sees them (``fsdsq.construct.s_sequence`` is construct's
census, ``fsdsq.sweep._census_scan`` is the sweep's), and restores them
afterwards.  A target that a later version no longer has is skipped, so its
metrics read 0.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

# module -> the attributes through which that module calls another layer.
TARGETS = {
    "cli": ("s_sequence", "find_fs_double_squares", "find_double_square_pairs",
            "classify_mate_detail", "build_run", "exhaustive_verify"),
    "construct": ("s_sequence", "find_fs_double_squares", "find_double_square_pairs"),
    "sweep": ("_census_scan", "find_fs_double_squares", "find_double_square_pairs",
              "classify_mate_detail", "_process_block"),
    "pairs": ("_census_scan", "find_fs_double_squares"),
    "double_squares": ("_census_scan",),
    "census": ("_census_scan",),
}
CENSUS = frozenset({"s_sequence", "_census_scan"})


class Tracer:
    """Spans as parallel arrays: name id, start, end, parent span, the length
    of the first argument and the length of a list or tuple result."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.size = array("l")
        self.found = array("l")
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.name)

    def _open(self, name: str, size: int) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.size.append(size)
        self.found.append(0)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, result=None) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if isinstance(result, (list, tuple)):
            self.found[idx] = len(result)

    @contextmanager
    def span(self, name: str):
        idx = self._open(name, 0)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            size = len(args[0]) if args and hasattr(args[0], "__len__") else 0
            idx = self._open(name, size)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(idx, result)
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target that the loaded package has; restore on exit."""
        saved = []
        try:
            for mod_name, attrs in TARGETS.items():
                mod = sys.modules.get(f"fsdsq.{mod_name}")
                for attr in attrs:
                    orig = getattr(mod, attr, None)
                    if callable(orig):
                        saved.append((mod, attr, orig))
                        setattr(mod, attr, self.wrap(f"{mod_name}.{attr}", orig))
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def write_tsv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span\tname\tparent\tstart_s\tend_s\tsize\tfound\n")
            t0 = self.start[0] if len(self) else 0.0
            for i in range(len(self)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}"
                         f"\t{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}"
                         f"\t{self.size[i]}\t{self.found[i]}\n")


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer counts and times of one traced pass.

    Census spans count once, at the outermost census call.  A span's self
    time is its duration minus that of its direct child spans.
    """
    n = len(tr)
    module = [tr.names[i].split(".", 1)[0] for i in range(len(tr.names))]
    attr = [tr.names[i].split(".", 1)[-1] for i in range(len(tr.names))]
    dur = [tr.end[i] - tr.start[i] for i in range(n)]
    children = [0.0] * n
    census_children = [0.0] * n
    in_census = [False] * n
    in_ds = [False] * n
    in_pairs = [False] * n
    for i in range(n):
        p = tr.parent[i]
        if p < 0:
            continue
        children[p] += dur[i]
        pa = attr[tr.name[p]]
        if attr[tr.name[i]] in CENSUS:
            census_children[p] += dur[i]
        in_census[i] = in_census[p] or pa in CENSUS
        in_ds[i] = in_ds[p] or pa == "find_fs_double_squares"
        in_pairs[i] = in_pairs[p] or pa == "find_double_square_pairs"

    m = dict.fromkeys((
        "census.calls", "census.letters", "census.s",
        "double_squares.calls", "double_squares.found", "double_squares.s",
        "double_squares.self_s", "double_squares.mate_calls", "double_squares.mate_s",
        "pairs.calls", "pairs.found", "pairs.s",
        "construct.census_calls", "construct.census_letters", "construct.census_s",
        "construct.pairs_calls", "construct.pairs_s", "construct.self_s",
        "sweep.census_s", "sweep.structure_calls", "sweep.structure_s", "sweep.blocks",
        "sweep.verify_s", "cli.overhead_s"), 0)
    for i in range(n):
        nid = tr.name[i]
        mod, a, d = module[nid], attr[nid], dur[i]
        if a in CENSUS and not in_census[i]:
            m["census.calls"] += 1
            m["census.letters"] += tr.size[i]
            m["census.s"] += d
        if a == "find_fs_double_squares" and not in_ds[i]:
            m["double_squares.calls"] += 1
            m["double_squares.found"] += tr.found[i]
            m["double_squares.s"] += d
            m["double_squares.self_s"] += d - census_children[i]
        if a == "classify_mate_detail":
            m["double_squares.mate_calls"] += 1
            m["double_squares.mate_s"] += d
        if a == "find_double_square_pairs" and not in_pairs[i]:
            m["pairs.calls"] += 1
            m["pairs.found"] += tr.found[i]
            m["pairs.s"] += d
        if mod == "construct":
            if a in CENSUS:
                m["construct.census_calls"] += 1
                m["construct.census_letters"] += tr.size[i]
                m["construct.census_s"] += d
            elif a == "find_double_square_pairs":
                m["construct.pairs_calls"] += 1
                m["construct.pairs_s"] += d
        elif mod == "sweep":
            if a in CENSUS:
                m["sweep.census_s"] += d
            elif a == "find_fs_double_squares":
                m["sweep.structure_calls"] += 1
                m["sweep.structure_s"] += d
            elif a in ("find_double_square_pairs", "classify_mate_detail"):
                m["sweep.structure_s"] += d
            elif a == "_process_block":
                m["sweep.blocks"] += 1
        elif mod == "cli":
            if a == "build_run":
                m["construct.self_s"] += d - children[i]
            elif a == "exhaustive_verify":
                m["sweep.verify_s"] += d
        elif mod == "main":
            m["cli.overhead_s"] += d - children[i]
    return m
