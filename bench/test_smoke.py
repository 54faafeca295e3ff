"""Smoke test of the benchmark on tiny inputs.

    python3 -m pytest bench/test_smoke.py -q

Run from the root of a checkout.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCES = json.loads((BENCH_DIR / "references.json").read_text())


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct_and_complete(name, trace):
    result, info = run.measure(name, 5, 0, trace, ROOT, REFERENCES, tiny=True)
    assert result["correct"], info["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert info["error_rate"] == 0


@pytest.mark.parametrize("name", ["sweep-ter10-ckpt-j2", "analyze-long"])
def test_tampered_reference_counts_as_failed(name):
    wl = workloads.build_workload(name, 5, tiny=True)
    key = wl.ops[0].ref_key
    tampered = dict(REFERENCES, **{key: "0" * 64})
    result, info = run.measure(name, 5, 0, False, ROOT, tampered, tiny=True)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert 0 < info["error_rate"] <= 1


def test_build_check_rejects_a_wrong_T():
    op = workloads.build_workload("build-run7", 0, tiny=True).ops[0]
    text = json.dumps({"word": "abaababaab", "n": 10, "T": 1, "steps": []})
    assert workloads.check_output(op, text, {}) is not None


def _brute_census(codes: bytes) -> list[int]:
    last: dict[bytes, int] = {}
    n = len(codes)
    for i in range(n):
        for p in range(1, (n - i) // 2 + 1):
            if codes[i:i + p] == codes[i + p:i + 2 * p]:
                last[codes[i:i + 2 * p]] = i
    s = [0] * n
    for i in last.values():
        s[i] += 1
    return s


def test_independent_census_matches_brute_force():
    for k, top in ((2, 10), (3, 7)):
        for n in range(1, top + 1):
            for word in itertools.product(range(k), repeat=n):
                codes = bytes(word)
                assert workloads.rightmost_census(codes) == _brute_census(codes), codes


def test_canonical_word_count():
    assert workloads.canonical_word_count(2, 18) == 2 ** 18 - 1
    assert workloads.canonical_word_count(3, 12) == 132_866


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "sweep-bin14", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
