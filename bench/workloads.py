"""Workload inputs and the output checks of the fsdsq benchmark.

Every operation is one ``fsdsq`` CLI call.  Its output is checked against
something that does not depend on the code under test:

* sweeps: the sha256 of the deterministic JSON report, recorded in
  ``references.json``;
* analyze: the sha256 of a canonical projection of ``s``, the double
  squares and the pairs with their mates, also recorded;
* build: invariants only (T reaches the target, T re-derived by the
  independent census below, 7T < n), so a legitimate construction fix
  still passes.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field

# Random analyze inputs come from a recorded pool: the seed picks entry
# ``seed % POOL_SIZE``, so every seed has a full reference.
POOL_SIZE = 16
CHECKPOINT = "{checkpoint}"

NAMES = ("sweep-bin14", "sweep-ter10-ckpt-j2", "analyze-long", "build-run7")


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``kind`` selects the output check; ``CHECKPOINT`` in
    ``argv`` is replaced by a fresh file path at call time."""

    argv: tuple[str, ...]
    kind: str  # "sweep" | "analyze" | "build"
    family: str
    words: int
    ref_key: str = ""
    target: int = 0


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # Traced pass: sweeps at jobs=1, because wrappers in forked workers do
    # not report back.
    trace_ops: list[Op]
    sizes: dict
    # The traced sweep without its checkpoint, for sweep.checkpoint_s.
    no_checkpoint_ops: list[Op] = field(default_factory=list)
    sweep: tuple[int, int] | None = None  # (alphabet_size, max_len)

    @property
    def words(self) -> int:
        return sum(op.words for op in self.ops)


# ------------------------------------------------------------------- inputs

def fibonacci_prefix(n: int) -> str:
    a, b = "a", "ab"
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def pool_word(alphabet_size: int, n: int, index: int) -> str:
    rng = random.Random(f"fsdsq-bench-{alphabet_size}-{n}-{index}")
    letters = "abcdefghijklmnopqrstuvwxyz"[:alphabet_size]
    return "".join(rng.choice(letters) for _ in range(n))


def canonical_word_count(alphabet_size: int, max_len: int) -> int:
    """Words of length 1..max_len up to renaming: sums of Stirling numbers
    of the second kind S(n, j) for j <= alphabet_size."""
    row = [1]  # S(0, j)
    total = 0
    for n in range(1, max_len + 1):
        nxt = [0] * (n + 1)
        for j in range(1, n + 1):
            nxt[j] = j * (row[j] if j < len(row) else 0) + row[j - 1]
        row = nxt
        total += sum(row[1:alphabet_size + 1])
    return total


def _sweep_op(alphabet_size: int, max_len: int, jobs: int, checkpoint: bool) -> Op:
    argv = ["verify", "--alphabet-size", str(alphabet_size), "--max-len", str(max_len),
            "--jobs", str(jobs)]
    if checkpoint:
        argv += ["--checkpoint", CHECKPOINT]
    argv += ["--deterministic", "--format", "json"]
    return Op(tuple(argv), "sweep", "sweep", canonical_word_count(alphabet_size, max_len),
              ref_key=f"verify:{alphabet_size}:{max_len}")


def analyze_key(word: str) -> str:
    return "analyze:" + hashlib.sha256(word.encode("ascii")).hexdigest()


def _analyze_op(word: str, family: str) -> Op:
    return Op(("analyze", word, "--format", "json"), "analyze", family, 1,
              ref_key=analyze_key(word))


# Full sizes and the tiny sizes of the smoke test.  Each full-size call takes
# well under a second, so a run times every call many times (see run.py).
SIZES = {
    False: {"bin": 14, "ter": 10, "fib": 2000, "random": 1500, "unary": 10_000, "target": 7},
    True: {"bin": 8, "ter": 5, "fib": 300, "random": 80, "unary": 200, "target": 3},
}


def build_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    size = SIZES[tiny]
    if name == "sweep-bin14":
        op = _sweep_op(2, size["bin"], 1, False)
        return Workload(name, [op], [op], {"alphabet_size": 2, "max_len": size["bin"],
                                            "words": op.words}, sweep=(2, size["bin"]))
    if name == "sweep-ter10-ckpt-j2":
        op = _sweep_op(3, size["ter"], 2, True)
        return Workload(name, [op], [_sweep_op(3, size["ter"], 1, True)],
                        {"alphabet_size": 3, "max_len": size["ter"], "words": op.words},
                        no_checkpoint_ops=[_sweep_op(3, size["ter"], 1, False)],
                        sweep=(3, size["ter"]))
    if name == "analyze-long":
        index = seed % POOL_SIZE
        ops = [_analyze_op(fibonacci_prefix(size["fib"]), "fib"),
               _analyze_op(pool_word(2, size["random"], index), "random"),
               _analyze_op(pool_word(3, size["random"], index), "random"),
               _analyze_op("a" * size["unary"], "unary")]
        return Workload(name, ops, ops, {
            "fibonacci": size["fib"], "random_binary": size["random"],
            "random_ternary": size["random"], "unary": size["unary"],
            "pool_index": index})
    if name == "build-run7":
        op = Op(("generate", "--kind", "run", "--target", str(size["target"]),
                 "--format", "json"), "build", "build", 1, target=size["target"])
        return Workload(name, [op], [op], {"target": size["target"]})
    raise ValueError(f"unknown workload {name!r}")


# ------------------------------------------------------------------- checks

def rightmost_census(codes: bytes) -> list[int]:
    """s_i of every position, computed without the package.

    For each root length p, the XOR of the word with its shift by p is zero
    exactly where w[i] == w[i+p]; a zero run [a, b) of length >= p holds the
    squares with root p starting at a..b-p.  Inside the run the square at i
    recurs at i+p, so only starts past b-2p can be rightmost, and each is
    confirmed by searching for a later occurrence.
    """
    n = len(codes)
    s = [0] * n
    for p in range(1, n // 2 + 1):
        m = n - p
        diff = (int.from_bytes(codes[:m], "big")
                ^ int.from_bytes(codes[p:], "big")).to_bytes(m, "big")
        for match in re.finditer(rb"(?<!\x00)\x00{%d,}" % p, diff):
            a, b = match.span()
            for i in range(max(a, b - 2 * p + 1), b - p + 1):
                if codes.find(codes[i:i + 2 * p], i + 1) == -1:
                    s[i] += 1
    return s


def longest_run_of_twos(s: list[int]) -> int:
    best = run = 0
    for v in s:
        run = run + 1 if v == 2 else 0
        best = max(best, run)
    return best


def output_digest(kind: str, text: str) -> str:
    """What a reference records: the raw sha256 for sweeps, the sha256 of
    the canonical projection for analyze."""
    if kind == "sweep":
        return hashlib.sha256(text.encode()).hexdigest()
    payload = json.loads(text)
    projection = {
        "s": payload["s"],
        "double_squares": [[d["position"], d["sq_len"], d["SQ_len"], d["x1"], d["x2"],
                            d["p1"], d["p2"]] for d in payload["double_squares"]],
        "pairs": [[p["position"], p["kind"], p["first"]["position"],
                   p["second"]["position"], p["mate"]] for p in payload["pairs"]],
    }
    blob = json.dumps(projection, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def check_output(op: Op, text: str, references: dict) -> str | None:
    """None when the output is right, else what is wrong with it."""
    try:
        if op.kind == "build":
            return _check_build(op, text)
        if op.kind == "analyze" and json.loads(text)["findings"]:
            return "analyze reported findings"
        expected = references.get(op.ref_key)
        if expected is None:
            return f"no reference for {op.ref_key}"
        if output_digest(op.kind, text) != expected:
            return f"output differs from the reference for {op.ref_key}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    return None


def _check_build(op: Op, text: str) -> str | None:
    payload = json.loads(text)
    word, n, t = payload["word"], payload["n"], payload["T"]
    if len(word) != n:
        return f"n = {n} but the word has {len(word)} letters"
    if t < op.target:
        return f"T = {t} is below the target {op.target}"
    derived = longest_run_of_twos(rightmost_census(word.encode("ascii")))
    if derived != t:
        return f"reported T = {t}, census of the word gives {derived}"
    if 7 * t >= n:
        return f"7T < n fails: 7*{t} >= {n}"
    return None


def accepted_moves(text: str) -> int:
    """Construction moves a build accepted: one per appended equal letter,
    one per unequal step."""
    steps = json.loads(text)["steps"]
    return sum(len(s["letters"]) if s["kind"] == "equal" else 1 for s in steps)
