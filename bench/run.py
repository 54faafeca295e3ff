"""fsdsq benchmark: sweeps, long-word analysis and a run construction.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Every pass calls the user entry point ``fsdsq.cli.main(argv)``
in-process with stdout captured, as a closed loop with one caller; the
only extra processes are the sweep's own pool at ``--jobs 2``.  One
untimed warm-up pass comes first; then passes repeat while the next one is
expected to end within ``--seconds`` of the start (at least three are
timed).

Times are reported in reference seconds.  The host this was tuned on runs
everything up to twice as slow for seconds to minutes at a time, in CPU
time as much as in wall time.  So each call is timed on its own, between
two samples of a fixed pure-Python loop (``reference``), and divided by
their mean; a time is the median of these ratios over the run, times
``REF_NOMINAL_S``.  A slow spell slows the call and the loop alike, so it
cancels.  The raw times are in the information record.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a separate traced run (see
``spans.py``).  An information record (machine, inputs, error rate) is
printed first; the last line of stdout is the result object.  Each output
is checked (see ``workloads.py``); a mismatch counts as a failed
operation and never aborts the run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import CHECKPOINT  # noqa: E402

MIN_PASSES = 3
SETUP_REPEATS = 61
# reference() on an idle Intel Xeon with CPython 3.11; it only sets the
# scale of the reported times.
REF_NOMINAL_S = 0.00175


_REFERENCE_CODES = bytes(range(256)) * 2


def reference() -> float:
    """Seconds taken by a fixed pure-Python loop that slices and compares
    bytes, the kind of work the census does.  Of the loops tried it tracked
    the host's slow spells best."""
    codes = _REFERENCE_CODES
    s = [0] * 64
    total = 0
    t0 = time.perf_counter()
    for _ in range(24):
        for i in range(64):
            p = 1
            while p < 8:
                if codes[i:i + p] == codes[i + p:i + 2 * p]:
                    s[i] += 1
                p += 1
            total += s[i]
    return time.perf_counter() - t0


class Reference:
    """Reference samples taken between the timed calls."""

    def __init__(self) -> None:
        self.samples = [reference()]

    def scale(self) -> float:
        """Call after a timed call: REF_NOMINAL_S over the mean of the
        samples right before and right after it."""
        before = self.samples[-1]
        self.samples.append(reference())
        return REF_NOMINAL_S * 2 / (before + self.samples[-1])


@dataclass
class Pass:
    wall: float = 0.0
    cpu_self: float = 0.0
    cpu_children: float = 0.0
    wchar: int = 0
    family_s: dict = field(default_factory=dict)
    output_bytes: int = 0


class Runner:
    """Calls the CLI and keeps, per operation, the exit code and a key to
    its output; distinct outputs are checked once, after the timed passes."""

    def __init__(self, cli, tmp_dir: Path) -> None:
        self.cli = cli
        self.tmp_dir = tmp_dir
        self.calls: list[tuple[workloads.Op, object, int]] = []
        self.outputs: dict[tuple[workloads.Op, str], int] = {}
        self.texts: list[str] = []
        self.errors: list[str] = []

    def call(self, op: workloads.Op) -> tuple[float, float, int]:
        """(wall, cpu self plus reaped children, output length) of one call."""
        checkpoint = self.tmp_dir / f"sweep-{len(self.calls)}.ck"
        argv = [str(checkpoint) if a == CHECKPOINT else a for a in op.argv]
        out, err = io.StringIO(), io.StringIO()
        cpu_0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is one failed operation, not the end of the run
            rc = "exception"
            err.write(traceback.format_exc())
        wall = time.perf_counter() - t0
        cpu = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu_0
        for leftover in (checkpoint, Path(f"{checkpoint}.tmp")):
            leftover.unlink(missing_ok=True)
        text = out.getvalue()
        key = (op, text)
        index = self.outputs.get(key)
        if index is None:
            index = self.outputs[key] = len(self.texts)
            self.texts.append(text)
        self.calls.append((op, rc, index))
        if rc != 0:
            self.errors.append(f"{op.kind} exited {rc!r}: {err.getvalue()[-2000:]}")
        return wall, cpu, len(text)

    def run_pass(self, ops: list[workloads.Op], tracer: spans.Tracer | None = None) -> Pass:
        p = Pass()
        self_0, children_0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
        wchar_0 = _wchar()
        t0 = time.perf_counter()
        for op in ops:
            if tracer is None:
                wall, _, nbytes = self.call(op)
            else:
                with tracer.span("main"):
                    wall, _, nbytes = self.call(op)
            p.family_s[op.family] = p.family_s.get(op.family, 0.0) + wall
            p.output_bytes += nbytes
        p.wall = time.perf_counter() - t0
        p.wchar = _wchar() - wchar_0
        p.cpu_self = _cpu(resource.RUSAGE_SELF) - self_0
        p.cpu_children = _cpu(resource.RUSAGE_CHILDREN) - children_0
        return p

    def check(self, references: dict) -> tuple[int, int]:
        """(attempted, failed): an operation fails on a nonzero exit or a
        wrong output."""
        verdicts: dict[int, str | None] = {}
        for (op, _), index in self.outputs.items():
            verdicts[index] = workloads.check_output(op, self.texts[index], references)
        failed = 0
        for op, rc, index in self.calls:
            if rc != 0 or verdicts[index] is not None:
                failed += 1
                if verdicts[index] is not None:
                    self.errors.append(verdicts[index])
        return len(self.calls), failed

    def text_of(self, op: workloads.Op) -> str:
        for (o, _), index in self.outputs.items():
            if o == op:
                return self.texts[index]
        return ""


def _cpu(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _wchar() -> int:
    """Bytes this process passed to write calls, from /proc/self/io."""
    try:
        with open("/proc/self/io", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _fits(start: float, step_s: float, seconds: float) -> bool:
    """Whether one more step of ``step_s`` ends within ``seconds`` of start."""
    return time.perf_counter() - start + step_s <= seconds


# -------------------------------------------------------------------- setup

def setup(name: str, seed: int, tiny: bool):
    """Import the package and build the inputs, SETUP_REPEATS times from a
    clean module table; setup_s is the median in reference seconds."""
    ref = Reference()
    times = []
    for _ in range(SETUP_REPEATS):
        for mod in [m for m in sys.modules if m == "fsdsq" or m.startswith("fsdsq.")]:
            del sys.modules[mod]
        gc.collect()  # each repeat starts without the garbage of the previous one
        t0 = time.perf_counter()
        cli = importlib.import_module("fsdsq.cli")
        wl = workloads.build_workload(name, seed, tiny)
        seconds = time.perf_counter() - t0
        times.append(seconds * ref.scale())
    return cli, wl, median(times)


# ----------------------------------------------------------------- measures

def timed_run(runner: Runner, wl: workloads.Workload, seconds: float,
              setup_s: float) -> tuple[dict, dict]:
    """A pass's wall and CPU time: per call, the median in reference
    seconds, summed over the calls of the pass."""
    start = time.perf_counter()
    # The first pass of a process runs measurably slower (the heap is still
    # growing), so it warms up and is not timed.
    runner.run_pass(wl.ops)
    walls: list[list[float]] = [[] for _ in wl.ops]
    cpus: list[list[float]] = [[] for _ in wl.ops]
    pass_walls: list[float] = []
    ref = Reference()
    while (len(pass_walls) < MIN_PASSES
           or _fits(start, median(pass_walls) + REF_NOMINAL_S * len(wl.ops), seconds)):
        pass_wall = 0.0
        for j, op in enumerate(wl.ops):
            wall, cpu, _ = runner.call(op)
            scale = ref.scale()
            walls[j].append(wall * scale)
            cpus[j].append(cpu * scale)
            pass_wall += wall
        pass_walls.append(pass_wall)
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    wall_s = sum(median(w) for w in walls)
    metrics = {
        "wall_s": (wall_s, "s"),
        "cpu_s": (sum(median(c) for c in cpus), "s"),
        "peak_rss_kb": (peak_kb, "KiB"),
        "words_per_s": (wl.words / wall_s, "1/s"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, {"passes": len(pass_walls), "raw_pass_wall_median_s": median(pass_walls),
                     "reference_median_s": median(ref.samples), "call_wall_ref_s": walls}


def _enumerate_s(wl: workloads.Workload) -> float:
    """Replay of the sweep's enumeration through the public enumerator."""
    sweep = sys.modules["fsdsq.sweep"]
    enumerate_words = getattr(sweep, "iter_canonical_words", None)
    if wl.sweep is None or enumerate_words is None:
        return 0.0
    alphabet_size, max_len = wl.sweep
    t0 = time.perf_counter()
    for n in range(1, max_len + 1):
        for _ in enumerate_words(alphabet_size, n):
            pass
    return time.perf_counter() - t0


def traced_round(runner: Runner, wl: workloads.Workload) -> tuple[dict, spans.Tracer]:
    plain = runner.run_pass(wl.ops)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = runner.run_pass(wl.trace_ops, tracer)
    plain_traced_ops = plain if wl.trace_ops is wl.ops else runner.run_pass(wl.trace_ops)
    m = spans.layer_metrics(tracer)
    m["census.letters_per_s"] = m["census.letters"] / m["census.s"] if m["census.s"] else 0.0

    moves = sum(workloads.accepted_moves(runner.text_of(op))
                for op in wl.trace_ops if op.kind == "build")
    calls = m["construct.census_calls"]
    m["construct.useful_ratio"] = moves / calls if calls else 0.0

    enumerate_s = _enumerate_s(wl)
    verify_s = m.pop("sweep.verify_s")
    m["sweep.enumerate_s"] = enumerate_s
    m["sweep.hit_ratio"] = (m["sweep.structure_calls"] / wl.words) if wl.sweep else 0.0
    m["sweep.overhead_s"] = (verify_s - enumerate_s - m["sweep.census_s"]
                             - m["sweep.structure_s"]) if wl.sweep else 0.0
    m["sweep.checkpoint_s"] = 0.0
    m["sweep.checkpoint_wchar_bytes"] = 0
    m["sweep.parallel_speedup"] = 0.0
    if wl.no_checkpoint_ops:
        bare = runner.run_pass(wl.no_checkpoint_ops)
        m["sweep.checkpoint_s"] = plain_traced_ops.wall - bare.wall
        m["sweep.checkpoint_wchar_bytes"] = plain_traced_ops.wchar - bare.wchar
        m["sweep.parallel_speedup"] = plain_traced_ops.wall / plain.wall
    m["sweep.parent_cpu_s"] = plain.cpu_self if wl.sweep else 0.0
    m["sweep.worker_cpu_s"] = plain.cpu_children if wl.sweep else 0.0

    m["cli.output_bytes"] = traced.output_bytes
    m["trace.overhead_s"] = traced.wall - plain_traced_ops.wall
    for family in ("fib", "random", "unary"):
        m[f"family.{family}_s"] = plain.family_s.get(family, 0.0)
    return m, tracer


PER_LAYER_UNITS = {
    "letters": "letters", "found": "count", "calls": "count", "blocks": "count",
    "bytes": "B", "ratio": "ratio", "speedup": "ratio", "per_s": "letters/s",
}


def _layer_unit(name: str) -> str:
    tail = name.rsplit(".", 1)[-1]
    for suffix, unit in PER_LAYER_UNITS.items():
        if tail.endswith(suffix):
            return unit
    return "s"


def traced_run(runner: Runner, wl: workloads.Workload, seconds: float,
               out_dir: Path) -> tuple[dict, dict]:
    rounds = []
    start = time.perf_counter()
    while not rounds or _fits(start, (time.perf_counter() - start) / len(rounds), seconds):
        m, tracer = traced_round(runner, wl)
        rounds.append(m)
    tracer.write_tsv(out_dir / f"spans-{wl.name}.tsv")
    metrics = {name: (median(r[name] for r in rounds), _layer_unit(name))
               for name in sorted(rounds[0])}
    return metrics, {"rounds": len(rounds)}


# ------------------------------------------------------------------ machine

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem(path: Path) -> str:
    """Type of the mount that holds ``path``, from /proc/self/mounts."""
    best, fstype = "", "unknown"
    target = str(path.resolve())
    try:
        with open("/proc/self/mounts", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) >= 3 and (target == parts[1]
                                        or target.startswith(parts[1].rstrip("/") + "/")):
                    if len(parts[1]) > len(best):
                        best, fstype = parts[1], parts[2]
    except OSError:
        pass
    return fstype


def _git_commit(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# --------------------------------------------------------------------- main

def measure(name: str, seed: int, seconds: float, trace: bool, root: Path,
            references: dict, tiny: bool = False) -> tuple[dict, dict]:
    """One benchmark run: (result object, information record)."""
    cli, wl, setup_s = setup(name, seed, tiny)
    src = (root / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"fsdsq was imported from {cli.__file__}, not from {src}")
    tmp_root = root / ".bench_tmp"
    tmp_dir = tmp_root / f"{name}-{os.getpid()}"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    runner = Runner(cli, tmp_dir)
    try:
        if trace:
            metrics, measured = traced_run(runner, wl, seconds, out_dir)
        else:
            metrics, measured = timed_run(runner, wl, seconds, setup_s)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    attempted, failed = runner.check(references)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    info = {
        "workload": name, "seed": seed, "trace": int(trace), "measured": measured,
        "error_rate": failed / attempted, "errors": runner.errors[:5],
        "inputs": wl.sizes, "nproc": os.cpu_count(),
        "python": platform.python_version(), "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root), "checkpoint_fs": _filesystem(tmp_root),
    }
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fsdsq" / "cli.py").is_file():
        print(f"error: no fsdsq sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    references = json.loads((BENCH_DIR / "references.json").read_text())
    result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                           root, references)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
