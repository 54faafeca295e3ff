"""Record the reference digests in ``references.json``.

    python3 bench/record_references.py

Run from the root of a checkout of a commit whose outputs are trusted: the
references then stay fixed while later versions of the code are measured
against them.  Covers the full and the tiny (smoke test) inputs, and every
entry of the random-word pool.  A key that already has a reference keeps
it; delete the file to record every reference afresh.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402
from fsdsq import cli  # noqa: E402


def main() -> int:
    ops = {}
    for tiny in (False, True):
        for seed in range(workloads.POOL_SIZE):
            for name in workloads.NAMES:
                wl = workloads.build_workload(name, seed, tiny)
                for op in wl.ops + wl.no_checkpoint_ops:
                    if op.ref_key and workloads.CHECKPOINT not in op.argv:
                        ops.setdefault(op.ref_key, op)
    path = BENCH_DIR / "references.json"
    references = json.loads(path.read_text()) if path.is_file() else {}
    for key, op in sorted(ops.items()):
        if key in references:
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(list(op.argv))
        if rc != 0:
            raise SystemExit(f"{key}: exit code {rc}")
        references[key] = workloads.output_digest(op.kind, out.getvalue())
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"{len(references)} references written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
