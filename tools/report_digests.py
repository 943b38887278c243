"""Digests of what each benchmark workload call prints and writes.

    python3 tools/report_digests.py > digests.txt

Runs every call of `perfbench.workloads.WORKLOADS` (seed 0, pass 0) as a fresh
`python -m hess2.cli <argv> --out <tmp>` on this checkout's `src/`, in the
environment the benchmark gives its children (one BLAS thread), and prints
one line per call:

    <name> exit=<code> stdout=<sha256> <file>=<sha256> ...

with the output files in sorted relative-path order.  Diffing the lines of two
checkouts shows which reports moved.  The 37 calls take a few minutes; their
outputs go to a temporary directory that is removed at the end.  perfbench's
workload table and child environment are read, never changed.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import child_env  # noqa: E402
from workloads import WORKLOADS, Call  # noqa: E402


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def digest_line(call: Call, workdir: Path) -> str:
    """Run one call with its outputs in workdir/<name> and describe what it left."""
    out = workdir / call.name
    proc = subprocess.run([sys.executable, "-m", "hess2.cli", *call.argv, "--out", str(out)],
                          stdout=subprocess.PIPE, env=child_env(), cwd=workdir, check=False)
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return " ".join([call.name, f"exit={proc.returncode}",
                     f"stdout={hashlib.sha256(proc.stdout).hexdigest()}",
                     *(f"{p.relative_to(out).as_posix()}={_sha256(p)}" for p in files)])


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="report-digests-") as tmp:
        for workload in WORKLOADS.values():
            for call in workload(0, 0):
                print(digest_line(call, Path(tmp)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
