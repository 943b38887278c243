import hashlib
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digests.py"


def _tool():
    spec = importlib.util.spec_from_file_location("report_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_line_names_the_exit_code_stdout_and_each_file(tmp_path):
    tool = _tool()
    call = next(c for c in tool.WORKLOADS["radial"](0, 0) if c.name == "radial.solve.dim2.const")
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    line = tool.digest_line(call, tmp_path / "a")
    # The line depends on the call only, not on where its outputs go.
    assert tool.digest_line(call, tmp_path / "b") == line
    name, code, stdout, *files = line.split()
    assert (name, code) == (call.name, f"exit={call.exit_code}")
    assert stdout.startswith("stdout=") and len(stdout) == len("stdout=") + 64
    out = tmp_path / "a" / call.name
    assert files == [f"{p}={hashlib.sha256((out / p).read_bytes()).hexdigest()}"
                     for p in ("profile.dat", "solution.npz", "summary.json")]
