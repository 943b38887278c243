"""Self-tests of the benchmark harness: metrics, oracle, seeds, output directories."""

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _call(workload: str, name: str, seed: int = 1) -> workloads.Call:
    return next(c for c in workloads.WORKLOADS[workload](seed) if c.name == name)


def _fake_result(call, traced, pass_index=0, wall=2.0, ok=True):
    spans = [["cli.main", 0.0, 1.0, -1], ["solver.grid", 0.1, 0.9, 0],
             ["solver.spsolve", 0.2, 0.5, 1]]
    counts = dict.fromkeys(tracer.COUNTERS, 3)
    layers = tracer.layer_metrics(spans, counts) if traced else {}
    return run.CallResult(call, traced, pass_index, call.exit_code, wall, 1.0, 0.5, 80.0,
                          100, ok, (), layers)


def test_layer_self_times_subtract_direct_children():
    spans = [["cli.main", 0.0, 1.0, -1], ["solver.grid", 0.1, 0.9, 0],
             ["solver.spsolve", 0.2, 0.5, 1], ["solver.spsolve", 0.5, 0.6, 1]]
    out = tracer.layer_metrics(spans, dict.fromkeys(tracer.COUNTERS, 0))
    assert out["cli.self_s"] == pytest.approx(0.2)
    assert out["solver.grid_self_s"] == pytest.approx(0.4)
    assert out["solver.spsolve_s"] == pytest.approx(0.4)
    assert out["solver.spsolve_calls"] == 2


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_prints_with_name_and_unit(workload, trace):
    results = []
    for call in workloads.WORKLOADS[workload](1):
        results += [_fake_result(call, False)] + ([_fake_result(call, True)] if trace else [])
    lines = []
    summary = run.summarize(workload, results, trace, log=lines.append)
    table = run.PER_LAYER if trace else run.END_TO_END
    assert set(summary["metrics"]) == set(table)
    for name, (unit, _) in table.items():
        assert summary["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"  {name} = ") and line.endswith(f" {unit}") for line in lines)
    json.dumps(summary)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _run_child(call, out: Path):
    record = out.parent / "record.json"
    env = dict(run.child_env(), PERFBENCH_RECORD=str(record), PERFBENCH_SPAWN=repr(time.monotonic()))
    proc = subprocess.run([sys.executable, str(run.CHILD), *call.argv, "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert json.loads(record.read_text())["exit"] == proc.returncode
    return proc


def test_oracle_rejects_perturbed_reference(tmp_path):
    call = _call("radial", "radial.solve.dim3.exp-dec")
    proc = _run_child(call, tmp_path / "out")
    assert workloads.judge(call, proc.returncode, tmp_path / "out", proc.stdout).ok
    for k, check in enumerate(call.checks):
        if check.op == "near":
            moved = replace(check, expect=check.expect + 10 * check.tol)
        elif check.op in ("ge", "le"):
            continue
        else:
            moved = replace(check, expect=not check.expect)
        bad = replace(call, checks=call.checks[:k] + (moved,) + call.checks[k + 1:])
        assert not workloads.judge(bad, proc.returncode, tmp_path / "out", proc.stdout).ok, check.label
    wrong_exit = replace(call, exit_code=1)
    assert not workloads.judge(wrong_exit, proc.returncode, tmp_path / "out", proc.stdout).ok


def test_traced_child_records_layer_spans(tmp_path):
    call = _call("radial", "radial.verify.app1")
    res = run.run_call(call, tmp_path / "call", True, 0, run.child_env())
    assert res.ok and res.traced
    assert res.layers["solver.radial_s"] > 0 and res.layers["solver.picard_passes"] > 0
    assert res.layers["analysis.source_integral_s"] > 0 and res.layers["analysis.quad_calls"] > 0
    assert res.layers["cli.self_s"] > 0 and res.layers["cli.report_bytes"] == res.report_bytes
    assert res.layers["domain.grid_nodes"] == 0


def test_seed_changes_ineq_and_scan_inputs_only():
    for name, make in workloads.WORKLOADS.items():
        first, again, other = make(1), make(1), make(2)
        assert [c.argv for c in first] == [c.argv for c in again]
        for a, b in zip(first, other):
            seeded = a.argv[0] in ("ineq", "identity-scan")
            assert (a.argv != b.argv) == seeded, a.name


def test_each_call_gets_a_fresh_output_directory(tmp_path, monkeypatch):
    call = _call("radial", "radial.verify.app3.p2.5")
    env = run.child_env()
    first = run.run_call(call, tmp_path / "a", False, 0, env)
    second = run.run_call(call, tmp_path / "b", False, 0, env)
    assert first.ok and second.ok
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()
    (tmp_path / "c").mkdir()
    with pytest.raises(FileExistsError):
        run.run_call(call, tmp_path / "c", False, 0, env)

    seen = []

    def fake_run_call(call, call_dir, traced, pass_index, env):
        assert not call_dir.exists()
        seen.append(call_dir)
        return _fake_result(call, traced, pass_index)
    monkeypatch.setattr(run, "run_call", fake_run_call)
    for name in workloads.WORKLOADS:
        run.run_workload(name, 1, 0.0, True, tmp_path / name, log=lambda line: None)
    assert len(seen) == len(set(seen)) == 2 * sum(len(w(1)) for w in workloads.WORKLOADS.values())


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for path in BENCH.glob("*.py"):
        (bare / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "radial"],
                          cwd=bare, capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
