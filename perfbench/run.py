"""hess2 benchmark: closed-loop mixes of CLI calls, each a fresh process.

    python3 perfbench/run.py --workload {campaign,planar,radial,all}
                             [--seed N] [--seconds S] [--trace 0|1]

One client keeps one call in flight.  A run makes whole passes over the
workload's mix, as many as `--seconds` allots (see PASS_S), checks every call
against its oracle (see workloads.py) and prints one line per call, every
metric with its unit, and as the last line a JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones; with `--trace 1` every call runs twice, untraced then traced, and the
metrics are the per-layer ones from the traced calls.

Call outputs go to fresh directories under `.perfbench/` in the repository
root and are removed once checked; the full result of the run is kept there
as JSON.  It needs the repository's `src/` tree and exits 2 without one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS, Call, judge  # noqa: E402

# name -> (unit, better).  BENCHMARK.json lists the same metrics.
END_TO_END = {
    "wall_s": ("s", "lower"),           # one pass over the mix: sum of child walls, median over passes
    "op_p50_s": ("s", "lower"),         # median child wall per call
    "setup_s": ("s", "lower"),          # median per call of child wall minus time in cli.main
    "peak_rss_mb": ("MB", "lower"),     # largest child peak RSS (os.wait4)
    "items_per_s": ("1/s", "higher"),   # work of calls that passed, per second of child wall
}
PER_LAYER = {
    "startup.import_s": ("s", "lower"),  # median per call: spawn to `import hess2.cli` done
    "cli.self_s": ("s", "lower"),
    "cli.report_bytes": ("bytes", "lower"),
    "symmat.sample_batch_s": ("s", "lower"),
    "symmat.samples": ("count", "higher"),
    "symmat.jacobi_eigh_s": ("s", "lower"),
    "symmat.jacobi_eigh_calls": ("count", "lower"),
    "matineq.campaign_self_s": ("s", "lower"),
    "domain.rasterize_s": ("s", "lower"),
    "domain.grid_nodes": ("count", "higher"),
    "solver.build_operators_s": ("s", "lower"),
    "solver.operator_nnz": ("count", "lower"),
    "solver.factorized_s": ("s", "lower"),
    "solver.lap_solves": ("count", "lower"),
    "solver.spsolve_s": ("s", "lower"),
    "solver.spsolve_calls": ("count", "lower"),
    "solver.newton_iterations": ("count", "lower"),
    "solver.grid_self_s": ("s", "lower"),
    "solver.radial_s": ("s", "lower"),
    "solver.picard_passes": ("count", "lower"),
    "solver.admissibility_s": ("s", "lower"),
    "analysis.source_integral_s": ("s", "lower"),
    "analysis.quad_calls": ("count", "lower"),
    "analysis.boundary_samples_s": ("s", "lower"),
    "analysis.convexity_scan_s": ("s", "lower"),
    "fields.pointwise_s": ("s", "lower"),
    "fields.pointwise_calls": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),   # traced child wall / untraced child wall
    "trace.uncovered_share": ("ratio", "lower"),  # share of traced child wall outside startup and cli.main
}
# Work credited per passing call, by workload.
ITEMS = {"campaign": "matrix samples", "planar": "inside grid nodes", "radial": "calls"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CALL_LIMIT_S = 170.0   # a child still running after this is killed
RUN_LIMIT_S = 150.0    # no pass is started that would end after this
REF_PROBE_S = 0.012    # probe() time on a quiet 2.1 GHz x86_64 host (see CallResult.scale)
PROBES_PER_CALL = 4    # probes run back to back before and again after each call
# Seconds of run time allotted to one pass over each mix; a run makes
# round(seconds / PASS_S) passes (half as many traced), at least one, so the
# work of a run is fixed.  One plain pass takes about 11, 19 and 20 s on the
# reference host, so 30 s gives 3, 2 and 1 passes.
PASS_S = {"campaign": 10.0, "planar": 15.0, "radial": 30.0}


@dataclass
class CallResult:
    call: Call
    traced: bool
    pass_index: int
    exit_code: int
    wall_s: float
    main_s: float
    import_s: float
    rss_mb: float
    report_bytes: int
    ok: bool
    lines: tuple
    layers: dict = field(default_factory=dict)
    probes: list = field(default_factory=list)

    @property
    def scale(self) -> float:
        """REF_PROBE_S over the median probe around this call: above 1 on a slow host."""
        return REF_PROBE_S / statistics.median(self.probes) if self.probes else 1.0

    @property
    def known(self) -> bool:
        return not self.ok and self.call.known_failure is not None


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hess2").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "git_commit": commit, "src_sha256": digest.hexdigest()[:16],
        "loadavg_start": list(os.getloadavg()), "threads": child_env()[THREAD_VARS[0]],
        "dont_write_bytecode": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # One BLAS/OpenMP thread (at most nproc): every kernel here is small or
    # single-threaded already, and one thread keeps repeated runs steady.
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def probe() -> float:
    """Time of a fixed pure-Python loop: a gauge of how fast the host runs now."""
    start = time.perf_counter()
    acc = 0
    for k in range(200_000):
        acc += k * k
    return time.perf_counter() - start


def run_call(call: Call, call_dir: Path, traced: bool, pass_index: int, env: dict) -> CallResult:
    """Run one call as a fresh child process in a fresh directory and judge it."""
    call_dir.mkdir(exist_ok=False)
    out, record_path = call_dir / "out", call_dir / "record.json"
    env = dict(env, PERFBENCH_RECORD=str(record_path), PERFBENCH_TRACE="1" if traced else "0")
    argv = [sys.executable, str(CHILD), *call.argv, "--out", str(out)]
    probes = [probe() for _ in range(PROBES_PER_CALL)]
    env["PERFBENCH_SPAWN"] = repr(time.monotonic())
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            cwd=call_dir, env=env)
    watchdog = threading.Timer(CALL_LIMIT_S, proc.kill)
    watchdog.start()
    try:
        stdout = proc.stdout.read().decode(errors="replace")
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        watchdog.cancel()
        proc.stdout.close()
    probes += [probe() for _ in range(PROBES_PER_CALL)]
    proc.returncode = exit_code = os.waitstatus_to_exitcode(status)
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):
        record = {"import_s": float("nan"), "main_s": float("nan")}
    verdict = judge(call, exit_code, out, stdout)
    report_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) if out.is_dir() else 0
    layers = {}
    if traced and "spans" in record:
        layers = layer_metrics(record["spans"], record["counts"])
        layers["cli.report_bytes"] = report_bytes
    shutil.rmtree(call_dir)
    return CallResult(call, traced, pass_index, exit_code, wall, record["main_s"],
                      record["import_s"], usage.ru_maxrss / 1024.0, report_bytes,
                      verdict.ok, verdict.lines, layers, probes)


def run_workload(name: str, seed: int, seconds: float, trace: bool, run_dir: Path,
                 log=print) -> list[CallResult]:
    env = child_env()
    results: list[CallResult] = []
    start = time.perf_counter()
    passes = max(1, round(seconds / (PASS_S[name] * (2 if trace else 1))))
    for pass_index in range(passes):
        if pass_index and time.perf_counter() - start > RUN_LIMIT_S * pass_index / (pass_index + 1):
            break
        for i, call in enumerate(WORKLOADS[name](seed, pass_index)):
            for traced in ((False, True) if trace else (False,)):
                tag = f"p{pass_index:02d}-c{i:02d}-{'t' if traced else 'u'}"
                res = run_call(call, run_dir / tag, traced, pass_index, env)
                results.append(res)
                log(verdict_line(res))
                for line in res.lines if not res.ok else ():
                    log(f"      {line}")
    return results


def verdict_line(res: CallResult) -> str:
    state = "PASS" if res.ok else ("FAIL known" if res.known else "FAIL")
    mode = "traced" if res.traced else "plain"
    text = f"  {state:<10} {res.call.name:<32} exit={res.exit_code} {res.wall_s:7.3f} s {mode}"
    if res.known:
        text += f"  ({res.call.known_failure})"
    return text


def tail(walls: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten calls beyond it, as (percent, value)."""
    n = len(walls)
    if n < 11:
        return None
    ordered = sorted(walls)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(results: list[CallResult], scaled: bool = True) -> dict[str, float]:
    """End-to-end metrics of the plain calls.

    With `scaled`, each call's times are multiplied by its `scale`: the host
    this was measured on changes speed by up to 40 % within tens of seconds,
    and the probes run next to each call on the same CPU track that change.
    """
    plain = [r for r in results if not r.traced]
    factors = [r.scale if scaled else 1.0 for r in plain]
    walls = [f * r.wall_s for f, r in zip(factors, plain)]
    passes: dict[int, float] = {}
    for r, wall in zip(plain, walls):
        passes[r.pass_index] = passes.get(r.pass_index, 0.0) + wall
    return {
        "wall_s": statistics.median(passes.values()),
        "op_p50_s": statistics.median(walls),
        "setup_s": statistics.median(f * (r.wall_s - r.main_s) for f, r in zip(factors, plain)),
        "peak_rss_mb": max(r.rss_mb for r in plain),
        "items_per_s": sum(r.call.items for r in plain if r.ok) / sum(walls),
    }


def per_layer(results: list[CallResult]) -> dict[str, float]:
    traced = [r for r in results if r.traced]
    plain = [r for r in results if not r.traced]
    n_pass = len({r.pass_index for r in traced})
    out = {}
    for metric in PER_LAYER:
        if metric.startswith(("startup.", "trace.")):
            continue
        out[metric] = sum(r.layers.get(metric, 0) for r in traced) / n_pass
    traced_wall = sum(r.wall_s for r in traced)
    out["startup.import_s"] = statistics.median(r.import_s for r in traced)
    out["trace.overhead_ratio"] = (sum(r.scale * r.wall_s for r in traced)
                                   / sum(r.scale * r.wall_s for r in plain))
    out["trace.uncovered_share"] = sum(r.wall_s - r.import_s - r.main_s for r in traced) / traced_wall
    return out


def summarize(name: str, results: list[CallResult], trace: bool, log=print) -> dict:
    attempted = len(results)
    failed = sum(not r.ok for r in results)
    unexpected = sorted({r.call.name for r in results if not r.ok and not r.known})
    known = sorted({r.call.name for r in results if r.known})
    metrics = per_layer(results) if trace else end_to_end(results)
    units = PER_LAYER if trace else END_TO_END
    log(f"{name}: {attempted} calls, {failed} failed, fail_ratio = {failed / attempted:.4f}")
    probes = [t for r in results for t in r.probes]
    if probes:
        log(f"  host probe: median {statistics.median(probes) * 1e3:.2f} ms over {len(probes)}, "
            f"reference {REF_PROBE_S * 1e3:.2f} ms")
    if known:
        log(f"  known baseline failures: {', '.join(known)}")
    if unexpected:
        log(f"  UNEXPECTED failures: {', '.join(unexpected)}")
    for metric, value in metrics.items():
        log(f"  {metric} = {value:.6g} {units[metric][0]}")
    if not trace:
        raw = end_to_end(results, scaled=False)
        log("  unscaled: " + ", ".join(f"{k} = {v:.6g} {units[k][0]}" for k, v in raw.items()))
        log(f"  items = {ITEMS[name]}")
        walls = [r.wall_s for r in results]
        t = tail(walls)
        log(f"  op_tail_s = {t[1]:.6g} s (p{t[0]:.1f} of {len(walls)} calls)" if t else
            f"  op_tail_s not reported: {len(walls)} calls, fewer than 11")
    return {"correct": not unexpected, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hess2" / "cli.py").is_file():
        print(f"perfbench: no hess2 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    # Harness and children share one CPU, so the probes gauge the CPU the
    # calls run on; the calls are single-threaded.
    env["cpu"] = max(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {env["cpu"]})
    except OSError:
        env["cpu"] = None
    print("env: " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / f"{tag}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=False)
    summaries, calls = {}, []
    try:
        for name in names:
            print(f"{name}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
            results = run_workload(name, args.seed, args.seconds, bool(args.trace), run_dir)
            summaries[name] = summarize(name, results, bool(args.trace))
            calls += [{"name": r.call.name, "argv": list(r.call.argv), "pass": r.pass_index,
                       "traced": r.traced, "exit": r.exit_code, "wall_s": r.wall_s,
                       "main_s": r.main_s, "import_s": r.import_s, "rss_mb": r.rss_mb,
                       "report_bytes": r.report_bytes, "probes": r.probes, "ok": r.ok, "known": r.known,
                       "checks": list(r.lines), "layers": r.layers} for r in results]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if len(names) == 1:
        result = summaries[names[0]]
    else:
        result = {"correct": all(s["correct"] for s in summaries.values()),
                  "attempted": sum(s["attempted"] for s in summaries.values()),
                  "failed": sum(s["failed"] for s in summaries.values()),
                  "metrics": {f"{n}.{k}": v for n, s in summaries.items()
                              for k, v in s["metrics"].items()}}
    (WORK / f"{tag}.json").write_text(json.dumps(
        {"env": env, "args": vars(args), "result": result, "calls": calls}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
