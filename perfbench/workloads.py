"""Workload mixes of `hess2` CLI calls, and the oracle every call is checked by.

Each call carries its expected exit code and a list of checks on the numbers
it prints to its report files.  Every check names its source: a closed form,
a README or release-gate (G01-G14) tolerance, or a reference value recorded
from the seed commit of this repository.  The workload seed only reaches the
`--seed` of `ineq` and `identity-scan` calls; solve inputs are fixed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

#: Tolerance of the G05 radial oracle (|u_min error| <= 1e-6).  Also used for
#: reference values recorded from the seed commit: reports are deterministic,
#: so any drift beyond it is a change of result, not of timing.
REF_TOL = 1e-6
SEED_REF = "seed reference, tol 1e-6 as G05"

CSV_HEADER = "seed,dim,sign,index,lhs,rhs,residual_direct,residual_closed,scale"
SQUARE = "polygon:1,-1;1,1;-1,1;-1,-1"
H128, H64 = "0.0078125", "0.015625"

#: Calls that fail their oracle at the seed commit, with the reason.  They
#: count as failed in every run; a failure of any other call makes the run
#: incorrect.  Do not remove calls or loosen checks to empty this table.
KNOWN_FAILURES = {
    "planar.verify.app3.disk": "exits 3: Newton needs 53 iterations at p=0.5, "
                               "budget 50 (ROADMAP item 5)",
    **{f"radial.solve.dim{n}.{f}": "ode_residual_sup above 1e-6 for N >= 6 "
                                   "(ROADMAP item 4)"
       for n in (6, 7, 8) for f in ("const", "exp-dec", "exp-inc")},
}


@dataclass(frozen=True)
class Check:
    """One checked number of a call's output.

    `where` is ("json", file, key, ...), ("rows", file) for the data-line
    count of a text file, ("head", file) for its first line, or ("stdout",).
    `op` is "near" (|value - expect| <= tol), "ge", "le", "eq" or "startswith".
    """

    label: str
    where: tuple
    op: str
    expect: object
    source: str
    tol: float = 0.0

    def read(self, outdir: Path, stdout: str):
        kind = self.where[0]
        if kind == "stdout":
            return stdout
        path = outdir / self.where[1]
        if kind == "json":
            value = json.loads(path.read_text())
            for key in self.where[2:]:
                value = value[key]
            return value
        if kind == "rows":
            with path.open("rb") as fh:
                return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1
        if kind == "head":
            with path.open() as fh:
                return fh.readline().rstrip("\n")
        raise ValueError(f"unknown check location {self.where!r}")

    def passes(self, value) -> bool:
        if self.op == "eq":
            return value == self.expect
        if self.op == "startswith":
            return isinstance(value, str) and value.startswith(self.expect)
        if not isinstance(value, (int, float)) or isinstance(value, bool) or math.isnan(value):
            return False
        if self.op == "near":
            return abs(value - self.expect) <= self.tol
        if self.op == "ge":
            return value >= self.expect
        if self.op == "le":
            return value <= self.expect
        raise ValueError(f"unknown check op {self.op!r}")

    def evaluate(self, outdir: Path, stdout: str) -> tuple[bool, str]:
        try:
            value = self.read(outdir, stdout)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            return False, f"{self.label}: unreadable ({type(exc).__name__}: {exc})"
        ok = self.passes(value)
        shown = value if not isinstance(value, str) else repr(value[:60])
        rule = {"near": f"{self.expect!r} +- {self.tol:g}", "ge": f">= {self.expect!r}",
                "le": f"<= {self.expect!r}"}.get(self.op, f"{self.op} {self.expect!r}")
        return ok, f"{self.label} = {shown} ({rule}; {self.source})"


@dataclass(frozen=True)
class Call:
    """One CLI invocation: arguments (without --out), expectations, work done."""

    name: str
    argv: tuple
    exit_code: int
    checks: tuple
    items: int = 1      # work units credited when the call passes its oracle

    @property
    def known_failure(self) -> str | None:
        return KNOWN_FAILURES.get(self.name)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    lines: tuple        # one line per check, or the exit-code mismatch


def judge(call: Call, exit_code: int, outdir: Path, stdout: str) -> Verdict:
    """Apply a call's oracle to one finished invocation."""
    if exit_code != call.exit_code:
        last = stdout.strip().splitlines()[-1:] or [""]
        return Verdict(False, (f"exit {exit_code}, expected {call.exit_code}: {last[0][:160]}",))
    results = [check.evaluate(outdir, stdout) for check in call.checks]
    return Verdict(all(ok for ok, _ in results),
                   tuple(("ok   " if ok else "FAIL ") + text for ok, text in results))


def _j(*where):
    return ("json",) + where


def _all_hold(source):
    return Check("all_hold", _j("report.json", "all_hold"), "eq", True, source)


# ----------------------------------------------------------------------
# campaign: ineq only
# ----------------------------------------------------------------------

def _ineq(name, seed, dims, count, sign, records):
    argv = ["ineq", "--dims", f"{dims[0]}..{dims[-1]}" if len(dims) > 1 else str(dims[0]),
            "--count", str(count), "--sign", sign, "--seed", str(seed)]
    if not records:
        argv.append("--no-records")
    checks = [Check("ok", _j("summary.json", "ok"), "eq", True, "README: exit 0 iff all checks pass")]
    for d in dims:
        per = ("summary.json", "per_dim", str(d))
        checks += [
            Check(f"dim{d}.count", _j(*per, "count"), "eq", count, "requested --count"),
            Check(f"dim{d}.disc", _j(*per, "max_discrepancy_over_scale"), "le", 1e-9,
                  "G01/G03 direct-vs-closed tolerance"),
        ]
        if sign == "positive":
            checks.append(Check(f"dim{d}.min_res", _j(*per, "min_residual_over_scale"),
                                "ge", -1e-9, "G01 residual tolerance"))
        elif sign == "negative":
            checks.append(Check(f"dim{d}.max_res", _j(*per, "max_residual_over_scale"),
                                "le", 1e-9, "G03 residual tolerance"))
        if sign == "indefinite" and d == 3:
            checks += [Check(f"dim{d}.min_res", _j(*per, "min_residual_over_scale"), "ge",
                             -1e-10, "G02 identity tolerance"),
                       Check(f"dim{d}.max_res", _j(*per, "max_residual_over_scale"), "le",
                             1e-10, "G02 identity tolerance")]
        if records:
            csv = f"records_dim{d}.csv"
            checks += [Check(f"dim{d}.header", ("head", csv), "eq", CSV_HEADER, "README columns"),
                       Check(f"dim{d}.rows", ("rows", csv), "eq", count, "one row per sample")]
    return Call(name, tuple(argv), 0, tuple(checks), items=len(dims) * count)


def _call_seeds(seed: int, pass_index: int, n: int) -> list[int]:
    rng = random.Random(f"hess2-bench/{seed}/{pass_index}")
    return [rng.randrange(2**31) for _ in range(n)]


def campaign(seed: int, pass_index: int = 0) -> list[Call]:
    s = _call_seeds(seed, pass_index, 3)
    dims = tuple(range(2, 9))
    return [
        _ineq("campaign.ineq.positive", s[0], dims, 100_000, "positive", records=False),
        _ineq("campaign.ineq.negative", s[1], dims, 20_000, "negative", records=True),
        _ineq("campaign.ineq.indefinite", s[2], (3,), 100_000, "indefinite", records=True),
    ]


# ----------------------------------------------------------------------
# planar: grid solves and verdicts
# ----------------------------------------------------------------------

def _grid_solve_checks(verify: bool, nodes: int, u_min=None, u_src=""):
    summ = ("report.json", "solution") if verify else ("summary.json",)
    data = "pfunction.dat" if verify else "profile.dat"
    checks = [
        Check("nodes", ("rows", data), "eq", nodes, "seed rasterization, exact"),
        Check("admissible", _j(*summ, "admissibility", "admissible"), "eq", True,
              "README: admissibility margins"),
        Check("newton_residual", _j(*summ, "newton_residual_sup"), "le", 1e-10,
              "SolveConfig.newton_tol"),
    ]
    if u_min is not None:
        checks.append(Check("u_min", _j(*summ, "u_min"), "near", u_min, u_src, REF_TOL))
    return checks


def planar(seed: int = 0, pass_index: int = 0) -> list[Call]:
    del seed, pass_index  # solve inputs are fixed
    disk = _grid_solve_checks(False, 51429, -0.5, "closed form u=(r^2-1)/2, tol 1e-6 as G05")
    disk += [Check(f"grad_{m}", _j("summary.json", f"boundary_gradient_{m}"), "near", 1.0,
                   "closed form |grad u|=1 on the unit circle, tol 1e-6 as G05", REF_TOL)
             for m in ("min", "max")]
    ellipse = _grid_solve_checks(True, 25693, -1.2692514345279877, SEED_REF)
    ellipse += [_all_hold("G08 suite verdict"),
                _slack("0.5", "near", 1.602104851440083, SEED_REF, REF_TOL),
                _slack("1", "near", 2.1599112679944246, SEED_REF, REF_TOL)]
    square = _grid_solve_checks(False, 16129, -0.8708753375614907, SEED_REF)
    # The seed never finishes this solve, so only the node count (the same
    # disk grid as `solve --grid2d --h 1/64`) and the verdict are checked.
    app3 = _grid_solve_checks(True, 12849)
    app3.append(_all_hold("README: app 3 at p=0.5 holds (G11c)"))
    return [
        Call("planar.solve.disk.const", ("solve", "--grid2d", "--domain", "disk:1",
             "--f", "const:1", "--h", H128), 0, tuple(disk), items=51429),
        Call("planar.verify.app1.ellipse", ("verify", "--app", "1", "--grid2d", "--domain",
             "ellipse:2,1", "--f", "exp-dec", "--h", H64), 0, tuple(ellipse), items=25693),
        Call("planar.solve.square.exp-dec", ("solve", "--grid2d", "--domain", SQUARE,
             "--f", "exp-dec", "--h", H64), 0, tuple(square), items=16129),
        Call("planar.verify.app3.disk", ("verify", "--app", "3", "--grid2d", "--p", "0.5"),
             0, tuple(app3), items=12849),
    ]


# ----------------------------------------------------------------------
# radial: short calls where interpreter and import startup dominate
# ----------------------------------------------------------------------

#: u_min of `solve --radial` on the unit ball, recorded from the seed commit.
RADIAL_U_MIN = {
    ("exp-dec", 2): -0.5548614014660316, ("exp-inc", 2): -0.42620250093232215,
    ("exp-dec", 3): -0.3044566438106797, ("exp-inc", 3): -0.2632250095212877,
    ("exp-dec", 4): -0.21143459827102987, ("exp-inc", 4): -0.19147075066954963,
    ("exp-dec", 5): -0.1622852897824939, ("exp-inc", 5): -0.15062004410602883,
    ("exp-dec", 6): -0.13178100653059946, ("exp-inc", 6): -0.12417170383210276,
    ("exp-dec", 7): -0.11097172506319576, ("exp-inc", 7): -0.10563375941773698,
    ("exp-dec", 8): -0.09585763994375313, ("exp-inc", 8): -0.09191431747522216,
}
ODE_TOL = Check("ode_residual", _j("summary.json", "ode_residual_sup"), "le", 1e-6,
                "G10a equation-residual tolerance")
ADMISSIBLE = Check("admissible", _j("summary.json", "admissibility", "admissible"), "eq", True,
                   "README: admissibility margins")


def _radial_solve(n: int, f: str) -> Call:
    checks = [ADMISSIBLE, ODE_TOL]
    if f == "const":
        c = math.sqrt(math.comb(n, 2))
        src = "closed form u=(r^2-1)/(2 sqrt C(N,2)), tol 1e-6 as G05"
        checks += [Check("u_min", _j("summary.json", "u_min"), "near", -1.0 / (2.0 * c), src, REF_TOL),
                   Check("grad", _j("summary.json", "boundary_gradient_max"), "near", 1.0 / c,
                         src, REF_TOL)]
    else:
        checks.append(Check("u_min", _j("summary.json", "u_min"), "near",
                            RADIAL_U_MIN[(f, n)], SEED_REF, REF_TOL))
    preset = "const:1" if f == "const" else f
    return Call(f"radial.solve.dim{n}.{f}", ("solve", "--radial", "--dim", str(n), "--f", preset),
                0, tuple(checks))


def _slack(gamma, op, value, source, tol=0.0):
    return Check(f"slack.g{gamma}", _j("report.json", "bounds", f"gamma={gamma}", "slack"),
                 op, value, source, tol)


def _holds(gamma, value, source):
    return Check(f"holds.g{gamma}", _j("report.json", "bounds", f"gamma={gamma}", "holds"),
                 "eq", value, source)


def radial(seed: int, pass_index: int = 0) -> list[Call]:
    calls = [_radial_solve(n, f) for n in range(2, 9) for f in ("const", "exp-dec", "exp-inc")]
    for nodes, lam in ((1024, 28.14346417296074), (4096, 28.143464172961444)):
        calls.append(Call(f"radial.solve.eigen.{nodes}",
                          ("solve", "--eigen", "--nodes", str(nodes)), 0,
                          (ADMISSIBLE, ODE_TOL,
                           Check("lambda1", _j("summary.json", "lambda1"), "near", lam,
                                 "seed reference, tol 1e-6 relative", REF_TOL * lam))))
    g05 = 1.0 / math.sqrt(3.0) - 1.0 / 3.0
    g05_src = "closed form 1/sqrt3 - 1/3, G05 tol 1e-5"
    calls += [
        Call("radial.verify.app1", ("verify", "--app", "1", "--radial"), 0,
             (_slack("0.5", "near", g05, g05_src, 1e-5), _slack("1", "near", g05, g05_src, 1e-5),
              _all_hold("G08 suite verdict"))),
        Call("radial.verify.app2", ("verify", "--app", "2"), 0,
             (_slack("0.5", "ge", -1e-6, "G10b"), _slack("1", "ge", -1e-6, "G10b"),
              _all_hold("G10b"))),
        Call("radial.verify.app3.p0.5", ("verify", "--app", "3", "--p", "0.5"), 0,
             (_slack("0.5", "ge", -1e-6, "G11b"), _slack("1", "ge", -1e-6, "G11c"),
              _holds("1", True, "G11c"))),
        Call("radial.verify.app3.p1.5", ("verify", "--app", "3", "--p", "1.5"), 1,
             (_slack("0.5", "ge", -1e-6, "G11b"), _holds("0.5", True, "G11b"),
              _slack("1", "le", 0.0, "G11d: plain convention fails"),
              _holds("1", False, "G11d"))),
        Call("radial.verify.app3.p2.5", ("verify", "--app", "3", "--p", "2.5"), 2,
             (Check("reason", ("stdout",), "startswith", "hypothesis not met",
                    "G11e: exponent 2.5 rejected"),)),
    ]
    for k, s in enumerate(_call_seeds(seed, pass_index, 2)):
        ids = ("identities.json",)
        calls.append(Call(f"radial.identity-scan.{k}",
                          ("identity-scan", "--count", "100", "--seed", str(s)), 0,
                          (Check("euler", _j(*ids, "euler_gap_worst_over_scale"), "le", 1e-10, "G12a"),
                           Check("ps", _j(*ids, "philippin_safoui_min_gap_over_scale"), "ge", -1e-9,
                                 "G12b"),
                           Check("factor", _j(*ids, "h2_convention", "factor_vs_gradnorm_times_s2kappa"),
                                 "near", 1.0, "G12c", 1e-8),
                           Check("fit", _j(*ids, "h2_convention", "fit_residual"), "le", 1e-8,
                                 "G12c"))))
    return calls


WORKLOADS = {"campaign": campaign, "planar": planar, "radial": radial}
