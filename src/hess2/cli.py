"""Command-line entry points: campaigns, solves, verdicts, identity scans.

Reports are deterministic for a fixed configuration, seed and BLAS thread
count: floats are written with repr precision, JSON keys are sorted, and no
timestamps or machine identifiers enter any output file.  Each command imports
the modules it runs when it is called: `ineq` loads neither the solvers nor the
fields.  A run whose checks all pass exits 0.  A failure prints one
`<prefix>: <reason>` line and exits with the code of its class in `hess2.errors`.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import inspect
import itertools
import json
import shutil
import sys
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import symmat
from .errors import HypothesisError, InputError, ToolkitError

if TYPE_CHECKING:   # the commands import these when they run
    from . import domain, solver

REPORT_SCHEMA = 1
RECORD_HEADER = "seed,dim,sign,index,lhs,rhs,residual_direct,residual_closed,scale\n"
#: The shortest records row: one-digit seed, dim and index, an eight-letter
#: sign, five values as short as "0.0", eight commas and the newline.
RECORD_MIN_BYTES = 35
MODES = ("radial", "grid2d", "eigen")
#: The problem options each mode reads.  `verify --app 2` solves in eigen mode,
#: and `verify --app 3` reads p and lam instead of f.
READS = {"radial": {"dim", "radius", "f", "nodes"}, "grid2d": {"f", "domain", "h"},
         "eigen": {"dim", "radius", "nodes"}}


def _flag_names(tokens: list) -> list:
    """The option names of the `--name` and `--name=value` tokens, in order."""
    return [tok.partition("=")[0][2:] for tok in tokens if tok.startswith("--")]


class RunConfig(NamedTuple):
    """Resolved options of one command, as a flat canonical key/value map."""

    command: str
    options: dict

    def canonical_text(self) -> str:
        lines = [f"command={self.command}"]
        lines += [f"{k}={self.options[k]}" for k in sorted(self.options)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        options = {}
        for line in text.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                key, sep, value = line.partition("=")
                if not sep:
                    raise InputError(f"bad config line: {line!r}")
                options[key] = value
        return cls(command=options.pop("command", ""), options=options)

    def flags(self, typed: list) -> list:
        """The options as flags, leaving out each one `typed` holds (mode: any mode flag).

        `mode=grid2d` gives `--grid2d`, `records=False` `--no-records`, `alpha=1,0.5`
        `--alpha=1 --alpha=0.5`, `None` nothing, and any other pair `--key=value`.
        """
        held = {"mode" if name in MODES else name.removeprefix("no-")
                for name in _flag_names(typed)}
        flags = []
        for key, value in self.options.items():
            if key in held or value == "None":
                continue
            if key == "mode":
                flags.append(f"--{value}")
            elif value in ("True", "False"):
                flags.append(f"--{'' if value == 'True' else 'no-'}{key}")
            else:
                flags += [f"--{key}={v}" for v in (value.split(",") if key == "alpha" else [value])]
        return flags


def _config_text(args) -> str:
    """The canonical text of a run's parsed options, as embedded in its report."""
    options = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
    if "alpha" in options:
        options["alpha"] = ",".join(f"{a:g}" for a in options["alpha"])
    return RunConfig(args.command, options).canonical_text()


def _write_json(path: Path, payload: dict) -> None:   # arrays as nested lists
    path.write_text(json.dumps(payload, sort_keys=True, indent=1,
                               default=lambda obj: obj.tolist()) + "\n")


def _reprs(column) -> np.ndarray:
    """repr(float) of each value of `column`, as an object array, calling repr
    once per distinct float64 bit pattern.  Bits, not values, tell values apart:
    -0.0 == 0.0, yet each keeps its own text.
    """
    bits = np.ascontiguousarray(column, dtype=np.float64).view(np.int64)
    order = np.argsort(bits)
    ranked = bits[order]
    first = np.ones(ranked.size, dtype=bool)   # the first of each run of equal bits
    first[1:] = ranked[1:] != ranked[:-1]
    codes = np.empty_like(order)
    codes[order] = np.cumsum(first) - 1
    texts = np.array(list(map(repr, ranked[first].view(np.float64).tolist())), dtype=object)
    return texts[codes]


def _write_rows(fh, columns, lead: str = "", sep: str = " ", index: int | None = None) -> None:
    """One line per row of the equal-length `columns`: `lead`, then the row's
    cells joined by `sep`, after the row number when `index`, the number of the
    first row, is given.  A float column's cells are the repr of its values; an
    object column (from `_reprs`) holds its cells' texts.

    Rows are joined CAMPAIGN_CHUNK at a time, so the Python floats and cell lists
    of only one chunk exist at once.
    """
    chunk, n = symmat.CAMPAIGN_CHUNK, len(columns[0])
    for start in range(0, n, chunk):
        parts = [c[start:start + chunk].tolist() if c.dtype == object
                 else map(repr, c[start:start + chunk].tolist()) for c in columns]
        if index is not None:   # zip stops at the chunk
            parts.insert(0, map(repr, range(index + start, index + n)))
        fh.write(lead + ("\n" + lead).join(map(sep.join, zip(*parts))) + "\n")


def parse_dims(text: str) -> tuple[int, ...]:
    """`lo..hi` (inclusive) or a comma list of dimensions in [2, symmat.MAX_DIM]."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..")
            dims = tuple(range(int(lo), int(hi) + 1))
        else:
            dims = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise InputError(f"--dims {text!r}: expected lo..hi or a comma list of integers") from None
    if not dims:
        raise InputError(f"--dims {text!r} names no dimension")
    if not all(2 <= d <= symmat.MAX_DIM for d in dims):
        raise InputError(f"--dims {text!r}: every dimension must be in [2, {symmat.MAX_DIM}]")
    repeated = sorted(d for d, n in Counter(dims).items() if n > 1)
    if repeated:
        raise InputError(f"--dims {text!r} repeats dimension "
                         f"{', '.join(map(str, repeated))}")
    return dims


def _check_seed(seed: int) -> None:
    """numpy seeds take nonnegative integers only."""
    if seed < 0:
        raise InputError(f"--seed must be >= 0, got {seed}")


def _numbers(text: str, arg: str, count: int | None = None) -> list[float]:
    """The comma-separated numbers of a preset argument; `count` fixes how many."""
    try:
        values = [float(tok) for tok in arg.split(",")]
    except ValueError:
        raise InputError(f"{text!r}: parameters must be numbers") from None
    if count is not None and len(values) != count:
        raise InputError(f"{text!r}: expected {count} parameters, got {len(values)}")
    return values


def parse_source(text: str) -> solver.SourceTerm:
    from . import solver

    name, _, arg = text.partition(":")
    preset = solver.SOURCE_PRESETS.get(name)
    if preset is None:
        raise InputError(f"unknown source preset {text!r}")
    values = _numbers(text, arg) if arg else []
    try:
        inspect.signature(preset).bind(*values)
    except TypeError:
        raise InputError(f"{text!r}: wrong number of parameters") from None
    return preset(*values)


def parse_domain(text: str) -> domain.DomainSpec:
    from . import domain

    name, _, arg = text.partition(":")
    if name == "disk":
        return domain.ball(*_numbers(text, arg, 1)) if arg else domain.ball(1.0)
    if name == "ellipse":
        return domain.ellipse(*_numbers(text, arg, 2))
    if name == "polygon":
        return domain.convex_polygon([_numbers(text, pair, 2) for pair in arg.split(";")])
    raise InputError(f"unknown domain {text!r}")


def _out_base(out: Path) -> Path:
    """The nearest of `out` and its ancestors that exists (or is a link).  Every
    command checks it before any work: an `--out` naming a file or a dangling
    link, or a path through a file, is refused."""
    base = next(p for p in (out, *out.parents) if p.exists() or p.is_symlink())
    if not base.is_dir():
        raise InputError(f"--out {out}: {base} is not a directory")
    return base


# ----------------------------------------------------------------------
# ineq
# ----------------------------------------------------------------------

def _check_records_space(out: Path, count: int, dims: tuple) -> None:
    """Rejects a campaign whose records cannot fit on the file system of `out`,
    counting each row at its shortest, before any output exists."""
    need = RECORD_MIN_BYTES * count * len(dims)
    base = _out_base(out)
    free = shutil.disk_usage(base).free
    if need > free:
        raise InputError(f"count {count} needs at least {need} bytes of records in "
                         f"{len(dims)} dimension(s), but {base} has {free} bytes free; "
                         f"lower --count or pass --no-records")


def cmd_ineq(args) -> int:
    from . import matineq

    dims = parse_dims(args.dims)
    _check_seed(args.seed)
    out = Path(args.out)
    if args.records:
        _check_records_space(out, args.count, dims)
    # The outermost directory this run creates; a failed run removes it again.
    created = next((p for p in reversed((out, *out.parents)) if not p.exists()), None)
    written = []
    fh = None   # the current dimension's records; dimensions stream one after another

    def write_records(dim, first, columns):
        nonlocal fh
        if first == 0:
            out.mkdir(parents=True, exist_ok=True)
            if fh is not None:
                fh.close()
            written.append(out / f"records_dim{dim}.csv")
            fh = written[-1].open("w")
            fh.write(RECORD_HEADER)
        _write_rows(fh, columns, f"{args.seed},{dim},{args.sign},", ",", index=first)

    try:
        try:
            result = matineq.inequality_campaign(
                args.seed, dims, args.count, args.sign, scale=args.scale,
                records=write_records if args.records else None)
        finally:
            if fh is not None:
                fh.close()
    except BaseException:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        for path in written:
            path.unlink(missing_ok=True)
        raise
    out.mkdir(parents=True, exist_ok=True)
    per_dim = {}
    for s in result.summaries:   # each block is its record, keyed by its dim
        block = per_dim[str(s.dim)] = s._asdict()
        del block["dim"]
        block["witness"] = s.witness._asdict()
    _write_json(out / "summary.json", {"schema": REPORT_SCHEMA, "config": _config_text(args),
                                       "sign": args.sign, "ok": result.ok,
                                       "per_dim": per_dim})
    for s in result.summaries:
        status = "ok" if s.ok else "FAIL"
        print(f"dim {s.dim}: min {s.min_residual_over_scale:+.3e} "
              f"max {s.max_residual_over_scale:+.3e} "
              f"disc {s.max_discrepancy_over_scale:.3e} [{status}]")
    if not result.ok:
        bad = [s.dim for s in result.summaries if not s.ok]
        print(f"invariant violations in dims {bad} (seed {args.seed})")
        return 1
    return 0


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------

def _solve_from_args(args, f: solver.SourceTerm | None):
    """Returns (solution, source, extras) for solve/verify style commands.

    args.mode is "eigen" (the source is the solved eigenvalue problem's own),
    "radial" or "grid2d".
    """
    from . import solver

    if args.mode == "eigen":
        lam, prof = solver.solve_eigen_radial(args.dim, args.radius, args.nodes)
        return prof, solver.eigen_source(lam), {"lambda1": lam}
    power = f.params[1] if f.preset == "power" else 0.0   # power:lam,2 is eigen:lam
    if f.preset == "eigen" or power == 2:
        raise InputError(f"--f {f.label()} is the eigenvalue problem's own source; "
                         "solve that problem with `solve --eigen` or `verify --app 2`")
    if power > 2:
        raise InputError(f"--f {f.label()}: for p > 2 both solvers fall to the trivial "
                         "solution u = 0")
    if args.mode == "radial":
        return solver.solve_radial(args.dim, args.radius, f, args.nodes), f, {}
    return solver.solve_grid2d(parse_domain(args.domain), f, args.h), f, {}


def _solution_summary(sol: solver.Solution, f, extras) -> dict:
    from . import solver

    admissibility = solver.admissibility_report(sol)._asdict()
    _, grads = sol.boundary_samples()
    return {**sol.summary_fields(), **extras, "u_min": sol.u_min, "source": f.label(),
            "boundary_gradient_min": float(np.min(grads)),
            "boundary_gradient_max": float(np.max(grads)), "admissibility": admissibility}


def _write_profile_data(sol: solver.Solution, path: Path, pf_list=()) -> None:
    """Whitespace-separated columns for plotting: positions, u, then fields.

    Lattice columns repeat values (a disk's x and y take 255 values over 51,429
    nodes), so each column's distinct values are formatted once (`_reprs`).
    """
    names, cols = sol.profile_columns()
    with path.open("w") as fh:
        fh.write(f"# {names}" + "".join(f" phi_a{pf.alpha:g}_g{pf.gamma:g}"
                                         for pf in pf_list) + "\n")
        _write_rows(fh, [_reprs(c) for c in (*cols, *(pf.phi for pf in pf_list))])


def _nine_digits(x: float) -> str:
    """x with 9 decimals, in exponent form where fixed point would lose its
    leading digits (|x| < 1e-4) or spill ten or more integer digits (|x| >= 1e9)."""
    return f"{x:.9f}" if x == 0 or 1e-4 <= abs(x) < 1e9 else f"{x:.9e}"


def cmd_solve(args) -> int:
    from . import solver

    f = None if args.mode == "eigen" else parse_source(args.f)
    sol, f, extras = _solve_from_args(args, f)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = {"schema": REPORT_SCHEMA, "config": _config_text(args),
               **_solution_summary(sol, f, extras)}
    solver.save_solution(sol, out / "solution.npz")
    _write_json(out / "summary.json", summary)
    _write_profile_data(sol, out / "profile.dat")
    print(f"u_min = {_nine_digits(summary['u_min'])}")
    print(f"boundary |grad u| in [{_nine_digits(summary['boundary_gradient_min'])}, "
          f"{_nine_digits(summary['boundary_gradient_max'])}]")
    adm = summary["admissibility"]
    print(f"admissible = {adm['admissible']} "
          f"(min S1 {adm['min_s1']:.3e}, min S2 {adm['min_s2']:.3e}, "
          f"min cofactor {adm['min_cofactor_eigenvalue']:.3e})")
    if "lambda1" in extras:
        print(f"lambda1 = {extras['lambda1']:.9f} "
              f"(equation residual {summary['ode_residual_sup']:.3e})")
    return 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _verify_source(args) -> solver.SourceTerm | None:
    """Nonincreasing source of the verify application; app 2 sets the eigen mode."""
    from . import solver

    if args.app != 3 and args.p is not None:
        raise InputError(f"--p is the exponent of application 3's power source; "
                         f"application {args.app} has none")
    if args.app == 2:
        if args.mode == "grid2d":
            raise InputError("application 2 needs the eigenvalue problem, "
                             "which is solved on balls only (drop --grid2d)")
        args.mode = "eigen"
        return None
    if args.mode == "eigen":
        raise InputError("mode=eigen is the eigenvalue problem of application 2 only")
    if args.app == 3:
        return solver.power_source(args.lam, args.p)
    f = parse_source(args.f)
    if not f.nonincreasing:
        raise HypothesisError(f"--f {f.label()} is not nonincreasing, "
                              "as the a priori bounds require")
    return f


class VerdictRow(NamedTuple):
    """One verdict of `verify`: its fields head `verdicts.csv`, and its CSV line
    and stdout line are both written from it."""

    domain: str
    f: str
    alpha: float
    gamma: float
    margin: float
    slack: float
    holds: bool

    def csv_line(self) -> str:
        return (f"{self.domain},{self.f},{self.alpha:g},{self.gamma:g},{self.margin!r},"
                f"{self.slack!r},{str(self.holds).lower()}\n")

    def stdout_line(self) -> str:
        return (f"{self.domain} f={self.f} alpha={self.alpha:g} gamma={self.gamma:g}: "
                f"margin={self.margin:+.6e} slack={self.slack:+.6e} holds={self.holds}")


def cmd_verify(args) -> int:
    from . import analysis

    # Input and hypothesis gates first: the transform must exist and be
    # increasing, and the application must be solvable in the asked mode.
    transform = analysis.transform_preset(args.app, args.p)
    f = _verify_source(args)
    gammas = (analysis.GAMMA_CHOICES if args.gamma == "both"
              else _numbers(f"--gamma {args.gamma}", args.gamma, 1))
    # --alpha appends to its default, so the parser cannot hold this one.
    args.alpha = args.alpha or [1.0]
    # Built before the solve so that a bad --alpha or --gamma costs none.
    alphas = [analysis.PFunctionSpec(alpha=alpha).alpha for alpha in args.alpha]
    units = [analysis.PFunctionSpec(alpha=1.0, gamma=gamma) for gamma in gammas]
    config = _config_text(args)
    sol, f, extras = _solve_from_args(args, f)
    out = Path(args.out)

    scan = analysis.convexity_scan_solution(sol, transform)
    if not scan.convex:
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "report.json", {
            "schema": REPORT_SCHEMA, "config": config,
            "skipped": f"convexity hypothesis failed for {transform.name}"})
        raise HypothesisError(f"{transform.name} composition is not convex "
                              f"(min eigenvalue {scan.min_eigenvalue:.3e})")

    rows = []
    pf_saved = []
    report_bounds = {}
    for spec in units:
        unit = analysis.pfunction_field(sol, f, spec)
        rep = analysis.bounds_report(unit, scan, f, args.app)
        report_bounds[f"gamma={spec.gamma:g}"] = rep._asdict()
        for alpha in alphas:
            pf = unit._replace(alpha=alpha)
            pf_saved.append(pf)
            verdict = analysis.verify_principle(pf, "min")
            rows.append(VerdictRow(sol.domain_label, f.label(), alpha, spec.gamma,
                                   verdict.margin, rep.slack, verdict.holds and rep.holds))
    all_hold = all(row.holds for row in rows)

    out.mkdir(parents=True, exist_ok=True)   # only once every verdict is in
    with (out / "verdicts.csv").open("w") as fh:
        fh.write(",".join(VerdictRow._fields) + "\n")
        fh.writelines(row.csv_line() for row in rows)
    payload = {
        "schema": REPORT_SCHEMA, "config": config,
        "application": args.app, "transform": transform.name,
        "solution": _solution_summary(sol, f, extras),
        "bounds": report_bounds,
        "all_hold": all_hold,
    }
    _write_json(out / "report.json", payload)
    _write_profile_data(sol, out / "pfunction.dat", pf_saved)
    for row in rows:
        print(row.stdout_line())
    return 0 if all_hold else 1


# ----------------------------------------------------------------------
# identity-scan
# ----------------------------------------------------------------------

def cmd_identity_scan(args) -> int:
    from . import fields, matineq

    if args.count < 1:
        raise InputError("--count must be >= 1")
    _check_seed(args.seed)

    def points(seed, dim, **shell):
        try:
            return fields.sample_points_in_ball(seed, dim, args.count, **shell)
        except (MemoryError, ValueError):   # ValueError: beyond numpy's array size
            raise InputError(f"--count {args.count} needs {args.count} x {dim} sample "
                             f"points, which cannot be allocated; lower --count") from None

    def chunks(a):   # views of CAMPAIGN_CHUNK rows, so temporaries stay small
        return np.array_split(a, range(symmat.CAMPAIGN_CHUNK, len(a), symmat.CAMPAIGN_CHUNK))

    euler_worst = 0.0
    for dim in range(2, 7):
        pts = points(args.seed + dim, dim, radius=0.9, min_radius=0.05)
        for fld, x in itertools.product(fields.standard_menagerie(dim), chunks(pts)):
            gap = fields.euler_identity_gap(fld, x)
            euler_worst = max(euler_worst, float(np.max(np.abs(gap))))

    ps_worst, n_ps = 0.0, 0
    for dim in (2, 3, 4):
        pts = points(args.seed + 10 + dim, dim, radius=0.95)
        for fld, x in itertools.product(fields.standard_menagerie(dim), chunks(pts)):
            h = fld.hess(x)
            keep = matineq.in_positive_cone(symmat.eigenvalues(h))
            x, h = x[keep], h[keep]
            scale = (1.0 + np.linalg.norm(h, axis=(-2, -1)) ** 2
                     * (1.0 + np.sum(x * x, axis=-1)))
            gap = fields.philippin_safoui_gap(fld, x) / scale
            ps_worst = min(ps_worst, float(np.min(gap, initial=0.0)))
            n_ps += len(x)

    # Curvature convention fit on radial fields in dimension 3: the extracted
    # value equals |grad u| times the shape-operator S2.
    pts = points(args.seed + 20, 3, radius=1.2, min_radius=0.2)
    amps = np.random.default_rng(args.seed).uniform(0.1, 1.0, size=args.count)
    probes = [fields.levelset_curvature_probe(fields.ball_quadratic_field(3, a), x)
              for a, x in zip(chunks(amps), chunks(pts))]
    ratios = np.concatenate([p.h2_extracted / (p.grad_norm * p.s2_kappa_geometric)
                             for p in probes])
    factor = float(np.mean(ratios))
    fit_resid = float(np.max(np.abs(ratios - factor)))

    # Gate G04a: M(U'A + U'' v (x) v, v) = U'^3 M(A, v), the route by which the
    # convexity of U(u) reaches the comatrix inequality.
    fact_worst = matineq.factorization_campaign(args.seed, args.count)

    payload = {
        "schema": REPORT_SCHEMA, "config": _config_text(args),
        "euler_gap_worst_over_scale": euler_worst,
        "philippin_safoui_min_gap_over_scale": ps_worst,
        "philippin_safoui_samples": n_ps,
        "h2_convention": {
            "factor_vs_gradnorm_times_s2kappa": factor,
            "fit_residual": fit_resid,
            "closes_with_gradient_factor": bool(abs(factor - 1.0) <= 1e-8),
        },
        "factorization_worst_gap_over_scale": fact_worst,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "identities.json", payload)
    print(f"homogeneity contraction worst gap/scale: {euler_worst:.3e}")
    print(f"gradient-Hessian inequality min gap/scale: {ps_worst:+.3e} "
          f"({n_ps} admissible samples)")
    print(f"curvature convention factor: {factor:.12f} "
          f"(fit residual {fit_resid:.3e})")
    print(f"cubic factorization worst gap/scale: {fact_worst:.3e}")
    # euler_identity_gap raises beyond its own 1e-10, so only these three can fail.
    ok = ps_worst >= -1e-9 and fit_resid <= 1e-8 and fact_worst <= 1e-8
    return 0 if ok else 1


# ----------------------------------------------------------------------
# argument plumbing
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Flags by their exact names only; a rejected option raises InputError."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hess2",
        description="Verification toolkit for 2-Hessian problems: matrix "
                    "inequalities, solvers, extreme principles, a priori bounds.")
    # Expanded by _with_config before argparse runs; declared here for --help.
    parser.add_argument("--config", metavar="FILE", default=argparse.SUPPRESS,
                        help="take options from a key=value file, such as the "
                             "config embedded in a report; typed flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("ineq", help="run a comatrix-inequality sampling campaign")
    q.add_argument("--seed", type=int, default=42)
    q.add_argument("--dims", default="2..8")
    q.add_argument("--count", type=int, default=10000)
    q.add_argument("--sign", choices=["positive", "negative", "indefinite"],
                   default="positive")
    q.add_argument("--scale", type=float, default=1.0)
    q.add_argument("--records", action=argparse.BooleanOptionalAction, default=True)
    q.add_argument("--out", default="ineq-report")
    q.set_defaults(func=cmd_ineq)

    s = sub.add_parser("solve", help="solve a Dirichlet problem")
    v = sub.add_parser("verify", help="verify principles and a priori bounds")
    v.add_argument("--app", type=int, choices=[1, 2, 3], required=True)
    # Shared problem options; verify defaults to --radial (--eigen is app 2's).
    for p in (s, v):
        mode = p.add_mutually_exclusive_group(required=p is s)
        for name in MODES:
            mode.add_argument(f"--{name}", dest="mode", action="store_const", const=name)
        p.add_argument("--dim", type=int, default=3)
        p.add_argument("--radius", type=float, default=1.0)
        p.add_argument("--f", default="const:1")
        p.add_argument("--domain", default="disk:1")
        p.add_argument("--h", type=float, default=1.0 / 64)
        p.add_argument("--nodes", type=int, default=1024)
    s.add_argument("--out", default="solve-report")
    s.set_defaults(func=cmd_solve)
    v.add_argument("--alpha", type=float, action="append", default=None)
    v.add_argument("--gamma", default="both")
    v.add_argument("--p", type=float, default=None)
    v.add_argument("--lam", type=float, default=1.0)
    v.add_argument("--out", default="verify-report")
    v.set_defaults(func=cmd_verify, mode="radial")

    i = sub.add_parser("identity-scan", help="scan pointwise identities on "
                                             "closed-form fields")
    i.add_argument("--seed", type=int, default=0)
    i.add_argument("--count", type=int, default=100)
    i.add_argument("--out", default="identity-report")
    i.set_defaults(func=cmd_identity_scan)
    return parser


def _with_config(argv: list, k: int) -> list:
    """argv with its `--config FILE` at index k replaced by the file's flags,
    which go right after the command, before the typed ones."""
    argv = list(argv)
    _, eq, path = argv.pop(k).partition("=")
    if not eq and k < len(argv):
        path = argv.pop(k)
    if not path:
        raise InputError("--config needs a file")
    cfg = RunConfig.from_text(Path(path).read_text())
    if not argv or argv[0].startswith("-"):
        argv.insert(0, cfg.command)
    return [argv[0], *cfg.flags(argv[1:]), *argv[1:]]


def _check_typed(args, typed: list) -> None:
    """Rejects a typed problem option that the run's mode or application does not
    read.  Lines of a config file are not checked: they name every option."""
    if args.command not in ("solve", "verify"):
        return
    app = getattr(args, "app", None)
    mode = "eigen" if app == 2 else args.mode
    reads = READS[mode] - {"f"} | {"p", "lam"} if app == 3 else READS[mode]
    unread = set().union(*READS.values(), {"p", "lam"}) - reads
    for name in _flag_names(typed):
        if name in unread:
            run = f"verify --app {app} in {mode} mode" if app else f"solve --{mode}"
            raise InputError(f"--{name} is not read by {run}")


def main(argv=None) -> int:
    # At interpreter exit, move every live object to the permanent generation
    # first, so the shutdown collections skip them.  Walking the heap cost 22 ms
    # of a radial call and 56 ms of a planar one (which then also loaded a
    # sparse-matrix package); frozen, 6 and 14 ms.  An in-process caller keeps
    # a normal heap until it exits.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    argv = sys.argv[1:] if argv is None else argv
    k = next((i for i, tok in enumerate(argv) if tok.partition("=")[0] == "--config"), None)
    try:
        args = build_parser().parse_args(argv if k is None else _with_config(argv, k))
    except (OSError, InputError) as exc:
        print(f"{'input' if k is None else 'config'} error: {exc}")
        return 2
    try:
        _check_typed(args, argv)
        _out_base(Path(args.out))
        return args.func(args)
    except ToolkitError as exc:
        print(f"{exc.prefix}: {exc}")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
