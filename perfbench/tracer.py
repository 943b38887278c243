"""Spans around calls into hess2's modules, installed from outside the package.

`Tracer.install` replaces module attributes with timing wrappers.  Several
functions are imported by name into the module that calls them, so they are
wrapped there too: `matineq.sample_batch`, `solver.rasterize`,
`solver.factorized` (and the solve function it returns), `solver.spsolve`,
`analysis.adaptive_simpson` and the `jacobi_eigh` of each caller.  Spans stay
in memory and are written once, when the child exits.

`layer_metrics` turns the spans of one traced call into per-layer numbers.
`transforms` and `_quad` are not wrapped: their time falls inside the
`analysis` and `solver` spans that call them.
"""

from __future__ import annotations

import functools
import time

# Span name -> per-layer time metric (inclusive time of the outermost span).
SPAN_METRICS = {
    "symmat.sample_batch": "symmat.sample_batch_s",
    "symmat.jacobi_eigh": "symmat.jacobi_eigh_s",
    "domain.rasterize": "domain.rasterize_s",
    "solver.build_operators": "solver.build_operators_s",
    "solver.factorized": "solver.factorized_s",
    "solver.lap_solve": "solver.factorized_s",
    "solver.spsolve": "solver.spsolve_s",
    "solver.radial": "solver.radial_s",
    "solver.admissibility": "solver.admissibility_s",
    "analysis.source_integral": "analysis.source_integral_s",
    "analysis.boundary_samples": "analysis.boundary_samples_s",
    "analysis.convexity_scan": "analysis.convexity_scan_s",
    "fields.pointwise": "fields.pointwise_s",
}
# Span name -> per-layer self-time metric (duration minus direct child spans).
SELF_METRICS = {
    "cli.main": "cli.self_s",
    "matineq.campaign": "matineq.campaign_self_s",
    "solver.grid": "solver.grid_self_s",
}
# Span name -> per-layer call-count metric.
CALL_COUNTS = {
    "symmat.jacobi_eigh": "symmat.jacobi_eigh_calls",
    "solver.lap_solve": "solver.lap_solves",
    "solver.spsolve": "solver.spsolve_calls",
    "fields.pointwise": "fields.pointwise_calls",
}
# Counters the wrappers add to directly.
COUNTERS = ("symmat.samples", "domain.grid_nodes", "solver.operator_nnz",
            "solver.newton_iterations", "solver.picard_passes", "analysis.quad_calls")

FIELDS_POINTWISE = ("euler_identity_gap", "levelset_curvature_probe", "philippin_safoui_gap",
                    "transform_hessian", "convexity_scan")


class Tracer:
    """Records (name, start, end, parent) spans and named counters in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._operator_sets: list = []   # keeps each counted operator dict alive

    def span(self, name: str, fn, after=None):
        """Wrap fn so each call records a span; after(result) may count work."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    result = after(result)
                return result
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
        return wrapper

    def counted(self, counter: str, fn):
        """Wrap fn so each call adds one to a counter, without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        from hess2 import analysis, cli, domain, fields, matineq, solver, symmat

        counts = self.counts

        def wrap(owner, attr, name, after=None):
            setattr(owner, attr, self.span(name, getattr(owner, attr), after))

        def samples(result):
            counts["symmat.samples"] += int(result[0].shape[0])
            return result

        def nodes(mask):
            counts["domain.grid_nodes"] += int(mask.n_inside)
            return mask

        def operators(ops):
            if not any(ops is seen for seen in self._operator_sets):
                self._operator_sets.append(ops)
                counts["solver.operator_nnz"] += sum(m.nnz for m in ops.values())
            return ops

        def lap_solver(solve):
            return self.span("solver.lap_solve", solve)

        wrap(cli, "main", "cli.main")
        wrap(matineq, "inequality_campaign", "matineq.campaign")
        wrap(matineq, "sample_batch", "symmat.sample_batch", samples)
        for owner in (symmat, fields, analysis, matineq):
            wrap(owner, "jacobi_eigh", "symmat.jacobi_eigh")
        for attr in FIELDS_POINTWISE:
            wrap(fields, attr, "fields.pointwise")
        for owner in (domain, solver):
            wrap(owner, "rasterize", "domain.rasterize", nodes)
        wrap(solver, "build_operators", "solver.build_operators", operators)
        wrap(solver, "factorized", "solver.factorized", lap_solver)
        wrap(solver, "spsolve", "solver.spsolve")
        wrap(solver, "admissibility_report", "solver.admissibility")
        for attr in ("solve_radial", "solve_eigen_radial"):
            wrap(solver, attr, "solver.radial")
        solver._picard_pass = self.counted("solver.picard_passes", solver._picard_pass)
        analysis.adaptive_simpson = self.counted("analysis.quad_calls", analysis.adaptive_simpson)
        wrap(analysis, "source_integral", "analysis.source_integral")
        wrap(analysis, "boundary_gradient_samples", "analysis.boundary_samples")
        wrap(analysis, "convexity_scan_solution", "analysis.convexity_scan")
        # No metric of their own: these spans keep analysis work out of cli.self_s.
        for attr in ("pfunction_field", "verify_principle", "bounds_report"):
            wrap(analysis, attr, "analysis.other")

        grid = self.span("solver.grid", solver.solve_grid2d)

        @functools.wraps(solver.solve_grid2d)
        def solve_grid2d(*args, **kwargs):
            # Newton iterations from the result; a solve that raises made one
            # sparse solve per iteration it ran.
            before = sum(1 for s in self.spans if s[0] == "solver.spsolve")
            try:
                sol = grid(*args, **kwargs)
            except solver.SolverError:
                counts["solver.newton_iterations"] += (
                    sum(1 for s in self.spans if s[0] == "solver.spsolve") - before)
                raise
            counts["solver.newton_iterations"] += int(sol.newton_iterations)
            return sol
        solver.solve_grid2d = solve_grid2d


def layer_metrics(spans: list, counts: dict) -> dict[str, float]:
    """Per-layer times and counts of one traced call (see the module docstring)."""
    out = dict.fromkeys(list(SPAN_METRICS.values()) + list(SELF_METRICS.values()), 0.0)
    out.update(dict.fromkeys(CALL_COUNTS.values(), 0))
    out.update(counts)
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    for i, (name, t0, t1, parent) in enumerate(spans):
        if name in CALL_COUNTS:
            out[CALL_COUNTS[name]] += 1
        if name in SELF_METRICS:
            out[SELF_METRICS[name]] += (t1 - t0) - child_time[i]
        metric = SPAN_METRICS.get(name)
        if metric and not _has_ancestor(spans, parent, metric):
            out[metric] += t1 - t0
    return out


def _has_ancestor(spans: list, parent: int, metric: str) -> bool:
    while parent >= 0:
        if SPAN_METRICS.get(spans[parent][0]) == metric:
            return True
        parent = spans[parent][3]
    return False
