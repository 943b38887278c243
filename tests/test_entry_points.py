"""The library modules hold only what a command runs: each public function of
`symmat`, `matineq`, `fields`, `transforms` and `analysis` is reached by a
command, or is named below with the reason it stays."""

import inspect
import json
import sys

import pytest

from hess2 import analysis, fields, matineq, symmat, transforms
from hess2.cli import main

MODULES = (symmat, matineq, fields, transforms, analysis)
TRACED = "perfbench's tracer wraps it by name"
#: Public functions that no command reaches, each with the reason it stays.
UNREACHED = {
    "hess2.symmat.jacobi_eigh": TRACED,
    "hess2.fields.transform_hessian": TRACED,
    "hess2.fields.convexity_scan": TRACED,
    "hess2.analysis.critical_point_report": "verify is to write it (ROADMAP item 22, step 3)",
}
#: Every command path that reaches the five modules, at small sizes.
CALLS = [
    ["ineq", "--count", "10", "--sign", "positive"],
    ["ineq", "--count", "10", "--sign", "negative"],
    ["ineq", "--count", "10", "--sign", "indefinite"],
    ["identity-scan", "--count", "10"],
    ["verify", "--app", "1", "--nodes", "64"],
    ["verify", "--app", "2", "--nodes", "64"],
    ["verify", "--app", "3", "--p", "0.5", "--nodes", "64"],
]


def _public_functions():
    for module in MODULES:
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                yield f"{module.__name__}.{name}", obj


def test_every_public_function_is_reached_by_a_command(tmp_path):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [main([*argv, "--out", str(tmp_path / str(k))]) for k, argv in enumerate(CALLS)]
    finally:
        sys.setprofile(before)
    assert codes == [0] * len(CALLS)
    unreached = {name for name, fn in _public_functions() if fn.__code__ not in called}
    assert unreached == set(UNREACHED)


@pytest.mark.parametrize("gap, code", [(1e-8, 0), (2e-8, 1)])
def test_identity_scan_fails_above_the_factorization_gate(tmp_path, capsys, monkeypatch, gap,
                                                          code):
    # Gate G04a: the cubic factorization's worst gap over its scale is at most 1e-8.
    monkeypatch.setattr(matineq, "factorization_campaign", lambda seed, count: gap)
    out = tmp_path / "scan"
    assert main(["identity-scan", "--count", "10", "--out", str(out)]) == code
    payload = json.loads((out / "identities.json").read_text())
    assert payload["factorization_worst_gap_over_scale"] == gap
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"cubic factorization worst gap/scale: {gap:.3e}")
