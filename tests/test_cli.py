import gc
import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
import warnings
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import hess2
from hess2 import analysis, cli, fields, matineq, solver, symmat, transforms
from hess2.cli import RunConfig, main, parse_dims, parse_domain, parse_source
from hess2.errors import (HypothesisError, InputError, NumericalError, SolverError,
                          ToolkitError)

# A self-intersecting star whose turns all have one sign.
PENTAGRAM = "polygon:0,1;-0.587785,-0.809017;0.951057,0.309017;-0.951057,0.309017;0.587785,-0.809017"


class TestParsers:
    def test_dims_range(self):
        assert parse_dims("2..5") == (2, 3, 4, 5)
        assert parse_dims("3") == (3,)
        assert parse_dims("2,4,8") == (2, 4, 8)

    def test_source_presets(self):
        assert parse_source("const:2").label() == "const:2"
        assert parse_source("exp-dec").preset == "exp-dec"
        assert parse_source("power:1,0.5").params == (1.0, 0.5)
        assert parse_source("eigen:28").params == (28.0,)

    def test_domain_presets(self):
        disk = parse_domain("disk:1")
        assert disk.kind == "ellipse" and disk.semi_axes == (1.0, 1.0) and disk.label() == "disk:1"
        assert parse_domain("ellipse:3,3").label() == "disk:3"
        assert parse_domain("ellipse:2,1").semi_axes == (2.0, 1.0)
        poly = parse_domain("polygon:-1,-1;1,-1;1,1;-1,1")
        assert poly.kind == "polygon" and len(poly.vertices) == 4

    def test_dims_outside_range_rejected_before_sampling(self, tmp_path, monkeypatch, capsys):
        def no_campaign(*args, **kwargs):
            raise AssertionError("dimensions were sampled before the range check")

        monkeypatch.setattr(matineq, "inequality_campaign", no_campaign)
        for text in ("2..9", "0..3", "8,9"):
            with pytest.raises(InputError, match=r"must be in \[2, 8\]"):
                parse_dims(text)
        out = tmp_path / "never"
        assert main(["ineq", "--dims", "2..9", "--count", "20000", "--out", str(out)]) == 2
        assert capsys.readouterr().out.startswith("input error: --dims '2..9'")
        assert not out.exists()

    def test_dims_repeated_named(self):
        with pytest.raises(InputError, match="repeats dimension 2$"):
            parse_dims("2,3,2")
        with pytest.raises(InputError, match="repeats dimension 3, 5$"):
            parse_dims("5,3,5,3,4")

    def test_config_roundtrip(self):
        cfg = RunConfig("ineq", {"seed": "42", "dims": "2..8", "count": "1000"})
        again = RunConfig.from_text(cfg.canonical_text())
        assert again == cfg
        assert RunConfig.from_text(again.canonical_text()) == again


class TestIneqCommand:
    def test_positive_campaign(self, tmp_path):
        out = tmp_path / "ineq"
        code = main(["ineq", "--dims", "2..4", "--count", "400", "--seed", "42",
                     "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ok"]
        assert set(summary["per_dim"]) == {"2", "3", "4"}
        for dim in (2, 3, 4):
            lines = (out / f"records_dim{dim}.csv").read_text().splitlines()
            assert lines[0] == ("seed,dim,sign,index,lhs,rhs,residual_direct,"
                                "residual_closed,scale")
            assert lines[1].startswith(f"42,{dim},positive,0,")

    def test_summary_blocks_are_their_records(self, tmp_path):
        # A per_dim block is its DimCampaignSummary less dim, its key, and its
        # witness is its CampaignWitness, arrays as nested lists.
        out = tmp_path / "schema"
        assert main(["ineq", "--dims", "2,5", "--count", "50", "--no-records",
                     "--out", str(out)]) == 0
        per_dim = json.loads((out / "summary.json").read_text())["per_dim"]
        result = matineq.inequality_campaign(42, (2, 5), 50, "positive")
        assert set(per_dim) == {"2", "5"}
        for s in result.summaries:
            block = per_dim[str(s.dim)]
            assert set(block) == set(matineq.DimCampaignSummary._fields) - {"dim"}
            assert set(block["witness"]) == set(matineq.CampaignWitness._fields)
            assert block["witness"]["matrix"] == s.witness.matrix.tolist()
            assert block["witness"]["probe"] == s.witness.probe.tolist()

    def test_large_finite_scale(self, tmp_path):
        out = tmp_path / "big"
        assert main(["ineq", "--count", "50", "--scale", "1e30", "--out", str(out)]) == 0
        text = (out / "summary.json").read_text()
        assert json.loads(text)["ok"] and "NaN" not in text

    def test_negative_campaign(self, tmp_path):
        out = tmp_path / "neg"
        code = main(["ineq", "--dims", "4,5", "--count", "400", "--sign",
                     "negative", "--seed", "1", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        for block in summary["per_dim"].values():
            assert block["max_residual_over_scale"] <= 1e-9

    def test_dimension_three_identity(self, tmp_path):
        out = tmp_path / "id3"
        code = main(["ineq", "--dims", "3", "--count", "2000", "--sign",
                     "indefinite", "--seed", "5", "--out", str(out)])
        assert code == 0
        block = json.loads((out / "summary.json").read_text())["per_dim"]["3"]
        assert abs(block["min_residual_over_scale"]) <= 1e-10
        assert abs(block["max_residual_over_scale"]) <= 1e-10

    def test_failing_row_check_exits_one(self, tmp_path, capsys, monkeypatch):
        # A dimension whose rows fail their check is named, and the run exits 1.
        real = matineq._rows_ok
        monkeypatch.setattr(matineq, "_rows_ok",
                            lambda *a: real(*a) & (a[-1] != 3))   # a[-1]: the dimension
        out = tmp_path / "fail"
        assert main(["ineq", "--dims", "2..3", "--count", "50", "--out", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith("[ok]") and lines[1].endswith("[FAIL]")
        assert lines[2] == "invariant violations in dims [3] (seed 42)"
        summary = json.loads((out / "summary.json").read_text())
        assert not summary["ok"] and summary["per_dim"]["2"]["ok"]

    @pytest.mark.parametrize("argv", [
        ["ineq", "--dims", "2..3", "--count", "300", "--seed", "9"],
        ["solve", "--radial"],
        ["solve", "--grid2d", "--h", "0.03125"],
        ["verify", "--app", "1", "--radial", "--nodes", "512"],
    ], ids=["ineq", "solve-radial", "solve-grid2d", "verify-app1-radial"])
    def test_byte_identical_reruns(self, tmp_path, argv):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(argv + ["--out", str(out)]) == 0
        names = sorted(path.name for path in a.iterdir())
        assert names == sorted(path.name for path in b.iterdir())
        assert len(names) >= 3
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "from-config"
        cfg.write_text(f"command=ineq\nseed=9\ndims=2..3\ncount=150\n"
                       f"sign=negative\nout={out}\n")
        assert main(["--config", str(cfg)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["sign"] == "negative"
        assert set(summary["per_dim"]) == {"2", "3"}

    def test_cli_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "override"
        cfg.write_text("command=ineq\nseed=9\ndims=2..3\ncount=150\n")
        assert main(["ineq", "--config", str(cfg), "--dims", "2",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["per_dim"]) == {"2"}


class TestConfigReplay:
    @pytest.mark.parametrize("argv", [
        ["ineq"],
        ["solve", "--radial"],
        ["solve", "--grid2d", "--h", "0.0625"],
        ["solve", "--eigen", "--nodes", "256"],
        ["verify", "--app", "1", "--grid2d", "--h", "0.0625"],
        ["verify", "--app", "2", "--nodes", "256"],
        ["identity-scan", "--count", "5"],
    ], ids=["ineq", "solve-radial", "solve-grid2d", "solve-eigen", "verify-app1-grid2d",
            "verify-app2", "identity-scan"])
    def test_report_config_replays_the_run(self, tmp_path, capsys, argv):
        # The config embedded in a report, given back with --config, runs the
        # same call: same exit code, same stdout, byte-identical files.
        first, again = tmp_path / "first", tmp_path / "again"
        code = main([*argv, "--out", str(first)])
        printed = capsys.readouterr().out
        (report,) = first.glob("*.json")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(json.loads(report.read_text())["config"])
        assert main(["--config", str(cfg), "--out", str(again)]) == code
        assert capsys.readouterr().out == printed
        names = sorted(path.name for path in first.iterdir())
        assert names == sorted(path.name for path in again.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (again / name).read_bytes(), name

    def test_typed_flags_win_over_the_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command=verify\napp=1\nmode=grid2d\nalpha=1,0.5\nnodes=256\n"
                       "gamma=0.5\n")
        out = tmp_path / "typed"
        assert main(["--config", str(cfg), "--radial", "--alpha", "2",
                     "--out", str(out)]) == 0
        config = json.loads((out / "report.json").read_text())["config"]
        assert "\nmode=radial\n" in config and "\nalpha=2\n" in config

    @pytest.mark.parametrize("text", [
        "command=identity-scan\ncount=abc\n",
        "command=identity-scan\ncout=5\n",
        "command=solve\nmode=bogus\n",
        "command=verify\napp=3\np=x\n",
    ], ids=["count-not-a-number", "unknown-key", "unknown-mode", "p-not-a-number"])
    def test_bad_config_exits_two(self, tmp_path, capsys, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "bad")]) == 2
        printed = capsys.readouterr()
        assert printed.out.startswith("config error: ")
        assert printed.out.count("\n") == 1 and printed.err == ""
        assert not (tmp_path / "bad").exists()

    def test_config_line_without_equals_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("command=ineq\nseed 9\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "bad")]) == 2
        printed = capsys.readouterr()
        assert printed.out == "config error: bad config line: 'seed 9'\n" and printed.err == ""
        assert not (tmp_path / "bad").exists()

    def test_config_p_outside_application_three_exits_two(self, tmp_path, capsys):
        # Config lines skip the typed-flag check, so the verify source refuses this --p.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("command=verify\napp=1\np=0.5\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "bad")]) == 2
        printed = capsys.readouterr()
        assert printed.out == ("input error: --p is the exponent of application 3's power "
                               "source; application 1 has none\n") and printed.err == ""
        assert not (tmp_path / "bad").exists()

    def test_config_equals_form(self, tmp_path, capsys):
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["solve", "--radial", "--nodes", "256", "--out", str(first)]) == 0
        printed = capsys.readouterr().out
        cfg = tmp_path / "run.cfg"
        cfg.write_text(json.loads((first / "summary.json").read_text())["config"])
        assert main([f"--config={cfg}", "--out", str(again)]) == 0
        assert capsys.readouterr().out == printed
        for name in ("summary.json", "profile.dat", "solution.npz"):
            assert (first / name).read_bytes() == (again / name).read_bytes(), name

    @pytest.mark.parametrize("argv", [["--config"], ["--config="], ["--config=", "solve"]],
                             ids=["space-form", "equals-form", "equals-form-then-command"])
    def test_config_without_file_exits_two(self, capsys, argv):
        assert main(argv) == 2
        printed = capsys.readouterr()
        assert printed.out == "config error: --config needs a file\n" and printed.err == ""

    def test_top_level_help_lists_config(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["-h"])
        assert done.value.code == 0
        assert "--config FILE" in capsys.readouterr().out


class TestOptionParsing:
    @pytest.mark.parametrize("argv", [
        ["ineq", "--sign", "bogus"],
        [],
        ["solve", "--radial", "--grid2d"],
        ["verify", "--app", "1", "--alp", "2"],
    ], ids=["bad-choice", "no-subcommand", "two-modes", "abbreviated-flag"])
    def test_rejected_option_exits_two(self, tmp_path, monkeypatch, capsys, argv):
        # argparse's rejections end like every other bad input: one line on
        # stdout, exit 2, nothing on stderr.  Flags need their exact names.
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        printed = capsys.readouterr()
        assert printed.out.startswith("input error: ")
        assert printed.out.count("\n") == 1 and printed.err == ""
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, flag, mode", [
        (["verify", "--app", "1", "--lam", "3"], "--lam", "radial"),
        (["verify", "--app", "2", "--f", "const:2"], "--f", "eigen"),
        (["solve", "--radial", "--h", "0.01"], "--h", "radial"),
        (["solve", "--grid2d", "--dim", "5"], "--dim", "grid2d"),
        (["solve", "--eigen", "--f", "const:1"], "--f", "eigen"),
        (["solve", "--radial", "--domain", "ellipse:2,1"], "--domain", "radial"),
    ], ids=["app1-lam", "app2-f", "radial-h", "grid2d-dim", "eigen-f", "radial-domain"])
    def test_typed_flag_the_mode_does_not_read_exits_two(self, tmp_path, capsys, argv,
                                                         flag, mode):
        # A flag the run would ignore is rejected by name, with the mode that
        # ignores it, before any solve and before the report directory exists.
        out = tmp_path / "ignored"
        assert main([*argv, "--out", str(out)]) == 2
        printed = capsys.readouterr()
        assert printed.out.startswith(f"input error: {flag} is not read by ")
        assert mode in printed.out
        assert printed.out.count("\n") == 1 and printed.err == ""
        assert not out.exists()

    @pytest.mark.parametrize("kind, sub", [("file", ""), ("file", "sub"), ("dangling-link", "")],
                             ids=["file", "path-through-file", "dangling-link"])
    @pytest.mark.parametrize("argv, module, work", [
        (["solve", "--radial"], solver, "solve_radial"),
        (["ineq"], matineq, "inequality_campaign"),
        (["verify", "--app", "1"], solver, "solve_radial"),
        (["identity-scan"], fields, "sample_points_in_ball"),
    ], ids=["solve", "ineq", "verify", "identity-scan"])
    def test_out_that_is_not_a_directory_exits_two(self, tmp_path, monkeypatch, capsys,
                                                   argv, module, work, kind, sub):
        # An --out that names a file or a dangling link, or a path through a
        # file, is refused before any solve, sampling or directory creation.
        def no_work(*args, **kwargs):
            raise AssertionError("the command ran before --out was checked")

        monkeypatch.setattr(module, work, no_work)
        blocker = tmp_path / "F"
        if kind == "file":
            blocker.write_text("mine\n")
        else:
            blocker.symlink_to(tmp_path / "missing")
        out = blocker / sub if sub else blocker
        assert main([*argv, "--out", str(out)]) == 2
        printed = capsys.readouterr()
        assert printed.out == f"input error: --out {out}: {blocker} is not a directory\n"
        assert printed.err == ""
        assert blocker.is_symlink() if kind != "file" else blocker.read_text() == "mine\n"
        assert [p.name for p in tmp_path.iterdir()] == ["F"]

    def test_config_records_false_is_no_records(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command=ineq\ndims=2\ncount=10\nrecords=False\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "off")]) == 0
        assert main(["--config", str(cfg), "--records", "--out", str(tmp_path / "on")]) == 0
        assert [p.name for p in (tmp_path / "off").iterdir()] == ["summary.json"]
        assert (tmp_path / "on" / "records_dim2.csv").exists()


class TestOutcomeTable:
    @pytest.mark.parametrize("error, code, prefix", [
        (ToolkitError, 1, "error"),
        (InputError, 2, "input error"),
        (HypothesisError, 2, "hypothesis not met"),
        (NumericalError, 1, "numerical failure"),
        (SolverError, 3, "solver failure"),
    ], ids=["toolkit", "input", "hypothesis", "numerical", "solver"])
    def test_each_error_class_ends_in_its_code_and_line(self, tmp_path, monkeypatch, capsys,
                                                        error, code, prefix):
        # Whatever a command raises, main prints one "<prefix>: <message>" line
        # on stdout, writes nothing to stderr and returns the class's exit code.
        def failing(args):
            raise error("the reason")

        monkeypatch.setattr(cli, "cmd_identity_scan", failing)
        assert main(["identity-scan", "--out", str(tmp_path / "k")]) == code
        printed = capsys.readouterr()
        assert printed.out == f"{prefix}: the reason\n"
        assert printed.err == ""


class TestSolveCommand:
    def test_radial_solve(self, tmp_path):
        out = tmp_path / "rad"
        code = main(["solve", "--radial", "--dim", "3", "--f", "const:1",
                     "--nodes", "512", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["u_min"] == pytest.approx(-0.2886751345948129, abs=1e-6)
        assert (out / "solution.npz").exists()
        first = (out / "profile.dat").read_text().splitlines()
        assert first[0].startswith("# r u up")

    @pytest.mark.parametrize("argv", [
        ["solve", "--radial", "--nodes", "64"],
        ["solve", "--grid2d", "--h", "0.0625"],
        ["verify", "--app", "1", "--nodes", "64"],
    ], ids=["radial", "grid2d", "verify"])
    def test_admissibility_block_is_its_record(self, tmp_path, argv):
        out = tmp_path / "adm"
        assert main([*argv, "--out", str(out)]) == 0
        (path,) = out.glob("*.json")   # summary.json, or verify's report.json
        report = json.loads(path.read_text())
        block = report.get("solution", report)["admissibility"]
        assert set(block) == set(solver.AdmissibilityReport._fields)
        if argv[0] == "solve":
            sol = solver.load_solution(out / "solution.npz")
            assert block == solver.admissibility_report(sol)._asdict()

    def test_grid_solve(self, tmp_path):
        out = tmp_path / "grid"
        code = main(["solve", "--grid2d", "--domain", "disk:1", "--f", "const:1",
                     "--h", "0.03125", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["u_min"] == pytest.approx(-0.5, abs=2e-3)
        assert summary["boundary_gradient_min"] == pytest.approx(1.0, abs=2e-3)
        assert summary["boundary_gradient_max"] == pytest.approx(1.0, abs=2e-3)

    def test_eigen_solve(self, tmp_path):
        out = tmp_path / "eig"
        code = main(["solve", "--eigen", "--dim", "3", "--nodes", "512",
                     "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["lambda1"] == pytest.approx(28.1434, abs=1e-3)
        assert summary["ode_residual_sup"] <= 1e-6

    @pytest.mark.parametrize("argv", [
        ["solve", "--radial", "--dim", "1"],
        ["solve", "--radial", "--f", "eigen"],
        ["solve", "--radial", "--f", "power:1"],
        ["solve", "--radial", "--f", "const:x"],
        ["solve", "--radial", "--f", "const:1,2"],
        ["solve", "--radial", "--f", "cubic:1"],
        ["solve", "--grid2d", "--domain", "ellipse:2"],
        ["solve", "--grid2d", "--domain", "disk:x"],
        ["solve", "--radial", "--nodes", "0"],
        ["verify", "--app", "1", "--nodes", "64", "--gamma", "x"],
        ["solve", "--grid2d", "--h", "nan"],
        ["solve", "--grid2d", "--h", "inf"],
        ["solve", "--grid2d", "--domain", "disk:inf"],
        ["solve", "--grid2d", "--domain", "ellipse:2,nan"],
        ["solve", "--grid2d", "--domain", "polygon:0,0;1,0;inf,1"],
        ["solve", "--grid2d", "--f", "const:nan"],
        ["solve", "--radial", "--radius", "nan"],
        ["solve", "--eigen", "--radius", "nan"],
        ["solve", "--radial", "--f", "exp-dec:nan"],
        ["solve", "--radial", "--f", "power:1,nan"],
        ["solve", "--grid2d", "--domain", PENTAGRAM, "--f", "const:1", "--h", "0.03125"],
    ], ids=["dim1", "eigen-no-lambda", "power-one-param", "const-not-a-number",
            "const-two-params", "unknown-preset", "ellipse-one-axis", "disk-not-a-number",
            "zero-nodes", "verify-gamma-not-a-number", "h-nan", "h-inf", "disk-inf",
            "ellipse-nan", "polygon-inf", "const-nan", "radius-nan", "eigen-radius-nan",
            "exp-dec-nan", "power-nan", "polygon-star"])
    def test_bad_input_exits_two(self, tmp_path, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, "--out", str(tmp_path / "bad")]) == 2
        printed = capsys.readouterr()
        assert printed.out.startswith("input error: ")
        assert printed.out.count("\n") == 1
        assert printed.err == "" and not caught
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--radial", "--f", "eigen:3"],
        ["solve", "--grid2d", "--f", "eigen:3", "--h", "0.0625"],
        ["verify", "--app", "1", "--f", "eigen:3"],
        ["verify", "--app", "1", "--grid2d", "--f", "eigen:3", "--h", "0.0625"],
        ["solve", "--radial", "--f", "power:1,2"],
        ["solve", "--grid2d", "--f", "power:1,2", "--h", "0.0625"],
        ["verify", "--app", "1", "--f", "power:1,2"],
    ], ids=["solve-radial", "solve-grid2d", "verify-radial", "verify-grid2d",
            "power2-solve-radial", "power2-solve-grid2d", "power2-verify-radial"])
    def test_eigen_source_needs_eigen_mode(self, tmp_path, capsys, argv):
        # The eigen preset's trivial solution u = 0 would pass vacuously, and
        # power:lam,2 is that problem: it passed on u_min -9.6e-15 (radial).
        assert main([*argv, "--out", str(tmp_path / "bad")]) == 2
        printed = capsys.readouterr()
        assert printed.out.startswith("input error: ") and "--eigen" in printed.out
        assert printed.out.count("\n") == 1 and printed.err == ""
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--radial", "--f", "power:1,2.5"],
        ["solve", "--grid2d", "--f", "power:1,3", "--h", "0.0625"],
        ["verify", "--app", "1", "--grid2d", "--f", "power:1,3", "--h", "0.0625"],
    ], ids=["solve-radial", "solve-grid2d", "verify-grid2d"])
    def test_power_source_above_two_is_refused(self, tmp_path, capsys, argv):
        # Both solvers fall to u = 0: the radial one passed vacuously, and
        # Newton spent its 50 steps at residual 2e-31.
        assert main([*argv, "--out", str(tmp_path / "bad")]) == 2
        printed = capsys.readouterr()
        assert printed.out.startswith("input error: ") and "u = 0" in printed.out
        assert printed.out.count("\n") == 1 and printed.err == ""
        assert not (tmp_path / "bad").exists()

    def test_radial_underflow_stops_at_its_pass(self, tmp_path, capsys):
        # r^118 underflows near the origin at 1024 nodes: the first pass is not
        # finite, and the solve stops there without a numpy warning.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["solve", "--radial", "--dim", "120", "--out", str(tmp_path / "high")])
        assert code == 3
        printed = capsys.readouterr()
        assert printed.out == ("solver failure: radial Picard pass 1 produced a non-finite "
                               "iterate in dimension 120 (r^118 underflows near the origin)\n")
        assert printed.err == "" and not caught

    @pytest.mark.parametrize("dim", [107, 109])
    def test_radial_subnormal_power_names_its_cause(self, tmp_path, capsys, dim):
        # r^(N-2) is subnormal at the first of 1024 nodes for N >= 106: the
        # passes stay finite, but from N = 107 the profile leaves the cone.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["solve", "--radial", "--dim", str(dim), "--out", str(tmp_path / "s")])
        assert code == 3
        printed = capsys.readouterr()
        assert printed.out == ("solver failure: trace of the Hessian left the admissible "
                               f"cone in dimension {dim} (r^{dim - 2} is subnormal near "
                               "the origin)\n")
        assert printed.err == "" and not caught

    @pytest.mark.parametrize("dim, radius", [(3, "1e-105"), (3, "1e-106"), (5, "1e-62"),
                                             (5, "1e-64"), (8, "1e-38")])
    def test_radial_subnormal_integral_names_its_cause(self, tmp_path, capsys, dim, radius):
        # The Picard integral of f s^(N-1) is subnormal at the first nodes (for
        # N = 3 and radius 1e-105 it is 3e-316 at the rim): the passes stay
        # finite and negative, but the profile leaves the cone.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["solve", "--radial", "--dim", str(dim), "--radius", radius,
                         "--out", str(tmp_path / "s")])
        assert code == 3
        printed = capsys.readouterr()
        assert printed.out == ("solver failure: trace of the Hessian left the admissible "
                               f"cone in dimension {dim} (the Picard integral is subnormal "
                               "near the origin)\n")
        assert printed.err == "" and not caught

    @pytest.mark.parametrize("argv", [
        ["solve", "--radial", "--radius", "1e200"],
        ["solve", "--eigen", "--radius", "1e200"],
        ["solve", "--radial", "--radius", "1e-160"],
        ["solve", "--eigen", "--radius", "1e-200"],
    ], ids=["radial-huge", "eigen-huge", "radial-tiny", "eigen-tiny"])
    def test_unrepresentable_radial_grid_exits_two(self, tmp_path, capsys, argv):
        # r_m^2 overflows or r_1^2 underflows on the 1024-interval grid.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, "--out", str(tmp_path / "bad")]) == 2
        printed = capsys.readouterr()
        assert printed.out.startswith("input error: --radius ")
        assert printed.out.count("\n") == 1
        assert printed.err == "" and not caught
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("argv, flags", [
        (["solve", "--radial", "--nodes", "1000000000000000"], ["--nodes 1000000000000000 "]),
        (["verify", "--app", "2", "--nodes", "1000000000000000"], ["--nodes "]),
        (["solve", "--radial", "--nodes", "100000000000000000000"], ["--nodes "]),
        (["solve", "--eigen", "--nodes", "100000000000000000000"], ["--nodes "]),
        (["solve", "--grid2d", "--h", "1e-7"], ["--h 1e-07 "]),
        (["solve", "--grid2d", "--domain", "disk:1e300"], ["--h ", "--domain disk:1e+300 "]),
        (["solve", "--grid2d", "--domain", "ellipse:1e300,1"], ["--domain ellipse:1e+300,1 "]),
        (["solve", "--grid2d", "--domain", "polygon:0,0;1e300,0;0,1"], ["--domain polygon:3v "]),
        (["solve", "--grid2d", "--domain", "ellipse:1e-300,1"],
         ["--h ", "--domain ellipse:1e-300,1"]),
    ], ids=["radial-petabytes", "app2-petabytes", "radial-beyond-int64", "eigen-beyond-int64",
            "grid-h-1e-7", "disk-1e300", "ellipse-1e300", "polygon-1e300", "ellipse-1e-300"])
    def test_unallocatable_grid_exits_two(self, tmp_path, capsys, argv, flags):
        # Each grid is refused before any array of its size exists: the
        # lattice, the radii, the domain's coordinate range (the 1e300 domains)
        # or (for the thin ellipse) its too few inside nodes.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, "--out", str(tmp_path / "bad")]) == 2
        printed = capsys.readouterr()
        assert printed.out.startswith("input error: ")
        assert printed.out.count("\n") == 1
        assert all(flag in printed.out for flag in flags), printed.out
        assert printed.err == "" and not caught
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--radial", "--radius", "1e140"],
        ["solve", "--radial", "--f", "const:1e308"],
    ], ids=["radius-1e140", "source-1e308"])
    def test_overflowing_picard_integral_names_its_cause(self, tmp_path, capsys, argv):
        # At N = 3, r^1 is normal at every node: the integral overflowed, and
        # nothing underflowed.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, "--out", str(tmp_path / "big")]) == 3
        printed = capsys.readouterr()
        assert printed.out == ("solver failure: radial Picard pass 1 produced a non-finite "
                               "iterate in dimension 3 (the Picard integral overflowed)\n")
        assert printed.err == "" and not caught

    @pytest.mark.parametrize("argv, reason", [
        (["solve", "--radial", "--f", "exp-dec:20"],
         r"radial Picard pass 3 overflowed the source in dimension 3 \(f = exp-dec:20 "),
        (["solve", "--radial", "--f", "exp-dec:50"],
         r"radial Picard pass 2 overflowed the source in dimension 3 \(f = exp-dec:50 "),
        (["solve", "--radial", "--f", "exp-dec:1000"],
         r"radial Picard pass 2 overflowed the source in dimension 3 \(f = exp-dec:1000 "),
        (["solve", "--radial", "--dim", "8", "--f", "exp-dec:30"],
         r"radial Picard pass 2 overflowed the source in dimension 8 \(f = exp-dec:30 "),
        # The amplitude is finite, u_min = -1.649e199, but f(u) = 1e300 |u|^0.5 is not.
        (["verify", "--app", "3", "--p", "0.5", "--lam", "1e300"],
         r"radial solve overflowed the source in dimension 3 \(f = power:1e\+300,0.5 is not "
         r"finite at u_min = -1\.649e\+199\)\n"),
        # The scaling law's amplitude over- and underflows: u = lam^100 (shape).
        (["solve", "--radial", "--f", "power:1048576,1.99"],
         r"radial solve amplitude A = inf takes u or u' out of float range in "
         r"dimension 3 "),
        (["solve", "--radial", "--f", "power:9.5367431640625e-07,1.99"],
         r"radial solve amplitude A = 0\.000e\+00 takes u or u' out of float range in "
         r"dimension 3 "),
        # The solution, u = 1e4 (r^2 - R^2)/2, reaches -3.2e309 at the center.
        (["solve", "--grid2d", "--f", "const:1e8", "--domain", "disk:8e152", "--h", "8e151"],
         r"warm start: the closed form is not finite or off the discrete elliptic branch "
         r"at 305 of 305 inside nodes\n"),
        (["verify", "--app", "1", "--grid2d", "--f", "const:1e8", "--domain", "disk:8e152",
          "--h", "8e151"], r"warm start: the closed form is not finite or off the discrete "
         r"elliptic branch at 305 of 305 inside nodes\n"),
        # f(u) = exp(-u/2) overflows at the warm start (u from -5e199 to -1e198).
        (["solve", "--grid2d", "--f", "exp-dec", "--domain", "disk:1e100", "--h", "1e99"],
         r"warm start overflowed the source \(f = exp-dec:0.5 is not finite at "
         r"u_min = -5\.000e\+199\)"),
    ], ids=["exp-dec-20", "exp-dec-50", "exp-dec-1000", "dim8-exp-dec-30", "app3-lam-1e300",
            "power-amplitude-inf", "power-amplitude-0", "grid-disk-8e152-const-1e8",
            "verify-disk-8e152-const-1e8", "grid-disk-1e100-exp-dec"])
    def test_overflow_exits_three_without_warnings(self, tmp_path, argv, reason):
        # A fresh process, as the console script runs: pytest's warning filter
        # cannot hide a RuntimeWarning printed to stderr there.
        code = "import sys, hess2.cli; sys.exit(hess2.cli.main())"
        done = _run_python(code, *argv, "--out", str(tmp_path / "out"), check=False)
        assert done.returncode == 3
        assert done.stdout.count("\n") == 1
        assert re.match(f"solver failure: {reason}", done.stdout), done.stdout
        assert done.stderr == ""
        assert not any(p.is_file() for p in (tmp_path / "out").rglob("*"))   # no NaN report

    # Newton's stop is relative to max |f(u)| above 1, where S2 - f is rounded
    # relative to f, so the closed-form start u = f^(1/2) (r^2 - 1)/2 is kept.
    @pytest.mark.parametrize("source, h, u_min", [
        ("const:1e300", "0.0625", -5e149), ("const:1e4", "0.1", -50.0),
        ("const:1e4", "0.015625", -50.0)],
        ids=["grid-const-1e300", "grid-const-1e4-h0.1", "grid-const-1e4-h0.015625"])
    def test_large_constant_sources_solve_without_warnings(self, tmp_path, source, h, u_min):
        code = "import sys, hess2.cli; sys.exit(hess2.cli.main())"
        done = _run_python(code, "solve", "--grid2d", "--f", source, "--h", h,
                           "--out", str(tmp_path / "out"), check=False)
        assert (done.returncode, done.stderr) == (0, "")
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["iterations"] == 0
        assert summary["u_min"] == pytest.approx(u_min, rel=1e-14)

    @pytest.mark.parametrize("argv, message", [
        (["--domain", "square:1"], "unknown domain 'square:1'\n"),
        (["--domain", "ball:1"], "unknown domain 'ball:1'\n"),
        (["--domain", "disk:1e160", "--h", "1e159"], "--domain disk:1e+160 is out of range: "),
        (["--domain", "disk:1e300", "--h", "1e299"], "--domain disk:1e+300 is out of range: "),
        (["--domain", "ellipse:1e160,1e160", "--h", "1e159"],
         "--domain disk:1e+160 is out of range: "),
        (["--domain", "polygon:-1e160,-1e160;1e160,-1e160;0,1e160", "--h", "1e159"],
         "--domain polygon:3v is out of range: "),
    ], ids=["unknown", "ball-alias", "disk-1e160", "disk-1e300", "ellipse-1e160",
            "polygon-1e160"])
    def test_rejected_domain_exits_two(self, tmp_path, argv, message):
        # Squares of 1e160 coordinates overflow: such a domain is refused by
        # name before any lattice exists.  A fresh process, as for overflows.
        code = "import sys, hess2.cli; sys.exit(hess2.cli.main())"
        out = tmp_path / "out"
        done = _run_python(code, "solve", "--grid2d", *argv, "--out", str(out), check=False)
        assert done.returncode == 2
        assert done.stdout.startswith(f"input error: {message}"), done.stdout
        assert done.stdout.count("\n") == 1 and done.stderr == "" and not out.exists()

    @pytest.mark.parametrize("domain, h, label", [
        ("disk:1e-153", "1e-154", "disk:1e-153"), ("disk:1e-160", "1e-161", "disk:1e-160"),
        ("ellipse:1e-160,1e-160", "1e-161", "disk:1e-160"),
    ], ids=["disk-1e-153", "disk-1e-160", "ellipse-1e-160"])
    def test_tiny_lattice_exits_two(self, tmp_path, domain, h, label):
        # Stencil coefficients 2/(theta (theta + theta') h^2) overflow once h^2
        # is subnormal; the lattice is refused before any factorisation, and
        # the ellipse's queries run in units of its size, so nothing warns.
        code = "import sys, hess2.cli; sys.exit(hess2.cli.main())"
        out = tmp_path / "out"
        done = _run_python(code, "solve", "--grid2d", "--f", "const:1", "--domain", domain,
                           "--h", h, "--out", str(out), check=False)
        assert done.returncode == 2
        assert done.stdout.startswith(f"input error: --h {h} on --domain {label} is out "
                                      "of range: "), done.stdout
        assert done.stdout.count("\n") == 1 and done.stderr == "" and not out.exists()

    @pytest.mark.parametrize("domain, h, u_min, grad", [
        ("disk:1e-100", "1e-101", "-5.000000000e-201", "1.000000000e-100"),
        ("disk:1", "0.1", "-0.500000000", "1.000000000"),
        ("disk:1e100", "1e99", "-5.000000000e+199", "1.000000000e+100"),
    ], ids=["1e-100", "1", "1e100"])
    def test_grid_prints_nine_digits_at_every_scale(self, tmp_path, capsys, domain, h, u_min,
                                                   grad):
        # u = (r^2 - R^2)/2 and |grad u| = R: fixed point at R = 1, exponent
        # form where fixed point would print zeros or 200-digit integers.
        out = tmp_path / "out"
        assert main(["solve", "--grid2d", "--f", "const:1", "--domain", domain, "--h", h,
                     "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [f"u_min = {u_min}", f"boundary |grad u| in [{grad}, {grad}]"]
        summary = json.loads((out / "summary.json").read_text())
        assert float(u_min) == pytest.approx(summary["u_min"], rel=1e-9)
        assert float(grad) == pytest.approx(summary["boundary_gradient_max"], rel=1e-9)

    def test_tiny_disk_solves_to_scale(self, tmp_path, capsys):
        # With h^2 = 1e-302 the stencil weights, about 1/(theta h)^2, stay finite.
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve", "--grid2d", "--f", "const:1", "--domain", "disk:1e-150",
                         "--h", "1e-151", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["u_min"] / 1e-300 == pytest.approx(-0.5, rel=1e-12)
        assert capsys.readouterr().err == "" and not caught

    @pytest.mark.parametrize("argv, reason", [
        (["solve", "--radial", "--radius", "1e-150"],
         "radial Picard pass 1 produced an iterate that vanishes inside the ball in "
         "dimension 3 (the Picard integral underflowed)"),
        (["solve", "--eigen", "--radius", "1e-150"],
         "inverse iteration step 1 produced an iterate that vanishes inside the ball in "
         "dimension 3 (the Picard integral underflowed)"),
        (["solve", "--eigen", "--radius", "1e140"],
         "inverse iteration step 1 produced a non-finite iterate in dimension 3 "
         "(the Picard integral overflowed)"),
        (["solve", "--eigen", "--radius", "1e-100"],
         "inverse iteration step 1 produced an eigenvalue 1/s^2 out of float range in "
         "dimension 3 (sup norm s = 2.080e-201)"),
        (["solve", "--eigen", "--radius", "1e80"],
         "inverse iteration step 1 produced an eigenvalue 1/s^2 out of float range in "
         "dimension 3 (sup norm s = 2.080e+159)"),
    ], ids=["radial-1e-150", "eigen-1e-150", "eigen-1e140", "eigen-1e-100", "eigen-1e80"])
    def test_out_of_range_picard_pass_names_its_cause(self, tmp_path, capsys, argv, reason):
        # The grid is representable, but the first pass's integral (or the
        # eigenvalue read off it) leaves the float range.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, "--out", str(tmp_path / "out")]) == 3
        printed = capsys.readouterr()
        assert printed.out == f"solver failure: {reason}\n"
        assert printed.err == "" and not caught

    def test_radial_dimension_106_still_converges(self, tmp_path, capsys):
        assert main(["solve", "--radial", "--dim", "106", "--out", str(tmp_path / "s")]) == 0

    def test_unsolvable_exits_three(self, tmp_path, capsys):
        # Unit-rate decreasing exponential on the wide ellipse sits beyond the
        # solvability fold; the solver reports a stall, its step and residual.
        code = main(["solve", "--grid2d", "--domain", "ellipse:2,1",
                     "--f", "exp-dec:1.5", "--h", "0.0625",
                     "--out", str(tmp_path / "fold")])
        assert code == 3
        printed = capsys.readouterr().out
        assert printed.count("\n") == 1
        assert re.match(r"solver failure: damped Newton stalled at step [1-9]\d* "
                        r"\(residual \d\.\d{3}e[+-]\d+\)", printed), printed

    def test_warm_start_failure_counts_sweeps_and_nodes(self, tmp_path, capsys):
        code = main(["solve", "--grid2d", "--domain", "polygon:0,1;-0.9,-0.6;1,-0.5",
                     "--f", "const:1", "--h", "0.03125", "--out", str(tmp_path / "warm")])
        assert code == 3
        printed = capsys.readouterr().out
        assert re.match(r"solver failure: warm start: [1-9]\d* of \d+ inside nodes still "
                        r"off the discrete elliptic branch after 200 Poisson-style sweeps$",
                        printed), printed

    def test_non_finite_warm_start_names_its_sweep(self, tmp_path, capsys):
        # exp(-50 u) overflows once the sweeps deepen u on the square.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["solve", "--grid2d", "--domain", "polygon:1,-1;1,1;-1,1;-1,-1",
                         "--f", "exp-dec:50", "--h", "0.0625", "--out", str(tmp_path / "nan")])
        assert code == 3
        printed = capsys.readouterr()
        assert re.match(r"solver failure: warm start: Poisson-style sweep [1-9]\d* produced "
                        r"a non-finite iterate\n$", printed.out), printed.out
        assert printed.err == "" and not caught

    def test_skewed_quadrilateral_converges(self, tmp_path):
        u_min = {}
        for h in ("0.03125", "0.015625"):
            out = tmp_path / h
            assert main(["solve", "--grid2d", "--domain", "polygon:-1,-0.8;1.2,-1;0.9,1.1;-0.7,0.8",
                         "--f", "const:1", "--h", h, "--out", str(out)]) == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary["admissibility"]["admissible"]
            assert summary["newton_residual_sup"] <= 1e-10
            u_min[h] = summary["u_min"]
        assert u_min["0.015625"] < u_min["0.03125"]


class TestVerifyCommand:
    def test_application1_radial(self, tmp_path):
        out = tmp_path / "v1"
        code = main(["verify", "--app", "1", "--radial", "--dim", "3",
                     "--alpha", "1", "--gamma", "0.5", "--nodes", "512",
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["all_hold"]
        slack = report["bounds"]["gamma=0.5"]["slack"]
        assert slack == pytest.approx(0.2440169358562925, abs=1e-5)
        rows = (out / "verdicts.csv").read_text().splitlines()
        assert rows[0] == "domain,f,alpha,gamma,margin,slack,holds"
        assert rows[1].endswith("true")

    def test_csv_and_stdout_lines_come_from_one_record(self, tmp_path, capsys):
        out = tmp_path / "v"
        assert main(["verify", "--app", "1", "--nodes", "64", "--alpha", "1", "--alpha", "2",
                     "--out", str(out)]) == 0
        lines = (out / "verdicts.csv").read_text().splitlines()
        assert lines[0] == ",".join(cli.VerdictRow._fields)
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == len(lines) - 1 == 4
        for line, shown in zip(lines[1:], printed):
            domain, f, *numbers, holds = line.split(",")
            row = cli.VerdictRow(domain, f, *map(float, numbers), holds == "true")
            assert row.csv_line() == line + "\n"
            assert row.stdout_line() == shown

    def test_application1_disk_equality(self, tmp_path):
        out = tmp_path / "v1g"
        code = main(["verify", "--app", "1", "--grid2d", "--domain", "disk:1",
                     "--f", "const:1", "--h", "0.03125", "--alpha", "1",
                     "--gamma", "0.5", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert abs(report["bounds"]["gamma=0.5"]["slack"]) <= 5 * 0.03125**2

    def test_non_convex_scan_skips_the_bounds(self, tmp_path, capsys, monkeypatch):
        # A failed convexity hypothesis writes a report that says so, and nothing else.
        def not_convex(sol, transform):
            return transforms.ConvexityReport.of(transform.name, np.array([[-1.0, 1.0]]),
                                                 np.zeros((1, 1)))

        monkeypatch.setattr(analysis, "convexity_scan_solution", not_convex)
        out = tmp_path / "skip"
        assert main(["verify", "--app", "1", "--nodes", "256", "--out", str(out)]) == 2
        assert capsys.readouterr().out == ("hypothesis not met: neg-sqrt composition is not "
                                           "convex (min eigenvalue -1.000e+00)\n")
        assert [p.name for p in out.iterdir()] == ["report.json"]
        report = json.loads((out / "report.json").read_text())
        assert report["skipped"] == "convexity hypothesis failed for neg-sqrt"
        assert "bounds" not in report

    def test_application2_planar_rejected(self, tmp_path, capsys):
        # The eigenvalue problem is solved on balls only; a planar request
        # must not fall back to the radial solve.
        code = main(["verify", "--app", "2", "--grid2d",
                     "--out", str(tmp_path / "v2g")])
        assert code == 2
        printed = capsys.readouterr().out
        assert printed.startswith("input error: ") and "balls only" in printed
        assert printed.count("\n") == 1
        assert not (tmp_path / "v2g").exists()

    @pytest.mark.parametrize("app", ["1", "2"])
    def test_exponent_outside_application3_rejected(self, tmp_path, capsys, app):
        # --p belongs to the power source of application 3; elsewhere it would
        # be ignored silently.
        assert main(["verify", "--app", app, "--p", "0.5", "--out", str(tmp_path / "bad")]) == 2
        printed = capsys.readouterr()
        assert printed.out.startswith("input error: ") and "--p" in printed.out
        assert printed.out.count("\n") == 1 and printed.err == ""
        assert not (tmp_path / "bad").exists()

    def test_application2_reports_eigen_mode(self, tmp_path):
        # verify --app 2 solves the radial eigenvalue problem; the recorded
        # configuration names that solve, as `solve --eigen` does.
        out = tmp_path / "v2"
        code = main(["verify", "--app", "2", "--nodes", "256", "--gamma", "0.5",
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert "\nmode=eigen\n" in report["config"]
        assert report["solution"]["source"].startswith("eigen:")

    @pytest.mark.parametrize("mode", [["--radial"], ["--grid2d", "--h", "0.0625"]])
    def test_increasing_source_rejected_before_the_solve(self, tmp_path, monkeypatch,
                                                         capsys, mode):
        # The a priori bounds need a nonincreasing source; exp-inc is not one,
        # and the call must end before any solve.
        for name in ("solve_radial", "solve_grid2d"):
            monkeypatch.setattr(solver, name, None)
        out = tmp_path / "inc"
        assert main(["verify", "--app", "1", *mode, "--f", "exp-inc", "--out", str(out)]) == 2
        printed = capsys.readouterr()
        assert printed.out.startswith("hypothesis not met: --f exp-inc:1 is not nonincreasing")
        assert printed.out.count("\n") == 1 and printed.err == ""
        assert not out.exists()

    def test_application2_eigen_flag(self, tmp_path, capsys):
        # --eigen names application 2's own mode, as its report records it.
        runs = [tmp_path / "plain", tmp_path / "flag"]
        for out, flag in zip(runs, ([], ["--eigen"])):
            assert main(["verify", "--app", "2", *flag, "--nodes", "256", "--gamma", "0.5",
                         "--out", str(out)]) == 0
        for name in ("report.json", "verdicts.csv", "pfunction.dat"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name

    def test_application2_half_verdict_is_scale_invariant(self, tmp_path):
        # On the ball of radius R the source integral scales like R^-4 and
        # |grad u|^2 like R^-2, so only the gamma = 1/2 bound is consistent in
        # units: its margin and slack times R^2 are the same numbers at every
        # radius, while the gamma = 1 slack times R^2 moves with R.
        gamma1 = set()
        for radius in ("0.5", "1", "2"):
            out = tmp_path / radius
            assert main(["verify", "--app", "2", "--radius", radius, "--out", str(out)]) == 0
            bounds = json.loads((out / "report.json").read_text())["bounds"]
            r2 = float(radius) ** 2
            assert bounds["gamma=0.5"]["pointwise_min_slack"] * r2 == 0.0015270710014225752
            assert bounds["gamma=0.5"]["slack"] * r2 == 3.750881578418774
            gamma1.add(bounds["gamma=1"]["slack"] * r2)
        assert len(gamma1) == 3

    def test_application3_high_exponent_rejected(self, tmp_path):
        code = main(["verify", "--app", "3", "--p", "2.5",
                     "--out", str(tmp_path / "v3")])
        assert code == 2

    def test_application3_valid_exponent(self, tmp_path):
        out = tmp_path / "v3ok"
        code = main(["verify", "--app", "3", "--p", "0.5", "--lam", "1",
                     "--nodes", "512", "--gamma", "0.5", "--alpha", "1",
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["bounds"]["gamma=0.5"]["holds"]

    @pytest.mark.parametrize("alphas,exit_code", [
        ([], 0), (["--alpha", "0.5", "--alpha", "2"], 1)])
    def test_one_integral_per_gamma_and_one_scan(self, tmp_path, monkeypatch, alphas,
                                                 exit_code):
        # The bound audit and every alpha verdict read the same field per gamma
        # (alpha = 0.5 misses the minimum principle on the ball, hence exit 1).
        calls = Counter()
        for name in ("source_integral", "convexity_scan_solution"):
            real = getattr(analysis, name)

            def counted(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(analysis, name, counted)
        code = main(["verify", "--app", "1", "--radial", "--nodes", "256", *alphas,
                     "--out", str(tmp_path / "v")])
        assert code == exit_code
        assert calls == {"source_integral": 2, "convexity_scan_solution": 1}


    # A P-function or a source integral out of the float range: one line naming
    # alpha and gamma, or the source and gamma, exit 1 and no report.
    @pytest.mark.parametrize("flags, reason", [
        (["--alpha", "1e308"], r"P-function at alpha = 1e\+308, gamma = 0\.5 is not finite "
                               r"on the interior nodes or boundary samples"),
        (["--f", "const:1e300"], r"int_u\^0 f\^gamma ds for f = const:1e\+300, gamma = 1: "
                                 r"the integral overflows on \[-2\.88"),
        # Each gap's integral is finite; their sum, 2.9e308, is not.
        (["--f", "const:1e206"], r"int_u\^0 f\^gamma ds for f = const:1e\+206, gamma = 1: "
                                 r"the integral overflows\n"),
        # The integral, 1.1e308, is finite; twice it, the alpha = 1 field, is not.
        (["--f", "const:7e205"], r"P-function at alpha = 1, gamma = 1 is not finite "),
        # The alpha = 0.5 field is finite, but its bound reads the alpha = 1 field.
        (["--f", "const:7e205", "--alpha", "0.5"],
         r"P-function at alpha = 1, gamma = 1 is not finite "),
    ], ids=["alpha-1e308", "const-1e300", "const-1e206", "const-7e205", "const-7e205-alpha-0.5"])
    def test_overflowing_pfunction_exits_one_without_warnings(self, tmp_path, flags, reason):
        code = "import sys, hess2.cli; sys.exit(hess2.cli.main())"
        done = _run_python(code, "verify", "--app", "1", "--nodes", "64", *flags,
                           "--out", str(tmp_path / "out"), check=False)
        assert done.returncode == 1
        assert re.match(f"numerical failure: {reason}", done.stdout), done.stdout
        assert done.stdout.count("\n") == 1 and done.stderr == ""
        assert not (tmp_path / "out").exists()


class TestCampaignScanVerifyInputs:
    @pytest.mark.parametrize("argv", [
        ["ineq", "--dims", "x"],
        ["ineq", "--dims", "2..1"],
        ["ineq", "--dims", "2", "--count", "10", "--scale", "nan"],
        ["identity-scan", "--count", "0"],
        ["verify", "--app", "1", "--alpha", "nan"],
        ["verify", "--app", "1", "--gamma", "0.7"],
        ["ineq", "--count", "10", "--seed", "-1"],
        ["identity-scan", "--count", "10", "--seed", "-1"],
        ["ineq", "--count", "5", "--scale", "1e200"],
        ["ineq", "--count", "5", "--sign", "indefinite", "--scale", "1e200"],
        ["ineq", "--count", "10", "--dims", "2,3,2"],
        ["ineq", "--count", "20000", "--dims", "2..9"],
        ["ineq", "--count", "10", "--dims", "1,2"],
        ["ineq", "--count", "5", "--scale", "1e-200"],
        ["ineq", "--count", "5", "--sign", "negative", "--scale", "1e-200"],
        ["verify", "--app", "1", "--eigen"],
    ], ids=["dims-not-a-number", "dims-empty-range", "scale-nan", "scan-zero-count",
            "verify-alpha-nan", "verify-gamma-unsupported", "ineq-seed-negative",
            "scan-seed-negative", "scale-overflows", "scale-overflows-indefinite",
            "dims-repeated", "dims-above-max", "dims-below-two", "scale-underflows",
            "scale-underflows-negative", "verify-app1-eigen"])
    def test_bad_input_exits_two(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "bad")]) == 2
        printed = capsys.readouterr().out
        assert printed.startswith("input error: ")
        assert printed.count("\n") == 1
        assert not (tmp_path / "bad").exists()


class TestCampaignStream:
    @pytest.mark.parametrize("sign", ["positive", "negative", "indefinite"])
    def test_records_of_a_smaller_count_are_a_prefix(self, tmp_path, sign):
        short, long = tmp_path / "short", tmp_path / "long"
        for out, count in ((short, "3000"), (long, "10000")):
            assert main(["ineq", "--dims", "2,5,8", "--count", count, "--sign", sign,
                         "--seed", "6", "--out", str(out)]) == 0
        assert symmat.CAMPAIGN_CHUNK < 3000 < 10000
        for dim in (2, 5, 8):
            rows = (short / f"records_dim{dim}.csv").read_bytes().splitlines(keepends=True)
            more = (long / f"records_dim{dim}.csv").read_bytes().splitlines(keepends=True)
            assert len(rows) == 3001 and len(more) == 10001
            assert rows == more[:3001]

    @pytest.mark.parametrize("sign", ["positive", "negative", "indefinite"])
    def test_witness_replays_from_its_index_alone(self, tmp_path, sign):
        out = tmp_path / "w"
        assert main(["ineq", "--dims", "2..8", "--count", "5000", "--sign", sign,
                     "--seed", "13", "--scale", "2.5", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        for dim, block in summary["per_dim"].items():
            wit = block["witness"]
            a, v, lam, w = symmat.sample_batch(13, int(dim), sign, 2.5, 1,
                                               first=wit["index"])
            assert a[0].tolist() == wit["matrix"] and v[0].tolist() == wit["probe"]
            _, _, direct, closed, _ = matineq._campaign_residuals(a, v, lam, w)
            assert float(direct[0]) == wit["residual_direct"]
            assert float(closed[0]) == wit["residual_closed"]
            # ... and it is the worst row of the records.
            rows = (out / f"records_dim{dim}.csv").read_text().splitlines()[1:]
            rel = [float(r.split(",")[6]) / float(r.split(",")[8]) for r in rows]
            key = {"positive": [-x for x in rel], "negative": rel,
                   "indefinite": [abs(x) for x in rel]}[sign]
            assert key.index(max(key)) == wit["index"]
            assert rel[wit["index"]] in (block["min_residual_over_scale"],
                                         block["max_residual_over_scale"])

    @pytest.mark.parametrize("count", ["1000000000000000", "10000000000000000000"],
                             ids=["petabytes", "beyond-int64"])
    def test_records_beyond_free_space_exit_two(self, tmp_path, capsys, count):
        assert main(["ineq", "--dims", "2", "--count", count,
                     "--out", str(tmp_path / "huge")]) == 2
        printed = capsys.readouterr()
        assert printed.out.startswith("input error: count ") and "--count" in printed.out
        assert printed.out.count("\n") == 1 and printed.err == ""
        assert not (tmp_path / "huge").exists()

    def test_free_space_check_counts_shortest_rows(self, tmp_path, capsys, monkeypatch):
        # 100 rows in each of 2 dimensions need at least 7000 bytes; records
        # off, the same campaign needs no space.
        for free, code in ((6999, 2), (7000, 0)):
            usage = shutil.disk_usage(tmp_path)._replace(free=free)
            monkeypatch.setattr(cli.shutil, "disk_usage", lambda path: usage)
            assert main(["ineq", "--dims", "2,3", "--count", "100",
                         "--out", str(tmp_path / str(free))]) == code
            assert (tmp_path / str(free)).exists() == (code == 0)
        assert "needs at least 7000 bytes" in capsys.readouterr().out
        assert main(["ineq", "--dims", "2,3", "--count", "100", "--no-records",
                     "--out", str(tmp_path / "off")]) == 0

    def test_failure_after_written_chunks_leaves_no_output(self, tmp_path, capsys):
        # The underflow is found once a dimension's last chunk is in, so a
        # records file has been written when the campaign raises.
        argv = ["ineq", "--dims", "2", "--count", "3000", "--scale", "1e-200"]
        assert main([*argv, "--out", str(tmp_path / "a" / "b")]) == 2
        assert not (tmp_path / "a").exists()
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "notes.txt").write_text("mine\n")
        assert main([*argv, "--out", str(kept)]) == 2
        assert [p.name for p in kept.iterdir()] == ["notes.txt"]
        assert capsys.readouterr().out.count("input error: scale 1e-200 underflows") == 2

    def test_memory_stays_flat_in_count_with_records(self, tmp_path):
        # The records of 300000 samples would take 12 MB as a table; streamed,
        # the peak stays near that of 3000 samples.
        # VmHWM, not ru_maxrss: Linux carries the spawning process's peak into
        # ru_maxrss across exec, so the test runner's own size would hide the child's.
        code = textwrap.dedent("""
            import re, sys
            from pathlib import Path
            import hess2.cli

            assert hess2.cli.main(sys.argv[1:]) == 0
            print(re.search(r"VmHWM:\\s*(\\d+) kB", Path("/proc/self/status").read_text())[1])
        """)
        peaks = []
        for count in ("3000", "300000"):
            done = _run_python(code, "ineq", "--dims", "2", "--count", count,
                               "--sign", "negative", "--out", str(tmp_path / count))
            assert len((tmp_path / count / "records_dim2.csv").read_bytes().splitlines()) \
                == int(count) + 1
            peaks.append(int(done.stdout.splitlines()[-1]) / 1024)
        assert abs(peaks[1] - peaks[0]) < 6.0, peaks


def _run_python(code, *args, check=True):
    """Run `python -c code args` in a fresh interpreter that imports this hess2."""
    src = str(Path(hess2.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), check=check)


class TestStartup:
    def test_heap_is_frozen_at_process_exit(self, tmp_path):
        # Registered before the commands run, this handler runs after the CLI's
        # own (atexit handlers run last in, first out), and sees the frozen heap.
        code = textwrap.dedent("""
            import atexit, gc, sys
            import hess2.cli

            atexit.register(lambda: print(f"frozen {gc.get_freeze_count() > 0}"))
            print(gc.get_freeze_count())
            for k, argv in enumerate((["solve", "--radial"], ["ineq", "--count", "10"])):
                assert hess2.cli.main([*argv, "--out", f"{sys.argv[1]}/{k}"]) == 0
            print(gc.get_freeze_count())
        """)
        lines = _run_python(code, str(tmp_path)).stdout.splitlines()
        assert lines[0] == "0" and lines[-2] == "0"
        assert lines[-1] == "frozen True"

    def test_in_process_calls_keep_a_normal_heap(self, tmp_path, capsys):
        enabled = gc.isenabled()
        assert main(["solve", "--radial", "--out", str(tmp_path / "s")]) == 0
        assert gc.get_freeze_count() == 0
        assert gc.isenabled() == enabled

    def test_cli_import_skips_unused_scipy_subpackages(self):
        # Every CLI call pays for what `import hess2.cli` loads; the toolkit
        # uses no scipy subpackage, so none may load, though scipy is importable.
        code = ("import sys, hess2.cli; "
                "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
        done = _run_python(code)
        assert done.stdout.strip() == "[]"

    def test_only_planar_solves_load_scipy(self, tmp_path):
        # The planar sparse solves, which alone once loaded scipy, now load the
        # planar LU (`hess2.multifrontal`) in its place; no call loads scipy,
        # though it is importable, nor numpy.polynomial (the radial Gauss rule is
        # the package's own) or dataclasses (records are NamedTuples).  The
        # planar call at the end, which takes Newton steps and so factors, shows
        # the check can fail (the default disk's const:1 solve starts at its
        # solution and factors nothing).
        code = textwrap.dedent("""
            import json, sys
            import hess2.cli

            def loaded():
                return sorted(m for m in sys.modules
                              if m.partition(".")[0] in ("scipy", "dataclasses")
                              or m.startswith(("numpy.polynomial", "hess2.multifrontal")))

            seen = [("import", 0, loaded())]
            for k, argv in enumerate(json.loads(sys.argv[1])):
                code = hess2.cli.main([*argv, "--out", f"{sys.argv[2]}/{k}"])
                seen.append((" ".join(argv), code, loaded()))
            print(json.dumps(seen))
        """)
        calls = [["ineq", "--count", "10"], ["solve", "--radial"], ["solve", "--eigen"],
                 ["verify", "--app", "1", "--radial"], ["identity-scan", "--count", "10"],
                 ["solve", "--grid2d", "--f", "exp-dec", "--h", "0.0625"]]
        done = _run_python(code, json.dumps(calls), str(tmp_path))
        seen = json.loads(done.stdout.splitlines()[-1])
        assert seen[0] == ["import", 0, []]
        for name, code, modules in seen[1:]:
            assert code == 0, name
            assert not [m for m in modules if m != "hess2.multifrontal"], name
        for name, code, modules in seen[1:-1]:
            assert "hess2.multifrontal" not in modules, name
        name, code, modules = seen[-1]
        assert "hess2.multifrontal" in modules, name

    def test_no_command_loads_scipy(self, tmp_path):
        # Every command runs on numpy alone: scipy is made unimportable, and no
        # call may fail for it.  The planar LU (`hess2.multifrontal`) loads on
        # first use, and nothing else the check names: numpy.polynomial and
        # dataclasses load in no call.  The planar calls at the end, which take
        # Newton steps and so factor, show the check can fail.
        code = textwrap.dedent("""
            import json, sys
            sys.modules["scipy"] = None   # any import of scipy now raises ImportError
            import hess2.cli

            def loaded():
                return sorted(m for m in sys.modules
                              if m.partition(".")[0] == "dataclasses"
                              or m.startswith(("numpy.polynomial", "hess2.multifrontal")))

            seen = [("import", 0, loaded())]
            for k, argv in enumerate(json.loads(sys.argv[1])):
                code = hess2.cli.main([*argv, "--out", f"{sys.argv[2]}/{k}"])
                seen.append((" ".join(argv), code, loaded()))
            print(json.dumps(seen))
        """)
        calls = [["ineq", "--count", "10"], ["solve", "--radial"], ["solve", "--eigen"],
                 ["verify", "--app", "1", "--radial"], ["identity-scan", "--count", "10"],
                 ["solve", "--grid2d", "--f", "exp-dec", "--h", "0.0625"],
                 ["verify", "--app", "1", "--grid2d", "--h", "0.0625"]]
        done = _run_python(code, json.dumps(calls), str(tmp_path))
        assert done.stderr == ""
        seen = json.loads(done.stdout.splitlines()[-1])
        assert seen[0] == ["import", 0, []]
        for name, code, modules in seen[1:-2]:
            assert code == 0, name
            assert modules == [], name
        for name, code, modules in seen[-2:]:
            assert code == 0 and modules == ["hess2.multifrontal"], name

    @pytest.mark.parametrize("argv, absent", [
        (["ineq", "--no-records", "--count", "10"],
         ["hess2.solver", "hess2.analysis", "hess2.domain", "hess2.fields", "scipy"]),
        (["solve", "--radial"],
         ["hess2.matineq", "hess2.fields", "hess2.analysis", "hess2.transforms",
          "hess2.multifrontal", "scipy"]),
        (["verify", "--app", "1", "--radial"],
         ["hess2.matineq", "hess2.fields", "hess2.multifrontal", "scipy"]),
        (["identity-scan", "--count", "10"],
         ["hess2.solver", "hess2.analysis", "hess2.domain", "scipy"]),
    ], ids=["ineq", "solve", "verify", "identity-scan"])
    def test_each_command_imports_only_its_modules(self, tmp_path, argv, absent):
        code = textwrap.dedent("""
            import json, sys
            import hess2.cli

            code = hess2.cli.main(sys.argv[2:])
            print(json.dumps([code, sorted(m for m in json.loads(sys.argv[1])
                                           if m in sys.modules)]))
        """)
        done = _run_python(code, json.dumps(absent), *argv, "--out", str(tmp_path / "out"))
        assert json.loads(done.stdout.splitlines()[-1]) == [0, []]


class TestRowWriter:
    # Floats whose repr is easy to get wrong: signs of zero and infinity, the
    # least subnormal, integral values, and the exponent-notation thresholds.
    SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5, 3.0, -2.0,
               0.1, 1.0 / 3.0, -1.7976931348623157e308, 2.0**53 + 2.0]

    def _columns(self, rows, k, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(rows * k) * 10.0 ** rng.integers(-300, 300, rows * k)
        values[::2] = np.resize(self.SPECIAL, values[::2].size)
        return list(values.reshape(rows, k).T)

    @pytest.mark.parametrize("rows", [1, symmat.CAMPAIGN_CHUNK, symmat.CAMPAIGN_CHUNK + 1])
    def test_records_rows_match_per_value_repr(self, tmp_path, rows):
        columns = self._columns(rows, 5, rows)
        path = tmp_path / "records.csv"
        with path.open("w") as fh:
            cli._write_rows(fh, np.column_stack(columns).T, "42,3,positive,", ",", index=0)
        expect = "".join("42,3,positive," + f"{i}," + ",".join(repr(float(c[i])) for c in columns)
                         + "\n" for i in range(rows))
        assert path.read_text() == expect

    @pytest.mark.parametrize("rows", [1, symmat.CAMPAIGN_CHUNK, symmat.CAMPAIGN_CHUNK + 1])
    def test_profile_rows_match_per_value_repr(self, tmp_path, rows):
        columns = self._columns(rows, 4, rows + 1)
        path = tmp_path / "profile.dat"
        with path.open("w") as fh:
            cli._write_rows(fh, columns)
        expect = "".join(" ".join(repr(float(c[i])) for c in columns) + "\n"
                         for i in range(rows))
        assert path.read_text() == expect

    def test_one_row_of_every_special_value(self, tmp_path):
        path = tmp_path / "row.dat"
        with path.open("w") as fh:
            cli._write_rows(fh, [np.array([v]) for v in self.SPECIAL], "# ", ",", index=0)
        assert path.read_text() == ("# 0," + ",".join(repr(float(v)) for v in self.SPECIAL)
                                    + "\n")
        assert path.read_text().startswith("# 0,nan,inf,-inf,-0.0,0.0,5e-324,1e+16,1e-05,3.0,")

    @staticmethod
    def _profile_reference(names, columns, pf_list):
        header = f"# {names}" + "".join(f" phi_a{pf.alpha:g}_g{pf.gamma:g}" for pf in pf_list)
        columns = [*columns, *(pf.phi for pf in pf_list)]
        return header + "\n" + "".join(" ".join(repr(float(c[i])) for c in columns) + "\n"
                                       for i in range(len(columns[0])))

    def test_profile_repeated_values_keep_their_bits(self, tmp_path):
        # A lattice's columns repeat values, and -0.0 == 0.0 must still print
        # apart: a dedupe by value (np.unique) would write 0.0 for -0.0.
        rows = symmat.CAMPAIGN_CHUNK + 1
        xy = (np.stack(np.divmod(np.arange(rows), 46), axis=1) - 23) * 0.0625
        u = 0.5 * (xy[:, 0] ** 2 + xy[:, 1] ** 2) - 1.0   # mirror-symmetric
        signed = np.resize([0.0, -0.0, np.nan, -0.0, np.inf, 0.0, -np.inf, 5e-324, -0.0], rows)
        assert not xy[:, 0].flags.c_contiguous
        sol = SimpleNamespace(profile_columns=lambda: ("x y u", [xy[:, 0], xy[:, 1], u]))
        pf_list = [SimpleNamespace(alpha=1.0, gamma=0.5, phi=signed),
                   SimpleNamespace(alpha=0.5, gamma=1.0, phi=-signed)]
        path = tmp_path / "profile.dat"
        cli._write_profile_data(sol, path, pf_list)
        text = path.read_text()
        assert text == self._profile_reference("x y u", [xy[:, 0], xy[:, 1], u], pf_list)
        assert " -0.0 0.0\n" in text and " 0.0 -0.0\n" in text

    @pytest.mark.parametrize("domain, source", [("disk:1", "const:1"), ("ellipse:2,1", "exp-dec")])
    def test_profile_data_of_a_lattice_solve(self, tmp_path, domain, source):
        # The P-function list `verify` builds: gamma 1/2 and 1, alpha 1 and 0.5.
        f = parse_source(source)
        sol = solver.solve_grid2d(parse_domain(domain), f, 1.0 / 16)
        pf_list = [] if domain == "disk:1" else [
            analysis.pfunction_field(sol, f, analysis.PFunctionSpec(alpha=alpha, gamma=gamma))
            for gamma in analysis.GAMMA_CHOICES for alpha in (1.0, 0.5)]
        path = tmp_path / "profile.dat"
        cli._write_profile_data(sol, path, pf_list)
        names, columns = sol.profile_columns()
        assert path.read_text() == self._profile_reference(names, columns, pf_list)


class TestIdentityScanCommand:
    def test_scan(self, tmp_path):
        out = tmp_path / "scan"
        code = main(["identity-scan", "--seed", "0", "--count", "40",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "identities.json").read_text())
        assert payload["euler_gap_worst_over_scale"] <= 1e-10
        assert payload["philippin_safoui_min_gap_over_scale"] >= -1e-9
        fit = payload["h2_convention"]
        assert fit["closes_with_gradient_factor"]
        assert fit["factor_vs_gradnorm_times_s2kappa"] == pytest.approx(1.0, abs=1e-10)
        assert payload["factorization_worst_gap_over_scale"] <= 1e-8

    def test_readme_call_draws_the_same_points(self, tmp_path):
        out = tmp_path / "scan"
        assert main(["identity-scan", "--seed", "0", "--count", "100", "--out", str(out)]) == 0
        payload = json.loads((out / "identities.json").read_text())
        assert payload["philippin_safoui_samples"] == 1061

    def test_unallocatable_count_exits_two(self, tmp_path, capsys):
        assert main(["identity-scan", "--count", "1000000000000",
                     "--out", str(tmp_path / "huge")]) == 2
        printed = capsys.readouterr()
        assert printed.out.startswith("input error: --count ")
        assert printed.out.count("\n") == 1 and printed.err == ""
        assert not (tmp_path / "huge").exists()
