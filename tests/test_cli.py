import configparser
import csv
import io
import os
import re
import string
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr
from dataclasses import astuple, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heptaspline import cascade, cli, oracle
from heptaspline.cascade import CascadeModel, reduce, simulate_direct
from heptaspline.cli import load_config, main
from heptaspline.forces import ForceExpr, parse
from heptaspline.linsolve import LinearSolveError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def rewrite_output(src: Path, tmp_path: Path, name: str) -> Path:
    """Copy a bundled config, pointing csv_path into tmp_path."""
    text = src.read_text(encoding="utf-8")
    out_csv = tmp_path / (name + ".csv")
    lines = []
    for line in text.splitlines():
        if line.startswith("csv_path"):
            lines.append(f"csv_path = {out_csv}")
        else:
            lines.append(line)
    dst = tmp_path / (name + ".ini")
    dst.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return dst


def with_value(cfg: Path, key: str, value: str) -> Path:
    """Set ``key`` of the config at ``cfg`` to ``value`` in place."""
    lines = [f"{key} = {value}" if line.split(" = ")[0] == key else line
             for line in cfg.read_text(encoding="utf-8").splitlines()]
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return cfg


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_cascade_model(path: Path) -> CascadeModel:
    """The [cascade] section of ``path`` as a model, read independently of the CLI."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read(path, encoding="utf-8")
    sec = cp["cascade"]
    n_scales = int(sec["N"])
    return CascadeModel(
        n_scales=n_scales, gamma=float(sec["gamma"]),
        forces=tuple(parse(sec[f"L{k}"]) for k in range(1, n_scales + 1)),
        init_velocities=tuple(float(sec[f"v{k}"]) for k in range(1, n_scales + 1)),
        interval=(float(sec["a"]), float(sec["b"])))


class TestCoeffs:
    def test_optimal_family_prints_vanishing_coefficients(self, capsys):
        assert main(["coeffs", "--delta", "30"]) == 0
        out = capsys.readouterr().out
        assert "alpha = 61/15" in out
        assert "c9 = 0" in out and "c12 = 0" in out

    def test_loads_no_scipy(self):
        # Each CLI call is a fresh process; coeffs needs no LAPACK, so it must
        # not pay for importing scipy, and neither must importing the package.
        code = ("import sys\n"
                "from heptaspline.cli import main\n"
                "assert main(['coeffs', '--delta', '30']) == 0\n"
                "import heptaspline\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        path = os.pathsep.join(filter(None, (str(SRC_DIR), os.environ.get("PYTHONPATH"))))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              encoding="utf-8", env={**os.environ, "PYTHONPATH": path},
                              timeout=60, check=True)
        assert done.stdout.splitlines()[-1] == "[]"

    def test_rational_delta(self, capsys):
        assert main(["coeffs", "--delta", "51/2"]) == 0
        out = capsys.readouterr().out
        assert "beta = -74/3" in out

    def test_explicit_params(self, capsys):
        assert main(["coeffs", "--params", "0,0,0,60"]) == 0
        out = capsys.readouterr().out
        assert "c9 = -20" in out

    @pytest.mark.parametrize("last,marked", [("60.0000000001", False), ("60.00000001", True)])
    def test_sum_marker_follows_validate_tolerance(self, last, marked, capsys):
        # off by 1e-10 is within the 1e-9 tolerance of validate, 1e-8 is not
        assert main(["coeffs", "--params", f"0,0,0,{last}"]) == 0
        assert ("violates sum-60" in capsys.readouterr().out) == marked

    def test_theta(self, capsys):
        assert main(["coeffs", "--theta", "0.5"]) == 0
        assert "violates sum-60" in capsys.readouterr().out

    def test_exactly_one_selector_required(self, capsys):
        assert main(["coeffs", "--delta", "30", "--theta", "0.5"]) == 1

    @pytest.mark.parametrize("theta", ["0.01", "0.19999999999999998"])
    def test_theta_below_cut_exits_one_naming_the_cancellation(self, theta, capsys):
        assert main(["coeffs", "--theta", theta]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"|theta| = {theta} is below 0.2: the closed forms cancel terms of size " \
               f"~1/theta^6" in captured.err

    def test_theta_at_cut_accepted(self, capsys):
        assert main(["coeffs", "--theta", "0.2"]) == 0
        assert capsys.readouterr().out.startswith("alpha = 0.0029947933702869634\n")

    @pytest.mark.parametrize("theta", ["nan", "inf"])
    def test_non_finite_theta_exits_one(self, theta, capsys):
        assert main(["coeffs", "--theta", theta]) == 1
        assert "theta must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,message", [
        ("--delta", "1/0", "--delta must be a rational number"),
        ("--params", "1/0,0,0,60", "--params value must be a rational number"),
        ("--delta", "1e400", "alpha is beyond float range"),
        ("--delta", "1.7e308", "gamma is beyond float range"),    # 1001/10 - 9*delta/5
    ])
    def test_rational_without_float_exits_one(self, flag, value, message, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["coeffs", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert "sum-60" not in captured.err


class TestSolve:
    def test_bundled_improved_n20_reproduces_published_error(self, tmp_path, capsys):
        cfg = rewrite_output(CONFIG_DIR / "example1_improved_n20.ini", tmp_path, "run")
        assert main(["solve", "--config", str(cfg)]) == 0
        rows = read_csv(tmp_path / "run.csv")
        assert len(rows) == 21
        worst = max(float(r["abs_error"]) for r in rows)
        assert 2.08e-6 / 10 <= worst <= 2.08e-6 * 10

    def test_csv_schema_and_determinism(self, tmp_path):
        cfg = rewrite_output(CONFIG_DIR / "example1_improved_n20.ini", tmp_path, "run")
        assert main(["solve", "--config", str(cfg)]) == 0
        first = (tmp_path / "run.csv").read_bytes()
        assert first.splitlines()[0] == b"t,y_numeric,y_exact,abs_error"
        assert main(["solve", "--config", str(cfg)]) == 0
        assert (tmp_path / "run.csv").read_bytes() == first

    def test_missing_config_file(self, capsys):
        assert main(["solve", "--config", "/nonexistent.ini"]) == 1
        assert "error" in capsys.readouterr().err

    def test_constraint_violation_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("""\
[problem]
a = 0
b = 1
f = 0
g = 1
u0 = 0
u1 = 0
u2 = 0
u3 = 0
u4 = 0
u5 = 0
u6 = 0

[method]
mode = standard
alpha = 0
beta = 0
gamma_ = 0
delta = 59
n = 12

[output]
csv_path = {}
""".format(tmp_path / "bad.csv"), encoding="utf-8")
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "60" in capsys.readouterr().err

    @pytest.mark.parametrize("f,g,code,message", [
        ("1e308", "1.0", 1, "f reaches 1e+308 in magnitude on the grid"),
        ("0", "1e308", 1, "g reaches 1e+308 in magnitude on the grid"),
        ("1e300", "1.0", 0, ""),
    ])
    def test_assembly_overflow_exits_one(self, tmp_path, capsys, f, g, code, message):
        # f = 1e308 and g = 1e308 are finite on the grid, but their products
        # with the end-row weights are not: build rejects them by name before
        # it fills the system.  f = 1e300 stays in range and solves.
        cfg = tmp_path / "overflow.ini"
        cfg.write_text("""\
[problem]
a = 0
b = 1
f = {}
g = {}
u0 = 0
u1 = 0
u2 = 0
u3 = 0
u4 = 0
u5 = 0
u6 = 0

[method]
mode = standard
alpha = 0
beta = 0
gamma_ = 0
delta = 60
n = 12

[output]
csv_path = {}
""".format(f, g, tmp_path / "overflow.csv"), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["solve", "--config", str(cfg)]) == code
        assert message in capsys.readouterr().err

    def test_numerical_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        def reject(system):
            raise LinearSolveError("backward residual 1 exceeds bound 0")

        monkeypatch.setattr(cli, "lu_solve", reject)
        cfg = rewrite_output(CONFIG_DIR / "example1_improved_n20.ini", tmp_path, "run")
        assert main(["solve", "--config", str(cfg)]) == 2
        assert "numerical failure: backward residual" in capsys.readouterr().err

    @pytest.mark.parametrize("edits,message", [
        ({"g = ": "exp(800*t)"}, "force g(t) = inf at t = 0.9000000000000001 "),
        ({"f = ": "exp(800*t)"}, "force f(t) = inf at t = 0.9000000000000001 "),
        ({"g = ": "t^400", "b = ": "8"}, "force g(t) = inf at t = 6.2 "),
        ({"f = ": "1e200", "u0 = ": "1e200"}, "u_7 = g(a) - f(a)*u_0 = -inf at t = -1.0 "),
    ])
    def test_force_beyond_float_range_on_grid_exits_one(self, tmp_path, capsys, edits, message):
        cfg = rewrite_output(CONFIG_DIR / "example1_improved_n20.ini", tmp_path, "run")
        lines = []
        for line in cfg.read_text(encoding="utf-8").splitlines():
            for key, value in edits.items():
                if line.startswith(key):
                    line = key + value
            lines.append(line)
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["solve", "--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err

    def test_exact_beyond_float_range_on_knots_exits_one(self, tmp_path, capsys):
        cfg = rewrite_output(CONFIG_DIR / "example1_improved_n20.ini", tmp_path, "run")
        text = cfg.read_text(encoding="utf-8")
        cfg.write_text(text.replace("exact = t^2*sin(t) - sin(t)", "exact = exp(800*t)"),
                       encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--config", str(cfg)]) == 1
        assert "force exact(t) = inf at t = 0.9000000000000001 " in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("message", ["Unable to allocate 74.5 PiB for an array", ""])
    def test_memory_error_exits_one(self, tmp_path, capsys, monkeypatch, message):
        # Stands in for the dense n x n allocation of a huge n; nothing is allocated.
        def exhausted(*args):
            raise MemoryError(message)
        monkeypatch.setattr("heptaspline.cli.build", exhausted)
        cfg = rewrite_output(CONFIG_DIR / "example1_improved_n20.ini", tmp_path, "run")
        assert main(["solve", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {message or 'MemoryError'}\n"

    def test_malformed_expression_exits_one(self, tmp_path, capsys):
        cfg = rewrite_output(CONFIG_DIR / "example1_improved_n20.ini", tmp_path, "run")
        broken = cfg.read_text(encoding="utf-8").replace("f = 1", "f = oops(t)")
        cfg.write_text(broken, encoding="utf-8")
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "unknown function" in capsys.readouterr().err

    def test_literal_beyond_float_range_exits_one(self, tmp_path, capsys):
        cfg = rewrite_output(CONFIG_DIR / "example1_improved_n20.ini", tmp_path, "run")
        text = cfg.read_text(encoding="utf-8")
        cfg.write_text(text.replace("f = 1", "f = 1e400"), encoding="utf-8")
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "out of float range at position 0" in capsys.readouterr().err

    def test_like_terms_summing_beyond_float_range_exit_one(self, tmp_path, capsys):
        cfg = rewrite_output(CONFIG_DIR / "example1_improved_n20.ini", tmp_path, "run")
        text = cfg.read_text(encoding="utf-8")
        cfg.write_text(text.replace("f = 1", "f = 1e308*t + 1e308*t"), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--config", str(cfg)]) == 1
        assert "out of float range at position 10" in capsys.readouterr().err

    @pytest.mark.parametrize("a,b,message", [
        ("0", "1e-50", "h^7 = 0.0"),        # h^7 underflows to zero
        ("0", "1e300", "h^7 = inf"),        # h^7 overflows
        ("-inf", "1", "endpoints must be finite"),
    ])
    def test_degenerate_grid_step_exits_one(self, tmp_path, capsys, a, b, message):
        cfg = rewrite_output(CONFIG_DIR / "example1_improved_n20.ini", tmp_path, "run")
        text = cfg.read_text(encoding="utf-8")
        cfg.write_text(text.replace("a = -1", f"a = {a}").replace("b = 1", f"b = {b}"),
                       encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("method,message", [
        ("delta_opt = 1/0", "[method] delta_opt must be a rational number"),
        ("alpha = 1/0\nbeta = 0\ngamma_ = 0\ndelta = 60", "[method] alpha must be a rational"),
        ("delta_opt = 1e400", "alpha is beyond float range"),
        ("delta_opt = 1.7e308", "gamma is beyond float range"),
    ])
    def test_rational_without_float_exits_one(self, tmp_path, capsys, method, message):
        cfg = rewrite_output(CONFIG_DIR / "example1_improved_n20.ini", tmp_path, "run")
        text = cfg.read_text(encoding="utf-8")
        cfg.write_text(text.replace("delta_opt = 30", method), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "run.csv").exists()

    def test_theta_method_exits_one(self, tmp_path, capsys):
        # This theta passes the sum-60 check, but configs no longer accept theta.
        cfg = rewrite_output(CONFIG_DIR / "example1_improved_n20.ini", tmp_path, "run")
        text = cfg.read_text(encoding="utf-8")
        cfg.write_text(text.replace("delta_opt = 30", "theta = 8.986711480679856"),
                       encoding="utf-8")
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "exactly one of" in capsys.readouterr().err

    def test_exact_evaluated_once_per_solve(self, tmp_path, capsys, monkeypatch):
        cfg = rewrite_output(CONFIG_DIR / "example1_improved_n20.ini", tmp_path, "run")
        exact = load_config(cfg, "solve").exact
        calls = []
        evaluate = ForceExpr.evaluate

        def counting(self, t):
            if self == exact:
                calls.append(np.size(t))
            return evaluate(self, t)

        monkeypatch.setattr(ForceExpr, "evaluate", counting)
        assert main(["solve", "--config", str(cfg)]) == 0
        assert calls == [21]
        # The printed maximum is the CSV column's, character for character.
        printed = re.search(r"^max_abs_error = (\S+)$", capsys.readouterr().out, flags=re.M)
        column = [r["abs_error"] for r in read_csv(tmp_path / "run.csv")]
        assert printed[1] == max(column, key=float)


class TestConverge:
    def test_report_csv_has_orders_for_doublings(self, tmp_path):
        cfg = rewrite_output(CONFIG_DIR / "example1_standard_col1.ini", tmp_path, "conv")
        assert main(["converge", "--config", str(cfg)]) == 0
        rows = read_csv(tmp_path / "conv.csv")
        assert [r["n"] for r in rows] == ["12", "24", "48", "96"]
        assert rows[0]["observed_order"] == ""
        orders = [float(r["observed_order"]) for r in rows[1:]]
        assert all(o > 1.7 for o in orders)
        published = (2.88e-1, 3.09e-2, 2.5e-3, 1.70e-4)
        for row, expect in zip(rows, published):
            assert expect / 10 <= float(row["max_abs_error"]) <= expect * 10

    def test_rk_reference_accepts_any_increasing_n_list(self, tmp_path, capsys):
        # 30 does not divide 100 * 40: each grid gets its own RK run, 100 steps per interval.
        cfg = rewrite_output(CONFIG_DIR / "example1_standard_col1.ini", tmp_path, "conv")
        lines = [("n_list = 20, 30, 40" if line.startswith("n_list") else line)
                 for line in cfg.read_text(encoding="utf-8").splitlines()
                 if not line.startswith("exact")]
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["converge", "--config", str(cfg)]) == 0
        rows = read_csv(tmp_path / "conv.csv")
        assert [r["n"] for r in rows] == ["20", "30", "40"]
        assert [r["observed_order"] for r in rows] == ["", "", ""]
        errors = [float(r["max_abs_error"]) for r in rows]
        assert 0.0 < errors[2] < errors[1] < errors[0]

    def test_force_beyond_float_range_for_rk_reference_exits_one(self, tmp_path, capsys):
        # Without an exact solution the reference is an RK run per grid, but
        # build meets g first, on the knots of the first grid.
        cfg = rewrite_output(CONFIG_DIR / "example1_standard_col1.ini", tmp_path, "conv")
        lines = [("g = exp(800*t)" if line.startswith("g = ") else line)
                 for line in cfg.read_text(encoding="utf-8").splitlines()
                 if not line.startswith("exact")]
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["converge", "--config", str(cfg)]) == 1
        assert "force g(t) = inf at t = 1.0 " in capsys.readouterr().err

    def test_rk_reference_beyond_float_range_exits_one(self, tmp_path, capsys):
        # f and g are finite, but the RK reference's states overflow.
        cfg = rewrite_output(CONFIG_DIR / "example1_standard_col1.ini", tmp_path, "conv")
        edits = {"a = ": "0", "f = ": "-1e30", "g = ": "1", "n_list = ": "12, 24"}
        lines = []
        for line in cfg.read_text(encoding="utf-8").splitlines():
            if line.startswith("exact"):
                continue
            for key, value in edits.items():
                if line.startswith(key):
                    line = key + value
            lines.append(line)
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["converge", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: RK4 state at step ") and "of 1200 is beyond float range" in err
        assert not (tmp_path / "conv.csv").exists()

    def test_rk_reference_for_time_varying_f(self, tmp_path, monkeypatch):
        # A time-varying f puts each grid's RK run on the per-step loop over
        # the table of g and f.
        cfg = rewrite_output(CONFIG_DIR / "example1_improved.ini", tmp_path, "conv")
        with_value(with_value(cfg, "f", "1 + 0.5*sin(t)"), "n_list", "12, 24")
        lines = [line for line in cfg.read_text(encoding="utf-8").splitlines()
                 if not line.startswith("exact")]
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        tabulated = []
        tabulate = cascade.tabulate
        monkeypatch.setattr(cascade, "tabulate",
                            lambda *args: tabulated.append(tuple(args[1])) or tabulate(*args))
        assert main(["converge", "--config", str(cfg)]) == 0
        assert tabulated == [("g", "f")] * 2
        rows = read_csv(tmp_path / "conv.csv")
        assert [list(r) for r in rows] == [["n", "max_abs_error", "observed_order"]] * 2
        assert [r["n"] for r in rows] == ["12", "24"] and float(rows[1]["observed_order"]) > 0.0
        errors = [float(r["max_abs_error"]) for r in rows]
        assert 0.0 < errors[1] < errors[0]

    def test_exact_beyond_float_range_on_knots_exits_one(self, tmp_path, capsys):
        cfg = rewrite_output(CONFIG_DIR / "example1_standard_col1.ini", tmp_path, "conv")
        text = cfg.read_text(encoding="utf-8")
        cfg.write_text(text.replace("exact = t^2*sin(t) - sin(t)", "exact = exp(800*t)"),
                       encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["converge", "--config", str(cfg)]) == 1
        assert "force exact(t) = inf at t = 1.0 " in capsys.readouterr().err


class TestCascade:
    def test_demo_runs_and_writes_g_expression(self, tmp_path, capsys):
        cfg = rewrite_output(CONFIG_DIR / "cascade_demo.ini", tmp_path, "casc")
        assert main(["cascade", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "composed g(t) =" in out
        g_text = (tmp_path / "casc.g.txt").read_text(encoding="utf-8").strip()
        parse(g_text)                      # round-trips through the grammar
        rows = read_csv(tmp_path / "casc.csv")
        assert len(rows) == 21
        assert rows[0]["y_exact"] == ""    # no reference configured

    def test_solution_matches_direct_simulation(self, tmp_path):
        cfg = rewrite_output(CONFIG_DIR / "cascade_demo.ini", tmp_path, "casc")
        assert main(["cascade", "--config", str(cfg)]) == 0
        rows = read_csv(tmp_path / "casc.csv")
        t, traj = simulate_direct(read_cascade_model(cfg), 20_000)
        for row in rows:
            tk = float(row["t"])
            idx = round((tk - t[0]) / (t[1] - t[0]))
            assert float(row["y_numeric"]) == pytest.approx(traj[idx, 0], abs=2e-5)

    @pytest.mark.parametrize("gamma,message", [
        ("1e50", "Gamma^N = 1e+50^7 is beyond float range"),
        ("inf", "gamma must be finite"),
    ])
    def test_gamma_beyond_float_range_exits_one(self, tmp_path, capsys, gamma, message):
        cfg = rewrite_output(CONFIG_DIR / "cascade_demo.ini", tmp_path, "casc")
        text = cfg.read_text(encoding="utf-8")
        cfg.write_text(text.replace("gamma = 1", f"gamma = {gamma}"), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["cascade", "--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err

    def test_composed_force_beyond_float_range_exits_one(self, tmp_path, capsys):
        # Gamma^7 = 1e280 is finite, but Gamma^6 times L7's coefficient is not.
        cfg = rewrite_output(CONFIG_DIR / "cascade_demo.ini", tmp_path, "casc")
        lines = []
        for line in cfg.read_text(encoding="utf-8").splitlines():
            key = line.split(" = ")[0]
            if key.startswith(("L", "v")):
                line = f"{key} = {'1e100*t' if key == 'L7' else 0}"
            lines.append(line.replace("gamma = 1", "gamma = 1e40"))
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["cascade", "--config", str(cfg)]) == 1
        assert "coefficient beyond float range" in capsys.readouterr().err

    @pytest.mark.parametrize("interval,message", [
        ((0, 1), "force g(t) = inf at t = 0.85"),      # the composed g, on the grid
        ((1, 2), "force F_1(t) = inf at t = 1.0 "),    # F_1 = L1 at a, in reduce
    ])
    def test_force_beyond_float_range_exits_one(self, tmp_path, capsys, interval, message):
        cfg = rewrite_output(CONFIG_DIR / "cascade_demo.ini", tmp_path, "casc")
        text = cfg.read_text(encoding="utf-8").replace("L1 = sin(2*t)", "L1 = exp(800*t)")
        cfg.write_text(text.replace("a = 0\nb = 1", "a = {}\nb = {}".format(*interval)),
                       encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["cascade", "--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err

    def test_loads_as_its_reduced_problem_bit_for_bit(self):
        path = CONFIG_DIR / "cascade_demo.ini"
        cfg = load_config(path, "cascade")
        assert exact_bits(cfg.problem) == exact_bits(reduce(read_cascade_model(path)))
        assert not hasattr(cfg, "model")

    def test_missing_section_reported_before_reduction_error(self, tmp_path):
        # Gamma^7 = 1e350 fails in reduce, but the missing [output] is named first.
        text = (CONFIG_DIR / "cascade_demo.ini").read_text(encoding="utf-8")
        text = text.replace("gamma = 1", "gamma = 1e50")
        cfg = tmp_path / "casc.ini"
        cfg.write_text(text.split("[output]")[0], encoding="utf-8")
        with pytest.raises(ValueError, match=r"^missing \[output\] section$"):
            load_config(cfg, "cascade")

    def test_csv_path_without_file_name_exits_one_before_solving(self, tmp_path, capsys,
                                                                  monkeypatch):
        cfg = rewrite_output(CONFIG_DIR / "cascade_demo.ini", tmp_path, "casc")
        text = cfg.read_text(encoding="utf-8")
        cfg.write_text(text.replace(f"csv_path = {tmp_path / 'casc.csv'}", "csv_path = ."),
                       encoding="utf-8")
        monkeypatch.setattr(cli, "build", lambda *args: pytest.fail("solved"))
        assert main(["cascade", "--config", str(cfg)]) == 1
        assert "has an empty name" in capsys.readouterr().err

    def test_even_scale_count_exits_one(self, tmp_path, capsys):
        cfg = rewrite_output(CONFIG_DIR / "cascade_demo.ini", tmp_path, "casc")
        text = cfg.read_text(encoding="utf-8").replace("N = 7", "N = 6").replace("L7 = 1\n", "")
        text = text.replace("v7 = 0\n", "")
        cfg.write_text(text, encoding="utf-8")
        assert main(["cascade", "--config", str(cfg)]) == 1
        assert "odd" in capsys.readouterr().err


class TestNumberKeys:
    @pytest.mark.parametrize("name,subcommand,key,value,message", [
        ("example1_improved_n20.ini", "solve", "n", "20.5",
         "[method] n must be an integer, got '20.5'"),
        ("example1_improved_n20.ini", "solve", "a", "zero", "[problem] a must be a number"),
        ("example1_improved_n20.ini", "solve", "b", "1/2", "[problem] b must be a number"),
        ("example1_improved_n20.ini", "solve", "u0", "", "[problem] u0 must be a number, got ''"),
        ("example1_improved_n20.ini", "solve", "u6", "1,5", "[problem] u6 must be a number"),
        ("example1_improved.ini", "converge", "n_list", "10, 2e1",
         "each of [method] n_list must be an integer, got '2e1'"),
        ("cascade_demo.ini", "cascade", "N", "7.0", "[cascade] N must be an integer"),
        ("cascade_demo.ini", "cascade", "gamma", "one", "[cascade] gamma must be a number"),
        ("cascade_demo.ini", "cascade", "a", "0 1", "[cascade] a must be a number"),
        ("cascade_demo.ini", "cascade", "v7", "x", "[cascade] v7 must be a number, got 'x'"),
    ])
    def test_unparsable_number_names_its_key(self, name, subcommand, key, value, message,
                                              tmp_path, capsys):
        cfg = rewrite_output(CONFIG_DIR / name, tmp_path, "run")
        lines = [f"{key} = {value}" if line.split(" = ")[0] == key else line
                 for line in cfg.read_text(encoding="utf-8").splitlines()]
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main([subcommand, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {message}")
        assert not (tmp_path / "run.csv").exists()


#: The bundled configs and the subcommand each is written for.
BUNDLED = sorted((path.name, "cascade" if path.name.startswith("cascade")
                  else "converge" if "n_list" in path.read_text(encoding="utf-8") else "solve")
                 for path in CONFIG_DIR.glob("*.ini"))


def exact_bits(value):
    """``dataclasses.astuple(value)`` with every float as its ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(map(exact_bits, value))
    return exact_bits(astuple(value)) if is_dataclass(value) else value


class TestLocaleEncoding:
    @pytest.mark.parametrize("name,subcommand", [("example1_improved_n20.ini", "solve"),
                                                 ("example1_standard_col1.ini", "converge"),
                                                 ("cascade_demo.ini", "cascade")])
    def test_runs_without_the_locale_encoding(self, name, subcommand, tmp_path):
        # Configs are read and CSVs written as UTF-8 whatever the locale, so a
        # run that turns each use of the locale's encoding into an error
        # writes what a plain run writes.
        cfg = rewrite_output(CONFIG_DIR / name, tmp_path, "run")
        path = os.pathsep.join(filter(None, (str(SRC_DIR), os.environ.get("PYTHONPATH"))))
        runs = []
        for flags in ([], ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]):
            done = subprocess.run([sys.executable, *flags, "-m", "heptaspline.cli", subcommand,
                                   "--config", str(cfg)], capture_output=True,
                                  env={**os.environ, "PYTHONPATH": path}, timeout=60)
            assert done.returncode == 0, done.stderr
            outputs = sorted(p for p in tmp_path.glob("run.*") if p != cfg)
            runs.append((done.stdout, done.stderr, [(p.name, p.read_bytes()) for p in outputs]))
            for p in outputs:
                p.unlink()
        assert runs[0] == runs[1] and runs[0][2]


class TestBundledConfigs:
    @pytest.mark.parametrize("name,subcommand",
                             [b for b in BUNDLED if b[0].startswith("example")])
    def test_example_loads_its_benchmark_fixture_bit_for_bit(self, name, subcommand):
        bench = oracle.BENCHMARKS[int(name[len("example")]) - 1]
        cfg = load_config(CONFIG_DIR / name, subcommand)
        assert exact_bits(cfg.problem) == exact_bits(bench.problem)
        assert exact_bits(cfg.exact) == exact_bits(bench.exact)

    @pytest.mark.parametrize("name,subcommand", BUNDLED)
    def test_runs_through_main(self, name, subcommand, tmp_path):
        cfg = rewrite_output(CONFIG_DIR / name, tmp_path, "run")
        assert main([subcommand, "--config", str(cfg)]) == 0
        assert (tmp_path / "run.csv").is_file()

    @pytest.mark.parametrize("name,subcommand", [("example1_improved_n20.ini", "solve"),
                                                 ("example1_standard_col1.ini", "converge"),
                                                 ("cascade_demo.ini", "cascade")])
    def test_solve_loads_lapack_without_scipy_linalg(self, name, subcommand, tmp_path):
        # Importing scipy.linalg costs about half of a short CLI run; a solve
        # loads only scipy's LAPACK extension.
        cfg = rewrite_output(CONFIG_DIR / name, tmp_path, "run")
        code = ("import sys\n"
                "from heptaspline.cli import main\n"
                f"assert main([{subcommand!r}, '--config', {str(cfg)!r}]) == 0\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n")
        path = os.pathsep.join(filter(None, (str(SRC_DIR), os.environ.get("PYTHONPATH"))))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              encoding="utf-8", env={**os.environ, "PYTHONPATH": path},
                              timeout=60, check=True)
        assert done.stdout.splitlines()[-1] == "['scipy.linalg._flapack']"


def read_keys(name: str, subcommand: str) -> list[tuple[str, str, str, str]]:
    """(config, subcommand, section, key) for each key outside [output] that the run reads."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read(CONFIG_DIR / name, encoding="utf-8")
    inputs = "cascade" if subcommand == "cascade" else "problem"
    return [(name, subcommand, section, key) for section in (inputs, "method")
            for key in cp[section]]


#: Every key that a bundled config's subcommand reads, [output] aside.
READ_KEYS = [case for name, subcommand in BUNDLED for case in read_keys(name, subcommand)]
#: Text that a config line carries as it is: printable ASCII without '%',
#: which configparser interpolates, and without line breaks.
LINE_TEXT = st.text(alphabet=[c for c in string.printable if c not in "%\t\n\r\x0b\x0c"],
                    max_size=8)


class TestNamedInputs:
    @pytest.mark.parametrize("name,subcommand,key,value,message", [
        ("example1_improved_n20.ini", "solve", "f", "2*x",
         "[problem] f: unknown function 'x' at position 2"),
        ("example1_improved_n20.ini", "solve", "exact", "2*x",
         "[problem] exact: unknown function 'x' at position 2"),
        ("cascade_demo.ini", "cascade", "L3", "2*x",
         "[cascade] L3: unknown function 'x' at position 2"),
        ("example1_improved_n20.ini", "solve", "mode", "Cubic",
         "[method] mode must be 'standard' or 'improved', got 'cubic'"),
    ])
    def test_unreadable_value_names_its_key(self, name, subcommand, key, value, message,
                                            tmp_path, capsys):
        cfg = with_value(rewrite_output(CONFIG_DIR / name, tmp_path, "run"), key, value)
        assert main([subcommand, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_explicit_weight_is_named(self, tmp_path, capsys):
        cfg = rewrite_output(CONFIG_DIR / "example1_improved_n20.ini", tmp_path, "run")
        text = cfg.read_text(encoding="utf-8").replace("delta_opt = 30", "alpha = 1/2")
        cfg.write_text(text, encoding="utf-8")
        assert main(["solve", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: missing key 'beta' in section [method]\n"

    def test_unparsable_theta_is_named(self, capsys):
        assert main(["coeffs", "--theta", "abc"]) == 1
        assert capsys.readouterr().err == "error: --theta must be a number, got 'abc'\n"

    @settings(max_examples=100, deadline=None)
    @given(case=st.sampled_from(READ_KEYS), head=LINE_TEXT, tail=LINE_TEXT)
    def test_value_no_reader_accepts_names_its_key(self, case, head, tail):
        # No number, mode or force expression contains '@'.
        name, subcommand, section, key = case
        with tempfile.TemporaryDirectory() as tmp, redirect_stderr(io.StringIO()) as err:
            cfg = rewrite_output(CONFIG_DIR / name, Path(tmp), "run")
            assert main([subcommand, "--config", str(with_value(cfg, key, f"{head}@{tail}"))]) == 1
            assert not (Path(tmp) / "run.csv").exists()
        label = "each of [method] n_list" if key == "n_list" else f"[{section}] {key}"
        assert err.getvalue().startswith(f"error: {label}")
