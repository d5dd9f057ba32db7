"""Config-driven batch front end.

Subcommands:

* ``solve --config FILE``     solve one problem, write a knot CSV
* ``cascade --config FILE``   reduce a cascade model, solve, write CSV and
  the composed top-scale force expression
* ``converge --config FILE``  error-vs-n study, write a report CSV
* ``coeffs (--delta R | --theta R | --params a,b,c,d)``  print the spline
  weights and their truncation coefficients

Configs are INI files with sections [problem] or [cascade], [method] and
[output]; see the bundled files under configs/.  A [cascade] section loads
as its reduced seventh-order IVP, so ``solve`` and ``cascade`` run one path.
Exit status: 0 on success, 1 on configuration or validation errors, 2 on
numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .assembly import EndConditionMode, build
from .cascade import CascadeModel, IvpProblem, reduce
from .forces import ForceExpr, parse, tabulate
from .linsolve import LinearSolveError, lu_solve
from .oracle import convergence_study
from .spline_params import SplineParams, from_theta, optimal_family, truncation_coeffs, validate

__all__ = ["main", "RunConfig", "load_config"]


@dataclass
class RunConfig:
    """Parsed and validated configuration for one run; ``problem`` is the IVP it solves."""

    problem: IvpProblem
    exact: Optional[ForceExpr]
    mode: EndConditionMode
    params: SplineParams
    n: Optional[int]
    n_list: Optional[tuple[int, ...]]
    csv_path: Path


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _require(section: configparser.SectionProxy, key: str) -> str:
    if key not in section:
        raise ValueError(f"missing key {key!r} in section [{section.name}]")
    return section[key]


def _rational(text: str, name: str) -> Fraction:
    """``text`` as an exact rational; ValueError names ``name`` where it is none."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name} must be a rational number such as 30, 51/2 or 2.5e1, "
                         f"got {text!r}") from None


def _parse_method(section: configparser.SectionProxy) -> tuple[EndConditionMode, SplineParams]:
    mode_text = _require(section, "mode").strip().lower()
    try:
        mode = EndConditionMode(mode_text)
    except ValueError:
        raise ValueError(f"mode must be 'standard' or 'improved', got {mode_text!r}") from None

    explicit = [k for k in ("alpha", "beta", "gamma_", "delta") if k in section]
    if bool(explicit) + ("delta_opt" in section) != 1:
        raise ValueError("[method] must carry exactly one of: alpha/beta/gamma_/delta, delta_opt")
    if explicit:
        if len(explicit) != 4:
            raise ValueError(f"all four of alpha/beta/gamma_/delta are required, got {explicit}")
        params = SplineParams(*(_rational(section[key], f"[method] {key}")
                                for key in ("alpha", "beta", "gamma_", "delta")))
    else:
        params = optimal_family(_rational(section["delta_opt"], "[method] delta_opt"))
    return mode, validate(params)


def _parse_problem(section: configparser.SectionProxy) -> IvpProblem:
    a = float(_require(section, "a"))
    b = float(_require(section, "b"))
    f = parse(_require(section, "f"))
    g = parse(_require(section, "g"))
    u = tuple(float(_require(section, f"u{i}")) for i in range(7))
    return IvpProblem(a=a, b=b, f=f, g=g, u=u)


def _parse_cascade(section: configparser.SectionProxy) -> CascadeModel:
    n_scales = int(_require(section, "N"))
    gamma = float(_require(section, "gamma"))
    a = float(_require(section, "a"))
    b = float(_require(section, "b"))
    forces = tuple(parse(_require(section, f"L{k}")) for k in range(1, n_scales + 1))
    velocities = tuple(float(_require(section, f"v{k}")) for k in range(1, n_scales + 1))
    return CascadeModel(n_scales=n_scales, gamma=gamma, forces=forces,
                        init_velocities=velocities, interval=(a, b))


def load_config(path: Path, subcommand: str) -> RunConfig:
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keys like N and L1 are case-sensitive
    if not path.is_file():
        raise ValueError(f"config file not found: {path}")
    cp.read(path, encoding="utf-8")

    name = "cascade" if subcommand == "cascade" else "problem"
    if not cp.has_section(name):
        raise ValueError(f"{subcommand} subcommand needs a [{name}] section")
    inputs = (_parse_cascade if name == "cascade" else _parse_problem)(cp[name])
    exact = parse(cp[name]["exact"]) if "exact" in cp[name] else None

    if not cp.has_section("method"):
        raise ValueError("missing [method] section")
    mode, params = _parse_method(cp["method"])

    n = None
    n_list = None
    if subcommand == "converge":
        text = _require(cp["method"], "n_list")
        n_list = tuple(int(tok) for tok in text.replace(",", " ").split())
        if not n_list:
            raise ValueError("n_list is empty")
    else:
        n = int(_require(cp["method"], "n"))

    if not cp.has_section("output"):
        raise ValueError("missing [output] section")
    csv_path = Path(_require(cp["output"], "csv_path"))

    # Reduced last, so a missing section is reported before a reduction error.
    problem = reduce(inputs) if name == "cascade" else inputs
    return RunConfig(problem=problem, exact=exact, mode=mode,
                     params=params, n=n, n_list=n_list, csv_path=csv_path)


def _write_csv(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _run_solution(cfg: RunConfig, subcommand: str) -> int:
    """``solve`` and ``cascade``: build, solve, write the knot CSV, report."""
    # Named before the solve, so a csv_path without a file name (".") fails first.
    g_path = cfg.csv_path.with_suffix(".g.txt") if subcommand == "cascade" else None
    grid = lu_solve(build(cfg.problem, cfg.params, cfg.mode, cfg.n))
    lines = ["t,y_numeric,y_exact,abs_error"]
    if cfg.exact is None:
        lines += [f"{_fmt(t)},{_fmt(y)},," for t, y in zip(grid.t, grid.y)]
    else:
        refs = tabulate(cfg.exact, grid.t, "exact")     # ValueError where it leaves float range
        errors = [abs(y - ref) for y, ref in zip(grid.y, refs)]
        lines += [f"{_fmt(t)},{_fmt(y)},{_fmt(ref)},{_fmt(err)}"
                  for t, y, ref, err in zip(grid.t, grid.y, refs, errors)]
    _write_csv(cfg.csv_path, lines)
    if g_path is not None:
        g_path.write_text(str(cfg.problem.g) + "\n", encoding="utf-8")
        print(f"composed g(t) = {cfg.problem.g}")
        print(f"wrote {cfg.csv_path} and {g_path}")
        return 0
    print(f"wrote {cfg.csv_path} (n={cfg.n}, mode={cfg.mode.value}, "
          f"residual_inf={grid.residual_inf:.3e})")
    if cfg.exact is not None:
        print(f"max_abs_error = {_fmt(float(max(errors)))}")     # the CSV column's largest
    return 0


def _run_converge(cfg: RunConfig) -> int:
    report = convergence_study(cfg.problem, cfg.params, cfg.mode, cfg.n_list,
                               reference=cfg.exact)
    lines = ["n,max_abs_error,observed_order"]
    for (n, err), order in zip(report.entries, (None, *report.orders)):
        lines.append(f"{n},{_fmt(err)},{'' if order is None else _fmt(order)}")
    _write_csv(cfg.csv_path, lines)
    for line in lines:
        print(line)
    return 0


def _run_coeffs(args: argparse.Namespace) -> int:
    chosen = [name for name in ("delta", "theta", "params") if getattr(args, name) is not None]
    if len(chosen) != 1:
        raise ValueError("coeffs needs exactly one of --delta, --theta, --params")
    if args.delta is not None:
        params = optimal_family(_rational(args.delta, "--delta"))
    elif args.theta is not None:
        params = from_theta(float(args.theta))
    else:
        parts = args.params.split(",")
        if len(parts) != 4:
            raise ValueError(f"--params needs four comma-separated values, got {args.params!r}")
        params = SplineParams(*(_rational(p, "--params value") for p in parts))
    params.as_floats()      # ValueError where a weight is beyond float range
    coeffs = truncation_coeffs(params)
    for name in ("alpha", "beta", "gamma", "delta"):
        print(f"{name} = {getattr(params, name)}")
    try:
        validate(params)
        marker = ""
    except ValueError:
        marker = "   (violates sum-60 constraint)"
    print(f"sum = {params.total}{marker}")
    for name in ("c7", "c8", "c9", "c10", "c11", "c12"):
        print(f"{name} = {getattr(coeffs, name)}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="heptaspline",
        description="Non-polynomial spline solver for seventh-order IVPs and cascade models")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (("solve", "solve one problem and write a knot CSV"),
                            ("cascade", "reduce a cascade model, then solve"),
                            ("converge", "run an error-vs-n study")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, type=Path)
    pc = sub.add_parser("coeffs", help="print spline weights and truncation coefficients")
    pc.add_argument("--delta", help="optimal-family parameter (rational, e.g. 30 or 51/2)")
    pc.add_argument("--theta", help="trigonometric parameterization")
    pc.add_argument("--params", help="four comma-separated weights, e.g. 1/2,19/2,49/2,51/2")

    args = ap.parse_args(argv)
    try:
        if args.subcommand == "coeffs":
            return _run_coeffs(args)
        cfg = load_config(args.config, args.subcommand)
        if args.subcommand == "converge":
            return _run_converge(cfg)
        return _run_solution(cfg, args.subcommand)
    except LinearSolveError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, configparser.Error, MemoryError) as exc:
        # MemoryError: e.g. the dense n x n system for a huge n
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
