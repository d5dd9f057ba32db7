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

Each subcommand imports what it runs: ``coeffs`` only ``spline_params``, so
it loads no numpy; ``solve`` and ``cascade`` the force, cascade, assembly and
solver modules; and only ``converge`` the oracle.
"""

from __future__ import annotations

import argparse
import configparser
import enum
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .spline_params import SplineParams, from_theta, optimal_family, truncation_coeffs, validate

if TYPE_CHECKING:
    from .assembly import EndConditionMode
    from .cascade import CascadeModel, IvpProblem
    from .forces import ForceExpr

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


#: What a value of each checked kind must be, as the error message says it.
_KINDS = {int: "an integer", float: "a number",
          Fraction: "a rational number such as 30, 51/2 or 2.5e1"}


def _convert(text: str, name: str, kind: Callable = str):
    """``text`` as ``kind``: a key of ``_KINDS``, an enum, ``parse``, ``str`` or ``Path``.
    A key of ``_KINDS`` reads ASCII text only, as ``parse`` does (``int``, ``float`` and
    ``Fraction`` read any Unicode digits).  A ValueError names ``name``, and what a key of
    ``_KINDS`` or an enum's values require; for ``parse`` it keeps the parser's positioned
    message."""
    try:
        if kind in _KINDS and not text.isascii():
            raise ValueError
        return kind(text)
    except (ValueError, ZeroDivisionError) as exc:
        if isinstance(kind, enum.EnumMeta):
            expected = " or ".join(repr(member.value) for member in kind)
        elif kind in _KINDS:
            expected = _KINDS[kind]
        else:
            raise ValueError(f"{name}: {exc}") from None
        raise ValueError(f"{name} must be {expected}, got {text!r}") from None


def _get(section: configparser.SectionProxy, key: str, kind: Callable = str):
    """``section[key]`` converted to ``kind``; ValueError where the key is missing."""
    if key not in section:
        raise ValueError(f"missing key {key!r} in section [{section.name}]")
    return _convert(section[key], f"[{section.name}] {key}", kind)


def _parse_method(section: configparser.SectionProxy) -> tuple[EndConditionMode, SplineParams]:
    from .assembly import EndConditionMode

    mode = _convert(_get(section, "mode").strip().lower(), "[method] mode", EndConditionMode)
    weights = ("alpha", "beta", "gamma_", "delta")
    explicit = any(key in section for key in weights)
    if explicit == ("delta_opt" in section):
        raise ValueError("[method] must carry exactly one of: alpha/beta/gamma_/delta, delta_opt")
    if explicit:
        params = SplineParams(*(_get(section, key, Fraction) for key in weights))
    else:
        params = optimal_family(_get(section, "delta_opt", Fraction))
    return mode, validate(params)


def _parse_problem(section: configparser.SectionProxy) -> IvpProblem:
    from .cascade import IvpProblem
    from .forces import parse

    return IvpProblem(a=_get(section, "a", float), b=_get(section, "b", float),
                      f=_get(section, "f", parse), g=_get(section, "g", parse),
                      u=tuple(_get(section, f"u{i}", float) for i in range(7)))


def _parse_cascade(section: configparser.SectionProxy) -> CascadeModel:
    from .cascade import CascadeModel
    from .forces import parse

    n_scales = _get(section, "N", int)
    gamma, a, b = (_get(section, key, float) for key in ("gamma", "a", "b"))
    scales = range(1, n_scales + 1)
    forces = tuple(_get(section, f"L{k}", parse) for k in scales)
    velocities = tuple(_get(section, f"v{k}", float) for k in scales)
    return CascadeModel(n_scales=n_scales, gamma=gamma, forces=forces,
                        init_velocities=velocities, interval=(a, b))


def load_config(path: Path, subcommand: str) -> RunConfig:
    from .cascade import reduce
    from .forces import parse

    cp = configparser.ConfigParser()
    cp.optionxform = str  # keys like N and L1 are case-sensitive
    if not path.is_file():
        raise ValueError(f"config file not found: {path}")
    with open(path, encoding="utf-8-sig") as fp:   # a UTF-8 byte-order mark is skipped
        cp.read_file(fp, source=path)

    name = "cascade" if subcommand == "cascade" else "problem"
    if not cp.has_section(name):
        raise ValueError(f"{subcommand} subcommand needs a [{name}] section")
    inputs = (_parse_cascade if name == "cascade" else _parse_problem)(cp[name])
    exact = _get(cp[name], "exact", parse) if "exact" in cp[name] else None

    if not cp.has_section("method"):
        raise ValueError("missing [method] section")
    mode, params = _parse_method(cp["method"])

    n = None
    n_list = None
    if subcommand == "converge":
        n_list = tuple(_convert(tok, "each of [method] n_list", int)
                       for tok in _get(cp["method"], "n_list").replace(",", " ").split())
        if not n_list:
            raise ValueError("n_list is empty")
    else:
        n = _get(cp["method"], "n", int)

    if not cp.has_section("output"):
        raise ValueError("missing [output] section")
    csv_path = _get(cp["output"], "csv_path", Path)

    # Reduced last, so a missing section is reported before a reduction error.
    problem = reduce(inputs) if name == "cascade" else inputs
    return RunConfig(problem=problem, exact=exact, mode=mode,
                     params=params, n=n, n_list=n_list, csv_path=csv_path)


def _write_csv(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _run_solution(cfg: RunConfig, subcommand: str) -> int:
    """``solve`` and ``cascade``: build, solve, write the knot CSV, report."""
    from .assembly import build
    from .forces import tabulate
    from .linsolve import lu_solve

    # Named before the solve, so a csv_path without a file name (".") fails first.
    g_path = cfg.csv_path.with_suffix(".g.txt") if subcommand == "cascade" else None
    grid = lu_solve(build(cfg.problem, cfg.params, cfg.mode, cfg.n))
    lines = ["t,y_numeric,y_exact,abs_error"]
    if cfg.exact is None:
        lines += [f"{_fmt(t)},{_fmt(y)},," for t, y in zip(grid.t, grid.y)]
    else:
        refs = tabulate((cfg.exact,), ("exact",), grid.t)[0]   # ValueError where not finite
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
    from .oracle import convergence_study

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
        params = optimal_family(_convert(args.delta, "--delta", Fraction))
    elif args.theta is not None:
        params = from_theta(_convert(args.theta, "--theta", float))
    else:
        parts = args.params.split(",")
        if len(parts) != 4:
            raise ValueError(f"--params needs four comma-separated values, got {args.params!r}")
        params = SplineParams(*(_convert(p, "--params value", Fraction) for p in parts))
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


def _run_config(args: argparse.Namespace) -> int:
    """``solve``, ``cascade`` and ``converge``; exit 2 on a failed solve."""
    from .linsolve import LinearSolveError

    try:
        cfg = load_config(args.config, args.subcommand)
        if args.subcommand == "converge":
            return _run_converge(cfg)
        return _run_solution(cfg, args.subcommand)
    except LinearSolveError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


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
        return _run_config(args)
    except (ValueError, OSError, configparser.Error, MemoryError) as exc:
        # MemoryError: e.g. the dense n x n system for a huge n
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
