"""cli workload: one ``python -m heptaspline.cli`` process per op.

A pass runs every bundled ``solve``/``converge`` config, the bundled cascade
demo, CASCADES random cascade configs and one ``coeffs`` call per selector
(--delta, --params, --theta) with seeded values, in seeded order.  Configs
are rewritten into the run's work directory so the CLI writes its CSVs
there.  This process never imports heptaspline: it checks the CLI's output
against the published table, the committed ceilings and exact rationals.
"""

from __future__ import annotations

import configparser
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from data import (BENCH_DIR, COLUMNS, PROBLEMS, PUBLISHED, ROOT, CheckFailed,
                  cascade_spec, ceiling_kind, load_ceilings, published_ok)

CASCADES = 3
TRACE_CHILD = BENCH_DIR / "trace_cli.py"
TRUNCATION_NAMES = ("c7", "c8", "c9", "c10", "c11", "c12")


def _local_output(text: str, name: str) -> str:
    """Point a config's csv_path into the work directory's out/."""
    return re.sub(r"^csv_path\s*=.*$", f"csv_path = out/{name}.csv", text, flags=re.M)


def _bundled(path: Path) -> dict:
    """A bundled config as an op, with what its output must satisfy."""
    name = path.stem
    text = path.read_text()
    cp = configparser.ConfigParser()
    cp.read_string(text)
    method = cp["method"]
    if "delta_opt" in method:
        column = f"opt{method['delta_opt'].strip()}"
    else:
        weights = tuple(Fraction(method[k]) for k in ("alpha", "beta", "gamma_", "delta"))
        column = next(c for c, col in COLUMNS.items() if col == weights)
    expect = {"problem": PROBLEMS[int(re.match(r"example(\d)", name).group(1)) - 1],
              "mode": method["mode"].strip(), "column": column}
    if "n_list" in method:
        sub = "converge"
        expect["n_list"] = [int(tok) for tok in method["n_list"].replace(",", " ").split()]
    else:
        sub = "solve"
        expect["n"] = int(method["n"])
    return {"name": name, "argv": [sub, "--config", f"{name}.ini"], "config": _local_output(text, name),
            "expect": expect}


def _cascade(name: str, spec: dict) -> dict:
    lines = ["[cascade]", "N = 7", f"gamma = {spec['gamma']}", "a = 0", "b = 1"]
    lines += [f"L{k} = {text}" for k, text in enumerate(spec["forces"], start=1)]
    lines += [f"v{k} = {v}" for k, v in enumerate(spec["velocities"], start=1)]
    lines += ["", "[method]", "mode = improved", "delta_opt = 30", "n = 20",
              "", "[output]", f"csv_path = out/{name}.csv", ""]
    return {"name": name, "argv": ["cascade", "--config", f"{name}.ini"], "config": "\n".join(lines),
            "expect": {"n": 20, "v1": spec["velocities"][0]}}


def _demo() -> dict:
    text = (ROOT / "configs" / "cascade_demo.ini").read_text()
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read_string(text)
    return {"name": "cascade_demo", "argv": ["cascade", "--config", "cascade_demo.ini"],
            "config": _local_output(text, "cascade_demo"),
            "expect": {"n": int(cp["method"]["n"]), "v1": float(cp["cascade"]["v1"])}}


def _coeffs(rng: random.Random) -> list:
    delta = Fraction(rng.randint(-40, 120), 2)
    weights = [Fraction(rng.randint(-40, 80), 2) for _ in range(3)]
    weights.append(60 - sum(weights))
    theta = f"{rng.uniform(0.2, 1.5):.6f}"
    optimal = [Fraction(151, 15) - delta / 5, Fraction(-301, 6) + delta,
               Fraction(1001, 10) - 9 * delta / 5, delta]
    return [
        {"name": "coeffs_delta", "argv": ["coeffs", f"--delta={delta}"], "config": None,
         "expect": {"weights": [str(w) for w in optimal], "zero": list(TRUNCATION_NAMES)}},
        {"name": "coeffs_params", "argv": ["coeffs", f"--params={','.join(map(str, weights))}"],
         "config": None, "expect": {"weights": [str(w) for w in weights], "zero": ["c7", "c8"]}},
        {"name": "coeffs_theta", "argv": ["coeffs", f"--theta={theta}"], "config": None,
         "expect": {"weights": None, "zero": []}},
    ]


def _read_csv(path: Path, header: str) -> list:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed(f"{path.name}: header {lines[:1]} is not {header!r}")
    return [line.split(",") for line in lines[1:]]


class Workload:
    def __init__(self, seed: int, workdir):
        rng = random.Random(seed)
        items = [_bundled(p) for p in sorted((ROOT / "configs").glob("example*.ini"))]
        items.append(_demo())
        items += [_cascade(f"cascade_r{k}", cascade_spec(rng)) for k in range(1, CASCADES + 1)]
        items += _coeffs(rng)
        rng.shuffle(items)
        self.items = items
        self.pass_size = len(items)
        self.workdir = Path(workdir)
        (self.workdir / "out").mkdir(exist_ok=True)
        for item in items:
            if item["config"] is not None:
                (self.workdir / f"{item['name']}.ini").write_text(item["config"])
        self.ceilings = load_ceilings()
        self.peak_rss_kb = 0

    def run(self, item, tracer=None):
        """Run the CLI once; with a tracer, under the tracing entry point."""
        if tracer is None:
            cmd = [sys.executable, "-m", "heptaspline.cli", *item["argv"]]
        else:
            trace_path = self.workdir / "trace.json"
            cmd = [sys.executable, str(TRACE_CHILD), str(trace_path), *item["argv"]]
        with open(self.workdir / "op.out", "wb") as out, open(self.workdir / "op.err", "wb") as err:
            proc = subprocess.Popen(cmd, cwd=self.workdir, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if tracer is not None:
            tracer.merge(json.loads(trace_path.read_text()))
            csv = self.workdir / "out" / f"{item['name']}.csv"
            if item["config"] is not None and csv.is_file():
                tracer.counts["cli.csv_bytes"] += csv.stat().st_size
        return proc.returncode

    def check(self, item, returncode):
        if returncode != 0:
            err = (self.workdir / "op.err").read_text().strip()
            raise CheckFailed(f"{item['name']}: exit code {returncode}: {err}")
        stdout = (self.workdir / "op.out").read_text()
        sub, expect = item["argv"][0], item["expect"]
        csv = self.workdir / "out" / f"{item['name']}.csv"
        if sub == "coeffs":
            return self._check_coeffs(item, stdout)
        if sub == "cascade":
            rows = _read_csv(csv, "t,y_numeric,y_exact,abs_error")
            if len(rows) != expect["n"] + 1:
                raise CheckFailed(f"{item['name']}: {len(rows)} rows, want {expect['n'] + 1}")
            if float(rows[0][1]) != expect["v1"] or not all(math.isfinite(float(r[1])) for r in rows):
                raise CheckFailed(f"{item['name']}: bad knot values")
            if not csv.with_suffix(".g.txt").read_text().strip():
                raise CheckFailed(f"{item['name']}: empty composed g(t)")
            return []
        if sub == "solve":
            rows = _read_csv(csv, "t,y_numeric,y_exact,abs_error")
            if len(rows) != expect["n"] + 1:
                raise CheckFailed(f"{item['name']}: {len(rows)} rows, want {expect['n'] + 1}")
            match = re.search(r"^max_abs_error = (\S+)$", stdout, flags=re.M)
            if match is None:
                raise CheckFailed(f"{item['name']}: no max_abs_error line")
            reported = [(expect["n"], float(match.group(1)))]
        else:
            rows = _read_csv(csv, "n,max_abs_error,observed_order")
            reported = [(int(r[0]), float(r[1])) for r in rows]
            if [n for n, _ in reported] != expect["n_list"]:
                raise CheckFailed(f"{item['name']}: rows for n={[n for n, _ in reported]}")
        key = (expect["problem"], expect["mode"], ceiling_kind(expect["column"]))
        for n, error in reported:
            published = PUBLISHED.get((expect["problem"], expect["mode"], expect["column"], n))
            if published is not None and not published_ok(error, published):
                raise CheckFailed(f"{item['name']} n={n}: error {error:.3e} vs published {published:.2e}")
            if not error <= self.ceilings[key][n]:
                raise CheckFailed(f"{item['name']} n={n}: error {error:.3e} above ceiling")
        return [error for _, error in reported]

    def _check_coeffs(self, item, stdout):
        values = dict(line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)
        names = ("alpha", "beta", "gamma", "delta", "sum", *TRUNCATION_NAMES)
        if set(values) != set(names):
            raise CheckFailed(f"{item['name']}: printed {sorted(values)}")
        expect = item["expect"]
        if expect["weights"] is not None:
            printed = [values[k] for k in ("alpha", "beta", "gamma", "delta")]
            if printed != expect["weights"] or values["sum"] != "60":
                raise CheckFailed(f"{item['name']}: weights {printed}, sum {values['sum']}")
        if any(values[k] != "0" for k in expect["zero"]):
            raise CheckFailed(f"{item['name']}: nonzero truncation coefficient")
        return []

    def peak_rss_mb(self) -> float:
        return self.peak_rss_kb / 1024.0
