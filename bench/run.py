"""heptaspline benchmark: one closed-loop client running one seeded workload.

Usage, from the repository root:

    python3 bench/run.py --workload {sweep,verify,cli,all} --seed N --seconds S --trace {0,1}

One process runs the workload's ops back to back (a closed loop with one
client), with BLAS held to one thread.  Every op's output is checked; an op
that raises or fails its check counts as failed and the run goes on.  The
loop runs for ``--seconds``, at least one full pass over the inputs and at
least MIN_OPS ops.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the same inputs for ``--seconds`` and prints
the per-layer metrics of one pass, with the tracing overhead; the spans go
to bench/out/.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only if every output was correct.  See bench/README.md for the workloads and
what each metric is expected to move.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import yardstick  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = {"sweep": "sweep", "verify": "verify", "cli": "cli_mix"}
SETUP_PROBES = 5
#: A timed run completes at least this many ops, so that at least ten
#: latencies lie beyond the p90.
MIN_OPS = 100
IMPORT_PROBES = 3
#: Yardstick each workload's timings are scaled by, and the seconds of ops
#: between two yardstick times.
YARDSTICKS = {"sweep": ("inprocess", 0.25), "verify": ("inprocess", 0.25), "cli": ("spawn", 3.0)}

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("err_gmean", "1"),
)

#: (name, unit) of the per-layer metrics, reported per traced pass.
PER_LAYER = (
    ("assembly.build.calls", "count"),
    ("assembly.build.self_ms", "ms"),
    ("assembly.build.matrix_bytes", "B"),
    ("linsolve.lu_solve.calls", "count"),
    ("linsolve.lu_solve.self_ms", "ms"),
    ("linsolve.lu_solve.flops", "flop"),
    ("linsolve.lu_solve.failed", "count"),
    ("linsolve.lu_solve.residual_ratio_max", "1"),
    ("forces.evaluate.calls", "count"),
    ("forces.evaluate.points", "count"),
    ("forces.evaluate.self_ms", "ms"),
    ("forces.derivative.calls", "count"),
    ("forces.derivative.self_ms", "ms"),
    ("forces.parse.calls", "count"),
    ("forces.parse.self_ms", "ms"),
    ("spline_params.calls", "count"),
    ("spline_params.self_ms", "ms"),
    ("cascade.reduce.calls", "count"),
    ("cascade.reduce.self_ms", "ms"),
    ("cascade.simulate_direct.calls", "count"),
    ("cascade.simulate_direct.steps", "count"),
    ("cascade.simulate_direct.self_ms", "ms"),
    ("oracle.rk_solve.calls", "count"),
    ("oracle.rk_solve.steps", "count"),
    ("oracle.rk_solve.self_ms", "ms"),
    ("oracle.max_abs_error.calls", "count"),
    ("oracle.max_abs_error.self_ms", "ms"),
    ("oracle.convergence_study.calls", "count"),
    ("oracle.convergence_study.self_ms", "ms"),
    ("cli.load_config.calls", "count"),
    ("cli.load_config.self_ms", "ms"),
    ("cli.main.calls", "count"),
    ("cli.main.self_ms", "ms"),
    ("cli.csv_bytes", "B"),
    ("cli.import_ms", "ms"),
    ("trace.overhead_frac", "1"),
)


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _use_checkout() -> None:
    """Import heptaspline from this checkout's src/, in this process and its children."""
    src = ROOT / "src"
    if not (src / "heptaspline" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        _fail(f"no heptaspline sources under {ROOT}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))


def _digest(items) -> str:
    return hashlib.sha256(json.dumps(items, default=str, sort_keys=True).encode()).hexdigest()


def _load(name: str, seed: int, workdir: str):
    return importlib.import_module(WORKLOADS[name]).Workload(seed, workdir)


class Tally:
    """Ops attempted and failed, and the errors of the first pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[float] = []

    def execute(self, workload, item, first_pass: bool, tracer=None) -> float:
        """Run and check one op; return its wall time in seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = workload.run(item, tracer)
        except Exception:       # a failing op is counted, and the loop goes on
            elapsed = time.perf_counter() - start
            self._record_failure(item)
            return elapsed
        elapsed = time.perf_counter() - start
        try:
            errors = workload.check(item, out)
        except Exception:
            self._record_failure(item)
            return elapsed
        if first_pass:
            self.errors.extend(errors)
        return elapsed

    def _record_failure(self, item) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"bench: op failed on {json.dumps(item, default=str)[:200]}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


def _nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _probe_setup(name: str, seed: int, digest: str) -> tuple[list[float], list[float]]:
    """Wall times from a fresh interpreter's start to its inputs being ready,
    and the ``spawn`` yardstick times taken before the first probe and after
    each probe."""
    times, yard = [], [yardstick.spawn()]
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
               "--setup-probe"]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or line.split() != ["inputs", digest]:
            _fail(f"setup probe for {name} seed {seed} gave {line.strip()!r}, "
                  f"exit {proc.returncode}; inputs are not reproducible")
        yard.append(yardstick.spawn())
    return times, yard


def _probe_import() -> list[float]:
    """Seconds a fresh process spends in ``import heptaspline.cli``."""
    code = "import time; t = time.perf_counter(); import heptaspline.cli; print(time.perf_counter() - t)"
    return [float(subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                                 text=True).stdout) for _ in range(IMPORT_PROBES)]


def _line(name: str, value: float, unit: str, samples: str) -> None:
    print(f"  {name:<38} {value:>14.6g} {unit:<6} {samples}")


def timed_run(name, workload, seed, seconds, digest) -> tuple[dict, Tally]:
    items = workload.items
    tally = Tally()
    setup, setup_yard = _probe_setup(name, seed, digest)
    kind, block_s = YARDSTICKS[name]
    measure = yardstick.KINDS[kind]
    measure()                                   # warm-up: imports and caches
    latencies, blocks, yard = [], [], [measure()]   # blocks: (index of first op, wall s)
    start = time.perf_counter()
    least = max(workload.pass_size, MIN_OPS)
    while len(latencies) < least or time.perf_counter() - start < seconds:
        first = len(latencies)
        block_start = time.perf_counter()
        while len(latencies) == first or time.perf_counter() - block_start < block_s:
            i = len(latencies)
            latencies.append(tally.execute(workload, items[i % len(items)], i < len(items)))
        blocks.append((first, time.perf_counter() - block_start))
        yard.append(measure())
    speed = yardstick.factors(kind, yard)
    scaled, wall = [], 0.0
    for b, (first, block_wall) in enumerate(blocks):
        last = blocks[b + 1][0] if b + 1 < len(blocks) else len(latencies)
        scaled += [t / speed[b] for t in latencies[first:last]]
        wall += block_wall / speed[b]
    setup_speed = yardstick.factors("spawn", setup_yard)
    ordered, raw = sorted(scaled), sorted(latencies)
    n = len(ordered)
    logs = [math.log(max(e, sys.float_info.min)) for e in tally.errors]
    metrics = {
        "latency_p50_ms": statistics.median(ordered) * 1e3,
        "latency_p90_ms": _nearest_rank(ordered, 0.9) * 1e3,
        "throughput_ops_s": n / wall,
        "setup_s": statistics.median(t / f for t, f in zip(setup, setup_speed)),
        "peak_rss_mb": workload.peak_rss_mb(),
        "err_gmean": math.exp(sum(logs) / len(logs)) if logs else float("nan"),
    }
    beyond = n - math.ceil(0.9 * n)
    samples = {
        "latency_p50_ms": f"n={n} ops",
        "latency_p90_ms": f"n={n} ops, {beyond} beyond" + ("" if beyond >= 10 else " (fewer than 10)"),
        "throughput_ops_s": f"n={n} ops in {sum(w for _, w in blocks):.2f} s",
        "setup_s": f"n={len(setup)} fresh interpreters",
        "peak_rss_mb": "n=1 process" if name != "cli" else f"n={n} child processes (largest)",
        "err_gmean": f"n={len(logs)} errors",
    }
    print(f"workload {name} seed {seed}: {tally.attempted} ops attempted, {tally.failed} failed; "
          f"timings at the reference speed of the {kind} yardstick")
    for key, unit in END_TO_END:
        _line(key, metrics[key], unit, samples[key])
    _line("failed_frac", tally.failed / tally.attempted, "1", f"n={tally.attempted} ops")
    print("as measured, before scaling by machine speed:")
    _line("raw.latency_p50_ms", statistics.median(raw) * 1e3, "ms", f"n={n} ops")
    _line("raw.latency_p90_ms", _nearest_rank(raw, 0.9) * 1e3, "ms", f"n={n} ops")
    _line("raw.throughput_ops_s", n / sum(w for _, w in blocks), "1/s", f"n={n} ops")
    _line("raw.setup_s", statistics.median(setup), "s", f"n={len(setup)} fresh interpreters")
    _line("speed.run", statistics.median(speed), "1", f"n={len(yard)} {kind} yardsticks, median")
    _line("speed.setup", statistics.median(setup_speed), "1", f"n={len(setup_yard)} spawn yardsticks, median")
    return metrics, tally


def traced_run(name, workload, seed, seconds) -> tuple[dict, Tally, bool]:
    from tracing import LAYERS, Tracer

    items = workload.items[:workload.pass_size]
    tally = Tally()
    tracer = Tracer()
    plain = traced = 0.0
    per_pass = []
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        plain += sum(tally.execute(workload, item, not per_pass) for item in items)
        before = tracer.totals()
        tracer.install()
        try:
            for k, item in enumerate(items):
                tracer.op = len(per_pass) * len(items) + k
                traced += tally.execute(workload, item, False, tracer)
        finally:
            tracer.uninstall()
        after = tracer.totals()
        per_pass.append({key: after[key] - before.get(key, 0) for key in after})
    passes = len(per_pass)
    counts = per_pass[0]
    repeatable = all(p == counts for p in per_pass)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = counts.get(layer, 0)
        metrics[f"{layer}.self_ms"] = tracer.self_ns.get(layer, 0) / passes / 1e6
    for key in ("assembly.build.matrix_bytes", "linsolve.lu_solve.flops", "forces.evaluate.points",
                "oracle.rk_solve.steps", "cascade.simulate_direct.steps", "cli.csv_bytes"):
        metrics[key] = counts.get(key, 0)
    metrics["linsolve.lu_solve.failed"] = counts.get("linsolve.lu_solve.failed", 0)
    metrics["linsolve.lu_solve.residual_ratio_max"] = tracer.maxima.get("linsolve.lu_solve.residual_ratio_max", 0.0)
    metrics["cli.import_ms"] = statistics.median(_probe_import()) * 1e3
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    metrics = {key: metrics[key] for key, _ in PER_LAYER}

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"trace-{name}-seed{seed}.json"
    with open(spans_path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "passes": passes,
                   "fields": ["op", "name", "start_ns", "end_ns", "parent"], "spans": tracer.spans}, fh)

    print(f"workload {name} seed {seed} traced: {passes} traced passes of {len(items)} ops, "
          f"{tally.attempted} ops attempted, {tally.failed} failed; counts "
          f"{'repeat' if repeatable else 'DIFFER'} across passes; spans in {spans_path.relative_to(ROOT)}")
    for key, unit in PER_LAYER:
        _line(key, metrics[key], unit, "per pass")
    return metrics, tally, repeatable


def run_all(args) -> int:
    """Run each workload in its own process and combine their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) else None
        if result is None:
            _fail(f"workload {name} exited with {proc.returncode}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    _use_checkout()
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(BENCH_DIR))
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as workdir:
        workload = _load(args.workload, args.seed, workdir)
        digest = _digest(workload.items)
        if args.setup_probe:
            print("inputs", digest, flush=True)
            return 0
        if args.trace:
            metrics, tally, repeatable = traced_run(args.workload, workload, args.seed, args.seconds)
        else:
            metrics, tally = timed_run(args.workload, workload, args.seed, args.seconds, digest)
            repeatable = True
    correct = tally.failed == 0 and repeatable
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {key: {"value": metrics[key], "unit": unit}
                                  for key, unit in (PER_LAYER if args.trace else END_TO_END)}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
