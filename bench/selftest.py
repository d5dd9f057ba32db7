"""Tests of the benchmark itself.

Run from the repository root (about three minutes):

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the package's own test collection,
because they run the benchmark end to end.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _git_status() -> str:
    return subprocess.run(["git", "status", "--porcelain", "--ignored=no"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout


@pytest.fixture(scope="module")
def runs():
    """Three short runs of every workload: untraced, then traced twice."""
    if not (ROOT / ".git").exists():
        pytest.skip("needs a git checkout")
    before = _git_status()
    out = {"plain": _bench("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", "0"),
           "traced": _bench("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", "1"),
           "traced_again": _bench("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", "1")}
    out["status"] = (before, _git_status())
    return out


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_inputs_depend_only_on_seed(workload, tmp_path):
    run._use_checkout()
    digests = []
    for k, seed in enumerate((1, 1, 2)):
        workdir = tmp_path / str(k)
        workdir.mkdir()
        digests.append(run._digest(run._load(workload, seed, str(workdir)).items))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_run_leaves_git_status_unchanged(runs):
    before, after = runs["status"]
    assert after == before


def test_every_metric_printed_with_unit(runs):
    for mode, spec_key in (("plain", "end_to_end"), ("traced", "per_layer")):
        proc = runs[mode]
        result = _result(proc)
        assert result["correct"] and result["failed"] == 0
        expected = {f"{w}.{m['name']}": m["unit"] for w in run.WORKLOADS for m in SPEC[spec_key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        lines = proc.stdout.splitlines()
        for metric in SPEC[spec_key]:
            assert sum(line.split()[:1] == [metric["name"]] and metric["unit"] in line.split()
                       for line in lines) == len(run.WORKLOADS), metric["name"]
    assert sum(line.split()[:1] == ["failed_frac"] for line in runs["plain"].stdout.splitlines()) == 3


def test_computed_counts_repeat_for_same_seed(runs):
    first, second = _result(runs["traced"])["metrics"], _result(runs["traced_again"])["metrics"]
    count_units = {"count", "B", "flop"}
    counts = [k for k, v in first.items() if v["unit"] in count_units]
    assert counts
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", ".work-*", "__pycache__"))
    proc = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
