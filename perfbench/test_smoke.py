"""Smoke test of the benchmark itself, at a tiny size.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_smoke.py
It takes about a minute: every workload once untraced and once traced.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, seed=7, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
    for m in out["metrics"].values():
        assert set(m) == {"value", "unit"}
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted(workload, trace):
    out = result(run(workload, trace))
    section = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in section} == {
        name: m["unit"] for name, m in out["metrics"].items()}
    if trace == 0:
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_call_counts_repeat_between_traced_runs():
    a, b = (result(run("pd-sweep", 1))["metrics"] for _ in range(2))
    counts = [name for name in a if name.endswith(".calls")]
    assert counts and all(a[n]["value"] == b[n]["value"] for n in counts)
    assert a["group.compose.calls"]["value"] > 0


def test_fails_without_library_sources():
    bare = os.path.join(HERE, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run("pd-sweep", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
