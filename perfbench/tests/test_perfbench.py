"""Smoke-size runs of every workload, untraced and traced, plus unit checks.

Run with ``python3 -m pytest perfbench/tests -q``.  Each run uses the
smallest budget (every phase at its minimum op count), so the whole file
takes about a minute and a half; full-size runs are not part of any test.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

from harness import distribution  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    out = result(run(workload, trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
    declared = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in out["metrics"].items()}
    for name, metric in out["metrics"].items():
        assert isinstance(metric["value"], float), name
    if trace == 0:
        assert all(m["value"] > 0 for m in out["metrics"].values())
    if workload != "d8-cdf":
        assert out["failed"] == 0


def test_traced_counts_repeat_exactly():
    first = result(run("d2-affine", 1, seed=11))
    second = result(run("d2-affine", 1, seed=11))
    counts = ("diffcore.nodes.train", "diffcore.node_mb.train",
              "diffcore.grad_copy_mb.train", "conditioner.tokens_per_dim.invert")
    assert second["correct"] is True
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["conditioner.tokens_per_dim.invert"]["value"] == 2.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("d2-affine", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.phase = "train"
    inner = tracer.span("inner", lambda: sum(range(20000)))
    outer = tracer.span("outer", lambda: [inner() for _ in range(3)])
    outer()
    table = tracer.layer_times()
    out, inn = table[("train", "outer")], table[("train", "inner")]
    assert inn["calls"] == 3 and out["calls"] == 1
    assert out["self"] == pytest.approx(out["total"] - inn["total"])
    assert inn["self"] == inn["total"]


def test_distribution_tail_needs_ten_samples_beyond():
    d = distribution([float(i) for i in range(1, 41)])
    assert d["n"] == 40 and d["tail_pct"] == 75.0 and d["tail"] == 30.0
    assert "tail" not in distribution([1.0] * 20)
