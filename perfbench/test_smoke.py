"""Smoke test of the benchmark harness at a tiny run length.

Runs every workload untraced and traced for one second and checks the
result against BENCHMARK.json.  From the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3

sys.path.insert(0, str(HERE))
from tracing import exact_part  # noqa: E402


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def parsed(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, context, result = proc.stdout.splitlines()
    return json.loads(context)["context"], json.loads(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_appears_with_its_unit(workload, trace):
    context, result = parsed(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert (context["workload"], context["seed"]) == (workload, SEED)
    assert len(context["inputs_sha256"]) == 64
    assert set(context["machine"]) == {"python", "numpy", "mpmath", "nproc", "cpu",
                                       "pinned_to"}


def test_traced_counts_repeat_across_runs():
    runs = [parsed(run_bench("point_stream", 1))[1]["metrics"] for _ in range(2)]
    first, second = ({name: m["value"] for name, m in r.items()} for r in runs)
    assert exact_part(first) == exact_part(second)
    assert first["solvers.solve_lambda_star.calls"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("point_stream", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
