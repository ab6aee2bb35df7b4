"""Smoke test of the benchmark: each workload once at reduced size.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

from spans import SUBCOMMANDS, Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# per-layer metrics each workload must drive above zero when traced
EXERCISED = {
    "sphere_forward": ["solver.gram_s", "solver.gram_calls", "solver.gram_flops",
                       "solver.solve_s", "solver.solves", "solver.record_s",
                       "extraction.trace_s"],
    "ucp_sweep": ["models.basis_s", "models.basis_calls", "models.basis_entries",
                  "models.basis_bytes", "models.points_s", "recovery.ucp_s",
                  "recovery.ucp_calls", "recovery.ucp_matrix_bytes"],
    "cli_batch": ["cli.import_s", "config.load_s", "serialize.write_s",
                  "serialize.read_s", "serialize.bytes_written", "models.build_s",
                  "solver.sources_s", "extraction.fit_s", "extraction.gelfand_s",
                  "extraction.compare_s", "extraction.hankel_bytes",
                  "calculus.kernel_s", "recovery.recover_s", "recovery.gauge_s"]
                 + [f"cli.{sub}_s" for sub in SUBCOMMANDS],
}


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)), metric["name"]
    if trace:
        for name in EXERCISED[workload]:
            assert result["metrics"][name]["value"] > 0, name
    else:
        for metric in expected:
            assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1, 0], ["inner", 2.0, 5.0, 0, 0],
                    ["inner", 6.0, 7.0, 0, 0], ["leaf", 3.0, 4.0, 1, 0]]
    total, calls = tracer.self_times()
    assert total["outer"] == pytest.approx(6.0)
    assert total["inner"] == pytest.approx(3.0)
    assert total["leaf"] == pytest.approx(1.0)
    assert calls["inner"] == 2
