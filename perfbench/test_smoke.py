"""Smoke test: every workload at its smallest size, tracing off and on.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# one layer each workload must reach, so the tracer is known to be wired
REACHED = {"degseq": "polynomials.poly_mul.calls",
           "orbit": "heights.normalize.calls",
           "campaign": "campaign.run_entry.calls",
           "cli": "cli.main.self_s"}


def bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
         "--smoke"], cwd=cwd, stdout=subprocess.PIPE, text=True,
        timeout=300)


def test_known_defects_are_keyed_by_task():
    assert workloads.known_defect("degseq.certified_upper_below_degree",
                                  "power-5") is not None
    assert workloads.known_defect("degseq.certified_upper_below_degree",
                                  "cremona") is None
    assert workloads.known_defect("campaign.nth_root_above_bound",
                                  "entry:square-powers") is None
    assert workloads.known_defect("campaign.row_consistent",
                                  "entry:square-powers~random") is None
    assert workloads.known_defect("cli.campaign_json_cached_bytes",
                                  "campaign --out report.json [cache 2]")
    assert workloads.known_defect("cli.cached_bytes",
                                  "campaign --out report.csv [cache 2]") \
        is None


def test_tail_level_does_not_depend_on_pass_count():
    level = run.tail_level(12, run.MIN_PASSES)
    for passes in (run.MIN_PASSES, 7, 30):
        samples = list(range(12 * passes))
        beyond = sum(1 for s in samples if s > run.tail(samples, level))
        assert beyond >= run.TAIL_BEYOND
        assert abs(beyond - (1 - level) * len(samples)) <= 1


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert record["attempted"] == result["attempted"]
    assert record["unexpected_failures"] == []
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in spec)
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))
    if trace:
        assert metrics[REACHED[workload]]["value"] > 0
    else:
        assert all(metrics[m["name"]]["value"] > 0 for m in spec)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "degseq", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
