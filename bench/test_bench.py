"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
(tier-1 collects only tests/, so this file never slows it down.)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import tracer as tracing  # noqa: E402
from calculator import make_queries  # noqa: E402
from speed import REFERENCE_KERNEL_S, Sampler  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_spec(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def _smoke_job(workload):
    return {"workload": workload, "seed": 7, "parallelism": 1, "smoke": True, "verify": True}


def _assert_spans_well_formed(t: tracing.Tracer):
    assert len(t.start) > 0
    assert t.check_spans() == {"outside_parent": 0, "unclosed": 0, "negative_self": 0}
    for i in range(len(t.start)):
        p = t.parent[i]
        if p >= 0:
            assert t.start[p] <= t.start[i] <= t.end[i] <= t.end[p]
    assert all(value >= -1e-9 for value in t.self_times().values())


def test_suite_spans_nest_and_phases_add_up():
    import secnum.finspace

    original = secnum.finspace.iter_assignments
    t = tracing.Tracer()
    job = _smoke_job("suite-serial")
    out = child.run_suite_job(job, child.suite_config(job), t)
    assert secnum.finspace.iter_assignments is original, "uninstall must restore originals"
    _assert_spans_well_formed(t)
    layers = out["layers"]
    assert layers["suite.tasks"] == out["ops"]
    phases = sum(layers[name] for name in ("suite.census_s", "suite.build_tasks_s",
                                           "suite.claim_loop_s", "suite.census_summary_s"))
    run_s = out["ended"] - out["started"]
    assert abs(run_s - phases - layers["suite.unaccounted_s"]) < 1e-9
    assert 0 <= layers["suite.unaccounted_s"] < 0.1 * run_s


def test_calculator_spans_nest_and_outputs_verify():
    t = tracing.Tracer()
    out = child.run_calculator_job(_smoke_job("calculator"), make_queries(7, 27), t)
    _assert_spans_well_formed(t)
    assert out["failed"] == 0
    assert out["layers"]["resources.nodes_total"] > 0


def test_scaling_leaves_out_samples_and_uses_local_speed():
    s = Sampler()
    # samples at [1, 2) and [3, 4): kernels at half and at the reference time
    for enter, leave, kernel_s in ((1, 2, REFERENCE_KERNEL_S / 2), (3, 4, REFERENCE_KERNEL_S),
                                   (5, 6, REFERENCE_KERNEL_S), (7, 8, REFERENCE_KERNEL_S)):
        s.enter.append(enter)
        s.leave.append(leave)
        s.kernel_s.append(kernel_s)
    scaled = s.scaler()
    assert scaled(2, 3) == pytest.approx(1.0)  # a stretch between reference samples
    assert scaled(1.5, 3.5) == pytest.approx(1.0)  # partial samples are left out
    assert scaled(0, 8) == pytest.approx(scaled(0, 2.5) + scaled(2.5, 8))
    assert s.scales()[0] == pytest.approx(4 / 3)  # median of the first two samples
    assert scaled(0, 1) == pytest.approx(4 / 3)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
