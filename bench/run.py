"""secnum benchmark: one workload per call, metrics as one JSON line.

Usage (from the repository root):

    python3 bench/run.py --workload suite-serial --seed 20240801 --seconds 40 --trace 0

Workloads:
  suite-serial    run_suite(SuiteConfig(seed=S)) at parallelism 1, the run
                  users make with `secnum suite`.  One untimed run at
                  parallelism 2 must produce the same report bytes.
  calculator      a closed loop with one caller over a seeded batch of
                  single-instance library queries (see calculator.py).

Every measured run is a fresh interpreter (child.py), so caches start cold as
they do for every command-line user.  Runs repeat until --seconds is used up,
at least three times, and each metric is the median over the runs.  Times are
scaled to a reference machine speed measured during each run (speed.py), so
that a shared host's changes of speed do not read as changes of the program.  With
--trace 1 the per-layer figures come from traced runs instead (tracer.py);
end-to-end figures are never taken from a traced run.

The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 only when every output passed its check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("suite-serial", "calculator")
ACCEPTANCE_SEED = 20240801
CALCULATOR_QUERIES = 3000
MIN_RUNS = 3
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 170
# never start another timed run past this point, whatever --seconds says
LAST_START_S = 120

COUNT_SUFFIXES = (".calls", ".nodes", ".candidates", ".maps_visited", ".distinct")
COUNT_NAMES = ("suite.tasks", "resources.nodes_total")


class ChildFailed(RuntimeError):
    pass


def spawn(job: dict) -> dict:
    """Run child.py on job in a fresh interpreter and return its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    job = dict(job, spawned=time.perf_counter())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), json.dumps(job)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise ChildFailed(f"{job['workload']} child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def base_job(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "parallelism": 1,
        "queries": 40 if args.smoke else CALCULATOR_QUERIES,
        "smoke": args.smoke,
        "trace": False,
        "run": True,
        "verify": False,
    }


def timed_runs(job: dict, seconds: float, min_runs: int) -> list[dict]:
    """Untraced runs until the time is used up; the first verifies outputs."""
    runs: list[dict] = []
    walls: list[float] = []
    started = time.monotonic()
    while True:
        elapsed = time.monotonic() - started
        if runs:
            typical = statistics.median(walls)
            if len(runs) >= min_runs and elapsed + typical > seconds:
                break
            if elapsed + typical > LAST_START_S:
                break
        t0 = time.monotonic()
        runs.append(spawn(dict(job, verify=not runs)))
        walls.append(time.monotonic() - t0)
        last = runs[-1]
        sys.stderr.write(f"run {len(runs)}: run_s={last['run_s']:.3f} (wall {last['wall_s']:.3f}) "
                         f"setup_s={last['setup_s']:.3f} kernel_ms={last['kernel_ms']:.2f}\n")
    return runs


def percentile(run: dict, share: float) -> float:
    """Smallest op latency with at least `share` of the ops at or below it."""
    latencies = sorted(run["op_ms"])
    return latencies[max(0, math.ceil(share * len(latencies)) - 1)]


def gate(runs: list[dict], reference_digest: str | None) -> tuple[int, int]:
    """(attempted, failed) over the runs: instance or query failures, a
    nonzero suite exit code, and any run whose output bytes differ from the
    first run's (or from the parallel reference)."""
    expected = reference_digest or runs[0]["digest"]
    attempted = sum(run["ops"] for run in runs)
    failed = 0
    for run in runs:
        failed += run["failed"]
        if run["exit_code"] != 0 and run["failed"] == 0:
            failed += 1
        if run["digest"] != expected:
            sys.stderr.write("output bytes differ between runs of the same seed\n")
            failed += 1
    return attempted, failed


def end_to_end(args) -> tuple[dict, int, int]:
    job = base_job(args)
    runs = timed_runs(job, args.seconds, 1 if args.smoke else MIN_RUNS)
    setups = [run["setup_s"] for run in runs]
    samples = 2 if args.smoke else SETUP_SAMPLES
    while len(setups) < samples:
        setups.append(spawn(dict(job, run=False))["setup_s"])
    reference = None
    if args.workload == "suite-serial":
        # determinism check: a pool of 2 workers must give the same bytes
        reference = spawn(dict(job, parallelism=2))["digest"]
    attempted, failed = gate(runs, reference)
    med = statistics.median
    metrics = {
        "setup_s": (med(setups), "s"),
        "run_s": (med([r["run_s"] for r in runs]), "s"),
        "ops_per_s": (med([r["ops"] / r["run_s"] for r in runs]), "1/s"),
        "op_p50_ms": (med([percentile(r, 0.5) for r in runs]), "ms"),
        "op_p90_ms": (med([percentile(r, 0.9) for r in runs]), "ms"),
        "peak_rss_mb": (med([r["peak_rss_mb"] for r in runs]), "MB"),
    }
    return metrics, attempted, failed


def is_count(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES) or name in COUNT_NAMES


def per_layer(args) -> tuple[dict, int, int]:
    """One untraced run, then two traced ones whose counts must agree exactly."""
    job = base_job(args)
    plain = spawn(dict(job, verify=True))
    traced = [spawn(dict(job, trace=True)) for _ in range(2)]
    attempted, failed = gate([plain] + traced, None)
    first, second = traced[0]["layers"], traced[1]["layers"]
    for name in sorted(first):
        if is_count(name) and first[name] != second[name]:
            sys.stderr.write(f"count {name} differs between traced runs: "
                             f"{first[name]} != {second[name]}\n")
            failed += 1
    for run in traced:
        defects = {key: value for key, value in run["spans"].items() if value}
        if defects:
            sys.stderr.write(f"span defects: {defects}\n")
            failed += 1
    metrics = {}
    for name in first:
        if is_count(name):
            metrics[name] = (first[name], "count")
        elif name.endswith("_ratio"):
            metrics[name] = (statistics.median([first[name], second[name]]), "ratio")
        else:
            metrics[name] = (statistics.median([first[name], second[name]]), "s")
    overhead = statistics.median([run["run_s"] for run in traced]) - plain["run_s"]
    metrics["trace.overhead_s"] = (overhead, "s")
    if "suite.tasks" not in first:
        for name in ("suite.census_s", "suite.build_tasks_s", "suite.claim_loop_s",
                     "suite.census_summary_s", "suite.unaccounted_s"):
            metrics[name] = (0.0, "s")
        metrics["suite.tasks"] = (0, "count")
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=ACCEPTANCE_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one run, for the benchmark's own test")
    args = parser.parse_args(argv)
    if not (SRC / "secnum" / "__init__.py").is_file():
        sys.stderr.write(f"secnum sources not found under {SRC}\n")
        return 2
    try:
        metrics, attempted, failed = (per_layer if args.trace else end_to_end)(args)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
