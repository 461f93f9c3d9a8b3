"""One run of a workload in a fresh interpreter, so every lru_cache starts cold.

Usage: python3 bench/child.py '<job as JSON>'   (src/ must be on PYTHONPATH)

The job names the workload, the seed, whether to trace and the clock reading
(time.perf_counter, system-wide on Linux) at which the parent spawned this
process.  Set-up time runs from that moment until secnum is imported and the
inputs exist.  Every time is scaled to the reference machine speed with the
kernel samples of speed.py, taken throughout the process's life.  The last
line of standard output is one JSON object with the run's measurements and
the facts the parent's correctness gate needs.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from array import array

from speed import Sampler, clock


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def suite_config(job: dict):
    from secnum import SuiteConfig

    if job["smoke"]:
        return SuiteConfig(seed=job["seed"], parallelism=job["parallelism"],
                           census_max_points=1, hausdorff_target_max=2,
                           key_lemma_target_max=3, contractibility_census_max=2,
                           instances_per_property=2, tc_instances=1)
    return SuiteConfig(seed=job["seed"], parallelism=job["parallelism"])


def _timed_instances(starts: array, ends: array):
    """secnum.suite._eval_task wrapped to record each claim instance's
    start and end; run_suite looks the name up at call time."""
    from secnum import suite

    evaluate = suite._eval_task

    def timed(task):
        starts.append(clock())
        try:
            return evaluate(task)
        finally:
            ends.append(clock())

    return suite, evaluate, timed


def run_suite_job(job: dict, cfg, tracer) -> dict:
    from secnum import run_suite
    from tracer import layer_metrics, suite_phases

    starts, ends = array("d"), array("d")
    # a pool pickles _eval_task by name, so only serial runs time instances
    timing = cfg.parallelism == 1
    if timing:
        suite, evaluate, timed = _timed_instances(starts, ends)
        suite._eval_task = timed
    if tracer is not None:
        tracer.install()
    started = clock()
    try:
        report = run_suite(cfg)
    finally:
        ended = clock()
        if tracer is not None:
            tracer.uninstall()
        if timing:
            suite._eval_task = evaluate
    theorem_failures = sum(
        entry["tallies"]["violated"] + entry["tallies"]["inconclusive"]
        for entry in report.claims if entry["kind"] == "theorem"
    )
    out = {
        "started": started,
        "ended": ended,
        "op_spans": list(zip(starts, ends)),
        "ops": sum(entry["instances"] for entry in report.claims),
        "failed": theorem_failures,
        "exit_code": report.exit_code,
        "digest": hashlib.sha256(report.to_json_bytes()).hexdigest(),
    }
    if tracer is not None:
        out["layers"] = dict(layer_metrics(tracer), **suite_phases(tracer, started, ended))
        out["spans"] = tracer.check_spans()
    return out


def _fingerprint(result) -> object:
    """Output of one query in a form that two runs can compare exactly."""
    if hasattr(result, "to_json_dict"):
        return result.to_json_dict()
    if hasattr(result, "exhaustive"):
        witness = None if result.witness is None else list(result.witness.assignment)
        return [result.holds, result.exhaustive, witness]
    return [result.value.to_json(), [element.mask for element in result.cover],
            result.uncovered_point]


def run_calculator_job(job: dict, queries, tracer) -> dict:
    from calculator import run_query, verify
    from secnum import Budget, BudgetExhausted, LimitExceeded
    from tracer import layer_metrics

    starts, ends, results = array("d"), array("d"), []
    errors = 0
    if tracer is not None:
        tracer.install()
    started = clock()
    try:
        for kind, args in queries:
            starts.append(clock())
            try:
                result = run_query(kind, args, Budget())
            except (BudgetExhausted, LimitExceeded):
                result = None
                errors += 1
            ends.append(clock())
            results.append(result)
    finally:
        ended = clock()
        if tracer is not None:
            tracer.uninstall()
    rejected = 0
    if job["verify"]:
        rejected = sum(1 for (kind, args), result in zip(queries, results)
                       if result is not None and not verify(kind, args, result))
    digest = hashlib.sha256()
    for result in results:
        fingerprint = None if result is None else _fingerprint(result)
        digest.update(json.dumps(fingerprint, sort_keys=True).encode())
    out = {
        "started": started,
        "ended": ended,
        "op_spans": list(zip(starts, ends)),
        "ops": len(queries),
        "failed": errors + rejected,
        "exit_code": 0,
        "digest": digest.hexdigest(),
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer)
        out["spans"] = tracer.check_spans()
    return out


def main() -> None:
    job = json.loads(sys.argv[1])
    sampler = Sampler().start()
    import secnum  # noqa: F401  (import time is part of set-up)

    if job["workload"] == "calculator":
        from calculator import make_queries

        inputs = make_queries(job["seed"], job["queries"])
    else:
        inputs = suite_config(job)
    setup_end = clock()
    sampler.sample(5)
    out = {}
    if job["run"]:
        tracer = None
        if job["trace"]:
            from tracer import Tracer

            tracer = Tracer()
        if job["parallelism"] > 1:
            sampler.stop()
        if job["workload"] == "calculator":
            out.update(run_calculator_job(job, inputs, tracer))
        else:
            out.update(run_suite_job(job, inputs, tracer))
        out["peak_rss_mb"] = _peak_rss_mb()
    sampler.stop()
    sampler.sample(3)
    scaled = sampler.scaler()
    out["setup_s"] = scaled(job["spawned"], setup_end)
    out["kernel_ms"] = 1e3 * sampler.median_kernel_s()
    if job["run"]:
        started, ended = out.pop("started"), out.pop("ended")
        out["wall_s"] = ended - started
        out["run_s"] = scaled(started, ended)
        out["op_ms"] = [1e3 * scaled(t0, t1) for t0, t1 in out.pop("op_spans")]
        if "layers" in out:
            # span times are wall clock; scale them by the run's mean factor
            factor = out["run_s"] / out["wall_s"]
            out["layers"] = {name: value * factor if name.endswith("_s") else value
                             for name, value in out["layers"].items()}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
