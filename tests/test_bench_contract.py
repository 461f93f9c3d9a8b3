"""The names and call shapes the benchmark reaches into secnum by.

bench/tracer.py wraps secnum's entry points by module attribute and
bench/child.py wraps suite._eval_task; a refactor that binds a function
under another name, or calls a phase twice, silently hides it from the
traced counts.  This runs the benchmark's own tracer around its smoke
suite config and checks that every span it declares is reached, and that
it sees every call a profiler sees.  It also runs a few calculator queries
of every kind, so a change to a constructor or an entry point the
calculator calls fails here, and pins the answers to the first 300
queries of the calculator stream at the acceptance seed.
"""

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

from secnum import Budget, cover, homotopy, run_suite, sectional
from secnum import coincidence as coin

BENCH = Path(__file__).resolve().parent.parent / "bench"

# sha256 of the fingerprints of the answers to the first 300 calculator
# queries at seed 20240801, hashed as bench/child.py hashes a run's answers
CALCULATOR_ANSWERS_SHA256 = "b86686c757630eb70c59a0ad8a868cc9c5dae0c4cf0a50c3db97c3006594b147"

# the claims whose evaluators call one coincidence.check_* checker each
CHECKED_CLAIMS = (coin.CLAIM_REMARK, coin.CLAIM_MAIN, coin.CLAIM_KEY_LEMMA, coin.CLAIM_CP_FPP)


def test_traced_smoke_suite_reaches_every_span_and_checker(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import child
    import tracer as tracing

    cfg = child.suite_config({"smoke": True, "seed": 7, "parallelism": 1})
    homotopy.core.cache_clear()  # a warm cache would skip the core-miss span
    t = tracing.Tracer()
    t.install()
    try:
        report = run_suite(cfg)
    finally:
        t.uninstall()
    assert report.exit_code == 0
    assert [name for name in tracing.SPANS if t.counts[name + ".calls"] == 0] == []
    assert len(t.spans_named("suite.build_tasks")) == 1
    assert len(t.spans_named("suite.census_summary")) == 1
    checked = sum(report.claim(claim_id)["instances"] for claim_id in CHECKED_CLAIMS)
    assert checked > 0
    assert t.counts["coincidence.check.calls"] == checked


def test_traced_sec_and_secat_calls_match_a_profiler_count(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import child
    import tracer as tracing

    cfg = child.suite_config({"smoke": True, "seed": 7, "parallelism": 1})
    # the code objects of the originals, read before the tracer wraps them
    names = {sectional.sec.__code__: "sectional.sec", sectional.secat.__code__: "sectional.secat",
             homotopy.cat.__code__: "homotopy.cat", coin.has_cp.__code__: "coincidence.has_cp",
             cover.find_maximal_good_opens.__code__: "cover.open_scan"}
    profiled = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            profiled[names[frame.f_code]] += 1

    # every is_good a cover search is given, counted before the tracer sees it
    search = cover.min_good_cover

    def counted_search(space, is_good, *args):
        def counted(mask):
            profiled["is_good"] += 1
            return is_good(mask)

        return search(space, counted, *args)

    for module in (cover, coin):
        monkeypatch.setattr(module, "min_good_cover", counted_search)
    t = tracing.Tracer()
    t.install()
    sys.setprofile(profile)
    try:
        run_suite(cfg)
    finally:
        sys.setprofile(None)
        t.uninstall()
    for name in names.values():
        assert profiled[name] > 0
        assert t.counts[name + ".calls"] == profiled[name], name
    # every good-open test goes through cover.find_maximal_good_opens, one
    # is_good call each, so the tracer counts each of them as a candidate
    assert t.counts["cover.good_open.candidates"] == profiled["cover.open_scan"]
    assert profiled["is_good"] == profiled["cover.open_scan"]


def test_calculator_queries_run_and_verify(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import calculator

    queries = calculator.make_queries(7, 2 * len(calculator.KINDS))
    assert {kind for kind, _ in queries} == set(calculator.KINDS)
    for kind, args in queries:
        result = calculator.run_query(kind, args, Budget())
        assert calculator.verify(kind, args, result), kind


def test_calculator_answers_match_their_pin(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import calculator
    import child

    digest = hashlib.sha256()
    for kind, args in calculator.make_queries(20240801, 300):
        result = calculator.run_query(kind, args, Budget())
        digest.update(json.dumps(child._fingerprint(result), sort_keys=True).encode())
    assert digest.hexdigest() == CALCULATOR_ANSWERS_SHA256
