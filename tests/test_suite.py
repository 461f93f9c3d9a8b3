import ast
import inspect
import json
import multiprocessing
import os
import re
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from secnum import census, coincidence, cover, homotopy, resources, sectional, suite
from secnum.coincidence import TheoremReport, check_remark
from secnum.extnat import ExtNat
from secnum.finspace import (
    configuration_space,
    constant_map,
    discrete_space,
    identity_map,
    sierpinski,
)
from secnum.resources import Budget, SelfCheckFailed
from secnum.suite import (
    CLAIMS_BY_ID,
    FALSIFIED,
    HNM,
    INCONCLUSIVE,
    REGISTRY,
    VERIFIED,
    VIOLATED,
    Claim,
    SuiteConfig,
    _build_tasks,
    _eval_task,
    _payload_json,
    run_suite,
)

TINY = dict(
    max_points=2,
    census_max_points=2,
    hausdorff_target_max=2,
    key_lemma_target_max=2,
    k_values=(2,),
    contractibility_census_max=3,
    instances_per_property=6,
    tc_instances=2,
    seed=12345,
)


def test_registry_ids_are_unique_and_documented():
    assert len(CLAIMS_BY_ID) == len(REGISTRY)
    for claim in REGISTRY:
        assert claim.kind in ("theorem", "exploratory")
        assert claim.statement and claim.hypotheses


def test_readme_claim_table_matches_registry():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| (\w+) \| (.+) \|$", readme, re.MULTILINE)
    assert [claim_id for claim_id, _, _ in rows] == [claim.id for claim in REGISTRY]
    for claim_id, kind, text in rows:
        claim = CLAIMS_BY_ID[claim_id]
        assert kind == claim.kind, claim_id
        assert text.startswith(claim.statement), claim_id


def test_readme_census_counts_match_the_census_module():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    note = re.search(r"preorders on up to (\d+) points up to isomorphism\s+\(([\d,\s]+) spaces"
                     r" for sizes 1\.\.(\d+); posets: ([\d,\s]+)\)", readme)
    assert note is not None
    top, preorders, sizes_top, posets = note.groups()
    assert int(top) == int(sizes_top) == census.CENSUS_HARD_MAX
    sizes = range(1, census.CENSUS_HARD_MAX + 1)
    assert [int(c) for c in preorders.split(",")] == [census.KNOWN_PREORDER_COUNTS[n] for n in sizes]
    assert [int(c) for c in posets.split(",")] == [census.KNOWN_POSET_COUNTS[n] for n in sizes]


def test_sierpinski_boundary_is_inconclusive_on_a_tiny_budget():
    # budget 1 leaves the CP and FPP searches unfinished; their verdicts
    # must not be read as definite
    payload = (sierpinski(),)
    out = _eval_task(("sierpinski_boundary", payload, 1))
    assert out["status"] == INCONCLUSIVE
    assert out["witness"] == [[1, 3]]
    statuses = [_eval_task(("sierpinski_boundary", payload, budget))["status"]
                for budget in range(1, 40)]
    assert set(statuses) == {INCONCLUSIVE, VERIFIED}
    assert statuses[-1] == VERIFIED


def test_violated_outcome_records_its_instance_as_witness():
    # the census has 3 preorders on 2 points, so claiming 4 is violated
    out = _eval_task(("census_counts", (2, False, 4), 10**6))
    assert out == {"status": VIOLATED, "witness": [2, False, 4]}


def test_fpp_iff_cp_identity_decides_fpp_without_has_cp(monkeypatch):
    """The claim's FPP side does not come from has_cp, so a has_cp that
    wrongly finds CP on the two discrete points (the swap fixes no point),
    wherever it is read, makes the claim violated."""
    payload = (discrete_space(2),)
    assert _eval_task(("fpp_iff_cp_identity", payload, 10**4))["status"] == VERIFIED

    def wrong_has_cp(X, Y, g, budget=None):
        return coincidence.CoincidenceVerdict(None)

    monkeypatch.setattr(coincidence, "has_cp", wrong_has_cp)
    monkeypatch.setattr(suite, "has_cp", wrong_has_cp)
    assert _eval_task(("fpp_iff_cp_identity", payload, 10**4)) == {
        "status": VIOLATED, "witness": [[1, 2]]}


def _concluding(monkeypatch, kind, conclusion):
    claim = Claim("concludes", "a stub claim", "none", kind, lambda *instance: conclusion)
    monkeypatch.setitem(CLAIMS_BY_ID, claim.id, claim)
    return _eval_task((claim.id, (2, False, 4), 10))


@pytest.mark.parametrize("kind, status", [("theorem", VIOLATED), ("exploratory", FALSIFIED)])
def test_the_claim_kind_alone_decides_violated_or_falsified(monkeypatch, kind, status):
    assert _concluding(monkeypatch, kind, False) == {"status": status, "witness": [2, False, 4]}
    assert _concluding(monkeypatch, kind, {"status": False}) == {
        "status": status, "witness": [2, False, 4]}
    assert _concluding(monkeypatch, kind, True) == {"status": VERIFIED}
    assert _concluding(monkeypatch, kind, HNM) == {"status": HNM}


@pytest.mark.parametrize("conclusion", [2, 1, 0, None, FALSIFIED, INCONCLUSIVE, {"status": 1},
                                        VERIFIED, VIOLATED])
def test_a_conclusion_that_is_not_one_raises(monkeypatch, conclusion):
    with pytest.raises(TypeError):
        _concluding(monkeypatch, "theorem", conclusion)


def test_every_instance_binds_to_its_evaluator():
    """An instance is its evaluator's argument list, then the budget: a
    builder and an evaluator that disagree on its shape fail here, before
    any search runs."""
    tasks = _build_tasks(SuiteConfig(**TINY))
    for claim_id, payload, limit in tasks:
        inspect.signature(CLAIMS_BY_ID[claim_id].evaluate).bind(*payload, resources.Budget(limit))
    assert {claim_id for claim_id, _, _ in tasks} == set(CLAIMS_BY_ID)


def test_no_evaluator_spells_a_status():
    """Neither a suite evaluator nor a theorem checker spells a status, by
    name (VIOLATED, coin.VIOLATED) or by value ("violated"): each returns its
    conclusion, and coincidence.status_of alone spells it."""
    spellings = {"VERIFIED", "VIOLATED", "FALSIFIED", VERIFIED, VIOLATED, FALSIFIED}
    bodies = [
        node
        for module, prefix in ((suite, "_eval_"), (coincidence, "check_"))
        for node in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith(prefix)
        and node.name != "_eval_task"
    ]
    assert len([node for node in bodies if node.name.startswith("check_")]) == 4
    spelled = {
        (node.name, word)
        for node in bodies
        for part in ast.walk(node)
        for word in (getattr(part, "id", None), getattr(part, "attr", None),
                     getattr(part, "value", None))
        if isinstance(word, str) and word in spellings
    }
    assert spelled == set()


def test_every_unsettled_outcome_is_witnessed_by_its_instance():
    # budget 1 leaves almost every search unfinished
    exploratory = {claim.id for claim in REGISTRY if claim.kind == "exploratory"}
    unsettled = 0
    for claim_id, payload, budget in _build_tasks(SuiteConfig(**TINY, budget=1)):
        out = _eval_task((claim_id, payload, budget))
        if out["status"] in (VERIFIED, HNM):
            assert "witness" not in out, claim_id
            continue
        unsettled += 1
        if claim_id not in exploratory:
            assert out["witness"] == _payload_json(payload), claim_id
        else:
            assert out["witness"], claim_id
    assert unsettled > 0


def test_tiny_suite_runs_clean():
    report = run_suite(SuiteConfig(**TINY))
    assert report.exit_code == 0
    for entry in report.claims:
        assert entry["id"] in CLAIMS_BY_ID
        if entry["kind"] == "theorem":
            assert entry["tallies"]["violated"] == 0
            assert entry["tallies"]["inconclusive"] == 0
        assert entry["instances"] == sum(entry["tallies"].values())
    body = report.to_json_dict()
    assert body["schema"] == "secnum.suite-report/1"
    assert {c["id"] for c in body["claims"]} == set(CLAIMS_BY_ID)


def test_default_suite_builds_no_certificate_and_formats_no_instance(monkeypatch):
    """The claims read only values and statuses, so the default run builds
    no open set or subspace out of a cover certificate and formats no
    instance text; reading a result's cover, verifying its certificate and
    reading a report's instance afterwards are counted, so the counters see
    what a reader builds."""
    opens, subspaces, formatted = [], [], []
    open_set, subspace_of_mask = cover.OpenSet, cover.subspace_of_mask
    instance = TheoremReport.instance.func

    def counted_open_set(*args):
        opens.append(args)
        return open_set(*args)

    def counted_subspace(*args):
        subspaces.append(args)
        return subspace_of_mask(*args)

    def counted_instance(report):
        formatted.append(report)
        return instance(report)

    monkeypatch.setattr(cover, "OpenSet", counted_open_set)
    monkeypatch.setattr(cover, "subspace_of_mask", counted_subspace)
    monkeypatch.setattr(TheoremReport, "instance", property(counted_instance))
    assert run_suite(SuiteConfig()).exit_code == 0
    assert opens == subspaces == formatted == []
    s = sierpinski()
    result = sectional.sec(identity_map(s))
    assert [element.mask for element in result.cover] == [s.full_mask]
    assert result.certificate.verify()
    assert check_remark(s, s, constant_map(s, s, 0)).to_json_dict()["instance"]
    assert len(opens) == len(subspaces) == len(formatted) == 1


def test_suite_determinism_across_runs_and_parallelism():
    a = run_suite(SuiteConfig(**TINY)).to_json_bytes()
    b = run_suite(SuiteConfig(**TINY)).to_json_bytes()
    assert a == b
    c = run_suite(SuiteConfig(**TINY, parallelism=2)).to_json_bytes()
    assert a == c


def test_spawned_workers_give_the_serial_bytes(monkeypatch):
    """The pool's worker initializer must reach workers that start from a
    fresh import, as under the spawn start method."""
    serial = run_suite(SuiteConfig(**TINY)).to_json_bytes()
    monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context("spawn").Pool)
    assert run_suite(SuiteConfig(**TINY, parallelism=2)).to_json_bytes() == serial


def test_pool_workers_evaluate_inside_shared_searches(monkeypatch):
    """Each pool worker opens its own shared_searches() block for its whole
    life; without it a parallelism-2 run gives the same bytes, only slower,
    so a probe claim reports where it ran.  Forked workers see the probe."""
    parent = os.getpid()
    probe = replace(CLAIMS_BY_ID["secat_le_sec"], evaluate=lambda f, budget: (
        os.getpid() != parent and resources._shared is not None))
    monkeypatch.setitem(CLAIMS_BY_ID, probe.id, probe)
    monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context("fork").Pool)
    entry = run_suite(SuiteConfig(**TINY, parallelism=2)).claim(probe.id)
    assert entry["tallies"][VERIFIED] == entry["instances"] > 1


def test_the_projection_memo_keeps_values_not_cover_results(monkeypatch):
    """relsec(pi_{k,1}, g) is memoised as its value alone: keeping the whole
    CoverResult under relative_sec's key costs peak memory on large runs."""
    memos = []
    census_summary = suite._census_summary

    def summary_inside_the_run(cfg, hits):
        memos.append(resources._shared[0])
        return census_summary(cfg, hits)

    monkeypatch.setattr(suite, "_census_summary", summary_inside_the_run)
    run_suite(SuiteConfig(**TINY))
    (memo,) = memos
    values = [value for key, (value, _) in memo.items() if key[0] == "relative_sec_pi"]
    assert values and all(type(value) is ExtNat for value in values)


def test_searches_are_shared_only_inside_a_run(monkeypatch):
    first = run_suite(SuiteConfig(**TINY))
    assert resources._shared is None
    second = run_suite(SuiteConfig(**TINY))
    # a memo kept from the first run would turn the second run's misses into hits
    shared = ("sec", "secat", "cat", "has_cp", "relative_sec", "relative_secat",
              "relative_sec_pi")
    assert all(first.cache_counts[name]["misses"] > 0 for name in shared)
    assert [first.cache_counts[name] for name in shared] == \
        [second.cache_counts[name] for name in shared]

    def fail(cfg, hits):
        raise RuntimeError("census summary failed")

    monkeypatch.setattr(suite, "_census_summary", fail)
    with pytest.raises(RuntimeError, match="census summary failed"):
        run_suite(SuiteConfig(**TINY))
    assert resources._shared is None


def test_different_seed_changes_random_sections_only():
    a = run_suite(SuiteConfig(**TINY))
    other = dict(TINY)
    other["seed"] = 54321
    b = run_suite(SuiteConfig(**other))
    assert a.to_json_bytes() != b.to_json_bytes()
    # census-driven tallies are seed-independent
    assert a.claim("remark_sec1_iff_not_cp") == b.claim("remark_sec1_iff_not_cp")


def test_adversarial_budget_forces_inconclusive_and_exit_3():
    cfg = SuiteConfig(**TINY, budget=1)
    report = run_suite(cfg)
    total_inconclusive = sum(c["tallies"]["inconclusive"] for c in report.claims)
    assert total_inconclusive > 0
    assert report.exit_code == 3
    for entry in report.claims:
        if entry["tallies"]["inconclusive"] > 0:
            assert entry["witnesses"], entry["id"]


def test_tiny_env_budget_bounds_searches_not_instance_building(monkeypatch):
    # SECNUM_BUDGET is the per-instance search budget; building the
    # instances must not spend it, so the run still reaches every claim
    monkeypatch.setenv("SECNUM_BUDGET", "2")
    report = run_suite(SuiteConfig(**TINY))
    assert report.exit_code == 3
    assert {c["id"] for c in report.claims} == set(CLAIMS_BY_ID)
    assert any(c["tallies"]["verified"] > 0 for c in report.claims)
    for entry in report.claims:
        assert entry["instances"] == sum(entry["tallies"].values())
        if entry["tallies"]["inconclusive"] > 0:
            assert entry["witnesses"], entry["id"]


def test_exploratory_falsifications_do_not_gate_exit():
    cfg = SuiteConfig(
        max_points=3,
        census_max_points=2,
        hausdorff_target_max=2,
        key_lemma_target_max=2,
        k_values=(2,),
        contractibility_census_max=2,
        instances_per_property=30,
        tc_instances=2,
        seed=7,
    )
    report = run_suite(cfg)
    entry = report.claim("relative_secat_homotopy_invariance")
    assert entry["kind"] == "exploratory"
    assert entry["tallies"]["falsified"] > 0  # counterexamples exist and are recorded
    assert entry["witnesses"]
    assert report.exit_code == 0


def test_only_a_serial_run_reports_cache_counts(tmp_path):
    """Pool workers share their searches but keep their own counts, so a run
    at parallelism 2 leaves cache_counts out of its sidecar rather than
    report the calling process's part."""
    sidecars = []
    for parallelism in (1, 2):
        out = tmp_path / f"report-{parallelism}.json"
        run_suite(SuiteConfig(**TINY, parallelism=parallelism, out=str(out)))
        sidecars.append(json.loads((tmp_path / f"{out.name}.timings.json").read_text()))
    serial, parallel = sidecars
    assert serial["cache_counts"]["has_cp"]["misses"] > 0
    assert "cache_counts" not in parallel
    assert set(parallel["timings_seconds"]) == set(serial["timings_seconds"])


def test_report_write_and_timings_sidecar(tmp_path):
    out = tmp_path / "report.json"
    cfg = SuiteConfig(**TINY, out=str(out))
    names = {sectional.sec.__code__: "sec", sectional.secat.__code__: "secat",
             homotopy.cat.__code__: "cat", coincidence.has_cp.__code__: "has_cp",
             sectional.relative_sec.__code__: "relative_sec",
             sectional.relative_secat.__code__: "relative_secat",
             coincidence._relative_sec_of_projection.__code__: "relative_sec_pi"}
    calls = Counter()

    def profile(frame, event, arg):
        # relative_sec looks itself up on its lift route only
        if event == "call" and frame.f_code in names and frame.f_locals.get("route") != "pullback":
            calls[names[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        report = run_suite(cfg)
    finally:
        sys.setprofile(None)
    data = json.loads(out.read_text())
    assert data["exit_code"] == report.exit_code
    assert "timings" not in json.dumps(data)
    sidecar = json.loads((tmp_path / "report.json.timings.json").read_text())
    timings = sidecar["timings_seconds"]
    assert set(timings) == {"build_tasks", "total"} | set(CLAIMS_BY_ID)
    assert 0 <= timings["build_tasks"] <= timings["total"]
    counts = sidecar["cache_counts"]
    assert counts == report.cache_counts
    assert set(counts) == set(names.values()) | {
        "core", "configuration_space", "_bridge_target", "product", "connected_components",
        "_comparable_maps"}
    for name in names.values():
        assert calls[name] > 0
        assert counts[name]["hits"] + counts[name]["misses"] == calls[name], name
    assert all(min(entry.values()) >= 0 for entry in counts.values())


def test_routes_that_disagree_fail_the_self_check(monkeypatch):
    d, s = discrete_space(2), sierpinski()
    p = configuration_space(d, 2)[1]
    # the Sierpinski projection's sectional number is infinite, d's relsec is 1
    wrong = sectional.sec(configuration_space(s, 2)[1])
    monkeypatch.setattr(sectional, "_relative_sec_lift", lambda p, g, budget: wrong)
    with pytest.raises(SelfCheckFailed, match="pullback route gives 1"):
        sectional.relative_sec(p, identity_map(d), route="both")
    assert suite._eval_route_equivalence(p, identity_map(d), Budget()) is False


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(max_points=9)
    with pytest.raises(ValueError):
        SuiteConfig(k_values=(1,))
    with pytest.raises(ValueError, match="repeat"):
        SuiteConfig(census_max_points=2, k_values=(2, 2))
    with pytest.raises(ValueError):
        SuiteConfig(parallelism=0)
    with pytest.raises(ValueError):
        SuiteConfig(seed=-1)
    with pytest.raises(ValueError, match="seed"):  # replace builds, so it checks too
        replace(SuiteConfig(), seed=-1)
    with pytest.raises(ValueError, match="k_values"):  # a list would make it unhashable
        SuiteConfig(k_values=[2, 3])
    for wrong_type in ({"instances_per_property": 2.5}, {"k_values": (2.0,)},
                       {"out": 1}, {"max_points": True}):
        with pytest.raises(ValueError):
            SuiteConfig(**wrong_type)
        with pytest.raises(ValueError):
            SuiteConfig.from_json_dict(wrong_type)


def test_config_json_round_trip():
    cfg = SuiteConfig(**TINY)
    data = cfg.to_json_dict()
    assert data["schema"] == "secnum.suite-config/1"
    again = SuiteConfig.from_json_dict(json.loads(json.dumps(data)))
    assert again == cfg
    with pytest.raises(ValueError):
        SuiteConfig.from_json_dict({"nonsense": 1})
    with pytest.raises(ValueError, match="schema"):
        SuiteConfig.from_json_dict({"schema": "secnum.suite-config/2"})
    assert SuiteConfig.from_json_dict({}) == SuiteConfig()


def test_census_summary_contents():
    report = run_suite(SuiteConfig(**TINY))
    summary = report.census_summary
    assert summary["spaces_by_size"] == {"1": 1, "2": 3}
    assert summary["fpp_by_size"]["1"] == 1
    # of the three 2-point spaces only the connected T0 one has FPP
    assert summary["fpp_by_size"]["2"] == 1
    assert "non_hausdorff_cp_with_sec2" in summary
