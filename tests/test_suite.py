import json
import re
from pathlib import Path

import pytest

from secnum.suite import (
    CLAIMS_BY_ID,
    INCONCLUSIVE,
    REGISTRY,
    VERIFIED,
    SuiteConfig,
    _eval_task,
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


def test_sierpinski_boundary_is_inconclusive_on_a_tiny_budget():
    # budget 1 leaves the CP and FPP searches unfinished; their verdicts
    # must not be read as definite
    out = _eval_task(("sierpinski_boundary", (), 1))
    assert out["status"] == INCONCLUSIVE
    assert "witness" in out
    statuses = [_eval_task(("sierpinski_boundary", (), budget))["status"] for budget in range(1, 40)]
    assert set(statuses) == {INCONCLUSIVE, VERIFIED}
    assert statuses[-1] == VERIFIED


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


def test_suite_determinism_across_runs_and_parallelism():
    a = run_suite(SuiteConfig(**TINY)).to_json_bytes()
    b = run_suite(SuiteConfig(**TINY)).to_json_bytes()
    assert a == b
    c = run_suite(SuiteConfig(**TINY, parallelism=2)).to_json_bytes()
    assert a == c


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


def test_report_write_and_timings_sidecar(tmp_path):
    out = tmp_path / "report.json"
    cfg = SuiteConfig(**TINY, out=str(out))
    report = run_suite(cfg)
    data = json.loads(out.read_text())
    assert data["exit_code"] == report.exit_code
    assert "timings" not in json.dumps(data)
    sidecar = json.loads((tmp_path / "report.json.timings.json").read_text())
    assert "total" in sidecar["timings_seconds"]


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(max_points=9).validate()
    with pytest.raises(ValueError):
        SuiteConfig(k_values=(1,)).validate()
    with pytest.raises(ValueError):
        SuiteConfig(parallelism=0).validate()
    with pytest.raises(ValueError):
        SuiteConfig(seed=-1).validate()


def test_config_json_round_trip():
    cfg = SuiteConfig(**TINY)
    data = cfg.to_json_dict()
    assert data["schema"] == "secnum.suite-config/1"
    again = SuiteConfig.from_json_dict(json.loads(json.dumps(data)))
    assert again == cfg
    with pytest.raises(ValueError):
        SuiteConfig.from_json_dict({"nonsense": 1})


def test_census_summary_contents():
    report = run_suite(SuiteConfig(**TINY))
    summary = report.census_summary
    assert summary["spaces_by_size"] == {"1": 1, "2": 3}
    assert summary["fpp_by_size"]["1"] == 1
    # of the three 2-point spaces only the connected T0 one has FPP
    assert summary["fpp_by_size"]["2"] == 1
    assert "non_hausdorff_cp_with_sec2" in summary
