import json

import pytest

from secnum.census import census_up_to
from secnum.coincidence import (
    HYPOTHESIS_NOT_MET,
    VERIFIED,
    CoincidenceVerdict,
    check_cp_implies_fpp,
    check_key_lemma,
    check_main_theorem,
    check_remark,
    has_cp,
    has_fpp,
)
from secnum.extnat import INF, ExtNat
from secnum.resources import BudgetExhausted
from secnum.finspace import (
    CMap,
    compose,
    constant_map,
    discrete_space,
    empty_space,
    identity_map,
    make_space,
    pseudocircle,
    sierpinski,
)

from oracles import brute_has_fixed_point_free_map


def test_fpp_examples():
    assert has_fpp(make_space(1, [])).holds
    verdict = has_fpp(sierpinski())
    assert verdict.holds and verdict.exhaustive and verdict.witness is None
    swap = has_fpp(pseudocircle())
    assert not swap.holds
    assert swap.witness.assignment == (1, 0, 3, 2)


def test_fpp_against_brute_force():
    for space in census_up_to(3):
        assert has_fpp(space).holds == (not brute_has_fixed_point_free_map(space))


def test_cp_examples():
    s = sierpinski()
    point = make_space(1, [])
    assert has_cp(s, point, constant_map(s, point, 0)).holds
    d2 = discrete_space(2)
    verdict = has_cp(s, d2, constant_map(s, d2, 0))
    assert not verdict.holds
    assert set(verdict.witness.assignment) == {1}
    assert has_cp(s, s, identity_map(s)).holds


def test_cp_on_empty_source_fails_via_empty_map():
    s = sierpinski()
    g = CMap(empty_space(), s, [])
    verdict = has_cp(empty_space(), s, g)
    assert not verdict.holds and verdict.witness.assignment == ()


def test_fpp_iff_cp_with_identity():
    for space in census_up_to(4):
        assert has_fpp(space).holds == has_cp(space, space, identity_map(space)).holds


def test_witnesses_revalidate():
    c = pseudocircle()
    verdict = has_fpp(c)
    for x in range(c.n):
        assert verdict.witness(x) != x
    with pytest.raises(ValueError):
        CoincidenceVerdict(holds=False, witness=None)


def test_budget_truncation_is_inconclusive():
    d = discrete_space(3)
    with pytest.raises(BudgetExhausted):  # no verdict from an unfinished search
        has_fpp(d, budget=2)


def test_check_remark_instances():
    s = sierpinski()
    d2 = discrete_space(2)
    point = make_space(1, [])
    r = check_remark(s, d2, constant_map(s, d2, 0))
    assert r.status == VERIFIED
    assert r.quantities["sec_relative_pi21"] == ExtNat(1)
    r = check_remark(s, s, identity_map(s))
    assert r.status == VERIFIED
    assert r.quantities["sec_relative_pi21"] == INF
    r = check_remark(s, point, constant_map(s, point, 0))
    assert r.status == VERIFIED
    g_empty = CMap(empty_space(), s, [])
    r = check_remark(empty_space(), s, g_empty)
    assert r.status == VERIFIED
    assert r.quantities["sec_relative_pi21"] == ExtNat(1)


def test_check_remark_never_violated_on_census():
    for X in census_up_to(2, include_empty=True):
        for Y in census_up_to(2):
            from secnum.finspace import enumerate_maps

            for g in enumerate_maps(X, Y):
                assert check_remark(X, Y, g).status == VERIFIED


def test_check_key_lemma():
    s = sierpinski()
    d2 = discrete_space(2)
    point = make_space(1, [])
    r = check_key_lemma(s, d2, constant_map(s, d2, 0), 2)
    assert r.status == VERIFIED and r.quantities["sec_relative_pik1"] == ExtNat(1)
    r = check_key_lemma(s, s, identity_map(s), 2)
    assert r.status == HYPOTHESIS_NOT_MET
    assert r.quantities["sec_relative_pik1"] == INF
    r = check_key_lemma(s, point, constant_map(s, point, 0), 2)
    assert r.status == HYPOTHESIS_NOT_MET
    d3 = discrete_space(3)
    r = check_key_lemma(s, d3, constant_map(s, d3, 0), 3)
    assert r.status == VERIFIED
    with pytest.raises(ValueError):
        check_key_lemma(s, d2, constant_map(s, d2, 0), 1)


def test_check_main_theorem():
    s = sierpinski()
    d2 = discrete_space(2)
    point = make_space(1, [])
    r = check_main_theorem(s, d2, constant_map(s, d2, 0))
    assert r.status == VERIFIED
    r = check_main_theorem(s, s, identity_map(s))
    assert r.status == HYPOTHESIS_NOT_MET
    assert r.conclusions[0]["biconditional_holds"] is False
    r = check_main_theorem(s, point, constant_map(s, point, 0))
    assert r.status == HYPOTHESIS_NOT_MET  # Hausdorff but only one point


def test_check_cp_implies_fpp():
    s = sierpinski()
    c = pseudocircle()
    point = make_space(1, [])
    r = check_cp_implies_fpp(s, s, identity_map(s))
    assert r.status == VERIFIED
    r = check_cp_implies_fpp(s, c, constant_map(s, c, 0))
    assert r.status == VERIFIED
    witness = r.conclusions[0]["contrapositive_witness"]
    g = constant_map(s, c, 0)
    free = has_fpp(c).witness
    assert witness == list(compose(free, g).assignment)
    r = check_cp_implies_fpp(s, point, constant_map(s, point, 0))
    assert r.status == VERIFIED


def test_reports_serialize_with_stable_claim_ids():
    s = sierpinski()
    d2 = discrete_space(2)
    g = constant_map(s, d2, 0)
    blobs = {
        "remark_sec1_iff_not_cp": check_remark(s, d2, g),
        "key_lemma_k": check_key_lemma(s, d2, g, 2),
        "main_theorem": check_main_theorem(s, d2, g),
        "cp_implies_fpp": check_cp_implies_fpp(s, d2, g),
    }
    for claim_id, report in blobs.items():
        data = report.to_json_dict()
        assert data["schema"] == "secnum.theorem-report/1"
        assert data["conclusions"][0]["claim"] == claim_id
        json.dumps(data, sort_keys=True)  # no unserialisable values


def test_inconclusive_on_tiny_budget():
    s = sierpinski()
    with pytest.raises(BudgetExhausted):
        check_remark(s, s, identity_map(s), budget=2)
