import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secnum.census import census_up_to
from secnum import coincidence
from secnum.coincidence import (
    HYPOTHESIS_NOT_MET,
    VERIFIED,
    check_cp_implies_fpp,
    check_key_lemma,
    check_main_theorem,
    check_remark,
    has_cp,
    has_fpp,
)
from secnum.extnat import INF, ExtNat
from secnum.resources import BudgetExhausted, SelfCheckFailed
from secnum.finspace import (
    CMap,
    compose,
    constant_map,
    discrete_space,
    empty_space,
    enumerate_maps,
    identity_map,
    make_space,
    pseudocircle,
    sierpinski,
)

from oracles import brute_coincidence_free, brute_has_fixed_point_free_map, preorders


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


def _assert_cp_matches_oracle(X, Y, g):
    verdict = has_cp(X, Y, g)
    assert verdict.holds == (not brute_coincidence_free(X, Y, g))
    if verdict.witness is not None:
        assert all(verdict.witness(x) != g(x) for x in range(X.n))


def test_cp_against_brute_force_on_census_triples():
    spaces = census_up_to(3, include_empty=True)
    for X in spaces:
        for Y in spaces:
            for g in enumerate_maps(X, Y):
                _assert_cp_matches_oracle(X, Y, g)


@st.composite
def triples(draw):
    """(X, Y, g) on random preorders of 1..4 points and a random map g."""
    X, Y = draw(preorders(4)), draw(preorders(4))
    return X, Y, draw(st.sampled_from(list(enumerate_maps(X, Y))))


@settings(max_examples=200)
@given(triples())
def test_cp_against_brute_force_on_random_triples(triple):
    _assert_cp_matches_oracle(*triple)


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


def test_a_discontinuous_witness_fails_the_self_check(monkeypatch):
    # the swap of the Sierpinski space avoids the identity but is not continuous
    monkeypatch.setattr(coincidence, "first_lift", lambda *args: (1, 0))
    s = sierpinski()
    with pytest.raises(SelfCheckFailed, match="not a continuous map"):
        has_cp(s, s, identity_map(s))


def test_budget_truncation_is_inconclusive():
    d = discrete_space(3)
    with pytest.raises(BudgetExhausted):  # no verdict from an unfinished search
        has_fpp(d, budget=2)


@pytest.mark.parametrize("n", [1500, 2048, 4096])
def test_fpp_search_deeper_than_the_recursion_limit(n):
    """The map search keeps its own stack, so a search over more points than
    the interpreter's recursion limit answers: a discrete space of at least
    two points has a fixed-point-free self-map (re-validated by has_cp)."""
    assert not has_fpp(discrete_space(n)).holds


def test_cp_search_deeper_than_the_recursion_limit():
    """A 1,500-point chain has no CP for a constant g: another constant
    avoids it, and the search decides all 1,500 points to find one."""
    chain = make_space(1500, [(x, x + 1) for x in range(1499)])
    verdict = has_cp(chain, chain, constant_map(chain, chain, 0))
    assert not verdict.holds and 0 not in verdict.witness.assignment


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
    assert r.detail["biconditional_holds"] is False
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
    witness = r.detail["contrapositive_witness"]
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


@pytest.mark.parametrize("check", [check_remark, check_main_theorem, check_cp_implies_fpp,
                                   lambda X, Y, g: check_key_lemma(X, Y, g, 2)])
def test_checkers_refuse_a_map_that_does_not_go_from_x_to_y(check):
    """Each checker names its X and Y and checks g against them before any
    search, with a wrong X and with a wrong Y."""
    s, d2, d3 = sierpinski(), discrete_space(2), discrete_space(3)
    g = constant_map(d2, d3, 0)
    for X, Y in ((s, d3), (d2, s)):
        with pytest.raises(ValueError, match="g must be a map from X to Y"):
            check(X, Y, g)


def test_inconclusive_on_tiny_budget():
    s = sierpinski()
    with pytest.raises(BudgetExhausted):
        check_remark(s, s, identity_map(s), budget=2)


def test_report_instance_text_is_formatted_on_first_read():
    """Each checker stores its instance and formats the text, unchanged, only
    when something reads it."""
    s, d = sierpinski(), discrete_space(3)
    g = constant_map(s, d, 1)
    text = "X(n=2, reach=[1, 3]) Y(n=3, reach=[1, 2, 4]) g=[1, 1]"
    reports = [check(s, d, g) for check in
               (check_remark, check_main_theorem, check_cp_implies_fpp)]
    reports.append(check_key_lemma(s, d, g, k=3))
    for report in reports:
        assert "instance" not in vars(report)
    assert [report.to_json_dict()["instance"] for report in reports] == [text] * 3 + [text + " k=3"]
