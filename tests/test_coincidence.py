import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secnum.census import InstanceGenerator, census_up_to
from secnum import coincidence, sectional
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
from secnum.resources import Budget, BudgetExhausted, LimitExceeded, SelfCheckFailed
from secnum.sectional import _relative_sec_lift
from secnum.finspace import (
    CMap,
    _bits,
    compose,
    configuration_space,
    constant_map,
    discrete_space,
    empty_space,
    enumerate_maps,
    first_lift,
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


# ---------------------------------------------------------------------------
# the bridge lemma: relsec(pi_{k,1}^Y, g) without F(Y, k)


def _assert_bridge_matches_the_configuration_route(g, k):
    """The bridge route and the lift through pi_{k,1} on F(Y, k) agree on
    the value, the uncovered point, the chosen masks and the nodes charged,
    and each chosen lift t is the configuration lift without its first
    coordinate g(u)."""
    conf_budget, value_budget = Budget(), Budget()
    expected = _relative_sec_lift(configuration_space(g.target, k)[1], g, conf_budget)
    assert coincidence._relative_sec_of_projection(g, k, value_budget) == expected.value
    assert value_budget.remaining == conf_budget.remaining
    if g.source.n == 0:
        return
    bridge_budget = Budget()
    chosen, uncovered = coincidence._bridge_cover(g, k, bridge_budget)
    assert bridge_budget.remaining == conf_budget.remaining
    assert uncovered == expected.uncovered_point
    if k == 2:
        # the whole of X taken from a finished has_cp: same cover, same nodes
        cp_budget, shared_budget = Budget(), Budget()
        verdict = has_cp(g.source, g.target, g, cp_budget)
        cp = (verdict, cp_budget.limit - cp_budget.remaining)
        assert coincidence._bridge_cover(g, 2, shared_budget, cp) == (chosen, uncovered)
        assert shared_budget.remaining == conf_budget.remaining
    if chosen is None:
        assert expected.certificate is None
        return
    n = g.target.n
    configurations = list(itertools.permutations(range(n), k))
    tuples = list(itertools.permutations(range(n), k - 1))
    assert [mask for mask, _ in chosen] == [mask for mask, _ in expected.certificate.cover]
    for (mask, lift), (_, conf_lift) in zip(chosen, expected.certificate.cover):
        assert [configurations[c] for c in conf_lift] == [
            (g(u),) + tuples[t] for u, t in zip(_bits(mask), lift)]


@pytest.mark.parametrize("k", [2, 3])
def test_bridge_route_matches_the_configuration_route_on_census_triples(k):
    spaces = census_up_to(3, include_empty=True)
    for X in spaces:
        for Y in spaces:
            for g in enumerate_maps(X, Y):
                _assert_bridge_matches_the_configuration_route(g, k)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bridge_route_matches_the_configuration_route_into_discrete_targets(n):
    """Every k from 2 to |Y| + 1: the last tuples of F(Y, k - 1) hold every
    point when k = |Y|, and no lift exists at all past it."""
    Y = discrete_space(n)
    for X in census_up_to(3 if n < 5 else 2, include_empty=True):
        for g in enumerate_maps(X, Y):
            for k in range(2, n + 2):
                _assert_bridge_matches_the_configuration_route(g, k)


def _random_poset(rng, n):
    return make_space(n, [(a, b) for a in range(n) for b in range(a) if rng.random() < 0.3])


@pytest.mark.parametrize("seed", range(40))
def test_bridge_route_matches_the_configuration_route_on_random_posets(seed):
    rng = random.Random(f"bridge:{seed}")
    X, Y = _random_poset(rng, rng.randint(4, 8)), _random_poset(rng, rng.randint(2, 5))
    g = InstanceGenerator(f"bridge:{seed}").cmap(X, Y)
    for k in range(2, min(Y.n, 4) + 2):
        _assert_bridge_matches_the_configuration_route(g, k)


def test_bridge_route_builds_nothing_past_the_target():
    """For k > |Y| no F(Y, k - 1) is built: with k - 1 = |Y| = 7 it would
    have 5,040 points, past the construction cap."""
    Y = discrete_space(7)
    configuration_space.cache_clear()
    budget = Budget()
    assert coincidence._relative_sec_of_projection(identity_map(Y), 8, budget) == INF
    assert configuration_space.cache_info().misses == 0
    with pytest.raises(LimitExceeded):
        configuration_space(Y, 7)


def test_cp_searches_evict_no_bridge_target():
    """has_cp builds its avoid masks uncached, so CP searches on more targets
    than _bridge_target holds leave its key-lemma k = 3 entry in place."""
    Y = discrete_space(3)
    check_key_lemma(Y, Y, identity_map(Y), 3)  # puts _bridge_target(Y, 3) in the cache
    before = coincidence._bridge_target.cache_info()
    point = make_space(1, [])
    for n in range(1, before.maxsize + 10):
        target = discrete_space(n)
        has_cp(point, target, constant_map(point, target, 0))
    assert coincidence._bridge_target.cache_info() == before
    coincidence._bridge_target(Y, 3)
    assert coincidence._bridge_target.cache_info().misses == before.misses


# ---------------------------------------------------------------------------
# one CP search per pi_{2,1} check


def _whole_space_searches(monkeypatch, check, g) -> int:
    """The first_lift searches over the whole source that check(X, Y, g)
    makes outside a run, into Y or into F(Y, 2)."""
    calls = []

    def spy(source, target, fibers, images, budget, mask=None):
        calls.append(mask is None or mask == source.full_mask)
        return first_lift(source, target, fibers, images, budget, mask)

    for module in (coincidence, sectional):
        monkeypatch.setattr(module, "first_lift", spy)
    check(g.source, g.target, g, Budget())
    monkeypatch.undo()
    return sum(calls)


def _nodes_of(call) -> int:
    budget = Budget()
    call(budget)
    return budget.limit - budget.remaining


def _assert_main_theorem_searches_cp_once(monkeypatch, g):
    """check_main_theorem makes one whole-X CP search, charges it once for
    CP and once for the cover's test of X, and reads relsec as the lift
    through F(Y, 2) does."""
    X, Y = g.source, g.target
    assert _whole_space_searches(monkeypatch, check_main_theorem, g) == 1
    conf_budget = Budget()
    conf = _relative_sec_lift(configuration_space(Y, 2)[1], g, conf_budget)
    nodes = (_nodes_of(lambda budget: has_cp(X, Y, g, budget))
             + conf_budget.limit - conf_budget.remaining)
    report = check_main_theorem(X, Y, g, Budget(nodes))
    assert report.quantities["sec_relative_pi21"] == conf.value
    assert report.quantities["cp_holds"] == has_cp(X, Y, g).holds
    assert _nodes_of(lambda budget: check_main_theorem(X, Y, g, budget)) == nodes
    if nodes > 1:
        with pytest.raises(BudgetExhausted):
            check_main_theorem(X, Y, g, Budget(nodes - 1))


def test_main_theorem_searches_cp_once_on_census_triples(monkeypatch):
    spaces = census_up_to(3, include_empty=True)
    for X in spaces:
        for Y in spaces:
            for g in enumerate_maps(X, Y):
                _assert_main_theorem_searches_cp_once(monkeypatch, g)


@pytest.mark.parametrize("seed", range(40))
def test_main_theorem_searches_cp_once_on_random_posets(monkeypatch, seed):
    rng = random.Random(f"bridge:{seed}")
    X, Y = _random_poset(rng, rng.randint(4, 8)), _random_poset(rng, rng.randint(2, 5))
    _assert_main_theorem_searches_cp_once(monkeypatch, InstanceGenerator(f"bridge:{seed}").cmap(X, Y))


def _edge_cases():
    s, d3, point = sierpinski(), discrete_space(3), make_space(1, [])
    glued = make_space(3, [(1, 0)])  # the Sierpinski space beside a point
    return {
        "empty-source": CMap(empty_space(), s, []),
        "glue-cp-fails": constant_map(glued, d3, 0),
        "glue-cp-holds": CMap(glued, s, [0, 1, 0]),
        "one-point-target": constant_map(pseudocircle(), point, 0),
        "discrete-target": CMap(s, d3, [1, 1]),
        "discrete-identity": identity_map(d3),
        "sierpinski-identity": identity_map(s),
    }


@pytest.mark.parametrize("case", sorted(_edge_cases()))
def test_main_theorem_searches_cp_once_on_edge_cases(monkeypatch, case):
    _assert_main_theorem_searches_cp_once(monkeypatch, _edge_cases()[case])


def test_the_remark_keeps_its_own_lift_of_the_whole_space(monkeypatch):
    """check_remark lifts through F(Y, 2), so its CP search is not its test
    of X: it searches a nonempty X twice, once into F(Y, 2)."""
    for g in _edge_cases().values():
        assert _whole_space_searches(monkeypatch, check_remark, g) == (2 if g.source.n else 1)
