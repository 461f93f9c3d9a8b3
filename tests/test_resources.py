"""Budget replay and the run-scoped memo of finished searches."""

import ast
from pathlib import Path

import pytest

from secnum import coincidence, homotopy, resources, sectional
from secnum.census import census_up_to
from secnum.finspace import enumerate_maps, identity_map, pseudocircle
from secnum.resources import Budget, BudgetExhausted, shared_searches

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "secnum"

# the seven entry points that look themselves up, each as a call on one map;
# the relative ones take p = f along the identity of its target
ENTRY_POINTS = {
    "sec": lambda f, budget: sectional.sec(f, budget),
    "secat": lambda f, budget: sectional.secat(f, budget),
    "cat": lambda f, budget: homotopy.cat(f.source, budget),
    "has_cp": lambda f, budget: coincidence.has_cp(f.source, f.target, f, budget),
    "relative_sec": lambda f, budget: sectional.relative_sec(
        f, identity_map(f.target), budget=budget),
    "relative_secat": lambda f, budget: sectional.relative_secat(
        f, identity_map(f.target), budget),
    "relative_sec_pi": lambda f, budget: coincidence._relative_sec_of_projection(f, 2, budget),
}
# the replay cases: every entry point, and relsec(pi_{k,1}) at k = 3 as well
REPLAYS = dict(ENTRY_POINTS, relative_sec_pi_k3=lambda f, budget:
               coincidence._relative_sec_of_projection(f, 3, budget))


def shared_search_names(source: str) -> set[str]:
    """The entry-point names, key[0], of every shared_search((...), ...) call
    in source; a key that is not a tuple display starting with a literal
    name makes the scan raise."""
    return {node.args[0].elts[0].value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "shared_search"}


def _census_maps():
    spaces = census_up_to(3)
    return [f for X in spaces for Y in spaces for f in enumerate_maps(X, Y)]


def _nodes(call, f) -> int:
    budget = Budget()
    call(f, budget)
    return budget.limit - budget.remaining


@pytest.mark.parametrize("name", REPLAYS)
def test_a_hit_replays_the_nodes_of_a_fresh_search(name):
    """With N the nodes of a fresh search, a hit on Budget(N) ends at 0 and a
    hit on Budget(N - 1) runs out, as the fresh search does.  A search may
    charge no node (has_cp into one point fails at once); its hit on
    Budget(1) charges none."""
    call = REPLAYS[name]
    for f in _census_maps():
        n = _nodes(call, f)
        if n > 1:
            with pytest.raises(BudgetExhausted):
                call(f, Budget(n - 1))
        with shared_searches():
            warm = call(f, Budget())
            exact = Budget(max(n, 1))
            assert call(f, exact) is warm
            assert exact.remaining == exact.limit - n
            if n > 1:
                short = Budget(n - 1)
                with pytest.raises(BudgetExhausted):
                    call(f, short)
                assert short.remaining == -1


def test_a_remark_hit_replays_the_nodes_of_a_fresh_main_theorem_check():
    """check_remark fills relsec(pi_{2,1}, g) through F(Y, 2) and
    check_main_theorem reads it back on the bridge route: the replay charges
    what a fresh bridge search does."""
    for f in _census_maps():
        fresh = Budget()
        coincidence.check_main_theorem(f.source, f.target, f, fresh)
        with shared_searches() as tally:
            coincidence.check_remark(f.source, f.target, f, Budget())
            replayed = Budget()
            coincidence.check_main_theorem(f.source, f.target, f, replayed)
        assert tally["relative_sec_pi", "hits"] == 1
        assert replayed.remaining == fresh.remaining


def test_replay_charges_at_once():
    budget = Budget(5)
    budget.replay(0)
    budget.replay(3)
    assert budget.remaining == 2
    budget.replay(2)
    assert budget.remaining == 0
    with pytest.raises(BudgetExhausted, match="node budget of 5 exhausted"):
        budget.replay(1)
    assert budget.remaining == -1


@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_is_not_a_budget(flag):
    with pytest.raises(TypeError, match="not a bool"):
        Budget(flag)
    with pytest.raises(TypeError, match="not a bool"):
        Budget.ensure(flag)
    f = identity_map(pseudocircle())
    with pytest.raises(TypeError, match="not a bool"):
        coincidence.has_cp(f.source, f.target, f, flag)


@pytest.mark.parametrize("wrong, kind", [(2.5, "float"), (10.0, "float"), ("10", "str"),
                                         ([10], "list")])
def test_only_an_int_or_a_budget_is_a_budget(wrong, kind):
    """Anything but None, an int or a Budget raises TypeError at the call,
    not an AttributeError from deep in a search."""
    with pytest.raises(TypeError, match=f"not a {kind}"):
        Budget(wrong)
    with pytest.raises(TypeError, match=f"not a {kind}"):
        Budget.ensure(wrong)
    f = identity_map(pseudocircle())
    with pytest.raises(TypeError, match=f"not a {kind}"):
        coincidence.has_cp(f.source, f.target, f, wrong)
    with pytest.raises(TypeError, match=f"not a {kind}"):
        sectional.relative_secat(f, f, wrong)


def test_ensure_passes_a_budget_through_and_builds_the_rest():
    budget = Budget(7)
    assert Budget.ensure(budget) is budget
    assert Budget.ensure(7).limit == 7
    assert Budget.ensure(None).limit == resources.default_node_budget()
    with pytest.raises(ValueError, match="positive"):
        Budget.ensure(0)


def test_a_search_that_runs_out_is_not_kept():
    f = next(f for f in _census_maps() if _nodes(ENTRY_POINTS["secat"], f) > 1)
    with shared_searches() as tally:
        with pytest.raises(BudgetExhausted):
            sectional.secat(f, Budget(1))
        budget = Budget()
        sectional.secat(f, budget)
    assert tally == {("secat", "misses"): 2}
    assert budget.limit - budget.remaining == _nodes(ENTRY_POINTS["secat"], f)


def test_calls_outside_a_block_each_search(monkeypatch):
    passes = []
    original = sectional.first_lift

    def counted(*args, **kwargs):
        passes.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sectional, "first_lift", counted)
    f = _census_maps()[-1]
    assert resources._shared is None
    first = _nodes(ENTRY_POINTS["sec"], f)
    searched = len(passes)
    assert searched > 0
    assert _nodes(ENTRY_POINTS["sec"], f) == first
    assert len(passes) == 2 * searched


def test_blocks_nest_and_restore():
    f = _census_maps()[-1]
    with shared_searches() as outer:
        sectional.sec(f)
        with shared_searches() as inner:
            sectional.sec(f)
        assert resources._shared[1] is outer
        sectional.sec(f)
    assert resources._shared is None
    assert inner == {("sec", "misses"): 1}
    assert outer == {("sec", "misses"): 1, ("sec", "hits"): 1}


def test_the_scan_finds_every_shared_search_key():
    source = ("def f(g, budget):\n"
              "    return shared_search(('one', g), budget, lambda: 1)\n"
              "x = shared_search(('two', g, 3), budget, search)\n"
              "y = other(('three', g), budget)\n")
    assert shared_search_names(source) == {"one", "two"}
    with pytest.raises(AttributeError):
        shared_search_names("shared_search(key, budget, search)\n")


def test_every_shared_search_has_a_replay_test():
    """A memoised entry point in the package is one of ENTRY_POINTS, so the
    replay test above runs on it."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        names |= shared_search_names(path.read_text())
    assert names == set(ENTRY_POINTS)
