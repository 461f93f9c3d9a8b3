"""The maximal-good-opens scan and the covering invariants built on it,
against the brute-force oracles."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secnum.cover import find_maximal_good_opens
from secnum.finspace import discrete_space, make_space, pseudocircle
from secnum.homotopy import cat
from secnum.resources import Budget, BudgetExhausted
from secnum.sectional import relative_sec, sec, secat

from oracles import (
    brute_cat,
    brute_maximal_good_opens,
    brute_open_masks,
    brute_relative_sec_lift,
    brute_sec,
    continuous_maps,
    preorders,
)


def _inside_one_of(opens, seen):
    """Shrink-closed is_good: the witness is the index of the first of the
    opens that contains the mask; every mask asked about goes into seen."""

    def is_good(mask):
        seen.add(mask)
        return next((i for i, big in enumerate(opens) if mask & ~big == 0), None)

    return is_good


def _assert_scan_matches_oracle(space, opens):
    seen, seen_brute = set(), set()
    got = find_maximal_good_opens(space, _inside_one_of(opens, seen), Budget())
    assert got == brute_maximal_good_opens(space, _inside_one_of(opens, seen_brute))
    assert seen == seen_brute


@st.composite
def spaces_with_opens(draw):
    """A preorder of at most 8 points, T0 or not, and up to three of its
    opens."""
    space = draw(preorders(8))
    opens = draw(st.lists(st.sampled_from(brute_open_masks(space)), max_size=3))
    return space, opens


@settings(max_examples=300)
@given(spaces_with_opens())
def test_scan_matches_the_list_sort_scan_oracle(instance):
    """Same (mask, witness) list in the same order, and is_good asked about
    the same masks."""
    _assert_scan_matches_oracle(*instance)


def test_scan_drops_whole_reach_classes_on_non_t0_spaces():
    """Points 0 and 1 reach each other and 2 stands apart.  The full open is
    bad, and no point of it can be dropped alone (0 and 1 each reach the
    other), so a scan that drops single points never reaches {2}; dropping
    the class {0, 1} does."""
    space = make_space(3, [(0, 1), (1, 0)])
    assert brute_open_masks(space) == [0b000, 0b011, 0b100, 0b111]
    seen = set()
    got = find_maximal_good_opens(space, _inside_one_of([0b100], seen), Budget())
    assert got == [(0b100, 0)]
    assert seen == {0b111, 0b100, 0b011}
    _assert_scan_matches_oracle(space, [0b100])


def test_scan_is_bounded_by_the_node_budget():
    """With no good open the scan goes down through every open of 40
    discrete points (2**40 of them); the budget stops it at once."""
    started = time.perf_counter()
    with pytest.raises(BudgetExhausted):
        find_maximal_good_opens(discrete_space(40), lambda mask: None, Budget(1000))
    assert time.perf_counter() - started < 1


@pytest.mark.parametrize("opens, asked, visited", [
    ([], {0b1111, 0b0111, 0b1011, 0b0011, 0b0001, 0b0010}, 6),
    # {0,1,3} is bad, and its child {0,1} lies inside the accepted {0,1,2}:
    # visited and charged, but not asked about
    ([0b0111], {0b1111, 0b0111, 0b1011}, 4),
])
def test_scan_charges_one_node_per_visited_open(opens, asked, visited):
    """On the pseudocircle (0 and 1 below both 2 and 3), the nodes charged
    are the opens the scan visits: those asked about plus those skipped."""
    budget, seen = Budget(), set()
    find_maximal_good_opens(pseudocircle(), _inside_one_of(opens, seen), budget)
    assert seen == asked
    assert budget.limit - budget.remaining == visited


@st.composite
def maps_between_preorders(draw):
    source, target = draw(preorders(4)), draw(preorders(4))
    return draw(continuous_maps(source, target))


@settings(max_examples=150)
@given(maps_between_preorders())
def test_sec_and_secat_match_the_oracle(f):
    for invariant, mode in ((sec, "section"), (secat, "homotopy")):
        result = invariant(f)
        assert result.value == brute_sec(f, mode)
        if result.certificate is not None:
            assert result.certificate.verify()


@st.composite
def lift_problems(draw):
    """(p, g) with p: E -> B and g: X -> B on preorders of at most 4 points."""
    E, B, X = draw(preorders(4)), draw(preorders(4)), draw(preorders(4))
    return draw(continuous_maps(E, B)), draw(continuous_maps(X, B))


@settings(max_examples=200)
@given(lift_problems())
def test_relative_sec_matches_the_oracle(problem):
    p, g = problem
    expected = brute_relative_sec_lift(p, g)
    for route in ("lift", "pullback"):
        result = relative_sec(p, g, route=route)
        assert result.value == expected
        if result.certificate is not None:
            assert result.certificate.verify()


@settings(max_examples=150)
@given(preorders(4))
def test_cat_matches_the_oracle(space):
    assert cat(space).value == brute_cat(space)
