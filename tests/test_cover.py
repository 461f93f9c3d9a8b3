"""The cover search over the maximal points and the covering invariants
built on it, against the brute-force oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secnum.census import census_up_to
from secnum.cover import min_good_cover
from secnum.extnat import ExtNat
from secnum.finspace import (
    CMap,
    _bits,
    configuration_space,
    connected_components,
    discrete_space,
    empty_space,
    identity_map,
    make_space,
    pseudocircle,
    subspace_of_mask,
)
from secnum.homotopy import _contraction_test, cat
from secnum.resources import Budget, BudgetExhausted
from secnum.sectional import _homotopy_section_test, _lift_test, relative_sec, sec, secat

from oracles import (
    brute_cat,
    brute_open_masks,
    brute_relative_sec_lift,
    brute_sec,
    continuous_maps,
    disjoint_union,
    disjoint_union_map,
    outcome_and_nodes,
    posets,
    preorder_families,
    preorders,
    relabel,
    subspace_homotopy_section_witness,
    whole_space_min_good_cover,
)


def _inside_one_of(opens):
    """Shrink-closed is_good: the witness is the index of the first of the
    opens that contains the mask."""

    def is_good(mask):
        return next((i for i, big in enumerate(opens) if mask & ~big == 0), None)

    return is_good


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


# ---------------------------------------------------------------------------
# disjoint unions: the pipeline covers each connected component on its own


@st.composite
def unions(draw, max_total=5):
    """Disjoint unions of 2 or 3 preorders of at most 4 points, with at most
    max_total points in all, and their points shuffled so that components
    interleave; a part of 4 points can be a circle, whose cat and some of
    whose sectional numbers are 2."""
    space = disjoint_union(*draw(preorder_families(max_total, 4)))
    return relabel(space, draw(st.permutations(range(space.n))))


def small_spaces_or_unions():
    return st.one_of(preorders(3), unions())


def _assert_split_matches_whole_space(space, is_good, glue=True):
    """Same value and same uncovered point as whole_space_min_good_cover, a
    set cover of the maximal good opens of the whole space, a cover of the
    space by good opens, and no open handed to is_good twice."""
    asked = []

    def recorded(mask):
        asked.append(mask)
        return is_good(mask)

    split, split_point = min_good_cover(space, recorded, Budget(), glue=glue)
    assert len(asked) == len(set(asked))
    whole, whole_point = whole_space_min_good_cover(space, is_good, Budget())
    assert split_point == whole_point
    assert (split is None) == (whole is None)
    if split is not None:
        assert len(split) == len(whole)
        union = 0
        for mask, _ in split:
            assert space.is_open_mask(mask) and is_good(mask) is not None
            union |= mask
        assert union == space.full_mask


def minimal_open_cover(target):
    """The map onto target from the disjoint union of the minimal opens U_y
    of its maximal points y: every open inside one U_y has a strict section,
    the whole target often has none, so sec and secat often exceed 1."""
    rows, co = target.reach_rows, target.co_rows
    pieces = [subspace_of_mask(target, rows[y]) for y in range(target.n) if co[y] & ~rows[y] == 0]
    return CMap(disjoint_union(*(sub for sub, _ in pieces)), target,
                [x for _, incl in pieces for x in incl.assignment])


@st.composite
def maps_onto(draw, target):
    """A continuous map into target: from a small preorder or disjoint union,
    or the minimal-open cover of target."""
    return draw(st.one_of(
        st.just(minimal_open_cover(target)),
        small_spaces_or_unions().flatmap(lambda source: continuous_maps(source, target)),
    ))


def maps_into_unions():
    """f: A -> Y with Y a disjoint union of 2 or 3 small preorders."""
    return unions().flatmap(maps_onto)


@settings(max_examples=100)
@given(maps_into_unions())
def test_sec_and_secat_on_disjoint_unions_match_the_oracle(f):
    Y = f.target
    tests = (
        (sec, "section", _lift_test(f, identity_map(Y), Budget())),
        (secat, "homotopy", _homotopy_section_test(f, Budget())),
    )
    for invariant, mode, is_good in tests:
        result = invariant(f)
        assert result.value == brute_sec(f, mode)
        if result.certificate is not None:
            assert result.certificate.verify()
        _assert_split_matches_whole_space(Y, is_good)
    _assert_one_section_test_serves_every_open(f)


def _assert_one_section_test_serves_every_open(f):
    """One secat good-open test, reused over every open of the target in
    turn, gives each open the witness and node count of a fresh search on
    its subspace."""
    budget = Budget()
    is_good = _homotopy_section_test(f, budget)
    for mask in brute_open_masks(f.target):
        before = budget.remaining
        witness = is_good(mask)
        assert (witness, before - budget.remaining) == outcome_and_nodes(
            subspace_homotopy_section_witness, f, mask)


@st.composite
def lift_problems_over_unions(draw):
    """(p, g) with p: E -> B and g: X -> B, X a disjoint union of small
    preorders and B a small preorder or such a union."""
    B, X = draw(small_spaces_or_unions()), draw(unions())
    return draw(maps_onto(B)), draw(continuous_maps(X, B))


@settings(max_examples=100)
@given(lift_problems_over_unions())
def test_relative_sec_on_disjoint_unions_matches_the_oracle(problem):
    p, g = problem
    expected = brute_relative_sec_lift(p, g)
    for route in ("lift", "pullback"):
        result = relative_sec(p, g, route=route)
        assert result.value == expected
        if result.certificate is not None:
            assert result.certificate.verify()
    _assert_split_matches_whole_space(g.source, _lift_test(p, g, Budget()))


@settings(max_examples=100)
@given(unions())
def test_cat_on_disjoint_unions_matches_the_oracle(space):
    result = cat(space)
    assert result.value == brute_cat(space)
    assert result.certificate.verify()
    _assert_split_matches_whole_space(space, _contraction_test(space, Budget()), glue=False)


@settings(max_examples=100)
@given(preorder_families(12, 4))
def test_cat_adds_over_components(parts):
    result = cat(disjoint_union(*parts))
    assert result.certificate.verify()
    assert result.value == ExtNat(sum(cat(part).value.n for part in parts))


@st.composite
def map_families(draw):
    """Two or three maps into spaces of the census of at most 4 points."""
    count = draw(st.integers(2, 3))
    return [draw(maps_onto(draw(st.sampled_from(census_up_to(4))))) for _ in range(count)]


@settings(max_examples=100)
@given(map_families())
def test_sec_and_secat_of_a_disjoint_union_of_maps_take_the_maximum(maps):
    union = disjoint_union_map(*maps)
    for invariant in (sec, secat):
        result = invariant(union)
        assert result.value == max(invariant(f).value for f in maps)
        if result.certificate is not None:
            assert result.certificate.verify()


def test_glued_cover_elements_on_interleaved_components():
    """Two copies of V (a point below two others) with their points
    interleaved.  sec of the minimal-open cover is 2, each cover element is
    glued from one open of each copy, and its witness lists the values in
    ascending point order across both copies."""
    V = make_space(3, [(1, 0), (2, 0)])
    Y = relabel(disjoint_union(V, V), [0, 3, 1, 4, 2, 5])
    result = sec(minimal_open_cover(Y))
    assert result.value == ExtNat(2)
    assert all(mask & 0b010101 and mask & 0b101010 for mask, _ in result.certificate.cover)
    assert result.certificate.verify()


def test_cat_of_three_and_four_pseudocircles_within_a_small_budget():
    """Each circle is a component of its own, so the search never visits
    the products of the circles' opens."""
    C = pseudocircle()
    for copies in (3, 4):
        result = cat(disjoint_union(*[C] * copies), Budget(10**4))
        assert result.value == ExtNat(2 * copies)
        assert result.certificate.verify()


def test_secat_of_the_discrete_cover_of_three_pseudocircles():
    """The identity assignment from 12 discrete points onto three disjoint
    pseudocircles: secat is cat of one circle, 2, within 10**3 nodes."""
    Y = disjoint_union(*[pseudocircle()] * 3)
    result = secat(CMap(discrete_space(12), Y, range(12)), Budget(10**3))
    assert result.value == ExtNat(2)
    assert result.certificate.verify()


# ---------------------------------------------------------------------------
# the cover search over the maximal points against the whole-space oracle


def _on_every_component(space, accepts):
    """A test that is no invariant's: an open is good when accepts holds on
    its nonempty trace on every connected component, so witnesses glue; the
    witness lists the open's points.  Shrink-closed when accepts is."""
    parts = connected_components(space)

    def is_good(mask):
        if all(accepts(mask & part) for part in parts if mask & part):
            return tuple(_bits(mask))
        return None

    return is_good


def _good_open_tests(space):
    """(is_good, glue) for the good-open test of every mode on space: sec and
    secat of its minimal-open cover and of a point of it, relsec(pi_{2,1}, id)
    in lift mode, and cat; then synthetic tests, at most t points and at most
    t maximal points on each component."""
    rows, co = space.reach_rows, space.co_rows
    tops = sum(1 << x for x in range(space.n) if co[x] & ~rows[x] == 0)
    point = CMap(discrete_space(1), space, [space.n - 1])
    tests = [(_lift_test(pi, identity_map(space), Budget()), True)
             for pi in (minimal_open_cover(space), point, configuration_space(space, 2)[1])]
    tests += [(_homotopy_section_test(f, Budget()), True) for f in (minimal_open_cover(space), point)]
    tests.append((_contraction_test(space, Budget()), False))
    for t in range(1, space.n + 1):
        tests.append((_on_every_component(space, lambda trace, t=t: trace.bit_count() <= t), True))
        tests.append((_on_every_component(
            space, lambda trace, t=t: (trace & tops).bit_count() <= t), True))
    return tests


def test_cover_search_matches_the_oracle_on_the_census():
    """Every preorder of at most 4 points, T0 or not, under every test."""
    for space in census_up_to(4):
        for is_good, glue in _good_open_tests(space):
            _assert_split_matches_whole_space(space, is_good, glue)


@settings(max_examples=200, deadline=None)
@given(st.one_of(preorders(8), posets(8)), st.data())
def test_cover_search_matches_the_oracle_on_preorders(space, data):
    """Preorders of at most 8 points, T0 and not, under every test and under
    a test that accepts the opens inside one of up to three opens."""
    opens = data.draw(st.lists(st.sampled_from(brute_open_masks(space)), max_size=3))
    inside = _inside_one_of(opens)
    tests = _good_open_tests(space) + [
        (_on_every_component(space, lambda trace: inside(trace) is not None), True)]
    for is_good, glue in tests:
        _assert_split_matches_whole_space(space, is_good, glue)


def _fan(tops):
    """Two bottom points 0 and 1 below each of tops maximal points."""
    return make_space(2 + tops, [(m, b) for m in range(2, 2 + tops) for b in (0, 1)])


def _holds_at_most_two_tops(mask):
    return 0 if (mask >> 2).bit_count() <= 2 else None


def test_cover_search_on_a_fan_of_fourteen_tops():
    """Pairs of tops are good and triples bad, so the value is 7; the search
    proves that 6 classes are too few within 10**5 nodes (the colouring of
    the maximal points that replaced a scan and set cover of the maximal good
    opens, BENCH_31.json)."""
    cover, uncovered = min_good_cover(_fan(14), _holds_at_most_two_tops, Budget(10**5))
    assert uncovered is None and len(cover) == 7
    assert all(_holds_at_most_two_tops(mask) is not None for mask, _ in cover)


def test_cover_search_on_a_fan_of_eighteen_tops_runs_out_of_nodes():
    """An inconclusive search raises; it never returns its best cover so far."""
    with pytest.raises(BudgetExhausted):
        min_good_cover(_fan(18), _holds_at_most_two_tops, Budget(10_000))


def test_cover_search_deeper_than_the_recursion_limit_runs_out_of_nodes():
    """Classes of at most 500 of 1,100 tops: the branches go one level deeper
    per top, past the interpreter's recursion limit (1,000 by default), and
    the inconclusive search raises BudgetExhausted, not RecursionError."""
    with pytest.raises(BudgetExhausted):
        min_good_cover(_fan(1100), lambda mask: 0 if (mask >> 2).bit_count() <= 500 else None,
                       Budget(10**5))


def test_min_good_cover_of_the_empty_space():
    assert min_good_cover(empty_space(), lambda mask: (), Budget()) == ([], None)
    assert min_good_cover(empty_space(), lambda mask: 0, Budget(), glue=False) == ([], None)
