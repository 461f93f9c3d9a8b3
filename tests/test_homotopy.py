import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secnum.census import census_spaces, census_up_to
from secnum.cover import MODE_CONTRACTION, CoverCertificate
from secnum.extnat import ExtNat
from secnum.finspace import (
    CMap,
    FinSpace,
    _bits,
    compose,
    constant_map,
    discrete_space,
    empty_space,
    enumerate_maps,
    identity_map,
    make_map,
    make_space,
    pseudocircle,
    product,
    sierpinski,
    subspace,
    subspace_of_mask,
)
from secnum.homotopy import (
    Fence,
    _contraction_test,
    _core_mask,
    cat,
    core,
    homotopic,
    homotopy_fence,
    identity_collapse_fence,
    is_contractible,
    nullhomotopy_target,
)
from secnum.resources import BudgetExhausted, SelfCheckFailed
from secnum.sectional import _homotopy_section_test

from oracles import (
    brute_cat,
    brute_homotopic,
    brute_nullhomotopic_inclusion,
    brute_open_masks,
    continuous_maps,
    outcome_and_nodes,
    posets,
    preorders,
    rescan_core_mask,
    subspace_contraction_point,
    subspace_core,
    subspace_homotopy_section_witness,
)


def test_core_cache_keys_on_structure():
    """A space is its reach rows, so the interned discrete space and a copy
    built from its rows share one cache entry."""
    core.cache_clear()
    first = core(discrete_space(3))
    assert core(FinSpace((1, 2, 4))) is first
    info = core.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_fence_validation():
    s = sierpinski()
    idS = identity_map(s)
    c1 = constant_map(s, s, 1)
    Fence((idS, c1))  # id is pointwise reach-below const1: reach(1, x) holds
    with pytest.raises(ValueError):
        Fence(())
    d = discrete_space(2)
    with pytest.raises(ValueError):
        Fence((constant_map(d, d, 0), constant_map(d, d, 1)))
    with pytest.raises(ValueError):
        Fence((idS, constant_map(d, d, 0)))


def test_homotopic_reflexive_zero_length_fence():
    s = sierpinski()
    f = constant_map(s, s, 0)
    assert homotopic(f, f)
    fence = homotopy_fence(f, f)
    assert fence.length == 0 and fence.steps == (f,)


def test_identity_homotopic_to_constant_on_sierpinski():
    s = sierpinski()
    idS = identity_map(s)
    c1 = constant_map(s, s, 1)
    assert homotopic(idS, c1)
    fence = homotopy_fence(idS, c1)
    assert fence.length == 1
    assert fence.steps[0] == idS and fence.steps[-1] == c1


def test_distinct_constants_on_discrete_not_homotopic():
    d = discrete_space(2)
    assert not homotopic(constant_map(d, d, 0), constant_map(d, d, 1))
    assert homotopy_fence(constant_map(d, d, 0), constant_map(d, d, 1)) is None


def test_homotopic_requires_common_hom_set():
    s = sierpinski()
    d = discrete_space(2)
    with pytest.raises(ValueError):
        homotopic(identity_map(s), identity_map(d))


def test_homotopic_agrees_with_direct_components():
    pairs = [(a, b) for a in census_spaces(2) for b in census_up_to(3)]
    for a, b in pairs:
        maps = list(enumerate_maps(a, b))
        for f, g in itertools.product(maps, repeat=2):
            assert homotopic(f, g) == brute_homotopic(f, g), (a, b, f, g)


def test_homotopic_is_equivalence_on_pseudocircle_self_maps():
    c = pseudocircle()
    maps = list(enumerate_maps(c, c))
    assert len(maps) == 36
    for f in maps:
        assert homotopic(f, f)
    for f, g in itertools.combinations(maps, 2):
        assert homotopic(f, g) == homotopic(g, f)
    # transitivity via the component partition
    labels = {}
    for f in maps:
        for g in maps:
            if homotopic(f, g) and g.assignment in labels:
                labels[f.assignment] = labels[g.assignment]
                break
        else:
            labels[f.assignment] = len(labels)
    for f in maps:
        for g in maps:
            assert homotopic(f, g) == (labels[f.assignment] == labels[g.assignment])


def test_fences_revalidate_everywhere():
    s = sierpinski()
    v = make_space(3, [(1, 0), (2, 0)])
    for source, target in [(s, s), (v, s), (s, v), (v, v)]:
        maps = list(enumerate_maps(source, target))
        for f, g in itertools.product(maps, repeat=2):
            fence = homotopy_fence(f, g)
            assert (fence is not None) == homotopic(f, g)
            if fence is None:
                continue
            assert fence.steps[0] == f and fence.steps[-1] == g
            Fence(tuple(fence.steps))
            for step in fence.steps:
                make_map(step.source, step.target, step.assignment)


def test_core_examples():
    assert core(sierpinski()).space.n == 1
    assert core(pseudocircle()).space.n == 4
    assert core(discrete_space(4)).space.n == 4
    chain = make_space(3, [(2, 1), (1, 0)])
    assert core(chain).space.n == 1
    indiscrete = make_space(3, [(i, j) for i in range(3) for j in range(3)])
    assert core(indiscrete).space.n == 1


def test_core_retraction_data():
    for space in census_up_to(4):
        data = core(space)
        assert compose(data.retraction, data.inclusion).is_identity()
        back = compose(data.inclusion, data.retraction)
        assert homotopic(back, identity_map(space))


def test_is_contractible():
    assert is_contractible(make_space(1, []))
    assert is_contractible(sierpinski())
    assert not is_contractible(pseudocircle())
    assert not is_contractible(discrete_space(2))
    assert not is_contractible(empty_space())


def test_contractibility_cross_check_census():
    for space in census_up_to(4):
        by_fence = nullhomotopy_target(identity_map(space)) is not None
        assert is_contractible(space) == by_fence


def test_nullhomotopic_inclusions():
    s = sierpinski()
    sub, incl = subspace(s, [0])
    assert nullhomotopy_target(incl) is not None
    assert nullhomotopy_target(CMap(empty_space(), s, [])) is not None
    c = pseudocircle()
    assert nullhomotopy_target(identity_map(c)) is None
    u2, incl2 = subspace_of_mask(c, 0b0111)  # minimal open of point 2
    assert nullhomotopy_target(incl2) is not None


def test_nullhomotopic_matches_oracle():
    for space in census_up_to(3):
        for mask in brute_open_masks(space):
            sub, incl = subspace_of_mask(space, mask)
            found = nullhomotopy_target(incl) is not None
            assert found == brute_nullhomotopic_inclusion(space, mask)


def test_nullhomotopy_target():
    s = sierpinski()
    assert nullhomotopy_target(identity_map(s)) in (0, 1)
    c = pseudocircle()
    assert nullhomotopy_target(identity_map(c)) is None
    assert nullhomotopy_target(constant_map(c, c, 2)) == 2


def test_cat_examples():
    assert cat(make_space(1, [])).value == ExtNat(1)
    assert cat(sierpinski()).value == ExtNat(1)
    result = cat(pseudocircle())
    assert result.value == ExtNat(2)
    covered = 0
    for element in result.cover:
        covered |= element.mask
    assert covered == pseudocircle().full_mask
    degenerate = cat(empty_space())
    assert degenerate.value == ExtNat(1) and degenerate.degenerate


def test_cat_against_brute_force():
    for space in census_up_to(3):
        assert cat(space).value == brute_cat(space), space
    assert cat(pseudocircle()).value == brute_cat(pseudocircle())


def test_cat_core_invariance_and_contractibility():
    for space in census_up_to(4):
        assert cat(space).value == cat(core(space).space).value
        if space.n:
            assert (cat(space).value == ExtNat(1)) == is_contractible(space)


def test_cat_disconnected():
    d = discrete_space(3)
    assert cat(d).value == ExtNat(3)


def test_budget_exhaustion_is_loud():
    c = pseudocircle()
    with pytest.raises(BudgetExhausted):
        homotopic(constant_map(c, c, 0), constant_map(c, c, 1), budget=3)


def _assert_core_routes_agree(space, mask):
    """_core_mask on a point mask gives the core points and the retraction of
    the subspace route, renamed to points of the space."""
    _, incl = subspace_of_mask(space, mask)
    _, retraction, inclusion, _ = subspace_core(incl.source)
    cmask, r, stages = _core_mask(space, mask)
    assert list(_bits(cmask)) == [incl(i) for i in inclusion.assignment]
    assert [r[p] for p in _bits(mask)] == [
        incl(inclusion(j)) for j in retraction.assignment
    ]
    assert len(stages) == incl.source.n - inclusion.source.n


def _assert_space_core_agrees(space):
    c, retraction, inclusion, fence = subspace_core(space)
    data = core(space)
    assert data.space == c
    assert data.retraction == retraction and data.inclusion == inclusion
    assert identity_collapse_fence(space) == fence


def _assert_good_open_routes_agree(space, mask, maps):
    """cat's and secat's good-open tests give the same witness and charge
    the same nodes on the mask route as on the subspace route."""
    assert outcome_and_nodes(_fresh_contraction_point, space, mask) == outcome_and_nodes(
        subspace_contraction_point, space, mask)
    for f in maps:
        assert outcome_and_nodes(_fresh_section_test, f, mask) == outcome_and_nodes(
            subspace_homotopy_section_witness, f, mask)


def _fresh_contraction_point(space, mask, budget):
    """cat's good-open test, from a fresh factory, on one open: the point of
    its constant witness."""
    witness = _contraction_test(space, budget)(mask)
    return None if witness is None else witness[0]


def _fresh_section_test(f, mask, budget):
    """secat's good-open test, from a fresh factory, on one open."""
    return _homotopy_section_test(f, budget)(mask)


def _census_maps_into(Y):
    """Three maps into Y: from a discrete space onto its points, the core
    inclusion and the projection from Y times the Sierpinski space."""
    return (
        CMap(discrete_space(Y.n), Y, range(Y.n)),
        core(Y).inclusion,
        product(Y, sierpinski())[1],
    )


def test_mask_routes_match_the_subspace_routes_on_the_census():
    """Every open of every census space of at most 5 points, T0 or not."""
    for space in census_up_to(5):
        if not space.n:
            continue
        _assert_space_core_agrees(space)
        maps = _census_maps_into(space)
        for mask in brute_open_masks(space):
            if mask:
                _assert_core_routes_agree(space, mask)
                _assert_good_open_routes_agree(space, mask, maps)


def test_target_mask_route_matches_the_subspace_route_on_proper_cores():
    """Every open of every census space of at most 4 points whose core is a
    proper subspace, so that the points of the target's core mask are not
    the indices of its core subspace: cat's and secat's good-open tests, and
    nullhomotopy_target on the inclusion of the open, search into the core
    mask and give the witness and node count of the search into the core
    subspace."""
    spaces = [space for space in census_up_to(4) if core(space).space.n < space.n]
    assert any(core(space).inclusion.assignment != tuple(range(core(space).space.n))
               for space in spaces)
    for space in spaces:
        maps = _census_maps_into(space)
        for mask in brute_open_masks(space):
            if mask:
                _assert_good_open_routes_agree(space, mask, maps)
                incl = subspace_of_mask(space, mask)[1]
                assert outcome_and_nodes(nullhomotopy_target, incl) == outcome_and_nodes(
                    subspace_contraction_point, space, mask)


def test_core_scan_matches_the_rescan_on_every_census_mask():
    """The incremental scan finds the stages, core mask and retraction of
    the scan that restarts after every collapse, on every mask, open or not,
    of every census space of at most 4 points."""
    for space in census_up_to(4, include_empty=True):
        for mask in range(1 << space.n):
            assert _core_mask(space, mask) == rescan_core_mask(space, mask)


@settings(max_examples=300)
@given(st.one_of(posets(8), preorders(8)), st.data())
def test_core_scan_matches_the_rescan_on_random_masks(space, data):
    for mask in data.draw(st.lists(st.integers(0, space.full_mask), min_size=1, max_size=8)):
        assert _core_mask(space, mask) == rescan_core_mask(space, mask)


@st.composite
def spaces_with_a_map(draw):
    """A preorder of at most 8 points, T0 or not, and a map into it from a
    preorder of at most 4 points."""
    Y = draw(preorders(8))
    return Y, draw(continuous_maps(draw(preorders(4)), Y))


@settings(max_examples=200)
@given(spaces_with_a_map())
def test_mask_routes_match_the_subspace_routes_on_random_preorders(instance):
    space, f = instance
    _assert_space_core_agrees(space)
    for mask in brute_open_masks(space):
        if mask:
            _assert_core_routes_agree(space, mask)
            _assert_good_open_routes_agree(space, mask, (f,))


def test_cat_certificate_verifies():
    """cat is finite on every nonempty space (U_x contracts to x), and its
    certificate holds one constant witness per cover element."""
    for space in list(census_up_to(4)) + [pseudocircle(), discrete_space(3)]:
        result = cat(space)
        assert result.value.is_finite
        cert = result.certificate
        assert cert.mode == MODE_CONTRACTION
        assert len(cert.cover) == len(result.cover) == result.value.n
        assert all(len(set(images)) == 1 for _, images in cert.cover)
        assert cert.verify()


def test_cat_certificate_rejects_a_wrong_point_or_cover():
    d = discrete_space(2)
    cert = cat(d).certificate
    assert cert.cover == ((0b01, (0,)), (0b10, (1,)))
    swapped = dataclasses.replace(cert, cover=((0b01, (1,)), (0b10, (0,))))
    short = dataclasses.replace(cert, cover=cert.cover[:1])
    c = pseudocircle()
    whole = CoverCertificate(MODE_CONTRACTION, c, ((c.full_mask, (0,) * c.n),), (identity_map(c),))
    for wrong in (swapped, short, whole):
        with pytest.raises(SelfCheckFailed):
            wrong.verify()


def test_cat_certificate_rejects_a_witness_that_is_not_constant():
    """The inclusion of an open is homotopic to itself, so only the
    constant check rejects it as a contraction witness."""
    s = sierpinski()
    cert = cat(s).certificate
    assert len(cert.cover) == 1 and cert.verify()
    inclusion = dataclasses.replace(cert, cover=((s.full_mask, (0, 1)),))
    with pytest.raises(SelfCheckFailed, match="not a constant map"):
        inclusion.verify()
