import itertools

import pytest

from secnum.census import census_spaces
from secnum.finspace import (
    CMap,
    DiscontinuityError,
    FinSpace,
    all_open_sets,
    compose,
    configuration_space,
    constant_map,
    discrete_space,
    empty_space,
    enumerate_maps,
    identity_map,
    is_connected,
    is_hausdorff,
    make_map,
    make_space,
    minimal_open,
    product,
    pseudocircle,
    pullback,
    sierpinski,
    subspace,
)
from secnum.resources import BudgetExhausted, LimitExceeded


def test_make_space_closure():
    one = make_space(1, [])
    assert one.reach_rows == (1,)
    two = make_space(2, [])
    assert is_hausdorff(two)
    s = make_space(2, [(1, 0)])
    assert s.reach_rows == (0b01, 0b11)
    chain = make_space(3, [(2, 1), (1, 0)])
    assert chain.reach(2, 0)  # transitive closure


def test_make_space_rejects_bad_indices():
    with pytest.raises(ValueError):
        make_space(2, [(0, 2)])
    with pytest.raises(ValueError):
        make_space(-1, [])


def test_preorder_validation():
    with pytest.raises(ValueError):
        FinSpace((0b10, 0b10))  # not reflexive at 0
    with pytest.raises(ValueError):
        FinSpace((0b011, 0b110, 0b100))  # 0->1->2 but not 0->2


def test_is_hausdorff():
    assert is_hausdorff(discrete_space(2))
    assert is_hausdorff(make_space(1, []))
    assert is_hausdorff(empty_space())
    assert not is_hausdorff(sierpinski())


def test_minimal_open():
    s = sierpinski()
    assert minimal_open(s, 1).members == (0, 1)
    assert minimal_open(s, 0).members == (0,)
    d = discrete_space(3)
    for x in range(3):
        assert minimal_open(d, x).members == (x,)
    with pytest.raises(ValueError):
        minimal_open(s, 2)


def test_minimal_open_is_least_open_containing_point():
    for space in census_spaces(3):
        opens = [o.mask for o in all_open_sets(space)]
        for x in range(space.n):
            u = minimal_open(space, x).mask
            assert u in opens
            for mask in opens:
                if (mask >> x) & 1:
                    assert u & ~mask == 0


def test_all_open_sets_in_bitmask_order():
    assert [o.mask for o in all_open_sets(make_space(1, []))] == [0, 1]
    assert [o.mask for o in all_open_sets(sierpinski())] == [0, 1, 3]
    assert [o.mask for o in all_open_sets(discrete_space(2))] == [0, 1, 2, 3]


def test_open_sets_closed_under_union_and_intersection():
    for space in census_spaces(3):
        masks = {o.mask for o in all_open_sets(space)}
        for a in masks:
            for b in masks:
                assert (a | b) in masks
                assert (a & b) in masks


def test_hausdorff_iff_singletons_open():
    for n in range(4):
        for space in census_spaces(n):
            masks = {o.mask for o in all_open_sets(space)}
            singles = all((1 << x) in masks for x in range(space.n))
            assert is_hausdorff(space) == singles


def test_all_open_sets_limit():
    big = discrete_space(11)
    with pytest.raises(LimitExceeded):
        all_open_sets(big)


def test_make_map_validation_and_witness():
    s = sierpinski()
    assert make_map(s, s, [0, 1]).is_identity()
    constant_ok = make_map(s, s, [1, 1])
    assert constant_ok.assignment == (1, 1)
    with pytest.raises(DiscontinuityError) as err:
        make_map(s, s, [1, 0])
    assert err.value.witness == (1, 0)
    with pytest.raises(ValueError):
        make_map(s, s, [0])
    with pytest.raises(ValueError):
        make_map(s, s, [0, 2])


def test_compose_requires_matching_spaces():
    s = sierpinski()
    d = discrete_space(2)
    f = constant_map(s, d, 0)
    with pytest.raises(ValueError):
        compose(f, f)
    g = make_map(d, s, [0, 0])
    assert compose(g, f).assignment == (0, 0)


def test_product_componentwise_reach():
    s = sierpinski()
    p, pa, pb = product(s, s)
    assert p.n == 4
    assert p.reach_rows == (0b0001, 0b0011, 0b0101, 0b1111)
    assert pa.assignment == (0, 0, 1, 1)
    assert pb.assignment == (0, 1, 0, 1)


def test_product_with_singleton_isomorphic():
    s = sierpinski()
    one = make_space(1, [])
    p, _, pb = product(one, s)
    assert p.reach_rows == s.reach_rows
    assert pb.assignment == (0, 1)


def test_product_of_discrete_is_discrete():
    p, _, _ = product(discrete_space(2), discrete_space(2))
    assert is_hausdorff(p) and p.n == 4


def test_product_limit():
    with pytest.raises(LimitExceeded):
        product(discrete_space(100), discrete_space(100))


def test_subspace():
    s = sierpinski()
    full, incl = subspace(s, [0, 1])
    assert full == s and incl.is_identity()
    nothing, _ = subspace(s, [])
    assert nothing.n == 0
    p, _, _ = product(s, s)
    off, incl = subspace(p, [1, 2])
    assert off.reach_rows == (0b01, 0b10)  # discrete pair
    assert incl.assignment == (1, 2)


def test_pullback_of_identity_is_total_space():
    e = pseudocircle()
    p = make_map(e, sierpinski(), [0, 0, 1, 1])
    space, to_base, to_total = pullback(p, identity_map(sierpinski()))
    assert space.n == e.n
    assert sorted(to_total.assignment) == list(range(e.n))
    # projection composed with p equals g on the pullback
    for i in range(space.n):
        assert p(to_total(i)) == to_base(i)


def test_pullback_along_constant_is_product_with_fiber():
    s = sierpinski()
    x = discrete_space(2)
    p = make_map(s, s, [0, 1])  # identity on S
    g = constant_map(x, s, 1)
    space, to_base, to_total = pullback(p, g)
    # fiber over 1 is {1}; pullback is X x {1}
    assert space.n == 2
    assert to_base.assignment == (0, 1)
    assert to_total.assignment == (1, 1)


def test_pullback_empty_total_space():
    b = sierpinski()
    p = CMap(empty_space(), b, [])
    space, _, _ = pullback(p, identity_map(b))
    assert space.n == 0


def test_pullback_needs_common_target():
    with pytest.raises(ValueError):
        pullback(identity_map(sierpinski()), identity_map(discrete_space(2)))


def test_configuration_space_examples():
    one = make_space(1, [])
    f_one, _ = configuration_space(one, 2)
    assert f_one.n == 0

    f_d2, projs = configuration_space(discrete_space(2), 2)
    assert f_d2.n == 2 and is_hausdorff(f_d2)
    assert sorted(projs[1].assignment) == [0, 1]  # bijection onto the base

    f_s, projs_s = configuration_space(sierpinski(), 2)
    assert f_s.reach_rows == (0b01, 0b10)
    assert projs_s[1].target == sierpinski()

    same, projs1 = configuration_space(sierpinski(), 1)
    assert same == sierpinski() and projs1[1].is_identity()


def test_configuration_space_cache_keeps_labels():
    plain = sierpinski()
    labelled = FinSpace(plain.reach_rows, labels=["a", "b"])
    conf, projs = configuration_space(plain, 2)
    conf_l, projs_l = configuration_space(labelled, 2)
    assert conf == conf_l
    assert conf.labels is None and projs[1].target.name == "S"
    assert conf_l.labels == ("(a,b)", "(b,a)")
    assert projs_l[1].target.labels == ("a", "b") and projs_l[1].target.name is None
    assert configuration_space(labelled, 2)[0] is conf_l
    with pytest.raises(TypeError):
        projs_l[1] = projs[1]


def test_configuration_space_matches_offdiagonal_subspace():
    for space in census_spaces(3):
        conf, _ = configuration_space(space, 2)
        square, _, _ = product(space, space)
        off = [i for i in range(square.n) if i // space.n != i % space.n]
        sub, _ = subspace(square, off)
        assert conf == sub


def test_configuration_projections_compose():
    d = discrete_space(3)
    conf, projs = configuration_space(d, 3)
    assert conf.n == 6
    # forgetting to r=2 then projecting again agrees with direct r=1
    two = projs[2]
    conf2, projs2 = configuration_space(d, 2)
    assert two.target == conf2
    assert compose(projs2[1], two).assignment == projs[1].assignment


def test_configuration_space_reuses_the_memoised_lower_level():
    labelled = FinSpace(discrete_space(3).reach_rows, labels=["a", "b", "c"])
    conf3, projs3 = configuration_space(labelled, 3)
    conf2, projs2 = configuration_space(labelled, 2)
    assert projs3[2].target is conf2
    assert compose(projs2[1], projs3[2]).assignment == projs3[1].assignment
    assert [conf2.label(i) for i in projs3[2].assignment] == [
        label[: label.rindex(",")] + ")" for label in conf3.labels
    ]


def test_enumerate_maps_counts_and_order():
    s = sierpinski()
    point = make_space(1, [])
    assert len(list(enumerate_maps(point, pseudocircle()))) == 4
    maps = [m.assignment for m in enumerate_maps(s, s)]
    assert maps == [(0, 0), (0, 1), (1, 1)]
    assert list(enumerate_maps(s, s, constraints=[[1], [0]])) == []


def test_enumerate_maps_empty_cases():
    e = empty_space()
    s = sierpinski()
    assert [m.assignment for m in enumerate_maps(e, s)] == [()]
    assert list(enumerate_maps(s, e)) == []


def test_enumerate_maps_composition_closure():
    s = sierpinski()
    maps = list(enumerate_maps(s, s))
    for f in maps:
        for g in maps:
            made = compose(f, g)
            make_map(s, s, made.assignment)  # revalidates continuity


def test_enumerate_maps_budget_exhaustion():
    d = discrete_space(3)
    with pytest.raises(BudgetExhausted):
        list(enumerate_maps(d, d, budget=2))


def test_enumerate_maps_matches_filtered_functions():
    for source in census_spaces(3):
        for target in census_spaces(2):
            got = {m.assignment for m in enumerate_maps(source, target)}
            expected = set()
            for assignment in itertools.product(range(target.n), repeat=source.n):
                ok = all(
                    not source.reach(x, y) or target.reach(assignment[x], assignment[y])
                    for x in range(source.n)
                    for y in range(source.n)
                )
                if ok:
                    expected.add(assignment)
            assert got == expected


def test_is_connected():
    assert is_connected(sierpinski())
    assert is_connected(pseudocircle())
    assert not is_connected(discrete_space(2))
    assert not is_connected(empty_space())
    assert is_connected(make_space(1, []))


def test_space_equality_and_pickle():
    import pickle

    s1 = sierpinski()
    s2 = make_space(2, [(1, 0)], name="other")
    assert s1 == s2 and hash(s1) == hash(s2)
    assert pickle.loads(pickle.dumps(s1)) == s1
    f = make_map(s1, s1, [1, 1])
    assert pickle.loads(pickle.dumps(f)) == f
