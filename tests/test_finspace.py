import itertools
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secnum.census import census_spaces, census_up_to
from secnum.finspace import (
    CMap,
    DiscontinuityError,
    FinSpace,
    _closed_space,
    compose,
    configuration_space,
    connected_components,
    constant_map,
    discrete_space,
    empty_space,
    enumerate_maps,
    fiber_masks,
    first_lift,
    identity_map,
    is_connected,
    is_hausdorff,
    iter_assignments,
    iter_open_masks,
    make_map,
    make_space,
    minimal_open,
    product,
    pseudocircle,
    pullback,
    sierpinski,
    subspace,
    subspace_of_mask,
)
from secnum.resources import Budget, BudgetExhausted, LimitExceeded

from oracles import (
    brute_closure_rows,
    brute_co_rows,
    brute_configuration_rows,
    brute_discontinuity,
    brute_lift_exists,
    brute_open_masks,
    brute_preorder_error,
    brute_pullback_rows,
    continuous_maps,
    preorders,
    recursive_iter_assignments,
)


def test_make_space_returns_one_object_per_structure():
    """Equal generator rows give the identical space; the rows are compared,
    so the order and repetition of the pairs do not matter."""
    a = make_space(3, [(2, 1), (1, 0)])
    assert a is make_space(3, [(1, 0), (2, 1), (1, 0)])
    assert sierpinski() is sierpinski() is make_space(2, [(1, 0)])
    assert discrete_space(4) is discrete_space(4)


def test_interned_spaces_keep_structural_equality_and_hash():
    """Different generators with one closure give distinct objects that are
    equal and hash alike, as does a space built from its rows directly."""
    closed = make_space(3, [(2, 1), (1, 0), (2, 0)])
    generated = make_space(3, [(2, 1), (1, 0)])
    direct = FinSpace(generated.reach_rows)
    assert closed is not generated
    assert closed == generated == direct
    assert hash(closed) == hash(generated) == hash(direct)
    assert make_space(3, []) != generated


def test_make_space_cache_is_bounded():
    assert _closed_space.cache_info().maxsize is not None


def test_make_space_closure():
    one = make_space(1, [])
    assert one.reach_rows == (1,)
    two = make_space(2, [])
    assert is_hausdorff(two)
    s = make_space(2, [(1, 0)])
    assert s.reach_rows == (0b01, 0b11)
    chain = make_space(3, [(2, 1), (1, 0)])
    assert chain.reach(2, 0)  # transitive closure


@st.composite
def generator_pairs(draw, max_points):
    n = draw(st.integers(1, max_points))
    point = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(point, point), max_size=3 * n))


@settings(max_examples=300)
@given(generator_pairs(12))
def test_make_space_rows_match_brute_force_closure(generators):
    n, pairs = generators
    assert make_space(n, pairs).reach_rows == brute_closure_rows(n, pairs)


def test_make_space_closes_long_chains():
    # each generator pair reaches one step, so every row needs the whole chain
    n = 500
    for pairs in ([(x, x + 1) for x in range(n - 1)], [(x + 1, x) for x in range(n - 1)]):
        assert make_space(n, pairs).reach_rows == brute_closure_rows(n, pairs)
    assert make_space(0, []).reach_rows == ()


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


@st.composite
def corrupted_rows(draw, max_points):
    """Reach rows of a random preorder of at most max_points points, as they
    are or with one corruption: a missing self bit, a bit past the last
    point, a chain x -> y -> z whose end z is not in U_x, or some flipped
    bits."""
    rows = list(draw(preorders(max_points)).reach_rows)
    n = len(rows)
    point = st.integers(0, n - 1)
    kind = draw(st.sampled_from(["preorder", "self", "range", "chain", "flip"]))
    if kind == "self":
        x = draw(point)
        rows[x] &= ~(1 << x)
    elif kind == "range":
        rows[draw(point)] |= 1 << draw(st.integers(n, n + 3))
    elif kind == "chain":
        x, y = draw(point), draw(point)
        outside = [z for z in range(n) if not (rows[x] >> z) & 1 and z != y]
        if x != y and outside:
            rows[y] |= 1 << draw(st.sampled_from(outside))
            rows[x] |= 1 << y
    elif kind == "flip":
        for x, y in draw(st.lists(st.tuples(point, point), min_size=1, max_size=3)):
            if x != y:
                rows[x] ^= 1 << y
    return rows


@settings(max_examples=500)
@given(corrupted_rows(10))
def test_space_validation_matches_brute_force_oracle(rows):
    expected = brute_preorder_error(rows)
    if expected is None:
        space = FinSpace(rows)
        assert space.reach_rows == tuple(rows)
        assert space.co_rows == brute_co_rows(rows)
        assert FinSpace(rows, validate=False).co_rows == space.co_rows
    else:
        with pytest.raises(ValueError) as err:
            FinSpace(rows)
        assert str(err.value) == expected


@st.composite
def assignments(draw, max_points):
    """A source and target preorder and any assignment between them, most of
    them discontinuous."""
    source, target = draw(preorders(max_points)), draw(preorders(max_points))
    images = draw(st.lists(st.integers(0, target.n - 1), min_size=source.n, max_size=source.n))
    return source, target, images


@settings(max_examples=500)
@given(assignments(10))
def test_map_validation_matches_brute_force_oracle(instance):
    source, target, images = instance
    expected = brute_discontinuity(source, target, images)
    if expected is None:
        assert CMap(source, target, images, validate=True).assignment == tuple(images)
    else:
        with pytest.raises(DiscontinuityError) as err:
            CMap(source, target, images, validate=True)
        x, x2 = expected
        assert err.value.witness == expected
        assert err.value.images == (images[x], images[x2])


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
        opens = list(iter_open_masks(space, Budget()))
        for x in range(space.n):
            u = minimal_open(space, x).mask
            assert u in opens
            for mask in opens:
                if (mask >> x) & 1:
                    assert u & ~mask == 0


def test_open_masks_in_bitmask_order():
    assert list(iter_open_masks(empty_space(), Budget())) == [0]
    assert list(iter_open_masks(make_space(1, []), Budget())) == [0, 1]
    assert list(iter_open_masks(sierpinski(), Budget())) == [0, 1, 3]
    assert list(iter_open_masks(discrete_space(2), Budget())) == [0, 1, 2, 3]


def test_open_masks_match_brute_force_oracle_on_census():
    spaces = census_up_to(6, include_empty=True)
    assert len(spaces) == 904
    for space in spaces:
        assert list(iter_open_masks(space, Budget())) == brute_open_masks(space)


@settings(max_examples=200)
@given(preorders(10))
def test_open_masks_match_brute_force_oracle_on_random_preorders(space):
    assert list(iter_open_masks(space, Budget())) == brute_open_masks(space)


def test_open_masks_charge_one_node_per_open():
    budget = Budget(100)
    assert len(list(iter_open_masks(pseudocircle(), budget))) == 100 - budget.remaining


def test_open_sets_closed_under_union_and_intersection():
    for space in census_spaces(3):
        masks = set(iter_open_masks(space, Budget()))
        for a in masks:
            for b in masks:
                assert (a | b) in masks
                assert (a & b) in masks


def test_hausdorff_iff_singletons_open():
    for n in range(4):
        for space in census_spaces(n):
            masks = set(iter_open_masks(space, Budget()))
            singles = all((1 << x) in masks for x in range(space.n))
            assert is_hausdorff(space) == singles


def test_open_masks_are_bounded_by_the_node_budget():
    with pytest.raises(BudgetExhausted):
        list(iter_open_masks(discrete_space(40), Budget(1000)))


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

    f_d2, pi = configuration_space(discrete_space(2), 2)
    assert f_d2.n == 2 and is_hausdorff(f_d2)
    assert sorted(pi.assignment) == [0, 1]  # bijection onto the base

    f_s, pi_s = configuration_space(sierpinski(), 2)
    assert f_s.reach_rows == (0b01, 0b10)
    assert pi_s.target == sierpinski()

    same, pi1 = configuration_space(sierpinski(), 1)
    assert same == sierpinski() and pi1.is_identity()


def test_configuration_space_cache_keys_on_structure():
    """A space is its reach rows, so the interned discrete space and a copy
    built from its rows share one cache entry."""
    configuration_space.cache_clear()
    first = configuration_space(discrete_space(3), 2)
    assert configuration_space(FinSpace((1, 2, 4)), 2) is first
    info = configuration_space.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_configuration_space_matches_offdiagonal_subspace():
    for space in census_spaces(3):
        conf, _ = configuration_space(space, 2)
        square, _, _ = product(space, space)
        off = [i for i in range(square.n) if i // space.n != i % space.n]
        sub, _ = subspace(square, off)
        assert conf == sub


def _assert_configuration_space_matches_oracle(space, k):
    conf, pi = configuration_space(space, k)
    tuples, rows = brute_configuration_rows(space, k)
    assert conf.reach_rows == tuple(rows)
    assert pi.assignment == tuple(t[0] for t in tuples)


def test_configuration_space_matches_brute_force_oracle_on_census():
    for k, n_max in ((2, 5), (3, 5), (4, 4)):
        for space in census_up_to(n_max):
            _assert_configuration_space_matches_oracle(space, k)


@settings(max_examples=100)
@given(preorders(7), st.integers(2, 3))
def test_configuration_space_matches_brute_force_oracle_on_random_preorders(space, k):
    _assert_configuration_space_matches_oracle(space, k)


def _assert_pullback_matches_oracle(p, g):
    space, to_base, to_total = pullback(p, g)
    pairs, rows = brute_pullback_rows(p, g)
    assert space.reach_rows == tuple(rows)
    assert to_base.assignment == tuple(x for x, _ in pairs)
    assert to_total.assignment == tuple(e for _, e in pairs)


def test_pullback_and_product_match_brute_force_oracle_on_census():
    """Every census (p, g) of the strict-lift family below; and product(X, E),
    which is the pullback of E -> point along X -> point."""
    point = make_space(1, [])
    for X in census_up_to(3):
        for E in census_up_to(3):
            for B in census_up_to(2):
                for p in enumerate_maps(E, B):
                    for g in enumerate_maps(X, B):
                        _assert_pullback_matches_oracle(p, g)
            square, _, _ = product(X, E)
            _, rows = brute_pullback_rows(constant_map(E, point, 0), constant_map(X, point, 0))
            assert square.reach_rows == tuple(rows)


def test_constructions_cap_the_points_they_build():
    conf, _ = configuration_space(discrete_space(17), 3)
    assert conf.n == 17 * 16 * 15 and is_hausdorff(conf)
    d65, point = discrete_space(65), make_space(1, [])
    space, _, _ = pullback(identity_map(d65), identity_map(d65))
    assert space.n == 65 and is_hausdorff(space)
    with pytest.raises(LimitExceeded, match="57120 points"):
        configuration_space(discrete_space(17), 4)
    with pytest.raises(LimitExceeded, match="4225 points"):
        pullback(constant_map(d65, point, 0), constant_map(d65, point, 0))


@pytest.mark.parametrize("n", [0, 1, 3])
def test_configuration_space_of_a_tiny_space_is_cheap_for_large_k(n):
    """F(Y, k) is empty for k > n, with an empty pi_{k,1} into Y, and nothing
    of size k is built, so even k = 10**9 answers at once."""
    started = time.perf_counter()
    for k in (n + 1, 100, 100_000, 10**9):
        conf, pi = configuration_space(discrete_space(n), k)
        assert conf.n == 0 and pi.assignment == () and pi.target.n == n
    assert time.perf_counter() - started < 1


@pytest.mark.parametrize("n", [0, 1])
def test_configuration_space_of_a_tiny_space_caps_k(n):
    """For n <= 1 the cap counts the n!/(n-k)! configurations, not n**k or
    k: k = 100000 is not refused, and the cap still refuses a space whose
    configurations are too many."""
    conf, pi = configuration_space(discrete_space(n), 100_000)
    assert conf.n == 0 and pi.assignment == ()
    with pytest.raises(LimitExceeded, match="57120 points"):
        configuration_space(discrete_space(17), 4)


def test_configuration_space_past_the_cap_never_prints_n_to_the_k():
    """A permutation count of thousands of digits (F(D3000, 2999), 3000!
    points) is named as a power of 2."""
    with pytest.raises(LimitExceeded, match=r"at least 2\*\*30331 points"):
        configuration_space(discrete_space(3000), 2999)


def test_first_lift_matches_brute_force_oracle():
    """For every p: E -> B and g: X -> B on census spaces of at most 3 points
    (B at most 2), first_lift finds a map exactly when a strict lift of g
    through p exists, and the map it finds is one."""
    for X in census_up_to(3):
        for E in census_up_to(3):
            for B in census_up_to(2):
                for p in enumerate_maps(E, B):
                    fibers = fiber_masks(p.assignment, B.n)
                    for g in enumerate_maps(X, B):
                        k = first_lift(X, E, fibers, g.assignment, Budget(10**6))
                        assert (k is not None) == brute_lift_exists(X, E, fibers, g.assignment)
                        if k is not None:
                            lift = CMap(X, E, k, validate=True)
                            assert compose(p, lift).assignment == g.assignment


def _assert_masked_search_matches_subspace(X, E, fibers, images, mask):
    """first_lift and the lex stream of iter_assignments on a mask of X give
    what they give on the subspace on that mask, node for node."""
    sub, incl = subspace_of_mask(X, mask)
    sub_images = [images[u] for u in incl.assignment]
    on_sub, on_mask = Budget(10**6), Budget(10**6)
    assert (first_lift(sub, E, fibers, sub_images, on_sub)
            == first_lift(X, E, fibers, images, on_mask, mask))
    assert on_sub.remaining == on_mask.remaining
    domains = [fibers[b] for b in images]
    assert (list(iter_assignments(sub, E, [domains[u] for u in incl.assignment], on_sub))
            == list(iter_assignments(X, E, domains, on_mask, mask=mask)))
    assert on_sub.remaining == on_mask.remaining


def test_masked_first_lift_matches_the_subspace_search():
    """The test_first_lift_matches_brute_force_oracle family, on every open
    mask of X."""
    for X in census_up_to(3):
        masks = brute_open_masks(X)
        for E in census_up_to(3):
            for B in census_up_to(2):
                for p in enumerate_maps(E, B):
                    fibers = fiber_masks(p.assignment, B.n)
                    for g in enumerate_maps(X, B):
                        for mask in masks:
                            _assert_masked_search_matches_subspace(
                                X, E, fibers, g.assignment, mask)


@st.composite
def masked_lift_instances(draw):
    X, E, B = draw(preorders(6)), draw(preorders(4)), draw(preorders(3))
    p, g = draw(continuous_maps(E, B)), draw(continuous_maps(X, B))
    return X, E, fiber_masks(p.assignment, B.n), g.assignment, draw(st.integers(0, X.full_mask))


@settings(max_examples=100)
@given(masked_lift_instances())
def test_masked_first_lift_matches_the_subspace_search_on_random_instances(instance):
    """Any subset of the points, open or not, on random preorders."""
    _assert_masked_search_matches_subspace(*instance)


def _charged_stream(search, source, target, domains, nodes, **kwargs):
    """What search yields under Budget(nodes), the nodes it charged and
    whether it ran out; the items yielded before running out are kept."""
    budget = Budget(nodes)
    items = []
    try:
        for item in search(source, target, domains, budget, **kwargs):
            items.append(item)
    except BudgetExhausted:
        return items, nodes - budget.remaining, True
    return items, nodes - budget.remaining, False


def _assert_stack_search_matches_recursive(source, target, domains, small_budgets, **kwargs):
    """The explicit-stack search and the recursive one yield the same stream
    and charge the same nodes, in full (up to 20,000 nodes) and under each of
    small_budgets, where both run out after the same yield."""
    for nodes in (20_000, *small_budgets):
        assert (_charged_stream(iter_assignments, source, target, domains, nodes, **kwargs)
                == _charged_stream(recursive_iter_assignments, source, target, domains,
                                   nodes, **kwargs))


def test_stack_search_matches_the_recursive_one_on_census_pairs():
    """Every pair of spaces of at most 4 points (the empty one included, as
    source and as target): lex and mcf, ascending and seeded value orders,
    with full domains and with the masks of a seeded draw."""
    rng = random.Random(20240801)
    spaces = census_up_to(4, include_empty=True)
    for source in spaces:
        for target in spaces:
            full = [target.full_mask] * source.n
            drawn = [rng.randrange(target.full_mask + 1) for _ in range(source.n)]
            orders = [rng.sample(range(target.n), target.n) for _ in range(source.n)]
            mask = rng.randrange(source.full_mask + 1)
            for order in ("lex", "mcf"):
                for domains, value_orders, on in ((full, None, None), (drawn, orders, mask)):
                    _assert_stack_search_matches_recursive(
                        source, target, domains, (1, 2, 3, 5), order=order,
                        value_orders=value_orders, mask=on)


@st.composite
def search_instances(draw):
    """A source preorder of at most 8 points (non-T0 ones included), a target
    of at most 4 points or the empty one, random domains, a random mask (or
    none), an order and seeded value orders (or none)."""
    source = draw(preorders(8))
    target = draw(st.one_of(st.just(empty_space()), preorders(4)))
    value = st.integers(0, target.full_mask)
    domains = draw(st.lists(st.one_of(st.just(target.full_mask), value),
                            min_size=source.n, max_size=source.n))
    kwargs = {
        "order": draw(st.sampled_from(["lex", "mcf"])),
        "mask": draw(st.one_of(st.none(), st.just(0), st.integers(0, source.full_mask))),
    }
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2**32 - 1))
        rng = random.Random(seed)
        kwargs["value_orders"] = [rng.sample(range(target.n), target.n) for _ in range(source.n)]
    return source, target, domains, draw(st.lists(st.integers(1, 40), max_size=3)), kwargs


@settings(max_examples=300)
@given(search_instances())
def test_stack_search_matches_the_recursive_one_on_random_instances(instance):
    source, target, domains, small_budgets, kwargs = instance
    _assert_stack_search_matches_recursive(source, target, domains, small_budgets, **kwargs)


@st.composite
def larger_mcf_instances(draw):
    """Most-constrained-first searches on 9 to 16 points, more levels than
    search_instances draws: a source preorder, a target of at most 4 points,
    random domains (empty ones included) and seeded value orders or none."""
    source = draw(preorders(16, min_points=9))
    target = draw(preorders(4))
    value = st.integers(0, target.full_mask)
    domains = draw(st.lists(st.one_of(st.just(target.full_mask), value),
                            min_size=source.n, max_size=source.n))
    kwargs = {"order": "mcf"}
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        kwargs["value_orders"] = [rng.sample(range(target.n), target.n) for _ in range(source.n)]
    return source, target, domains, draw(st.lists(st.integers(1, 40), max_size=3)), kwargs


@settings(max_examples=200)
@given(larger_mcf_instances())
def test_bucket_choice_matches_the_recursive_search(instance):
    """The size buckets choose what the recursive search's scan chooses, the
    lowest point among the smallest domains: same stream, same nodes."""
    source, target, domains, small_budgets, kwargs = instance
    _assert_stack_search_matches_recursive(source, target, domains, small_budgets, **kwargs)


def _lines_run(search):
    """Lines of iter_assignments that run while search yields its first
    item: a count of the work done, which no timing noise moves."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is iter_assignments.__code__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        next(search)
    finally:
        sys.settrace(previous)
    return lines


@pytest.mark.parametrize("n", [64, 512])
def test_most_constrained_first_costs_no_scan_per_level(n):
    """Choosing the most constrained point takes a bounded number of steps
    per level, so the search for a fixed-point-free self-map of a discrete
    space runs at most twice the lines of the lex one; a scan of every free
    point per level ran some n times as many."""
    space = discrete_space(n)
    domains = [space.full_mask & ~(1 << x) for x in range(n)]
    lex = _lines_run(iter_assignments(space, space, domains, Budget(), order="lex"))
    mcf = _lines_run(iter_assignments(space, space, domains, Budget(), order="mcf"))
    assert mcf < 2 * lex


def test_map_search_is_not_bounded_by_the_recursion_limit():
    """One level per decided point lives on the search's own stack."""
    search = iter_assignments(discrete_space(1200), discrete_space(1), [1] * 1200, Budget())
    assert next(search) == (0,) * 1200


def test_enumerate_maps_counts_and_order():
    s = sierpinski()
    point = make_space(1, [])
    assert len(list(enumerate_maps(point, pseudocircle()))) == 4
    maps = [m.assignment for m in enumerate_maps(s, s)]
    assert maps == [(0, 0), (0, 1), (1, 1)]
    assert first_lift(s, s, [0b10, 0b01], [0, 1], Budget()) is None


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


def test_connected_components_on_the_census():
    """On every space of at most 4 points (and the empty one) the masks
    partition the points, are ordered by their lowest point, are closed both
    upwards and downwards, and are as many as the components of the
    comparability graph."""
    import networkx as nx

    for space in census_up_to(4, include_empty=True):
        parts = connected_components(space)
        union = 0
        for part in parts:
            assert part and union & part == 0
            union |= part
            for x in range(space.n):
                if (part >> x) & 1:
                    assert space.reach_rows[x] & ~part == 0
                    assert space.co_rows[x] & ~part == 0
        assert union == space.full_mask
        lowest = [(part & -part).bit_length() for part in parts]
        assert lowest == sorted(lowest)
        graph = nx.Graph()
        graph.add_nodes_from(range(space.n))
        graph.add_edges_from((x, y) for x in range(space.n) for y in range(space.n)
                             if space.reach(x, y))
        assert len(parts) == nx.number_connected_components(graph)
        assert is_connected(space) == (len(parts) == 1)


def test_space_equality_and_pickle():
    import pickle

    s1 = sierpinski()
    s2 = FinSpace(s1.reach_rows)
    assert s1 is not s2
    assert s1 == s2 and hash(s1) == hash(s2)
    assert s1 == s1 and s1 != discrete_space(2) and s1 != s1.reach_rows
    assert pickle.loads(pickle.dumps(s1)) == s1
    f = make_map(s1, s1, [1, 1])
    assert pickle.loads(pickle.dumps(f)) == f
