import random
import re
from pathlib import Path

import pytest

from secnum.census import (
    KNOWN_POSET_COUNTS,
    KNOWN_PREORDER_COUNTS,
    InstanceGenerator,
    _comparable_maps,
    are_isomorphic,
    canonical_form,
    census_spaces,
    census_up_to,
    cone,
    random_instance,
)
from secnum.finspace import (
    FinSpace,
    compose,
    discrete_space,
    enumerate_maps,
    is_hausdorff,
    make_space,
    sierpinski,
)
from secnum.homotopy import homotopic, is_contractible
from secnum.resources import LimitExceeded

from oracles import brute_census


def test_census_counts_match_known_values():
    assert [len(census_spaces(n)) for n in range(5)] == [1, 1, 3, 9, 33]
    assert [len(census_spaces(n, posets_only=True)) for n in range(1, 5)] == [1, 2, 5, 16]


def test_six_point_census_counts():
    assert len(census_spaces(6)) == KNOWN_PREORDER_COUNTS[6] == 718
    assert len(census_spaces(6, posets_only=True)) == KNOWN_POSET_COUNTS[6] == 318


@pytest.mark.parametrize("posets_only", [False, True])
def test_census_matches_brute_force_oracle(posets_only):
    for n in range(5):
        library = [(X.n, X.reach_rows) for X in census_spaces(n, posets_only)]
        oracle = [(X.n, X.reach_rows) for X in brute_census(n, posets_only)]
        assert library == oracle, n


def test_two_point_census_contents():
    spaces = census_spaces(2)
    keys = {canonical_form(X) for X in spaces}
    assert canonical_form(discrete_space(2)) in keys
    assert canonical_form(sierpinski()) in keys
    indiscrete = make_space(2, [(0, 1), (1, 0)])
    assert canonical_form(indiscrete) in keys
    # the two one-arrow labelings are the same space up to isomorphism
    assert are_isomorphic(make_space(2, [(1, 0)]), make_space(2, [(0, 1)]))


def test_census_soundness():
    for n in range(4):
        spaces = census_spaces(n)
        keys = set()
        for X in spaces:
            FinSpace(X.reach_rows, validate=True)  # preorder re-validation
            keys.add(canonical_form(X))
        assert len(keys) == len(spaces)


def test_census_cap():
    with pytest.raises(LimitExceeded):
        census_spaces(8)


def test_canonical_form_invariant_under_relabeling():
    import itertools

    x = make_space(3, [(2, 0), (1, 0)])
    n = x.n
    for perm in itertools.permutations(range(n)):
        pairs = [
            (perm[i], perm[j])
            for i in range(n)
            for j in range(n)
            if i != j and x.reach(i, j)
        ]
        relabeled = make_space(n, pairs)
        assert canonical_form(relabeled) == canonical_form(x)
        assert are_isomorphic(relabeled, x)


def test_not_isomorphic_distinguishes():
    assert not are_isomorphic(sierpinski(), discrete_space(2))
    assert not are_isomorphic(discrete_space(2), discrete_space(3))


def test_cone_is_contractible():
    gen = InstanceGenerator(5)
    for _ in range(20):
        base = gen.space(3)
        assert is_contractible(cone(base))


def test_generator_determinism():
    a, b = InstanceGenerator(99), InstanceGenerator(99)
    for _ in range(30):
        assert a.space(4).reach_rows == b.space(4).reach_rows
    a, b = InstanceGenerator("x"), InstanceGenerator("x")
    xa, xb = a.space(3), b.space(3)
    ya, yb = a.space(3), b.space(3)
    fa, fb = a.cmap(xa, ya), b.cmap(xb, yb)
    assert fa.assignment == fb.assignment


def test_draws_follow_the_random_module_stream():
    """_below, _shuffled and _pick draw exactly what randrange/randint,
    sample(range(n), n) and choice draw from the same seed, and leave the
    generator in the same state, so the instances (and the suite report)
    are those the random module's methods gave."""
    sizes = list(range(1, 40)) + [2**k + d for k in range(5, 70, 8) for d in (-1, 0, 1)]
    for seed in range(200):
        gen, rng = InstanceGenerator(seed), random.Random(seed)
        for n in sizes:
            assert gen._below(n) == rng.randrange(n)
            assert 1 + gen._below(n) == rng.randint(1, n)
        for n in range(13):
            assert gen._shuffled(n) == rng.sample(range(n), n)
        for length in range(1, 20):
            seq = [f"item{i}" for i in range(length)]
            assert gen._pick(seq) == rng.choice(seq)
        assert gen.rng.getstate() == rng.getstate()


@pytest.mark.parametrize("n", [0, -1])
def test_a_draw_below_nothing_raises(n):
    gen = InstanceGenerator(1)
    state = gen.rng.getstate()
    with pytest.raises(ValueError, match="cannot draw below"):
        gen._below(n)
    assert gen.rng.getstate() == state


def test_random_instance_kinds():
    space = random_instance("space", seed=3)
    assert space.n >= 1
    m = random_instance("map", seed=3)
    assert m.source.n >= 1
    phi, f, f_prime, psi = random_instance("square", seed=3)
    assert compose(f_prime, phi).assignment == compose(psi, f).assignment
    X, Y, g = random_instance("triple", seed=3)
    assert g.source == X and g.target == Y
    X, Y, g = random_instance("triple-hausdorff", seed=3)
    assert is_hausdorff(Y)
    with pytest.raises(ValueError):
        random_instance("nonsense", seed=3)


def test_generated_squares_commute():
    gen = InstanceGenerator(11)
    for _ in range(100):
        phi, f, f_prime, psi = gen.square(3)
        assert compose(f_prime, phi).assignment == compose(psi, f).assignment


def test_generated_retraction_is_retraction():
    gen = InstanceGenerator(13)
    for _ in range(40):
        X, B, incl, r = gen.retraction(3)
        assert r.source == X and r.target == B
        assert compose(r, incl).is_identity()


def test_homotopic_neighbor_is_homotopic():
    gen = InstanceGenerator(17)
    for _ in range(40):
        X, Y, g = gen.triple(3)
        neighbor = gen.homotopic_neighbor(g)
        assert homotopic(g, neighbor)


def test_comparable_maps_match_a_filter_of_every_map():
    """On every census map of at most 3 points: the maps uniformly comparable
    with g, by brute force over every map, sorted; and the draw is the
    choice of the random module among them."""
    spaces = census_up_to(3)
    seed = 0
    for X in spaces:
        for Y in spaces:
            reach = Y.reach
            for g in enumerate_maps(X, Y):
                seed += 1
                expected = tuple(f.assignment for f in enumerate_maps(X, Y)
                                 if all(reach(a, b) for a, b in zip(g.assignment, f.assignment))
                                 or all(reach(b, a) for a, b in zip(g.assignment, f.assignment)))
                assert _comparable_maps(g) == expected
                gen, rng = InstanceGenerator(seed), random.Random(seed)
                assert gen.homotopic_neighbor(g).assignment == rng.choice(expected)


def test_readme_census_counts_match_the_known_counts():
    """README spells the census counts out; they must be the ones the census
    is checked against."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    found = re.search(r"\(([\d, ]+) spaces for sizes 1\.\.(\d+); posets: ([\d, ]+)\)",
                      " ".join(readme.split()))
    assert found, "README no longer states the census counts"
    sizes = range(1, int(found[2]) + 1)
    assert max(KNOWN_PREORDER_COUNTS) == max(KNOWN_POSET_COUNTS) == sizes[-1]
    assert [int(v) for v in found[1].split(",")] == [KNOWN_PREORDER_COUNTS[n] for n in sizes]
    assert [int(v) for v in found[3].split(",")] == [KNOWN_POSET_COUNTS[n] for n in sizes]
