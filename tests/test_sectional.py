import dataclasses
import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secnum.census import InstanceGenerator, census_up_to
from secnum import homotopy
from secnum.cover import (
    MODE_CONTRACTION,
    MODE_HOMOTOPY,
    MODE_LIFT,
    MODE_SECTION,
    CoverCertificate,
)
from secnum.extnat import INF, ExtNat
from secnum.finspace import (
    CMap,
    FinSpace,
    compose,
    configuration_space,
    constant_map,
    discrete_space,
    empty_space,
    enumerate_maps,
    identity_map,
    make_map,
    make_space,
    product,
    pseudocircle,
    pullback,
    sierpinski,
    subspace,
)
from secnum.homotopy import cat, homotopic, is_contractible, nullhomotopy_target
from secnum.resources import Budget, SelfCheckFailed
from secnum.sectional import (
    _lift_test,
    relative_sec,
    relative_secat,
    relative_tc_bounds,
    sec,
    secat,
)

from oracles import (
    brute_maximal_good_opens,
    brute_relative_sec_lift,
    brute_sec,
    continuous_maps,
    posets,
    preorders,
)


def _pi21(space):
    return configuration_space(space, 2)[1]


def _chains(space):
    """The nonempty chains of a poset, as ascending tuples of points."""
    rows = space.reach_rows
    return [
        c for size in range(1, space.n + 1) for c in itertools.combinations(range(space.n), size)
        if all((rows[a] >> b) & 1 or (rows[b] >> a) & 1 for a, b in itertools.combinations(c, 2))
    ]


def _subdivision(space):
    """Barycentric subdivision of a poset: its nonempty chains, each reaching
    its subchains."""
    chains = _chains(space)
    pairs = [(i, j) for i, c in enumerate(chains) for j, d in enumerate(chains) if set(d) <= set(c)]
    return make_space(len(chains), pairs)


def _subdivide_map(g):
    """sd g: each chain of the source goes to its image chain."""
    targets = _chains(g.target)
    images = [targets.index(tuple(sorted({g(x) for x in c}))) for c in _chains(g.source)]
    return CMap(_subdivision(g.source), _subdivision(g.target), images)


def _sectionable_opens(f):
    """Maximal opens of the target of f admitting a strict local section."""
    return brute_maximal_good_opens(f.target, _lift_test(f, identity_map(f.target), Budget()))


def test_sectionable_opens_identity():
    s = sierpinski()
    pairs = _sectionable_opens(identity_map(s))
    assert [mask for mask, _ in pairs] == [s.full_mask]


def test_sectionable_opens_empty_source():
    s = sierpinski()
    f = CMap(empty_space(), s, [])
    assert _sectionable_opens(f) == []
    assert sec(f).value == INF


def test_sectionable_opens_projection_from_config_space():
    pairs = _sectionable_opens(_pi21(sierpinski()))
    assert [mask for mask, _ in pairs] == [0b01]


def test_sec_examples():
    s = sierpinski()
    assert sec(identity_map(s)).value == ExtNat(1)
    assert sec(_pi21(discrete_space(2))).value == ExtNat(1)
    result = sec(_pi21(s))
    assert result.value == INF
    assert result.uncovered_point == 1
    assert result.certificate is None


def test_secat_le_sec_and_identity():
    s = sierpinski()
    assert secat(identity_map(s)).value == ExtNat(1)
    for space in census_up_to(3):
        f = _pi21(space)
        assert secat(f).value <= sec(f).value


def test_secat_of_constant_equals_cat_of_connected_target():
    point = make_space(1, [])
    c = pseudocircle()
    result = secat(constant_map(point, c, 0))
    assert result.value == ExtNat(2)
    assert result.certificate.verify()
    assert sec(constant_map(point, c, 0)).value == INF


def test_sec_secat_against_brute_force():
    gen = InstanceGenerator("sectional-oracle")
    for _ in range(40):
        source = gen.space(3)
        target = gen.space(3)
        f = gen.cmap(source, target)
        assert sec(f).value == brute_sec(f, "section"), f
        assert secat(f).value == brute_sec(f, "homotopy"), f


def test_random_certificates_all_verify():
    gen = InstanceGenerator("certificates")
    verified = 0
    for _ in range(60):
        source = gen.space(3)
        target = gen.space(3)
        f = gen.cmap(source, target)
        for result in (sec(f), secat(f)):
            if result.certificate is not None:
                assert result.certificate.verify()
                verified += 1
        e, b, x = gen.space(3), gen.space(3), gen.space(3)
        p, g = gen.cmap(e, b), gen.cmap(x, b)
        lifted = relative_sec(p, g, route="lift")
        if lifted.certificate is not None:
            assert lifted.certificate.verify()
            verified += 1
    assert verified > 50


def test_certificates_verify_and_serialize():
    s = sierpinski()
    result = sec(identity_map(s))
    cert = result.certificate
    assert cert.verify()
    blob = cert.to_json_dict()
    assert blob["schema"] == "secnum.cover-certificate/1"
    assert blob["mode"] == "section"
    assert blob["cover"] == [3]
    assert all(check["holds"] for check in blob["checks"])


def _check_certificate(result, mode):
    """A finite result carries a certificate of the given mode that verifies,
    with one cover element per unit of value (the empty base excepted, whose
    empty cover counts as 1); an infinite one names an uncovered point."""
    cert = result.certificate
    if cert is None:
        assert not result.value.is_finite and result.uncovered_point is not None
        return
    assert cert.mode == mode
    assert len(cert.cover) == (0 if cert.degenerate else result.value.n)
    assert cert.verify()


def _check_section_modes(f):
    _check_certificate(sec(f), MODE_SECTION)
    _check_certificate(secat(f), MODE_HOMOTOPY)


def test_certificates_verify_on_the_census():
    """Every map between spaces of at most 3 points (the empty one included)
    in the section and homotopy-section modes, and every lift of a map into
    such a space through its two-point configuration projection."""
    spaces = census_up_to(3, include_empty=True)
    for source in spaces:
        for target in spaces:
            for f in enumerate_maps(source, target):
                _check_section_modes(f)
                if target.n:
                    _check_certificate(relative_sec(_pi21(target), f), MODE_LIFT)


@st.composite
def cover_instances(draw):
    """Maps f: E -> B and g: X -> B between random preorders of at most 4
    points."""
    E, B, X = draw(preorders(4)), draw(preorders(4)), draw(preorders(4))
    return draw(continuous_maps(E, B)), draw(continuous_maps(X, B))


@settings(max_examples=100)
@given(cover_instances())
def test_certificates_verify_on_random_preorders(instance):
    p, g = instance
    _check_section_modes(p)
    _check_certificate(relative_sec(p, g), MODE_LIFT)


def test_tampered_certificate_fails():
    s = sierpinski()
    cert = sec(identity_map(s)).certificate
    assert cert.cover == ((0b11, (0, 1)),)
    swapped = CoverCertificate(
        mode=cert.mode,
        base=cert.base,
        cover=((0b11, (1, 1)),),
        context=cert.context,
    )
    with pytest.raises(SelfCheckFailed):
        swapped.verify()


def test_discontinuous_witness_fails_the_self_check():
    """A witness that is no continuous map is a failed self-check, not a
    DiscontinuityError escaping verify."""
    s = sierpinski()
    cert = sec(identity_map(s)).certificate
    swapped = CoverCertificate(
        mode=cert.mode,
        base=cert.base,
        cover=((0b11, (1, 0)),),
        context=cert.context,
    )
    with pytest.raises(SelfCheckFailed, match="not a continuous map"):
        swapped.verify()


def _with_witness(cert, images):
    """cert, which must verify, with the images of its one witness replaced."""
    assert len(cert.cover) == 1 and cert.verify()
    ((mask, _),) = cert.cover
    return dataclasses.replace(cert, cover=((mask, images),))


def test_lift_of_another_map_fails_the_self_check():
    """A lift of the identity is no lift of a constant g: lift mode checks
    against g, not against the inclusion."""
    s = sierpinski()
    cert = relative_sec(identity_map(s), constant_map(s, s, 0)).certificate
    assert cert.mode == MODE_LIFT
    tampered = _with_witness(cert, (0, 1))
    with pytest.raises(SelfCheckFailed, match="strict lift"):
        tampered.verify()


def test_non_homotopy_section_fails_the_self_check():
    """A constant self-map of the pseudocircle is no homotopy section of its
    identity, since the pseudocircle is not contractible."""
    c = pseudocircle()
    cert = secat(identity_map(c)).certificate
    assert cert.mode == MODE_HOMOTOPY
    tampered = _with_witness(cert, (0,) * c.n)
    with pytest.raises(SelfCheckFailed, match="homotopy local section"):
        tampered.verify()


def test_one_fence_rule_checks_every_homotopy_witness(monkeypatch):
    """Both homotopy modes ask homotopy_fence for a fence, which Fence
    re-validates step by step, so neither trusts the homotopic search: with
    every module's homotopic answering True, a constant self-map of the
    pseudocircle still fails as a homotopy section of its identity and as a
    contraction of the whole pseudocircle."""
    c = pseudocircle()
    secat_cert = _with_witness(secat(identity_map(c)).certificate, (0,) * c.n)
    cat_cert = CoverCertificate(MODE_CONTRACTION, c, ((c.full_mask, (0,) * c.n),),
                                (identity_map(c),))
    for name, module in list(sys.modules.items()):
        if name.startswith("secnum") and hasattr(module, "homotopic"):
            monkeypatch.setattr(module, "homotopic", lambda f, g, budget=None: True)
    assert homotopy.homotopic(constant_map(c, c, 0), identity_map(c))
    for tampered in (secat_cert, cat_cert):
        with pytest.raises(SelfCheckFailed, match="homotopy local section"):
            tampered.verify()


def test_witness_with_an_out_of_range_image_fails_the_self_check():
    """A witness maps into the source of context[0]; an image past its last
    point is a failed self-check, not a ValueError escaping verify."""
    s = sierpinski()
    for cert in (sec(identity_map(s)).certificate, secat(identity_map(s)).certificate):
        tampered = _with_witness(cert, (0, 2))
        with pytest.raises(SelfCheckFailed, match="out of range"):
            tampered.verify()


def _misfit_context(mode):
    """A certificate that verifies, and a context that does not fit its base:
    for a section certificate of D2 a map into the Sierpinski space, for a
    contraction certificate of D2 the identity of the Sierpinski space, and
    for a lift certificate its p without g."""
    d, s = discrete_space(2), sierpinski()
    if mode == MODE_SECTION:
        return sec(identity_map(d)).certificate, (CMap(d, s, (0, 1)),)
    if mode == MODE_CONTRACTION:
        return cat(d).certificate, (identity_map(s),)
    lift = relative_sec(identity_map(s), identity_map(s)).certificate
    return lift, lift.context[:1]


@pytest.mark.parametrize("mode", [MODE_SECTION, MODE_CONTRACTION, MODE_LIFT])
def test_certificate_context_must_fit_the_base(mode):
    cert, context = _misfit_context(mode)
    assert cert.mode == mode and cert.verify()
    with pytest.raises(SelfCheckFailed, match="context does not fit the base"):
        dataclasses.replace(cert, context=context).verify()


@pytest.mark.parametrize("cover, message", [
    (((0b10, (1,)),), "not open"),
    (((0b01, (0,)), (0b10, (1,))), "not open"),
    (((0b100, (0,)),), "outside the base"),
    (((0b11, (0, 1)), (0b100, (0,))), "outside the base"),
])
def test_cover_elements_must_be_opens_of_the_base(cover, message):
    """In the Sierpinski space U_1 = {0, 1}, so {1} is not open, and it has
    no point 2.  The second and fourth covers exhaust the base with
    witnesses that are sections on their elements."""
    cert = dataclasses.replace(sec(identity_map(sierpinski())).certificate, cover=cover)
    with pytest.raises(SelfCheckFailed, match=message):
        cert.verify()


def test_relative_invariants_need_a_shared_target():
    s, c = sierpinski(), pseudocircle()
    for relative in (relative_sec, relative_secat, relative_tc_bounds):
        with pytest.raises(ValueError, match="share their target"):
            relative(identity_map(s), identity_map(c))


def test_relative_sec_along_identity_is_sec():
    for space in census_up_to(3):
        if space.n == 0:
            continue
        p = _pi21(space)
        assert relative_sec(p, identity_map(space), route="both").value == sec(p).value


def test_relative_sec_along_open_inclusion_restricts():
    s = sierpinski()
    p = _pi21(s)
    sub, incl = subspace(s, [0])
    restricted = relative_sec(p, incl, route="both")
    # over {0} the fiber (0,1) gives a global lift
    assert restricted.value == ExtNat(1)


def test_relative_sec_routes_agree_with_oracle():
    gen = InstanceGenerator("relative-oracle")
    for _ in range(40):
        e, b, x = gen.space(3), gen.space(3), gen.space(3)
        p, g = gen.cmap(e, b), gen.cmap(x, b)
        expected = brute_relative_sec_lift(p, g)
        assert relative_sec(p, g, route="pullback").value == expected
        assert relative_sec(p, g, route="lift").value == expected


def test_relative_sec_degenerate_empty_base():
    s = sierpinski()
    g = CMap(empty_space(), s, [])
    result = relative_sec(_pi21(s), g, route="both")
    assert result.value == ExtNat(1)
    assert result.degenerate
    assert result.certificate.verify()


def test_relative_secat_bounds():
    gen = InstanceGenerator("relative-secat")
    for _ in range(25):
        e, b, x = gen.space(3), gen.space(3), gen.space(3)
        p, g = gen.cmap(e, b), gen.cmap(x, b)
        assert relative_secat(p, g).value <= relative_sec(p, g, route="pullback").value


def test_relative_constant_g_with_identity_p():
    s = sierpinski()
    point = make_space(1, [])
    g = constant_map(point, s, 1)
    assert relative_sec(identity_map(s), g, route="both").value == ExtNat(1)


def test_lift_certificate_mode_and_verification():
    d = discrete_space(2)
    result = relative_sec(_pi21(d), identity_map(d), route="lift")
    assert result.value == ExtNat(1)
    assert result.certificate.mode == "lift"
    assert result.certificate.verify()


def test_relative_sec_both_routes_certifies_with_lifts():
    d = discrete_space(2)
    result = relative_sec(_pi21(d), identity_map(d), route="both")
    assert result.value == ExtNat(1)
    assert result.certificate.mode == "lift"
    assert result.certificate.verify()


def test_relative_sec_on_sixteen_points():
    """Opens are listed without a size cap: the twice-subdivided pseudocircle
    has 16 points."""
    sd2c = _subdivision(_subdivision(pseudocircle()))
    assert sd2c.n == 16
    result = relative_sec(_pi21(sd2c), identity_map(sd2c), route="both")
    assert result.value == ExtNat(1)
    assert result.certificate.verify()


def test_relative_sec_of_the_twice_subdivided_chain_onto_the_sierpinski_space():
    """g: 3-chain -> S, g = (0, 0, 1), has CP; relsec(pi_{2,1}, sd^2 g) over
    the 25 points of sd^2 of the chain is 2, within 10**4 nodes: the cover
    search over the maximal points (BENCH_31.json) takes a few hundred."""
    g = make_map(make_space(3, [(1, 0), (2, 1)]), sierpinski(), [0, 0, 1])
    sd2g = _subdivide_map(_subdivide_map(g))
    assert (sd2g.source.n, sd2g.target.n) == (25, 5)
    result = relative_sec(_pi21(sd2g.target), sd2g, budget=Budget(10_000))
    assert result.value == ExtNat(2)
    assert result.certificate.verify()


def test_relative_sec_defaults_to_the_lift_route():
    """The default route is the definition: a cover by opens over which g lifts
    through p, certified in lift mode, agreeing with the pullback route."""
    gen = InstanceGenerator("default-route")
    finite = 0
    for _ in range(40):
        e, b, x = gen.space(3), gen.space(3), gen.space(3)
        p, g = gen.cmap(e, b), gen.cmap(x, b)
        result = relative_sec(p, g)
        by_pullback = relative_sec(p, g, route="pullback")
        assert result.value == by_pullback.value
        assert result.uncovered_point == by_pullback.uncovered_point
        if result.value.is_finite:
            finite += 1
            assert result.certificate.mode == "lift"
            assert result.certificate.context == (p, g)
            assert result.certificate.verify()
    assert finite > 0


def test_tc_bounds_run_one_relative_sec_search():
    gen = InstanceGenerator("tc-nodes")
    instances = [(_pi21(pseudocircle()), identity_map(pseudocircle()))]
    for _ in range(20):
        e, y, x = gen.space(3), gen.space(3), gen.space(3)
        instances.append((gen.cmap(e, y), gen.cmap(x, y)))
    for f, g in instances:
        by_bounds, by_lift = Budget(10**6), Budget(10**6)
        relative_tc_bounds(f, g, budget=by_bounds)
        relative_sec(f, g, route="lift", budget=by_lift)
        assert by_bounds.remaining == by_lift.remaining


def test_tc_bounds_contractible_exact():
    s = sierpinski()
    bounds = relative_tc_bounds(identity_map(s), identity_map(s))
    assert bounds.exact and bounds.domain_contractible
    assert bounds.lower == bounds.upper == ExtNat(1)
    assert bounds.to_json_dict()["upper"] == 1


def test_tc_bounds_noncontractible_unknown_upper():
    c = pseudocircle()
    bounds = relative_tc_bounds(identity_map(c), identity_map(c))
    assert not bounds.exact and bounds.upper is None
    assert bounds.lower == relative_sec(identity_map(c), identity_map(c)).value
    assert bounds.to_json_dict()["upper"] == "unknown"


def test_commuting_triangle_monotonicity():
    gen = InstanceGenerator("triangle")
    for _ in range(30):
        w, x, y = gen.space(3), gen.space(3), gen.space(3)
        h = gen.cmap(w, x)
        f = gen.cmap(x, y)
        f_prime = compose(f, h)
        assert sec(f_prime).value >= sec(f).value
        assert secat(f_prime).value >= secat(f).value


def test_product_with_identity_preserves_sec():
    s = sierpinski()
    p = _pi21(s)
    z = make_space(2, [(1, 0)])
    zc, _, _ = product(z, p.source)
    zy, _, _ = product(z, p.target)
    crossed = CMap(
        zc, zy,
        [(i // p.source.n) * p.target.n + p(i % p.source.n) for i in range(zc.n)],
    )
    assert sec(crossed).value == sec(p).value == INF
    assert secat(crossed).value == secat(p).value


# --- regressions for the asymmetry of pullbacks ---------------------------


def test_canonical_pullback_can_strictly_drop_secat():
    point = make_space(1, [])
    c = pseudocircle()
    p = constant_map(point, c, 0)
    g = constant_map(point, c, 0)
    _, to_base, _ = pullback(p, g)
    assert secat(p).value == ExtNat(2)
    assert secat(to_base).value == ExtNat(1)
    assert sec(to_base).value <= sec(p).value


def test_canonical_pullback_can_strictly_raise_secat():
    # cone over the circle model: contractible, category 1
    cone = make_space(5, [(2, 0), (2, 1), (3, 0), (3, 1), (0, 4), (1, 4), (2, 4), (3, 4)])
    assert is_contractible(cone)
    circle = pseudocircle()
    include = make_map(circle, cone, [0, 1, 2, 3])
    point = make_space(1, [])
    p = constant_map(point, cone, 0)
    assert secat(p).value == ExtNat(1)
    _, to_base, _ = pullback(p, include)
    assert secat(to_base).value == ExtNat(2)
    # sectional-number monotonicity still holds on the same square
    assert sec(to_base).value <= sec(p).value


def test_relative_secat_not_invariant_under_homotopy_of_g():
    """Known counterexample: homotopy invariance in the g slot needs a
    homotopy lifting property that finite projections generally lack."""
    s = sierpinski()
    point = make_space(1, [])
    p = constant_map(point, s, 0)
    g0 = constant_map(point, s, 0)
    g1 = constant_map(point, s, 1)
    assert homotopic(g0, g1)
    assert relative_secat(p, g0).value == ExtNat(1)
    assert relative_secat(p, g1).value == INF


def test_relative_secat_not_invariant_with_both_pullbacks_nonempty():
    """The failure of invariance is not only an empty pullback: here both
    pullbacks are nonempty, so no nonempty-pullback gate rescues the claim."""
    point = make_space(1, [])
    indiscrete = make_space(3, [(i, j) for i in range(3) for j in range(3)])
    d2 = discrete_space(2)
    p = constant_map(point, indiscrete, 2)
    g = make_map(d2, indiscrete, (2, 0))
    g_prime = make_map(d2, indiscrete, (2, 2))
    assert homotopic(g, g_prime)
    assert pullback(p, g)[0].n > 0 and pullback(p, g_prime)[0].n > 0
    assert relative_secat(p, g).value == INF
    assert relative_secat(p, g_prime).value == ExtNat(1)


def test_secat_le_cat_needs_connected_target():
    # pinned counterexample for the unrestricted inequality
    point = make_space(1, [])
    d2 = discrete_space(2)
    f = constant_map(point, d2, 0)
    assert secat(f).value == INF
    assert cat(d2).value == ExtNat(2)
    # and the gated form holds on connected targets
    gen = InstanceGenerator("secat-cat-gate")
    checked = 0
    for _ in range(60):
        x, y = gen.space(3), gen.space(3)
        from secnum.finspace import is_connected

        if not is_connected(y):
            continue
        f = gen.cmap(x, y)
        assert secat(f).value <= cat(y).value
        checked += 1
    assert checked > 10


def _spaces_built(call):
    """How many FinSpace objects call() constructs, counted at
    FinSpace.__init__ and FinSpace._from_rows; the caches of constructed
    spaces are emptied first, so that no hit hides a construction."""
    for cache in (homotopy.core, product, configuration_space):
        cache.cache_clear()
    built = []
    init, from_rows = FinSpace.__init__, FinSpace._from_rows

    def counted_init(self, *args, **kwargs):
        built.append("__init__")
        init(self, *args, **kwargs)

    def counted_from_rows(cls, *args, **kwargs):
        built.append("_from_rows")
        return from_rows(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FinSpace, "__init__", counted_init)
        patch.setattr(FinSpace, "_from_rows", classmethod(counted_from_rows))
        call()
    return len(built)


@settings(max_examples=40, deadline=None)
@given(posets(6), st.data())
def test_homotopy_searches_build_no_space_but_a_pullback(Y, data):
    """cat, secat and nullhomotopy_target search on point masks of the
    spaces they are given and build none; relative_secat builds exactly one
    space, its pullback."""
    f = data.draw(continuous_maps(data.draw(posets(3)), Y))
    g = data.draw(continuous_maps(data.draw(posets(4)), Y))
    assert _spaces_built(lambda: cat(Y)) == 0
    assert _spaces_built(lambda: secat(f)) == 0
    assert _spaces_built(lambda: nullhomotopy_target(f)) == 0
    assert _spaces_built(lambda: relative_secat(f, g)) == 1
