"""Sectional numbers, sectional category and their relative versions.

sec(f) is the least size of an open cover of the target such that every cover
element admits a strict local section of f; secat(f) relaxes the section
equation to hold up to homotopy.  The relative versions pull a map p: E -> B
back along g: X -> B and measure the pulled-back projection over X; by the
lifting characterisation this equals the least open cover of X whose elements
admit strict lifts of g through p.  Both routes are implemented and checked
against each other.

Every finite answer carries a certificate (the cover and one witness map per
element) that re-validates independently of the search that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cover import exact_min_cover, find_maximal_good_opens
from .extnat import INF, ExtNat
from .finspace import (
    CMap,
    FinSpace,
    OpenSet,
    _bits,
    compose,
    iter_assignments,
    pullback,
    subspace_of_mask,
)
from .homotopy import _component_bfs, _compress, core, homotopic, is_contractible
from .resources import Budget, SelfCheckFailed

MODE_SECTION = "section"
MODE_HOMOTOPY = "homotopy-section"
MODE_LIFT = "lift"

CERTIFICATE_SCHEMA = "secnum.cover-certificate/1"

_EQUATIONS = {
    MODE_SECTION: "compose(f, witness) == inclusion",
    MODE_HOMOTOPY: "compose(f, witness) homotopic to inclusion",
    MODE_LIFT: "compose(p, witness) == restriction of g",
}


@dataclass(frozen=True)
class CoverCertificate:
    """An open cover of the base plus one witness map per element.

    mode 'section' or 'homotopy-section': context is (f,), witnesses are maps
    from the cover-element subspace into the source of f.  mode 'lift':
    context is (p, g), witnesses map cover-element subspaces of the base of g
    into the source of p.
    """

    mode: str
    base: FinSpace
    cover: tuple[OpenSet, ...]
    witnesses: tuple[CMap, ...]
    context: tuple[CMap, ...]
    degenerate: bool = False

    def verify(self, budget: Budget | int | None = None) -> bool:
        budget = Budget.ensure(budget)
        if self.mode not in _EQUATIONS:
            raise SelfCheckFailed(f"unknown mode {self.mode!r}")
        union = 0
        for element in self.cover:
            if element.space != self.base:
                raise SelfCheckFailed("cover element lives on the wrong space")
            union |= element.mask
        if self.degenerate:
            if self.base.n != 0 or self.cover:
                raise SelfCheckFailed("degenerate certificate must be an empty cover of the empty base")
            return True
        if union != self.base.full_mask:
            raise SelfCheckFailed("cover does not exhaust the base")
        if len(self.cover) != len(self.witnesses):
            raise SelfCheckFailed("one witness per cover element is required")
        for element, witness in zip(self.cover, self.witnesses):
            # re-validate continuity independently of the search
            CMap(witness.source, witness.target, witness.assignment, validate=True)
            sub, incl = subspace_of_mask(self.base, element.mask)
            if witness.source != sub:
                raise SelfCheckFailed("witness domain is not the cover element subspace")
            if self.mode in (MODE_SECTION, MODE_HOMOTOPY):
                (f,) = self.context
                if witness.target != f.source:
                    raise SelfCheckFailed("witness target is not the section source")
                composite = compose(f, witness)
                if self.mode == MODE_SECTION:
                    if composite.assignment != incl.assignment:
                        raise SelfCheckFailed("witness is not a strict local section")
                elif not homotopic(composite, incl, budget):
                    raise SelfCheckFailed("witness is not a homotopy local section")
            else:
                p, g = self.context
                if witness.target != p.source:
                    raise SelfCheckFailed("witness target is not the lift source")
                got = compose(p, witness).assignment
                expected = tuple(g(u) for u in incl.assignment)
                if got != expected:
                    raise SelfCheckFailed("witness is not a lift of g through p")
        return True

    def to_json_dict(self) -> dict:
        return {
            "schema": CERTIFICATE_SCHEMA,
            "mode": self.mode,
            "base_points": self.base.n,
            "degenerate": self.degenerate,
            "cover": [element.mask for element in self.cover],
            "cover_members": [list(element.members) for element in self.cover],
            "witnesses": [list(w.assignment) for w in self.witnesses],
            "checks": [
                {"element": element.mask, "equation": _EQUATIONS[self.mode], "holds": True}
                for element in self.cover
            ],
        }


@dataclass(frozen=True)
class CoverResult:
    """Value of a covering invariant plus its audit trail.

    uncovered_point witnesses an Infinite answer: that point of the base lies
    in no qualifying open.  degenerate marks the empty-base convention (the
    empty family covers the empty base; reported as 1)."""

    value: ExtNat
    certificate: CoverCertificate | None
    uncovered_point: int | None = None
    degenerate: bool = False

    def to_json_dict(self) -> dict:
        return {
            "value": self.value.to_json(),
            "degenerate": self.degenerate,
            "uncovered_point": self.uncovered_point,
            "certificate": None if self.certificate is None else self.certificate.to_json_dict(),
        }


def _fiber_masks(f: CMap) -> list[int]:
    fibers = [0] * f.target.n
    for x, fx in enumerate(f.assignment):
        fibers[fx] |= 1 << x
    return fibers


def _section_witness(f: CMap, mask: int, fibers, budget: Budget) -> CMap | None:
    sub, incl = subspace_of_mask(f.target, mask)
    domains = [fibers[u] for u in incl.assignment]
    if 0 in domains:
        return None
    for assignment in iter_assignments(sub, f.source, domains, budget, order="mcf"):
        return CMap(sub, f.source, assignment, validate=False)
    return None


def _homotopy_section_witness(f: CMap, mask: int, budget: Budget) -> CMap | None:
    """Witness s with compose(f, s) homotopic to the inclusion of the open.

    Works in compressed map space: s exists over U exactly when some map in
    the fence component of the (core-compressed) inclusion lifts strictly
    through the compressed composite of f with the target's core retraction.
    """
    Y = f.target
    sub, incl = subspace_of_mask(Y, mask)
    if sub.n == 0:
        return None
    sub_core, y_core = core(sub), core(Y)
    start = _compress(incl, sub_core, y_core)
    retraction = y_core.retraction.assignment
    compressed_f = [retraction[fy] for fy in f.assignment]
    fibers = [0] * y_core.space.n
    for x, c in enumerate(compressed_f):
        fibers[c] |= 1 << x
    found = {}

    def try_lift(t) -> bool:
        domains = [fibers[c] for c in t]
        if 0 in domains:
            return False
        for assignment in iter_assignments(sub_core.space, f.source, domains, budget, order="mcf"):
            found["lift"] = assignment
            return True
        return False

    hit, _ = _component_bfs(sub_core.space, y_core.space, start, budget, stop=try_lift)
    if hit is None:
        return None
    core_section = CMap(sub_core.space, f.source, found["lift"], validate=False)
    return compose(core_section, sub_core.retraction)


def sectionable_opens(f: CMap, mode: str = MODE_SECTION,
                      budget: Budget | int | None = None):
    """Maximal opens of the target admitting a (homotopy) local section of f.

    Returns [(OpenSet, witness CMap), ...]; both section properties are closed
    under shrinking opens, so these maximal elements generate all candidates.
    """
    budget = Budget.ensure(budget)
    Y = f.target
    if mode == MODE_SECTION:
        fibers = _fiber_masks(f)

        def is_good(mask: int):
            return _section_witness(f, mask, fibers, budget)

    elif mode == MODE_HOMOTOPY:

        def is_good(mask: int):
            return _homotopy_section_witness(f, mask, budget)

    else:
        raise ValueError(f"unknown mode {mode!r}")
    return [
        (OpenSet(Y, mask), witness)
        for mask, witness in find_maximal_good_opens(Y, is_good)
    ]


def liftable_opens(p: CMap, g: CMap, budget: Budget | int | None = None):
    """Maximal opens U of the base of g with a strict lift of g through p."""
    if p.target != g.target:
        raise ValueError("lift search needs p and g to share their target")
    budget = Budget.ensure(budget)
    X = g.source
    fibers = _fiber_masks(p)

    def is_good(mask: int):
        sub, incl = subspace_of_mask(X, mask)
        domains = [fibers[g(u)] for u in incl.assignment]
        if 0 in domains:
            return None
        for assignment in iter_assignments(sub, p.source, domains, budget, order="mcf"):
            return CMap(sub, p.source, assignment, validate=False)
        return None

    return [
        (OpenSet(X, mask), witness)
        for mask, witness in find_maximal_good_opens(X, is_good)
    ]


def _cover_result(base: FinSpace, mode: str, pairs, context, budget: Budget) -> CoverResult:
    if base.n == 0:
        certificate = CoverCertificate(mode, base, (), (), tuple(context), degenerate=True)
        return CoverResult(ExtNat(1), certificate, degenerate=True)
    masks = [element.mask for element, _ in pairs]
    union = 0
    for m in masks:
        union |= m
    if union != base.full_mask:
        missing = base.full_mask & ~union
        return CoverResult(INF, None, uncovered_point=next(_bits(missing)))
    chosen = exact_min_cover(base.full_mask, masks, budget)
    certificate = CoverCertificate(
        mode,
        base,
        tuple(pairs[i][0] for i in chosen),
        tuple(pairs[i][1] for i in chosen),
        tuple(context),
    )
    return CoverResult(ExtNat(len(chosen)), certificate)


def sec(f: CMap, budget: Budget | int | None = None) -> CoverResult:
    """Minimum open cover of the target by strictly sectionable opens."""
    budget = Budget.ensure(budget)
    pairs = sectionable_opens(f, MODE_SECTION, budget) if f.target.n else []
    return _cover_result(f.target, MODE_SECTION, pairs, (f,), budget)


def secat(f: CMap, budget: Budget | int | None = None) -> CoverResult:
    """Minimum open cover of the target by homotopy-sectionable opens."""
    budget = Budget.ensure(budget)
    pairs = sectionable_opens(f, MODE_HOMOTOPY, budget) if f.target.n else []
    return _cover_result(f.target, MODE_HOMOTOPY, pairs, (f,), budget)


def relative_sec(p: CMap, g: CMap, route: str = "both",
                 budget: Budget | int | None = None) -> CoverResult:
    """Sectional number of p relative to g.

    route='pullback' measures the canonical pullback projection onto the base
    of g; route='lift' covers that base by opens admitting strict lifts of g
    through p.  The two agree on every instance; route='both' computes both,
    insists they match, and returns the pullback-route result.
    """
    if p.target != g.target:
        raise ValueError("relative invariants need p and g to share their target")
    budget = Budget.ensure(budget)
    if route not in ("pullback", "lift", "both"):
        raise ValueError(f"unknown route {route!r}")
    result_pb = result_lift = None
    if route in ("pullback", "both"):
        _, to_base, _ = pullback(p, g)
        result_pb = sec(to_base, budget)
    if route in ("lift", "both"):
        X = g.source
        pairs = liftable_opens(p, g, budget) if X.n else []
        result_lift = _cover_result(X, MODE_LIFT, pairs, (p, g), budget)
    if route == "pullback":
        return result_pb
    if route == "lift":
        return result_lift
    if result_pb.value != result_lift.value:
        raise SelfCheckFailed(
            f"pullback route gives {result_pb.value} but lift route gives {result_lift.value}"
        )
    return result_pb


def relative_secat(p: CMap, g: CMap, budget: Budget | int | None = None) -> CoverResult:
    """Sectional category of the canonical pullback of p along g."""
    if p.target != g.target:
        raise ValueError("relative invariants need p and g to share their target")
    budget = Budget.ensure(budget)
    _, to_base, _ = pullback(p, g)
    return secat(to_base, budget)


@dataclass(frozen=True)
class TcBounds:
    """Certified interval for the motion-planning complexity of f relative to g.

    The lower bound is always the relative sectional number.  When the domain
    of f is contractible the value is exact and equals that bound; otherwise
    the upper bound needs path-space machinery outside the finite model and is
    reported as unknown."""

    lower: ExtNat
    upper: ExtNat | None
    exact: bool
    domain_contractible: bool

    def to_json_dict(self) -> dict:
        return {
            "lower": self.lower.to_json(),
            "upper": "unknown" if self.upper is None else self.upper.to_json(),
            "exact": self.exact,
            "domain_contractible": self.domain_contractible,
        }


def relative_tc_bounds(f: CMap, g: CMap, budget: Budget | int | None = None) -> TcBounds:
    if f.target != g.target:
        raise ValueError("tc bounds need f and g to share their target")
    budget = Budget.ensure(budget)
    lower = relative_sec(f, g, route="both", budget=budget).value
    contractible = is_contractible(f.source, budget)
    if contractible:
        return TcBounds(lower=lower, upper=lower, exact=True, domain_contractible=True)
    return TcBounds(lower=lower, upper=None, exact=False, domain_contractible=False)
