"""Sectional numbers, sectional category and their relative versions.

sec(f) is the least size of an open cover of the target such that every cover
element admits a strict local section of f; secat(f) relaxes the section
equation to hold up to homotopy.  The sectional number of p: E -> B relative
to g: X -> B is the least size of an open cover of X whose elements admit
strict lifts of g through p.  A section of f is a lift of the identity, so sec
and relative_sec share one lift test (finspace.first_lift on a point mask of
the base, so no subspace is built per candidate open), and every value comes
out of one cover pipeline (cover.min_good_cover).  relative_sec computes
the lift route by default; its pullback route, the sectional number of the
pulled-back projection onto X, is an independent algorithm for the same value
and is kept as the cross-check.  relative_secat takes the pullback route.

secat's good-open test works the same way on homotopy: the candidate open
is reduced to its core on a point mask of the target, and the fence search
and the lift test run on that mask (_homotopy_section_witness).

On a disconnected base each value is the maximum of its values on the
connected components: a component is open and closed, so local sections,
lifts and fences found on the pieces of an open glue into one on the open.
cover.min_good_cover tests the whole base first and otherwise covers each
component on its own, and element j of the cover is the union of element j
of the components' covers.

Every finite answer carries a certificate (the cover and one witness map per
element) that re-validates independently of the search that produced it.
The good-open tests return bare assignments, and a result keeps the chosen
(mask, assignment) pairs as they are: the cover's open sets, the
cover-element subspaces and the witness maps are built the first time
CoverResult.certificate is read, so a caller that reads only the value
builds none of them.  CoverCertificate.verify rebuilds each subspace itself.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .cover import min_good_cover
from .extnat import INF, ExtNat
from .finspace import (
    CMap,
    FinSpace,
    OpenSet,
    _bits,
    compose,
    fiber_masks,
    first_lift,
    identity_map,
    pullback,
    subspace_of_mask,
)
from .homotopy import _component_bfs, _core_mask, core, homotopic, is_contractible
from .resources import Budget, SelfCheckFailed, shared_search

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
    into the source of p.  A section of f is a lift of the identity of the
    base, so 'section' and 'lift' are checked by one strict-lift equation.
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
            try:
                CMap(witness.source, witness.target, witness.assignment, validate=True)
            except ValueError as exc:  # DiscontinuityError or an out-of-range image
                raise SelfCheckFailed(f"witness is not a continuous map: {exc}") from exc
            sub, incl = subspace_of_mask(self.base, element.mask)
            if witness.source != sub:
                raise SelfCheckFailed("witness domain is not the cover element subspace")
            p = self.context[0]
            if witness.target != p.source:
                raise SelfCheckFailed("witness maps into the wrong space")
            composite = compose(p, witness)
            if self.mode == MODE_HOMOTOPY:
                if not homotopic(composite, incl, budget):
                    raise SelfCheckFailed("witness is not a homotopy local section")
            else:
                # a section is a strict lift of the identity of the base
                g = self.context[1].assignment if self.mode == MODE_LIFT else range(self.base.n)
                if composite.assignment != tuple(g[u] for u in incl.assignment):
                    raise SelfCheckFailed("witness is not a strict lift through the map")
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


@dataclass(frozen=True, eq=False, repr=False)
class CoverResult:
    """Value of a covering invariant plus its audit trail.

    uncovered_point witnesses an Infinite answer: that point of the base lies
    in no qualifying open.  degenerate marks the empty-base convention (the
    empty family covers the empty base; reported as 1).  A finite result
    keeps its mode, base and context, and its cover as chosen, the
    (mask, witness assignment) pairs, each assignment listing the images of
    the open's points in ascending order in the source of context[0].
    certificate builds the CoverCertificate from them the first time it is
    read, and then drops chosen, which the certificate holds; it is None for
    an Infinite value, which keeps none of them.  Equality, hashing and repr
    go through the certificate, as for a result that stored one."""

    value: ExtNat
    uncovered_point: int | None = None
    degenerate: bool = False
    mode: str | None = None
    base: FinSpace | None = None
    context: tuple[CMap, ...] = ()
    chosen: tuple[tuple[int, tuple[int, ...]], ...] = ()

    @functools.cached_property
    def certificate(self) -> CoverCertificate | None:
        if not self.value.is_finite:
            return None
        base, chosen = self.base, self.chosen
        total = self.context[0].source
        # the subspace on every point of the base is the base itself
        certificate = CoverCertificate(
            self.mode,
            base,
            tuple(OpenSet(base, mask) for mask, _ in chosen),
            tuple(CMap(base if mask == base.full_mask else subspace_of_mask(base, mask)[0],
                       total, witness, validate=False)
                  for mask, witness in chosen),
            self.context,
            self.degenerate,
        )
        object.__setattr__(self, "chosen", ())
        return certificate

    def _key(self):
        return self.value, self.certificate, self.uncovered_point, self.degenerate

    def __eq__(self, other):
        if not isinstance(other, CoverResult):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"CoverResult(value={self.value!r}, certificate={self.certificate!r}, "
                f"uncovered_point={self.uncovered_point!r}, degenerate={self.degenerate!r})")

    def to_json_dict(self) -> dict:
        return {
            "value": self.value.to_json(),
            "degenerate": self.degenerate,
            "uncovered_point": self.uncovered_point,
            "certificate": None if self.certificate is None else self.certificate.to_json_dict(),
        }


def _lift_test(p: CMap, g: CMap, budget: Budget):
    """is_good for the opens of the source of g over which g lifts strictly
    through p; the witness is the lift's assignment on the open's points, in
    ascending order."""
    fibers = fiber_masks(p.assignment, p.target.n)
    X, E, images = g.source, p.source, g.assignment
    return lambda mask: first_lift(X, E, fibers, images, budget, mask)


def _homotopy_section_witness(f: CMap, mask: int, budget: Budget) -> tuple[int, ...] | None:
    """Assignment of a witness s with compose(f, s) homotopic to the inclusion
    of the open.

    Works in compressed map space, on point masks of the target Y of f: s
    exists over U exactly when some map in the fence component of the
    inclusion of core(U) into core(Y) lifts strictly through the composite of
    f with the retraction of Y onto its core.  Then s(u) = lift(r(u)), where
    r retracts U onto its core.
    """
    Y = f.target
    y_core = core(Y)
    retraction = y_core.retraction.assignment
    cmask, r, _ = _core_mask(Y, mask)
    points = list(_bits(cmask))
    start = tuple(retraction[p] for p in points)
    fibers = fiber_masks([retraction[fy] for fy in f.assignment], y_core.space.n)
    images = [0] * Y.n
    found = {}

    def try_lift(t) -> bool:
        for p, b in zip(points, t):
            images[p] = b
        found["lift"] = first_lift(Y, f.source, fibers, images, budget, cmask)
        return found["lift"] is not None

    hit, _ = _component_bfs(Y, y_core.space, start, budget, stop=try_lift, mask=cmask)
    if hit is None:
        return None
    lift = dict(zip(points, found["lift"]))
    return tuple(lift[r[u]] for u in _bits(mask))


def _cover_result(base: FinSpace, mode: str, is_good, context, budget: Budget) -> CoverResult:
    """Cover result from is_good witnesses, which are assignments on the
    open's points into the source of context[0]; the result keeps them as
    they are, and builds the certificate only when it is read."""
    context = tuple(context)
    if base.n == 0:
        return CoverResult(ExtNat(1), degenerate=True, mode=mode, base=base, context=context)
    chosen, uncovered = min_good_cover(base, is_good, budget)
    if chosen is None:
        return CoverResult(INF, uncovered_point=uncovered)
    return CoverResult(ExtNat(len(chosen)), mode=mode, base=base, context=context,
                       chosen=tuple(chosen))


def sec(f: CMap, budget: Budget | int | None = None) -> CoverResult:
    """Minimum open cover of the target by strictly sectionable opens."""
    budget = Budget.ensure(budget)
    return shared_search(("sec", f), budget, lambda: _cover_result(
        f.target, MODE_SECTION, _lift_test(f, identity_map(f.target), budget), (f,), budget))


def secat(f: CMap, budget: Budget | int | None = None) -> CoverResult:
    """Minimum open cover of the target by homotopy-sectionable opens."""
    budget = Budget.ensure(budget)
    return shared_search(("secat", f), budget, lambda: _cover_result(
        f.target, MODE_HOMOTOPY, lambda mask: _homotopy_section_witness(f, mask, budget),
        (f,), budget))


def _check_shared_target(p: CMap, g: CMap) -> None:
    """The precondition of every relative invariant of p along g."""
    if p.target != g.target:
        raise ValueError("relative invariants need p and g to share their target")


def relative_sec(p: CMap, g: CMap, route: str = "lift",
                 budget: Budget | int | None = None) -> CoverResult:
    """Sectional number of p relative to g: the least size of an open cover
    of the base of g whose elements admit strict lifts of g through p.

    route='lift' searches those covers directly; route='pullback' measures the
    sectional number of the canonical pullback projection onto the base of g,
    an independent algorithm for the same value.  route='both' computes both,
    insists they match, and returns the lift-route result.
    """
    _check_shared_target(p, g)
    budget = Budget.ensure(budget)
    if route not in ("pullback", "lift", "both"):
        raise ValueError(f"unknown route {route!r}")
    result_pb = result_lift = None
    if route in ("pullback", "both"):
        result_pb = sec(pullback(p, g)[1], budget)
    if route in ("lift", "both"):
        result_lift = _cover_result(g.source, MODE_LIFT, _lift_test(p, g, budget), (p, g), budget)
    if route == "pullback":
        return result_pb
    if route == "both" and result_pb.value != result_lift.value:
        raise SelfCheckFailed(
            f"pullback route gives {result_pb.value} but lift route gives {result_lift.value}"
        )
    return result_lift


def relative_secat(p: CMap, g: CMap, budget: Budget | int | None = None) -> CoverResult:
    """Sectional category of the canonical pullback of p along g."""
    _check_shared_target(p, g)
    return secat(pullback(p, g)[1], budget)


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
    lower = relative_sec(f, g, budget=budget).value
    contractible = is_contractible(f.source)
    return TcBounds(lower=lower, upper=lower if contractible else None, exact=contractible,
                    domain_contractible=contractible)
