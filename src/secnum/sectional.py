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
and the lift test run on that mask (_homotopy_section_test, which computes
the core of the target and the fibers it lifts through once per search).

On a disconnected base each value is the maximum of its values on the
connected components: a component is open and closed, so local sections,
lifts and fences found on the pieces of an open glue into one on the open.
cover.min_good_cover tests the whole base first and otherwise covers each
component on its own, and element j of the cover is the union of element j
of the components' covers.

Every answer is a cover.CoverResult; the good-open tests return bare
assignments, which its certificate keeps as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cover import MODE_HOMOTOPY, MODE_LIFT, MODE_SECTION, CoverResult, _cover_result
from .extnat import ExtNat
from .finspace import CMap, _bits, fiber_masks, first_lift, identity_map, pullback
from .homotopy import _component_bfs, _core_mask, core, is_contractible
from .resources import Budget, SelfCheckFailed, shared_search


def _lift_test(p: CMap, g: CMap, budget: Budget):
    """is_good for the opens of the source of g over which g lifts strictly
    through p; the witness is the lift's assignment on the open's points, in
    ascending order."""
    fibers = fiber_masks(p.assignment, p.target.n)
    X, E, images = g.source, p.source, g.assignment
    return lambda mask: first_lift(X, E, fibers, images, budget, mask)


def _homotopy_section_test(f: CMap, budget: Budget):
    """is_good for the opens U of the target Y of f over which some s has
    compose(f, s) homotopic to the inclusion of U; the witness is the
    assignment of s on the open's points, in ascending order.

    Works in compressed map space, on point masks of Y: s exists over U
    exactly when some map in the fence component of the inclusion of core(U)
    into core(Y) lifts strictly through the composite of f with the
    retraction of Y onto its core.  Then s(u) = lift(r(u)), where r retracts
    U onto its core.  core(Y), its retraction and the fibers of the composite
    are fixed for the whole search, so they are computed once.
    """
    Y, E = f.target, f.source
    y_core = core(Y)
    retraction = y_core.retraction.assignment
    fibers = fiber_masks([retraction[fy] for fy in f.assignment], y_core.space.n)

    def is_good(mask: int) -> tuple[int, ...] | None:
        cmask, r, _ = _core_mask(Y, mask)
        points = list(_bits(cmask))
        start = tuple(retraction[p] for p in points)
        images = [0] * Y.n
        found = {}

        def try_lift(t) -> bool:
            for p, b in zip(points, t):
                images[p] = b
            found["lift"] = first_lift(Y, E, fibers, images, budget, cmask)
            return found["lift"] is not None

        hit, _ = _component_bfs(Y, y_core.space, start, budget, stop=try_lift, mask=cmask)
        if hit is None:
            return None
        lift = dict(zip(points, found["lift"]))
        return tuple(lift[r[u]] for u in _bits(mask))

    return is_good


def sec(f: CMap, budget: Budget | int | None = None) -> CoverResult:
    """Minimum open cover of the target by strictly sectionable opens."""
    budget = Budget.ensure(budget)
    return shared_search(("sec", f), budget, lambda: _cover_result(
        f.target, MODE_SECTION, _lift_test(f, identity_map(f.target), budget), (f,), budget))


def secat(f: CMap, budget: Budget | int | None = None) -> CoverResult:
    """Minimum open cover of the target by homotopy-sectionable opens."""
    budget = Budget.ensure(budget)
    return shared_search(("secat", f), budget, lambda: _cover_result(
        f.target, MODE_HOMOTOPY, _homotopy_section_test(f, budget), (f,), budget))


def _check_shared_target(p: CMap, g: CMap) -> None:
    """The precondition of every relative invariant of p along g."""
    if p.target != g.target:
        raise ValueError("relative invariants need p and g to share their target")


def _relative_sec_lift(p: CMap, g: CMap, budget: Budget) -> CoverResult:
    """The lift route of relative_sec, searched without a memo lookup."""
    return _cover_result(g.source, MODE_LIFT, _lift_test(p, g, budget), (p, g), budget)


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
    if route == "pullback":
        return sec(pullback(p, g)[1], budget)
    result = shared_search(("relative_sec", p, g), budget,
                           lambda: _relative_sec_lift(p, g, budget))
    if route == "both":
        pullback_value = sec(pullback(p, g)[1], budget).value
        if pullback_value != result.value:
            raise SelfCheckFailed(
                f"pullback route gives {pullback_value} but lift route gives {result.value}")
    return result


def relative_secat(p: CMap, g: CMap, budget: Budget | int | None = None) -> CoverResult:
    """Sectional category of the canonical pullback of p along g."""
    _check_shared_target(p, g)
    budget = Budget.ensure(budget)
    return shared_search(("relative_secat", p, g), budget,
                         lambda: secat(pullback(p, g)[1], budget))


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
