"""Homotopy of maps between finite spaces, cores, contractibility, LS-category.

Two maps between finite spaces are homotopic exactly when a fence connects
them: a chain of continuous maps in which each consecutive pair is pointwise
reach-comparable in a uniform direction.  That classical combinatorial
criterion is the definition used here; it is decided by breadth-first search
over the continuous-map set.

As an independent accelerator and cross-check, spaces are reduced to their
cores by repeatedly collapsing removable points (Stong's beat points: points
whose deletion is a strong deformation retraction; Barmak, LNM 2032).
Homotopy questions are answered on cores and witnesses are lifted back, which
keeps the searched map spaces small; the test suite checks the two
procedures against each other.

A collapse is a decision about points, so core reduction runs on a point mask
of the ambient space and builds one subspace, the final core; a core's stages
are the collapsed pairs of points.  One search decides whether a map is
nullhomotopic, for nullhomotopy_target and for cat's good-open test (the
inclusion of an open): it reduces the map's domain to its core mask and runs
the fence search from that mask into the core of the target, so no subspace
is built per open, and only whole targets go through the core cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cover import min_good_cover
from .extnat import INF, ExtNat
from .finspace import (
    CMap,
    FinSpace,
    OpenSet,
    _bits,
    cached_by_space,
    compose,
    constant_map,
    identity_map,
    iter_assignments,
    subspace_of_mask,
)
from .resources import Budget, SelfCheckFailed


@dataclass(frozen=True)
class Fence:
    """A chain of maps h_0, ..., h_m with uniformly comparable neighbours."""

    steps: tuple[CMap, ...]

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a fence has at least one map")
        src, tgt = self.steps[0].source, self.steps[0].target
        for h in self.steps:
            if h.source != src or h.target != tgt:
                raise ValueError("fence maps must share source and target")
        for a, b in zip(self.steps, self.steps[1:]):
            if not _uniformly_comparable(a, b):
                raise ValueError("consecutive fence maps are not uniformly comparable")

    @property
    def length(self) -> int:
        return len(self.steps) - 1


def _uniformly_comparable(a: CMap, b: CMap) -> bool:
    rows = a.target.reach_rows
    fa, fb = a.assignment, b.assignment
    if all((rows[x] >> y) & 1 for x, y in zip(fa, fb)):
        return True
    return all((rows[y] >> x) & 1 for x, y in zip(fa, fb))


# ---------------------------------------------------------------------------
# core reduction


@dataclass(frozen=True)
class Core:
    """A space's core with the deformation retraction data.

    retraction o inclusion is the identity of the core; inclusion o retraction
    is homotopic to the identity of the space, one collapse per stage.  Each
    stage (x, y) names points of the space: x is removed and sent to y.
    """

    space: FinSpace
    retraction: CMap
    inclusion: CMap
    stages: tuple[tuple[int, int], ...]


def _find_collapse(space: FinSpace, mask: int):
    """First removable pair (x, y) of the subspace on the points of mask, both
    scanned in ascending order: collapsing x onto y is continuous and the two
    points are reach-comparable, so the collapse is a deformation retract."""
    rows, co = space.reach_rows, space.co_rows
    for x in _bits(mask):
        others = mask & ~(1 << x)
        strict_down = rows[x] & others
        strict_up = co[x] & others
        for y in _bits(strict_down | strict_up):
            if strict_down & ~rows[y] or strict_up & ~co[y]:
                continue
            return x, y
    return None


def _core_mask(space: FinSpace, mask: int):
    """Core of the subspace on the points of mask, by collapses on points of
    the space; no subspace is built.

    Returns (core mask, retraction, stages): retraction[p] is the core point
    that p retracts to, for every p in mask, and stages lists the collapses
    (x, y) in order.  These are the collapses of the search on
    subspace_of_mask(space, mask), renamed to points of the space.
    """
    retraction = list(range(space.n))
    stages = []
    while (pair := _find_collapse(space, mask)) is not None:
        x, y = pair
        mask &= ~(1 << x)
        stages.append(pair)
        retraction = [y if p == x else p for p in retraction]
    return mask, retraction, tuple(stages)


def _compute_core(space: FinSpace) -> Core:
    cmask, retraction, stages = _core_mask(space, space.full_mask)
    if not stages:
        return Core(space, identity_map(space), identity_map(space), ())
    sub, inclusion = subspace_of_mask(space, cmask)
    index = {p: i for i, p in enumerate(inclusion.assignment)}
    r = CMap(space, sub, (index[p] for p in retraction), validate=False)
    return Core(space=sub, retraction=r, inclusion=inclusion, stages=stages)


@cached_by_space(maxsize=8192)
def core(space: FinSpace) -> Core:
    """Stable beat-point-free retract with retraction/inclusion maps."""
    return _compute_core(space)


def identity_collapse_fence(space: FinSpace) -> list[CMap]:
    """Fence from the identity of the space to inclusion o retraction: after
    each collapse, the self-map sending every point where the collapses so far
    have taken it."""
    maps = [identity_map(space)]
    current = list(range(space.n))
    for x, y in core(space).stages:
        current = [y if p == x else p for p in current]
        maps.append(CMap(space, space, current, validate=False))
    return maps


# ---------------------------------------------------------------------------
# fence search


def _compress(f: CMap, src_core: Core, tgt_core: Core) -> tuple[int, ...]:
    r, i = tgt_core.retraction.assignment, src_core.inclusion.assignment
    fa = f.assignment
    return tuple(r[fa[u]] for u in i)


def _component_bfs(
    src: FinSpace,
    tgt: FinSpace,
    start: tuple[int, ...],
    budget: Budget,
    stop=None,
    mask: int | None = None,
):
    """BFS over the comparability graph of continuous maps src -> tgt, or from
    the subspace of src on the points of mask without building it; maps are
    tuples as iter_assignments yields them.

    stop(t) may end the search early; returns (found_tuple_or_None, parents),
    where parents maps each visited tuple to the one it was reached from.
    """
    rows, co = tgt.reach_rows, tgt.co_rows
    points = list(_bits(src.full_mask if mask is None else mask))
    domains = [0] * src.n  # entries outside mask are ignored
    parents: dict[tuple[int, ...], tuple[int, ...] | None] = {start: None}
    if stop is not None and stop(start):
        return start, parents
    queue = [start]
    head = 0
    while head < len(queue):
        current = queue[head]
        head += 1
        budget.charge()
        for direction_rows in (rows, co):
            for x, y in zip(points, current):
                domains[x] = direction_rows[y]
            for neighbour in iter_assignments(src, tgt, domains, budget, mask=mask):
                if neighbour in parents:
                    continue
                parents[neighbour] = current
                if stop is not None and stop(neighbour):
                    return neighbour, parents
                queue.append(neighbour)
    return None, parents


def _core_chain(f: CMap, g: CMap, src_core: Core, tgt_core: Core, budget: Budget):
    """Chain of core maps from the compressed f to the compressed g, each
    comparable with the next, or None when no fence joins them."""
    cf, cg = _compress(f, src_core, tgt_core), _compress(g, src_core, tgt_core)
    if cf == cg:
        return [cf]
    found, parents = _component_bfs(
        src_core.space, tgt_core.space, cf, budget, stop=lambda t: t == cg
    )
    if found is None:
        return None
    chain = []
    while found is not None:
        chain.append(found)
        found = parents[found]
    chain.reverse()
    return chain


def homotopic(f: CMap, g: CMap, budget: Budget | int | None = None) -> bool:
    """True exactly when a fence connects f to g."""
    if f.source != g.source or f.target != g.target:
        raise ValueError("homotopy needs maps with common source and target")
    if f.assignment == g.assignment:
        return True
    chain = _core_chain(f, g, core(f.source), core(f.target), Budget.ensure(budget))
    return chain is not None


def homotopy_fence(f: CMap, g: CMap, budget: Budget | int | None = None) -> Fence | None:
    """Explicit fence witnessing f homotopic to g, or None."""
    if f.source != g.source or f.target != g.target:
        raise ValueError("homotopy needs maps with common source and target")
    if f.assignment == g.assignment:
        return Fence((f,))
    A, B = f.source, f.target
    src_core, tgt_core = core(A), core(B)
    core_chain = _core_chain(f, g, src_core, tgt_core, Budget.ensure(budget))
    if core_chain is None:
        return None

    maps: list[CMap] = []

    def push(m: CMap):
        if not maps or maps[-1].assignment != m.assignment:
            maps.append(m)

    collapse_a = identity_collapse_fence(A)
    collapse_b = identity_collapse_fence(B)
    i_b, r_a = tgt_core.inclusion, src_core.retraction
    squash_f = compose(tgt_core.inclusion, compose(tgt_core.retraction, f))
    squash_g = compose(tgt_core.inclusion, compose(tgt_core.retraction, g))
    # f  ->  (i r) f  ->  (i r) f (i r)  ->  core chain  ->  (i r) g (i r)  ->  (i r) g  ->  g
    for m in collapse_b:
        push(compose(m, f))
    for m in collapse_a:
        push(compose(squash_f, m))
    for t in core_chain:
        h = CMap(src_core.space, tgt_core.space, t, validate=False)
        push(compose(i_b, compose(h, r_a)))
    for m in reversed(collapse_a):
        push(compose(squash_g, m))
    for m in reversed(collapse_b):
        push(compose(m, g))
    push(g)
    return Fence(tuple(maps))


def _constant_in_component(source: FinSpace, mask: int, images, target: FinSpace,
                           budget: Budget) -> int | None:
    """A point c of target such that the map sending each point p of mask to
    images[p] is homotopic to the constant at c, or None.  The fence search
    runs from the core mask of the domain, its images retracted onto the core
    of target, until it meets a constant map."""
    t_core = core(target)
    retraction = t_core.retraction.assignment
    cmask = _core_mask(source, mask)[0]
    start = tuple(retraction[images[p]] for p in _bits(cmask))
    found, _ = _component_bfs(source, t_core.space, start, budget, mask=cmask,
                              stop=lambda t: len(set(t)) == 1)
    return None if found is None else t_core.inclusion(found[0])


def nullhomotopy_target(f: CMap, budget: Budget | int | None = None) -> int | None:
    """A point c with f homotopic to the constant at c, or None."""
    budget = Budget.ensure(budget)
    if f.source.n == 0:
        return 0 if f.target.n else None
    return _constant_in_component(f.source, f.source.full_mask, f.assignment, f.target, budget)


def is_contractible(X: FinSpace) -> bool:
    """True when the core is a single point."""
    return X.n > 0 and core(X).space.n == 1


def _contraction_point(X: FinSpace, mask: int, budget: Budget) -> int | None:
    """A point c such that the inclusion of the open on mask is homotopic
    within X to the constant map at c, or None."""
    return _constant_in_component(X, mask, range(X.n), X, budget)


@dataclass(frozen=True)
class CatResult:
    """LS-category with its cover; points[i] is the point that the inclusion
    of cover[i] contracts to within the space, so verify() can rebuild each
    fence."""

    value: ExtNat
    cover: tuple[OpenSet, ...]
    degenerate: bool
    uncovered_point: int | None = None
    points: tuple[int, ...] = ()

    def verify(self, budget: Budget | int | None = None) -> bool:
        """Re-check a finite value independently of the search: the cover has
        value elements and exhausts the space, and a fence runs from each
        element's inclusion to the constant map at its point.  Every nonempty
        space has a finite category (U_x contracts to x), so an infinite value
        fails.  Raises SelfCheckFailed."""
        budget = Budget.ensure(budget)
        if self.degenerate:
            if self.cover or self.value != ExtNat(1):
                raise SelfCheckFailed("degenerate category must be 1 with an empty cover")
            return True
        if not self.value.is_finite or not self.cover:
            raise SelfCheckFailed("a nonempty space has a finite category and a cover")
        if len(self.cover) != self.value.n or len(self.points) != len(self.cover):
            raise SelfCheckFailed("one cover element and one point per unit of the value")
        X = self.cover[0].space
        union = 0
        for element, point in zip(self.cover, self.points):
            if element.space != X:
                raise SelfCheckFailed("cover elements live on different spaces")
            union |= element.mask
            sub, incl = subspace_of_mask(X, element.mask)
            # Fence re-validates every step when it is constructed
            if homotopy_fence(incl, constant_map(sub, X, point), budget) is None:
                raise SelfCheckFailed(f"open {sorted(element.members)} does not contract to {point}")
        if union != X.full_mask:
            raise SelfCheckFailed("cover does not exhaust the space")
        return True


def cat(X: FinSpace, budget: Budget | int | None = None) -> CatResult:
    """Least size of an open cover by sets nullhomotopic within the space.

    The candidates are the maximal such opens (the property shrinks), and the
    minimum is exact set cover.  Such an open lies inside one connected
    component, since a fence moves each point only to points it is comparable
    with, so each component is covered on its own and cat of a disjoint union
    is the sum of the values of its components.  The empty space takes the
    degenerate value 1 by the empty-cover convention.
    """
    if X.n == 0:
        return CatResult(ExtNat(1), (), degenerate=True)
    budget = Budget.ensure(budget)
    chosen, uncovered = min_good_cover(X, lambda mask: _contraction_point(X, mask, budget),
                                       budget, glue=False)
    if chosen is None:
        return CatResult(INF, (), degenerate=False, uncovered_point=uncovered)
    return CatResult(ExtNat(len(chosen)), tuple(OpenSet(X, mask) for mask, _ in chosen),
                     degenerate=False, points=tuple(point for _, point in chosen))
