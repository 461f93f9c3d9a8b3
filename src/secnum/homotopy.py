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
are the collapsed pairs of points.  The scan does not restart after a
collapse of x: it tests again only the points comparable with x, the only
ones whose strict up- and down-sets, and so whose removability and lowest
partner, the collapse changed, so it finds the stages of a rescan from the
lowest point, in the same order.  One search decides whether a map is
nullhomotopic, for nullhomotopy_target and for cat's good-open test (the
inclusion of an open): it reduces the target to its core mask once per
search and each domain to its own, and runs the fence search from the one
mask into the other, so it builds no space at all; the core cache serves
the public callers (homotopic, homotopy_fence, is_contractible).  cat
answers with a cover.CoverResult whose witnesses are constant maps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .cover import MODE_CONTRACTION, CoverResult, _cover_result
from .finspace import (
    CMap,
    FinSpace,
    _bits,
    compose,
    identity_map,
    iter_assignments,
    subspace_of_mask,
)
from .resources import Budget, shared_search


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


def _core_mask(space: FinSpace, mask: int):
    """Core of the subspace on the points of mask, by collapses on points of
    the space; no subspace is built.

    Returns (core mask, retraction, stages): retraction[p] is the core point
    that p retracts to, for every p in mask, and stages lists the collapses
    (x, y) in order.  These are the collapses of the search on
    subspace_of_mask(space, mask), renamed to points of the space: each stage
    collapses the lowest removable x onto its lowest partner y, a point
    reach-comparable with x whose down-set holds the strict down-set of x and
    whose up-set holds its strict up-set, so that sending x to y is
    continuous and a deformation retract.

    The scan keeps a mask of the points not yet shown unremovable and tests
    them lowest first.  Removing x changes the strict up- and down-sets, and
    so the removability and the lowest partner, only of the points comparable
    with x, so after a collapse only those are put back; every other point
    keeps its verdict, and the stages are those of a rescan from the lowest
    point after every collapse.  The retraction follows from the stages by
    one pass over them in reverse: x goes where its partner y goes.
    """
    rows, co = space.reach_rows, space.co_rows
    stages = []
    pending = mask
    while pending:
        b = pending & -pending
        x = b.bit_length() - 1
        others = mask ^ b
        strict_down = rows[x] & others
        strict_up = co[x] & others
        partners = strict_down | strict_up
        while partners:  # lowest first; the else runs when none is left
            low = partners & -partners
            y = low.bit_length() - 1
            if not (strict_down & ~rows[y] or strict_up & ~co[y]):
                break
            partners ^= low
        else:
            pending ^= b
            continue
        mask = others
        pending = (pending | rows[x] | co[x]) & others
        stages.append((x, y))
    retraction = list(range(space.n))
    for x, y in reversed(stages):
        retraction[x] = retraction[y]
    return mask, retraction, tuple(stages)


def _compute_core(space: FinSpace) -> Core:
    cmask, retraction, stages = _core_mask(space, space.full_mask)
    if not stages:
        return Core(space, identity_map(space), identity_map(space), ())
    sub, inclusion = subspace_of_mask(space, cmask)
    index = {p: i for i, p in enumerate(inclusion.assignment)}
    r = CMap(space, sub, (index[p] for p in retraction), validate=False)
    return Core(space=sub, retraction=r, inclusion=inclusion, stages=stages)


@functools.lru_cache(maxsize=8192)
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
    target_mask: int | None = None,
):
    """BFS over the comparability graph of continuous maps src -> tgt, or
    between the subspaces on the points of mask and of target_mask without
    building them; maps are tuples as iter_assignments yields them.  Subspaces
    keep their points in ascending order, so with the target rows cut to
    target_mask this is the search into subspace_of_mask(tgt, target_mask),
    renamed to points of tgt.  stop(t) may end the search early; returns
    (found_tuple_or_None, parents), parents mapping each visited tuple to the
    one it was reached from."""
    rows, co = tgt.reach_rows, tgt.co_rows
    if target_mask is not None:  # once per search; every domain then lies in it
        rows, co = [r & target_mask for r in rows], [c & target_mask for c in co]
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


def _constant_in_component(target: FinSpace, budget: Budget):
    """constant(source, images, mask): the assignment on the points of mask
    of a constant map homotopic to the map sending each such point p to
    images[p] in target, or None.  The core mask and retraction of target
    are computed once; each search runs from the core mask of the domain
    (that of target when the domain is the whole of target), its images
    retracted, into the core mask of target until it meets a constant map."""
    t_mask, retraction, _ = _core_mask(target, target.full_mask)

    def constant(source: FinSpace, images, mask: int) -> tuple[int, ...] | None:
        whole = source == target and mask == source.full_mask
        cmask = t_mask if whole else _core_mask(source, mask)[0]
        start = tuple(retraction[images[p]] for p in _bits(cmask))
        found, _ = _component_bfs(source, target, start, budget, mask=cmask,
                                  target_mask=t_mask, stop=lambda t: len(set(t)) == 1)
        return None if found is None else (found[0],) * mask.bit_count()

    return constant


def nullhomotopy_target(f: CMap, budget: Budget | int | None = None) -> int | None:
    """A point c with f homotopic to the constant at c, or None."""
    budget = Budget.ensure(budget)
    if f.source.n == 0:
        return 0 if f.target.n else None
    found = _constant_in_component(f.target, budget)(f.source, f.assignment, f.source.full_mask)
    return None if found is None else found[0]


def is_contractible(X: FinSpace) -> bool:
    """True when the core is a single point."""
    return X.n > 0 and core(X).space.n == 1


def _contraction_test(X: FinSpace, budget: Budget):
    """cat's is_good: the opens of X whose inclusion is homotopic within X
    to a constant map, witnessed by that map's assignment."""
    return functools.partial(_constant_in_component(X, budget), X, range(X.n))


def cat(X: FinSpace, budget: Budget | int | None = None) -> CoverResult:
    """Least size of an open cover by sets nullhomotopic within the space.

    The property shrinks, so cover.min_good_cover finds the least cover as
    the fewest classes of maximal points whose unions of minimal opens are
    nullhomotopic.  Such an open lies inside one connected component, since a
    fence moves each point only to points it is comparable with, so each
    component is covered on its own and cat of a disjoint union is the sum of
    the values of its components.  The empty space takes the
    degenerate value 1 by the empty-cover convention.
    """
    budget = Budget.ensure(budget)
    return shared_search(("cat", X), budget, lambda: _cover_result(
        X, MODE_CONTRACTION, _contraction_test(X, budget), (identity_map(X),), budget))
