"""Homotopy of maps between finite spaces, cores, contractibility, LS-category.

Two maps between finite spaces are homotopic exactly when a fence connects
them: a chain of continuous maps in which each consecutive pair is pointwise
reach-comparable in a uniform direction.  That classical combinatorial
criterion is the definition used here; it is decided by breadth-first search
over the continuous-map set.

As an independent accelerator and cross-check, spaces are reduced to their
cores by repeatedly collapsing removable points (points whose deletion is a
strong deformation retraction).  Homotopy questions are answered on cores and
witnesses are lifted back, which keeps the searched map spaces small; the
test suite checks the two procedures against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cover import min_good_cover
from .extnat import INF, ExtNat
from .finspace import (
    CMap,
    FinSpace,
    OpenSet,
    cached_by_space,
    compose,
    identity_map,
    iter_assignments,
    subspace_of_mask,
)
from .resources import Budget


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
    is homotopic to the identity of the space, one collapse per stage.
    """

    space: FinSpace
    retraction: CMap
    inclusion: CMap
    stages: tuple[tuple[CMap, CMap], ...]  # per collapse: (step retraction, step inclusion)


def _find_collapse(space: FinSpace):
    """First removable pair (x, y): collapsing x onto y is continuous and the
    two points are reach-comparable, so the collapse is a deformation retract."""
    rows, co = space.reach_rows, space.co_rows
    for x in range(space.n):
        strict_down = rows[x] & ~(1 << x)
        strict_up = co[x] & ~(1 << x)
        for y in range(space.n):
            if y == x:
                continue
            if not ((rows[x] >> y) & 1 or (rows[y] >> x) & 1):
                continue
            if strict_down & ~rows[y]:
                continue
            if strict_up & ~co[y]:
                continue
            return x, y
    return None


def _compute_core(space: FinSpace) -> Core:
    current = space
    stages = []
    retraction = identity_map(space)
    inclusion = identity_map(space)
    while True:
        pair = _find_collapse(current)
        if pair is None:
            break
        x, y = pair
        keep = [p for p in range(current.n) if p != x]
        sub, incl = subspace_of_mask(current, current.full_mask & ~(1 << x))
        new_index = {p: i for i, p in enumerate(keep)}
        r_assign = [new_index[y if p == x else p] for p in range(current.n)]
        r_step = CMap(current, sub, r_assign, name="collapse", validate=False)
        stages.append((r_step, incl))
        retraction = compose(r_step, retraction)
        inclusion = compose(inclusion, incl)
        current = sub
    return Core(space=current, retraction=retraction, inclusion=inclusion, stages=tuple(stages))


@cached_by_space(maxsize=8192)
def core(space: FinSpace) -> Core:
    """Stable beat-point-free retract with retraction/inclusion maps."""
    return _compute_core(space)


def identity_collapse_fence(space: FinSpace) -> list[CMap]:
    """Fence from the identity of the space to inclusion o retraction."""
    c = core(space)
    maps = [identity_map(space)]
    down = identity_map(space)  # space -> current stage space
    up = identity_map(space)    # current stage space -> space
    for r_step, i_step in c.stages:
        down = compose(r_step, down)
        up = compose(up, i_step)
        maps.append(compose(up, down))
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
):
    """BFS over the comparability graph of continuous maps src -> tgt.

    stop(t) may end the search early; returns (found_tuple_or_None, parents),
    where parents maps each visited tuple to the one it was reached from.
    """
    rows, co = tgt.reach_rows, tgt.co_rows
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
            domains = [direction_rows[y] for y in current]
            for neighbour in iter_assignments(src, tgt, domains, budget):
                if neighbour in parents:
                    continue
                parents[neighbour] = current
                if stop is not None and stop(neighbour):
                    return neighbour, parents
                queue.append(neighbour)
    return None, parents


def homotopic(f: CMap, g: CMap, budget: Budget | int | None = None) -> bool:
    """True exactly when a fence connects f to g."""
    if f.source != g.source or f.target != g.target:
        raise ValueError("homotopy needs maps with common source and target")
    if f.assignment == g.assignment:
        return True
    budget = Budget.ensure(budget)
    src_core, tgt_core = core(f.source), core(f.target)
    cf, cg = _compress(f, src_core, tgt_core), _compress(g, src_core, tgt_core)
    if cf == cg:
        return True
    found, _ = _component_bfs(
        src_core.space, tgt_core.space, cf, budget, stop=lambda t: t == cg
    )
    return found is not None


def homotopy_fence(f: CMap, g: CMap, budget: Budget | int | None = None) -> Fence | None:
    """Explicit fence witnessing f homotopic to g, or None."""
    if f.source != g.source or f.target != g.target:
        raise ValueError("homotopy needs maps with common source and target")
    if f.assignment == g.assignment:
        return Fence((f,))
    budget = Budget.ensure(budget)
    A, B = f.source, f.target
    src_core, tgt_core = core(A), core(B)
    cf, cg = _compress(f, src_core, tgt_core), _compress(g, src_core, tgt_core)
    if cf == cg:
        core_chain = [cf]
    else:
        found, parents = _component_bfs(
            src_core.space, tgt_core.space, cf, budget, stop=lambda t: t == cg
        )
        if found is None:
            return None
        core_chain = []
        node = found
        while node is not None:
            core_chain.append(node)
            node = parents[node]
        core_chain.reverse()

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


def nullhomotopy_target(f: CMap, budget: Budget | int | None = None) -> int | None:
    """A point c with f homotopic to the constant at c, or None."""
    budget = Budget.ensure(budget)
    if f.source.n == 0:
        return 0 if f.target.n else None
    src_core, tgt_core = core(f.source), core(f.target)
    cf = _compress(f, src_core, tgt_core)
    hit = {}

    def is_constant(t):
        if len(set(t)) == 1:
            hit["point"] = t[0]
            return True
        return False

    found, _ = _component_bfs(src_core.space, tgt_core.space, cf, budget, stop=is_constant)
    if found is None:
        return None
    return tgt_core.inclusion(hit["point"])


def is_contractible(X: FinSpace) -> bool:
    """True when the core is a single point."""
    return X.n > 0 and core(X).space.n == 1


@dataclass(frozen=True)
class CatResult:
    value: ExtNat
    cover: tuple[OpenSet, ...]
    degenerate: bool
    uncovered_point: int | None = None


def cat(X: FinSpace, budget: Budget | int | None = None) -> CatResult:
    """Least size of an open cover by sets nullhomotopic within the space.

    The candidates are the maximal such opens (the property shrinks), and the
    minimum is exact set cover.  The empty space takes the degenerate value 1
    by the empty-cover convention.
    """
    if X.n == 0:
        return CatResult(ExtNat(1), (), degenerate=True)
    budget = Budget.ensure(budget)

    def is_good(mask: int):
        # the witness is the point the open contracts to within X
        _, incl = subspace_of_mask(X, mask)
        return nullhomotopy_target(incl, budget)

    chosen, uncovered = min_good_cover(X, is_good, budget)
    if chosen is None:
        return CatResult(INF, (), degenerate=False, uncovered_point=uncovered)
    return CatResult(ExtNat(len(chosen)), tuple(OpenSet(X, mask) for mask, _ in chosen),
                     degenerate=False)
