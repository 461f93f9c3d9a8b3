"""Finite topological spaces encoded by their reach relation, and continuous maps.

reach(x, y) holds when y belongs to every open set containing x, i.e. y lies in
the minimal open set U_x.  For finite spaces this preorder determines the
topology completely: a subset U is open exactly when U_x is contained in U for
every x in U, and a point assignment is continuous exactly when it preserves
reach.  Points are dense indices 0..n-1 and every enumeration order is fixed
(lexicographic), so all results are bit-reproducible.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from types import MappingProxyType

from .resources import Budget, check_opens, check_product


class DiscontinuityError(ValueError):
    """An assignment breaks reach preservation; carries a witness pair."""

    def __init__(self, x: int, x2: int, fx: int, fx2: int):
        self.witness = (x, x2)
        self.images = (fx, fx2)
        super().__init__(
            f"assignment is discontinuous: reach({x},{x2}) holds in the source "
            f"but reach({fx},{fx2}) fails in the target"
        )


def _transitive_closure(rows: list[int], n: int) -> list[int]:
    changed = True
    while changed:
        changed = False
        for i in range(n):
            row = rows[i]
            acc = row
            m = row
            while m:
                b = m & -m
                acc |= rows[b.bit_length() - 1]
                m ^= b
            if acc != row:
                rows[i] = acc
                changed = True
    return rows


def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


class FinSpace:
    """A finite space: n points and a reflexive-transitive reach relation.

    reach_rows[x] is the bitmask of U_x = { y : reach(x, y) }, the minimal open
    set of x.  co_rows[y] is the bitmask of { x : reach(x, y) }.  Instances are
    immutable and hashable; equality is structural on (n, reach_rows) so that
    maps compose across independently constructed copies of the same space.
    """

    __slots__ = ("n", "reach_rows", "co_rows", "labels", "name", "full_mask", "_hash")

    def __init__(self, reach_rows, labels=None, name=None, validate=True):
        rows = tuple(reach_rows)
        n = len(rows)
        if validate:
            full = (1 << n) - 1
            for x, row in enumerate(rows):
                if row & ~full:
                    raise ValueError(f"reach row of point {x} mentions an out-of-range point")
                if not (row >> x) & 1:
                    raise ValueError(f"reach is not reflexive at point {x}")
            for x, row in enumerate(rows):
                for y in _bits(row):
                    if rows[y] & ~row:
                        raise ValueError(
                            f"reach is not transitive: reach({x},{y}) but U_{y} is not inside U_{x}"
                        )
        co = [0] * n
        for x, row in enumerate(rows):
            for y in _bits(row):
                co[y] |= 1 << x
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "reach_rows", rows)
        object.__setattr__(self, "co_rows", tuple(co))
        object.__setattr__(self, "labels", tuple(labels) if labels is not None else None)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "full_mask", (1 << n) - 1)
        object.__setattr__(self, "_hash", hash((n, rows)))

    def __setattr__(self, key, value):
        raise AttributeError("FinSpace is immutable")

    def __reduce__(self):
        return (_rebuild_space, (self.reach_rows, self.labels, self.name))

    @property
    def points(self) -> range:
        return range(self.n)

    def reach(self, x: int, y: int) -> bool:
        return bool((self.reach_rows[x] >> y) & 1)

    def is_open_mask(self, mask: int) -> bool:
        for x in _bits(mask):
            if self.reach_rows[x] & ~mask:
                return False
        return True

    def label(self, x: int) -> str:
        if self.labels is not None and self.labels[x] is not None:
            return self.labels[x]
        return str(x)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinSpace):
            return NotImplemented
        return self.n == other.n and self.reach_rows == other.reach_rows

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        name = self.name or "space"
        return f"FinSpace({name!r}, n={self.n})"


def _rebuild_space(rows, labels, name):
    return FinSpace(rows, labels=labels, name=name, validate=False)


def cached_by_space(maxsize: int):
    """lru_cache for a function of (space, ...) whose result carries the
    space's labels or name.

    FinSpace equality ignores labels and name, so a cache keyed on the space
    would hand one caller the result built for a differently labelled copy.
    The key is the reach rows, labels and name plus the other arguments
    instead, and a miss computes on a rebuilt copy that equals the caller's
    space in every attribute.
    Cached results are shared between callers, so they must be immutable.
    """

    def decorate(fn):
        @functools.lru_cache(maxsize=maxsize)
        def cached(rows, labels, name, *args, **kwargs):
            return fn(_rebuild_space(rows, labels, name), *args, **kwargs)

        @functools.wraps(fn)
        def wrapper(space, *args, **kwargs):
            return cached(space.reach_rows, space.labels, space.name, *args, **kwargs)

        wrapper.cache_info = cached.cache_info
        wrapper.cache_clear = cached.cache_clear
        return wrapper

    return decorate


@dataclass(frozen=True)
class OpenSet:
    """A reach-closed subset of a space's points, stored as a bitmask."""

    space: FinSpace
    mask: int

    def __post_init__(self):
        if self.mask & ~self.space.full_mask:
            raise ValueError("open set mentions out-of-range points")
        if not self.space.is_open_mask(self.mask):
            raise ValueError(f"subset {sorted(self.members)} is not open")

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(_bits(self.mask))

    def __contains__(self, x: int) -> bool:
        return bool((self.mask >> x) & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()


class CMap:
    """A continuous map: a total point assignment preserving reach."""

    __slots__ = ("source", "target", "assignment", "name")

    def __init__(self, source: FinSpace, target: FinSpace, assignment, name=None, validate=True):
        assignment = tuple(assignment)
        if len(assignment) != source.n:
            raise ValueError(
                f"assignment has {len(assignment)} entries for {source.n} source points"
            )
        if validate:
            for x, fx in enumerate(assignment):
                if not 0 <= fx < target.n:
                    raise ValueError(f"image of point {x} is out of range: {fx}")
            rows = source.reach_rows
            trows = target.reach_rows
            for x in range(source.n):
                fx = assignment[x]
                for x2 in _bits(rows[x]):
                    if not (trows[fx] >> assignment[x2]) & 1:
                        raise DiscontinuityError(x, x2, fx, assignment[x2])
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "name", name)

    def __setattr__(self, key, value):
        raise AttributeError("CMap is immutable")

    def __reduce__(self):
        return (_rebuild_map, (self.source, self.target, self.assignment, self.name))

    def __call__(self, x: int) -> int:
        return self.assignment[x]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.assignment == other.assignment
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.assignment))

    def image_mask(self) -> int:
        mask = 0
        for fx in self.assignment:
            mask |= 1 << fx
        return mask

    def is_identity(self) -> bool:
        return self.source == self.target and all(
            fx == x for x, fx in enumerate(self.assignment)
        )

    def __repr__(self) -> str:
        name = f" {self.name!r}" if self.name else ""
        return f"CMap{name}({self.source!r} -> {self.target!r}, {list(self.assignment)})"


def _rebuild_map(source, target, assignment, name):
    return CMap(source, target, assignment, name=name, validate=False)


# ---------------------------------------------------------------------------
# constructors


def make_space(n: int, reach_pairs, labels=None, name=None) -> FinSpace:
    """Space on points 0..n-1 whose reach is the reflexive-transitive closure
    of the generator pairs (i, j), each meaning reach(i, j)."""
    if n < 0:
        raise ValueError("point count must be >= 0")
    rows = [1 << i for i in range(n)]
    for i, j in reach_pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"reach pair ({i},{j}) is out of range for {n} points")
        rows[i] |= 1 << j
    _transitive_closure(rows, n)
    return FinSpace(rows, labels=labels, name=name, validate=False)


def empty_space(name="empty") -> FinSpace:
    return make_space(0, [], name=name)


def sierpinski(name="S") -> FinSpace:
    """Two points with reach(1, 0): U_0 = {0}, U_1 = {0, 1}."""
    return make_space(2, [(1, 0)], name=name)


def discrete_space(n: int, name=None) -> FinSpace:
    return make_space(n, [], name=name or f"discrete{n}")


def pseudocircle(name="C") -> FinSpace:
    """The four-point circle model: no beat points, not contractible."""
    return make_space(4, [(2, 0), (2, 1), (3, 0), (3, 1)], name=name)


def identity_map(space: FinSpace) -> CMap:
    return CMap(space, space, range(space.n), name="id", validate=False)


def constant_map(source: FinSpace, target: FinSpace, y: int) -> CMap:
    if not 0 <= y < target.n:
        raise ValueError(f"constant value {y} out of range")
    return CMap(source, target, [y] * source.n, name=f"const{y}", validate=False)


def make_map(source: FinSpace, target: FinSpace, assignment, name=None) -> CMap:
    """Validated continuous map; raises DiscontinuityError with a witness pair."""
    return CMap(source, target, assignment, name=name, validate=True)


def compose(outer: CMap, inner: CMap, name=None) -> CMap:
    """(outer o inner)(x) = outer(inner(x))."""
    if inner.target != outer.source:
        raise ValueError("maps do not compose: inner target differs from outer source")
    return CMap(
        inner.source,
        outer.target,
        (outer.assignment[fx] for fx in inner.assignment),
        name=name,
        validate=False,
    )


def is_hausdorff(space: FinSpace) -> bool:
    """Finite Hausdorff means discrete: reach is the identity relation."""
    return all(row == 1 << x for x, row in enumerate(space.reach_rows))


def is_connected(space: FinSpace) -> bool:
    """Nonempty with a connected comparability graph; for finite spaces this
    coincides with path-connectedness."""
    if space.n == 0:
        return False
    seen = 1
    frontier = [0]
    while frontier:
        x = frontier.pop()
        neighbours = (space.reach_rows[x] | space.co_rows[x]) & ~seen
        seen |= neighbours
        frontier.extend(_bits(neighbours))
    return seen == space.full_mask


def minimal_open(space: FinSpace, x: int) -> OpenSet:
    """U_x, the smallest open set containing x."""
    if not 0 <= x < space.n:
        raise ValueError(f"point {x} out of range")
    return OpenSet(space, space.reach_rows[x])


def iter_open_masks(space: FinSpace):
    """All reach-closed subsets as bitmasks, ascending; lazy, no size cap."""
    for mask in range(space.full_mask + 1):
        if space.is_open_mask(mask):
            yield mask


def all_open_sets(space: FinSpace) -> list[OpenSet]:
    """Every open set including the empty set and the whole space, in
    lexicographic bitmask order.  Capped; see iter_open_masks for lazy use."""
    check_opens(space.n)
    return [OpenSet(space, mask) for mask in iter_open_masks(space)]


def product(a: FinSpace, b: FinSpace):
    """Product space with componentwise reach; returns (space, proj_a, proj_b).

    Points are the pairs (i, j) in lexicographic order, index i * b.n + j.
    """
    check_product(a.n * b.n)
    n = a.n * b.n
    rows = []
    brows = b.reach_rows
    for i in range(a.n):
        arow = a.reach_rows[i]
        for j in range(b.n):
            row = 0
            bj = brows[j]
            for i2 in _bits(arow):
                row |= bj << (i2 * b.n)
            rows.append(row)
    labels = None
    if a.labels is not None or b.labels is not None:
        labels = [
            f"({a.label(i)},{b.label(j)})" for i in range(a.n) for j in range(b.n)
        ]
    space = FinSpace(rows, labels=labels, name=None, validate=False)
    proj_a = CMap(space, a, (i // b.n for i in range(n)), name="proj1", validate=False)
    proj_b = CMap(space, b, (i % b.n for i in range(n)), name="proj2", validate=False)
    return space, proj_a, proj_b


def subspace(space: FinSpace, points, name=None):
    """Subspace on the given points (reach restricted); returns (space, inclusion).

    The restriction of reach is exactly the specialization relation of the
    subspace topology, for any subset of points.
    """
    pts = sorted(set(points))
    for p in pts:
        if not 0 <= p < space.n:
            raise ValueError(f"point {p} out of range")
    index_of = {p: i for i, p in enumerate(pts)}
    rows = []
    for p in pts:
        row = 0
        for q in _bits(space.reach_rows[p]):
            if q in index_of:
                row |= 1 << index_of[q]
        rows.append(row)
    labels = [space.label(p) for p in pts] if space.labels is not None else None
    sub = FinSpace(rows, labels=labels, name=name, validate=False)
    incl = CMap(sub, space, pts, name="incl", validate=False)
    return sub, incl


def subspace_of_mask(space: FinSpace, mask: int, name=None):
    return subspace(space, _bits(mask), name=name)


def pullback(p: CMap, g: CMap):
    """Canonical pullback of p: E -> B along g: X -> B.

    Points are the pairs (x, e) with g(x) = p(e), ordered lexicographically;
    reach is componentwise.  Returns (space, to_base, to_total) where
    to_base: P -> X is the pulled-back map g*(p) and to_total: P -> E.
    """
    if p.target != g.target:
        raise ValueError("pullback needs p and g to share their target")
    X, E = g.source, p.source
    check_product(X.n * E.n)
    pairs = [(x, e) for x in range(X.n) for e in range(E.n) if g(x) == p(e)]
    rows = []
    for x, e in pairs:
        xrow, erow = X.reach_rows[x], E.reach_rows[e]
        row = 0
        for k, (x2, e2) in enumerate(pairs):
            if (xrow >> x2) & 1 and (erow >> e2) & 1:
                row |= 1 << k
        rows.append(row)
    labels = None
    if X.labels is not None or E.labels is not None:
        labels = [f"({X.label(x)},{E.label(e)})" for x, e in pairs]
    space = FinSpace(rows, labels=labels, name=None, validate=False)
    to_base = CMap(space, X, (x for x, _ in pairs), name="pullback_to_base", validate=False)
    to_total = CMap(space, E, (e for _, e in pairs), name="pullback_to_total", validate=False)
    return space, to_base, to_total


@cached_by_space(maxsize=64)
def configuration_space(space: FinSpace, k: int):
    """Ordered configuration space of k pairwise-distinct points.

    Returns (conf, projections) where projections[r] forgets the last k - r
    coordinates, for 1 <= r <= k.  For r = 1 the target is the space itself;
    for k = 1 the space itself is returned with the identity projection.
    Results are memoised and shared, so projections is a read-only mapping.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return space, MappingProxyType({1: identity_map(space)})
    check_product(space.n ** k)
    rows_src = space.reach_rows
    tuples = list(itertools.permutations(range(space.n), k))
    rows = []
    for t in tuples:
        row = 0
        for i2, t2 in enumerate(tuples):
            if all((rows_src[a] >> b) & 1 for a, b in zip(t, t2)):
                row |= 1 << i2
        rows.append(row)
    labels = None
    if space.labels is not None:
        labels = ["(" + ",".join(space.label(a) for a in t) + ")" for t in tuples]
    conf = FinSpace(rows, labels=labels, name=None, validate=False)

    projections: dict[int, CMap] = {k: identity_map(conf)}
    projections[1] = CMap(
        conf, space, (t[0] for t in tuples), name=f"proj_{k}_1", validate=False
    )
    for r in range(2, k):
        # the memoised lower level lists its points in permutations(range(n), r) order
        index_of = {t: i for i, t in enumerate(itertools.permutations(range(space.n), r))}
        projections[r] = CMap(
            conf, configuration_space(space, r)[0], (index_of[t[:r]] for t in tuples),
            name=f"proj_{k}_{r}", validate=False,
        )
    return conf, MappingProxyType(projections)


# ---------------------------------------------------------------------------
# constrained enumeration of continuous maps


def _normalize_domains(source: FinSpace, target: FinSpace, constraints):
    full = target.full_mask
    if constraints is None:
        return [full] * source.n
    if len(constraints) != source.n:
        raise ValueError("constraints must list allowed targets for every source point")
    domains = []
    for allowed in constraints:
        if allowed is None:
            domains.append(full)
            continue
        mask = 0
        for y in allowed:
            if not 0 <= y < target.n:
                raise ValueError(f"constraint value {y} out of range")
            mask |= 1 << y
        domains.append(mask)
    return domains


def iter_assignments(
    source: FinSpace,
    target: FinSpace,
    domains,
    budget: Budget,
    order: str = "lex",
    value_orders=None,
):
    """Backtracking enumeration of continuous assignments as tuples.

    Forward checking prunes the domain of every unassigned point related to the
    one just assigned.  order='lex' fixes the variable order 0..n-1 (yield order
    is then lexicographic); order='mcf' picks the most constrained point first
    (existence searches).  value_orders optionally overrides the per-point value
    order (used by seeded random draws); default is ascending.
    """
    n = source.n
    if n == 0:
        budget.charge()
        yield ()
        return
    if target.n == 0:
        return
    reach_rows = source.reach_rows
    co_rows = source.co_rows
    treach = target.reach_rows
    tco = target.co_rows
    domains = list(domains)
    assigned = [-1] * n
    related = [
        (reach_rows[x] | co_rows[x]) & ~(1 << x) for x in range(n)
    ]

    def pick_var(done: int) -> int:
        if order == "lex":
            return done
        best, best_size = -1, None
        for x in range(n):
            if assigned[x] < 0:
                size = domains[x].bit_count()
                if best_size is None or size < best_size:
                    best, best_size = x, size
        return best

    def values_for(x: int):
        dom = domains[x]
        if value_orders is not None:
            return [y for y in value_orders[x] if (dom >> y) & 1]
        return list(_bits(dom))

    def backtrack(done: int):
        if done == n:
            yield tuple(assigned)
            return
        x = pick_var(done)
        for y in values_for(x):
            budget.charge()
            assigned[x] = y
            trail = []
            ok = True
            rel = related[x]
            m = rel
            while m:
                b = m & -m
                x2 = b.bit_length() - 1
                m ^= b
                if assigned[x2] >= 0:
                    continue
                new = domains[x2]
                if (reach_rows[x] >> x2) & 1:
                    new &= treach[y]
                if (co_rows[x] >> x2) & 1:
                    new &= tco[y]
                if new != domains[x2]:
                    trail.append((x2, domains[x2]))
                    domains[x2] = new
                    if new == 0:
                        ok = False
                        break
            if ok:
                yield from backtrack(done + 1)
            for x2, old in trail:
                domains[x2] = old
            assigned[x] = -1

    yield from backtrack(0)


def enumerate_maps(
    source: FinSpace,
    target: FinSpace,
    constraints=None,
    budget: Budget | int | None = None,
    order: str = "lex",
):
    """Lazy stream of exactly the continuous maps respecting the constraints.

    constraints: optional per-point iterables of allowed target points.  With
    order='lex' maps come out in lexicographic order of their assignment
    tuples.  Raises BudgetExhausted mid-iteration when the node budget runs
    out; callers must treat that as inconclusive, never as 'none exists'.
    """
    budget = Budget.ensure(budget)
    domains = _normalize_domains(source, target, constraints)
    for assignment in iter_assignments(source, target, domains, budget, order=order):
        yield CMap(source, target, assignment, validate=False)
