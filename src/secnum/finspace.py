"""Finite topological spaces encoded by their reach relation, and continuous maps.

reach(x, y) holds when y belongs to every open set containing x, i.e. y lies in
the minimal open set U_x.  For finite spaces this preorder determines the
topology completely: a subset U is open exactly when U_x is contained in U for
every x in U, and a point assignment is continuous exactly when it preserves
reach.  Points are dense indices 0..n-1 and every enumeration order is fixed
(lexicographic), so all results are bit-reproducible.

A space is its reach rows and a map its source, target and assignment, and
nothing else: equality, hashing and every cache key on them, as does every
invariant.  Display text for points and blocks belongs to the text format
(fileio).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .resources import Budget, check_product


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
    """Warshall's order: for each k, every row that reaches k takes row k."""
    for k in range(n):
        bit, row_k = 1 << k, rows[k]
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= row_k
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

    __slots__ = ("n", "reach_rows", "co_rows", "full_mask", "_hash")

    def __init__(self, reach_rows, validate=True):
        rows = tuple(reach_rows)
        n = len(rows)
        if validate:
            full = (1 << n) - 1
            for x, row in enumerate(rows):
                if row & ~full:
                    raise ValueError(f"reach row of point {x} mentions an out-of-range point")
                if not (row >> x) & 1:
                    raise ValueError(f"reach is not reflexive at point {x}")
        # the transpose, and with validate the transitivity test, walk the
        # bits of each row lowest first
        co = [0] * n
        for x, row in enumerate(rows):
            bit, rest = 1 << x, row
            while rest:
                low = rest & -rest
                y = low.bit_length() - 1
                if validate and rows[y] & ~row:
                    raise ValueError(
                        f"reach is not transitive: reach({x},{y}) but U_{y} is not inside U_{x}"
                    )
                co[y] |= bit
                rest ^= low
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "reach_rows", rows)
        object.__setattr__(self, "co_rows", tuple(co))
        object.__setattr__(self, "full_mask", (1 << n) - 1)
        object.__setattr__(self, "_hash", hash((n, rows)))

    @classmethod
    def _from_rows(cls, reach_rows, co_rows) -> FinSpace:
        """The space with these reach rows, given with their transpose, which
        the caller vouches for; nothing is checked or recomputed."""
        self = object.__new__(cls)
        rows = tuple(reach_rows)
        n = len(rows)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "reach_rows", rows)
        object.__setattr__(self, "co_rows", tuple(co_rows))
        object.__setattr__(self, "full_mask", (1 << n) - 1)
        object.__setattr__(self, "_hash", hash((n, rows)))
        return self

    def __setattr__(self, key, value):
        raise AttributeError("FinSpace is immutable")

    def __reduce__(self):
        return (FinSpace, (self.reach_rows, False))

    def reach(self, x: int, y: int) -> bool:
        return bool((self.reach_rows[x] >> y) & 1)

    def is_open_mask(self, mask: int) -> bool:
        for x in _bits(mask):
            if self.reach_rows[x] & ~mask:
                return False
        return True

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FinSpace):
            return NotImplemented
        return self.n == other.n and self.reach_rows == other.reach_rows

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FinSpace({self.reach_rows!r})"


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

    __slots__ = ("source", "target", "assignment")

    def __init__(self, source: FinSpace, target: FinSpace, assignment, validate=True):
        assignment = tuple(assignment)
        if len(assignment) != source.n:
            raise ValueError(
                f"assignment has {len(assignment)} entries for {source.n} source points"
            )
        if validate:
            for x, fx in enumerate(assignment):
                if not 0 <= fx < target.n:
                    raise ValueError(f"image of point {x} is out of range: {fx}")
            trows = target.reach_rows
            for x, row in enumerate(source.reach_rows):
                fx = assignment[x]
                trow = trows[fx]
                while row:
                    low = row & -row
                    x2 = low.bit_length() - 1
                    if not (trow >> assignment[x2]) & 1:
                        raise DiscontinuityError(x, x2, fx, assignment[x2])
                    row ^= low
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "assignment", assignment)

    def __setattr__(self, key, value):
        raise AttributeError("CMap is immutable")

    def __reduce__(self):
        return (CMap, (self.source, self.target, self.assignment, False))

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
        return f"CMap({self.source!r} -> {self.target!r}, {list(self.assignment)})"


# ---------------------------------------------------------------------------
# constructors


def make_space(n: int, reach_pairs) -> FinSpace:
    """Space on points 0..n-1 whose reach is the reflexive-transitive closure
    of the generator pairs (i, j), each meaning reach(i, j).

    FinSpace is immutable, so equal generator rows give one shared object,
    held in a bounded cache; a hit skips the closure."""
    if n < 0:
        raise ValueError("point count must be >= 0")
    rows = [1 << i for i in range(n)]
    for i, j in reach_pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"reach pair ({i},{j}) is out of range for {n} points")
        rows[i] |= 1 << j
    return _closed_space(tuple(rows))


@functools.lru_cache(maxsize=1024)
def _closed_space(generator_rows: tuple[int, ...]) -> FinSpace:
    rows = _transitive_closure(list(generator_rows), len(generator_rows))
    return FinSpace(rows, validate=False)


def empty_space() -> FinSpace:
    return make_space(0, [])


def sierpinski() -> FinSpace:
    """Two points with reach(1, 0): U_0 = {0}, U_1 = {0, 1}."""
    return make_space(2, [(1, 0)])


def discrete_space(n: int) -> FinSpace:
    return make_space(n, [])


def pseudocircle() -> FinSpace:
    """The four-point circle model: no beat points, not contractible."""
    return make_space(4, [(2, 0), (2, 1), (3, 0), (3, 1)])


def identity_map(space: FinSpace) -> CMap:
    return CMap(space, space, range(space.n), validate=False)


def constant_map(source: FinSpace, target: FinSpace, y: int) -> CMap:
    if not 0 <= y < target.n:
        raise ValueError(f"constant value {y} out of range")
    return CMap(source, target, [y] * source.n, validate=False)


def make_map(source: FinSpace, target: FinSpace, assignment) -> CMap:
    """Validated continuous map; raises DiscontinuityError with a witness pair."""
    return CMap(source, target, assignment, validate=True)


def compose(outer: CMap, inner: CMap) -> CMap:
    """(outer o inner)(x) = outer(inner(x))."""
    if inner.target != outer.source:
        raise ValueError("maps do not compose: inner target differs from outer source")
    return CMap(
        inner.source,
        outer.target,
        (outer.assignment[fx] for fx in inner.assignment),
        validate=False,
    )


def is_hausdorff(space: FinSpace) -> bool:
    """Finite Hausdorff means discrete: reach is the identity relation.  Every
    row holds its own point, so that is n related pairs in all."""
    return sum(map(int.bit_count, space.reach_rows)) == space.n


@functools.lru_cache(maxsize=256)
def connected_components(space: FinSpace) -> tuple[int, ...]:
    """Masks of the components of the comparability graph, ordered by their
    lowest point.  For finite spaces these are the connected (and path)
    components; each one is open and closed."""
    rows, co = space.reach_rows, space.co_rows
    parts = []
    rest = space.full_mask
    while rest:
        part = frontier = rest & -rest
        while frontier:
            grown = 0
            for x in _bits(frontier):
                grown |= rows[x] | co[x]
            frontier = grown & ~part
            part |= frontier
        parts.append(part)
        rest &= ~part
    return tuple(parts)


def is_connected(space: FinSpace) -> bool:
    """Nonempty with exactly one component."""
    return len(connected_components(space)) == 1


def minimal_open(space: FinSpace, x: int) -> OpenSet:
    """U_x, the smallest open set containing x."""
    if not 0 <= x < space.n:
        raise ValueError(f"point {x} out of range")
    return OpenSet(space, space.reach_rows[x])


def iter_open_masks(space: FinSpace, budget: Budget):
    """All reach-closed subsets as bitmasks, ascending, charging budget one
    node per open.

    Branches on the highest undecided point x: dropping x forbids every point
    that reaches x, taking x forces U_x, and the drop branch comes first, so
    masks come out in ascending order.  Neither branch can dead-end (a point
    that reaches a forbidden point is forbidden, and U_y lies inside U_x for
    every y in U_x), so every leaf is an open and the work is linear in the
    number of opens.
    """
    reach_rows, co_rows, full = space.reach_rows, space.co_rows, space.full_mask
    stack = [(0, 0)]
    while stack:
        taken, forbidden = stack.pop()
        free = full & ~(taken | forbidden)
        if not free:
            budget.charge()
            yield taken
            continue
        x = free.bit_length() - 1
        stack.append((taken | reach_rows[x], forbidden))
        stack.append((taken, forbidden | co_rows[x]))


def _tuple_space(factors, columns) -> FinSpace:
    """Subspace of the product of factors on the points whose coordinates in
    factor i are listed, in point order, by columns[i]; reach is
    componentwise.

    Point t reaches point t' exactly when t'[i] lies in U_{t[i]} for every
    coordinate i.  So with below[i][a] the mask of the points whose i-th
    coordinate lies in U_a (an OR of coordinate fibers), the row of t is the
    AND of below[i][t[i]] over its coordinates.  Dually, with above[i][a] the
    mask of the points whose i-th coordinate c has a in U_c (the OR of the
    fibers over the co row of a), the co row of t is the AND of
    above[i][t[i]].  Both take O(N*k + n*n*k) big-int operations for N points
    of k coordinates, where testing every pair of points would take
    O(N*N*k), and the co rows need no walk over the bits of every row.
    """
    belows, aboves = [], []
    for factor, coordinates in zip(factors, columns):
        fibers = fiber_masks(coordinates, factor.n)
        below, above = [], []
        for row, co_row, fiber in zip(factor.reach_rows, factor.co_rows, fibers):
            down = up = 0
            while fiber and row:  # below[a] is read only where some t[i] is a
                low = row & -row
                down |= fibers[low.bit_length() - 1]
                row ^= low
            while fiber and co_row:  # and so is above[a]
                low = co_row & -co_row
                up |= fibers[low.bit_length() - 1]
                co_row ^= low
            below.append(down)
            above.append(up)
        belows.append(below)
        aboves.append(above)
    if len(columns) == 1:  # a subspace: the rows of t are below[t[0]] and above[t[0]]
        (below,), (above,), (coordinates,) = belows, aboves, columns
        rows = list(map(below.__getitem__, coordinates))
        co = list(map(above.__getitem__, coordinates))
    elif len(columns) == 2:
        (below0, below1), (above0, above1), (first, second) = belows, aboves, columns
        rows = [below0[a] & below1[b] for a, b in zip(first, second)]
        co = [above0[a] & above1[b] for a, b in zip(first, second)]
    else:
        points = list(zip(*columns))
        rows = [functools.reduce(operator.and_, map(list.__getitem__, belows, t)) for t in points]
        co = [functools.reduce(operator.and_, map(list.__getitem__, aboves, t)) for t in points]
    return FinSpace._from_rows(rows, co)


@functools.lru_cache(maxsize=512)
def product(a: FinSpace, b: FinSpace):
    """Product space with componentwise reach; returns (space, proj_a, proj_b).

    Points are the pairs (i, j) in lexicographic order, index i * b.n + j,
    and the projections' assignments are the coordinate columns."""
    check_product(a.n * b.n)
    first = [i for i in range(a.n) for _ in range(b.n)]
    second = list(range(b.n)) * a.n
    space = _tuple_space((a, b), (first, second))
    return space, CMap(space, a, first, validate=False), CMap(space, b, second, validate=False)


def subspace(space: FinSpace, points):
    """Subspace on the given points (reach restricted, the one-factor case of
    _tuple_space); returns (space, inclusion).

    The restriction of reach is exactly the specialization relation of the
    subspace topology, for any subset of points.
    """
    pts = sorted(set(points))
    for p in pts:
        if not 0 <= p < space.n:
            raise ValueError(f"point {p} out of range")
    sub = _tuple_space((space,), (pts,))
    return sub, CMap(sub, space, pts, validate=False)


def subspace_of_mask(space: FinSpace, mask: int):
    return subspace(space, _bits(mask))


def pullback(p: CMap, g: CMap):
    """Canonical pullback of p: E -> B along g: X -> B.

    Points are the pairs (x, e) with g(x) = p(e), ordered lexicographically;
    reach is componentwise, and each row is the AND of a mask over x and a
    mask over e (see _tuple_space).  Returns (space, to_base, to_total) where
    to_base: P -> X is the pulled-back map g*(p) and to_total: P -> E, whose
    assignments are the x and e columns.  The point cap counts the pairs, the
    sum over x of |p^-1(g(x))|, before any is listed."""
    if p.target != g.target:
        raise ValueError("pullback needs p and g to share their target")
    X, E = g.source, p.source
    fibers = fiber_masks(p.assignment, p.target.n)
    check_product(sum(fibers[b].bit_count() for b in g.assignment))
    xs, es = [], []  # the columns, in one pass over the fibers
    for x, fiber in enumerate([fibers[b] for b in g.assignment]):
        xs += [x] * fiber.bit_count()
        es += _bits(fiber)
    space = _tuple_space((X, E), (xs, es))
    return space, CMap(space, X, xs, validate=False), CMap(space, E, es, validate=False)


@functools.lru_cache(maxsize=64)
def configuration_space(space: FinSpace, k: int):
    """Ordered configuration space F(Y, k) of k pairwise-distinct points.

    Returns (conf, pi) where pi: F(Y, k) -> Y is the first-coordinate
    projection pi_{k,1}; for k = 1 it is the space itself with the identity.
    Points are the k-permutations of the points in itertools.permutations
    order, and each row is the AND of one mask per coordinate (see
    _tuple_space, on the transposed permutations).  The point cap counts the
    n!/(n-k)! configurations.  For k > n the space is empty, and it is
    returned before anything of size k is made, so any such k costs O(1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return space, identity_map(space)
    if k > space.n:
        empty = FinSpace((), validate=False)
        return empty, CMap(empty, space, (), validate=False)
    check_product(math.perm(space.n, k))
    columns = list(zip(*itertools.permutations(range(space.n), k)))
    conf = _tuple_space((space,) * k, columns)
    return conf, CMap(conf, space, columns[0], validate=False)


# ---------------------------------------------------------------------------
# enumeration of continuous maps

def iter_assignments(
    source: FinSpace,
    target: FinSpace,
    domains,
    budget: Budget,
    order: str = "lex",
    value_orders=None,
    mask: int | None = None,
):
    """Backtracking enumeration of continuous assignments on the subspace of
    source on the points of mask (all of source when mask is None), as tuples
    listing the images of those points in ascending order.

    domains[x] and value_orders[x] are indexed by the points x of source;
    entries outside mask are ignored.  The subspace carries the restricted
    reach, so the search is the one over subspace_of_mask(source, mask),
    without building that space.  Forward checking prunes the domain of every
    unassigned point related to the one just assigned.  order='lex' fixes the
    variable order to ascending points (yield order is then lexicographic);
    order='mcf' picks the most constrained point first, lowest point on ties
    (existence searches).  value_orders optionally overrides the per-point
    value order (used by seeded random draws); default is ascending.

    The search is one loop over an explicit stack, one level per decided
    point, so its depth is bounded by the number of points, not by the
    interpreter's recursion limit.  budget is charged once per value tried.
    """
    if mask is None:
        mask = source.full_mask
    if not mask:
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
    assigned = [-1] * source.n
    # the mask's points in ascending order, and the other points of the mask
    # that each one is related to, in one pass over the mask's bits
    related = [0] * source.n
    points = []
    m = mask
    while m:
        b = m & -m
        x = b.bit_length() - 1
        m ^= b
        points.append(x)
        related[x] = (reach_rows[x] | co_rows[x]) & mask & ~b
    n = len(points)
    # the whole space (every fence search) yields its assignment as is, a
    # proper sub-mask the images of its points; itemgetter of a single index
    # returns a bare item
    full = mask == source.full_mask
    if not full:
        pick = operator.itemgetter(*points) if n > 1 else lambda a: (a[points[0]],)
    lex = order == "lex"
    # most constrained first: the free points are kept in buckets by domain
    # size, with a mask that has a bit for every size whose bucket may be
    # nonempty (an emptied one is cleared when the choice meets it), so the
    # choice is two lowest-bit steps, not a scan of the free points per level
    if not lex:
        sized = [0] * (target.n + 1)
        sizes = 0
        for x in points:
            size = domains[x].bit_count()
            sized[size] |= 1 << x
            sizes |= 1 << size
    # per depth: the point decided, its untried values (a mask, or an iterator
    # under value_orders) and the (point, old domain) pairs its value narrowed
    decided = [0] * n
    untried = [0] * n
    trails = [()] * n
    depth = 0
    entering = True
    while True:
        if entering:
            if lex:
                x = points[depth]
            else:
                while True:
                    low = sizes & -sizes
                    size = low.bit_length() - 1
                    free = sized[size]
                    if free:
                        break
                    sizes ^= low
                b = free & -free
                x = b.bit_length() - 1
                sized[size] = free ^ b
            decided[depth] = x
            dom = domains[x]
            untried[depth] = dom if value_orders is None else iter(
                [y for y in value_orders[x] if (dom >> y) & 1])
        else:
            x = decided[depth]
            for x2, old in trails[depth]:
                if not lex:
                    b = 1 << x2
                    sized[domains[x2].bit_count()] ^= b
                    size = old.bit_count()
                    sized[size] |= b
                    sizes |= 1 << size
                domains[x2] = old
        if value_orders is None:
            rest = untried[depth]
            b = rest & -rest
            untried[depth] = rest ^ b
            y = b.bit_length() - 1
        else:
            y = next(untried[depth], -1)
        if y < 0:
            # level exhausted: x is free again, and the level above resumes
            assigned[x] = -1
            if not lex:
                size = domains[x].bit_count()
                sized[size] |= 1 << x
                sizes |= 1 << size
            if not depth:
                return
            depth -= 1
            entering = False
            continue
        budget.charge()
        assigned[x] = y
        trails[depth] = trail = []
        ok = True
        m = related[x]
        below, above, ty, cy = reach_rows[x], co_rows[x], treach[y], tco[y]
        while m:
            b = m & -m
            x2 = b.bit_length() - 1
            m ^= b
            if assigned[x2] >= 0:
                continue
            old = new = domains[x2]
            if below & b:
                new &= ty
            if above & b:
                new &= cy
            if new != old:
                trail.append((x2, old))
                domains[x2] = new
                if not lex:
                    sized[old.bit_count()] ^= b
                    size = new.bit_count()
                    sized[size] |= b
                    sizes |= 1 << size
                if new == 0:
                    ok = False
                    break
        entering = ok
        if ok:
            depth += 1
            if depth == n:
                yield tuple(assigned) if full else pick(assigned)
                depth -= 1
                entering = False


def fiber_masks(assignment, n: int) -> list[int]:
    """Mask of the preimage of each of the points 0..n-1 of the target."""
    fibers = [0] * n
    for x, y in enumerate(assignment):
        fibers[y] |= 1 << x
    return fibers


def first_lift(source: FinSpace, target: FinSpace, fibers, images,
               budget: Budget, mask: int | None = None) -> tuple[int, ...] | None:
    """First continuous assignment k on the points of mask (all of source when
    mask is None) into target with k(x) in fibers[images[x]] for every such x,
    searched most constrained first, or None when there is none.

    images is indexed by the points of source, and k lists the images of the
    points of mask in ascending order, as iter_assignments does.  With
    fibers = fiber_masks(p.assignment, ...) and images the assignment of a map
    g into the target of p, k is a strict lift through p of g restricted to
    the subspace on mask."""
    domains = [fibers[b] for b in images]
    if mask is None:
        mask = source.full_mask
    m = mask
    while m:
        b = m & -m
        if not domains[b.bit_length() - 1]:
            return None
        m ^= b
    for assignment in iter_assignments(source, target, domains, budget, order="mcf", mask=mask):
        return assignment
    return None


def enumerate_maps(source: FinSpace, target: FinSpace, budget: Budget | int | None = None):
    """Lazy stream of exactly the continuous maps, in lexicographic order of
    their assignment tuples.  Raises BudgetExhausted mid-iteration when the
    node budget runs out; callers must treat that as inconclusive, never as
    'none exists'.
    """
    budget = Budget.ensure(budget)
    domains = [target.full_mask] * source.n
    for assignment in iter_assignments(source, target, domains, budget):
        yield CMap(source, target, assignment, validate=False)
