"""Exhaustive censuses of finite spaces and seeded random instance generation.

census_spaces(n) yields every preorder on n points up to isomorphism, built by
one-point extension (canonical augmentation in the sense of McKay, "Isomorph-free
exhaustive generation", 1998).  Deleting a point from a preorder leaves a
preorder, so every space on n points extends a representative on n - 1 points
by a new point z: its minimal open set is {z} plus an open set R of the base,
and the points that reach z form a closed set C of the base each of whose
minimal open sets contains R (posets additionally need R and C disjoint).
The extensions are collapsed to canonical representatives; the canonical form
is the minimum relation bitmask over all relabelings, restricted to
permutations compatible with per-point degree signatures (isomorphisms
preserve those, so the restriction is sound).

InstanceGenerator draws reproducible random spaces, maps, commuting squares,
triples and retractions from a seeded generator; identical seeds give
identical instances regardless of the host or the degree of parallelism.
Every draw goes through InstanceGenerator._below, one rejection loop on
random.Random.getrandbits, so the instances rest on the Mersenne Twister's
bit stream alone and not on randrange, sample or choice, whose algorithms
the random module does not promise to keep across Python versions.  The loop
is the one CPython runs under those calls, so the draws are the ones they
gave.
"""

from __future__ import annotations

import functools
import itertools
import random

from .finspace import (
    CMap,
    FinSpace,
    compose,
    fiber_masks,
    first_lift,
    identity_map,
    iter_assignments,
    iter_open_masks,
    make_space,
    pseudocircle,
    subspace_of_mask,
)
from .homotopy import is_contractible
from .resources import DEFAULT_NODE_BUDGET, Budget, LimitExceeded

CENSUS_HARD_MAX = 7

# preorders (= finite topologies, OEIS A001930) and posets (OEIS A000112) on n
# unlabeled points
KNOWN_PREORDER_COUNTS = {0: 1, 1: 1, 2: 3, 3: 9, 4: 33, 5: 139, 6: 718, 7: 4535}
KNOWN_POSET_COUNTS = {0: 1, 1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045}


def _signature_blocks(rows, co, n):
    signature = [(rows[i].bit_count(), co[i].bit_count()) for i in range(n)]
    order = sorted(range(n), key=lambda i: (signature[i], i))
    blocks = []
    for _, group in itertools.groupby(order, key=lambda i: signature[i]):
        blocks.append(list(group))
    return blocks


def canonical_form(space: FinSpace) -> int:
    """Minimum relation bitmask over signature-compatible relabelings."""
    n = space.n
    if n == 0:
        return 0
    rows, co = space.reach_rows, space.co_rows
    blocks = _signature_blocks(rows, co, n)
    best = None
    for parts in itertools.product(*(itertools.permutations(block) for block in blocks)):
        old_of_new = [p for part in parts for p in part]
        key = 0
        for new_i, old_i in enumerate(old_of_new):
            row = rows[old_i]
            for new_j, old_j in enumerate(old_of_new):
                if (row >> old_j) & 1:
                    key |= 1 << (new_i * n + new_j)
        if best is None or key < best:
            best = key
    return best


def are_isomorphic(a: FinSpace, b: FinSpace) -> bool:
    if a.n != b.n:
        return False
    return canonical_form(a) == canonical_form(b)


def _space_from_relation_key(key: int, n: int) -> FinSpace:
    rows = [(key >> (i * n)) & ((1 << n) - 1) for i in range(n)]
    return FinSpace(rows, validate=False)


def _one_point_extension_keys(bases, posets_only: bool) -> set[int]:
    """Canonical forms of every space on m + 1 points whose restriction to the
    points 0..m-1 is one of the bases (all on m points); the new point is m."""
    keys = set()
    for base in bases:
        rows = base.reach_rows
        z = 1 << base.n
        opens = list(iter_open_masks(base, Budget(DEFAULT_NODE_BUDGET)))
        for up in opens:
            # points whose minimal open set contains up may reach z
            may_reach = 0
            for c, row in enumerate(rows):
                if row & up == up:
                    may_reach |= 1 << c
            if posets_only:
                may_reach &= ~up
            for closed in (base.full_mask & ~mask for mask in opens):
                if closed & ~may_reach:
                    continue
                new_rows = [row | z if (closed >> c) & 1 else row for c, row in enumerate(rows)]
                new_rows.append(up | z)
                keys.add(canonical_form(FinSpace(new_rows, validate=False)))
    return keys


@functools.lru_cache(maxsize=32)
def census_spaces(n: int, posets_only: bool = False) -> tuple[FinSpace, ...]:
    """All preorders (or posets) on n points, pairwise non-isomorphic,
    ordered by canonical form."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > CENSUS_HARD_MAX:
        raise LimitExceeded(f"census capped at {CENSUS_HARD_MAX} points, asked for {n}")
    if n == 0:
        return (make_space(0, []),)
    # sizes are built bottom-up in this loop, not by calling census_spaces(n - 1):
    # bench/tracer.py::suite_phases adds up the time of every census_spaces span,
    # so nested calls would count the smaller censuses twice, and the traced
    # census_spaces call counts would change with them
    keys = {0}
    for m in range(n):
        bases = [_space_from_relation_key(key, m) for key in keys]
        keys = _one_point_extension_keys(bases, posets_only)
    return tuple(_space_from_relation_key(key, n) for key in sorted(keys))


def census_up_to(n_max: int, include_empty: bool = False):
    """Censuses of sizes 1..n_max concatenated (optionally starting at 0)."""
    spaces = []
    start = 0 if include_empty else 1
    for n in range(start, n_max + 1):
        spaces.extend(census_spaces(n))
    return spaces


def cone(space: FinSpace) -> FinSpace:
    """Space plus a new bottom point lying in every minimal open set;
    always contractible."""
    n = space.n
    pairs = [
        (i, j) for i in range(n) for j in range(n) if i != j and space.reach(i, j)
    ]
    pairs.extend((i, n) for i in range(n))
    return make_space(n + 1, pairs)


@functools.lru_cache(maxsize=1024)
def _comparable_maps(g: CMap) -> tuple[tuple[int, ...], ...]:
    """Sorted assignments of the maps f uniformly comparable with g, g
    included: f(x) in U_{g(x)} for every x, or g(x) in U_{f(x)} for every x."""
    Y = g.target
    candidates = {g.assignment}
    for rows in (Y.reach_rows, Y.co_rows):
        domains = [rows[y] for y in g.assignment]
        candidates.update(iter_assignments(g.source, Y, domains, Budget(DEFAULT_NODE_BUDGET)))
    return tuple(sorted(candidates))


class InstanceGenerator:
    """Seeded, reproducible source of random spaces and maps.

    Every draw is _below(n), uniform on range(n) by rejection on
    n.bit_length() bits of getrandbits: randint(a, b) is a + _below(b - a + 1),
    _shuffled(n) is the pool-swap loop of sample(range(n), n) and _pick(seq)
    is choice(seq), draw for draw.  Owning the loop keeps the instances
    independent of those methods' algorithms, which may change between
    Python versions, and skips their argument handling on the 10^5 draws of
    a suite run."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self._getrandbits = self.rng.getrandbits

    def _below(self, n: int) -> int:
        if n <= 0:
            raise ValueError(f"cannot draw below {n}")
        getrandbits = self._getrandbits
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    def _shuffled(self, n: int) -> list[int]:
        """A random order of range(n): each step draws one of the points
        not yet placed and moves the last of them into its slot."""
        below = self._below
        pool = list(range(n))
        order = []
        for last in range(n - 1, -1, -1):
            j = below(last + 1)
            order.append(pool[j])
            pool[j] = pool[last]
        return order

    def _pick(self, seq):
        return seq[self._below(len(seq))]

    # -- spaces -------------------------------------------------------------

    def space(self, max_points: int) -> FinSpace:
        below = self._below
        n = 1 + below(max_points)
        generators = below(2 * n + 1)
        pairs = [(below(n), below(n)) for _ in range(generators)]
        return make_space(n, pairs)

    def hausdorff_space(self, max_points: int) -> FinSpace:
        return make_space(1 + self._below(max_points), [])

    def contractible_space(self, max_points: int) -> FinSpace:
        base = self.space(max(1, max_points - 1))
        if is_contractible(base):
            return base
        return cone(base)

    def noncontractible_space(self, max_points: int) -> FinSpace:
        for _ in range(64):
            X = self.space(max_points)
            if not is_contractible(X):
                return X
        return pseudocircle()

    # -- maps ---------------------------------------------------------------

    def cmap(self, source: FinSpace, target: FinSpace, domains=None) -> CMap | None:
        """Random continuous map via value-shuffled backtracking, with x sent
        into the bitmask domains[x] (anywhere when domains is None); None when
        no continuous map does that."""
        value_orders = [self._shuffled(target.n) for _ in range(source.n)]
        if domains is None:
            domains = [target.full_mask] * source.n
        for assignment in iter_assignments(
            source, target, domains, Budget(DEFAULT_NODE_BUDGET), value_orders=value_orders
        ):
            return CMap(source, target, assignment, validate=False)
        return None

    def homotopic_neighbor(self, g: CMap) -> CMap:
        """Random map one comparability step away from g (possibly g itself)."""
        return CMap(g.source, g.target, self._pick(_comparable_maps(g)), validate=False)

    def open_mask(self, space: FinSpace) -> int:
        """A random nonempty open of the space."""
        masks = [m for m in iter_open_masks(space, Budget(DEFAULT_NODE_BUDGET)) if m]
        return self._pick(masks)

    def retraction(self, max_points: int):
        """Random (X, B open in X, r: X -> B) with r restricting to the identity."""
        for _ in range(32):
            X = self.space(max_points)
            mask = self.open_mask(X)
            sub, incl = subspace_of_mask(X, mask)
            index_of = {p: i for i, p in enumerate(incl.assignment)}
            domains = [
                1 << index_of[x] if x in index_of else sub.full_mask
                for x in range(X.n)
            ]
            r = self.cmap(X, sub, domains)
            if r is not None:
                return X, sub, incl, r
        X = self.space(max_points)
        return X, X, identity_map(X), identity_map(X)

    # -- composite instances -------------------------------------------------

    def triple(self, max_points: int, hausdorff_target: bool = False):
        """(X, Y, g) with g: X -> Y continuous."""
        X = self.space(max_points)
        Y = self.hausdorff_space(max_points) if hausdorff_target else self.space(max_points)
        g = self.cmap(X, Y)
        return X, Y, g

    def square(self, max_points: int):
        """Strictly commuting square (phi, f, f_prime, psi) with
        f_prime o phi == psi o f, built by construction."""
        recipe = self._below(3)
        X = self.space(max_points)
        Y = self.space(max_points)
        if recipe == 0:
            # phi identity, f_prime = psi o f
            Yp = self.space(max_points)
            f = self.cmap(X, Y)
            psi = self.cmap(Y, Yp)
            return identity_map(X), f, compose(psi, f), psi
        if recipe == 1:
            # psi identity, f = f_prime o phi
            Xp = self.space(max_points)
            phi = self.cmap(X, Xp)
            f_prime = self.cmap(Xp, Y)
            return phi, compose(f_prime, phi), f_prime, identity_map(Y)
        # general: solve for f with psi o f = f_prime o phi, else fall back
        Xp = self.space(max_points)
        Yp = self.space(max_points)
        phi = self.cmap(X, Xp)
        f_prime = self.cmap(Xp, Yp)
        psi = self.cmap(Y, Yp)
        fibers = fiber_masks(psi.assignment, Yp.n)
        needed = compose(f_prime, phi).assignment
        lift = first_lift(X, Y, fibers, needed, Budget(DEFAULT_NODE_BUDGET))
        if lift is not None:
            return phi, CMap(X, Y, lift, validate=False), f_prime, psi
        f = self.cmap(X, Yp)
        return identity_map(X), f, f, identity_map(Yp)


def random_instance(kind: str, seed, max_points: int = 3):
    """One reproducible instance of the requested kind (spec parity helper)."""
    gen = InstanceGenerator(seed)
    if kind == "space":
        return gen.space(max_points)
    if kind == "map":
        X = gen.space(max_points)
        Y = gen.space(max_points)
        return gen.cmap(X, Y)
    if kind == "square":
        return gen.square(max_points)
    if kind == "triple":
        return gen.triple(max_points)
    if kind == "triple-hausdorff":
        return gen.triple(max_points, hausdorff_target=True)
    raise ValueError(f"unknown instance kind {kind!r}")
