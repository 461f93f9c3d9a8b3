"""Independent brute-force oracles for the covering invariants.

These deliberately avoid every optimisation used by the library: no core
compression, no maximal-open pruning, no branch-and-bound.  Components of the
map space come from comparability over the fully enumerated hom-set, and
minimum covers come from trying all combinations by ascending size.
Constructed spaces come from testing every pair of points, and the closure
of generator pairs from a graph search from every point.  The subspace
route of core reduction and of the cat and secat good-open tests (one
subspace per collapse and per candidate open) is kept as the check of the
library's point-mask route, the restart-from-scratch collapse scan as the
check of the incremental one, the recursive map search as the check of the
explicit-stack one, and a cover pipeline on the whole space (its maximal
good opens by the list-sort-scan and an exact set cover of them) as the
check of the colouring of maximal points that covers each connected
component on its own.  The module also holds the random-preorder,
random-poset and disjoint-union strategies that the property tests share.
"""

import itertools
import operator

from hypothesis import strategies as st

from secnum.census import canonical_form, census_up_to
from secnum.extnat import INF, ExtNat
from secnum.finspace import (
    CMap,
    FinSpace,
    _bits,
    compose,
    enumerate_maps,
    fiber_masks,
    first_lift,
    identity_map,
    make_space,
    subspace_of_mask,
)
from secnum.homotopy import _component_bfs
from secnum.resources import Budget, BudgetExhausted


def brute_open_masks(space):
    """Every subset of the points that contains the minimal open set of each
    of its points, as bitmasks in ascending order."""
    rows = space.reach_rows
    return [
        mask for mask in range(1 << space.n)
        if all(rows[x] & ~mask == 0 for x in range(space.n) if (mask >> x) & 1)
    ]


def brute_maximal_good_opens(space, is_good):
    """Maximal nonempty opens with a shrink-closed property, by listing every
    open, sorting by (-size, mask) and skipping subsets of accepted ones."""
    masks = [m for m in brute_open_masks(space) if m]
    masks.sort(key=lambda m: (-m.bit_count(), m))
    accepted = []
    for mask in masks:
        if any(mask & ~amask == 0 for amask, _ in accepted):
            continue
        witness = is_good(mask)
        if witness is not None:
            accepted.append((mask, witness))
    return accepted


def all_maps(source, target):
    return list(enumerate_maps(source, target, budget=10_000_000))


def hom_components(source, target):
    """Map assignment -> component id: the components of the comparability
    graph on the fully enumerated hom-set, labelled in enumeration order.
    Every edge joins a map to one pointwise below it, so it is found from its
    upper end by listing each assignment pointwise below that map and keeping
    the continuous ones."""
    maps = [m.assignment for m in all_maps(source, target)]
    parent = {m: m for m in maps}

    def find(m):
        while parent[m] != m:
            parent[m] = m = parent[parent[m]]
        return m

    below = [list(_bits(row)) for row in target.reach_rows]
    for m in maps:
        for other in itertools.product(*(below[y] for y in m)):
            if other in parent:
                parent[find(other)] = find(m)
    labels = {}
    return {m: labels.setdefault(find(m), len(labels)) for m in maps}


def brute_homotopic(f, g):
    components = hom_components(f.source, f.target)
    return components[f.assignment] == components[g.assignment]


def brute_nullhomotopic_inclusion(space, mask):
    sub, incl = subspace_of_mask(space, mask)
    if sub.n == 0:
        return True
    components = hom_components(sub, space)
    inc_label = components[incl.assignment]
    return any(
        components[(c,) * sub.n] == inc_label for c in range(space.n)
    )


def _find_collapse(space, mask):
    """First removable pair (x, y) of the subspace on the points of mask, both
    scanned in ascending order."""
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


def rescan_core_mask(space, mask):
    """homotopy._core_mask by a scan that restarts from the lowest point after
    every collapse and moves the retraction along at each stage: the same
    (core mask, retraction, stages)."""
    retraction = list(range(space.n))
    stages = []
    while (pair := _find_collapse(space, mask)) is not None:
        x, y = pair
        mask &= ~(1 << x)
        stages.append(pair)
        retraction = [y if p == x else p for p in retraction]
    return mask, retraction, tuple(stages)


def _subspace_find_collapse(space):
    """First removable pair (x, y) of the whole space, x and then y
    ascending."""
    rows, co = space.reach_rows, space.co_rows
    for x in range(space.n):
        strict_down = rows[x] & ~(1 << x)
        strict_up = co[x] & ~(1 << x)
        for y in range(space.n):
            if y == x:
                continue
            if not ((rows[x] >> y) & 1 or (rows[y] >> x) & 1):
                continue
            if strict_down & ~rows[y] or strict_up & ~co[y]:
                continue
            return x, y
    return None


def subspace_core(space):
    """Core reduction with one subspace per collapse.  Returns (core space,
    retraction, inclusion, fence): fence is the chain of self-maps of the
    space from the identity to inclusion o retraction, one per collapse."""
    current = space
    retraction = inclusion = identity_map(space)
    fence = [identity_map(space)]
    while (pair := _subspace_find_collapse(current)) is not None:
        x, y = pair
        sub, incl = subspace_of_mask(current, current.full_mask & ~(1 << x))
        index = {p: i for i, p in enumerate(incl.assignment)}
        step = CMap(current, sub, [index[y if p == x else p] for p in range(current.n)])
        retraction = compose(step, retraction)
        inclusion = compose(inclusion, incl)
        fence.append(compose(inclusion, retraction))
        current = sub
    return current, retraction, inclusion, fence


def _subspace_cores(Y, mask):
    """The subspace U of Y on mask, its inclusion, its core data and that of
    Y, by subspace_core."""
    sub, incl = subspace_of_mask(Y, mask)
    return incl, subspace_core(sub), subspace_core(Y)


def subspace_contraction_point(X, mask, budget):
    """cat's good-open test on the subspace of the open: the point c with the
    inclusion homotopic to the constant at c, by a fence search from the
    compressed inclusion between the two cores, or None."""
    incl, (u_core, _, u_incl, _), (x_core, x_r, x_incl, _) = _subspace_cores(X, mask)
    start = tuple(x_r(incl(u)) for u in u_incl.assignment)
    found, _ = _component_bfs(u_core, x_core, start, budget, stop=lambda t: len(set(t)) == 1)
    return None if found is None else x_incl(found[0])


def subspace_homotopy_section_witness(f, mask, budget):
    """secat's good-open test on the subspace of the open: the assignment of
    s with compose(f, s) homotopic to the inclusion, or None."""
    incl, (u_core, u_r, u_incl, _), (y_core, y_r, _, _) = _subspace_cores(f.target, mask)
    start = tuple(y_r(incl(u)) for u in u_incl.assignment)
    fibers = fiber_masks([y_r(fy) for fy in f.assignment], y_core.n)
    found = {}

    def try_lift(t):
        found["lift"] = first_lift(u_core, f.source, fibers, t, budget)
        return found["lift"] is not None

    hit, _ = _component_bfs(u_core, y_core, start, budget, stop=try_lift)
    if hit is None:
        return None
    return tuple(found["lift"][u] for u in u_r.assignment)


def outcome_and_nodes(test, *args, nodes=100_000):
    """(result, nodes charged) of test(*args, budget) on a fresh budget of
    the given size; the result is "exhausted" when the budget runs out."""
    budget = Budget(nodes)
    try:
        result = test(*args, budget)
    except BudgetExhausted:
        result = "exhausted"
    return result, budget.limit - budget.remaining


def minimum_cover_size(universe, masks):
    if universe == 0:
        return 0
    union = 0
    for m in masks:
        union |= m
    if universe & ~union:
        return None
    for k in range(1, len(masks) + 1):
        for combo in itertools.combinations(masks, k):
            got = 0
            for m in combo:
                got |= m
            if got & universe == universe:
                return k
    return None


def brute_cat(space):
    if space.n == 0:
        return ExtNat(1)
    good = [
        mask for mask in brute_open_masks(space)
        if mask and brute_nullhomotopic_inclusion(space, mask)
    ]
    size = minimum_cover_size(space.full_mask, good)
    return INF if size is None else ExtNat(size)


def _has_strict_section(f, mask):
    sub, incl = subspace_of_mask(f.target, mask)
    for s in all_maps(sub, f.source):
        if compose(f, s).assignment == incl.assignment:
            return True
    return False


def _has_homotopy_section(f, mask):
    sub, incl = subspace_of_mask(f.target, mask)
    if sub.n == 0:
        return True
    components = hom_components(sub, f.target)
    inc_label = components[incl.assignment]
    for s in all_maps(sub, f.source):
        if components[compose(f, s).assignment] == inc_label:
            return True
    return False


def brute_sec(f, mode="section"):
    Y = f.target
    if Y.n == 0:
        return ExtNat(1)
    test = _has_strict_section if mode == "section" else _has_homotopy_section
    good = [mask for mask in brute_open_masks(Y) if mask and test(f, mask)]
    size = minimum_cover_size(Y.full_mask, good)
    return INF if size is None else ExtNat(size)


def brute_relative_sec_lift(p, g):
    """Minimum cover of the base of g by opens with strict lifts through p."""
    X = g.source
    if X.n == 0:
        return ExtNat(1)
    good = []
    for mask in brute_open_masks(X):
        if not mask:
            continue
        sub, incl = subspace_of_mask(X, mask)
        for sigma in all_maps(sub, p.source):
            if all(p(sigma(i)) == g(x) for i, x in enumerate(incl.assignment)):
                good.append(mask)
                break
    size = minimum_cover_size(X.full_mask, good)
    return INF if size is None else ExtNat(size)


def greedy_cover(universe, masks):
    chosen = []
    uncovered = universe
    while uncovered:
        best, best_gain = -1, 0
        for idx, m in enumerate(masks):
            gain = (m & uncovered).bit_count()
            if gain > best_gain:
                best, best_gain = idx, gain
        if best < 0:
            return None
        chosen.append(best)
        uncovered &= ~masks[best]
    return chosen


def exact_set_cover(universe, masks, budget):
    """Indices of a minimum-cardinality cover of universe, or None if impossible.

    Deterministic: branches on the uncovered element covered by the fewest
    sets (lowest element breaks ties) and tries covering sets in index order.
    """
    if universe == 0:
        return ()
    union = 0
    for m in masks:
        union |= m
    if universe & ~union:
        return None
    coverers = {}
    e = universe
    while e:
        b = e & -e
        elem = b.bit_length() - 1
        coverers[elem] = [i for i, m in enumerate(masks) if (m >> elem) & 1]
        e ^= b
    best = greedy_cover(universe, masks)
    assert best is not None
    best_len = len(best)
    if best_len == 1:
        return tuple(best)
    max_size = max(m.bit_count() for m in masks)
    chosen = []

    def branch(uncovered):
        nonlocal best, best_len
        budget.charge()
        if not uncovered:
            if len(chosen) < best_len:
                best, best_len = list(chosen), len(chosen)
            return
        # lower bound: remaining elements / largest set
        need = (uncovered.bit_count() + max_size - 1) // max_size
        if len(chosen) + need >= best_len:
            return
        pick, pick_count = -1, None
        e = uncovered
        while e:
            b = e & -e
            elem = b.bit_length() - 1
            count = len(coverers[elem])
            if pick_count is None or count < pick_count:
                pick, pick_count = elem, count
            e ^= b
        for i in coverers[pick]:
            chosen.append(i)
            branch(uncovered & ~masks[i])
            chosen.pop()

    branch(universe)
    return tuple(best)


def whole_space_min_good_cover(space, is_good, budget):
    """The cover pipeline of maximal good opens, without the split into
    components: the maximal good opens of the whole space
    (brute_maximal_good_opens) and one exact set cover of all its points by
    them.  Returns what cover.min_good_cover does, and is the check of its
    colouring of the maximal points."""
    good = brute_maximal_good_opens(space, is_good)
    union = 0
    for mask, _ in good:
        union |= mask
    if union != space.full_mask:
        return None, next(_bits(space.full_mask & ~union))
    chosen = exact_set_cover(space.full_mask, [mask for mask, _ in good], budget)
    return [good[i] for i in chosen], None


def brute_has_fixed_point_free_map(space):
    return any(
        all(m(x) != x for x in range(space.n)) for m in all_maps(space, space)
    )


def brute_coincidence_free(X, Y, g):
    """Whether some continuous f: X -> Y has f(x) != g(x) for every x, by
    trying all Y.n ** X.n assignments and checking reach on the rows."""
    rows, trows = X.reach_rows, Y.reach_rows
    for f in itertools.product(range(Y.n), repeat=X.n):
        if any(f[x] == g(x) for x in range(X.n)):
            continue
        if all((trows[f[x]] >> f[y]) & 1
               for x in range(X.n) for y in range(X.n) if (rows[x] >> y) & 1):
            return True
    return False


def brute_census(n, posets_only=False):
    """Every reflexive relation on n points (2^(n(n-1)) of them), kept when
    transitive (and antisymmetric for posets), collapsed by canonical form and
    returned as spaces in ascending canonical order, like census_spaces."""
    if n == 0:
        return (make_space(0, []),)
    positions = [(i, j) for i in range(n) for j in range(n) if i != j]
    keys = set()
    for mask in range(1 << len(positions)):
        rows = [1 << i for i in range(n)]
        for bit, (i, j) in enumerate(positions):
            if (mask >> bit) & 1:
                rows[i] |= 1 << j
        transitive = all(
            rows[j] & ~rows[i] == 0
            for i in range(n) for j in range(n) if (rows[i] >> j) & 1
        )
        if not transitive:
            continue
        if posets_only and any(
            (rows[i] >> j) & 1 and (rows[j] >> i) & 1
            for i in range(n) for j in range(i + 1, n)
        ):
            continue
        keys.add(canonical_form(FinSpace(rows, validate=False)))
    full = (1 << n) - 1
    return tuple(
        FinSpace([(key >> (i * n)) & full for i in range(n)], validate=False)
        for key in sorted(keys)
    )


def brute_lift_exists(source, target, fibers, images):
    """Whether some continuous k: source -> target has k(x) in fibers[images[x]]
    for every x, by trying every continuous map."""
    return any(
        all((fibers[images[x]] >> k(x)) & 1 for x in range(source.n))
        for k in all_maps(source, target)
    )


def brute_closure_rows(n, pairs):
    """Reach rows of the reflexive-transitive closure of the pairs (i, j),
    each meaning reach(i, j), by a graph search from every point."""
    successors = [[] for _ in range(n)]
    for i, j in pairs:
        successors[i].append(j)
    rows = []
    for x in range(n):
        seen, stack = {x}, [x]
        while stack:
            for y in successors[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        rows.append(sum(1 << y for y in seen))
    return tuple(rows)


def brute_preorder_error(rows):
    """The message FinSpace(rows) raises, or None when rows are the reach
    rows of a preorder, from the relation as a set of pairs: first every
    point's row in range and reflexive, in point order, then transitivity at
    the first pair (x, y) in lexicographic order with reach(x, y) and some
    reach(y, z) without reach(x, z)."""
    n = len(rows)
    reach = {(x, y) for x, row in enumerate(rows) for y in range(row.bit_length()) if (row >> y) & 1}
    for x in range(n):
        if any(y >= n for a, y in reach if a == x):
            return f"reach row of point {x} mentions an out-of-range point"
        if (x, x) not in reach:
            return f"reach is not reflexive at point {x}"
    for x, y in sorted(reach):
        if any((y, z) in reach and (x, z) not in reach for z in range(n)):
            return f"reach is not transitive: reach({x},{y}) but U_{y} is not inside U_{x}"
    return None


def brute_co_rows(rows):
    """co_rows[y]: the mask of the points x with reach(x, y), bit by bit."""
    n = len(rows)
    return tuple(sum(1 << x for x in range(n) if (rows[x] >> y) & 1) for y in range(n))


def brute_discontinuity(source, target, assignment):
    """The first pair (x, x2) in lexicographic order with reach(x, x2) in the
    source and not reach(f(x), f(x2)) in the target, or None."""
    for x, x2 in itertools.product(range(source.n), repeat=2):
        if source.reach(x, x2) and not target.reach(assignment[x], assignment[x2]):
            return x, x2
    return None


def brute_configuration_rows(space, k):
    """The points of F(space, k) in permutations order and their reach rows,
    by testing every pair of configurations coordinate by coordinate."""
    rows_src = space.reach_rows
    tuples = list(itertools.permutations(range(space.n), k))
    rows = []
    for t in tuples:
        row = 0
        for i2, t2 in enumerate(tuples):
            if all((rows_src[a] >> b) & 1 for a, b in zip(t, t2)):
                row |= 1 << i2
        rows.append(row)
    return tuples, rows


def brute_pullback_rows(p, g):
    """The pairs (x, e) with g(x) = p(e) in lexicographic order and their
    componentwise reach rows, by testing every pair of pairs."""
    X, E = g.source, p.source
    pairs = [(x, e) for x in range(X.n) for e in range(E.n) if g(x) == p(e)]
    rows = []
    for x, e in pairs:
        xrow, erow = X.reach_rows[x], E.reach_rows[e]
        row = 0
        for k, (x2, e2) in enumerate(pairs):
            if (xrow >> x2) & 1 and (erow >> e2) & 1:
                row |= 1 << k
        rows.append(row)
    return pairs, rows


def recursive_iter_assignments(
    source,
    target,
    domains,
    budget,
    order="lex",
    value_orders=None,
    mask=None,
):
    """The recursive form of finspace.iter_assignments (one nested generator
    per decided point), kept as the check of the library's explicit-stack
    search: same arguments, same stream, same nodes charged in the same
    order.  Its depth is bounded by the interpreter's recursion limit, so it
    serves small spaces only."""
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
    # the whole space (every fence search) yields its assignment as is
    full = mask == source.full_mask
    points = range(source.n) if full else list(_bits(mask))
    n = len(points)
    domains = list(domains)
    assigned = [-1] * source.n
    related = [(reach_rows[x] | co_rows[x]) & mask & ~(1 << x) for x in range(source.n)]
    # images of the mask's points; itemgetter of a single index returns a bare item
    pick = operator.itemgetter(*points) if n > 1 else lambda a: (a[points[0]],)

    def backtrack(done: int):
        if done == n:
            yield tuple(assigned) if full else pick(assigned)
            return
        if order == "lex":
            x = points[done]
        else:
            x, best_size = -1, None
            for z in points:
                if assigned[z] < 0:
                    size = domains[z].bit_count()
                    if best_size is None or size < best_size:
                        x, best_size = z, size
        dom = domains[x]
        if value_orders is None:
            values = _bits(dom)
        else:
            values = [y for y in value_orders[x] if (dom >> y) & 1]
        for y in values:
            budget.charge()
            assigned[x] = y
            trail = []
            ok = True
            m = related[x]
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


@st.composite
def preorders(draw, max_points, min_points=1):
    """Reflexive-transitive closures of random relations on
    min_points..max_points points."""
    n = draw(st.integers(min_points, max_points))
    point = st.integers(0, n - 1)
    return make_space(n, draw(st.lists(st.tuples(point, point), max_size=2 * n)))


@st.composite
def posets(draw, max_points):
    """T0 preorders: closures of random relations that only go downwards."""
    n = draw(st.integers(1, max_points))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    return make_space(n, [(a, b) for a, b in pairs if a > b])


@st.composite
def continuous_maps(draw, source, target):
    """A continuous map source -> target drawn from all of them."""
    return draw(st.sampled_from(all_maps(source, target)))


def disjoint_union(*spaces):
    """The spaces side by side, the points of each after those of the ones
    before it."""
    rows, offset = [], 0
    for space in spaces:
        rows.extend(row << offset for row in space.reach_rows)
        offset += space.n
    return FinSpace(rows)


def disjoint_union_map(*maps):
    """The maps side by side, between the disjoint unions of their sources
    and of their targets."""
    assignment, offset = [], 0
    for f in maps:
        assignment.extend(y + offset for y in f.assignment)
        offset += f.target.n
    return CMap(disjoint_union(*(f.source for f in maps)),
                disjoint_union(*(f.target for f in maps)), assignment)


def relabel(space, order):
    """The same space with its points listed in the given order: point i of
    the result is point order[i] of space."""
    position = {x: i for i, x in enumerate(order)}
    return FinSpace([
        sum(1 << position[y] for y in _bits(space.reach_rows[x])) for x in order
    ])


@st.composite
def preorder_families(draw, max_total, max_points=3):
    """Two or three spaces drawn from the census of preorders of at most
    max_points points, with at most max_total points in all.  Drawing from
    the census, not from random relations, makes spaces with several
    maximal points or a circle as likely as the others."""
    count = draw(st.integers(2, 3))
    parts = []
    for i in range(count):
        room = max_total - sum(part.n for part in parts) - (count - 1 - i)
        parts.append(draw(st.sampled_from(census_up_to(min(max_points, room)))))
    return parts
