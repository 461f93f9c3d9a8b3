"""Exact minimum set cover and the maximal-good-opens driver.

Every covering invariant (sectional numbers, their relative versions and
LS-category) minimises over open covers whose elements satisfy a property
that is closed under shrinking opens, so it suffices to search covers drawn
from the maximal good opens; min_good_cover is that one pipeline.  The
maximal good opens are found from the top down (find_maximal_good_opens), so
opens below an accepted one are never visited, and is_good sees a bare point
mask of the space.
The cover search itself is exact branch-and-bound with a greedy upper bound
and lexicographic tie-breaking, so results are deterministic.
"""

from __future__ import annotations

from .finspace import FinSpace, _bits
from .resources import Budget


def find_maximal_good_opens(space: FinSpace, is_good, budget: Budget):
    """Maximal nonempty opens satisfying a shrink-closed property.

    is_good(mask) returns a witness (any non-None value) or None.  Opens are
    scanned from the full open down, one size level at a time and by
    ascending mask within a level, charging budget one node per visited open.
    An open inside an accepted one is skipped, which is sound exactly because
    the property is monotone under shrinking.  A bad open hands the next
    levels its children: the open minus the reach class of a point that no
    other point of the open outside that class reaches.  Every smaller open
    lies below a chain of such steps, and each open above a maximal good one
    is bad, so every maximal good open is visited and nothing else is
    accepted.  Dropping whole classes, not single points, keeps this exact on
    preorders that are not T0.  Returns [(mask, witness), ...] in scan
    order, that is by (-size, mask).
    """
    rows, co = space.reach_rows, space.co_rows
    accepted: list[tuple[int, object]] = []
    levels = {space.n: {space.full_mask}} if space.n else {}  # size -> opens
    while levels:
        for mask in sorted(levels.pop(max(levels))):
            budget.charge()
            if any(mask & ~amask == 0 for amask, _ in accepted):
                continue
            witness = is_good(mask)
            if witness is not None:
                accepted.append((mask, witness))
                continue
            rest = mask
            while rest:
                x = (rest & -rest).bit_length() - 1
                cls = rows[x] & co[x]
                rest &= ~cls
                child = mask & ~cls
                if co[x] & mask == cls and child:
                    levels.setdefault(child.bit_count(), set()).add(child)
    return accepted


def greedy_cover(universe: int, masks: list[int]) -> list[int] | None:
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


def exact_min_cover(universe: int, masks: list[int], budget: Budget):
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
    coverers: dict[int, list[int]] = {}
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
    chosen: list[int] = []

    def branch(uncovered: int):
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


def min_good_cover(space: FinSpace, is_good, budget: Budget):
    """Minimum cover of the space by opens with a shrink-closed property.

    Returns ([(mask, witness), ...], None), the chosen maximal good opens with
    their is_good witnesses, or (None, point) naming the lowest point that
    lies in no good open.
    """
    good = find_maximal_good_opens(space, is_good, budget)
    union = 0
    for mask, _ in good:
        union |= mask
    if union != space.full_mask:
        return None, next(_bits(space.full_mask & ~union))
    chosen = exact_min_cover(space.full_mask, [mask for mask, _ in good], budget)
    return [good[i] for i in chosen], None
