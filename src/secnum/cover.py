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

A disconnected space is covered one connected component at a time; each
component is open and closed.  For LS-category a good open lies inside one
component (a fence moves each point only to points it is comparable with),
so the component covers are concatenated and cat adds the per-component
values.  For the sectional numbers the property holds on an open exactly
when it holds on its trace on every component (the traces are open and
closed in it, so witnesses glue), so element j of the cover is the union of
element j of every component's cover and the value is the maximum of the
per-component values.
"""

from __future__ import annotations

from itertools import zip_longest

from .finspace import FinSpace, _bits, connected_components
from .resources import Budget


def find_maximal_good_opens(space: FinSpace, is_good, budget: Budget,
                            top: int | None = None, descend: bool = True):
    """Maximal nonempty opens inside the open top (the whole space by
    default) satisfying a shrink-closed property.

    is_good(mask) returns a witness (any non-None value) or None.  Opens are
    scanned from top down, one size level at a time and by
    ascending mask within a level, charging budget one node per visited open.
    An open inside an accepted one is skipped, which is sound exactly because
    the property is monotone under shrinking.  A bad open hands the next
    levels its children: the open minus the reach class of a point that no
    other point of the open outside that class reaches.  Every smaller open
    lies below a chain of such steps, and each open above a maximal good one
    is bad, so every maximal good open is visited and nothing else is
    accepted.  Dropping whole classes, not single points, keeps this exact on
    preorders that are not T0.  Returns [(mask, witness), ...] in scan
    order, that is by (-size, mask).  With descend=False only top itself is
    tested.
    """
    rows, co = space.reach_rows, space.co_rows
    if top is None:
        top = space.full_mask
    accepted: list[tuple[int, object]] = []
    levels = {top.bit_count(): {top}} if top else {}  # size -> opens
    while levels:
        for mask in sorted(levels.pop(max(levels))):
            budget.charge()
            if any(mask & ~amask == 0 for amask, _ in accepted):
                continue
            witness = is_good(mask)
            if witness is not None:
                accepted.append((mask, witness))
                continue
            rest = mask if descend else 0
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


def min_good_cover(space: FinSpace, is_good, budget: Budget, glue: bool = True):
    """Minimum cover of the space by opens with a shrink-closed property.

    Returns ([(mask, witness), ...], None), good opens with their is_good
    witnesses, or (None, point) naming the lowest point that lies in no good
    open.  Each connected component is scanned and covered on its own.  With
    glue=False every good open lies inside one component, and the component
    covers are concatenated.  With glue=True (the default) an open is good
    exactly when its trace on every component is, and each is_good witness
    lists one value per point of its open in ascending order; then the whole
    space is tested first, and otherwise element j of the cover is the union
    of element j of each component's cover, its witness the union of theirs.
    """
    parts = connected_components(space)
    if glue and len(parts) > 1:
        whole = find_maximal_good_opens(space, is_good, budget, descend=False)
        if whole:
            return whole, None
    goods = []
    uncovered = None
    for part in parts:
        if uncovered is not None and part & -part > 1 << uncovered:
            break  # this and every later component start past that point
        good = find_maximal_good_opens(space, is_good, budget, part)
        missed = part
        for mask, _ in good:
            missed &= ~mask
        if missed:
            low = next(_bits(missed))
            uncovered = low if uncovered is None else min(uncovered, low)
        goods.append(good)
    if uncovered is not None:
        return None, uncovered
    covers = [
        [good[i] for i in exact_min_cover(part, [mask for mask, _ in good], budget)]
        for part, good in zip(parts, goods)
    ]
    if glue and len(covers) > 1:
        return [_glue(pieces) for pieces in zip_longest(*covers)], None
    return [element for cover in covers for element in cover], None


def _glue(pieces):
    """One open and witness from pieces on distinct components; a piece is
    None where that component's cover has fewer elements."""
    mask = 0
    values = {}
    for piece in pieces:
        if piece is not None:
            mask |= piece[0]
            values.update(zip(_bits(piece[0]), piece[1]))
    return mask, tuple(values[x] for x in _bits(mask))
