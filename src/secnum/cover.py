"""The least cover by good opens, and the result and certificate of every
covering invariant.

Every covering invariant (sectional numbers, their relative versions and
LS-category) minimises over open covers whose elements satisfy a property
that is closed under shrinking opens; min_good_cover is that one search, and
is_good sees a bare point mask of the space.  A point x lies in a good open
exactly when its minimal open U_x is good, and every point lies below a
maximal point, so a good cover shrinks to one whose elements are unions of
the U_m of maximal points m.  The least cover is therefore the least
partition of the maximal points (one per top reach class, which keeps this
exact on preorders that are not T0) into classes whose unions are good:
exact_min_cover finds it by branch-and-bound, a colouring of the maximal
points, with masks taken in a fixed order, so results are deterministic.
Each open is tested at most once per search, at a charge of one node.

A disconnected space is covered one connected component at a time; each
component is open and closed.  For LS-category a good open lies inside one
component (a fence moves each point only to points it is comparable with),
so the component covers are concatenated and cat adds the per-component
values.  For the sectional numbers the property holds on an open exactly
when it holds on its trace on every component (the traces are open and
closed in it, so witnesses glue), so element j of the cover is the union of
element j of every component's cover and the value is the maximum of the
per-component values.

Every covering invariant answers with a CoverResult, whose certificate
(CoverCertificate) is the (mask, witness assignment) pairs min_good_cover
chose, kept as they are.  Only its verify builds objects from them, each
open's subspace and witness map, and it reads homotopy at call time, since
homotopy imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

from .extnat import INF, ExtNat
from .finspace import (
    CMap,
    FinSpace,
    OpenSet,
    _bits,
    compose,
    connected_components,
    identity_map,
    subspace_of_mask,
)
from .resources import Budget, SelfCheckFailed

MODE_SECTION = "section"
MODE_HOMOTOPY = "homotopy-section"
MODE_LIFT = "lift"
MODE_CONTRACTION = "contraction"

CERTIFICATE_SCHEMA = "secnum.cover-certificate/1"

_EQUATIONS = {
    MODE_SECTION: "compose(f, witness) == inclusion",
    MODE_HOMOTOPY: "compose(f, witness) homotopic to inclusion",
    MODE_LIFT: "compose(p, witness) == restriction of g",
    MODE_CONTRACTION: "constant witness homotopic to inclusion",
}


def find_maximal_good_opens(space: FinSpace, is_good, budget: Budget, top: int):
    """is_good(top): the witness that the open top of space is good, or None
    when it is not; charges one node."""
    # every good-open test goes through here: bench/tracer.py wraps this name
    # as the span cover.open_scan and reads is_good at args[1], and calling
    # is_good directly hid 1,416 tests from its cover.good_open.candidates
    budget.charge()
    return is_good(top)


def exact_min_cover(universe: int, masks: list[int], budget: Budget, joinable):
    """The least partition of masks into classes whose unions are good, as
    the tuple of those unions in the order the classes open.

    masks are good opens whose union is universe, and joinable(mask) is truthy
    exactly when the open mask is good.  One mask is its own cover; with more
    than one, universe must be bad.  Then a first-fit pass over masks in the
    given order (each joins the first class whose union stays good, or opens
    a new one) bounds the value above, and a greedy clique of masks whose
    pairwise unions are bad, or 2, bounds it below.  Branch-and-bound then
    puts each mask in turn into every class whose union stays good, or into a
    new class while that can still beat the best partition, charging budget
    one node per branch; it stops at the first partition that meets the
    lower bound.
    """
    if len(masks) == 1:
        return tuple(masks)
    best: list[int] = []
    for m in masks:
        for i, union in enumerate(best):
            if joinable(union | m):
                best[i] = union | m
                break
        else:
            best.append(m)
    lower = 2
    if len(best) > lower:
        clique: list[int] = []
        for m in masks:
            if not any(joinable(c | m) for c in clique):
                clique.append(m)
        lower = max(lower, len(clique))
    classes: list[int] = []

    def placements(m: int):
        """m joins each class whose union stays good, then opens a new one
        while that can still beat best; each branch is undone before the next."""
        for j, union in enumerate(classes):
            if joinable(union | m):
                classes[j] = union | m
                yield
                classes[j] = union
        if len(classes) + 1 < len(best):
            classes.append(m)
            yield
            classes.pop()

    # the placements of masks[0], masks[1], ... in progress: an explicit stack,
    # so the depth has no limit but the number of masks
    stack: list = []
    while len(best) > lower:
        budget.charge()
        if len(stack) < len(masks):
            stack.append(placements(masks[len(stack)]))
        else:
            best = list(classes)
            if len(best) == lower:
                break
        # next gives None for a branch, and True once a placement is spent
        while stack and next(stack[-1], True):
            stack.pop()
        if not stack:
            break
    return tuple(best)


def min_good_cover(space: FinSpace, is_good, budget: Budget, glue: bool = True):
    """Minimum cover of the space by opens with a shrink-closed property.

    Returns ([(mask, witness), ...], None), good opens each with the witness
    is_good gave it, or (None, point) naming the lowest point that lies in no
    good open.  A connected component is covered by itself when it is good,
    and otherwise by exact_min_cover over the minimal opens U_m of one
    maximal point m per top reach class; if some U_m is bad, the points in
    no good open are the up-set of the x with U_x bad, so U_x is tested in
    index order.  Each open is tested at most once, through
    find_maximal_good_opens, whose witness or None one memo keeps.  With
    glue=False every good open lies inside one component, and the component
    covers are concatenated.  With glue=True (the default) an open is good
    exactly when its trace on every component is, and each is_good witness
    lists one value per point of its open in ascending order; then the whole
    space is tested first, and otherwise element j of the cover is the union
    of element j of each component's cover, its witness the union of theirs.
    """
    tested: dict = {}  # mask -> its is_good witness, or None

    def test(mask: int) -> bool:
        """Whether the open mask is good."""
        if mask not in tested:
            tested[mask] = find_maximal_good_opens(space, is_good, budget, mask)
        return tested[mask] is not None

    parts = connected_components(space)
    if glue and len(parts) > 1 and test(space.full_mask):
        return [(space.full_mask, tested[space.full_mask])], None
    rows, co = space.reach_rows, space.co_rows
    pending = []  # (component, the opens its classes are unions of)
    uncovered = None
    for part in parts:
        if uncovered is not None and part & -part > 1 << uncovered:
            break  # this and every later component start past that point
        if test(part):
            pending.append((part, [part]))
            continue
        tops = sorted({rows[x] for x in _bits(part) if co[x] & ~rows[x] == 0},
                      key=lambda mask: (-mask.bit_count(), mask))
        good = 0
        for mask in tops:
            if not test(mask):
                break
            good |= mask
        else:
            pending.append((part, tops))
            continue
        for x in _bits(part):
            if uncovered is not None and x > uncovered:
                break
            if not good >> x & 1:
                if not test(rows[x]):
                    uncovered = x
                    break
                good |= rows[x]
    if uncovered is not None:
        return None, uncovered
    covers = [[(mask, tested[mask]) for mask in exact_min_cover(part, opens, budget, test)]
              for part, opens in pending]
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


# ---------------------------------------------------------------------------
# results and certificates


@dataclass(frozen=True)
class CoverCertificate:
    """An open cover of the base with one local witness per element, stored
    as the (mask, images) pairs min_good_cover chose: images lists the images
    of the open's points, in ascending order, in the source of context[0].

    mode 'section' or 'homotopy-section': context is (f,), f a map onto the
    base.  mode 'lift': context is (p, g), g a map from the base with the
    target of p.  mode 'contraction': context is the identity of the base,
    and each witness is a constant map.  A section of f is a lift of the
    identity of the base, so 'section' and 'lift' are checked by one
    strict-lift equation; 'homotopy-section' and 'contraction' are checked
    by one fence from the composite to the inclusion.  verify builds every
    open's subspace and witness map it checks; nothing else does.
    """

    mode: str
    base: FinSpace
    cover: tuple[tuple[int, tuple[int, ...]], ...]
    context: tuple[CMap, ...]

    @property
    def degenerate(self) -> bool:
        """The empty-base convention: the empty family covers the empty base."""
        return self.base.n == 0

    def verify(self, budget: Budget | int | None = None) -> bool:
        from . import homotopy

        budget = Budget.ensure(budget)
        if self.mode not in _EQUATIONS:
            raise SelfCheckFailed(f"unknown mode {self.mode!r}")
        base, context = self.base, self.context
        if self.mode == MODE_LIFT:
            fits = (len(context) == 2 and context[1].source == base
                    and context[0].target == context[1].target)
        elif self.mode == MODE_CONTRACTION:
            fits = context == (identity_map(base),)
        else:
            fits = len(context) == 1 and context[0].target == base
        if not fits:
            raise SelfCheckFailed(f"{self.mode} context does not fit the base")
        union = 0
        for mask, _ in self.cover:
            if mask & ~base.full_mask:
                raise SelfCheckFailed("cover element mentions points outside the base")
            if not base.is_open_mask(mask):
                raise SelfCheckFailed(f"cover element {list(_bits(mask))} is not open")
            union |= mask
        if union != base.full_mask:
            raise SelfCheckFailed("cover does not exhaust the base")
        p = context[0]
        for mask, images in self.cover:
            sub, incl = subspace_of_mask(base, mask)
            # re-validate continuity independently of the search
            try:
                witness = CMap(sub, p.source, images, validate=True)
            except ValueError as exc:  # DiscontinuityError, a wrong length or an out-of-range image
                raise SelfCheckFailed(f"witness is not a continuous map: {exc}") from exc
            if self.mode == MODE_CONTRACTION and len(set(images)) > 1:
                raise SelfCheckFailed("contraction witness is not a constant map")
            composite = compose(p, witness)
            if self.mode in (MODE_HOMOTOPY, MODE_CONTRACTION):
                # Fence re-validates every step when it is constructed
                if homotopy.homotopy_fence(composite, incl, budget) is None:
                    raise SelfCheckFailed("witness is not a homotopy local section")
            else:
                # a section is a strict lift of the identity of the base
                g = context[1].assignment if self.mode == MODE_LIFT else range(base.n)
                if composite.assignment != tuple(g[u] for u in incl.assignment):
                    raise SelfCheckFailed("witness is not a strict lift through the map")
        return True

    def to_json_dict(self) -> dict:
        return {
            "schema": CERTIFICATE_SCHEMA,
            "mode": self.mode,
            "base_points": self.base.n,
            "degenerate": self.degenerate,
            "cover": [mask for mask, _ in self.cover],
            "cover_members": [list(_bits(mask)) for mask, _ in self.cover],
            "witnesses": [list(images) for _, images in self.cover],
            "checks": [
                {"element": mask, "equation": _EQUATIONS[self.mode], "holds": True}
                for mask, _ in self.cover
            ],
        }


@dataclass(frozen=True)
class CoverResult:
    """Value of a covering invariant plus its audit trail.

    uncovered_point witnesses an Infinite answer: that point of the base lies
    in no qualifying open.  A finite value carries its certificate; the empty
    base takes the empty cover and the value 1 (degenerate)."""

    value: ExtNat
    uncovered_point: int | None = None
    certificate: CoverCertificate | None = None

    @property
    def degenerate(self) -> bool:
        return self.certificate is not None and self.certificate.degenerate

    @property
    def cover(self) -> tuple[OpenSet, ...]:
        """The certificate's opens, or () for an Infinite value."""
        if self.certificate is None:
            return ()
        base = self.certificate.base
        return tuple(OpenSet(base, mask) for mask, _ in self.certificate.cover)

    def to_json_dict(self) -> dict:
        return {
            "value": self.value.to_json(),
            "degenerate": self.degenerate,
            "uncovered_point": self.uncovered_point,
            "certificate": None if self.certificate is None else self.certificate.to_json_dict(),
        }


def _cover_result(base: FinSpace, mode: str, is_good, context, budget: Budget) -> CoverResult:
    """Cover result from is_good witnesses, which are assignments on the
    open's points into the source of context[0]; the certificate keeps the
    chosen (mask, witness) pairs as they are.  Witnesses glue in every mode
    but MODE_CONTRACTION, whose good opens lie inside one component."""
    context = tuple(context)
    if base.n == 0:
        return CoverResult(ExtNat(1), certificate=CoverCertificate(mode, base, (), context))
    chosen, uncovered = min_good_cover(base, is_good, budget, mode != MODE_CONTRACTION)
    if chosen is None:
        return CoverResult(INF, uncovered_point=uncovered)
    return CoverResult(ExtNat(len(chosen)),
                       certificate=CoverCertificate(mode, base, tuple(chosen), context))
