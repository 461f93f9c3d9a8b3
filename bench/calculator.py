"""Seeded query stream for the calculator workload, and its output checks.

A query is one single-instance library call of the kind a user makes from the
command line or a notebook.  Inputs are random posets: acyclic random edges
closed under transitivity.  The domain (or base) of every query has 7-10
points, so the open scan covers up to 2^10 masks; the other spaces have 3-5
points, which keeps configuration spaces and pullbacks within the library's
product cap and keeps any single query from dominating a batch.  Inputs are
built with the benchmark's own generator, so they do not change when the
library's InstanceGenerator changes.
"""

from __future__ import annotations

import random

import secnum
from secnum.coincidence import HYPOTHESIS_NOT_MET, VERIFIED
from secnum.finspace import CMap, FinSpace

KINDS = (
    "cat",
    "secat",
    "relative_secat",
    "relative_sec",
    "main_theorem_discrete",
    "main_theorem",
    "key_lemma_discrete",
    "key_lemma",
    "has_cp",
)


def random_poset(rng: random.Random, n: int) -> FinSpace:
    """Random partial order on n points: edge i -> j (i > j) with a density
    drawn per space, then closed under transitivity."""
    density = rng.uniform(0.15, 0.45)
    rows = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i):
            if rng.random() < density:
                rows[i] |= rows[j]
    return FinSpace(rows)


def discrete(n: int) -> FinSpace:
    return FinSpace([1 << i for i in range(n)])


def random_map(rng: random.Random, source: FinSpace, target: FinSpace,
               allowed: int | None = None) -> CMap:
    """Uniformly shuffled backtracking over point assignments with values in
    the `allowed` mask; a constant map always exists, so the search succeeds
    for a nonempty mask, and CMap validates the result anyway."""
    n = source.n
    rows, trows, tco = source.reach_rows, target.reach_rows, target.co_rows
    values = [y for y in range(target.n) if allowed is None or (allowed >> y) & 1]
    orders = [rng.sample(values, len(values)) for _ in range(n)]
    assignment = [0] * n

    def extend(x: int) -> bool:
        if x == n:
            return True
        for y in orders[x]:
            ok = True
            for x2 in range(x):
                y2 = assignment[x2]
                if (rows[x] >> x2) & 1 and not (trows[y] >> y2) & 1:
                    ok = False
                    break
                if (rows[x2] >> x) & 1 and not (tco[y] >> y2) & 1:
                    ok = False
                    break
            if ok:
                assignment[x] = y
                if extend(x + 1):
                    return True
        return False

    extend(0)
    return CMap(source, target, assignment)


def make_queries(seed: int, count: int) -> list[tuple[str, tuple]]:
    """The first `count` queries of the stream for `seed`; kinds rotate so
    every prefix has the same mix, and domain sizes cycle through 7..10."""
    rng = random.Random(f"secnum-bench:calculator:{seed}")

    def small() -> FinSpace:
        return random_poset(rng, rng.randint(3, 5))

    queries = []
    for i in range(count):
        kind = KINDS[i % len(KINDS)]
        # cat searches fences between every open and the whole space, and its
        # cost grows steeply with the core: at 8 points one query can take
        # 0.4 s and at 9-10 points seconds, so its domains have 7 points
        sizes = 1 if kind == "cat" else 4
        X = random_poset(rng, 7 + (i // len(KINDS)) % sizes)
        if kind == "cat":
            args = (X,)
        elif kind == "secat":
            args = (random_map(rng, X, small()),)
        elif kind in ("relative_secat", "relative_sec"):
            # g lands in the image of p, so every point of X has a nonempty
            # fiber; an empty pullback only makes every open fail the search
            B = small()
            p = random_map(rng, small(), B)
            args = (p, random_map(rng, X, B, allowed=p.image_mask()))
        else:
            if kind.endswith("_discrete"):
                Y = discrete(rng.randint(3, 4))
            else:
                Y = small()
            args = (X, Y, random_map(rng, X, Y))
        queries.append((kind, args))
    return queries


def run_query(kind: str, args: tuple, budget):
    """Run one query through the public package namespace, looked up at call
    time so that traced runs see the wrapped entry points."""
    if kind == "cat":
        return secnum.cat(*args, budget=budget)
    if kind == "secat":
        return secnum.secat(*args, budget=budget)
    if kind == "relative_secat":
        return secnum.relative_secat(*args, budget=budget)
    if kind == "relative_sec":
        return secnum.relative_sec(*args, route="both", budget=budget)
    if kind.startswith("main_theorem"):
        return secnum.check_main_theorem(*args, budget=budget)
    if kind.startswith("key_lemma"):
        return secnum.check_key_lemma(*args, k=3, budget=budget)
    if kind == "has_cp":
        return secnum.has_cp(*args, budget=budget)
    raise ValueError(f"unknown query kind {kind!r}")


def _check_cover_result(result, base: FinSpace) -> bool:
    if result.value.is_finite:
        cert = result.certificate
        return (
            cert is not None
            and cert.verify()
            and (result.degenerate or len(cert.cover) == result.value.n)
        )
    return result.uncovered_point is not None and 0 <= result.uncovered_point < base.n


def _check_cat(result, X: FinSpace) -> bool:
    if not result.value.is_finite:
        return result.uncovered_point is not None and 0 <= result.uncovered_point < X.n
    union = 0
    for element in result.cover:
        union |= element.mask
        sub, incl = secnum.subspace_of_mask(X, element.mask)
        point = secnum.homotopy.nullhomotopy_target(incl)
        if point is None:
            return False
        # Fence re-validates every step when it is constructed
        if secnum.homotopy_fence(incl, secnum.constant_map(sub, X, point)) is None:
            return False
    return union == X.full_mask and len(result.cover) == result.value.n


def _check_report(report, kind: str, Y: FinSpace) -> bool:
    if kind.endswith("_discrete") and Y.n >= (2 if kind.startswith("main") else 3):
        return report.status == VERIFIED
    return report.status in (VERIFIED, HYPOTHESIS_NOT_MET)


def _check_cp(verdict, g: CMap) -> bool:
    if not verdict.exhaustive:
        return False
    if verdict.holds:
        return verdict.witness is None
    f = verdict.witness
    CMap(f.source, f.target, f.assignment, validate=True)
    return all(f(x) != g(x) for x in range(g.source.n))


def verify(kind: str, args: tuple, result) -> bool:
    """Independent check of one query's output; never part of a timed region."""
    if kind == "cat":
        return _check_cat(result, args[0])
    if kind == "secat":
        return _check_cover_result(result, args[0].target)
    if kind in ("relative_secat", "relative_sec"):
        return _check_cover_result(result, args[1].source)
    if kind == "has_cp":
        return _check_cp(result, args[2])
    return _check_report(result, kind, args[1])
