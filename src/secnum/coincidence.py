"""Fixed-point and coincidence properties, and the theorem checkers built on them.

(X, Y; g) has the coincidence property (CP) when every continuous f: X -> Y
agrees with g somewhere; a space has the fixed-point property (FPP) when every
self-map has a fixed point.  Both are decided by the strict-lift search
finspace.first_lift, in which each x may go anywhere in Y minus g(x): a
continuous map avoiding g everywhere is a counterexample witness.

The checkers compare these searches against the covering invariants, through
the paper's bridge lemma: a lift of g through the configuration projection
pi_{k,1}^Y over an open U is u -> (g(u),) + t(u) for a continuous
t: U -> F(Y, k - 1) whose tuples avoid g(u), and conversely.  For k = 2 such
a t is a map U -> Y that disagrees with g everywhere, so a global
coincidence-free map is exactly a global lift, which ties CP to the relative
sectional number.  relsec(pi_{k,1}^Y, g) is computed on that route, so F(Y, k)
is never built.  For k = 2 the cover's test of the whole of X is the CP
search itself, so check_main_theorem searches CP once and hands the cover its
verdict, whose nodes the cover charges again.  check_remark alone lifts
through F(Y, 2) itself, since on the bridge route its "relsec = 1" test would
be the CP search it is compared with.
Each checker returns a TheoremReport holding one conclusion for a stable claim
id: True, False or HYPOTHESIS_NOT_MET.  status_of is the one rule that spells
a conclusion as a status (verified / hypothesis-not-met / violated, or
falsified for a False of an exploratory suite claim), for the reports and the
suite alike.  violated is reserved for instances where every stated
hypothesis holds and the conclusion still fails, which signals a bug.  A
search that runs out of nodes proves nothing, so it raises BudgetExhausted
instead of returning a verdict or a report; callers decide how to show that
the question stayed open.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .cover import min_good_cover
from .extnat import INF, ExtNat
from .finspace import (
    CMap,
    FinSpace,
    compose,
    configuration_space,
    first_lift,
    identity_map,
    is_hausdorff,
)
from .resources import Budget, SelfCheckFailed, shared_search
from .sectional import _relative_sec_lift

CLAIM_REMARK = "remark_sec1_iff_not_cp"
CLAIM_KEY_LEMMA = "key_lemma_k"
CLAIM_MAIN = "main_theorem"
CLAIM_CP_FPP = "cp_implies_fpp"

VERIFIED = "verified"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"
VIOLATED = "violated"
FALSIFIED = "falsified"

REPORT_SCHEMA = "secnum.theorem-report/1"


def status_of(conclusion, kind: str = "theorem") -> str:
    """The one rule that spells a conclusion as a status: True is verified;
    False is violated for a theorem and falsified for an exploratory claim;
    HYPOTHESIS_NOT_MET stays; anything else raises TypeError.  True and False
    are matched by identity, since the ints 1 and 0 compare equal to them."""
    if conclusion is True:
        return VERIFIED
    if conclusion is False:
        return VIOLATED if kind == "theorem" else FALSIFIED
    if conclusion == HYPOTHESIS_NOT_MET:
        return HYPOTHESIS_NOT_MET
    raise TypeError(f"not a conclusion: {conclusion!r}")


@dataclass(frozen=True)
class CoincidenceVerdict:
    """Outcome of a finished CP/FPP search: witness is a coincidence-free
    (respectively fixed-point-free) map, or None when the property holds.  A
    search cut short by its budget raises BudgetExhausted instead of returning
    a verdict."""

    witness: CMap | None

    @property
    def holds(self) -> bool:
        return self.witness is None

    @property
    def exhaustive(self) -> bool:
        """Always True: every verdict comes from a finished search.  The
        benchmark's query checks (bench/calculator.py, bench/child.py) still
        read it."""
        return True


def _revalidate_witness(witness: CMap, g: CMap) -> CMap:
    # independent re-validation: continuity plus pointwise disagreement with g
    try:
        checked = CMap(witness.source, witness.target, witness.assignment, validate=True)
    except ValueError as exc:  # DiscontinuityError
        raise SelfCheckFailed(f"witness is not a continuous map: {exc}") from exc
    for x in range(g.source.n):
        if checked(x) == g(x):
            raise SelfCheckFailed(f"witness agrees with g at point {x}; search is buggy")
    return checked


def _check_map_between(X: FinSpace, Y: FinSpace, g: CMap) -> None:
    """The precondition of has_cp and of every checker: g maps X to Y."""
    if g.source != X or g.target != Y:
        raise ValueError("g must be a map from X to Y")


def has_cp(X: FinSpace, Y: FinSpace, g: CMap,
           budget: Budget | int | None = None) -> CoincidenceVerdict:
    """Search for a continuous f with f(x) != g(x) everywhere; raises
    BudgetExhausted when the budget runs out first."""
    _check_map_between(X, Y, g)
    budget = Budget.ensure(budget)
    return shared_search(("has_cp", g), budget, lambda: _cp_search(g, budget))


def _cp_search(g: CMap, budget: Budget) -> CoincidenceVerdict:
    X, Y = g.source, g.target
    # the bridge cover's k = 2 test, which _bridge_cover replays on all of X
    f = first_lift(X, Y, _avoid_masks(Y), g.assignment, budget)
    if f is None:
        return CoincidenceVerdict(None)
    return CoincidenceVerdict(_revalidate_witness(CMap(X, Y, f, validate=False), g))


def has_fpp(X: FinSpace, budget: Budget | int | None = None) -> CoincidenceVerdict:
    """Search for a fixed-point-free continuous self-map."""
    return has_cp(X, X, identity_map(X), budget)


@dataclass(frozen=True)
class TheoremReport:
    """Machine-checkable outcome of one theorem instance.

    subject is the instance checked, (X, Y, g) or (X, Y, g, k); instance, its
    text form, is formatted the first time it is read.  conclusion is True,
    False or HYPOTHESIS_NOT_MET for the claim, and detail holds the fields
    its JSON conclusion adds to the claim id and status."""

    subject: tuple
    quantities: dict
    claim: str
    conclusion: bool | str
    detail: dict = field(default_factory=dict)

    @functools.cached_property
    def instance(self) -> str:
        X, Y, g, *k = self.subject
        return (
            f"X(n={X.n}, reach={list(X.reach_rows)}) Y(n={Y.n}, reach={list(Y.reach_rows)}) "
            f"g={list(g.assignment)}" + "".join(f" k={value}" for value in k)
        )

    @property
    def status(self) -> str:
        return status_of(self.conclusion)

    def to_json_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "instance": self.instance,
            "quantities": {
                key: value.to_json() if isinstance(value, ExtNat) else value
                for key, value in self.quantities.items()
            },
            "conclusions": [{"claim": self.claim, "status": self.status, **self.detail}],
        }


def _avoid_masks(Y: FinSpace) -> tuple[int, ...]:
    """The bridge lemma's avoid masks for k = 2 (T is Y): every point but y."""
    return tuple(Y.full_mask & ~(1 << y) for y in range(Y.n))


@functools.lru_cache(maxsize=256)
def _bridge_target(Y: FinSpace, k: int) -> tuple[FinSpace, tuple[int, ...]]:
    """(T, avoid) of the bridge lemma for pi_{k,1}^Y, k >= 3: a lift of g
    through pi_{k,1} over an open U is u -> (g(u),) + t(u) for a continuous
    t: U -> T with t(u) in avoid[g(u)] for every u, and conversely.

    T is F(Y, k - 1) and avoid[y] holds its tuples that do not contain y (for
    k = 2, T is Y and the masks are _avoid_masks(Y), kept in no cache).  For
    k > |Y| every mask is 0, as F(Y, k) is empty, and nothing is built."""
    if k > Y.n:
        return Y, (0,) * Y.n
    T, _ = configuration_space(Y, k - 1)
    # the points of F(Y, k - 1) are the (k - 1)-permutations in
    # itertools.permutations order
    contain = [0] * Y.n
    for i, t in enumerate(itertools.permutations(range(Y.n), k - 1)):
        for y in t:
            contain[y] |= 1 << i
    return T, tuple(T.full_mask & ~mask for mask in contain)


def _bridge_cover(g: CMap, k: int, budget: Budget, cp=None):
    """cover.min_good_cover on the source X of g for relsec(pi_{k,1}^Y, g)
    by the bridge lemma: ([(mask, t), ...], None) with t the witness the
    open's test gave, the lift's assignment into T on its points, or (None,
    point) for a point in no good open.  X must be nonempty.  It tests and
    charges exactly as _relative_sec_lift(configuration_space(Y, k)[1], g)
    does: t(u) and (g(u),) + t(u) range over domains of equal size in the
    same order, under the same forward checks.

    For k = 2 the test of the whole of X is the has_cp search itself; cp,
    when given, is (verdict, nodes) of that finished search, and the test
    replays its nodes and takes its witness instead of searching again."""
    X, Y, images = g.source, g.target, g.assignment
    T, avoid = (Y, _avoid_masks(Y)) if k == 2 else _bridge_target(Y, k)

    def is_good(mask: int):
        if cp is None or mask != X.full_mask:
            return first_lift(X, T, avoid, images, budget, mask)
        verdict, nodes = cp
        budget.replay(nodes)
        return None if verdict.holds else verdict.witness.assignment

    return min_good_cover(X, is_good, budget)


def _relative_sec_of_projection(g: CMap, k: int, budget: Budget,
                                through_conf: bool = False, cp=None) -> ExtNat:
    """relsec(pi_{k,1}^Y, g) for Y the target of g, shared within a run.

    The search takes the bridge route (_bridge_cover), which builds no
    F(Y, k) and for k >= 3 builds F(Y, k - 1) instead.  With through_conf it
    lifts through pi_{k,1} on F(Y, k) (_relative_sec_lift), the independent
    route check_remark keeps.  Both routes give the same value for the same
    nodes, so either may fill the one memo entry the other replays.  For
    k = 2, cp is the (verdict, nodes) of a finished has_cp(X, Y, g), which
    the bridge route takes as its test of the whole of X (_bridge_cover);
    through_conf ignores it.

    The memo keeps the value alone, so no certificate is built, and a miss
    searches directly rather than through relative_sec, whose (p, g) key
    would keep the whole CoverResult.  Routed through that key, the default
    suite was level (suite-serial run_s 1.232 -> 1.233 s, peak RSS +0.56 MB,
    over 10 alternating child runs), but a census_max_points=4 run (seed
    20240801, serial, in-process, one run each) went from 208 to 289 MB
    peak RSS and from 8.8 to 10.1 s."""
    def search() -> ExtNat:
        if through_conf:
            return _relative_sec_lift(configuration_space(g.target, k)[1], g, budget).value
        if g.source.n == 0:
            return ExtNat(1)  # the empty family covers the empty base
        chosen, _ = _bridge_cover(g, k, budget, cp)
        return INF if chosen is None else ExtNat(len(chosen))

    return shared_search(("relative_sec_pi", g, k), budget, search)


def _pi21_quantities(X: FinSpace, Y: FinSpace, g: CMap, budget: Budget | int | None,
                     through_conf: bool = False) -> dict:
    """The computation both pi_{2,1} checkers share, CP and relsec(pi_{2,1}, g),
    as a report's quantities.

    On the bridge route a lift over the whole of X is a coincidence-free
    map, so CP is searched first and the cover takes its verdict and replays
    its nodes for that open: one CP search per check, charged as two.  With
    through_conf (check_remark) relsec is lifted through F(Y, 2) first and
    CP searched apart."""
    _check_map_between(X, Y, g)
    budget = Budget.ensure(budget)
    if through_conf:
        sec_value = _relative_sec_of_projection(g, 2, budget, through_conf=True)
        cp = has_cp(X, Y, g, budget)
    else:
        before = budget.remaining
        cp = has_cp(X, Y, g, budget)
        sec_value = _relative_sec_of_projection(g, 2, budget, cp=(cp, before - budget.remaining))
    return {
        "cp_holds": cp.holds,
        "sec_relative_pi21": sec_value,
        "hausdorff": is_hausdorff(Y),
        "target_points": Y.n,
    }


def check_remark(X: FinSpace, Y: FinSpace, g: CMap,
                 budget: Budget | int | None = None) -> TheoremReport:
    """Hypothesis-free equivalence: the relative sectional number of the
    two-point configuration projection is 1 exactly when CP fails.

    relsec is lifted through F(Y, 2) itself: on the bridge route a lift over
    the whole of X is a coincidence-free map, so the claim would compare the
    CP search with itself."""
    q = _pi21_quantities(X, Y, g, budget, through_conf=True)
    consistent = (q["sec_relative_pi21"] == ExtNat(1)) == (not q["cp_holds"])
    return TheoremReport((X, Y, g), q, CLAIM_REMARK, consistent)


def check_key_lemma(X: FinSpace, Y: FinSpace, g: CMap, k: int,
                    budget: Budget | int | None = None) -> TheoremReport:
    """For Hausdorff targets with at least k points, the relative sectional
    number of the k-point configuration projection is at most k."""
    _check_map_between(X, Y, g)
    if k < 2:
        raise ValueError("k must be >= 2")
    budget = Budget.ensure(budget)
    hausdorff = is_hausdorff(Y)
    sec_value = _relative_sec_of_projection(g, k, budget)
    q = {"sec_relative_pik1": sec_value, "hausdorff": hausdorff, "target_points": Y.n, "k": k}
    bound_holds = sec_value <= ExtNat(k)
    if hausdorff and Y.n >= k:
        return TheoremReport((X, Y, g, k), q, CLAIM_KEY_LEMMA, bound_holds, {"k": k})
    return TheoremReport((X, Y, g, k), q, CLAIM_KEY_LEMMA, HYPOTHESIS_NOT_MET,
                         {"k": k, "bound_holds": bound_holds})


def check_main_theorem(X: FinSpace, Y: FinSpace, g: CMap,
                       budget: Budget | int | None = None) -> TheoremReport:
    """For Hausdorff targets with at least two points: CP holds exactly when
    the relative sectional number of the two-point projection equals 2.

    Non-Hausdorff or singleton targets run the same computation in exploratory
    mode and record whether the biconditional happened to hold."""
    q = _pi21_quantities(X, Y, g, budget)
    biconditional = q["cp_holds"] == (q["sec_relative_pi21"] == ExtNat(2))
    if q["hausdorff"] and Y.n >= 2:
        return TheoremReport((X, Y, g), q, CLAIM_MAIN, biconditional)
    return TheoremReport((X, Y, g), q, CLAIM_MAIN, HYPOTHESIS_NOT_MET,
                         {"biconditional_holds": biconditional})


def check_cp_implies_fpp(X: FinSpace, Y: FinSpace, g: CMap,
                         budget: Budget | int | None = None) -> TheoremReport:
    """CP for (X, Y; g) forces FPP for Y; hypothesis-free.

    When FPP fails, the fixed-point-free witness composed with g must be a
    coincidence-free map, so CP must fail too; the checker rebuilds that
    composite and re-validates it, reproducing the contrapositive construction."""
    _check_map_between(X, Y, g)
    budget = Budget.ensure(budget)
    cp = has_cp(X, Y, g, budget)
    fpp = has_fpp(Y, budget)
    q = {"cp_holds": cp.holds, "fpp_holds": fpp.holds}
    if cp.holds or fpp.holds:  # FPP must hold with CP, and nothing is left without CP
        return TheoremReport((X, Y, g), q, CLAIM_CP_FPP, fpp.holds)
    composite = compose(fpp.witness, g)
    try:
        _revalidate_witness(composite, g)
    except SelfCheckFailed:
        return TheoremReport((X, Y, g), q, CLAIM_CP_FPP, False,
                             {"detail": "composite witness has a coincidence"})
    return TheoremReport((X, Y, g), q, CLAIM_CP_FPP, True,
                         {"contrapositive_witness": list(composite.assignment)})
