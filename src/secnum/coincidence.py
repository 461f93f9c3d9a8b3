"""Fixed-point and coincidence properties, and the theorem checkers built on them.

(X, Y; g) has the coincidence property (CP) when every continuous f: X -> Y
agrees with g somewhere; a space has the fixed-point property (FPP) when every
self-map has a fixed point.  Both are decided by the strict-lift search
finspace.first_lift, in which each x may go anywhere in Y minus g(x): a
continuous map avoiding g everywhere is a counterexample witness.

The checkers compare these searches against the covering invariants: a global
coincidence-free map is exactly a global lift through the two-point
configuration projection, which ties CP to the relative sectional number.
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
from dataclasses import dataclass, field

from .extnat import ExtNat
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
    avoid = [Y.full_mask & ~(1 << y) for y in range(Y.n)]
    f = first_lift(X, Y, avoid, g.assignment, budget)
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


def _relative_sec_of_projection(g: CMap, k: int, budget: Budget) -> ExtNat:
    """relsec(pi_{k,1}^Y, g) for Y the target of g, shared within a run.

    The memo keeps the value alone, so a miss searches the lift route
    directly rather than through relative_sec, whose (p, g) key would keep
    the whole CoverResult.  Routed through that key, the default suite was
    level (suite-serial run_s 1.232 -> 1.233 s, peak RSS +0.56 MB, over 10
    alternating child runs), but a census_max_points=4 run (seed
    20240801, serial, in-process, one run each) went from 208 to 289 MB
    peak RSS and from 8.8 to 10.1 s."""
    return shared_search(("relative_sec_pi", g, k), budget, lambda: _relative_sec_lift(
        configuration_space(g.target, k)[1], g, budget).value)


def _pi21_quantities(X: FinSpace, Y: FinSpace, g: CMap, budget: Budget | int | None) -> dict:
    """The computation both pi_{2,1} checkers share: relsec(pi_{2,1}, g),
    then CP, as a report's quantities."""
    _check_map_between(X, Y, g)
    budget = Budget.ensure(budget)
    sec_value = _relative_sec_of_projection(g, 2, budget)
    return {
        "cp_holds": has_cp(X, Y, g, budget).holds,
        "sec_relative_pi21": sec_value,
        "hausdorff": is_hausdorff(Y),
        "target_points": Y.n,
    }


def check_remark(X: FinSpace, Y: FinSpace, g: CMap,
                 budget: Budget | int | None = None) -> TheoremReport:
    """Hypothesis-free equivalence: the relative sectional number of the
    two-point configuration projection is 1 exactly when CP fails."""
    q = _pi21_quantities(X, Y, g, budget)
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
