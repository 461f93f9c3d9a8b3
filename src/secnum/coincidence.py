"""Fixed-point and coincidence properties, and the theorem checkers built on them.

(X, Y; g) has the coincidence property (CP) when every continuous f: X -> Y
agrees with g somewhere; a space has the fixed-point property (FPP) when every
self-map has a fixed point.  Both are decided by exhaustive constrained map
search: a continuous map avoiding g everywhere is a counterexample witness.

The checkers compare these searches against the covering invariants: a global
coincidence-free map is exactly a global lift through the two-point
configuration projection, which ties CP to the relative sectional number.
Each checker emits a TheoremReport whose conclusions carry a stable claim id
and one of the statuses verified / hypothesis-not-met / VIOLATED.  VIOLATED
is reserved for instances where every stated hypothesis holds and the
conclusion still fails, which signals a bug.  A search that runs out of nodes
proves nothing, so it raises BudgetExhausted instead of returning a verdict
or a report; callers decide how to show that the question stayed open.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .extnat import ExtNat
from .finspace import (
    CMap,
    FinSpace,
    compose,
    configuration_space,
    enumerate_maps,
    identity_map,
    is_hausdorff,
)
from .resources import Budget, SelfCheckFailed

CLAIM_REMARK = "remark_sec1_iff_not_cp"
CLAIM_KEY_LEMMA = "key_lemma_k"
CLAIM_MAIN = "main_theorem"
CLAIM_CP_FPP = "cp_implies_fpp"

VERIFIED = "verified"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"
VIOLATED = "VIOLATED"

REPORT_SCHEMA = "secnum.theorem-report/1"


@dataclass(frozen=True)
class CoincidenceVerdict:
    """Outcome of a finished CP/FPP search.

    witness is a coincidence-free (respectively fixed-point-free) map, present
    exactly when holds is False.  A search cut short by its budget raises
    BudgetExhausted instead of returning a verdict."""

    holds: bool
    witness: CMap | None

    def __post_init__(self):
        if (self.witness is None) != self.holds:
            raise ValueError("witness must be present exactly when the property fails")

    @property
    def exhaustive(self) -> bool:
        """Always True: every verdict comes from a finished search.  The
        benchmark's query checks (bench/calculator.py, bench/child.py) still
        read it."""
        return True


def _revalidate_witness(witness: CMap, g: CMap) -> CMap:
    # independent re-validation: continuity plus pointwise disagreement with g
    checked = CMap(witness.source, witness.target, witness.assignment, validate=True)
    for x in range(g.source.n):
        if checked(x) == g(x):
            raise SelfCheckFailed(f"witness agrees with g at point {x}; search is buggy")
    return checked


def has_cp(X: FinSpace, Y: FinSpace, g: CMap,
           budget: Budget | int | None = None) -> CoincidenceVerdict:
    """Search for a continuous f with f(x) != g(x) everywhere; raises
    BudgetExhausted when the budget runs out first."""
    if g.source != X or g.target != Y:
        raise ValueError("g must be a map from X to Y")
    budget = Budget.ensure(budget)
    constraints = [
        [y for y in range(Y.n) if y != g(x)] for x in range(X.n)
    ]
    for f in enumerate_maps(X, Y, constraints, budget=budget, order="mcf"):
        return CoincidenceVerdict(holds=False, witness=_revalidate_witness(f, g))
    return CoincidenceVerdict(holds=True, witness=None)


def has_fpp(X: FinSpace, budget: Budget | int | None = None) -> CoincidenceVerdict:
    """Search for a fixed-point-free continuous self-map."""
    return has_cp(X, X, identity_map(X), budget)


@dataclass
class TheoremReport:
    """Machine-checkable outcome of one theorem instance."""

    instance: str
    quantities: dict = field(default_factory=dict)
    conclusions: list = field(default_factory=list)

    def add(self, claim: str, status: str, **extra):
        entry = {"claim": claim, "status": status}
        entry.update(extra)
        self.conclusions.append(entry)

    @property
    def violated(self) -> bool:
        return any(c["status"] == VIOLATED for c in self.conclusions)

    @property
    def status(self) -> str:
        return self.conclusions[0]["status"]

    def to_json_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "instance": self.instance,
            "quantities": {
                key: value.to_json() if isinstance(value, ExtNat) else value
                for key, value in self.quantities.items()
            },
            "conclusions": self.conclusions,
        }


def _describe(X: FinSpace, Y: FinSpace, g: CMap) -> str:
    return (
        f"X(n={X.n}, reach={list(X.reach_rows)}) Y(n={Y.n}, reach={list(Y.reach_rows)}) "
        f"g={list(g.assignment)}"
    )


def _relative_sec_of_projection(Y: FinSpace, g: CMap, k: int, budget: Budget, route: str):
    from .sectional import relative_sec

    conf, projections = configuration_space(Y, k)
    return relative_sec(projections[1], g, route=route, budget=budget)


def check_remark(X: FinSpace, Y: FinSpace, g: CMap,
                 budget: Budget | int | None = None) -> TheoremReport:
    """Hypothesis-free equivalence: the relative sectional number of the
    two-point configuration projection is 1 exactly when CP fails."""
    budget = Budget.ensure(budget)
    report = TheoremReport(instance=_describe(X, Y, g))
    sec_value = _relative_sec_of_projection(Y, g, 2, budget, "both").value
    cp = has_cp(X, Y, g, budget)
    report.quantities.update({
        "cp_holds": cp.holds,
        "sec_relative_pi21": sec_value,
        "hausdorff": is_hausdorff(Y),
        "target_points": Y.n,
    })
    consistent = (sec_value == ExtNat(1)) == (not cp.holds)
    report.add(CLAIM_REMARK, VERIFIED if consistent else VIOLATED)
    return report


def check_key_lemma(X: FinSpace, Y: FinSpace, g: CMap, k: int,
                    budget: Budget | int | None = None) -> TheoremReport:
    """For Hausdorff targets with at least k points, the relative sectional
    number of the k-point configuration projection is at most k."""
    if k < 2:
        raise ValueError("k must be >= 2")
    budget = Budget.ensure(budget)
    report = TheoremReport(instance=_describe(X, Y, g) + f" k={k}")
    hausdorff = is_hausdorff(Y)
    sec_value = _relative_sec_of_projection(Y, g, k, budget, "lift").value
    report.quantities.update({
        "sec_relative_pik1": sec_value,
        "hausdorff": hausdorff,
        "target_points": Y.n,
        "k": k,
    })
    if hausdorff and Y.n >= k:
        status = VERIFIED if sec_value <= ExtNat(k) else VIOLATED
        report.add(CLAIM_KEY_LEMMA, status, k=k)
    else:
        report.add(CLAIM_KEY_LEMMA, HYPOTHESIS_NOT_MET, k=k,
                   bound_holds=sec_value <= ExtNat(k))
    return report


def check_main_theorem(X: FinSpace, Y: FinSpace, g: CMap,
                       budget: Budget | int | None = None) -> TheoremReport:
    """For Hausdorff targets with at least two points: CP holds exactly when
    the relative sectional number of the two-point projection equals 2.

    Non-Hausdorff or singleton targets run the same computation in exploratory
    mode and record whether the biconditional happened to hold."""
    budget = Budget.ensure(budget)
    report = TheoremReport(instance=_describe(X, Y, g))
    hausdorff = is_hausdorff(Y)
    sec_value = _relative_sec_of_projection(Y, g, 2, budget, "both").value
    cp = has_cp(X, Y, g, budget)
    report.quantities.update({
        "cp_holds": cp.holds,
        "sec_relative_pi21": sec_value,
        "hausdorff": hausdorff,
        "target_points": Y.n,
    })
    biconditional = cp.holds == (sec_value == ExtNat(2))
    if hausdorff and Y.n >= 2:
        report.add(CLAIM_MAIN, VERIFIED if biconditional else VIOLATED)
    else:
        report.add(CLAIM_MAIN, HYPOTHESIS_NOT_MET, biconditional_holds=biconditional)
    return report


def check_cp_implies_fpp(X: FinSpace, Y: FinSpace, g: CMap,
                         budget: Budget | int | None = None) -> TheoremReport:
    """CP for (X, Y; g) forces FPP for Y; hypothesis-free.

    When FPP fails, the fixed-point-free witness composed with g must be a
    coincidence-free map, so CP must fail too; the checker rebuilds that
    composite and re-validates it, reproducing the contrapositive construction."""
    budget = Budget.ensure(budget)
    report = TheoremReport(instance=_describe(X, Y, g))
    cp = has_cp(X, Y, g, budget)
    fpp = has_fpp(Y, budget)
    report.quantities.update({"cp_holds": cp.holds, "fpp_holds": fpp.holds})
    if cp.holds:
        report.add(CLAIM_CP_FPP, VERIFIED if fpp.holds else VIOLATED)
        return report
    if not fpp.holds:
        composite = compose(fpp.witness, g)
        try:
            _revalidate_witness(composite, g)
        except SelfCheckFailed:
            report.add(CLAIM_CP_FPP, VIOLATED, detail="composite witness has a coincidence")
            return report
        report.add(CLAIM_CP_FPP, VERIFIED, contrapositive_witness=list(composite.assignment))
        return report
    report.add(CLAIM_CP_FPP, VERIFIED)
    return report
