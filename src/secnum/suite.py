"""Property-suite runner: wires every module invariant into executable claims.

Each claim pairs a stable id with a machine-checkable predicate evaluated over
exhaustive censuses, regression instances, or seeded random families.  Claim
kinds:

  theorem      expected to hold whenever its stated hypotheses hold; a
               violation aborts the run with a nonzero exit code.
  exploratory  evaluated and tallied, never aborting: either the hypotheses
               cannot be decided in the finite model (for instance a homotopy
               lifting property), or the claim maps where a theorem extends
               beyond its hypotheses.  Failing instances are tallied as
               'falsified' with witnesses, not as violations.

Reports are deterministic: identical config and seed give byte-identical
report files regardless of the parallelism degree.  Wall-clock timings are
therefore written to a separate sidecar file, never into the report itself.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from dataclasses import dataclass, field, fields
from typing import Callable

from . import coincidence as coin
from .census import (
    KNOWN_POSET_COUNTS,
    KNOWN_PREORDER_COUNTS,
    InstanceGenerator,
    canonical_form,
    census_spaces,
    census_up_to,
)
from .coincidence import has_cp, has_fpp
from .extnat import ExtNat
from .finspace import (
    CMap,
    FinSpace,
    all_open_sets,
    compose,
    configuration_space,
    constant_map,
    enumerate_maps,
    identity_map,
    is_connected,
    is_hausdorff,
    make_space,
    minimal_open,
    product,
    pullback,
    sierpinski,
    subspace,
    subspace_of_mask,
)
from .homotopy import (
    Fence,
    cat,
    core,
    homotopic,
    homotopy_fence,
    is_contractible,
    nullhomotopy_target,
    _component_bfs,
)
from .resources import (
    DEFAULT_NODE_BUDGET,
    Budget,
    BudgetExhausted,
    SelfCheckFailed,
    default_node_budget,
)
from .sectional import (
    relative_sec,
    relative_secat,
    relative_tc_bounds,
    sec,
    secat,
)

SUITE_REPORT_SCHEMA = "secnum.suite-report/1"
SUITE_CONFIG_SCHEMA = "secnum.suite-config/1"

VERIFIED = "verified"
HNM = "hypothesis-not-met"
VIOLATED = "violated"
FALSIFIED = "falsified"
INCONCLUSIVE = "inconclusive"

_STATUS_KEYS = (VERIFIED, HNM, VIOLATED, FALSIFIED, INCONCLUSIVE)
_MAX_WITNESSES = 20


@dataclass(frozen=True)
class SuiteConfig:
    max_points: int = 3              # random-instance space size cap
    census_max_points: int = 3       # exhaustive (X, Y, g) census bound
    hausdorff_target_max: int = 4    # discrete targets for the main equivalence
    key_lemma_target_max: int = 5    # discrete targets for the k-bound
    k_values: tuple[int, ...] = (2, 3)
    contractibility_census_max: int = 5
    instances_per_property: int = 500
    tc_instances: int = 100
    seed: int = 0
    budget: int = 0                  # 0 means the process default
    parallelism: int = 1
    out: str | None = None

    def validate(self) -> None:
        if not 1 <= self.max_points <= 4:
            raise ValueError("max_points must be in 1..4")
        if not 1 <= self.census_max_points <= 4:
            raise ValueError("census_max_points must be in 1..4")
        if not 2 <= self.hausdorff_target_max <= 6:
            raise ValueError("hausdorff_target_max must be in 2..6")
        if not 2 <= self.key_lemma_target_max <= 6:
            raise ValueError("key_lemma_target_max must be in 2..6")
        if not self.k_values or any(not 2 <= k <= 4 for k in self.k_values):
            raise ValueError("k_values must be inside 2..4")
        if not 1 <= self.contractibility_census_max <= 5:
            raise ValueError("contractibility_census_max must be in 1..5")
        if self.instances_per_property < 1 or self.tc_instances < 1:
            raise ValueError("instance counts must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        if not 1 <= self.parallelism <= 32:
            raise ValueError("parallelism must be in 1..32")

    @property
    def node_budget(self) -> int:
        return self.budget if self.budget > 0 else default_node_budget()

    def to_json_dict(self) -> dict:
        data = {"schema": SUITE_CONFIG_SCHEMA}
        for f in fields(self):
            value = getattr(self, f.name)
            data[f.name] = list(value) if isinstance(value, tuple) else value
        return data

    def to_report_dict(self) -> dict:
        """Config echo for reports: execution details (parallelism, output
        path) are excluded so report bytes depend only on semantic inputs."""
        data = self.to_json_dict()
        del data["parallelism"]
        del data["out"]
        return data

    @staticmethod
    def from_json_dict(data: dict) -> "SuiteConfig":
        known = {f.name for f in fields(SuiteConfig)}
        kwargs = {}
        for key, value in data.items():
            if key == "schema":
                continue
            if key not in known:
                raise ValueError(f"unknown suite-config field {key!r}")
            if key == "k_values":
                value = tuple(value)
            kwargs[key] = value
        cfg = SuiteConfig(**kwargs)
        cfg.validate()
        return cfg


@dataclass(frozen=True)
class Claim:
    id: str
    statement: str
    hypotheses: str
    kind: str  # "theorem" | "exploratory"
    evaluate: Callable[[tuple, int], dict]  # (payload, budget limit) -> outcome


_registered: list[Claim] = []


def _register(id: str, statement: str, hypotheses: str = "none", kind: str = "theorem"):
    """Decorator registering its evaluator as a claim; the order of
    registration is the order of the report."""

    def register(evaluate):
        _registered.append(Claim(id, statement, hypotheses, kind, evaluate))
        return evaluate

    return register


# ---------------------------------------------------------------------------
# payload helpers


def _space_json(X: FinSpace) -> list[int]:
    return list(X.reach_rows)


def _map_json(f: CMap) -> dict:
    return {
        "source": _space_json(f.source),
        "target": _space_json(f.target),
        "assignment": list(f.assignment),
    }


def _triple_json(X, Y, g) -> dict:
    return {"X": _space_json(X), "Y": _space_json(Y), "g": list(g.assignment)}


def _value(v: ExtNat):
    return v.to_json()


# ---------------------------------------------------------------------------
# evaluators: each is registered as one claim and returns an outcome dict


def _outcome(status, witness=None, **extras):
    out = {"status": status}
    if witness is not None:
        out["witness"] = witness
    if extras:
        out["extras"] = extras
    return out


def _from_report(report: coin.TheoremReport, witness=None):
    status = report.status
    if status == coin.VERIFIED:
        return _outcome(VERIFIED)
    if status == coin.HYPOTHESIS_NOT_MET:
        return _outcome(HNM)
    return _outcome(VIOLATED, witness)


@_register(
    "remark_sec1_iff_not_cp",
    "the relative sectional number of the 2-point configuration projection "
    "equals 1 exactly when a coincidence-free map exists",
)
def _eval_remark(payload, budget):
    X, Y, g = payload
    report = coin.check_remark(X, Y, g, budget=Budget(budget))
    return _from_report(report, witness=_triple_json(X, Y, g))


@_register(
    "main_theorem",
    "CP holds exactly when the relative sectional number of the 2-point "
    "configuration projection equals 2",
    hypotheses="target Hausdorff with at least 2 points; other instances explored",
)
def _eval_main_theorem(payload, budget):
    X, Y, g = payload
    report = coin.check_main_theorem(X, Y, g, budget=Budget(budget))
    out = _from_report(report, witness=_triple_json(X, Y, g))
    if report.status == coin.HYPOTHESIS_NOT_MET:
        q = report.quantities
        if (
            not q.get("hausdorff")
            and q.get("target_points", 0) >= 2
            and q.get("cp_holds")
            and q.get("sec_relative_pi21") == ExtNat(2)
        ):
            out.setdefault("extras", {})["open_question_hit"] = _triple_json(X, Y, g)
    return out


@_register(
    "key_lemma_k",
    "the relative sectional number of the k-point configuration projection "
    "is at most k",
    hypotheses="target Hausdorff with at least k points; other instances explored",
)
def _eval_key_lemma(payload, budget):
    X, Y, g, k = payload
    report = coin.check_key_lemma(X, Y, g, k, budget=Budget(budget))
    return _from_report(report, witness=_triple_json(X, Y, g) | {"k": k})


@_register(
    "cp_implies_fpp",
    "CP for (X, Y; g) implies FPP for Y; on failure of FPP the composite of "
    "the fixed-point-free witness with g is a coincidence-free witness",
)
def _eval_cp_implies_fpp(payload, budget):
    X, Y, g = payload
    report = coin.check_cp_implies_fpp(X, Y, g, budget=Budget(budget))
    return _from_report(report, witness=_triple_json(X, Y, g))


@_register(
    "sierpinski_boundary",
    "for the Sierpinski space with the identity: CP holds, FPP holds, and the "
    "relative sectional number of the 2-point projection is infinite on both "
    "routes, so the Hausdorff hypothesis of the main equivalence is necessary",
)
def _eval_sierpinski_boundary(payload, budget):
    S = sierpinski()
    one = identity_map(S)
    b = Budget(budget)
    cp = has_cp(S, S, one, b)
    fpp = has_fpp(S, b)
    conf, projections = configuration_space(S, 2)
    by_pullback = relative_sec(projections[1], one, route="pullback", budget=b)
    by_lift = relative_sec(projections[1], one, route="lift", budget=b)
    ok = (
        cp.holds
        and fpp.holds
        and not by_pullback.value.is_finite
        and not by_lift.value.is_finite
    )
    return _outcome(
        VERIFIED if ok else VIOLATED,
        None if ok else {
            "cp": cp.holds,
            "fpp": fpp.holds,
            "pullback": _value(by_pullback.value),
            "lift": _value(by_lift.value),
        },
    )


@_register(
    "fpp_iff_cp_identity",
    "a space has FPP exactly when (X, X; identity) has CP",
)
def _eval_fpp_iff_cp_identity(payload, budget):
    (X,) = payload
    b = Budget(budget)
    fpp = has_fpp(X, b)
    cp = has_cp(X, X, identity_map(X), b)
    ok = fpp.holds == cp.holds
    return _outcome(VERIFIED if ok else VIOLATED, None if ok else {"X": _space_json(X)})


@_register(
    "cp_target_restriction",
    "when g lands in a proper open subset A and CP holds into A, any "
    "coincidence-free map into the full target must leave A",
    hypotheses="g factors through a proper open subset and CP holds into it",
)
def _eval_cp_target_restriction(payload, budget):
    X, Y, g = payload
    b = Budget(budget)
    image = g.image_mask()
    hull = 0
    for y in range(Y.n):
        if (image >> y) & 1:
            hull |= Y.reach_rows[y]
    if hull == Y.full_mask:
        return _outcome(HNM)
    sub, incl = subspace_of_mask(Y, hull)
    index_of = {p: i for i, p in enumerate(incl.assignment)}
    g_in = CMap(X, sub, [index_of[g(x)] for x in range(X.n)], validate=False)
    cp_in = has_cp(X, sub, g_in, b)
    cp_out = has_cp(X, Y, g, b)
    if not cp_in.holds or cp_out.holds:
        return _outcome(HNM)
    leaves = bool(cp_out.witness.image_mask() & ~hull)
    return _outcome(
        VERIFIED if leaves else VIOLATED,
        None if leaves else _triple_json(X, Y, g),
    )


@_register(
    "contractible_core_vs_fence",
    "core reduction and fence search from the identity to a constant agree "
    "on contractibility",
)
def _eval_contractible_core_vs_fence(payload, budget):
    (X,) = payload
    try:
        is_contractible(X, budget=Budget(budget), cross_check=True)
    except SelfCheckFailed:
        return _outcome(VIOLATED, {"X": _space_json(X)})
    return _outcome(VERIFIED)


@_register(
    "cat_core_invariance",
    "the category of a space equals the category of its core",
)
def _eval_cat_core_invariance(payload, budget):
    (X,) = payload
    b = Budget(budget)
    ok = cat(X, b).value == cat(core(X).space, b).value
    return _outcome(VERIFIED if ok else VIOLATED, None if ok else {"X": _space_json(X)})


@_register(
    "cat1_iff_contractible",
    "category 1 is equivalent to contractibility",
    hypotheses="nonempty space",
)
def _eval_cat1_iff_contractible(payload, budget):
    (X,) = payload
    if X.n == 0:
        return _outcome(HNM)
    b = Budget(budget)
    ok = (cat(X, b).value == ExtNat(1)) == is_contractible(X, b)
    return _outcome(VERIFIED if ok else VIOLATED, None if ok else {"X": _space_json(X)})


@_register(
    "homotopic_matches_direct_components",
    "the core-compressed homotopy decision agrees with components of the "
    "uncompressed comparability graph on the full map set",
)
def _eval_homotopic_matches_direct(payload, budget):
    A, B = payload
    b = Budget(budget)
    maps = list(enumerate_maps(A, B, budget=b))
    component_of: dict[tuple, int] = {}
    for m in maps:
        if m.assignment in component_of:
            continue
        label = len(component_of)
        _, parents = _component_bfs(A, B, m.assignment, b)
        for t in parents:
            component_of[t] = label
    for f in maps:
        for g in maps:
            expected = component_of[f.assignment] == component_of[g.assignment]
            if homotopic(f, g, b) != expected:
                return _outcome(VIOLATED, {
                    "A": _space_json(A), "B": _space_json(B),
                    "f": list(f.assignment), "g": list(g.assignment),
                })
    return _outcome(VERIFIED)


@_register(
    "fences_revalidate",
    "every fence produced as a homotopy witness revalidates step by step",
)
def _eval_fences_revalidate(payload, budget):
    f, g = payload
    b = Budget(budget)
    if not homotopic(f, g, b):
        return _outcome(HNM)
    fence = homotopy_fence(f, g, b)
    if fence is None:
        return _outcome(VIOLATED, {"f": _map_json(f), "g": list(g.assignment)})
    Fence(tuple(fence.steps))  # revalidates comparability
    for step in fence.steps:
        CMap(step.source, step.target, step.assignment, validate=True)
    ok = fence.steps[0] == f and fence.steps[-1] == g
    return _outcome(VERIFIED if ok else VIOLATED,
                    None if ok else {"f": _map_json(f), "g": list(g.assignment)})


@_register(
    "finspace_invariants",
    "minimal opens are least opens containing their point; opens are closed "
    "under union and intersection; Hausdorff is equivalent to all singletons "
    "open; enumerated maps compose and revalidate",
)
def _eval_finspace_invariants(payload, budget):
    (X,) = payload
    b = Budget(budget)
    opens = all_open_sets(X)
    masks = {o.mask for o in opens}
    for x in range(X.n):
        u = minimal_open(X, x)
        if u.mask not in masks or not (u.mask >> x) & 1:
            return _outcome(VIOLATED, {"X": _space_json(X), "point": x})
        for m in masks:
            if (m >> x) & 1 and u.mask & ~m:
                return _outcome(VIOLATED, {"X": _space_json(X), "point": x, "open": m})
    for m1 in masks:
        for m2 in masks:
            if (m1 | m2) not in masks or (m1 & m2) not in masks:
                return _outcome(VIOLATED, {"X": _space_json(X), "pair": [m1, m2]})
    singleton_open = all((1 << x) in masks for x in range(X.n))
    if is_hausdorff(X) != singleton_open:
        return _outcome(VIOLATED, {"X": _space_json(X)})
    self_maps = list(enumerate_maps(X, X, budget=b))
    for f in self_maps:
        for g in self_maps:
            composed = compose(f, g)
            CMap(X, X, composed.assignment, validate=True)
    return _outcome(VERIFIED)


@_register(
    "config_matches_offdiagonal_subspace",
    "the 2-point configuration space equals the off-diagonal subspace of the "
    "square, point for point",
)
def _eval_config_matches_offdiagonal(payload, budget):
    (X,) = payload
    conf, _ = configuration_space(X, 2)
    square, _, _ = product(X, X)
    off = [i for i in range(square.n) if i // X.n != i % X.n]
    sub, _ = subspace(square, off)
    ok = conf == sub
    return _outcome(VERIFIED if ok else VIOLATED, None if ok else {"X": _space_json(X)})


@_register(
    "pullback_along_identity_iso",
    "pulling back along the identity returns a space isomorphic to the total "
    "space",
)
def _eval_pullback_identity_iso(payload, budget):
    (p,) = payload
    P, _, _ = pullback(p, identity_map(p.target))
    ok = canonical_form(P) == canonical_form(p.source)
    return _outcome(VERIFIED if ok else VIOLATED, None if ok else _map_json(p))


@_register(
    "census_counts",
    "census sizes match the known counts of finite spaces and posets up to "
    "isomorphism, and emitted spaces are pairwise non-isomorphic",
)
def _eval_census_counts(payload, budget):
    n, posets_only, expected = payload
    spaces = census_spaces(n, posets_only)
    if len(spaces) != expected:
        return _outcome(VIOLATED, {"n": n, "got": len(spaces), "expected": expected})
    keys = set()
    for X in spaces:
        FinSpace(X.reach_rows, validate=True)
        keys.add(canonical_form(X))
    if len(keys) != len(spaces):
        return _outcome(VIOLATED, {"n": n, "detail": "isomorphic duplicates emitted"})
    return _outcome(VERIFIED)


@_register(
    "pullback_secat_strict_drop",
    "some canonical pullback strictly drops the sectional category while the "
    "sectional number obeys its monotonicity",
)
def _eval_pullback_secat_strict_drop(payload, budget):
    b = Budget(budget)
    for Y in census_up_to(3):
        if Y.n < 2:
            continue
        pt = make_space(1, [])
        for y0 in range(Y.n):
            p = constant_map(pt, Y, y0)
            upstairs = secat(p, b).value
            for y1 in range(Y.n):
                g = constant_map(pt, Y, y1)
                _, to_base, _ = pullback(p, g)
                downstairs = secat(to_base, b).value
                if downstairs < upstairs:
                    if sec(to_base, b).value <= sec(p, b).value:
                        return _outcome(VERIFIED, None)
                    return _outcome(VIOLATED, {"Y": _space_json(Y), "detail": "sec monotonicity failed"})
    return _outcome(VIOLATED, {"detail": "no strict drop instance found in the census"})


@_register(
    "composition_chain",
    "rel-sec of the outer map <= rel-sec of the composite <= rel-sec of the "
    "outer map times sec of the inner map",
)
def _eval_composition_chain(payload, budget):
    p1, p2, g = payload
    b = Budget(budget)
    outer = relative_sec(p2, g, route="both", budget=b).value
    composite = relative_sec(compose(p2, p1), g, route="both", budget=b).value
    inner = sec(p1, b).value
    ok = outer <= composite and composite <= outer * inner
    return _outcome(VERIFIED if ok else VIOLATED,
                    None if ok else {
                        "p1": _map_json(p1), "p2": _map_json(p2), "g": _map_json(g),
                        "outer": _value(outer), "composite": _value(composite),
                        "inner": _value(inner),
                    })


def _with_identity_factor(Z: FinSpace, f: CMap) -> CMap:
    ZX, _, _ = product(Z, f.source)
    ZY, _, _ = product(Z, f.target)
    src_n, tgt_n = f.source.n, f.target.n
    assignment = [(i // src_n) * tgt_n + f(i % src_n) for i in range(ZX.n)]
    return CMap(ZX, ZY, assignment, validate=False)


def _eval_product_equality(payload, budget, invariant):
    Z, f = payload
    if Z.n == 0:
        return _outcome(HNM)
    b = Budget(budget)
    crossed = _with_identity_factor(Z, f)
    lhs = invariant(crossed, b).value
    rhs = invariant(f, b).value
    ok = lhs == rhs
    return _outcome(VERIFIED if ok else VIOLATED,
                    None if ok else {"Z": _space_json(Z), "f": _map_json(f),
                                     "crossed": _value(lhs), "plain": _value(rhs)})


@_register(
    "product_sec_equality",
    "crossing with an identity preserves the sectional number",
    hypotheses="identity factor space nonempty",
)
def _eval_product_sec(payload, budget):
    return _eval_product_equality(payload, budget, sec)


@_register(
    "product_secat_equality",
    "crossing with an identity preserves the sectional category",
    hypotheses="identity factor space nonempty",
)
def _eval_product_secat(payload, budget):
    return _eval_product_equality(payload, budget, secat)


def _eval_square_rule(payload, budget, invariant):
    phi, f, f_prime, psi = payload
    b = Budget(budget)
    lhs = invariant(f, b).value * invariant(psi, b).value
    rhs = invariant(f_prime, b).value
    ok = lhs >= rhs
    return _outcome(VERIFIED if ok else VIOLATED,
                    None if ok else {"f": _map_json(f), "psi": _map_json(psi),
                                     "f_prime": _map_json(f_prime),
                                     "lhs": _value(lhs), "rhs": _value(rhs)})


@_register(
    "square_rule_sec",
    "in a strictly commuting square, sec(left) * sec(bottom) >= sec(right)",
)
def _eval_square_rule_sec(payload, budget):
    return _eval_square_rule(payload, budget, sec)


@_register(
    "square_rule_secat",
    "in a strictly commuting square, secat(left) * secat(bottom) >= secat(right)",
)
def _eval_square_rule_secat(payload, budget):
    return _eval_square_rule(payload, budget, secat)


_register(
    "square_rule_secat_homotopy",
    "in a homotopy-commuting square, secat(left) * secat(bottom) >= secat(right)",
)(_eval_square_rule_secat)


@_register(
    "triangle_sec_monotone",
    "factoring f' = f o h forces sec(f') >= sec(f) and secat(f') >= secat(f)",
)
def _eval_triangle_monotone(payload, budget):
    f, h = payload
    b = Budget(budget)
    f_prime = compose(f, h)
    if not (sec(f_prime, b).value >= sec(f, b).value):
        return _outcome(VIOLATED, {"f": _map_json(f), "h": _map_json(h), "kind": "sec"})
    if not (secat(f_prime, b).value >= secat(f, b).value):
        return _outcome(VIOLATED, {"f": _map_json(f), "h": _map_json(h), "kind": "secat"})
    return _outcome(VERIFIED)


@_register(
    "triangle_secat_homotopy",
    "f' homotopic to f o h forces secat(f') >= secat(f)",
)
def _eval_triangle_secat_homotopy(payload, budget):
    f, h, f_prime = payload
    b = Budget(budget)
    ok = secat(f_prime, b).value >= secat(f, b).value
    return _outcome(VERIFIED if ok else VIOLATED,
                    None if ok else {"f": _map_json(f), "h": _map_json(h),
                                     "f_prime": _map_json(f_prime)})


@_register(
    "secat_le_sec",
    "sectional category never exceeds the sectional number",
)
def _eval_secat_le_sec(payload, budget):
    (f,) = payload
    b = Budget(budget)
    ok = secat(f, b).value <= sec(f, b).value
    return _outcome(VERIFIED if ok else VIOLATED, None if ok else _map_json(f))


@_register(
    "secat_le_cat_target",
    "sectional category is bounded by the category of the target",
    hypotheses=(
        "source nonempty and target connected (the classical standing "
        "conventions; falsifiable otherwise on finite instances)"
    ),
)
def _eval_secat_le_cat_target(payload, budget):
    (f,) = payload
    if f.source.n == 0 or not is_connected(f.target):
        return _outcome(HNM)
    b = Budget(budget)
    ok = secat(f, b).value <= cat(f.target, b).value
    return _outcome(VERIFIED if ok else VIOLATED, None if ok else _map_json(f))


@_register(
    "nullhomotopic_secat_eq_cat",
    "a nullhomotopic map has sectional category equal to the category of its "
    "target",
    hypotheses="map nullhomotopic, source nonempty, target connected",
)
def _eval_nullhomotopic_secat_eq_cat(payload, budget):
    (f,) = payload
    if f.source.n == 0 or not is_connected(f.target):
        return _outcome(HNM)
    b = Budget(budget)
    if nullhomotopy_target(f, b) is None:
        return _outcome(HNM)
    ok = secat(f, b).value == cat(f.target, b).value
    return _outcome(VERIFIED if ok else VIOLATED, None if ok else _map_json(f))


@_register(
    "relative_sec_le_sec",
    "the relative sectional number never exceeds the plain one",
)
def _eval_relative_sec_le_sec(payload, budget):
    p, g = payload
    b = Budget(budget)
    ok = relative_sec(p, g, route="both", budget=b).value <= sec(p, b).value
    return _outcome(VERIFIED if ok else VIOLATED,
                    None if ok else {"p": _map_json(p), "g": _map_json(g)})


@_register(
    "relative_times_sec_ge_sec",
    "rel-sec of p along g times sec of g bounds sec of p from above",
)
def _eval_relative_times_sec_ge_sec(payload, budget):
    p, g = payload
    b = Budget(budget)
    lhs = relative_sec(p, g, route="both", budget=b).value * sec(g, b).value
    ok = lhs >= sec(p, b).value
    return _outcome(VERIFIED if ok else VIOLATED,
                    None if ok else {"p": _map_json(p), "g": _map_json(g)})


@_register(
    "relative_secat_le_cat_base",
    "relative sectional category is bounded by the category of the base",
    hypotheses=(
        "base connected and pullback nonempty (the degenerate empty pullback "
        "falsifies the unrestricted statement)"
    ),
)
def _eval_relative_secat_le_cat_base(payload, budget):
    p, g = payload
    X = g.source
    if not is_connected(X):
        return _outcome(HNM)
    P, to_base, _ = pullback(p, g)
    if P.n == 0:
        return _outcome(HNM)
    b = Budget(budget)
    ok = secat(to_base, b).value <= cat(X, b).value
    return _outcome(VERIFIED if ok else VIOLATED,
                    None if ok else {"p": _map_json(p), "g": _map_json(g)})


@_register(
    "relative_secat_homotopy_invariance",
    "relative sectional category is unchanged when g is replaced by a "
    "homotopic map",
    hypotheses=(
        "requires a homotopy lifting property of p that is not decidable here; "
        "evaluated unrestricted, counterexamples expected and recorded"
    ),
    kind="exploratory",
)
def _eval_relative_secat_homotopy_invariance(payload, budget):
    p, g, g_prime = payload
    b = Budget(budget)
    if not homotopic(g, g_prime, b):
        return _outcome(HNM)
    lhs = relative_secat(p, g, budget=b).value
    rhs = relative_secat(p, g_prime, budget=b).value
    if lhs == rhs:
        return _outcome(VERIFIED)
    return _outcome(FALSIFIED, {
        "p": _map_json(p), "g": _map_json(g), "g_prime": list(g_prime.assignment),
        "secat_g": _value(lhs), "secat_g_prime": _value(rhs),
    })


@_register(
    "retraction_relative_sec",
    "relative to a retraction onto an open subspace, the relative sectional "
    "number equals the plain one",
)
def _eval_retraction_relative_sec(payload, budget):
    r, p = payload
    b = Budget(budget)
    ok = relative_sec(p, r, route="both", budget=b).value == sec(p, b).value
    return _outcome(VERIFIED if ok else VIOLATED,
                    None if ok else {"r": _map_json(r), "p": _map_json(p)})


@_register(
    "route_equivalence",
    "the pullback route and the lifting route compute the same relative "
    "sectional number",
)
def _eval_route_equivalence(payload, budget):
    p, g = payload
    b = Budget(budget)
    try:
        relative_sec(p, g, route="both", budget=b)
    except SelfCheckFailed as exc:
        return _outcome(VIOLATED, {"p": _map_json(p), "g": _map_json(g), "detail": str(exc)})
    return _outcome(VERIFIED)


@_register(
    "tc_bounds_contractible",
    "with a contractible domain the relative complexity interval is exact and "
    "equals the relative sectional number",
    hypotheses="domain of the work map contractible",
)
def _eval_tc_bounds_contractible(payload, budget):
    f, g = payload
    b = Budget(budget)
    if not is_contractible(f.source, b):
        return _outcome(HNM)
    bounds = relative_tc_bounds(f, g, budget=b)
    reference = relative_sec(f, g, route="both", budget=b).value
    ok = (
        bounds.exact
        and bounds.upper is not None
        and bounds.lower == bounds.upper == reference
        and bounds.lower <= bounds.upper
    )
    return _outcome(VERIFIED if ok else VIOLATED,
                    None if ok else {"f": _map_json(f), "g": _map_json(g)})


@_register(
    "tc_bounds_noncontractible",
    "with a non-contractible domain the reported lower bound equals the "
    "relative sectional number and the upper bound is unknown",
)
def _eval_tc_bounds_noncontractible(payload, budget):
    f, g = payload
    b = Budget(budget)
    if is_contractible(f.source, b):
        return _outcome(HNM)
    bounds = relative_tc_bounds(f, g, budget=b)
    reference = relative_sec(f, g, route="both", budget=b).value
    ok = not bounds.exact and bounds.upper is None and bounds.lower == reference
    return _outcome(VERIFIED if ok else VIOLATED,
                    None if ok else {"f": _map_json(f), "g": _map_json(g)})


REGISTRY: tuple[Claim, ...] = tuple(_registered)
CLAIMS_BY_ID = {claim.id: claim for claim in REGISTRY}


def _payload_json(payload) -> list:
    return [
        _space_json(item) if isinstance(item, FinSpace)
        else _map_json(item) if isinstance(item, CMap)
        else item
        for item in payload
    ]


def _eval_task(task):
    """The one place where a search that ran out of nodes becomes a status:
    the instance is inconclusive and is its own witness."""
    claim_id, payload, budget_limit = task
    try:
        return CLAIMS_BY_ID[claim_id].evaluate(payload, budget_limit)
    except BudgetExhausted:
        return _outcome(INCONCLUSIVE, _payload_json(payload))


# ---------------------------------------------------------------------------
# instance builders


def _all_maps(X: FinSpace, Y: FinSpace):
    if X.n > 0 and Y.n == 0:
        return []
    return list(enumerate_maps(X, Y, budget=DEFAULT_NODE_BUDGET))


def _census_triples(cfg: SuiteConfig):
    xs = census_up_to(cfg.census_max_points, include_empty=True)
    ys = census_up_to(cfg.census_max_points, include_empty=True)
    triples = []
    for X in xs:
        for Y in ys:
            for g in _all_maps(X, Y):
                triples.append((X, Y, g))
    return triples


def _hausdorff_triples(cfg: SuiteConfig, max_target: int, min_target: int):
    xs = census_up_to(cfg.census_max_points, include_empty=True)
    triples = []
    for size in range(min_target, max_target + 1):
        Y = make_space(size, [])
        for X in xs:
            for g in _all_maps(X, Y):
                triples.append((X, Y, g))
    return triples


def _build_tasks(cfg: SuiteConfig):
    """Deterministic full task list: [(claim_id, payload, budget_limit), ...]."""
    budget = cfg.node_budget
    tasks: list[tuple] = []

    def add(claim_id, payload):
        tasks.append((claim_id, payload, budget))

    census_triples = _census_triples(cfg)
    for X, Y, g in census_triples:
        add("remark_sec1_iff_not_cp", (X, Y, g))
        add("cp_implies_fpp", (X, Y, g))
        add("cp_target_restriction", (X, Y, g))
        if not is_hausdorff(Y):
            add("main_theorem", (X, Y, g))
            for k in cfg.k_values:
                add("key_lemma_k", (X, Y, g, k))
    for X, Y, g in _hausdorff_triples(cfg, cfg.hausdorff_target_max, 2):
        add("main_theorem", (X, Y, g))
    for k in cfg.k_values:
        for X, Y, g in _hausdorff_triples(cfg, cfg.key_lemma_target_max, k):
            add("key_lemma_k", (X, Y, g, k))

    add("sierpinski_boundary", ())
    add("pullback_secat_strict_drop", ())

    for X in census_up_to(min(cfg.census_max_points + 1, 4), include_empty=True):
        add("fpp_iff_cp_identity", (X,))
    for X in census_up_to(cfg.contractibility_census_max):
        add("contractible_core_vs_fence", (X,))
        add("cat_core_invariance", (X,))
        add("cat1_iff_contractible", (X,))
    small = census_up_to(cfg.census_max_points, include_empty=True)
    for X in small:
        add("finspace_invariants", (X,))
        add("config_matches_offdiagonal_subspace", (X,))
    for A in census_up_to(min(cfg.census_max_points, 3)):
        for B in census_up_to(min(cfg.census_max_points, 3)):
            add("homotopic_matches_direct_components", (A, B))
    gen = InstanceGenerator(f"{cfg.seed}:pullback-iso")
    for index in range(min(cfg.instances_per_property, 100)):
        E = gen.space(cfg.max_points)
        B = gen.space(cfg.max_points)
        p = gen.cmap(E, B)
        add("pullback_along_identity_iso", (p,))
    for n in range(1, cfg.census_max_points + 1):
        add("census_counts", (n, False, KNOWN_PREORDER_COUNTS[n]))
        add("census_counts", (n, True, KNOWN_POSET_COUNTS[n]))

    def seeded(name, index):
        return InstanceGenerator(f"{cfg.seed}:{name}:{index}")

    m = cfg.max_points
    for i in range(cfg.instances_per_property):
        g = seeded("composition-chain", i)
        E1, E2, B, X = g.space(m), g.space(m), g.space(m), g.space(m)
        add("composition_chain", (g.cmap(E1, E2), g.cmap(E2, B), g.cmap(X, B)))

        g = seeded("product", i)
        Z = g.space(min(m, 3))
        Xs, Ys = g.space(min(m, 3)), g.space(min(m, 3))
        f = g.cmap(Xs, Ys)
        add("product_sec_equality", (Z, f))
        add("product_secat_equality", (Z, f))

        g = seeded("square", i)
        square = g.square(m)
        add("square_rule_sec", square)
        add("square_rule_secat", square)
        phi, f, f_prime, psi = square
        f_prime_h = g.homotopic_neighbor(f_prime)
        add("square_rule_secat_homotopy", (phi, f, f_prime_h, psi))

        g = seeded("triangle", i)
        W, Xs, Ys = g.space(m), g.space(m), g.space(m)
        h = g.cmap(W, Xs)
        f = g.cmap(Xs, Ys)
        add("triangle_sec_monotone", (f, h))
        add("triangle_secat_homotopy", (f, h, g.homotopic_neighbor(compose(f, h))))

        g = seeded("secat-le-sec", i)
        Xs, Ys = g.space(m), g.space(m)
        add("secat_le_sec", (g.cmap(Xs, Ys),))

        g = seeded("secat-le-cat", i)
        Xs, Ys = g.space(m), g.space(m)
        add("secat_le_cat_target", (g.cmap(Xs, Ys),))

        g = seeded("nullhomotopic", i)
        Xs, Ys = g.space(m), g.space(m)
        if i % 2 == 0:
            f = constant_map(Xs, Ys, g.rng.randrange(Ys.n))
        else:
            f = g.cmap(Xs, Ys)
        add("nullhomotopic_secat_eq_cat", (f,))

        g = seeded("relative", i)
        E, B, Xs = g.space(m), g.space(m), g.space(m)
        p, gm = g.cmap(E, B), g.cmap(Xs, B)
        add("relative_sec_le_sec", (p, gm))
        add("relative_times_sec_ge_sec", (p, gm))
        add("relative_secat_le_cat_base", (p, gm))
        add("route_equivalence", (p, gm))

        g = seeded("invariance", i)
        E, B, Xs = g.space(m), g.space(m), g.space(m)
        p, gm = g.cmap(E, B), g.cmap(Xs, B)
        add("relative_secat_homotopy_invariance", (p, gm, g.homotopic_neighbor(gm)))

        g = seeded("retraction", i)
        Xr, Bsub, incl, r = g.retraction(m)
        E = g.space(m)
        p = g.cmap(E, Bsub)
        add("retraction_relative_sec", (r, p))

        g = seeded("fence", i)
        Xs, Ys = g.space(m), g.space(m)
        f0 = g.cmap(Xs, Ys)
        f1 = g.homotopic_neighbor(g.homotopic_neighbor(f0))
        add("fences_revalidate", (f0, f1))

    for i in range(cfg.tc_instances):
        g = seeded("tc-contractible", i)
        Z = g.contractible_space(m)
        Ys, Xs = g.space(m), g.space(m)
        add("tc_bounds_contractible", (g.cmap(Z, Ys), g.cmap(Xs, Ys)))
        g = seeded("tc-noncontractible", i)
        Z = g.noncontractible_space(min(m + 1, 4))
        Ys, Xs = g.space(m), g.space(m)
        add("tc_bounds_noncontractible", (g.cmap(Z, Ys), g.cmap(Xs, Ys)))

    return tasks


# ---------------------------------------------------------------------------
# report assembly


@dataclass
class SuiteReport:
    config: SuiteConfig
    claims: list[dict] = field(default_factory=list)
    census_summary: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        for entry in self.claims:
            if entry["kind"] == "theorem" and entry["tallies"][VIOLATED] > 0:
                return 2
        for entry in self.claims:
            if entry["kind"] == "theorem" and entry["tallies"][INCONCLUSIVE] > 0:
                return 3
        return 0

    def claim(self, claim_id: str) -> dict:
        for entry in self.claims:
            if entry["id"] == claim_id:
                return entry
        raise KeyError(claim_id)

    def to_json_dict(self) -> dict:
        return {
            "schema": SUITE_REPORT_SCHEMA,
            "config": self.config.to_report_dict(),
            "claims": self.claims,
            "census_summary": self.census_summary,
            "exit_code": self.exit_code,
        }

    def to_json_bytes(self) -> bytes:
        return (json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n").encode()

    def write(self, path: str) -> None:
        with open(path, "wb") as handle:
            handle.write(self.to_json_bytes())
        sidecar = json.dumps({"timings_seconds": self.timings}, sort_keys=True, indent=2)
        with open(path + ".timings.json", "w", encoding="utf-8") as handle:
            handle.write(sidecar + "\n")


def _census_summary(cfg: SuiteConfig, extras: dict) -> dict:
    spaces_by_size = {}
    fpp_by_size = {}
    for n in range(1, cfg.census_max_points + 1):
        spaces = census_spaces(n)
        spaces_by_size[str(n)] = len(spaces)
        fpp_by_size[str(n)] = sum(1 for X in spaces if has_fpp(X, DEFAULT_NODE_BUDGET).holds)
    hits = extras.get("open_question_hit", [])
    return {
        "spaces_by_size": spaces_by_size,
        "fpp_by_size": fpp_by_size,
        "non_hausdorff_cp_with_sec2": {
            "found": bool(hits),
            "witnesses": hits[:_MAX_WITNESSES],
        },
    }


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    """Evaluate every registered claim; deterministic for a fixed config.

    Instances are generated up front in a fixed order; workers evaluate pure
    functions of their payloads, and results are merged in instance order, so
    the report bytes do not depend on the parallelism degree."""
    cfg.validate()
    tasks = _build_tasks(cfg)
    by_claim: dict[str, list] = {claim.id: [] for claim in REGISTRY}
    for task in tasks:
        by_claim[task[0]].append(task)

    pool = multiprocessing.Pool(cfg.parallelism) if cfg.parallelism > 1 else None
    timings: dict[str, float] = {}
    extras_agg: dict[str, list] = {}
    claims = []
    total_started = time.perf_counter()
    try:
        for claim in REGISTRY:
            claim_tasks = by_claim[claim.id]
            started = time.perf_counter()
            if pool is not None and len(claim_tasks) > 1:
                chunk = max(1, len(claim_tasks) // (cfg.parallelism * 8))
                outcomes = pool.map(_eval_task, claim_tasks, chunksize=chunk)
            else:
                outcomes = [_eval_task(task) for task in claim_tasks]
            timings[claim.id] = time.perf_counter() - started
            tallies = {key: 0 for key in _STATUS_KEYS}
            witnesses = []
            for outcome in outcomes:
                status = outcome["status"]
                tallies[status] += 1
                if status in (VIOLATED, FALSIFIED, INCONCLUSIVE):
                    if len(witnesses) < _MAX_WITNESSES and outcome.get("witness") is not None:
                        witnesses.append({"status": status, "instance": outcome["witness"]})
                for key, value in outcome.get("extras", {}).items():
                    extras_agg.setdefault(key, []).append(value)
            claims.append({
                "id": claim.id,
                "statement": claim.statement,
                "hypotheses": claim.hypotheses,
                "kind": claim.kind,
                "instances": len(claim_tasks),
                "tallies": tallies,
                "witnesses": witnesses,
            })
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    timings["total"] = time.perf_counter() - total_started

    report = SuiteReport(
        config=cfg,
        claims=claims,
        census_summary=_census_summary(cfg, extras_agg),
        timings=timings,
    )
    if cfg.out:
        report.write(cfg.out)
    return report
