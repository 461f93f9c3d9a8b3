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

import itertools
import json
import time
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable

from . import coincidence as coin
from .census import (
    KNOWN_POSET_COUNTS,
    KNOWN_PREORDER_COUNTS,
    InstanceGenerator,
    _comparable_maps,
    canonical_form,
    census_spaces,
    census_up_to,
)
from .coincidence import (
    FALSIFIED,
    HYPOTHESIS_NOT_MET as HNM,
    VERIFIED,
    VIOLATED,
    _bridge_target,
    has_cp,
    has_fpp,
    status_of,
)
from .extnat import ExtNat
from .finspace import (
    CMap,
    FinSpace,
    compose,
    configuration_space,
    connected_components,
    constant_map,
    enumerate_maps,
    identity_map,
    is_connected,
    is_hausdorff,
    iter_open_masks,
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
    shared_searches,
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

    def __post_init__(self) -> None:
        # type(...) is int rejects bools, which JSON configs could otherwise pass
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "out":
                if value is not None and not isinstance(value, str):
                    raise ValueError("out must be a path string or null")
            elif f.name == "k_values":
                if type(value) is not tuple or any(type(k) is not int for k in value):
                    raise ValueError("k_values must be a list of integers")
            elif type(value) is not int:
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
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
        if len(set(self.k_values)) != len(self.k_values):
            raise ValueError("k_values must not repeat a k")
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
        if not isinstance(data, dict):
            raise ValueError("suite config must be a JSON object")
        known = {f.name for f in fields(SuiteConfig)}
        kwargs = {}
        for key, value in data.items():
            if key == "schema":
                if value != SUITE_CONFIG_SCHEMA:
                    raise ValueError(f"unknown suite-config schema {value!r}")
                continue
            if key not in known:
                raise ValueError(f"unknown suite-config field {key!r}")
            if key == "k_values":
                value = tuple(value)
            kwargs[key] = value
        return SuiteConfig(**kwargs)


@dataclass(frozen=True)
class Claim:
    id: str
    statement: str
    hypotheses: str
    kind: str  # "theorem" | "exploratory"
    evaluate: Callable[..., bool | str | dict]  # (*payload, budget) -> conclusion


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


def _payload_json(payload) -> list:
    return [
        _space_json(item) if isinstance(item, FinSpace)
        else _map_json(item) if isinstance(item, CMap)
        else item
        for item in payload
    ]


# ---------------------------------------------------------------------------
# evaluators: each is registered as one claim and takes its instance's items,
# then a fresh Budget; it returns its conclusion (True, False or HNM, or an
# outcome dict whose "status" is one), which _eval_task turns into a status


@_register(
    coin.CLAIM_REMARK,
    "the relative sectional number of the 2-point configuration projection "
    "equals 1 exactly when a coincidence-free map exists",
)
def _eval_remark(X, Y, g, budget):
    return coin.check_remark(X, Y, g, budget).conclusion


@_register(
    coin.CLAIM_MAIN,
    "CP holds exactly when the relative sectional number of the 2-point "
    "configuration projection equals 2",
    hypotheses="target Hausdorff with at least 2 points; other instances explored",
)
def _eval_main_theorem(X, Y, g, budget):
    report = coin.check_main_theorem(X, Y, g, budget=budget)
    q = report.quantities
    if not q["hausdorff"] and q["cp_holds"] and q["sec_relative_pi21"] == ExtNat(2):
        # CP with relsec 2 on a non-Hausdorff target: the census summary's hit
        hit = {"X": _space_json(X), "Y": _space_json(Y), "g": list(g.assignment)}
        return {"status": report.conclusion, "open_question_hit": hit}
    return report.conclusion


@_register(
    coin.CLAIM_KEY_LEMMA,
    "the relative sectional number of the k-point configuration projection "
    "is at most k",
    hypotheses="target Hausdorff with at least k points; other instances explored",
)
def _eval_key_lemma(X, Y, g, k, budget):
    return coin.check_key_lemma(X, Y, g, k, budget).conclusion


@_register(
    coin.CLAIM_CP_FPP,
    "CP for (X, Y; g) implies FPP for Y; on failure of FPP the composite of "
    "the fixed-point-free witness with g is a coincidence-free witness",
)
def _eval_cp_implies_fpp(X, Y, g, budget):
    return coin.check_cp_implies_fpp(X, Y, g, budget).conclusion


@_register(
    "sierpinski_boundary",
    "for the Sierpinski space with the identity: CP holds, FPP holds, and the "
    "relative sectional number of the 2-point projection is infinite on both "
    "routes, so the Hausdorff hypothesis of the main equivalence is necessary",
)
def _eval_sierpinski_boundary(S, budget):
    one = identity_map(S)
    _, pi = configuration_space(S, 2)
    return (
        has_cp(S, S, one, budget).holds
        and has_fpp(S, budget).holds
        and not relative_sec(pi, one, route="pullback", budget=budget).value.is_finite
        and not relative_sec(pi, one, route="lift", budget=budget).value.is_finite
    )


@_register(
    "fpp_iff_cp_identity",
    "a space has FPP exactly when (X, X; identity) has CP",
)
def _eval_fpp_iff_cp_identity(X, budget):
    # has_fpp is has_cp of the identity, so the FPP side is decided on its
    # own: X has FPP when every continuous self-map fixes a point
    fixed_point_free = any(all(y != x for x, y in enumerate(f.assignment))
                           for f in enumerate_maps(X, X, budget))
    return (not fixed_point_free) == has_fpp(X, budget).holds


@_register(
    "cp_target_restriction",
    "when g lands in a proper open subset A and CP holds into A, any "
    "coincidence-free map into the full target must leave A",
    hypotheses="g factors through a proper open subset and CP holds into it",
)
def _eval_cp_target_restriction(X, Y, g, budget):
    image = g.image_mask()
    hull = 0
    for y in range(Y.n):
        if (image >> y) & 1:
            hull |= Y.reach_rows[y]
    if hull == Y.full_mask:
        return HNM
    sub, incl = subspace_of_mask(Y, hull)
    index_of = {p: i for i, p in enumerate(incl.assignment)}
    g_in = CMap(X, sub, [index_of[g(x)] for x in range(X.n)], validate=False)
    cp_in = has_cp(X, sub, g_in, budget)
    cp_out = has_cp(X, Y, g, budget)
    if not cp_in.holds or cp_out.holds:
        return HNM
    return (cp_out.witness.image_mask() & ~hull) != 0


@_register(
    "contractible_core_vs_fence",
    "core reduction and fence search from the identity to a constant agree "
    "on contractibility",
)
def _eval_contractible_core_vs_fence(X, budget):
    return is_contractible(X) == (nullhomotopy_target(identity_map(X), budget) is not None)


@_register(
    "cat_core_invariance",
    "the category of a space equals the category of its core",
)
def _eval_cat_core_invariance(X, budget):
    return cat(X, budget).value == cat(core(X).space, budget).value


@_register(
    "cat1_iff_contractible",
    "category 1 is equivalent to contractibility",
    hypotheses="nonempty space",
)
def _eval_cat1_iff_contractible(X, budget):
    if X.n == 0:
        return HNM
    return (cat(X, budget).value == ExtNat(1)) == is_contractible(X)


@_register(
    "homotopic_matches_direct_components",
    "the core-compressed homotopy decision agrees with components of the "
    "uncompressed comparability graph on the full map set",
)
def _eval_homotopic_matches_direct(A, B, budget):
    maps = list(enumerate_maps(A, B, budget=budget))
    component_of: dict[tuple, int] = {}
    for m in maps:
        if m.assignment in component_of:
            continue
        label = len(component_of)
        _, parents = _component_bfs(A, B, m.assignment, budget)
        for t in parents:
            component_of[t] = label
    for f in maps:
        for g in maps:
            expected = component_of[f.assignment] == component_of[g.assignment]
            if homotopic(f, g, budget) != expected:
                return False
    return True


@_register(
    "fences_revalidate",
    "every fence produced as a homotopy witness revalidates step by step",
)
def _eval_fences_revalidate(f, g, budget):
    if not homotopic(f, g, budget):
        return HNM
    fence = homotopy_fence(f, g, budget)
    if fence is None:
        return False
    Fence(tuple(fence.steps))  # revalidates comparability
    for step in fence.steps:
        CMap(step.source, step.target, step.assignment, validate=True)
    return fence.steps[0] == f and fence.steps[-1] == g


@_register(
    "finspace_invariants",
    "minimal opens are least opens containing their point; opens are closed "
    "under union and intersection; Hausdorff is equivalent to all singletons "
    "open; enumerated maps compose and revalidate",
)
def _eval_finspace_invariants(X, budget):
    masks = set(iter_open_masks(X, budget))
    for x in range(X.n):
        u = minimal_open(X, x)
        if u.mask not in masks or not (u.mask >> x) & 1:
            return False
        for m in masks:
            if (m >> x) & 1 and u.mask & ~m:
                return False
    for m1 in masks:
        for m2 in masks:
            if (m1 | m2) not in masks or (m1 & m2) not in masks:
                return False
    singleton_open = all((1 << x) in masks for x in range(X.n))
    if is_hausdorff(X) != singleton_open:
        return False
    self_maps = list(enumerate_maps(X, X, budget=budget))
    for f in self_maps:
        for g in self_maps:
            composed = compose(f, g)
            CMap(X, X, composed.assignment, validate=True)
    return True


@_register(
    "config_matches_offdiagonal_subspace",
    "the 2-point configuration space equals the off-diagonal subspace of the "
    "square, point for point",
)
def _eval_config_matches_offdiagonal(X, budget):
    conf, _ = configuration_space(X, 2)
    square, _, _ = product(X, X)
    off = [i for i in range(square.n) if i // X.n != i % X.n]
    sub, _ = subspace(square, off)
    return conf == sub


@_register(
    "pullback_along_identity_iso",
    "pulling back along the identity returns a space isomorphic to the total "
    "space",
)
def _eval_pullback_identity_iso(p, budget):
    P, _, _ = pullback(p, identity_map(p.target))
    return canonical_form(P) == canonical_form(p.source)


@_register(
    "census_counts",
    "census sizes match the known counts of finite spaces and posets up to "
    "isomorphism, and emitted spaces are pairwise non-isomorphic",
)
def _eval_census_counts(n, posets_only, expected, budget):
    spaces = census_spaces(n, posets_only)
    if len(spaces) != expected:
        return False
    keys = set()
    for X in spaces:
        FinSpace(X.reach_rows, validate=True)
        keys.add(canonical_form(X))
    return len(keys) == len(spaces)


@_register(
    "pullback_secat_strict_drop",
    "some canonical pullback strictly drops the sectional category while the "
    "sectional number obeys its monotonicity",
)
def _eval_pullback_secat_strict_drop(max_points, budget):
    for Y in census_up_to(max_points):
        if Y.n < 2:
            continue
        pt = make_space(1, [])
        for y0 in range(Y.n):
            p = constant_map(pt, Y, y0)
            upstairs = secat(p, budget).value
            for y1 in range(Y.n):
                g = constant_map(pt, Y, y1)
                if relative_secat(p, g, budget).value < upstairs:
                    return (relative_sec(p, g, route="pullback", budget=budget).value
                            <= sec(p, budget).value)
    return False  # no strict drop in the census


@_register(
    "composition_chain",
    "rel-sec of the outer map <= rel-sec of the composite <= rel-sec of the "
    "outer map times sec of the inner map",
)
def _eval_composition_chain(p1, p2, g, budget):
    outer = relative_sec(p2, g, budget=budget).value
    composite = relative_sec(compose(p2, p1), g, budget=budget).value
    inner = sec(p1, budget).value
    return outer <= composite and composite <= outer * inner


def _with_identity_factor(Z: FinSpace, f: CMap) -> CMap:
    ZX, _, _ = product(Z, f.source)
    ZY, _, _ = product(Z, f.target)
    src_n, tgt_n = f.source.n, f.target.n
    assignment = [(i // src_n) * tgt_n + f(i % src_n) for i in range(ZX.n)]
    return CMap(ZX, ZY, assignment, validate=False)


def _eval_product_equality(Z, f, budget, category):
    invariant = secat if category else sec  # read per call, so a tracer's wrapper sees it
    if Z.n == 0:
        return HNM
    return invariant(_with_identity_factor(Z, f), budget).value == invariant(f, budget).value


_register(
    "product_sec_equality",
    "crossing with an identity preserves the sectional number",
    hypotheses="identity factor space nonempty",
)(partial(_eval_product_equality, category=False))
_register(
    "product_secat_equality",
    "crossing with an identity preserves the sectional category",
    hypotheses="identity factor space nonempty",
)(partial(_eval_product_equality, category=True))


def _eval_square_rule(phi, f, f_prime, psi, budget, category):
    invariant = secat if category else sec
    lhs = invariant(f, budget).value * invariant(psi, budget).value
    return lhs >= invariant(f_prime, budget).value


_register(
    "square_rule_sec",
    "in a strictly commuting square, sec(left) * sec(bottom) >= sec(right)",
)(partial(_eval_square_rule, category=False))
_register(
    "square_rule_secat",
    "in a strictly commuting square, secat(left) * secat(bottom) >= secat(right)",
)(partial(_eval_square_rule, category=True))
_register(
    "square_rule_secat_homotopy",
    "in a homotopy-commuting square, secat(left) * secat(bottom) >= secat(right)",
)(partial(_eval_square_rule, category=True))


@_register(
    "triangle_sec_monotone",
    "factoring f' = f o h forces sec(f') >= sec(f) and secat(f') >= secat(f)",
)
def _eval_triangle_monotone(f, h, budget):
    f_prime = compose(f, h)
    return (sec(f_prime, budget).value >= sec(f, budget).value
            and secat(f_prime, budget).value >= secat(f, budget).value)


@_register(
    "triangle_secat_homotopy",
    "f' homotopic to f o h forces secat(f') >= secat(f)",
)
def _eval_triangle_secat_homotopy(f, h, f_prime, budget):
    return secat(f_prime, budget).value >= secat(f, budget).value


@_register(
    "secat_le_sec",
    "sectional category never exceeds the sectional number",
)
def _eval_secat_le_sec(f, budget):
    return secat(f, budget).value <= sec(f, budget).value


@_register(
    "secat_le_cat_target",
    "sectional category is bounded by the category of the target",
    hypotheses=(
        "source nonempty and target connected (the classical standing "
        "conventions; falsifiable otherwise on finite instances)"
    ),
)
def _eval_secat_le_cat_target(f, budget):
    if f.source.n == 0 or not is_connected(f.target):
        return HNM
    return secat(f, budget).value <= cat(f.target, budget).value


@_register(
    "nullhomotopic_secat_eq_cat",
    "a nullhomotopic map has sectional category equal to the category of its "
    "target",
    hypotheses="map nullhomotopic, source nonempty, target connected",
)
def _eval_nullhomotopic_secat_eq_cat(f, budget):
    if f.source.n == 0 or not is_connected(f.target):
        return HNM
    if nullhomotopy_target(f, budget) is None:
        return HNM
    return secat(f, budget).value == cat(f.target, budget).value


@_register(
    "relative_sec_le_sec",
    "the relative sectional number never exceeds the plain one",
)
def _eval_relative_sec_le_sec(p, g, budget):
    return relative_sec(p, g, budget=budget).value <= sec(p, budget).value


@_register(
    "relative_times_sec_ge_sec",
    "rel-sec of p along g times sec of g bounds sec of p from above",
)
def _eval_relative_times_sec_ge_sec(p, g, budget):
    lhs = relative_sec(p, g, budget=budget).value * sec(g, budget).value
    return lhs >= sec(p, budget).value


@_register(
    "relative_secat_le_cat_base",
    "relative sectional category is bounded by the category of the base",
    hypotheses=(
        "base connected and pullback nonempty (the degenerate empty pullback "
        "falsifies the unrestricted statement)"
    ),
)
def _eval_relative_secat_le_cat_base(p, g, budget):
    X = g.source
    if not is_connected(X) or not g.image_mask() & p.image_mask():
        return HNM  # a disconnected base, or an empty pullback
    return relative_secat(p, g, budget).value <= cat(X, budget).value


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
def _eval_relative_secat_homotopy_invariance(p, g, g_prime, budget):
    if not homotopic(g, g_prime, budget):
        return HNM
    lhs = relative_secat(p, g, budget=budget).value
    rhs = relative_secat(p, g_prime, budget=budget).value
    if lhs == rhs:
        return True
    # the one witness richer than the instance: both values, so that a
    # reader can re-validate the counterexample from the report alone
    return {"status": False, "witness": {
        "p": _map_json(p), "g": _map_json(g), "g_prime": list(g_prime.assignment),
        "secat_g": lhs.to_json(), "secat_g_prime": rhs.to_json(),
    }}


@_register(
    "retraction_relative_sec",
    "relative to a retraction onto an open subspace, the relative sectional "
    "number equals the plain one",
)
def _eval_retraction_relative_sec(r, p, budget):
    return relative_sec(p, r, budget=budget).value == sec(p, budget).value


@_register(
    "route_equivalence",
    "the pullback route and the lifting route compute the same relative "
    "sectional number",
)
def _eval_route_equivalence(p, g, budget):
    try:
        relative_sec(p, g, route="both", budget=budget)
    except SelfCheckFailed:
        return False
    return True


def _eval_tc_bounds(f, g, budget, contractible):
    if is_contractible(f.source) != contractible:
        return HNM
    bounds = relative_tc_bounds(f, g, budget=budget)
    reference = relative_sec(f, g, route="pullback", budget=budget).value
    return (
        bounds.exact == contractible
        and bounds.lower == reference
        and bounds.upper == (reference if contractible else None)
    )


_register(
    "tc_bounds_contractible",
    "with a contractible domain the relative complexity interval is exact and "
    "equals the relative sectional number",
    hypotheses="domain of the work map contractible",
)(partial(_eval_tc_bounds, contractible=True))
_register(
    "tc_bounds_noncontractible",
    "with a non-contractible domain the reported lower bound equals the "
    "relative sectional number and the upper bound is unknown",
)(partial(_eval_tc_bounds, contractible=False))


REGISTRY: tuple[Claim, ...] = tuple(_registered)
CLAIMS_BY_ID = {claim.id: claim for claim in REGISTRY}

_WITNESSED = (VIOLATED, FALSIFIED, INCONCLUSIVE)


def _eval_task(task):
    """The one place that runs an evaluator and writes a status.

    The task's node limit becomes a fresh Budget shared by every search of the
    instance, and coin.status_of spells its conclusion for the claim's kind.
    A search that ran out of nodes makes the instance inconclusive, and every
    violated, falsified or inconclusive outcome without a witness of its own
    has its instance as witness."""
    claim_id, payload, limit = task
    claim = CLAIMS_BY_ID[claim_id]
    try:
        out = claim.evaluate(*payload, Budget(limit))
    except BudgetExhausted:
        out = {"status": INCONCLUSIVE}
    else:
        out = out if isinstance(out, dict) else {"status": out}
        out["status"] = status_of(out["status"], claim.kind)
    if out["status"] in _WITNESSED and "witness" not in out:
        out["witness"] = _payload_json(payload)
    return out


# ---------------------------------------------------------------------------
# instance builders


def _triples(pairs):
    """(X, Y, g) for every map g of every (X, Y) pair, in the pairs' order."""
    return [(X, Y, g) for X, Y in pairs
            for g in enumerate_maps(X, Y, budget=DEFAULT_NODE_BUDGET)]


def _hausdorff_pairs(xs, min_target: int, max_target: int):
    """(X, Y) for every discrete Y of min_target..max_target points, Y outer."""
    for size in range(min_target, max_target + 1):
        Y = make_space(size, [])
        for X in xs:
            yield X, Y


def _build_tasks(cfg: SuiteConfig):
    """Deterministic full task list: [(claim_id, payload, budget_limit), ...]."""
    budget = cfg.node_budget
    tasks: list[tuple] = []

    def add(claim_id, payload):
        tasks.append((claim_id, payload, budget))

    census = census_up_to(cfg.census_max_points, include_empty=True)
    for X, Y, g in _triples(itertools.product(census, census)):
        add(coin.CLAIM_REMARK, (X, Y, g))
        add(coin.CLAIM_CP_FPP, (X, Y, g))
        add("cp_target_restriction", (X, Y, g))
        if not is_hausdorff(Y):
            add(coin.CLAIM_MAIN, (X, Y, g))
            for k in cfg.k_values:
                add(coin.CLAIM_KEY_LEMMA, (X, Y, g, k))
    for X, Y, g in _triples(_hausdorff_pairs(census, 2, cfg.hausdorff_target_max)):
        add(coin.CLAIM_MAIN, (X, Y, g))
    for k in cfg.k_values:
        for X, Y, g in _triples(_hausdorff_pairs(census, k, cfg.key_lemma_target_max)):
            add(coin.CLAIM_KEY_LEMMA, (X, Y, g, k))

    add("sierpinski_boundary", (sierpinski(),))
    add("pullback_secat_strict_drop", (3,))

    for X in census_up_to(min(cfg.census_max_points + 1, 4), include_empty=True):
        add("fpp_iff_cp_identity", (X,))
    for X in census_up_to(cfg.contractibility_census_max):
        add("contractible_core_vs_fence", (X,))
        add("cat_core_invariance", (X,))
        add("cat1_iff_contractible", (X,))
    for X in census:
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
            f = constant_map(Xs, Ys, g._below(Ys.n))
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
    cache_counts: dict | None = None

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

    def sidecar(self) -> dict:
        """The run's wall times, and its cache counts when one process made
        them all; both stay out of the byte-deterministic report."""
        counts = {} if self.cache_counts is None else {"cache_counts": self.cache_counts}
        return {"timings_seconds": self.timings} | counts

    def write(self, path: str) -> None:
        with open(path, "wb") as handle:
            handle.write(self.to_json_bytes())
        sidecar = json.dumps(self.sidecar(), sort_keys=True, indent=2)
        with open(path + ".timings.json", "w", encoding="utf-8") as handle:
            handle.write(sidecar + "\n")


def _census_summary(cfg: SuiteConfig, hits: list[dict]) -> dict:
    spaces_by_size = {}
    fpp_by_size = {}
    for n in range(1, cfg.census_max_points + 1):
        spaces = census_spaces(n)
        spaces_by_size[str(n)] = len(spaces)
        fpp_by_size[str(n)] = sum(1 for X in spaces if has_fpp(X, DEFAULT_NODE_BUDGET).holds)
    return {
        "spaces_by_size": spaces_by_size,
        "fpp_by_size": fpp_by_size,
        "non_hausdorff_cp_with_sec2": {
            "found": bool(hits),
            "witnesses": hits[:_MAX_WITNESSES],
        },
    }


def _share_searches_in_worker() -> None:
    """Pool initializer: a worker shares its searches for its whole life."""
    shared_searches().__enter__()


# read through the functions bound at import, which a tracer may wrap later
_COUNTED_CACHES = (("core", core.cache_info),
                   ("configuration_space", configuration_space.cache_info),
                   ("_bridge_target", _bridge_target.cache_info),
                   ("product", product.cache_info),
                   ("connected_components", connected_components.cache_info),
                   ("_comparable_maps", _comparable_maps.cache_info))


def _cache_counts(tally, before) -> dict:
    """Hits and misses of the shared searches in tally, and of the lru
    caches since the cache_info() readings in before."""
    counts = {name: {"hits": tally[name, "hits"], "misses": tally[name, "misses"]}
              for name in sorted({name for name, _ in tally})}
    for (name, cache_info), start in zip(_COUNTED_CACHES, before):
        info = cache_info()
        counts[name] = {"hits": info.hits - start.hits, "misses": info.misses - start.misses}
    return counts


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    """Evaluate every registered claim; deterministic for a fixed config.

    Instances are generated up front in a fixed order; workers evaluate pure
    functions of their payloads, and results are merged in instance order, so
    the report bytes do not depend on the parallelism degree.  The claim loop
    and the census summary run inside shared_searches(), each pool worker in
    its own, so a repeated sec, secat, cat, has_cp, relative_sec (lift
    route), relative_secat or relsec(pi_{k,1}, g) call replays its first
    answer and node count; a claim's tasks are dropped once it is tallied.
    Only a run without a pool reports its cache counts."""
    total_started = time.perf_counter()
    caches_before = [cache_info() for _, cache_info in _COUNTED_CACHES]
    tasks = _build_tasks(cfg)
    timings: dict[str, float] = {"build_tasks": time.perf_counter() - total_started}
    by_claim: dict[str, list] = {claim.id: [] for claim in REGISTRY}
    for task in tasks:
        by_claim[task[0]].append(task)
    del tasks

    pool = None
    if cfg.parallelism > 1:
        # only a pooled run pays for loading multiprocessing
        import multiprocessing

        pool = multiprocessing.Pool(cfg.parallelism, initializer=_share_searches_in_worker)
    hits: list[dict] = []
    claims = []
    try:
        with shared_searches() as tally:
            for claim in REGISTRY:
                claim_tasks = by_claim.pop(claim.id)
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
                    if status in _WITNESSED and len(witnesses) < _MAX_WITNESSES:
                        witnesses.append({"status": status, "instance": outcome["witness"]})
                    if "open_question_hit" in outcome:
                        hits.append(outcome["open_question_hit"])
                claims.append({
                    "id": claim.id,
                    "statement": claim.statement,
                    "hypotheses": claim.hypotheses,
                    "kind": claim.kind,
                    "instances": len(claim_tasks),
                    "tallies": tallies,
                    "witnesses": witnesses,
                })
            timings["total"] = time.perf_counter() - total_started
            census_summary = _census_summary(cfg, hits)
    finally:
        if pool is not None:
            pool.close()
            pool.join()

    report = SuiteReport(
        config=cfg,
        claims=claims,
        census_summary=census_summary,
        timings=timings,
        cache_counts=_cache_counts(tally, caches_before) if pool is None else None,
    )
    if cfg.out:
        report.write(cfg.out)
    return report
