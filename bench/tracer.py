"""Spans and counters recorded around secnum's entry points, from outside it.

The tracer replaces each traced function under every name its callers look it
up by (a module that did `from .finspace import iter_assignments` holds its own
reference, so that name is patched too), records a span per call and restores
the originals on uninstall.  A span is (name, start, end, parent); the self
time of a span is its duration minus the part its child spans cover.

iter_assignments is a generator whose work interleaves with its consumer, so it
is not a span: the time spent inside each next() is added to its busy time and
counted as child time of whichever span is open at that moment.

Spans live in flat arrays so that a traced suite run (a few hundred thousand
spans) stays small in memory.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

from secnum.resources import Budget

# span name -> (module, function) for the plain function entry points; the
# InstanceGenerator methods, the theorem checkers, canonical_form, core and
# iter_assignments are wrapped separately in Tracer.install
SPANS = {
    "census.census_spaces": ("census", "census_spaces"),
    "finspace.configuration_space": ("finspace", "configuration_space"),
    "finspace.subspace": ("finspace", "subspace"),
    "finspace.pullback": ("finspace", "pullback"),
    "cover.open_scan": ("cover", "find_maximal_good_opens"),
    "cover.exact_min_cover": ("cover", "exact_min_cover"),
    "homotopy.core_miss": ("homotopy", "_compute_core"),
    "homotopy.fence_bfs": ("homotopy", "_component_bfs"),
    "homotopy.cat": ("homotopy", "cat"),
    "sectional.sec": ("sectional", "sec"),
    "sectional.secat": ("sectional", "secat"),
    "sectional.relative_sec": ("sectional", "relative_sec"),
    "sectional.relative_secat": ("sectional", "relative_secat"),
    "coincidence.has_cp": ("coincidence", "has_cp"),
    "suite.build_tasks": ("suite", "_build_tasks"),
    "suite.census_summary": ("suite", "_census_summary"),
}

CHECKERS = ("check_remark", "check_key_lemma", "check_main_theorem", "check_cp_implies_fpp")
GENERATOR_METHODS = (
    "space", "hausdorff_space", "contractible_space", "noncontractible_space", "cmap",
    "homotopic_neighbor", "open_mask", "retraction", "triple", "square",
)


def _secnum_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "secnum" or name.startswith("secnum.")]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.clock = time.perf_counter
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.child = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.iter_busy_s = 0.0
        self.config_args: set = set()
        self.budgets: list = []
        self._undo: list = []
        self._caches: dict = {}

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.child.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        now = self.clock()
        self.end[idx] = now
        self.stack.pop()
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += now - self.start[idx]

    def add_child_time(self, seconds: float) -> None:
        if self.stack:
            self.child[self.stack[-1]] += seconds

    def spanned(self, name: str, fn, on_result=None, budget_at=None, arg_hook=None):
        """fn wrapped in a span; budget_at names the budget argument's
        position, whose node delta is added to '<name>.nodes'."""
        tracer = self

        def wrapper(*args, **kwargs):
            if arg_hook is not None:
                args, kwargs = arg_hook(args, kwargs)
            budget = None
            if budget_at is not None:
                args, kwargs, budget = _ensure_budget(args, kwargs, budget_at)
                before = budget.remaining
            tracer.counts[name + ".calls"] += 1
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if budget is not None:
                    tracer.counts[name + ".nodes"] += before - budget.remaining
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- derived figures -----------------------------------------------------

    def self_times(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        names = self.span_names
        for i in range(len(self.start)):
            name = names[self.name_id[i]]
            totals[name] = totals.get(name, 0.0) + (self.end[i] - self.start[i] - self.child[i])
        return totals

    def total_times(self, name: str) -> float:
        nid = self._name_ids.get(name)
        return sum(self.end[i] - self.start[i] for i in range(len(self.start))
                   if self.name_id[i] == nid)

    def spans_named(self, name: str) -> list[int]:
        nid = self._name_ids.get(name)
        return [i for i in range(len(self.start)) if self.name_id[i] == nid]

    def check_spans(self) -> dict[str, int]:
        """Counts of structural defects: a span outside its parent's interval,
        a span never closed, a negative self time."""
        outside = unclosed = negative = 0
        slack = 1e-9
        for i in range(len(self.start)):
            if self.end[i] < self.start[i]:
                unclosed += 1
                continue
            if self.end[i] - self.start[i] - self.child[i] < -slack:
                negative += 1
            p = self.parent[i]
            if p >= 0 and (self.start[i] < self.start[p] or self.end[i] > self.end[p] + slack):
                outside += 1
        return {"outside_parent": outside, "unclosed": unclosed, "negative_self": negative}

    # -- patching --------------------------------------------------------------

    def replace(self, original, wrapper) -> None:
        """Point every secnum module attribute bound to original at wrapper."""
        for module in _secnum_modules():
            for attr in [a for a, v in vars(module).items() if v is original]:
                setattr(module, attr, wrapper)
                self._undo.append((module, attr, original))

    def replace_attr(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap the entry points of every layer."""
        from secnum import census, coincidence, cover, finspace, homotopy, resources
        from secnum import sectional, suite

        modules = {
            "census": census, "finspace": finspace, "cover": cover, "homotopy": homotopy,
            "sectional": sectional, "coincidence": coincidence, "suite": suite,
        }
        hooks = {
            "finspace.configuration_space": dict(arg_hook=self._note_config_args),
            "cover.open_scan": dict(arg_hook=self._wrap_is_good),
            "cover.exact_min_cover": dict(budget_at=2),
            "homotopy.fence_bfs": dict(budget_at=3, on_result=self._note_bfs),
            "coincidence.has_cp": dict(budget_at=3),
            "suite.build_tasks": dict(on_result=self._note_tasks),
        }
        self._caches["census"] = (census.census_spaces, census.census_spaces.cache_info())
        self._caches["core"] = (homotopy.core, homotopy.core.cache_info())
        for name, (layer, func) in SPANS.items():
            original = getattr(modules[layer], func)
            self.replace(original, self.spanned(name, original, **hooks.get(name, {})))

        original = census.canonical_form
        self.replace(original, self._counted("census.canonical_form.calls", original))
        for method in GENERATOR_METHODS:
            fn = census.InstanceGenerator.__dict__[method]
            self.replace_attr(census.InstanceGenerator, method, self.spanned("census.generator", fn))
        for checker in CHECKERS:
            original = getattr(coincidence, checker)
            self.replace(original, self.spanned("coincidence.check", original))
        original = homotopy.core
        self.replace(original, self._counted("homotopy.core.calls", original))
        original = finspace.iter_assignments
        self.replace(original, self._busy_generator(original))

        init = resources.Budget.__init__
        budgets = self.budgets

        def registering_init(budget, *args, **kwargs):
            init(budget, *args, **kwargs)
            budgets.append(budget)

        self.replace_attr(resources.Budget, "__init__", registering_init)

    def hit_ratio(self, key: str) -> float:
        """Share of calls since install answered by the lru_cache of key."""
        fn, base = self._caches[key]
        info = fn.cache_info()
        hits, misses = info.hits - base.hits, info.misses - base.misses
        return hits / (hits + misses) if hits + misses else 0.0

    def nodes_total(self) -> int:
        return sum(b.limit - b.remaining for b in self.budgets)

    # -- hooks -------------------------------------------------------------

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _note_config_args(self, args, kwargs):
        space = args[0] if args else kwargs["space"]
        k = args[1] if len(args) > 1 else kwargs["k"]
        self.config_args.add((space, k))
        return args, kwargs

    def _wrap_is_good(self, args, kwargs):
        is_good = args[1] if len(args) > 1 else kwargs.pop("is_good")
        tracer = self

        def traced_is_good(mask):
            tracer.counts["cover.good_open.candidates"] += 1
            idx = tracer.open("cover.good_open")
            try:
                witness = is_good(mask)
            finally:
                tracer.close(idx)
            if witness is not None:
                tracer.counts["cover.good_open.accepted"] += 1
            return witness

        return (args[0], traced_is_good) + tuple(args[2:]), kwargs

    def _note_bfs(self, result):
        self.counts["homotopy.fence_bfs.maps_visited"] += len(result[1])

    def _note_tasks(self, tasks):
        self.counts["suite.tasks"] += len(tasks)

    def _busy_generator(self, fn):
        tracer = self

        def traced(source, target, domains, budget, *args, **kwargs):
            tracer.counts["finspace.iter_assignments.calls"] += 1
            return tracer._timed_steps(fn(source, target, domains, budget, *args, **kwargs), budget)

        traced.__wrapped__ = fn
        return traced

    def _timed_steps(self, gen, budget):
        counts, clock = self.counts, self.clock
        while True:
            before = budget.remaining
            started = clock()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                spent = clock() - started
                self.iter_busy_s += spent
                counts["finspace.iter_assignments.nodes"] += before - budget.remaining
                self.add_child_time(spent)
            counts["finspace.iter_assignments.yields"] += 1
            yield item


def _ensure_budget(args, kwargs, index):
    """Replace a None/int budget argument by the Budget the callee would build
    with Budget.ensure, so its node delta can be read afterwards."""
    if len(args) > index:
        budget = Budget.ensure(args[index])
        args = args[:index] + (budget,) + args[index + 1:]
    else:
        budget = Budget.ensure(kwargs.get("budget"))
        kwargs = dict(kwargs, budget=budget)
    return args, kwargs, budget


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced run, keyed by their benchmark names.
    Layers the workload never reached report zeros."""
    selfs = tracer.self_times()
    counts = tracer.counts
    out = {
        "census.census_spaces.hit_ratio": tracer.hit_ratio("census"),
        "census.canonical_form.calls": counts["census.canonical_form.calls"],
        "census.generator.self_s": selfs.get("census.generator", 0.0),
        "finspace.configuration_space.distinct": len(tracer.config_args),
        "finspace.iter_assignments.calls": counts["finspace.iter_assignments.calls"],
        "finspace.iter_assignments.busy_s": tracer.iter_busy_s,
        "finspace.iter_assignments.nodes": counts["finspace.iter_assignments.nodes"],
        "finspace.iter_assignments.yield_ratio": _ratio(
            counts["finspace.iter_assignments.yields"], counts["finspace.iter_assignments.nodes"]),
        "cover.good_open.candidates": counts["cover.good_open.candidates"],
        "cover.good_open.accept_ratio": _ratio(
            counts["cover.good_open.accepted"], counts["cover.good_open.candidates"]),
        "homotopy.core.calls": counts["homotopy.core.calls"],
        "homotopy.core.hit_ratio": tracer.hit_ratio("core"),
        "homotopy.core.miss_s": tracer.total_times("homotopy.core_miss"),
        "homotopy.fence_bfs.maps_visited": counts["homotopy.fence_bfs.maps_visited"],
        "resources.nodes_total": tracer.nodes_total(),
    }
    for name in ("census.census_spaces", "finspace.configuration_space", "finspace.subspace",
                 "finspace.pullback", "cover.exact_min_cover", "homotopy.fence_bfs",
                 "homotopy.cat", "sectional.sec", "sectional.secat", "sectional.relative_sec",
                 "sectional.relative_secat", "coincidence.has_cp", "coincidence.check"):
        out[name + ".calls"] = counts[name + ".calls"]
        out[name + ".self_s"] = selfs.get(name, 0.0)
    for name in ("cover.exact_min_cover", "homotopy.fence_bfs", "coincidence.has_cp"):
        out[name + ".nodes"] = counts[name + ".nodes"]
    out["cover.open_scan.self_s"] = selfs.get("cover.open_scan", 0.0)
    return out


def suite_phases(tracer: Tracer, started: float, ended: float) -> dict[str, float]:
    """Split one traced run_suite call into census, task building, claim loop
    and census summary.  The census runs inside the other phases and is
    subtracted from them; whatever the four phases leave of the whole call
    is reported as unaccounted."""
    (build,) = tracer.spans_named("suite.build_tasks")
    (summary,) = tracer.spans_named("suite.census_summary")
    phase_of = {build: "build", summary: "summary"}
    census_in: Counter = Counter()
    for i in tracer.spans_named("census.census_spaces"):
        node = tracer.parent[i]
        while node >= 0 and node not in phase_of:
            node = tracer.parent[node]
        census_in[phase_of.get(node, "loop")] += tracer.end[i] - tracer.start[i]
    start, end = tracer.start, tracer.end
    phases = {
        "suite.census_s": sum(census_in.values()),
        "suite.build_tasks_s": end[build] - start[build] - census_in["build"],
        "suite.claim_loop_s": start[summary] - end[build] - census_in["loop"],
        "suite.census_summary_s": end[summary] - start[summary] - census_in["summary"],
    }
    phases["suite.unaccounted_s"] = (ended - started) - sum(phases.values())
    phases["suite.tasks"] = tracer.counts["suite.tasks"]
    return phases
