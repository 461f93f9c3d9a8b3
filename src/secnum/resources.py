"""Node budgets and size limits shared by all search routines, and the
run-scoped memo of finished searches.

Inside shared_searches(), seven entry points look themselves up with
shared_search before searching: sec, secat, cat, has_cp, relative_sec (its
lift route), relative_secat (before it builds its pullback) and
coincidence._relative_sec_of_projection (relsec(pi_{k,1}^Y, g), keeping only
its value).  A repeated call returns the first call's result and replays its
node count on the caller's budget (Budget.replay), so a hit spends, and runs
out, exactly as the search would.  Outside the block no memo exists and every
call searches.
"""

from __future__ import annotations

import os
from collections import Counter

DEFAULT_NODE_BUDGET = 10_000_000
BUDGET_ENV_VAR = "SECNUM_BUDGET"


class BudgetExhausted(RuntimeError):
    """A search ran out of nodes; the result is inconclusive, never 'none exists'."""


class LimitExceeded(RuntimeError):
    """An instance is larger than a construction or census cap."""


class SelfCheckFailed(AssertionError):
    """An independent re-check disagreed with a search result; this always signals a bug."""


def default_node_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_NODE_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
    return value


class Budget:
    """Mutable node counter; charge() raises BudgetExhausted when spent."""

    __slots__ = ("limit", "remaining")

    def __init__(self, nodes: int | None = None):
        if nodes is None:
            nodes = default_node_budget()
        elif isinstance(nodes, bool) or not isinstance(nodes, int):
            raise TypeError(f"budget must be an int node count, not a {type(nodes).__name__}")
        if nodes <= 0:
            raise ValueError("budget must be positive")
        self.limit = nodes
        self.remaining = nodes

    def charge(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetExhausted(f"node budget of {self.limit} exhausted")

    def replay(self, nodes: int) -> None:
        """Charge nodes at once, as a search that charged them one by one
        would: with fewer left, the budget ends at -1 and raises."""
        if nodes > self.remaining:
            self.remaining = -1
            raise BudgetExhausted(f"node budget of {self.limit} exhausted")
        self.remaining -= nodes

    @staticmethod
    def ensure(budget: "Budget | int | None") -> "Budget":
        """budget itself, or a fresh Budget of that many nodes (the default
        for None); anything else raises TypeError at the call."""
        if isinstance(budget, Budget):
            return budget
        return Budget(budget)


# (memo, tally) of the open shared_searches block, or None outside one
_shared: tuple[dict, Counter] | None = None


class shared_searches:
    """Context manager that shares finished searches among the calls made
    inside it and yields their tally: (entry point, 'hits' or 'misses') ->
    count.  Each block starts empty, and the state before it comes back on
    exit.  A search that raises is never kept."""

    def __enter__(self) -> Counter:
        global _shared
        self._outer = _shared
        _shared = ({}, Counter())
        return _shared[1]

    def __exit__(self, *exc_info) -> None:
        global _shared
        _shared = self._outer


def shared_search(key: tuple, budget: Budget, search):
    """search(), or inside shared_searches() the result of the first finished
    call with this key, whose node count is replayed on budget.  key[0]
    names the entry point in the tally."""
    shared = _shared
    if shared is None:
        return search()
    memo, tally = shared
    found = memo.get(key)
    if found is not None:
        tally[key[0], "hits"] += 1
        result, nodes = found
        budget.replay(nodes)
        return result
    tally[key[0], "misses"] += 1
    before = budget.remaining
    result = search()
    memo[key] = (result, before - budget.remaining)
    return result


PRODUCT_MAX_POINTS = 4096


def check_product(size: int) -> None:
    if size > PRODUCT_MAX_POINTS:
        # str() refuses an int of more than 4,300 digits; name a power of 2 instead
        shown = size if size.bit_length() <= 4096 else f"at least 2**{size.bit_length() - 1}"
        raise LimitExceeded(
            f"construction would have {shown} points; cap is {PRODUCT_MAX_POINTS}"
        )
