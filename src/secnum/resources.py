"""Node budgets and size limits shared by all search routines."""

from __future__ import annotations

import os

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
        if nodes <= 0:
            raise ValueError("budget must be positive")
        self.limit = nodes
        self.remaining = nodes

    def charge(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetExhausted(f"node budget of {self.limit} exhausted")

    @staticmethod
    def ensure(budget: "Budget | int | None") -> "Budget":
        if budget is None:
            return Budget()
        if isinstance(budget, int):
            return Budget(budget)
        return budget


PRODUCT_MAX_POINTS = 4096


def check_product(size: int) -> None:
    if size > PRODUCT_MAX_POINTS:
        # str() refuses an int of more than 4,300 digits; name a power of 2 instead
        shown = size if size.bit_length() <= 4096 else f"at least 2**{size.bit_length() - 1}"
        raise LimitExceeded(
            f"construction would have {shown} points; cap is {PRODUCT_MAX_POINTS}"
        )
