"""Extended naturals: the codomain of every covering invariant.

A qualifying open cover may fail to exist on finite instances (for example a
projection out of an empty configuration space), so the invariants take values
in {1, 2, ...} plus Infinite.  Comparison is total and multiplication is
absorbing in Infinite.
"""

from __future__ import annotations

import functools


@functools.total_ordering
class ExtNat:
    """A natural number >= 1 or Infinite."""

    __slots__ = ("n",)

    def __init__(self, n: int | None):
        if n is not None:
            if not isinstance(n, int) or isinstance(n, bool):
                raise TypeError(f"finite value must be an int, got {n!r}")
            if n < 1:
                raise ValueError(f"finite value must be >= 1, got {n}")
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("ExtNat is immutable")

    @property
    def is_finite(self) -> bool:
        return self.n is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtNat):
            return NotImplemented
        return self.n == other.n

    def __lt__(self, other) -> bool:
        if not isinstance(other, ExtNat):
            return NotImplemented
        if self.n is None:
            return False
        if other.n is None:
            return True
        return self.n < other.n

    def __hash__(self) -> int:
        return hash(("ExtNat", self.n))

    def __mul__(self, other: "ExtNat") -> "ExtNat":
        if not isinstance(other, ExtNat):
            return NotImplemented
        if self.n is None or other.n is None:
            return INF
        return ExtNat(self.n * other.n)

    def __repr__(self) -> str:
        return "ExtNat(infinite)" if self.n is None else f"ExtNat({self.n})"

    def __str__(self) -> str:
        return "infinite" if self.n is None else str(self.n)

    def to_json(self):
        return "infinite" if self.n is None else self.n

    @staticmethod
    def from_json(value) -> "ExtNat":
        if value == "infinite":
            return INF
        return ExtNat(int(value))


INF = ExtNat(None)
