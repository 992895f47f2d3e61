"""Growth functions: total, non-decreasing, unbounded maps on the naturals.

A growth function is stored as a finite prefix table followed by an affine
tail ``n -> (a*n + b) // c`` with a >= 1, which keeps it unbounded while the
whole object stays finitely described.  These carry the thresholds and tail
bounds used by randomness tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

from .errors import DomainError
from .numerals import collection, integer


@dataclass(frozen=True)
class GrowthFunction:
    prefix: tuple[int, ...] = ()
    a: int = 1
    b: int = 0
    c: int = 1

    def __post_init__(self):
        collection(self.prefix, "a growth prefix is a collection of integers")
        object.__setattr__(self, "prefix", tuple(self.prefix))
        values = (*self.prefix, self.a, self.b, self.c)  # a bool among them would be written 'True'
        if bad := [v for v in values if isinstance(v, bool) or not isinstance(v, Integral)]:
            raise DomainError(f"growth function values must be integers, got {bad[0]!r}")
        # stored as ints, so that every value and cutoff computed from them is an int
        object.__setattr__(self, "prefix", tuple(map(int, self.prefix)))
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.a < 1 or self.b < 0 or self.c < 1:
            raise DomainError("affine tail needs a >= 1, b >= 0, c >= 1")
        if any(v < 0 for v in self.prefix):
            raise DomainError("growth values must be natural numbers")
        if any(x > y for x, y in zip(self.prefix, self.prefix[1:])):
            raise DomainError("growth prefix must be non-decreasing")
        if self.prefix and self.prefix[-1] > self._tail(len(self.prefix)):
            raise DomainError("affine tail drops below the prefix table")

    def _tail(self, n: int) -> int:
        return (self.a * n + self.b) // self.c

    def __call__(self, n: int) -> int:
        if (n := integer(n, "n")) < 0:
            raise DomainError("growth functions are defined on the naturals")
        if n < len(self.prefix):
            return self.prefix[n]
        return self._tail(n)

    def first_at_least(self, value: int) -> int:
        """Smallest n with g(n) >= value."""
        value = integer(value, "value")
        for n, v in enumerate(self.prefix):
            if v >= value:
                return n
        # a*n + b >= c*value is the first tail index reaching the target
        return max(len(self.prefix), -(-(self.c * value - self.b) // self.a))

    def last_at_most(self, bound: int) -> int:
        """Largest n with g(n) <= bound, or -1 when even g(0) exceeds it."""
        bound, tail_start = integer(bound, "bound"), len(self.prefix)
        if self(0) > bound:
            return -1
        # largest tail index with (a*n + b) // c <= bound
        n_tail = (self.c * (bound + 1) - 1 - self.b) // self.a
        if n_tail >= tail_start:
            return n_tail
        last = tail_start - 1
        while self.prefix[last] > bound:
            last -= 1
        return last

    def precompose_affine(self, m: int, k: int) -> "GrowthFunction":
        """The growth function n -> g(m*n + k) for m >= 1, k >= 0."""
        m, k = integer(m, "m"), integer(k, "k")
        if m < 1 or k < 0:
            raise DomainError("precompose needs m >= 1, k >= 0")
        head = max(0, -(-(len(self.prefix) - k) // m))
        values = tuple(self(m * n + k) for n in range(head))
        return GrowthFunction(values, self.a * m, self.a * k + self.b, self.c)


def affine(a: int, b: int = 0, c: int = 1) -> GrowthFunction:
    return GrowthFunction((), a, b, c)
