"""Exact finite-set arithmetic over signed integers of any magnitude.

An IntSet is an immutable, strictly increasing tuple of Python ints, so
every operation is a pure function and values are safe to share.  Nothing
here knows about the staged construction; this is the arithmetic kernel
the rest of the package is built on.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Container, Iterable, Iterator

from .digits import quote
from .record import Record


class IntSet(Record):
    """Finite set of integers stored as a strictly increasing tuple."""

    __match_args__ = ("elements",)

    def __init__(self, elements: tuple[int, ...] = ()) -> None:
        els = elements if isinstance(elements, tuple) else tuple(elements)
        _check_increasing(zip(els, els[1:]))
        self._set(els)

    @classmethod
    def of(cls, values: Iterable[int]) -> "IntSet":
        """Build from any iterable, sorting and deduplicating."""
        return cls(tuple(sorted(set(values))))

    def with_ends(self, low: int, high: int) -> "IntSet":
        """This set with `low` below its least element and `high` above its greatest.

        Only the two new elements are compared, and a misplaced one raises the
        constructor's error for the first pair out of order.
        """
        els = self.elements
        _check_increasing(((low, els[0]), (els[-1], high)) if els else ((low, high),))
        widened = object.__new__(IntSet)
        widened._set((low,) + els + (high,))
        return widened

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __bool__(self) -> bool:
        return bool(self.elements)

    def __contains__(self, value: int) -> bool:
        i = bisect_left(self.elements, value)
        return i < len(self.elements) and self.elements[i] == value

    def self_sumset(self) -> "IntSet":
        """All pairwise sums {a + a' : a <= a' in self}."""
        els = self.elements
        return IntSet.of(a + b for i, a in enumerate(els) for b in els[i:])

    def rep_count(self, n: int) -> int:
        """Number of pairs a <= a' from the set with a + a' = n."""
        count = 0
        for a in self.elements:
            if 2 * a > n:
                break
            if (n - a) in self:
                count += 1
        return count

    def counting(self, lo: int, hi: int) -> int:
        """Number of elements in the closed interval [lo, hi]."""
        if lo > hi:
            raise ValueError(f"invalid range: lo={quote(lo)} exceeds hi={quote(hi)}")
        return bisect_right(self.elements, hi) - bisect_left(self.elements, lo)

    def max_abs(self) -> int:
        """Largest absolute value present.  Undefined (raises) on the empty set."""
        if not self.elements:
            raise ValueError("max_abs is undefined for the empty set")
        return max(-self.elements[0], self.elements[-1])


def _check_increasing(pairs: Iterable[tuple[int, int]]) -> None:
    for prev, cur in pairs:
        if prev >= cur:
            raise ValueError(f"elements must be strictly increasing: {quote(prev)} then {quote(cur)}")


def min_abs_missing(sums: Container[int], start: int = 1) -> tuple[int, bool]:
    """Smallest b >= start such that b or -b is absent from `sums`.

    Returns (b, positive_missing); positive_missing is True exactly when +b
    is absent, which is also the tie-break when both signs are absent.
    `sums` is any container supporting `in`, such as an IntSet or a set,
    holding the pairwise sums of a set containing 0.
    The scan starts at `start` (at least 1) and assumes, without checking,
    that every b below it is present with both signs; a caller whose sums
    only grow can therefore resume from the previous answer.  It
    terminates because the set is finite.
    """
    if start < 1:
        raise ValueError(f"start must be >= 1, got {quote(start)}")
    b = start
    while b in sums and -b in sums:
        b += 1
    return b, b not in sums
