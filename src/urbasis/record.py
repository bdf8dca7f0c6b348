"""Immutable value records, the base of every record class in the package.

A record class names its fields in `__match_args__`, and its `__init__`
checks its arguments and stores them once with `_set`.  From that tuple
alone a record has what a frozen dataclass has: equality only with a record
of the same class and equal fields, the hash of the field tuple, the
`Name(field=value, ...)` repr, AttributeError on assignment, and
`__replace__`, the protocol of `copy.replace` on Python 3.13.  Pickling and
copying restore the fields without calling `__init__`.  No method is made
when a class is defined, so defining a record costs no more than defining
a class.

The trace records `ConstructionStep` and `BasisTrace` live here too, so a
command that only reads a trace never loads the builder that makes them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .digits import quote

if TYPE_CHECKING:
    from .intset import IntSet


class Record:
    __match_args__: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        self.__dict__.update(zip(self.__match_args__, values, strict=True))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __replace__(self, **changes):
        """A copy with the given fields changed, made and checked by the constructor."""
        return type(self)(**dict(zip(self.__match_args__, self._values()), **changes))


class ConstructionStep(Record):
    """One stage of the construction.

    k               stage index, starting at 1
    basis           the set built so far (2k elements)
    radius          largest absolute value in basis
    gap             smallest |n| not yet realized as a pairwise sum
    positive_branch True when +gap is the missing value (else -gap is)
    reach           placement scale used to extend this stage; None on a
                    stage that has not been extended
    """

    __match_args__ = ("k", "basis", "radius", "gap", "positive_branch", "reach")

    def __init__(self, k: int, basis: IntSet, radius: int, gap: int, positive_branch: bool,
                 reach: int | None = None) -> None:
        self._set(k, basis, radius, gap, positive_branch, reach)


class BasisTrace(Record):
    """A finished run: stages 1..K in order, plus the policy descriptor."""

    __match_args__ = ("steps", "mode")

    def __init__(self, steps: tuple[ConstructionStep, ...], mode: str = "") -> None:
        if not steps:
            raise ValueError("a trace needs at least one stage")
        for i, step in enumerate(steps):
            if step.k != i + 1:
                raise ValueError(f"stage indices must run 1..K without gaps; position {i} holds k={quote(step.k)}")
        self._set(steps, mode)

    @property
    def final(self) -> ConstructionStep:
        return self.steps[-1]

    def step(self, k: int) -> ConstructionStep:
        return self.steps[k - 1]
