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
"""

from __future__ import annotations


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
