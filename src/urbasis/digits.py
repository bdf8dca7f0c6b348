"""Decimal conversion of unbounded integers under one digit limit.

The interpreter guards int<->str conversion with a digit limit (4300 by
default, since Python 3.11) that slow-growth traces pass by far.  Code that
converts integers to or from decimal runs inside `decimal_io()`, which
raises the limit to DECIMAL_DIGIT_LIMIT for that block only; nothing
changes the interpreter's setting at import.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterator

DECIMAL_DIGIT_LIMIT = 2_000_000


class DigitLimitError(Exception):
    """An integer to convert to or from decimal has more digits than DECIMAL_DIGIT_LIMIT."""


def _limit_error(what: str) -> DigitLimitError:
    limit = sys.get_int_max_str_digits()  # DECIMAL_DIGIT_LIMIT inside decimal_io()
    return DigitLimitError(f"{what} has more than {limit} decimal digits, the decimal I/O limit")


def _past_limit(exc: ValueError) -> bool:
    # the interpreter's own guard raises a plain ValueError that names its setter
    return type(exc) is ValueError and "int_max_str_digits" in str(exc)


@contextmanager
def decimal_io() -> Iterator[None]:
    """Run a block with int<->str conversions allowed up to DECIMAL_DIGIT_LIMIT digits.

    The interpreter's limit is restored on exit, and a conversion past the
    limit inside the block raises DigitLimitError instead of ValueError.
    Interpreters without the limit (before 3.11) run the block unchanged.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DECIMAL_DIGIT_LIMIT)
    try:
        yield
    except ValueError as e:
        if not _past_limit(e):
            raise
        raise _limit_error("an integer") from None
    finally:
        sys.set_int_max_str_digits(saved)


def decimal_int(text: str, what: str) -> int:
    """int(text, 10), raising DigitLimitError that names `what` for a value past the limit.

    Malformed text still raises ValueError.  Callers run inside decimal_io().
    """
    try:
        return int(text, 10)
    except ValueError as e:
        if _past_limit(e):
            raise _limit_error(what) from None
        raise
