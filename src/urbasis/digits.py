"""Decimal conversion of unbounded integers under one digit limit.

The interpreter guards int<->str conversion with a digit limit (4300 by
default, since Python 3.11) that slow-growth traces pass by far.  Code that
converts integers to or from decimal runs inside `decimal_io()`, which
raises the limit to DECIMAL_DIGIT_LIMIT for that block only; nothing
changes the interpreter's setting at import.

int<->str takes time quadratic in the digit count, so the outermost
`decimal_io()` block owns one memo that nested blocks share: the readers
`canonical_int` and `decimal_int` and the writer `decimal_str` record
each text of at least _MEMO_FLOOR characters with its integer, and a
later conversion of either one, in either direction, is a lookup.  A
text read from a file or a reach list is then not converted back when it
is written: `build` writes the reach-list texts, and `export` and
`analyze` the texts of the trace they read.  Only canonical text (`0` or
`-?[1-9][0-9]*`, what str(int) writes) is recorded, so `decimal_str`
always returns str(n).  `canonical_int` reads only canonical text and
matches it once; `decimal_int` reads any text int() reads.  Shorter
texts are not recorded: a memo of every small integer pins more memory
than it saves time.  The memo is dropped when the outermost block exits,
normally or by an exception; outside any block the functions convert
plainly.  `quote`, how every error message shows a value, converts no long integer.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from typing import Iterator

DECIMAL_DIGIT_LIMIT = 2_000_000

CANONICAL_DECIMAL = re.compile(r"0|-?[1-9][0-9]*")  # what str(int) writes; no "-0"

_MEMO_FLOOR = 500  # shortest text, in characters, that the block memo records

# the outermost open block's memo: a str key maps to its int, an int key to its text
_memo: dict | None = None


class DigitLimitError(Exception):
    """An integer to convert to or from decimal has more digits than DECIMAL_DIGIT_LIMIT."""


_QUOTE_CHARS = 40  # longest string, and most digits of an integer, that a message shows in full
_LOG10_2 = 30102999566398119521373889472449302676  # floor(log10(2) * 10**38)


def quote(value) -> str:
    """repr(value) for an error message, but a string past 40 characters as its start and
    length, and an integer past 40 digits as its sign and digit count: `-<5001-digit integer>`.
    """
    if isinstance(value, str) and len(value) > _QUOTE_CHARS:
        return f"{value[:_QUOTE_CHARS]!r}... ({len(value)} characters)"
    if isinstance(value, int) and value.bit_length() > 132:  # 2**132 < 10**40: a shorter one has <= 40 digits
        low = (value.bit_length() - 1) * _LOG10_2 // 10**38 + 1  # the digit count of 2**(bit_length - 1)
        digits = low + (abs(value) >= 10**low)
        if digits > _QUOTE_CHARS:
            return f"{'-' if value < 0 else ''}<{digits}-digit integer>"
    return repr(value)


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
    Interpreters without the limit (before 3.11) run the block with it
    unchanged.  The outermost block creates the conversion memo and drops
    it on exit.
    """
    global _memo
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(DECIMAL_DIGIT_LIMIT)
    outermost = _memo is None
    if outermost:
        _memo = {}
    try:
        yield
    except ValueError as e:
        if not _past_limit(e):
            raise
        raise _limit_error("an integer") from None
    finally:
        if limited:
            sys.set_int_max_str_digits(saved)
        if outermost:
            _memo = None


def _convert(text: str, what: str) -> int:
    try:
        return int(text, 10)
    except ValueError as e:
        if _past_limit(e):
            raise _limit_error(what) from None
        raise


def canonical_int(text: str, what: str) -> int | None:
    """The integer that canonical decimal text spells, or None for any other text.

    The text is matched against CANONICAL_DECIMAL once, and not at all when
    the memo holds it, since the memo holds only canonical text.  Raises
    DigitLimitError that names `what` for a value past the limit.  Callers
    run inside decimal_io().
    """
    memo = _memo
    if memo is not None:
        n = memo.get(text)
        if n is not None:
            return n
    if not CANONICAL_DECIMAL.fullmatch(text):
        return None
    n = _convert(text, what)
    if memo is not None and len(text) >= _MEMO_FLOOR:
        memo[text] = n
        memo[n] = text
    return n


def decimal_int(text: str, what: str) -> int:
    """int(text, 10), raising DigitLimitError that names `what` for a value past the limit.

    Malformed text still raises ValueError.  Text that is not canonical
    (a sign, leading zeros, underscores, spaces) is converted but not
    recorded.  Callers run inside decimal_io().
    """
    n = canonical_int(text, what)
    return _convert(text, what) if n is None else n


def decimal_str(n: int) -> str:
    """str(n), raising DigitLimitError for a value past the limit.  Callers run inside decimal_io()."""
    memo = _memo
    if memo is not None:
        text = memo.get(n)
        if text is not None:
            return text
    try:
        text = str(n)
    except ValueError as e:
        if _past_limit(e):
            raise _limit_error("an integer") from None
        raise
    if memo is not None and len(text) >= _MEMO_FLOOR:
        memo[n] = text
        memo[text] = n
    return text
