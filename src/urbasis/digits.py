"""Decimal conversion of unbounded integers under one digit limit.

This module alone decides whether an integer is too long for decimal
text.  Every conversion here is checked from the value's length (an
integer's from its bit length) before any work, against the
interpreter's int<->str digit limit (4300 by default, which slow-growth
traces pass by far), inside a block or not.  Code that converts integers
to or from decimal runs inside `decimal_io()`, which raises the
interpreter's limit to DECIMAL_DIGIT_LIMIT for that block only (nothing
changes it at import) and reports a conversion made elsewhere past it as
DigitLimitError.

Before Python 3.12, int() and str() take time quadratic in the digit
count, and a slow budget's radii run to thousands or millions of digits.
So long values are converted by halves, at aligned widths, which lets
the reused powers be tabled: `canonical_int` reads a text of more than
_READ_SPLIT digits as two parts split at the longest width
_READ_SPLIT * 2**j below its length, joined as low + ((high * 5**w) << w),
so Python's Karatsuba multiplication sets the cost.  `decimal_str` writes
an integer of more than _WRITE_CUTOFF bits by splitting it at the bit
widths _WRITE_SPLIT * 2**j and joining the parts in the stdlib `decimal`
module, whose multiplication is subquadratic and whose str() is linear,
in an exact context that traps Inexact.  The tables of powers
(5**w for reading, the Decimal 2**w for writing) are built by squaring,
each power when first needed.  Shorter values go to int() and str()
directly, and so does every value from Python 3.12 on, whose int()
and str() split long values themselves.

Even converted by halves, a long value costs more than a lookup, so the
outermost `decimal_io()` block owns one memo that nested blocks share:
the readers `canonical_int` and `decimal_int` and the writer
`decimal_str` record each text of at least _MEMO_FLOOR characters with
its integer, and a later conversion of either one, in either direction,
is a lookup, as is writing the integer's negation.  A text read from a
file or a reach list is then not converted back when it is written:
`build` writes the reach-list texts, and `export` and `analyze` the
texts of the trace they read.  Only canonical text (`0` or
`-?[1-9][0-9]*`, what str(int) writes) is recorded, so `decimal_str`
always returns str(n).  `canonical_int` reads only canonical text and
matches it once; `decimal_int` reads any text int() reads.  Shorter
texts are not recorded: a memo of every small integer pins more memory
than it saves time.  The memo and the power tables are dropped when the
outermost block exits, normally or by an exception; outside any block
each call converts with tables of its own.  `quote`, how every error
message shows a value, converts no long integer.

A new long integer is often a small multiple of a recorded one: a stage
places its new pair at 3c and 3c + b, where c is the last stage's reach
and b its gap, and the window bound 2r of `verify --format json` doubles
a radius.  So, on every interpreter, `decimal_str(n, near=r)` writes an
integer of more than _WRITE_SPLIT bits whose |n| is q * |r| + s, with
1 <= q <= 3 and 0 <= s < 2**64, as q times r's recorded text plus s in
the `decimal` module, in the same exact context, in linear time.  Without
a hint that fits, r is n / 2 for even n: the q = 2, s = 0 case.  When the
memo holds neither text, n is converted as above, so the text never
depends on the hint.  Below _WRITE_SPLIT bits the gain is nil, and
`decimal` is imported only by these two writers, so builds whose
integers all stay below it never load it: greedy ones, and log-log
K = 10, whose radius has 1,296 digits.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from typing import Iterator

DECIMAL_DIGIT_LIMIT = 2_000_000

CANONICAL_DECIMAL = re.compile(r"0|-?[1-9][0-9]*")  # what str(int) writes; no "-0"

_MEMO_FLOOR = 500  # shortest text, in characters, that the block memo records

# Thresholds of the split conversions (see the module docstring); CHANGES.md has the measurements.
_SPLITS = sys.version_info < (3, 12)  # later interpreters split long conversions themselves, as fast or faster
_READ_SPLIT = 1024  # digits: a longer canonical text is read in parts of 1024 * 2**j digits
_WRITE_CUTOFF = 30_000  # bits: a longer integer is written in parts; a shorter one goes to str()
_WRITE_SPLIT = 10_000  # bits: the parts are 10_000 * 2**j bits wide; one this short is neither split nor derived

# the outermost open block's memo: a str key maps to its int, an int key to its text
_memo: dict | None = None


class _Powers:
    """5**(_READ_SPLIT * 2**j) and Decimal 2**(_WRITE_SPLIT * 2**j), each made by squaring when first needed."""

    def __init__(self) -> None:
        self.fives: list[int] = []
        self.twos: list = []  # of decimal.Decimal

    def five(self, j: int) -> int:
        fives = self.fives
        if not fives:
            fives.append(5**_READ_SPLIT)
        while len(fives) <= j:
            fives.append(fives[-1] ** 2)
        return fives[j]

    def two(self, j: int, context):
        twos = self.twos
        if not twos:
            twos.append(context.create_decimal(1 << _WRITE_SPLIT))
        while len(twos) <= j:
            twos.append(context.multiply(twos[-1], twos[-1]))
        return twos[j]


# the outermost open block's power tables, dropped with its memo
_powers: _Powers | None = None


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
        digits = _digit_count(value)
        if digits > _QUOTE_CHARS:
            return f"{'-' if value < 0 else ''}<{digits}-digit integer>"
    return repr(value)


def _least_digits(n: int) -> int:
    """The digit count of 2**(bit_length - 1) for nonzero n: |n| has this many decimal digits or one more."""
    return (n.bit_length() - 1) * _LOG10_2 // 10**38 + 1


def _digit_count(n: int) -> int:
    """The number of decimal digits of nonzero |n|, without converting it."""
    low = _least_digits(n)
    return low + (abs(n) >= 10**low)


def _limit_error(what: str) -> DigitLimitError:
    limit = sys.get_int_max_str_digits()
    return DigitLimitError(f"{what} has more than {limit} decimal digits, the decimal I/O limit")


def _past_limit(exc: ValueError) -> bool:
    # the interpreter's guard, met by a conversion made outside this module, names its setter
    return type(exc) is ValueError and "int_max_str_digits" in str(exc)


@contextmanager
def decimal_io() -> Iterator[None]:
    """Run a block with int<->str conversions allowed up to DECIMAL_DIGIT_LIMIT digits.

    The interpreter's limit is restored on exit, and a conversion past the
    limit inside the block raises DigitLimitError instead of ValueError,
    also one made outside this module.  The outermost block creates the
    conversion memo and the power tables, and drops them on exit.
    """
    global _memo, _powers
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DECIMAL_DIGIT_LIMIT)
    outermost = _memo is None
    if outermost:
        _memo, _powers = {}, _Powers()
    try:
        yield
    except ValueError as e:
        if not _past_limit(e):
            raise
        raise _limit_error("an integer") from None
    finally:
        sys.set_int_max_str_digits(saved)
        if outermost:
            _memo = _powers = None


def _convert(text: str, what: str) -> int:
    # int(text, 10), refused first if the text has more digits than the limit, counted as int() counts
    # them: leading zeros count; the sign, surrounding spaces and underscores do not
    body = text.strip()
    limit = sys.get_int_max_str_digits()  # 0 when switched off
    if limit and len(body) - body.count("_") - body.startswith(("+", "-")) > limit:
        raise _limit_error(what)
    return int(text, 10)


def _read_split(digits: str, powers: _Powers) -> int:
    """int(digits) for a string of ASCII digits, read in two parts when longer than _READ_SPLIT."""
    if len(digits) <= _READ_SPLIT:
        return int(digits)
    j = ((len(digits) - 1) // _READ_SPLIT).bit_length() - 1
    w = _READ_SPLIT << j  # the longest aligned width below the length
    high = _read_split(digits[:-w], powers)
    return _read_split(digits[-w:], powers) + ((high * powers.five(j)) << w)  # low + high * 10**w


def _write_split(n: int, powers: _Powers, context):
    """n >= 0 as an exact Decimal, made in two parts when it has more than _WRITE_SPLIT bits."""
    bits = n.bit_length()
    if bits <= _WRITE_SPLIT:
        return context.create_decimal(n)
    j = ((bits - 1) // _WRITE_SPLIT).bit_length() - 1
    w = _WRITE_SPLIT << j  # the widest aligned width below the bit length
    high = _write_split(n >> w, powers, context)
    low = _write_split(n & ((1 << w) - 1), powers, context)
    return context.add(context.multiply(high, powers.two(j, context)), low)


def _exact(digits: int):
    """A decimal context that holds integers of up to `digits` digits exactly and traps Inexact."""
    import decimal

    context = decimal.Context(prec=digits, Emax=decimal.MAX_EMAX)
    context.traps[decimal.Inexact] = True
    return context


def _write_decimal(n: int, digits: int, powers: _Powers) -> str:
    """str(n), joined in the decimal module exactly.  `digits` bounds the digit count of |n|, and so of
    every value on the way, since each is a bit field of |n| or a power of two below it."""
    text = str(_write_split(abs(n), powers, _exact(digits)))
    return "-" + text if n < 0 else text


def _derived(n: int, near: int | None, digits: int, memo: dict) -> str | None:
    """str(n) as q * text(r) + s in the decimal module, in linear time, where q, s = divmod(|n|, |r|) with
    1 <= q <= 3 and 0 <= s < 2**64, and the memo holds the text of r or -r.  r is `near`, then n / 2 for
    even n; None when neither fits.  `digits` bounds the digit count of |n|, and so of every value on the way."""
    size = abs(n)
    for r in (near, None if n & 1 else n >> 1):
        if not r or not 0 <= size.bit_length() - r.bit_length() <= 2:  # |n| >= 4|r| would need q >= 4
            continue
        q, s = divmod(size, abs(r))
        if not 1 <= q <= 3 or s >> 64:
            continue
        text = memo.get(r) or memo.get(-r)
        if text is None:
            continue
        context = _exact(digits)
        joined = str(context.add(context.multiply(context.create_decimal(text.lstrip("-")), q), s))
        return "-" + joined if n < 0 else joined
    return None


def canonical_int(text: str, what: str) -> int | None:
    """The integer that canonical decimal text spells, or None for any other text.

    The text is matched against CANONICAL_DECIMAL once, and not at all when
    the memo holds it or its negation, since the memo holds only canonical
    text; a text whose negation it holds is recorded, not converted.  Raises
    DigitLimitError that names `what` for a value past the limit.  Callers
    run inside decimal_io().
    """
    memo = _memo
    if memo is not None:
        n = memo.get(text)
        if n is not None:
            return n
        if len(text) >= _MEMO_FLOOR:  # the memo may hold the text of -n, as decimal_str reads it
            negative = text[0] == "-"
            n = memo.get(text[1:] if negative else "-" + text)
            if n is not None and (n > 0) is negative:  # never a doubled sign
                n = -n
                memo[text] = n
                memo[n] = text
                return n
    if not CANONICAL_DECIMAL.fullmatch(text):
        return None
    negative = text[0] == "-"
    digits = len(text) - negative
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        raise _limit_error(what)
    if _SPLITS and digits > _READ_SPLIT:
        n = _read_split(text[negative:], _powers or _Powers())
        if negative:
            n = -n
    else:
        n = int(text)
    if memo is not None and len(text) >= _MEMO_FLOOR:
        memo[text] = n
        memo[n] = text
    return n


def decimal_int(text: str, what: str) -> int:
    """int(text, 10), raising DigitLimitError that names `what` for a value past the limit.

    Malformed text raises ValueError, or DigitLimitError when it counts
    more digits than the limit (see _convert).  Text that is not canonical
    (a sign, leading zeros, underscores, spaces) is converted but not
    recorded.  Callers run inside decimal_io().
    """
    n = canonical_int(text, what)
    return _convert(text, what) if n is None else n


def decimal_str(n: int, near: int | None = None) -> str:
    """str(n), raising DigitLimitError for a value past the limit.  Callers run inside decimal_io().

    `near` is a hint: a value whose text the memo may hold, and which n is one to three times plus a
    small remainder.  Then n is written from that text (see _derived); the text does not depend on it.
    """
    memo = _memo
    if memo is not None:
        text = memo.get(n)
        if text is not None:
            return text
        text = memo.get(-n)  # the text of -n, with its sign changed
        if text is not None:
            return text[1:] if n > 0 else "-" + text
    low = _least_digits(n)
    limit = sys.get_int_max_str_digits()
    if limit and low >= limit and _digit_count(n) > limit:
        raise _limit_error("an integer")
    bits = n.bit_length()
    text = _derived(n, near, low + 1, memo) if memo is not None and bits > _WRITE_SPLIT else None
    if text is None:
        text = _write_decimal(n, low + 1, _powers or _Powers()) if _SPLITS and bits > _WRITE_CUTOFF else str(n)
    if memo is not None and len(text) >= _MEMO_FLOOR:
        memo[n] = text
        memo[text] = n
    return text
