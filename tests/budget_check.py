"""Decide budget comparisons f(x) >= m exactly, independent of the package's own inverse.

f is a LogGrowth or LogLogGrowth budget.  f(x) is enclosed by interval
arithmetic at a precision of x's decimal digit count plus guard digits,
doubled while the enclosure still straddles m.  Two neighbouring budget
values differ by about 1/(x ln x), so x's digit count is the precision the
comparison needs; a fixed one, such as 60 digits, cannot tell x from x - 1
once x has more digits than that.
"""

from mpmath import iv

from urbasis import LogGrowth

GUARD_DPS = 20
DOUBLINGS = 4


def budget_at_least(family, x: int, m: int) -> bool:
    """Whether family.value(x) >= m; raises AssertionError if still undecided."""
    saved = iv.prec
    try:
        dps = x.bit_length() // 3 + GUARD_DPS  # bit_length / 3 exceeds the digit count
        for _ in range(DOUBLINGS + 1):
            iv.dps = dps
            if isinstance(family, LogGrowth):
                inner = iv.log(iv.mpf(x))
            else:
                inner = iv.log(iv.log(iv.mpf(x) + family.shift))
            f = family.scale * inner + family.offset
            if f.a >= m:
                return True
            if f.b < m:
                return False
            dps *= 2
    finally:
        iv.prec = saved
    raise AssertionError(f"{family} at x={x} against {m} undecided at {dps // 2} digits")
