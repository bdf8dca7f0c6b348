"""Closed-form bounds as checkable predicates, all run by `urbasis analyze`.

`sqrt_cap` runs on every trace, `log_envelope` and `reach_envelope` on
greedy ones.  Each predicate returns a BoundCheck whose `holds` flag is
decided in exact integer arithmetic: the log and square-root inequalities
are transformed into equivalent power comparisons, so a pass can never be
a rounding artifact; the float `lower`/`upper` fields are for display only.
"""

from __future__ import annotations

import math

from typing import TYPE_CHECKING, Sequence

from .digits import quote
from .record import Record

if TYPE_CHECKING:
    from .record import BasisTrace

_LN3 = math.log(3)
_LN5 = math.log(5)


def _to_float(n) -> float:
    # display helper: huge integers degrade to inf rather than raising
    try:
        return float(n)
    except OverflowError:
        return math.inf


def _sqrt_float(n) -> float:
    if n.bit_length() > 2048:  # sqrt(n) >= 2**1024, past the largest double
        return math.inf
    if n > 10**300:
        return _to_float(math.isqrt(n))
    return math.sqrt(n)


class BoundCheck(Record):
    """One evaluated bound: observed count against lower/upper envelopes."""

    __match_args__ = ("name", "x", "observed", "lower", "upper", "holds")

    def __init__(self, name: str, x: int, observed: int, lower: float | None, upper: float | None,
                 holds: bool) -> None:
        self._set(name, x, observed, lower, upper, holds)


def log_envelope(x: int, observed: int) -> BoundCheck:
    """Two-sided logarithmic envelope for the greedy construction.

    2*ln(x)/ln(5) + 2*(1 - ln(3)/ln(5))  <=  observed  <=  2*ln(x)/ln(3) + 2
    for every x >= 1.  Exactly: 9 * 5^(observed-2) >= x^2 on the left and
    3^(observed-2) <= x^2 on the right.
    """
    if x < 1:
        raise ValueError(f"envelope stated for x >= 1, got {quote(x)}")
    if observed < 0:
        raise ValueError("observed count cannot be negative")
    xx = x * x
    if observed >= 2:
        lower_ok = 9 * 5 ** (observed - 2) >= xx
        upper_ok = 3 ** (observed - 2) <= xx
    else:
        lower_ok = 9 >= xx * 5 ** (2 - observed)
        upper_ok = True  # 3^(observed-2) < 1 <= x^2
    lower = 2 * math.log(x) / _LN5 + 2 * (1 - _LN3 / _LN5)
    upper = 2 * math.log(x) / _LN3 + 2
    return BoundCheck("log-envelope", x, observed, lower, upper, lower_ok and upper_ok)


def sqrt_cap(r: int, x: int, observed: int) -> BoundCheck:
    """If every integer has at most r representations, then for x >= r the
    two-sided count obeys observed <= sqrt(8*r*x).  Exactly: observed^2 <= 8*r*x.
    """
    if r < 1:
        raise ValueError(f"representation cap must be >= 1, got {quote(r)}")
    if x < r:
        raise ValueError(f"cap stated for x >= r; got x={quote(x)}, r={quote(r)}")
    if observed < 0:
        raise ValueError("observed count cannot be negative")
    holds = observed * observed <= 8 * r * x
    return BoundCheck("sqrt-cap", x, observed, None, _sqrt_float(8 * r * x), holds)


def reach_envelope(k: int, reach: int) -> BoundCheck:
    """Exact two-sided envelope for the greedy reach at stage k:
    (3^k - 1) / 2  <=  reach  <=  (3 * 5^k + 5) / 20.
    Both ends are integers for every k >= 1, so the check is exact.
    """
    if k < 1:
        raise ValueError(f"stage index must be >= 1, got {quote(k)}")
    if reach < 1:
        raise ValueError(f"reach at stage {quote(k)} must be >= 1, got {quote(reach)}")
    lo = (3 ** k - 1) // 2
    hi = (3 * 5 ** k + 5) // 20
    holds = lo <= reach <= hi
    return BoundCheck("reach-envelope", k, reach, _to_float(lo), _to_float(hi), holds)


def growth_report(trace: BasisTrace, xs: Sequence[int]) -> list[BoundCheck]:
    """Evaluate the bounds that `urbasis analyze` reports on a trace.

    Every sample gets a sqrt-cap check with r = 1 (the construction promises
    unique representation).  A greedy trace, one whose every recorded reach
    equals its radius whatever the mode label says, also gets the log envelope
    at each sample and then the reach envelope at each stage with a reach.
    Samples must lie in [first radius, 2 * final radius].
    """
    first = trace.steps[0].radius
    widest = 2 * trace.final.radius
    for x in xs:
        if x < first or x > widest:
            raise ValueError(f"sample {quote(x)} outside [{quote(first)}, {quote(widest)}]")
    greedy = all(s.reach == s.radius for s in trace.steps if s.reach is not None)
    final = trace.final.basis
    checks: list[BoundCheck] = []
    for x in xs:
        observed = final.counting(-x, x)
        if greedy:
            checks.append(log_envelope(x, observed))
        checks.append(sqrt_cap(1, x, observed))
    if greedy:
        checks.extend(reach_envelope(s.k, s.reach) for s in trace.steps if s.reach is not None)
    return checks
