"""Closed-form density bounds as checkable predicates.

Each predicate returns a BoundCheck whose `holds` flag is decided in exact
integer arithmetic: the log and square-root inequalities are transformed
into equivalent power comparisons, so a pass can never be a rounding
artifact.  The float `lower`/`upper` fields exist for display and plotting
and are not consulted by the decision.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import Sequence

from .construction import BasisTrace

_LN3 = math.log(3)
_LN5 = math.log(5)


def _to_float(n) -> float:
    # display helper: huge integers degrade to inf rather than raising
    try:
        return float(n)
    except OverflowError:
        return math.inf


def _sqrt_float(n) -> float:
    if n > 10**300:
        return _to_float(math.isqrt(n))
    return math.sqrt(n)


@dataclass(frozen=True)
class BoundCheck:
    """One evaluated bound: observed count against lower/upper envelopes."""

    name: str
    x: int
    observed: int
    lower: float | None
    upper: float | None
    holds: bool


def log_envelope(x: int, observed: int) -> BoundCheck:
    """Two-sided logarithmic envelope for the greedy construction.

    2*ln(x)/ln(5) + 2*(1 - ln(3)/ln(5))  <=  observed  <=  2*ln(x)/ln(3) + 2
    for every x >= 1.  Exactly: 9 * 5^(observed-2) >= x^2 on the left and
    3^(observed-2) <= x^2 on the right.
    """
    if x < 1:
        raise ValueError(f"envelope stated for x >= 1, got {x}")
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
        raise ValueError(f"representation cap must be >= 1, got {r}")
    if x < r:
        raise ValueError(f"cap stated for x >= r; got x={x}, r={r}")
    if observed < 0:
        raise ValueError("observed count cannot be negative")
    holds = observed * observed <= 8 * r * x
    return BoundCheck("sqrt-cap", x, observed, None, _sqrt_float(8 * r * x), holds)


def halfline_lower(n0: int, x: int, observed: int) -> BoundCheck:
    """Any set representing all integers >= n0 has at least 2*sqrt(x) - 1
    elements in [0, x] once x >= n0^2.  Exactly: (observed + 1)^2 >= 4*x.
    """
    if n0 < 0:
        raise ValueError(f"n0 must be nonnegative, got {n0}")
    if x < n0 * n0 or x < 0:
        raise ValueError(f"bound stated for x >= n0^2 = {n0 * n0} (and x >= 0), got {x}")
    if observed < 0:
        raise ValueError("observed count cannot be negative")
    holds = (observed + 1) ** 2 >= 4 * x
    return BoundCheck("halfline-lower", x, observed, 2 * _sqrt_float(x) - 1, None, holds)


def halfline_cap(r: int, x: int, observed: int) -> BoundCheck:
    """With at most r representations per integer, a set of nonnegative
    integers has at most 2*sqrt(r*x) elements in [0, x] for x >= 1.
    Exactly: observed^2 <= 4*r*x.
    """
    if r < 1:
        raise ValueError(f"representation cap must be >= 1, got {r}")
    if x < 1:
        raise ValueError(f"cap stated for x >= 1, got {x}")
    if observed < 0:
        raise ValueError("observed count cannot be negative")
    holds = observed * observed <= 4 * r * x
    return BoundCheck("halfline-cap", x, observed, None, 2 * _sqrt_float(r * x), holds)


def reach_envelope(k: int, reach: int) -> BoundCheck:
    """Exact two-sided envelope for the greedy reach at stage k:
    (3^k - 1) / 2  <=  reach  <=  (3 * 5^k + 5) / 20.
    Both ends are integers for every k >= 1, so the check is exact.
    """
    if k < 1:
        raise ValueError(f"stage index must be >= 1, got {k}")
    if reach < 1:
        raise ValueError(f"reach must be >= 1, got {reach}")
    lo = (3 ** k - 1) // 2
    hi = (3 * 5 ** k + 5) // 20
    holds = lo <= reach <= hi
    return BoundCheck("reach-envelope", k, reach, _to_float(lo), _to_float(hi), holds)


def growth_report(trace: BasisTrace, xs: Sequence[int]) -> list[BoundCheck]:
    """Evaluate the density bounds at the given sample points.

    Every sample gets a sqrt-cap check with r = 1 (the construction promises
    unique representation); greedy traces additionally get the log envelope.
    A trace counts as greedy when every recorded reach equals its stage's
    radius, whatever its mode label says.  Samples must lie in
    [first radius, 2 * final radius].
    """
    if not xs:
        return []
    first = trace.steps[0].radius
    widest = 2 * trace.final.radius
    for x in xs:
        if x < first or x > widest:
            raise ValueError(f"sample {x} outside [{first}, {widest}]")
    greedy = all(s.reach == s.radius for s in trace.steps if s.reach is not None)
    final = trace.final.basis
    checks: list[BoundCheck] = []
    for x in xs:
        observed = final.counting(-x, x)
        if greedy:
            checks.append(log_envelope(x, observed))
        checks.append(sqrt_cap(1, x, observed))
    return checks
