"""Growth policies: how far out each stage of the construction places its pair.

A policy maps a stage to its reach.  `Greedy` takes the radius, the
smallest admissible reach; `ExplicitReaches` replays a fixed list; and
the growth budgets, each a `ThresholdReach`, place the pair no nearer
than the least x from which the budget f allows the 2k + 2 elements of
stage k + 1, so the set stays below f and is as sparse as f asks.
`parse_budget` reads a budget back from its descriptor, the text a
trace header records as its mode.

Only the log and log-log budgets need real arithmetic.  Their inverse,
`_least_x`, encloses exp on plain integers: the Taylor series of a cut
argument summed with floors, squared back, and widened by a proved
relative error bound (`_exp_series` holds the proof), one exp per nesting
level.  So every build runs on integers alone, and no command loads
mpmath; the two `value` methods import it to evaluate a budget at a
point.  At run time this module imports only `digits` and `record`, so
a command can read a budget without loading the builder or the kernel;
`construction` re-exports its public names.
"""

from __future__ import annotations

import math

from typing import TYPE_CHECKING, Mapping, Union

if TYPE_CHECKING:
    import mpmath

from .digits import DECIMAL_DIGIT_LIMIT, decimal_int, decimal_io, decimal_str, quote
from .record import ConstructionStep, Record


class GrowthConfigError(ValueError):
    """A growth policy cannot produce a reach for the requested stage."""


# --- growth policies -------------------------------------------------------


class Greedy(Record):
    """Smallest admissible reach at every stage: reach = radius."""

    @property
    def descriptor(self) -> str:
        return "greedy"

    def reach_for(self, step: ConstructionStep) -> int:
        return step.radius


class ExplicitReaches(Record):
    """A fixed list of reaches, one per extension, in stage order."""

    __match_args__ = ("values",)

    def __init__(self, values: tuple[int, ...]) -> None:
        self._set(values)

    @property
    def descriptor(self) -> str:
        return "explicit"

    def reach_for(self, step: ConstructionStep) -> int:
        if step.k > len(self.values):
            raise GrowthConfigError(f"reach list has {len(self.values)} entries, none for stage {quote(step.k)}")
        return self.values[step.k - 1]


class ThresholdReach:
    """Base of the growth budgets: reach = max(radius, threshold(2k + 2)).

    A subclass's `threshold(m)` is the least x from which its budget f
    allows m elements in [-x, x], inverted once per stage.  The budget
    claim does not need this map t to be monotone: if [-x, x] holds the
    pairs of stages 1..J, then x >= 3*c_J >= t(2J + 2), so f(x) >= 2J + 2
    >= count(x) for any nondecreasing f whose least-x map is t.  The log
    families' t is the exact least x of an increasing f, and a
    ThresholdTable is checked when built; only a caller-written subclass
    goes unchecked.  Budgets hold no state and can be reused freely.
    """

    def reach_for(self, step: ConstructionStep) -> int:
        return max(step.radius, self.threshold(2 * step.k + 2))


class ThresholdTable(ThresholdReach, Record):
    """An explicit {target: least x} table, refused if empty or if x decreases as the target grows.

    The table is given as a mapping or as (target, x) pairs, and a target given twice is refused.
    A stage reads only the even target 2k + 2 >= 4, so any other target is refused.
    The table is kept as its (target, x) pairs in target order: it cannot change, and it hashes,
    and a table built from another's `table` equals it.
    """

    __match_args__ = ("table",)

    def __init__(self, table: Mapping[int, int] | tuple[tuple[int, int], ...]) -> None:
        pairs = table.items() if isinstance(table, Mapping) else table
        entries = tuple(sorted((m, x) for m, x in pairs))
        if not entries:
            raise GrowthConfigError("threshold table is empty: a stage needs an entry for target 4")
        for (m0, _), (m1, _) in zip(entries, entries[1:]):
            if m0 == m1:
                raise GrowthConfigError(f"threshold table gives target {quote(m0)} twice")
        for m, _ in entries:
            if m < 4 or m % 2:
                raise GrowthConfigError(
                    f"threshold table target {quote(m)} is never read: a stage asks only for even targets >= 4"
                )
        for (m0, x0), (m1, x1) in zip(entries, entries[1:]):
            if x1 < x0:
                raise GrowthConfigError(f"threshold map decreases: t({quote(m1)})={quote(x1)} "
                                        f"< t({quote(m0)})={quote(x0)}")
        self._set(entries)

    @property
    def descriptor(self) -> str:
        return "table," + ";".join(decimal_str(m) + ":" + decimal_str(x) for m, x in self.table)

    def threshold(self, m: int) -> int:
        for target, x in self.table:
            if target == m:
                return x
        raise GrowthConfigError(f"threshold table has no entry for target {quote(m)}")


GrowthPolicy = Union[Greedy, ExplicitReaches, ThresholdReach]


# --- built-in growth-budget families ---------------------------------------

_GUARD_DPS = 20  # digits carried beyond the integer part of a threshold or budget value
_MAX_DOUBLINGS = 4  # precision doublings before an undecided threshold is an error


def _dps_for(x: int) -> int:
    """Working precision for a budget value at x: x's decimal digits plus guard digits."""
    return x.bit_length() * 30103 // 100000 + 1 + _GUARD_DPS


def _least_x(m: int, scale: float, offset: float, *, nested: bool, shift: int) -> int:
    """Least integer x >= 1 with scale * g(x + shift) + offset >= m, for g = ln or ln(ln).

    Since scale > 0 this is x + shift >= E, with E = exp(t), or exp(exp(t))
    when nested, and t = (m - offset) / scale.  t is taken exactly, as the
    ratio of integers that the parameters' integer ratios give.  E is
    enclosed in [L, U] on plain integers (`_exp`), at a relative precision
    of 2**-bits: E's own digit count, ln(E) / ln(10), plus guard digits, in
    bits.  The least x is exact once both ends give the same
    max(1, ceil(end) - shift).  Until then the precision doubles, at most
    _MAX_DOUBLINGS times.

    Nested, the inner enclosure [a, b] of y = exp(t) carries 2 more bits
    than y has before its point, so d = b - a <= 2**-bits.  Then exp(a) is
    enclosed as any exp is, and exp(b) = exp(a) * exp(d) <= U * (1 + 2d),
    since exp(d) <= 1 + (e - 1) * d on [0, 1] by convexity: one exp per
    level (`_exp_span`).  Every end is a floor or a ceiling of integer
    arithmetic, so the enclosure trusts no rounding but Python's own.
    """
    try:
        t = (m - offset) / scale  # a float estimate, used only to size the precision
    except OverflowError:  # m past float range, where t has m's sign
        t = math.inf if m > 0 else -math.inf
    try:
        ln_e = math.exp(t) if nested else t
    except OverflowError:
        ln_e = math.inf
    digits = max(ln_e, 0.0) / math.log(10)
    if digits > DECIMAL_DIGIT_LIMIT:  # such a threshold could not be written to a trace
        about = f"~{digits:.3g}" if math.isfinite(digits) else "over 1e307"
        raise GrowthConfigError(
            f"threshold({quote(m)}) has {about} decimal digits, more than the limit of {DECIMAL_DIGIT_LIMIT}"
        )
    (a, b), (c, d) = scale.as_integer_ratio(), offset.as_integer_ratio()
    p, q = (m * d - c) * b, a * d  # t = p / q, with q > 0
    sigma = (q & -q).bit_length() - 1  # q's factor 2**sigma becomes a shift
    q >>= sigma
    dps = int(digits) + _GUARD_DPS
    for _ in range(_MAX_DOUBLINGS + 1):
        bits = dps * 3322 // 1000 + 1  # more than dps digits' worth
        if nested:
            low, high, f = _exp_span(*_exp(p, q, sigma, bits + int(ln_e).bit_length() + 2), bits)
        else:
            low, high, f = _exp(p, q, sigma, bits)
        lo, hi = (max(1, _ceil(end, f) - shift) for end in (low, high))
        if lo == hi:
            return lo
        dps *= 2
    raise GrowthConfigError(f"threshold({quote(m)}) is still undecided at {dps // 2} digits of precision")


def _ceil(n: int, f: int) -> int:
    # ceil(n * 2**f)
    return n << f if f >= 0 else -(-n >> -f)


def _exp_span(low: int, high: int, f: int, bits: int) -> tuple[int, int, int]:
    """(L, U, g) with L * 2**g <= exp(y) <= U * 2**g for y in [low * 2**f, high * 2**f], a span at most 1 wide.

    exp(high * 2**f) = exp(low * 2**f) * exp(d), with d = (high - low) * 2**f, and exp(d) <= 1 + 2d for d <= 1.
    """
    if f > 0:
        low, high, f = low << f, high << f, 0
    lo, hi, g = _exp(low, 1, -f, bits)
    return lo, hi + _ceil(2 * (high - low) * hi, f), g


def _exp(p: int, q: int, sigma: int, bits: int) -> tuple[int, int, int]:
    """(L, U, f) with L * 2**f <= exp(p / (q * 2**sigma)) <= U * 2**f, for q >= 1 and sigma >= 0.

    U - L is about L * 2**-bits or less.  exp(0) is exactly 1, and a positive
    argument goes to `_exp_series`.  A negative one, -a, has exp(-a) =
    1 / exp(a), divided down for L and up for U; for a >= bits, exp(-a) <
    e**-bits < 2**-bits, and [0, 2**-bits] encloses it with no exp at all.
    """
    if p > 0:
        return _exp_series(p, q, sigma, bits)
    if p == 0:
        return 1, 1, 0
    if -p >= (bits * q) << sigma:
        return 0, 1, -bits
    low, high, f = _exp_series(-p, q, sigma, bits + 2)
    w = high.bit_length() + bits + 2  # 2**w / high keeps bits + 2 bits
    return (1 << w) // high, -(-(1 << w) // low), -f - w


def _exp_series(p: int, q: int, sigma: int, bits: int) -> tuple[int, int, int]:
    """(L, U, f) with L * 2**f <= exp(x) <= U * 2**f <= (L + L * 2**-bits + 1) * 2**f, for x = p / (q * 2**sigma) > 0.

    exp(x) = exp(r)**(2**k) for r = x / 2**k < 2**-s, with s >= 1 about the cube
    root of bits, which balances k squarings against the series' length.
    The Taylor series of exp(r) is summed in u concurrent sums, one full
    multiplication per u terms (Smith, Math. Comp. 52, 1989), and the sum
    squared k times.  An integer N stands for N units of 2**-w.  Every step
    rounds down and every term left out is positive, so each value is at
    most the true one; its deficit, true minus computed, is bounded here.
    Multiplying by r is exact before its one floor: floor(N * p / q) >> (sigma + k).

    1. Power.  r**u is exact, p**u / q**u, while that is short; otherwise
       it is floor(r * 2**w) raised to u by squares and multiplications with
       floors.  A step on powers of r <= 1/2 adds at most one unit, or halves
       the deficit and adds 3/2, so after i steps it is below i + 1: below
       2u at the end.
    2. Terms.  T_0 = 2**w, and T_n = floor(T_(n-1) / n), times r**u with a
       floor when u divides n.  T_n stands for B_n = r**(n - n mod u) / n!.
       Its deficit c_n <= c_(n-1) / n + 4: 1 for each floor, and at most 2
       for r**u's deficit, 2u units, on a factor T_(n-1) / n <= 2**w / n with
       n >= u.  So c_n <= 8 for every n.
    3. Tail.  The sum stops at the first N with T_N = 0.  Then B_N <= 8
       units, and the series from r**N / N! on is at most B_N / (1 - r),
       16 units.  B_n < 2**(s * (u - 1 - n)) for n >= u, so N <= w / s + u.
    4. Sum.  S_j adds the T_n with n mod u = j, and Horner's rule takes the
       sum of r**j * S_j in u - 1 multiplications by r, each a floor of at
       most one unit, while r < 1 shrinks the deficit carried in.  So the
       sum falls short of exp(r) >= 1 by less than 8N + u + 16 units, a
       relative error below (8N + u + 16) * 2**-w.
    5. Squares.  Each squaring keeps the top w + 1 bits, a floor of
       relative cost below 2**-w, and doubles the relative error before it.
       After k squarings it is below delta = 2**k * (8N + u + 17) * 2**-w.
    6. Bounds.  L >= exp(x) * (1 - delta), so exp(x) <= L / (1 - delta)
       <= L * (1 + 2 delta) = U before its ceiling.  w = bits + k + guard,
       where the guard bits cover 8N + u + 17 once more by N's bound in 3
       (w < bits + k + 64), so 2 delta <= 2**-bits.
    """
    s = max(1, round(bits ** (1 / 3)))
    k = max(0, p.bit_length() - q.bit_length() + 1 - sigma + s)  # x < 2**(k - s)
    sigma += k
    n_max = (bits + k + 64) // s + 1
    u = math.isqrt(n_max)  # the sums in 4 cost u multiplications, the terms in 2 n_max / u
    n_max += u
    w = bits + k + (8 * n_max + u + 17).bit_length() + 1
    if u * (p.bit_length() + q.bit_length()) <= w:
        pu, qu, su = p**u, q**u, sigma * u
    else:
        r = p << w
        if q != 1:
            r //= q
        r >>= sigma
        pu, qu, su = r, 1, w
        for bit in bin(u)[3:]:
            pu = pu * pu >> w
            if bit == "1":
                pu = pu * r >> w
    sums = [0] * u
    term, n = 1 << w, 0
    while term:
        sums[n % u] += term
        n += 1
        term //= n
        if n % u == 0:
            term *= pu
            if qu != 1:
                term //= qu
            term >>= su
    h = sums[-1]
    for partial in reversed(sums[:-1]):
        h *= p
        if q != 1:
            h //= q
        h = (h >> sigma) + partial
    f = -w
    for _ in range(k):
        h *= h
        cut = h.bit_length() - w - 1
        h >>= cut
        f = 2 * f + cut
    return h, h + (h * (8 * n + u + 17) >> (w - k - 1)) + 1, f


def _shortest(v: float) -> str:
    # the shortest text that reads back as v, with a trailing ".0" dropped
    text = repr(v)
    return text[:-2] if text.endswith(".0") else text


def _check_budget(scale: float, offset: float) -> None:
    for name, v in (("scale", scale), ("offset", offset)):
        try:
            finite = math.isfinite(v)
        except OverflowError:  # an int past float range; its decimal text may pass the digit limit
            raise ValueError(f"{name} must be finite, got an integer past float range") from None
        if not finite:
            raise ValueError(f"{name} must be finite, got {v}")
    if scale <= 0:
        raise ValueError("scale must be positive for an unbounded budget")


class LogGrowth(ThresholdReach, Record):
    """Budget f(x) = scale * ln(x) + offset, for x >= 1."""

    __match_args__ = ("scale", "offset")

    def __init__(self, scale: float = 1.0, offset: float = 0.0) -> None:
        _check_budget(scale, offset)
        self._set(scale, offset)

    @property
    def descriptor(self) -> str:
        return f"log,{_shortest(self.scale)},{_shortest(self.offset)}"

    def value(self, x: int) -> mpmath.mpf:
        if x < 1:
            raise ValueError(f"budget defined for x >= 1, got {quote(x)}")
        import mpmath

        with mpmath.workdps(_dps_for(x)):
            return mpmath.mpf(self.scale) * mpmath.ln(mpmath.mpf(x)) + self.offset

    def threshold(self, m: int) -> int:
        """Least x >= 1 with value(x) >= m, exact at any magnitude."""
        return _least_x(m, self.scale, self.offset, nested=False, shift=0)


class LogLogGrowth(ThresholdReach, Record):
    """Budget f(x) = scale * ln(ln(x + shift)) + offset, for x >= 1.

    shift >= 1 keeps the inner log above 0 on the whole domain.
    """

    __match_args__ = ("scale", "offset", "shift")

    def __init__(self, scale: float = 1.0, offset: float = 0.0, shift: int = 3) -> None:
        _check_budget(scale, offset)
        if shift < 1:
            raise ValueError("shift must be >= 1 to keep the inner log positive")
        self._set(scale, offset, shift)

    @property
    def descriptor(self) -> str:
        return f"loglog,{_shortest(self.scale)},{_shortest(self.offset)},{self.shift}"

    def value(self, x: int) -> mpmath.mpf:
        if x < 1:
            raise ValueError(f"budget defined for x >= 1, got {quote(x)}")
        import mpmath

        with mpmath.workdps(_dps_for(x)):
            return mpmath.mpf(self.scale) * mpmath.ln(mpmath.ln(mpmath.mpf(x) + self.shift)) + self.offset

    def threshold(self, m: int) -> int:
        """Least x >= 1 with value(x) >= m, exact at any magnitude."""
        return _least_x(m, self.scale, self.offset, nested=True, shift=self.shift)


# --- the budget grammar ----------------------------------------------------

_LOG_FAMILIES = {"log": (LogGrowth, (2,)), "loglog": (LogLogGrowth, (2, 3))}  # class, parameter counts


def parse_budget(text: str) -> ThresholdReach:
    """The growth budget whose descriptor is `text`: the inverse of `descriptor`.

      log,SCALE,OFFSET             LogGrowth
      loglog,SCALE,OFFSET[,SHIFT]  LogLogGrowth, with SHIFT 3 when it is left out
      table,M:X;M:X;...            ThresholdTable, with threshold(M) = X

    The `--threshold` spec and a trace header's mode are this text.  Bad text
    raises GrowthConfigError, and an integer past the digit limit raises
    DigitLimitError; a message quotes only the start of a long spec or parameter.
    """
    family, _, rest = text.partition(",")
    with decimal_io():
        try:
            if family == "table":
                entries = (entry.partition(":") for entry in rest.split(";"))
                return ThresholdTable([(_read_number(m, "a table target", integer=True),
                                        _read_number(x, "a table entry", integer=True)) for m, _, x in entries])
            if family in _LOG_FAMILIES:
                cls, counts = _LOG_FAMILIES[family]
                params = rest.split(",")
                if len(params) not in counts:
                    takes = " or ".join(map(str, counts))
                    raise ValueError(f"{family} takes {takes} parameters, got {len(params)}")
                scale, offset, *shift = params
                return cls(_read_number(scale, "scale"), _read_number(offset, "offset"),
                           *(_read_number(v, "shift", integer=True) for v in shift))
        except ValueError as e:  # GrowthConfigError is one
            raise GrowthConfigError(f"bad threshold spec {quote(text)}: {e}") from None
    raise GrowthConfigError(f"unknown threshold family {quote(family)} (expected log, loglog, or table)")


def _read_number(text: str, what: str, *, integer: bool = False) -> float | int:
    try:
        return decimal_int(text, what) if integer else float(text)
    except ValueError:
        raise ValueError(f"{what} is not {'an integer' if integer else 'a number'}: {quote(text)}") from None

