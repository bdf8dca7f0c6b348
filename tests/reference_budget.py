"""Reference budget inversion by mpmath's interval arithmetic.

This is the body `urbasis.policy._least_x` had before it enclosed
exp on plain integers: `iv.exp` computes both ends of each level in full,
and trusts mpmath's directed rounding.  It shares no arithmetic with the
package; the tests require the same threshold, or the same refusal, from
both.
"""

import math

from urbasis import GrowthConfigError
from urbasis.digits import DECIMAL_DIGIT_LIMIT, quote
from urbasis.policy import _GUARD_DPS, _MAX_DOUBLINGS


def least_x(m: int, scale: float, offset: float, *, nested: bool, shift: int) -> int:
    """Least integer x >= 1 with scale * g(x + shift) + offset >= m, for g = ln or ln(ln).

    Since scale > 0 this is x + shift >= E, with E = exp(t), or exp(exp(t))
    when nested, and t = (m - offset) / scale.  E is enclosed by interval
    arithmetic at a precision of its own digit count, ln(E) / ln(10), plus
    guard digits; the least x is exact once both ends of the enclosure give
    the same max(1, ceil(end) - shift).  Until then the precision doubles,
    at most _MAX_DOUBLINGS times.
    """
    from mpmath import iv, libmp

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
    dps = int(digits) + _GUARD_DPS
    saved = iv.prec
    try:
        for _ in range(_MAX_DOUBLINGS + 1):
            iv.dps = dps
            e = iv.exp((iv.mpf(m) - offset) / scale)
            if nested:
                e = iv.exp(e)
            lo, hi = (max(1, libmp.to_int(end, libmp.round_ceiling) - shift) for end in e._mpi_)
            if lo == hi:
                return lo
            dps *= 2
    finally:
        iv.prec = saved
    raise GrowthConfigError(f"threshold({quote(m)}) is still undecided at {dps // 2} digits of precision")
