"""Staged construction of unique-representation sets.

Starting from {0, 1}, each stage adds one pair of far-out elements whose
sum is the smallest +-value not yet expressible, so every integer
eventually gets exactly one representation a + a' (a <= a').  How far out
the pair lands is the per-stage "reach"; choosing it as small as possible
gives logarithmic density, choosing it huge makes the set as sparse as
desired.  The growth policies of `policy` encapsulate that choice.

The stages are built as `record`'s ConstructionStep and BasisTrace.
This module re-exports both, and the public names of `policy`, so
imports and pickles that name them here still find them; a command that
only reads a trace does not load this module.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .digits import decimal_io, quote
from .intset import IntSet, min_abs_missing
from .policy import (ExplicitReaches, Greedy, GrowthConfigError, GrowthPolicy, LogGrowth, LogLogGrowth,
                     ThresholdReach, ThresholdTable, parse_budget)
from .record import BasisTrace, ConstructionStep


def initial_state() -> ConstructionStep:
    """Stage 1: the seed set {0, 1}."""
    basis = IntSet((0, 1))
    gap, positive = min_abs_missing(basis.self_sumset())
    return ConstructionStep(k=1, basis=basis, radius=1, gap=gap, positive_branch=positive)


def extend(step: ConstructionStep, reach: int) -> ConstructionStep:
    """Extend one stage: place the pair realizing the missing value +-gap.

    The two new elements are {gap + 3*reach, -3*reach} when +gap is missing
    and the negated pair otherwise; reach must be at least the radius, as
    recorded and as max |a|.  RuntimeError, a bug rather than bad input,
    means the pair is misplaced, the basis already repeats a pairwise sum
    or the new pair would, checked in that order.
    """
    pair = _pair(step, reach)
    sums, n = step.basis.self_sumset(), len(step.basis)
    if len(sums) != n * (n + 1) // 2:  # _extend assumes the old sums are unique
        raise RuntimeError(f"stage {quote(step.k)} already repeats a pairwise sum")
    window = _window(abs(step.gap), n + 2)
    return _extend(step, pair, {s for s in sums if -window <= s <= window}, window)


def _window(start: int, n: int) -> int:
    # n elements make at most n(n + 1)/2 pair sums, and a gap search from start that
    # returns b has found both of +-start .. +-(b - 1) among them, so b < this bound
    return start + n * (n + 1) // 4 + 1


def _pair(step: ConstructionStep, reach: int) -> tuple[int, int]:
    # the pair that extends the stage at this reach, checked against the radius and the old elements
    d = step.basis.max_abs()
    if reach < max(step.radius, d):
        raise ValueError(f"reach {quote(reach)} below radius {quote(max(step.radius, d))} at stage {quote(step.k)}")
    far = step.gap + 3 * reach
    if step.positive_branch:
        e1, e2 = -3 * reach, far
    else:
        e1, e2 = -far, 3 * reach
    old = step.basis.elements
    if not (e1 < old[0] and old[-1] < e2 and max(-e1, e2) == far):
        raise RuntimeError(f"extension of stage {quote(step.k)} misplaced its new pair")
    return e1, e2


def _extend(step: ConstructionStep, pair: tuple[int, int], sums: set[int], window: int) -> ConstructionStep:
    # extend by a placed pair, for a basis whose pairwise sums are known to be unique; `sums`
    # holds those in [-window, window], a window past the new stage's gap, and gains the new ones
    e1, e2 = pair
    d, old = step.basis.max_abs(), step.basis.elements
    # The new sums are the old ones, old + e1, old + e2 and 2*e1, e1 + e2, 2*e2.
    # Take the positive branch (the other mirrors it), c = reach >= d and b = gap,
    # which the placement check keeps >= 0.  The old sums lie in [-2d, 2d]; old + e1
    # in [-3c-d, -3c+d], at or below -2d; old + e2 in [b+3c-d, b+3c+d], at or above
    # 2d; 2*e1 and 2*e2 lie beyond those, and e1 < old < e2 keeps the new sums apart.
    # The pieces touch only at -+2d, when c == d and both +-d are old elements; apart
    # from that, e1 + e2 = b is the one new sum that can repeat an old one.  The
    # window holds +-b, so the set test below is exact there, but 2d can lie past
    # the window: the touching case keeps its own check, with 3c the nearer of -e1, e2.
    new = [s for s in (2 * e1, e1 + e2, 2 * e2) if -window <= s <= window]
    for e in (e1, e2):  # the old elements a with a + e in the window
        new += [a + e for a in old[bisect_left(old, -window - e):bisect_right(old, window - e)]]
    if not sums.isdisjoint(new) or (min(-e1, e2) == 3 * d and d in step.basis and -d in step.basis):
        raise RuntimeError(f"extension of stage {quote(step.k)} collided two pairwise sums")
    sums.update(new)
    basis = step.basis.with_ends(e1, e2)
    gap, positive = min_abs_missing(sums, step.gap)  # the sums only grow: resume at the old gap
    return ConstructionStep(k=step.k + 1, basis=basis, radius=max(-e1, e2), gap=gap, positive_branch=positive)


# --- drivers ----------------------------------------------------------------


def run_with_growth(policy: GrowthPolicy, k_max: int) -> BasisTrace:
    """Run the construction through stage k_max under the given policy.

    Stages 1..k_max-1 carry the reach that extended them; the final stage
    carries none.  Each stage is checked and certified as extend does it,
    with one set of the pair sums that no gap search up to stage k_max
    can pass, however large the elements.  The mode string is made in a
    decimal_io() block, since a table budget writes its integers in decimal.
    """
    if k_max < 1:
        raise ValueError(f"K must be >= 1, got {quote(k_max)}")
    step = initial_state()
    window = _window(1, 2 * k_max)  # every stage's gap equals a search's from 1
    sums = {a + b for a in step.basis for b in step.basis}  # the seed's, all within the window
    steps: list[ConstructionStep] = []
    while step.k < k_max:
        reach = policy.reach_for(step)
        steps.append(ConstructionStep(step.k, step.basis, step.radius, step.gap, step.positive_branch, reach))
        step = _extend(step, _pair(step, reach), sums, window)  # every stage's sums are unique by induction
    steps.append(step)
    with decimal_io():
        return BasisTrace(steps=tuple(steps), mode=policy.descriptor)


def run_greedy(k_max: int) -> BasisTrace:
    """Densest variant: reach = radius at every stage."""
    return run_with_growth(Greedy(), k_max)
