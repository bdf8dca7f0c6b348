"""Reference extension step that keeps the whole set of pairwise sums.

This is the body `urbasis.construction.extend` had before it certified
each new pair by the interval argument: it builds the old stage's pair
sums, adds the 4k + 3 sums of the new pair and requires the set to grow
by exactly that many.  It shares no uniqueness or gap-search code with
the package; the tests compare the two on seeded, corrupted steps and
require the same step or the same exception type.
"""

from urbasis import ConstructionStep, IntSet


def extend(step, reach):
    if reach < step.radius:
        raise ValueError(f"reach {reach} below radius {step.radius} at stage {step.k}")
    far = step.gap + 3 * reach
    if step.positive_branch:
        e1, e2 = -3 * reach, far
    else:
        e1, e2 = -far, 3 * reach
    old = step.basis.elements
    if not (e1 < old[0] and old[-1] < e2 and max(-e1, e2) == far):
        raise RuntimeError(f"extension of stage {step.k} misplaced its new pair")
    sums = {a + b for i, a in enumerate(old) for b in old[i:]}
    if len(sums) != len(old) * (len(old) + 1) // 2:
        raise RuntimeError(f"stage {step.k} already repeats a pairwise sum")
    before = len(sums)
    sums.update([a + e1 for a in old])
    sums.update([a + e2 for a in old])
    sums.update((2 * e1, e1 + e2, 2 * e2))
    if len(sums) != before + 2 * len(old) + 3:
        raise RuntimeError(f"extension of stage {step.k} collided two pairwise sums")
    if step.gap < 1:
        raise ValueError(f"start must be >= 1, got {step.gap}")
    b = step.gap
    while b in sums and -b in sums:
        b += 1
    return ConstructionStep(
        k=step.k + 1, basis=IntSet((e1,) + old + (e2,)), radius=far, gap=b, positive_branch=b not in sums
    )
