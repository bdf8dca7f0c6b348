"""Brute-force verification, kept independent of the arithmetic kernel.

Every check counts pair sums with its own explicit loops rather than
calling IntSet.self_sumset or IntSet.rep_count, so agreement between
this module and the kernel is evidence, not tautology.

The per-stage checks read one live table from pair sum to count, walked
across the stages of a trace (`_stage_counts`).  Moving to the next stage
removes the pairs that use elements that left and adds the pairs that use
elements that arrived.  A legal stage adds two elements, so it costs
4k + 3 updates and a whole trace of K stages O(K^2), instead of the
O(K^3) of recounting every stage.  A trace whose stages are not nested
goes through the same updates, and its counts stay exact.

The table is walked once per call (`_walk`): the unique-window,
decomposition and gap checks all read it at every stage, the radius
check reads each stage's elements on the same pass, and `rep-scan` reads
the table left after the last stage, whose keys are every pair sum of
the final set.  `verify_trace` runs every check in a fixed order and
returns one row per check; `urbasis verify` only prints those rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterator, Mapping

from .construction import BasisTrace, ConstructionStep
from .digits import quote
from .intset import IntSet


def _witness_order(n: int) -> tuple[int, bool]:
    # smallest |n| first, +n before -n on ties
    return (abs(n), n < 0)


def _pair_counts(elements: tuple[int, ...], lo: int | None = None, hi: int | None = None) -> dict[int, int]:
    """Count every unordered pair sum a + a' (a <= a') by explicit enumeration."""
    counts: dict[int, int] = {}
    for i, a in enumerate(elements):
        for b in elements[i:]:
            s = a + b
            if lo is not None and (s < lo or s > hi):
                continue
            counts[s] = counts.get(s, 0) + 1
    return counts


def pairs_for(a: IntSet, n: int) -> list[tuple[int, int]]:
    """All pairs a1 <= a2 from the set with a1 + a2 = n, by explicit enumeration."""
    els = a.elements
    return [(x, y) for i, x in enumerate(els) for y in els[i:] if x + y == n]


def _stage_counts(trace: BasisTrace) -> Iterator[tuple[ConstructionStep, dict[int, int], set[int]]]:
    """Walk the stages in order, yielding (step, counts, doubled) for each.

    `counts` maps every pair sum a + a' (a <= a') of step.basis to its
    number of pairs; sums with no pair are absent, so its keys are exactly
    the stage's pair sums.  `doubled` holds the sums counted at least
    twice.  Both are the same objects at every stage and are updated in
    place on the next iteration: read them before advancing.
    """
    counts: dict[int, int] = {}
    doubled: set[int] = set()
    live: set[int] = set()
    for step in trace.steps:
        target = set(step.basis.elements)
        for x in [a for a in live if a not in target]:
            for y in live:
                s = x + y
                c = counts[s]
                if c == 1:
                    del counts[s]
                else:
                    counts[s] = c - 1
                    if c == 2:
                        doubled.discard(s)
            live.discard(x)
        for x in step.basis.elements:
            if x in live:
                continue
            live.add(x)
            for y in live:
                s = x + y
                c = counts.get(s, 0) + 1
                counts[s] = c
                if c == 2:
                    doubled.add(s)
        yield step, counts, doubled


@dataclass(frozen=True)
class RepReport:
    """Pair-sum counts over a window [lo, hi].

    `nonzero` holds only sums that occur; zero counts are implicit, which
    keeps reports usable for windows far too wide to materialize.  The
    dense `counts` mapping is built on demand, for small windows only.
    """

    lo: int
    hi: int
    nonzero: Mapping[int, int]

    def count(self, n: int) -> int:
        if not self.lo <= n <= self.hi:
            raise ValueError(f"{quote(n)} outside window [{quote(self.lo)}, {quote(self.hi)}]")
        return self.nonzero.get(n, 0)

    @property
    def counts(self) -> dict[int, int]:
        return {n: self.nonzero.get(n, 0) for n in range(self.lo, self.hi + 1)}

    @property
    def violations(self) -> tuple[int, ...]:
        return tuple(sorted((n for n, c in self.nonzero.items() if c >= 2), key=_witness_order))

    @property
    def gap_count(self) -> int:
        present = sum(1 for n in self.nonzero if self.lo <= n <= self.hi)
        return (self.hi - self.lo + 1) - present


def brute_rep_report(a: IntSet, lo: int, hi: int) -> RepReport:
    """Exhaustively count pair sums of `a` landing in [lo, hi]."""
    if lo > hi:
        raise ValueError(f"invalid window: lo={quote(lo)} exceeds hi={quote(hi)}")
    return RepReport(lo=lo, hi=hi, nonzero=_pair_counts(a.elements, lo, hi))


def default_window(trace: BasisTrace) -> tuple[int, int]:
    """The widest window any pair sum of the final stage can reach.

    Taken from the final elements, not the recorded radius, so a wrong
    radius cannot shrink the scan.
    """
    r = trace.final.basis.max_abs()
    return (-2 * r, 2 * r)


@dataclass(frozen=True)
class Verdict:
    """Outcome of one verification, with a witness when it fails."""

    ok: bool
    check: str
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_unique_window(trace: BasisTrace) -> Verdict:
    """No sum is ever repeated, and stage 2k covers all of [-k, k] exactly once.

    A repeated sum at any stage outranks a gap in coverage: the witness is
    the first stage with a doubled sum, else the first even stage whose
    window holds a count other than 1.  Within a stage the witness is the
    least n by smallest |n|, +n before -n.
    """
    return _walk(trace)[0]["unique-window"]


def verify_decomposition(
    prev: ConstructionStep, nxt: ConstructionStep, *, old_sums: Collection[int] | None = None
) -> Verdict:
    """The new sums split into three disjoint picture pieces.

    With e1, e2 the two added elements, the sums of the extended stage are
    old sums  |_|  (old set + e1)  |_|  (old set + e2)  |_|
    {2*e1, e1 + e2, 2*e2}; the check is that these four parts are pairwise
    disjoint.  Their union is the extended stage's sums by construction,
    once the stages are nested.  The reach the added pair implies must also
    equal the reach recorded on `prev`, when one is recorded.  Inputs that
    are not a legal extension (wrong stage index, added pair off the branch
    rule, reach below radius) are refused with ValueError rather than
    reported as failures.

    `old_sums` is the set of pair sums of prev.basis, for a caller that
    already holds it, such as the keys of a live count table; it is taken
    as given.  When omitted it is counted from prev.basis.
    """
    if nxt.k != prev.k + 1:
        raise ValueError(f"stages are not consecutive: {quote(prev.k)} then {quote(nxt.k)}")
    prev_set = set(prev.basis.elements)
    nxt_set = set(nxt.basis.elements)
    if not prev_set <= nxt_set or len(nxt_set) != len(prev_set) + 2:
        raise ValueError("next stage does not extend the previous one by exactly two elements")
    e_neg, e_pos = sorted(nxt_set - prev_set)
    if e_neg >= 0 or e_pos <= 0:
        raise ValueError(f"added pair [{quote(e_neg)}, {quote(e_pos)}] is not one negative and one positive element")
    if prev.positive_branch:
        anchor, reach3 = e_pos, -e_neg
    else:
        anchor, reach3 = -e_neg, e_pos
    if reach3 % 3 != 0 or anchor != prev.gap + reach3:
        raise ValueError(f"added pair [{quote(e_neg)}, {quote(e_pos)}] "
                         f"does not follow the branch rule for gap {quote(prev.gap)}")
    reach = reach3 // 3
    if reach < prev.radius:
        raise ValueError(f"implied reach {quote(reach)} below radius {quote(prev.radius)}: "
                         "extension precondition violated")
    if prev.reach is not None and prev.reach != reach:
        return Verdict(False, "decomposition", {
            "reason": "reach-mismatch", "stage": prev.k, "recorded": prev.reach, "implied": reach,
        })

    old = prev.basis.elements
    parts = {
        "old-sums": set(_pair_counts(old)) if old_sums is None else old_sums,
        "shift-by-first": {a + e_neg for a in old},
        "shift-by-second": {a + e_pos for a in old},
        "new-pair-sums": {2 * e_neg, e_neg + e_pos, 2 * e_pos},
    }
    names = list(parts)
    for i, p in enumerate(names):
        for q in names[i + 1:]:
            small, large = sorted((parts[p], parts[q]), key=len)
            overlap = [n for n in small if n in large]
            if overlap:
                n = min(overlap, key=_witness_order)
                return Verdict(False, "decomposition", {
                    "reason": "overlap", "stage": nxt.k, "n": n, "parts": [p, q],
                })
    return Verdict(True, "decomposition")


def _gap_fields(gap: int, positive: bool) -> dict:
    # the gap as its trace row records it
    return {"b": gap, "branch": "positive" if positive else "negative"}


def verify_gap_growth(trace: BasisTrace) -> Verdict:
    """The gap sequence starts where it must and keeps climbing.

    Checks: gap at stage 2 equals 2; gap(k) < gap(k+2).  Since gaps are
    integers, the two give gap(2k) >= 2 + (k - 1) = k + 1, which is what
    makes stage 2k cover all of [-k, k].
    """
    gaps = [s.gap for s in trace.steps]
    if len(gaps) < 2:
        raise ValueError("gap growth needs at least two stages")
    if gaps[1] != 2:
        return Verdict(False, "gap-growth", {"rule": "stage-2-gap", "stage": 2, "gap": gaps[1]})
    for i in range(len(gaps) - 2):
        if not gaps[i] < gaps[i + 2]:
            return Verdict(False, "gap-growth", {
                "rule": "two-apart-increase", "stage": i + 1,
                "gap": gaps[i], "gap_two_later": gaps[i + 2],
            })
    return Verdict(True, "gap-growth")


def _walk(trace: BasisTrace) -> tuple[dict[str, Verdict], dict[int, int], set[int]]:
    """Walk the live table once; return each stage check's verdict and the final table.

    The verdicts are keyed by check name: `unique-window`, `decomposition`,
    `radius` (each recorded radius against max |a| of its stage) and `gap`.
    `counts` and `doubled` are the final stage's, as `_stage_counts`
    describes them.
    """
    steps = trace.steps
    repeated = uncovered = decomposition = radius = gap = None
    for i, (step, counts, doubled) in enumerate(_stage_counts(trace)):
        if repeated is None and doubled:
            n = min(doubled, key=_witness_order)
            repeated = {"reason": "repeated-sum", "stage": step.k, "n": n, "pairs": pairs_for(step.basis, n)}
        elif repeated is None and uncovered is None and step.k % 2 == 0:
            half = step.k // 2
            window = (n for n in range(-half, half + 1) if counts.get(n, 0) != 1)
            n = min(window, key=_witness_order, default=None)
            if n is not None:
                uncovered = {"reason": "uncovered", "stage": step.k, "n": n, "count": counts.get(n, 0)}
        if decomposition is None and i + 1 < len(steps):
            try:
                decomposition = verify_decomposition(step, steps[i + 1], old_sums=counts.keys()).witness
            except ValueError as e:
                decomposition = {"refused": str(e), "stage": steps[i + 1].k}
        if radius is None and step.radius != step.basis.max_abs():
            radius = {"reason": "radius-mismatch", "stage": step.k,
                      "recorded": step.radius, "actual": step.basis.max_abs()}
        if gap is None:
            n = 1
            while n in counts and -n in counts:
                n += 1
            positive = n not in counts
            if (step.gap, step.positive_branch) != (n, positive):
                gap = {
                    "reason": "gap-mismatch", "stage": step.k,
                    "recorded": _gap_fields(step.gap, step.positive_branch),
                    "actual": _gap_fields(n, positive),
                }
    if decomposition is None and trace.final.reach is not None:  # no stage follows to place its pair
        decomposition = {"reason": "final-reach", "stage": trace.final.k, "recorded": trace.final.reach}
    witnesses = {"unique-window": repeated or uncovered, "decomposition": decomposition, "radius": radius, "gap": gap}
    verdicts = {check: Verdict(w is None, check, w) for check, w in witnesses.items()}
    return verdicts, counts, doubled


def _verdict_row(v: Verdict) -> dict:
    return {"name": v.check, "ok": v.ok, "witness": v.witness}


def verify_trace(trace: BasisTrace) -> list[dict]:
    """Run every check on a trace, in order, and return one row per check.

    A row holds the check's `name`, `ok` and `witness` (None on a pass),
    as `verify --format json` prints them.  The checks: `rep-scan` over
    the final stage's widest window (with its `window` and number of
    `violations`), `unique-window`, `decomposition` of every consecutive
    pair of stages (with the number of `pairs`; an input that is not a
    legal extension fails with a `refused` witness naming the stage, and
    a reach recorded on the final stage with a `final-reach` witness),
    `gap-growth` when there are two stages or more, `radius` and `gap`.
    One walk of the live table feeds every check but `gap-growth`.
    """
    lo, hi = default_window(trace)
    verdicts, counts, doubled = _walk(trace)
    witness = None
    if doubled:  # every pair sum of the final set lies in [lo, hi]
        n = min(doubled, key=_witness_order)
        witness = {"n": n, "count": counts[n], "pairs": pairs_for(trace.final.basis, n)}
    rows = [
        {"name": "rep-scan", "ok": not doubled, "witness": witness,
         "window": [lo, hi], "violations": len(doubled)},
        _verdict_row(verdicts["unique-window"]),
        {**_verdict_row(verdicts["decomposition"]), "pairs": len(trace.steps) - 1},
    ]
    if len(trace.steps) >= 2:
        rows.append(_verdict_row(verify_gap_growth(trace)))
    rows.extend(_verdict_row(verdicts[check]) for check in ("radius", "gap"))
    return rows
