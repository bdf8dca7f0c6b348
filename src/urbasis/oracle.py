"""Brute-force verification, kept independent of the arithmetic kernel.

Every check finds pair sums with its own explicit loops rather than
calling IntSet.self_sumset or min_abs_missing, so agreement between this
module and the kernel is evidence, not tautology.  At run time it imports
no kernel module, only `digits` and `record`.

`verify_trace` decides its rows from one pass over the trace's nested
prefix (`_walk`): the longest run of stages in which each stage holds
every element of the one before; `_nested_stages` works out once what
each of its stages adds.

The pieces pass (`_pieces`) runs first.  Where each stage adds one
element far enough below the old ones and one far enough above, the
stage's sums split into picture pieces whose intervals lie apart, as
their end points show, and only the added pair's sum can repeat an old
one, which the sums near zero decide; its docstring has the proof.  At
the first stage it cannot decide that way (a stage that adds other than
such a pair, pieces whose intervals touch or overlap, an added pair
whose sum lies far from zero or repeats), the whole prefix goes to the
pair-sum pass (`_repeats`), which is also the reference the tests
compare the pieces pass with.  It makes every pair sum: each element of
the prefix is tagged with the first stage that holds it, and a pair
a + a' (a <= a') is live from the later of its two tags on.  One k-way
merge of sorted runs of sums reads them in (sum, tag) order, so the
second pair of each sum names the stage at which it repeats, and memory
holds one pending sum per run.  From either pass:

- `unique-window` reads the least stage at which a sum repeats, and
  `decomposition` the least stage >= 2 at which an arriving pair meets a
  sum already met; the stage's added pair tells which picture piece each
  of that sum's pairs belongs to.
- `gap`, and the coverage half of `unique-window`, read the first stage
  that holds each sum n with |n| <= m(m + 1)/4 + 1, for the m elements of
  the last nested stage.  No stage of the prefix has more than m
  elements, so none covers more than m(m + 1)/2 sums, and no gap can lie
  past that bound.
- `rep-scan` counts the final set's repeated sums.

`decomposition` also checks each added pair against the branch rule and
the recorded reach (`_placement`), and `radius` reads each stage's
largest |a|; both cost O(k) per stage.  `verify_decomposition` checks
one pair of stages by the same placement and a pair-sum pass over the
two.  The pair-sum pass costs a K-stage trace O(K^2) sums, each one
step of a heap of O(K) runs; the pieces pass O(log K) bisections per
stage, and the sums near zero it records.

A stage that drops an element ends the nested prefix, and
`decomposition` refuses it.  `unique-window` and `gap` then report their
failure within the prefix if there is one, and otherwise fail with a
`not-nested` witness naming that stage.  `radius` and `rep-scan` stay
exact on every trace, `rep-scan` by a second, untagged pair-sum pass
over the final set.  `verify_trace` makes one row per check, in a fixed
order, from the witnesses `_walk` returns; `urbasis verify` only prints
them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import merge
from itertools import combinations, groupby, islice, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Collection, Container, Mapping, Sequence

from .digits import quote
from .record import Record

if TYPE_CHECKING:
    from .intset import IntSet
    from .record import BasisTrace, ConstructionStep

# the picture pieces of a decomposition, in the order their overlaps are checked
_PIECES = ("old-sums", "shift-by-first", "shift-by-second", "new-pair-sums")


def _witness_order(n: int) -> tuple[int, bool]:
    # smallest |n| first, +n before -n on ties
    return (abs(n), n < 0)


def _pairs(elements: Sequence[int], members: Container[int], n: int) -> list[tuple[int, int]]:
    # the pairs a <= a' with a + a' = n, in order of a; `members` holds the elements
    return [(a, n - a) for a in elements if 2 * a <= n and n - a in members]


def pairs_for(a: IntSet, n: int) -> list[tuple[int, int]]:
    """All pairs a1 <= a2 from the set with a1 + a2 = n, by looking up n - a1 for each element a1."""
    return _pairs(a.elements, set(a.elements), n)


class RepReport(Record):
    """Pair-sum counts over a window [lo, hi].

    `nonzero` holds only sums that occur; zero counts are implicit, which
    keeps reports usable for windows far too wide to materialize.  The
    dense `counts` mapping is built on demand, for small windows only.
    """

    __match_args__ = ("lo", "hi", "nonzero")

    def __init__(self, lo: int, hi: int, nonzero: Mapping[int, int]) -> None:
        self._set(lo, hi, nonzero)

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
    """Exhaustively count the pair sums x + y (x <= y) of `a` landing in [lo, hi]."""
    if lo > hi:
        raise ValueError(f"invalid window: lo={quote(lo)} exceeds hi={quote(hi)}")
    counts: dict[int, int] = {}
    elements = a.elements
    for i, x in enumerate(elements):
        for y in elements[i:]:
            s = x + y
            if lo <= s <= hi:
                counts[s] = counts.get(s, 0) + 1
    return RepReport(lo=lo, hi=hi, nonzero=counts)


def default_window(trace: BasisTrace) -> tuple[int, int]:
    """The widest window any pair sum of the final stage can reach.

    Taken from the final elements, not the recorded radius, so a wrong
    radius cannot shrink the scan.
    """
    r = trace.final.basis.max_abs()
    return (-2 * r, 2 * r)


class Verdict(Record):
    """Outcome of one verification, with a witness when it fails."""

    __match_args__ = ("ok", "check", "witness")

    def __init__(self, ok: bool, check: str, witness: dict | None = None) -> None:
        self._set(ok, check, witness)

    def __bool__(self) -> bool:
        return self.ok


def verify_unique_window(trace: BasisTrace) -> Verdict:
    """No sum is ever repeated, and stage 2k covers all of [-k, k] exactly once.

    A repeated sum at any stage outranks a gap in coverage: the witness is
    the first stage with a doubled sum, else the first even stage whose
    window holds a count other than 1.  Within a stage the witness is the
    least n by smallest |n|, +n before -n.  On a trace whose stages stop
    nesting, only the nested prefix is read, as the module docstring says.
    """
    witness = _walk(trace)[0]["unique-window"]
    return Verdict(witness is None, "unique-window", witness)


def _placement(prev: ConstructionStep, nxt: ConstructionStep, added: list[int] | None) -> dict | None:
    """Check the pair that extends `prev` to `nxt`: the reach-mismatch witness, or None.

    `added` is nxt's elements that prev lacks, sorted, or None when nxt
    does not hold all of prev's.  An extension that is not legal (wrong
    stage index, not exactly two added elements, an added pair off the
    branch rule, reach below radius) raises ValueError.
    """
    if nxt.k != prev.k + 1:
        raise ValueError(f"stages are not consecutive: {quote(prev.k)} then {quote(nxt.k)}")
    if added is None or len(added) != 2:
        raise ValueError("next stage does not extend the previous one by exactly two elements")
    e_neg, e_pos = added
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
        return {"reason": "reach-mismatch", "stage": prev.k, "recorded": prev.reach, "implied": reach}
    return None


def verify_decomposition(prev: ConstructionStep, nxt: ConstructionStep) -> Verdict:
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
    """
    stages = _nested_stages([prev.basis.elements, nxt.basis.elements])
    added = stages[1][1] if len(stages) == 2 else None
    witness = _placement(prev, nxt, added)
    if witness:
        return Verdict(False, "decomposition", witness)
    found = _repeats(stages)  # stage 2 repeats a sum only across pieces
    if found.overlap is not None:
        return Verdict(False, "decomposition", _overlap(nxt.basis.elements, added, found.overlap[1], nxt.k))
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


# --- the passes ------------------------------------------------------------


class _Repeats:
    """What `_repeats` or `_pieces` finds among the pair sums of a nested run of stages.

    count    how many sums have two pairs or more in the last stage
    least    the least of those sums by witness order, or None
    second   (stage, n): the least stage at which a sum repeats, and the
             least sum repeated there; None when no sum repeats
    overlap  (stage, sums): the least stage >= 2 at which an arriving
             pair meets a sum already met, and every such sum
    first    sum -> the first stage that holds it, for the sums with
             |n| <= the pass's `near`
    """

    def __init__(self) -> None:  # not a Record: a pass updates it
        self.count = 0
        self.least: int | None = None
        self.second: tuple[int, int] | None = None
        self.overlap: tuple[int, set[int]] | None = None
        self.first: dict[int, int] = {}


def _pieces(stages: list[tuple[Sequence[int], Sequence[int]]], near: int) -> _Repeats | None:
    """What `_repeats(stages, near)` finds on a run in which no stage repeats a sum, read from the picture pieces.

    Returns None, and leaves the run to `_repeats`, at the first stage it
    cannot decide.  Stage 1 must add two elements e1 < e2.  A later stage,
    with old elements lo..hi, must add two elements e1 < e2, and its sums
    are the pieces P0 = old + old, P1 = e1 + old, P2 = e2 + old and the
    three sums 2e1, e1 + e2 and 2e2.  It is decided when

    (a) e1 + hi < 2lo and 2hi < e2 + lo, so P1 ends below P0 and P2
        starts above it, and
    (b) |e1 + e2| <= near, and none of the stage's new sums with
        |n| <= near (e1 + e2, 2e1 and 2e2 when near, and the e + a of P1
        and P2 there, by bisecting old) is in `first` yet; each is then
        entered with the stage.

    Every stage the builder places meets (a).  With reach c >= radius d,
    one side of (a) fails only when c = d and both +-d are old, and the
    other only when, besides, the gap is 0: the touching case that
    `construction._extend` refuses.  A stage whose pieces touch or
    overlap is left to `_repeats`.

    Claim: when every stage is decided, (i) no stage repeats a sum, and
    (ii) after stage s, `first` holds exactly the sums of stage s with
    |n| <= near, each mapped to the least stage that holds it.  So
    `_repeats` would find count 0, no `least`, `second` or `overlap`, and
    the same `first`, which is what this returns.

    Proof, by induction on s.  Stage 1's sums are 2e1 < e1 + e2 < 2e2,
    distinct, and `first` starts empty.  At a stage s >= 2, (a) gives
    e1 < 2lo - hi <= lo and e2 > 2hi - lo >= hi, so e1 is the least
    element and e2 the greatest.  A pair a <= a' of the stage's elements
    lies in exactly one piece, read from which of e1 and e2 it holds: a
    pair of e1 and an old element is (e1, a'), and likewise for e2.
    Within a piece the sums are distinct: in P0 by (i) at s - 1, whose
    elements are old; in P1 and P2 because a -> e + a is one-to-one; and
    2e1 < e1 + e2 < 2e2.  So the stage repeats a sum exactly when two
    pieces share one.  Every pair but (e1, e1) holds an element above e1
    and none below, so 2e1 lies below every other sum, and 2e2 likewise
    above.  P0 lies in [2lo, 2hi], and by (a) P1 in [e1 + lo, e1 + hi]
    lies below it and P2 in [e2 + lo, e2 + hi] above it; and
    e1 + hi < e1 + e2 < e2 + lo puts e1 + e2 strictly between P1 and P2.
    Last, e1 + e2 against P0: stage s - 1's sums are P0, so by (ii) at
    s - 1 `first` holds exactly P0's sums with |n| <= near, and (b) finds
    e1 + e2 there exactly when it is in P0.  That is (i) at s.  The sums
    of stage s are P0 and the new sums, which (i) keeps out of P0; the
    stages nest, so every earlier stage's sums lie in P0, and s is the
    least stage that holds each new sum, which is (ii) at s.

    The builder's `_extend` trusts the same argument, so this pass is not
    independent of it the way `_repeats` is; `_repeats` stays the
    reference the tests compare this pass with.  A stage costs four
    bisections of its k old elements and the sums it enters in (b);
    nothing else of old is read.
    """
    first: dict[int, int] = {}
    for s, (old, added) in enumerate(stages, 1):
        if len(added) != 2:
            return None
        e1, e2 = added
        if abs(e1 + e2) > near:
            return None
        new = [n for n in (2 * e1, e1 + e2, 2 * e2) if -near <= n <= near]
        if old:
            lo, hi = old[0], old[-1]
            if not (e1 + hi < 2 * lo and 2 * hi < e2 + lo):
                return None
            for e in added:
                new += map(e.__add__, old[bisect_left(old, -near - e):bisect_right(old, near - e)])
        for n in new:
            if n in first:
                return None
            first[n] = s
    found = _Repeats()
    found.first = first
    return found


def _repeats(stages: list[tuple[Sequence[int], Sequence[int]]], near: int | None = None) -> _Repeats:
    """One pass over the pair sums of the last of `stages`, a nested run.

    `stages` holds (old, added) per stage: the sorted elements of the stage
    before it, and the sorted elements that arrive.  The pairs are cut into
    runs, the sums e + c for c in old, or in added from e on, with e an
    added element; so every pair lies in exactly one run, which carries the
    pair's stage.  Each run is sorted, and one k-way merge reads them all in
    (sum, stage) order, so each group of equal sums lists the stages of its
    pairs from the first: the first stage that holds the sum, then each
    stage at which it is met again.  Memory holds one pending sum per run
    and one group: O(K) sums for K stages, not the O(K^2) pair sums.
    `first` is kept at |n| <= `near`, when a near bound is given.
    """
    found = _Repeats()
    runs = [zip(map(e.__add__, cols), repeat(s))
            for s, (old, added) in enumerate(stages, 1)
            for i, e in enumerate(added)
            for cols in (old, islice(added, i, None))]
    for n, group in groupby(merge(*runs), itemgetter(0)):
        first, *later = map(itemgetter(1), group)
        if near is not None and -near <= n <= near:
            found.first[n] = first
        if not later:
            continue
        found.count += 1
        order = _witness_order(n)
        if found.least is None or order < _witness_order(found.least):
            found.least = n
        if found.second is None or (later[0], order) < (found.second[0], _witness_order(found.second[1])):
            found.second = (later[0], n)
        s = next((s for s in later if s >= 2), None)  # the least stage >= 2 at which a pair meets n again
        if s is not None and (found.overlap is None or s < found.overlap[0]):
            found.overlap = (s, {n})
        elif found.overlap is not None and s == found.overlap[0]:
            found.overlap[1].add(n)
    return found


def _nested_stages(element_lists: Sequence[Sequence[int]]) -> list[tuple[Sequence[int], list[int]]]:
    """(old, added) for each stage of the nested prefix of the sorted element lists, as `_repeats` reads them."""
    stages: list[tuple[Sequence[int], list[int]]] = []
    before: Sequence[int] = ()
    for now in element_lists:
        if len(now) == len(before) + 2 and now[1:-1] == before:  # one new element at each end
            stages.append((before, [now[0], now[-1]]))
        elif set(before) <= set(now):
            stages.append((before, sorted(set(now).difference(before))))
        else:
            break
        before = now
    return stages


def _overlap(elements: tuple[int, ...], pair: list[int], sums: Collection[int], stage: int) -> dict:
    """The decomposition witness at `stage`, whose added `pair` meets each of `sums` again.

    Each pair of the stage lies in one picture piece: old-sums when it
    holds no added element, new-pair-sums when both are added, else the
    shift by the added element it holds.  Every sum given lies in two
    pieces or more; the witness takes the first two pieces in check order,
    then the least sum by witness order.
    """
    e_neg, e_pos = pair
    members = set(elements)

    def piece(a: int, b: int) -> int:  # an index into _PIECES
        if a in pair and b in pair:
            return 3
        if e_neg in (a, b):
            return 1
        return 2 if e_pos in (a, b) else 0

    (p, q), _, n = min(
        (two, _witness_order(n), n)
        for n in sums
        for two in combinations(sorted({piece(a, b) for a, b in _pairs(elements, members, n)}), 2)
    )
    return {"reason": "overlap", "stage": stage, "n": n, "parts": [_PIECES[p], _PIECES[q]]}


def _walk(trace: BasisTrace) -> tuple[dict[str, dict | None], int]:
    """Decide every row but `gap-growth` in one pass over the nested prefix: `_pieces`, else `_repeats`.

    Returns each check's witness, None on a pass, keyed by check name in
    row order (`rep-scan`, `unique-window`, `decomposition`, `radius` and
    `gap`), and the number of the final set's sums that repeat.
    """
    steps = trace.steps
    stages = _nested_stages([step.basis.elements for step in steps])
    nested = len(stages)

    decomposition, placed_before = None, len(steps) + 1
    for prev, nxt in zip(steps, steps[1:]):
        try:
            decomposition = _placement(prev, nxt, stages[nxt.k - 1][1] if nxt.k <= nested else None)
        except ValueError as e:
            decomposition = {"refused": str(e), "stage": nxt.k}
        if decomposition:
            placed_before = nxt.k
            break

    m = len(steps[nested - 1].basis)
    near = m * (m + 1) // 4 + 1
    found = _pieces(stages, near) or _repeats(stages, near=near)
    if found.overlap is not None and found.overlap[0] < placed_before:  # the least overlap decides if any does
        s, sums = found.overlap
        decomposition = _overlap(steps[s - 1].basis.elements, stages[s - 1][1], sums, s)
    if decomposition is None and trace.final.reach is not None:  # no stage follows to place its pair
        decomposition = {"reason": "final-reach", "stage": trace.final.k, "recorded": trace.final.reach}

    # the gap of each nested stage, from the first stage that holds each sum near zero
    first, never = found.first, nested + 1
    gaps, g = [], 1
    for s in range(1, nested + 1):
        while max(first.get(g, never), first.get(-g, never)) <= s:
            g += 1
        gaps.append((g, first.get(g, never) > s))

    unique = None
    if found.second is not None:
        s, n = found.second
        unique = {"reason": "repeated-sum", "stage": s, "n": n, "pairs": pairs_for(steps[s - 1].basis, n)}
    else:  # no sum repeats, so a sum of stage 2k is missing from [-k, k] exactly when its count is not 1
        for s in range(2, nested + 1, 2):
            g, positive = gaps[s - 1]
            if first.get(0, never) > s:
                n = 0
            elif g <= s // 2:
                n = g if positive else -g
            else:
                continue
            unique = {"reason": "uncovered", "stage": s, "n": n, "count": 0}
            break

    gap = None
    for step, (g, positive) in zip(steps, gaps):
        if (step.gap, step.positive_branch) != (g, positive):
            gap = {
                "reason": "gap-mismatch", "stage": step.k,
                "recorded": _gap_fields(step.gap, step.positive_branch),
                "actual": _gap_fields(g, positive),
            }
            break

    if nested < len(steps):
        unique = unique or {"reason": "not-nested", "stage": nested + 1}
        gap = gap or {"reason": "not-nested", "stage": nested + 1}
        found = _repeats(_nested_stages([trace.final.basis.elements]))

    rep_scan = None
    if found.least is not None:  # every pair sum of the final set lies in its default window
        pairs = pairs_for(trace.final.basis, found.least)
        rep_scan = {"n": found.least, "count": len(pairs), "pairs": pairs}

    radius = None
    for step in steps:
        if step.radius != step.basis.max_abs():
            radius = {"reason": "radius-mismatch", "stage": step.k,
                      "recorded": step.radius, "actual": step.basis.max_abs()}
            break

    witnesses = {"rep-scan": rep_scan, "unique-window": unique, "decomposition": decomposition,
                 "radius": radius, "gap": gap}
    return witnesses, found.count


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
    One pass over the nested prefix feeds every check but `gap-growth`:
    the pieces pass, or the pair-sum pass where that cannot decide.
    """
    witnesses, violations = _walk(trace)
    rows = [{"name": check, "ok": w is None, "witness": w} for check, w in witnesses.items()]
    rows[0].update(window=list(default_window(trace)), violations=violations)
    rows[2]["pairs"] = len(trace.steps) - 1
    if len(trace.steps) >= 2:
        growth = verify_gap_growth(trace)
        rows.insert(3, {"name": growth.check, "ok": growth.ok, "witness": growth.witness})
    return rows
