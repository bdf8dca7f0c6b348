"""Brute-force oracle: reports, verifications, and refusals."""

import random
import tracemalloc
from records import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urbasis import (
    BasisTrace,
    ConstructionStep,
    ExplicitReaches,
    IntSet,
    LogGrowth,
    LogLogGrowth,
    ThresholdTable,
    brute_rep_report,
    default_window,
    extend,
    initial_state,
    min_abs_missing,
    pairs_for,
    run_greedy,
    run_with_growth,
    verify_decomposition,
    verify_gap_growth,
    verify_unique_window,
)
import urbasis.oracle
from urbasis.cli import _repr
from urbasis.oracle import _nested_stages, _pieces, _repeats, verify_trace

import reference_oracle

A2 = IntSet((-4, 0, 1, 3))

# pairwise sums of the third greedy stage, frozen after independent recount
SUMS_3 = (-28, -18, -14, -13, -11, -8, -4, -3, -2, -1, 0,
          1, 2, 3, 4, 6, 8, 12, 13, 15, 24)


class TestRepReport:
    def test_seed_window(self):
        report = brute_rep_report(IntSet((0, 1)), 0, 2)
        assert report.counts == {0: 1, 1: 1, 2: 1}
        assert report.violations == ()
        assert report.gap_count == 0

    def test_stage_two_window(self):
        report = brute_rep_report(A2, -1, 4)
        assert report.counts == {n: 1 for n in range(-1, 5)}

    def test_empty_set(self):
        report = brute_rep_report(IntSet(), 0, 0)
        assert report.counts == {0: 0}
        assert [n for n, c in report.counts.items() if c == 0] == [0]
        assert report.gap_count == 1

    def test_rejects_inverted_window(self):
        with pytest.raises(ValueError):
            brute_rep_report(A2, 4, -4)

    def test_violation_ordering(self):
        # 0 and 2 are both doubled; 0 must come first (smallest |n|)
        doubled = IntSet((-4, -2, 0, 1, 2, 4))
        report = brute_rep_report(doubled, -10, 10)
        assert report.violations[0] == 0
        assert all(abs(report.violations[i]) <= abs(report.violations[i + 1])
                   for i in range(len(report.violations) - 1))

    def test_count_outside_window_rejected(self):
        report = brute_rep_report(A2, -1, 4)
        with pytest.raises(ValueError):
            report.count(5)

    def test_sparse_beats_huge_window(self):
        report = brute_rep_report(A2, -10**15, 10**15)
        assert report.violations == ()
        assert report.gap_count == 2 * 10**15 + 1 - 10

    @settings(max_examples=100)
    @given(st.frozensets(st.integers(-50, 50), max_size=12).map(IntSet.of),
           st.integers(-120, 120))
    def test_agrees_with_kernel(self, a, n):
        """The explicit double loop and the kernel count never diverge."""
        report = brute_rep_report(a, -120, 120)
        assert report.count(n) == a.rep_count(n)

    def test_pairs_for(self):
        assert pairs_for(IntSet((-4, 0, 1, 4)), 0) == [(-4, 4), (0, 0)]


class TestWindows:
    def test_default_window(self, greedy4):
        assert default_window(greedy4) == (-94, 94)


class TestUniqueWindow:
    def test_greedy_passes(self, greedy4):
        assert verify_unique_window(greedy4)

    def test_stage_two_guarantee(self):
        assert verify_unique_window(run_greedy(2))

    def test_detects_repeated_sum(self, greedy4):
        final = greedy4.final
        spiked = replace(final, basis=IntSet.of(final.basis.elements + (-47,)))
        broken = BasisTrace(steps=greedy4.steps[:-1] + (spiked,), mode="corrupt")
        verdict = verify_unique_window(broken)
        assert not verdict
        assert verdict.witness["reason"] == "repeated-sum"
        assert verdict.witness["n"] == 0
        assert (-47, 47) in [tuple(p) for p in verdict.witness["pairs"]]

    def test_detects_uncovered_value(self, greedy4):
        # drop -4 from every stage that holds it: the stages still nest, and stage 2 loses -1 = -4 + 3
        steps = tuple(replace(s, basis=IntSet.of(a for a in s.basis if a != -4)) for s in greedy4.steps)
        verdict = verify_unique_window(BasisTrace(steps=steps, mode="corrupt"))
        assert not verdict
        assert verdict.witness == {"reason": "uncovered", "stage": 2, "n": -1, "count": 0}

    def test_reads_only_the_nested_prefix(self, greedy4):
        # the final stage drops -4, which stages 2 and 3 hold: stages 1-3 pass, so the row names stage 4
        final = greedy4.final
        pruned = IntSet.of(a for a in final.basis if a != -4)
        spiked = replace(final, basis=IntSet.of(pruned.elements + (1000,)))
        broken = BasisTrace(steps=greedy4.steps[:-1] + (spiked,), mode="corrupt")
        verdict = verify_unique_window(broken)
        assert not verdict
        assert verdict.witness == {"reason": "not-nested", "stage": 4}


class TestDecomposition:
    def test_first_extension(self):
        s1 = initial_state()
        s2 = extend(s1, 1)
        assert verify_decomposition(s1, s2)

    def test_union_reproduces_stage_three_sums(self):
        trace = run_greedy(3)
        assert verify_decomposition(trace.step(2), trace.step(3))
        assert trace.step(3).basis.self_sumset().elements == SUMS_3

    def test_positive_branch_extension(self):
        trace = run_greedy(4)
        assert verify_decomposition(trace.step(3), trace.step(4))

    def test_refusal_message_outside_decimal_io(self):
        steps = run_with_growth(ExplicitReaches((1, 10**5000)), 3).steps
        flipped = replace(steps[1], positive_branch=not steps[1].positive_branch)
        with pytest.raises(ValueError) as refused:
            verify_decomposition(flipped, steps[2])
        assert str(refused.value) == (
            "added pair [-<5001-digit integer>, <5001-digit integer>] does not follow the branch rule for gap 2"
        )

    def test_all_consecutive_pairs(self, greedy12):
        for prev, nxt in zip(greedy12.steps, greedy12.steps[1:]):
            assert verify_decomposition(prev, nxt)

    def test_refuses_reach_below_radius(self):
        trace = run_greedy(2)
        s2 = trace.step(2)  # radius 4
        fake = replace(
            s2,
            k=3,
            basis=IntSet.of(s2.basis.elements + (-(s2.gap + 6), 6)),  # implied reach 2 < 4
        )
        with pytest.raises(ValueError, match="reach 2 below radius 4"):
            verify_decomposition(s2, fake)

    def test_refuses_nonconsecutive_stages(self, greedy4):
        with pytest.raises(ValueError, match="consecutive"):
            verify_decomposition(greedy4.step(1), greedy4.step(3))

    def test_refuses_off_rule_pair(self):
        s1 = initial_state()
        fake = replace(s1, k=2, basis=IntSet.of(s1.basis.elements + (-6, 5)))
        with pytest.raises(ValueError, match="branch rule"):
            verify_decomposition(s1, fake)

    def test_detects_overlap(self):
        # stored radius corrupted to 1, letting a too-small reach through the
        # gate; the shifted copy then collides with the old sums
        trace = run_greedy(2)
        s2 = trace.step(2)
        lying = replace(s2, radius=1)
        fake_next = replace(s2, k=3, basis=IntSet.of(s2.basis.elements + (-8, 6)))
        verdict = verify_decomposition(lying, fake_next)
        assert not verdict
        assert verdict.witness["reason"] == "overlap"
        assert verdict.witness["n"] == -8  # -4 + -4 collides with 0 + (-8)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 9), min_size=1, max_size=5))
    def test_holds_for_any_admissible_reaches(self, slack):
        s = initial_state()
        for extra in slack:
            nxt = extend(s, s.radius + extra)
            assert verify_decomposition(s, nxt)
            s = nxt

    def test_matches_the_reference_on_seeded_stage_pairs(self):
        # greedy stage pairs, then random old sets extended by the branch rule under a recorded radius
        # and reach that may lie, so that many pairs overlap and some are refused or mismatch their reach
        pairs = [p for t in map(run_greedy, (12, 30, 60)) for p in zip(t.steps, t.steps[1:])]
        rng = random.Random(2002)
        while len(pairs) < 10_000:
            old = IntSet.of(rng.sample(range(-40, 41), rng.randint(1, 12)))
            radius = rng.randint(1, old.max_abs() or 1)
            reach = rng.randint(radius - 1, old.max_abs() + 3)
            prev = ConstructionStep(k=rng.randint(1, 9), basis=old, radius=radius, gap=rng.randint(1, 20),
                                    positive_branch=rng.random() < 0.5,
                                    reach=rng.choice([None, reach, reach + 1]))
            anchor = prev.gap + 3 * reach
            pair = (-3 * reach, anchor) if prev.positive_branch else (-anchor, 3 * reach)
            pairs.append((prev, replace(prev, k=prev.k + 1, basis=IntSet.of(old.elements + pair), reach=None)))
        overlaps = 0
        for prev, nxt in pairs:
            try:
                expected = reference_oracle.verify_decomposition(prev, nxt)
            except ValueError:
                with pytest.raises(ValueError):
                    verify_decomposition(prev, nxt)
                continue
            assert verify_decomposition(prev, nxt) == expected
            overlaps += not expected and expected.witness["reason"] == "overlap"
        assert overlaps >= 1000


class TestGapGrowth:
    def test_greedy_passes(self, greedy12):
        assert verify_gap_growth(greedy12)

    def test_short_trace_passes(self):
        assert verify_gap_growth(run_greedy(2))

    def test_needs_two_stages(self):
        with pytest.raises(ValueError):
            verify_gap_growth(run_greedy(1))

    def test_detects_low_even_gap(self, greedy4):
        # report stage 4 with gap 2: gap(2) < gap(4) fails, and with it the floor gap(2k) >= k+1 at k=2
        steps = list(greedy4.steps)
        steps[3] = replace(steps[3], gap=2)
        verdict = verify_gap_growth(BasisTrace(steps=tuple(steps), mode="corrupt"))
        assert not verdict
        assert verdict.witness == {"rule": "two-apart-increase", "stage": 2, "gap": 2, "gap_two_later": 2}

    def test_detects_wrong_second_gap(self, greedy4):
        steps = list(greedy4.steps)
        steps[1] = replace(steps[1], gap=3)
        verdict = verify_gap_growth(BasisTrace(steps=tuple(steps), mode="corrupt"))
        assert not verdict
        assert verdict.witness["rule"] == "stage-2-gap"


def _gap_row(trace):
    return next(row for row in verify_trace(trace) if row["name"] == "gap")


class TestGaps:
    def test_greedy_passes(self, greedy12):
        assert _gap_row(greedy12)["ok"]

    def test_explicit_passes(self, slow10):
        assert _gap_row(slow10)["ok"]

    def test_detects_wrong_gap_mid_trace(self, greedy12):
        steps = list(greedy12.steps)
        steps[4] = replace(steps[4], gap=steps[4].gap + 1)
        row = _gap_row(BasisTrace(steps=tuple(steps), mode="corrupt"))
        assert not row["ok"]
        branch = "positive" if steps[4].positive_branch else "negative"
        assert row["witness"] == {
            "reason": "gap-mismatch", "stage": 5,
            "recorded": {"b": steps[4].gap, "branch": branch},
            "actual": {"b": steps[4].gap - 1, "branch": branch},
        }


class TestRadii:
    def test_detects_wrong_radius_mid_trace(self, greedy4):
        steps = list(greedy4.steps)
        steps[2] = replace(steps[2], radius=steps[2].radius + 1)
        row = next(row for row in verify_trace(BasisTrace(steps=tuple(steps))) if row["name"] == "radius")
        assert not row["ok"]
        assert row["witness"] == {
            "reason": "radius-mismatch", "stage": 3,
            "recorded": greedy4.step(3).radius + 1, "actual": greedy4.step(3).radius,
        }


class TestVerifyTrace:
    def test_greedy_rows_in_order(self, greedy12):
        rows = verify_trace(greedy12)
        assert [row["name"] for row in rows] == [
            "rep-scan", "unique-window", "decomposition", "gap-growth", "radius", "gap",
        ]
        assert all(row["ok"] and row["witness"] is None for row in rows)
        assert rows[0]["window"] == list(default_window(greedy12)) and rows[0]["violations"] == 0
        assert rows[2]["pairs"] == 11

    def test_single_stage_has_no_gap_growth_row(self):
        rows = verify_trace(run_greedy(1))
        assert [row["name"] for row in rows] == ["rep-scan", "unique-window", "decomposition", "radius", "gap"]
        assert rows[2]["pairs"] == 0

    def test_refusal_message_past_interpreter_digit_limit(self):
        trace = run_with_growth(ExplicitReaches((1, 10**5000)), 3)
        steps = list(trace.steps)
        steps[1] = replace(steps[1], positive_branch=not steps[1].positive_branch)
        rows = {row["name"]: row for row in verify_trace(BasisTrace(steps=tuple(steps)))}
        witness = rows["decomposition"]["witness"]
        assert witness == {
            "stage": 3,
            "refused": "added pair [-<5001-digit integer>, <5001-digit integer>] "
                       "does not follow the branch rule for gap 2",
        }

    @pytest.mark.parametrize("corrupted", [False, True], ids=["greedy-12", "corrupted"])
    def test_makes_one_tagged_pass(self, monkeypatch, corrupted):
        # the pieces pass decides the legal nested prefix, so the tagged pass runs only on the final set
        # of the corrupted trace, whose stages 7-12 hold -12 for -14
        trace = run_greedy(12)
        if corrupted:
            trace = _corrupt(random.Random(0), trace)
        nested = len(_nested_stages([step.basis.elements for step in trace.steps]))
        assert (nested < 12) is corrupted
        expected = verify_trace(trace)
        assert expected[0]["ok"] is not corrupted  # the corrupted trace fails rep-scan
        passes, decided = [], []

        def counted(stages, *args, **kwargs):
            passes.append(len(stages))
            return _repeats(stages, *args, **kwargs)

        def recorded(stages, near):
            found = _pieces(stages, near)
            decided.append((len(stages), found is not None))
            return found

        def forbidden(*args):
            raise AssertionError("rep-scan recounted the final set")
        monkeypatch.setattr(urbasis.oracle, "_repeats", counted)
        monkeypatch.setattr(urbasis.oracle, "_pieces", recorded)
        monkeypatch.setattr(urbasis.oracle, "brute_rep_report", forbidden)
        assert verify_trace(trace) == expected
        assert decided == [(nested, True)]
        assert passes == ([1] if corrupted else [])

    def test_memory_stays_bounded(self, monkeypatch):
        trace = run_greedy(320)  # 205,120 pair sums, which a table of every sum held in 26.7 MB
        monkeypatch.setattr(urbasis.oracle, "_pieces", lambda stages, near: None)  # the pair-sum pass's bound
        tracemalloc.start()
        try:
            assert all(row["ok"] for row in verify_trace(trace))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    def test_pieces_pass_holds_only_the_sums_near_zero(self):
        trace = run_greedy(320)  # 70 kB traced, where the pair-sum pass peaks at 1.7 MB
        tracemalloc.start()
        try:
            assert all(row["ok"] for row in verify_trace(trace))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**18

    def test_memory_stays_bounded_on_long_integers(self, monkeypatch):
        # its final set's 2,080 sums of up to 15k digits hold 8.6 MB, where the pair-sum pass holds one
        # pending sum per run (0.46 MiB traced)
        trace = _replay_trace(7)
        monkeypatch.setattr(urbasis.oracle, "_pieces", lambda stages, near: None)
        tracemalloc.start()
        try:
            assert all(row["ok"] for row in verify_trace(trace))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20


def _replay_trace(seed):
    """The benchmark's replay-digits trace: 31 reaches 10**e, whose exponents step by a seeded walk."""
    rng, length, step, reaches = random.Random(seed), 1, 0, []
    for i in range(31):
        reaches.append(10**length)
        step = rng.randint(1, 1000) if i % 2 == 0 else 1001 - step
        length += step
    return run_with_growth(ExplicitReaches(tuple(reaches)), 32)


def _explicit_trace(rng, k_max):
    """A legal trace whose reaches exceed the radius by a random slack."""
    step, steps = initial_state(), []
    for _ in range(k_max - 1):
        reach = step.radius + rng.randint(0, 9)
        steps.append(replace(step, reach=reach))
        step = extend(step, reach)
    steps.append(step)
    return BasisTrace(steps=tuple(steps), mode="explicit")


def _corrupt(rng, trace):
    """One random edit to one stage, or to one stage and every later one."""
    steps = list(trace.steps)
    first = rng.randrange(len(steps))
    last = rng.choice([first, len(steps) - 1])
    kind = rng.choice(["tweak", "add", "drop", "b", "branch", "c", "d"])
    value = rng.choice(steps[first].basis.elements)
    delta = rng.choice([-3, -2, -1, 1, 2, 3])
    reach = 2 * steps[first].basis.max_abs()
    extra = rng.randint(-reach, reach)
    for i in range(first, last + 1):
        s = steps[i]
        if kind == "tweak":
            s = replace(s, basis=IntSet.of(a + delta if a == value else a for a in s.basis))
        elif kind == "add":
            s = replace(s, basis=IntSet.of(s.basis.elements + (extra,)))
        elif kind == "drop" and len(s.basis) > 1:
            s = replace(s, basis=IntSet.of(a for a in s.basis if a != value))
        elif kind == "b":
            s = replace(s, gap=s.gap + delta)
        elif kind == "branch":
            s = replace(s, positive_branch=not s.positive_branch)
        elif kind == "c":
            s = replace(s, reach=(s.radius if s.reach is None else s.reach) + delta)
        elif kind == "d":
            s = replace(s, radius=s.radius + delta)
        steps[i] = s
    return BasisTrace(steps=tuple(steps), mode="corrupt")


def _brute_rep_scan_row(trace):
    """The `rep-scan` row counted from scratch over the final set's widest window."""
    final = trace.final.basis
    lo, hi = default_window(trace)
    report = brute_rep_report(final, lo, hi)
    violations = report.violations
    witness = None
    if violations:
        n = violations[0]
        witness = {"n": n, "count": report.count(n), "pairs": pairs_for(final, n)}
    return {"name": "rep-scan", "ok": not violations, "witness": witness,
            "window": [lo, hi], "violations": len(violations)}


def _gap_fields(gap, positive):
    return {"b": gap, "branch": "positive" if positive else "negative"}


def _kernel_gap_row(trace):
    """The `gap` row recomputed with the kernel's sumset and gap search."""
    for s in trace.steps:
        gap, positive = min_abs_missing(s.basis.self_sumset())
        if (gap, positive) != (s.gap, s.positive_branch):
            return {"name": "gap", "ok": False, "witness": {
                "reason": "gap-mismatch", "stage": s.k,
                "recorded": _gap_fields(s.gap, s.positive_branch), "actual": _gap_fields(gap, positive),
            }}
    return {"name": "gap", "ok": True, "witness": None}


def _radius_row(trace):
    """The `radius` row from a separate pass: the first stage whose `d` is not max |a|."""
    for s in trace.steps:
        actual = max(abs(a) for a in s.basis.elements)
        if s.radius != actual:
            return {"name": "radius", "ok": False, "witness": {
                "reason": "radius-mismatch", "stage": s.k, "recorded": s.radius, "actual": actual,
            }}
    return {"name": "radius", "ok": True, "witness": None}


def _nested_length(trace):
    """How many stages each hold every element of the stage before (the first always does)."""
    steps = trace.steps
    return next((i for i in range(1, len(steps))
                 if not set(steps[i - 1].basis.elements) <= set(steps[i].basis.elements)), len(steps))


def _prefix_row(name, trace, row_of):
    """A `unique-window` or `gap` row: the reference's row on the nested prefix, where it fails or is all."""
    nested = _nested_length(trace)
    row = row_of(BasisTrace(steps=trace.steps[:nested], mode=trace.mode))
    if row["ok"] and nested < len(trace.steps):
        return {"name": name, "ok": False, "witness": {"reason": "not-nested", "stage": nested + 1}}
    return row


def _reference_unique_window_row(trace):
    ref = reference_oracle.verify_unique_window(trace)
    return {"name": "unique-window", "ok": ref.ok, "witness": ref.witness}


def _assert_reference_rows(trace):
    rows = {row["name"]: row for row in verify_trace(trace)}
    assert rows["unique-window"] == _prefix_row("unique-window", trace, _reference_unique_window_row)
    assert rows["decomposition"] == reference_oracle.decomposition_row(trace)
    assert rows["gap"] == _prefix_row("gap", trace, _kernel_gap_row)
    assert rows["radius"] == _radius_row(trace)
    assert rows["rep-scan"] == _brute_rep_scan_row(trace)
    return rows


def _ap_trace(k_max, low=1):
    """Stage k holds low-k..k: nested, and nearly every pair sum repeats (from stage 1 on when low <= 0)."""
    steps = tuple(ConstructionStep(k=k, basis=IntSet(tuple(range(low - k, k + 1))), radius=k, gap=1,
                                   positive_branch=True) for k in range(1, k_max + 1))
    return BasisTrace(steps=steps, mode="corrupt")


def _route(monkeypatch, pair_sums_only):
    """Leave `verify_trace` its route (the pieces pass, else the pair-sum pass), or force the pair-sum pass.

    The case ids are the ones these cases carried while the pair-sum pass
    cut its sums into value ranges: the first runs as `verify` does, the
    second through the pair-sum pass alone.
    """
    if pair_sums_only:
        monkeypatch.setattr(urbasis.oracle, "_pieces", lambda stages, near: None)


class TestAgainstReference:
    """The tagged pass against the from-scratch recount it replaced.

    On a nested trace every row equals the recount's.  On a trace whose
    stages stop nesting, `unique-window` and `gap` read only the nested
    prefix and fail with a `not-nested` witness where that prefix passes.
    """

    def test_corrupted_traces_give_identical_rows(self):
        rng = random.Random(0xD1FF)
        reasons = set()
        for case in range(400):
            k_max = rng.randint(2, 10)
            trace = run_greedy(k_max) if case % 2 else _explicit_trace(rng, k_max)
            for _ in range(rng.randint(1, 2)):
                trace = _corrupt(rng, trace)
            rows = _assert_reference_rows(trace)
            for name in ("unique-window", "decomposition", "radius", "gap"):
                witness = rows[name]["witness"] or {}
                reasons.add(witness.get("reason", "refused" if "refused" in witness else None))
        assert reasons >= {
            "repeated-sum", "uncovered", "reach-mismatch", "overlap", "refused", "gap-mismatch", "final-reach",
            "radius-mismatch", "not-nested",
        }

    @pytest.mark.parametrize("pair_sums_only", [False, True], ids=["one-range", "ranges-of-40-words"])
    def test_long_integers_split_by_words(self, monkeypatch, pair_sums_only):
        # sums of up to 2 words (the reference oracle writes integers in full, so they stay below 40 digits)
        _route(monkeypatch, pair_sums_only)
        rng = random.Random(0x10AD)
        trace = run_with_growth(ExplicitReaches(tuple(10**(4 * e) + rng.randint(0, 9) for e in range(10))), 11)
        for corrupted in (trace, *(_corrupt(rng, trace) for _ in range(20))):
            _assert_reference_rows(corrupted)

    @pytest.mark.parametrize("pair_sums_only", [False, True], ids=["one-range", "ranges-of-5"])
    def test_arithmetic_progression(self, monkeypatch, pair_sums_only):
        _route(monkeypatch, pair_sums_only)
        rows = _assert_reference_rows(_ap_trace(12))  # the sum 1 has 12 pairs
        assert rows["rep-scan"]["violations"] == 43  # every sum but -22, -21, 23 and 24
        # 0, 2, ..., 58 and 1: an even sum has up to 15 pairs and the odd sum above it one
        evens = ConstructionStep(k=1, basis=IntSet((0, 1, *range(2, 60, 2))), radius=58, gap=1, positive_branch=True)
        rows = _assert_reference_rows(BasisTrace(steps=(evens,), mode="corrupt"))
        assert rows["rep-scan"]["violations"] == 56  # every even sum but 0, 114 and 116

    def test_only_repeat_on_a_range_boundary(self):
        # a stray -188 in greedy K=6's final set: -188 + 0 = -146 + -42 is the only repeat
        greedy = run_greedy(6)
        spiked = replace(greedy.final, basis=IntSet.of(greedy.final.basis.elements + (-188,)))
        trace = BasisTrace(steps=greedy.steps[:-1] + (spiked,), mode="corrupt")
        rows = _assert_reference_rows(trace)
        assert rows["rep-scan"]["violations"] == 1
        assert rows["rep-scan"]["witness"]["n"] == -188

    @pytest.mark.parametrize("pair_sums_only", [False, True], ids=["one-range", "ranges-of-5"])
    def test_pass_matches_recount_at_every_stage(self, pair_sums_only):
        # corrupted greedy traces, random nested ones, and progressions, in which nearly every sum repeats;
        # read as `verify` reads them (the pieces pass, else the pair-sum pass), or by the pair-sum pass alone
        order = lambda n: (abs(n), n < 0)  # noqa: E731
        near = 40
        rng = random.Random(0x7AB1E)
        traces = []
        for _ in range(100):
            trace = run_greedy(rng.randint(2, 10))
            for _ in range(rng.randint(1, 3)):
                trace = _corrupt(rng, trace)
            traces.append(trace)
        traces += [_nested_trace(rng, rng.randint(1, 14)) for _ in range(100)]
        traces += [_ap_trace(k, low) for k in range(1, 15) for low in (1, 0)]
        for trace in traces:
            stages = _nested_stages([step.basis.elements for step in trace.steps])
            steps = trace.steps[:len(stages)]
            assert len(steps) == _nested_length(trace)
            found = (None if pair_sums_only else _pieces(stages, near)) or _repeats(stages, near=near)
            counts, met, first = {}, [], {}
            for step in steps:  # met: the sums whose count grows to 2 or more at the stage
                before, counts = counts, reference_oracle._pair_counts(step.basis.elements)
                met.append((step.k, {n for n, c in counts.items() if c >= 2 and c > before.get(n, 0)}))
                for n in counts:
                    if abs(n) <= near:
                        first.setdefault(n, step.k)
            assert found.first == first
            repeats = [(k, sums) for k, sums in met if sums]
            assert found.second == ((repeats[0][0], min(repeats[0][1], key=order)) if repeats else None)
            overlaps = [(k, sums) for k, sums in repeats if k >= 2]
            assert found.overlap == (overlaps[0] if overlaps else None)
            doubled = {n for n, c in counts.items() if c >= 2}
            assert (found.count, found.least) == (len(doubled), min(doubled, key=order, default=None))

    def test_stage_that_adds_nothing(self):
        steps = run_greedy(3).steps
        trace = BasisTrace(steps=steps[:2] + (replace(steps[1], k=3),))
        rows = _assert_reference_rows(trace)
        assert rows["decomposition"]["witness"]["refused"].startswith("next stage does not extend")


def _nested_trace(rng, k_max):
    """Nested stages out of a random pair, each adding one element below the last stage's elements and one
    above, each 1 to 3w + 3 past its end, for w their width.

    The recorded radius is each stage's; the gap and branch are random.
    """
    elements = sorted(rng.sample(range(-3, 4), 2))
    steps = []
    for k in range(1, k_max + 1):
        if k > 1:
            w = elements[-1] - elements[0]
            low, high = (rng.randint(1, 3 * w + 3) for _ in range(2))
            elements = [elements[0] - low, *elements, elements[-1] + high]
        basis = IntSet(tuple(elements))
        steps.append(ConstructionStep(k=k, basis=basis, radius=basis.max_abs(), gap=rng.randint(1, 2 * k),
                                      positive_branch=rng.random() < 0.5))
    return BasisTrace(steps=tuple(steps), mode="corrupt")


def _fields(found):
    return found.count, found.least, found.second, found.overlap, found.first


def _near(trace, stages):
    m = len(trace.steps[len(stages) - 1].basis)
    return m * (m + 1) // 4 + 1


class _DrawnReaches:
    """Each stage's reach drawn from d, d + 1, d + j, 2d and the least power of ten >= d, for d its radius."""

    descriptor = "explicit"

    def __init__(self, rng):
        self.rng = rng

    def reach_for(self, step):
        d, power = step.radius, 1
        while power < d:
            power *= 10
        return self.rng.choice((d, d + 1, d + self.rng.randint(2, 99), 2 * d, power))


class TestPieces:
    """The pieces pass, which decides a trace whose stages repeat no sum, against the tagged pass."""

    def test_rows_equal_with_the_pass_forced_off(self, monkeypatch):
        pieces, decided = urbasis.oracle._pieces, []

        def recorded(stages, near):
            found = pieces(stages, near)
            decided.append(found is not None)
            if found is not None:
                assert _fields(found) == _fields(_repeats(stages, near=near))
            return found
        monkeypatch.setattr(urbasis.oracle, "_pieces", recorded)
        rng = random.Random(0x91EC)
        for case in range(2000):
            if case % 2:
                trace = run_greedy(rng.randint(1, 14))
                for _ in range(rng.randint(1, 3)):
                    trace = _corrupt(rng, trace)
            else:
                trace = _nested_trace(rng, rng.randint(1, 14))
            rows = verify_trace(trace)
            with monkeypatch.context() as forced_off:
                forced_off.setattr(urbasis.oracle, "_pieces", lambda stages, near: None)
                assert verify_trace(trace) == rows
            for row in rows:  # how `urbasis verify` prints a witness
                assert _repr(row["witness"]) == repr(row["witness"])
        assert decided.count(True) >= 500 and decided.count(False) >= 500

    @pytest.mark.parametrize("name", ["greedy-160", "loglog-10", "replay-7"])
    def test_decides_without_the_tagged_pass(self, monkeypatch, slow10, name):
        make = {"greedy-160": lambda: run_greedy(160), "loglog-10": lambda: slow10, "replay-7": lambda: _replay_trace(7)}
        trace = make[name]()
        stages = _nested_stages([step.basis.elements for step in trace.steps])
        assert len(stages) == len(trace.steps)
        assert _fields(_pieces(stages, _near(trace, stages))) == _fields(_repeats(stages, near=_near(trace, stages)))

        def forbidden(*args, **kwargs):
            raise AssertionError("the tagged pass ran")
        monkeypatch.setattr(urbasis.oracle, "_repeats", forbidden)
        assert all(row["ok"] for row in verify_trace(trace))

    def _assert_falls_back(self, monkeypatch, trace):
        """The trace repeats no sum, the pieces pass leaves it to the tagged pass, and the rows are exact."""
        stages = _nested_stages([step.basis.elements for step in trace.steps])
        assert len(stages) == len(trace.steps) and _repeats(stages).count == 0
        assert _pieces(stages, _near(trace, stages)) is None
        passes = []
        repeats = urbasis.oracle._repeats
        monkeypatch.setattr(urbasis.oracle, "_repeats",
                            lambda stages, **kwargs: passes.append(len(stages)) or repeats(stages, **kwargs))
        rows = _assert_reference_rows(trace)
        assert passes == [len(trace.steps)]
        return rows

    def test_shifted_pieces_that_meet_fall_back(self, monkeypatch):
        # stage 4 adds 25 and 31, both above stage 3's -14..12: 25 + old lies in [11, 37] and
        # 31 + old in [17, 43], and no sum repeats
        steps = run_greedy(3).steps
        stage4 = replace(steps[2], k=4, basis=IntSet.of(steps[2].basis.elements + (25, 31)))
        rows = self._assert_falls_back(monkeypatch, BasisTrace(steps=steps + (stage4,), mode="corrupt"))
        assert rows["unique-window"]["ok"]
        assert rows["decomposition"]["witness"]["refused"].startswith("added pair [25, 31]")

    def test_meeting_pieces_fall_back(self, monkeypatch):
        # three times greedy's stages, whose sums are all 0 mod 3, then a stage that adds e1 = lo - 2 and
        # e2 = 4 - lo, both 1 mod 3: no sum repeats, but the intervals of old + old and e1 + old overlap
        # on [2lo, e1 + hi]
        steps = tuple(replace(s, basis=IntSet(tuple(3 * a for a in s.basis.elements)), radius=3 * s.radius)
                      for s in run_greedy(12).steps)
        old = steps[-1].basis.elements
        last = replace(steps[-1], k=13, basis=IntSet((old[0] - 2, *old, 4 - old[0])))
        self._assert_falls_back(monkeypatch, BasisTrace(steps=steps + (last,), mode="corrupt"))

    @pytest.mark.parametrize("d", [1, 10], ids=["near-zero", "far-from-zero"])
    @pytest.mark.parametrize("positive, shifted", [(True, "shift-by-first"), (False, "shift-by-second")],
                             ids=["left", "right"])
    def test_touching_pieces_fall_back(self, positive, shifted, d):
        # reach d at radius d with both +-d old, the pair the builder refuses: on the positive branch
        # e1 + hi = 2lo = -2d, on the negative one 2hi = e2 + lo = 2d; for d = 1 the stages are
        # (-1, 1), (-3, -1, 1, 4) and (-1, 1), (-4, -1, 1, 3), and for d = 10 the repeated sum lies
        # past the sums kept near zero
        e1, e2 = (-3 * d, 3 * d + 1) if positive else (-3 * d - 1, 3 * d)
        stage1 = ConstructionStep(k=1, basis=IntSet((-d, d)), radius=d, gap=1, positive_branch=positive)
        stage2 = ConstructionStep(k=2, basis=IntSet((e1, -d, d, e2)), radius=3 * d + 1, gap=1,
                                  positive_branch=not positive)
        trace = BasisTrace(steps=(stage1, stage2), mode="corrupt")
        stages = _nested_stages([step.basis.elements for step in trace.steps])
        assert _pieces(stages, _near(trace, stages)) is None
        rows = _assert_reference_rows(trace)
        unique = rows["unique-window"]["witness"]
        assert (unique["reason"], unique["stage"], unique["n"]) == ("repeated-sum", 2, -2 * d if positive else 2 * d)
        assert rows["decomposition"]["witness"]["parts"] == ["old-sums", shifted]

    def test_decides_every_built_trace(self):
        # reaches drawn per stage around the radius d, and log, log-log and table budgets at small K
        rng = random.Random(0xB1D5)
        traces = [run_with_growth(_DrawnReaches(rng), rng.randint(2, 24)) for _ in range(240)]
        traces += [run_with_growth(LogGrowth(rng.choice((0.5, 1, 2)), rng.randint(-2, 4)), rng.randint(2, 10))
                   for _ in range(20)]
        traces += [run_with_growth(LogLogGrowth(rng.choice((2, 3)), rng.randint(3, 5), rng.randint(1, 4)),
                                   rng.randint(2, 8)) for _ in range(20)]
        for _ in range(20):
            k_max, x = rng.randint(2, 12), 0
            table = {}
            for m in range(4, 2 * k_max + 1, 2):
                x += rng.choice((0, 1, rng.randint(2, 10**rng.randint(1, 12))))
                table[m] = x
            traces.append(run_with_growth(ThresholdTable(table), k_max))
        for trace in traces:
            stages = _nested_stages([step.basis.elements for step in trace.steps])
            found = _pieces(stages, _near(trace, stages))
            assert found is not None, trace.mode
            assert _fields(found) == _fields(_repeats(stages, near=_near(trace, stages)))


class TestDualRoute:
    def test_randomized_probes(self):
        """Kernel rep_count vs oracle count on randomized sets; seed frozen."""
        rng = random.Random(0x5eed)
        for _ in range(60):
            size = rng.randint(1, 60)
            lo = rng.choice([-10**3, -10**6, -10**12])
            elements = set()
            while len(elements) < size:
                elements.add(rng.randint(lo, -lo))
            a = IntSet.of(elements)
            report = brute_rep_report(a, 2 * lo, -2 * lo)
            for _ in range(20):
                n = rng.randint(2 * lo, -2 * lo)
                assert report.count(n) == a.rep_count(n)
