"""Staged construction: worked stages, drivers, growth policies."""

import hashlib
import math
import random
import re
import sys
import tracemalloc
from collections import Counter
from records import replace

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from urbasis import (
    BasisTrace,
    ConstructionStep,
    ExplicitReaches,
    Greedy,
    GrowthConfigError,
    IntSet,
    LogGrowth,
    LogLogGrowth,
    ThresholdReach,
    ThresholdTable,
    extend,
    initial_state,
    min_abs_missing,
    parse_budget,
    run_greedy,
    run_with_growth,
    verify_trace,
)
from urbasis import DigitLimitError, construction
from urbasis.digits import decimal_io

import reference_budget
import reference_kernel
from budget_check import budget_at_least
from undecimal import Undecimal

# the densest run, frozen: (elements, radius, gap, positive_branch)
GREEDY_STAGES = [
    ((0, 1), 1, 1, False),
    ((-4, 0, 1, 3), 4, 2, False),
    ((-14, -4, 0, 1, 3, 12), 14, 5, True),
    ((-42, -14, -4, 0, 1, 3, 12, 47), 47, 5, False),
]


def assert_verifies(trace):
    """Every verify_trace row passes: the oracle recomputes each recorded field."""
    rows = verify_trace(trace)
    assert all(row["ok"] for row in rows), rows


class TestInitialState:
    def test_seed(self):
        s = initial_state()
        assert s.k == 1
        assert s.basis.elements == (0, 1)
        assert s.radius == 1
        assert (s.gap, s.positive_branch) == (1, False)
        assert s.reach is None

    def test_validates(self):
        assert_verifies(BasisTrace(steps=(initial_state(),)))


class TestExtend:
    def test_negative_branch(self):
        s2 = extend(initial_state(), 1)
        assert s2.basis.elements == (-4, 0, 1, 3)
        assert (s2.k, s2.radius, s2.gap, s2.positive_branch) == (2, 4, 2, False)

    def test_positive_branch(self):
        s = initial_state()
        s = extend(s, 1)
        s = extend(s, 4)
        assert s.basis.elements == (-14, -4, 0, 1, 3, 12)
        s = extend(s, 14)
        assert s.basis.elements == (-42, -14, -4, 0, 1, 3, 12, 47)
        assert s.radius == 5 + 3 * 14

    @pytest.mark.parametrize("reach", [1, 2, 5, 10**6])
    def test_first_extension_shape(self, reach):
        s2 = extend(initial_state(), reach)
        assert s2.basis.elements == (-(1 + 3 * reach), 0, 1, 3 * reach)
        assert s2.radius == 1 + 3 * reach

    def test_rejects_reach_below_radius(self):
        s2 = extend(initial_state(), 1)
        with pytest.raises(ValueError, match="stage 2"):
            extend(s2, 3)

    def test_reach_below_radius_message_past_interpreter_digit_limit(self):
        s2 = extend(initial_state(), 10**5000)
        with pytest.raises(ValueError) as refused:
            extend(s2, 1)
        assert str(refused.value) == "reach 1 below radius <5001-digit integer> at stage 2"

    def test_stage_index_messages_past_interpreter_digit_limit(self):
        big = replace(initial_state(), k=10**5000)
        with pytest.raises(ValueError) as refused:
            BasisTrace(steps=(big,))
        assert str(refused.value) == (
            "stage indices must run 1..K without gaps; position 0 holds k=<5001-digit integer>")
        with pytest.raises(GrowthConfigError) as refused:
            ExplicitReaches((1,)).reach_for(big)
        assert str(refused.value) == "reach list has 1 entries, none for stage <5001-digit integer>"
        bad = ConstructionStep(k=10**5000, basis=IntSet((0, 1, 2, 3)), radius=3, gap=4, positive_branch=True)
        with pytest.raises(RuntimeError) as refused:
            extend(bad, 3)
        assert str(refused.value) == "stage <5001-digit integer> already repeats a pairwise sum"
        with pytest.raises(RuntimeError) as refused:
            extend(replace(big, gap=0), 1)
        assert str(refused.value) == "extension of stage <5001-digit integer> collided two pairwise sums"

    def test_basis_repeating_a_sum_raises(self):
        # 0 + 3 == 1 + 2, and 1 + 4 == 2 + 3 under a gap of 0, which the gap search would refuse
        for elements, gap in (((0, 1, 2, 3), 4), ((1, 2, 3, 4), 0)):
            bad = ConstructionStep(k=2, basis=IntSet(elements), radius=elements[-1], gap=gap, positive_branch=True)
            with pytest.raises(RuntimeError, match="^stage 2 already repeats a pairwise sum$"):
                extend(bad, elements[-1])

    def test_new_pair_colliding_raises(self):
        # a recorded gap of 0 places the pair at -3, 3, whose sum repeats 0 + 0
        lying = replace(initial_state(), gap=0, positive_branch=True)
        with pytest.raises(RuntimeError, match="collided"):
            extend(lying, 1)

    def test_pair_at_radius_touching_both_signs_raises(self):
        # reach 5 places (-15, 16), which passes the placement check: -10 = -5 + -5 = 5 + -15
        step = ConstructionStep(k=2, basis=IntSet((-5, 1, 5)), radius=5, gap=1, positive_branch=True)
        with pytest.raises(RuntimeError, match="collided"):
            extend(step, 5)
        assert extend(step, 6).basis.elements == (-18, -5, 1, 5, 19)

    def test_matches_set_based_reference_on_corrupted_steps(self):
        """20,000 seeded steps: the certificate agrees with a kernel that keeps every pair sum.

        The steps are greedy and explicit stages through K = 12, small
        bases holding both +-d, and small bases that repeat a sum, with any
        gap from -2 up; the gap is moved (by up to 10**6, so the gap search
        starts far past the true gap), the branch flipped or the radius
        moved, and reaches around the recorded radius.  A reach below
        max |a| is refused, which the reference allows when the recorded
        radius is too small.  A RuntimeError must name the same failed check.
        """
        rng = random.Random(9)
        stages = list(run_greedy(12).steps)
        for _ in range(30):
            s = initial_state()
            while s.k < 12:
                stages.append(s)
                s = extend(s, s.radius + rng.choice((0, 1, 2, 5, 40)))
        seen = Counter()
        for _ in range(20_000):
            draw = rng.random()
            if draw < 0.7:
                step = rng.choice(stages)
            else:
                step = _basis_with_both_signs(rng) if draw < 0.85 else _basis_repeating_a_sum(rng)
            kind = rng.randrange(5)
            if kind == 1:
                step = replace(step, gap=step.gap + rng.choice((-3, -2, -1, 1, 2, 3, 10, 1000, 10**6)))
            elif kind == 2:
                step = replace(step, positive_branch=not step.positive_branch)
            elif kind == 3:
                step = replace(step, radius=step.radius + rng.choice((-3, -2, -1, 1, 2, 3)))
            reach = step.radius + rng.choice((-1, 0, 0, 0, 1, 2, 7))
            outcome = _outcome(extend, step, reach)
            expected = ValueError if reach < step.basis.max_abs() else _outcome(reference_kernel.extend, step, reach)
            assert outcome == expected, (step, reach)
            if isinstance(outcome, str):
                seen[re.sub(r"stage \d+", "stage k", outcome)] += 1
            else:
                seen[outcome if isinstance(outcome, type) else ConstructionStep] += 1
        assert len(seen) == 5 and min(seen.values()) > 500, seen  # a step, ValueError and each RuntimeError

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=6))
    def test_any_admissible_reaches_stay_consistent(self, slack):
        """Each stage doubles up: new radius = gap + 3*reach, sizes 2k."""
        s, steps = initial_state(), []
        for extra in slack:
            reach = s.radius + extra
            nxt = extend(s, reach)
            assert nxt.k == s.k + 1
            assert len(nxt.basis) == 2 * nxt.k
            assert nxt.radius == s.gap + 3 * reach
            steps.append(replace(s, reach=reach))
            s = nxt
        assert_verifies(BasisTrace(steps=(*steps, s)))


def _outcome(extend_fn, step, reach):
    """The step extend_fn makes, ValueError, or the message of its RuntimeError, which names the failed check."""
    try:
        return extend_fn(step, reach)
    except ValueError:
        return ValueError
    except RuntimeError as e:
        return str(e)


def _basis_with_both_signs(rng):
    """A stage on a small basis holding both +-d, with unique pair sums and its true gap."""
    while True:
        d = rng.randrange(3, 40)
        basis = IntSet.of([-d, d] + rng.sample(range(-d + 1, d), rng.randrange(1, 5)))
        sums = basis.self_sumset()
        if len(sums) == len(basis) * (len(basis) + 1) // 2:
            gap, positive = min_abs_missing(sums)
            return ConstructionStep(k=len(basis) // 2, basis=basis, radius=d, gap=gap, positive_branch=positive)


def _basis_repeating_a_sum(rng):
    """A stage on a small basis that repeats a pair sum, with a gap from -2 up."""
    while True:
        d = rng.randrange(3, 40)
        basis = IntSet.of([d] + rng.sample(range(-d, d), rng.randrange(3, 6)))
        if len(basis.self_sumset()) < len(basis) * (len(basis) + 1) // 2:
            return ConstructionStep(k=len(basis) // 2, basis=basis, radius=d, gap=rng.randrange(-2, 8),
                                    positive_branch=rng.random() < 0.5)


class TestRunGreedy:
    def test_worked_stages(self):
        trace = run_greedy(4)
        assert trace.mode == "greedy"
        for step, (elements, radius, gap, positive) in zip(trace.steps, GREEDY_STAGES):
            assert step.basis.elements == elements
            assert step.radius == radius
            assert step.gap == gap
            assert step.positive_branch is positive

    def test_reaches_equal_radii(self):
        trace = run_greedy(6)
        for step in trace.steps[:-1]:
            assert step.reach == step.radius
        assert trace.final.reach is None

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            run_greedy(0)

    def test_driver_matches_standalone_chain(self):
        s, steps = initial_state(), []
        while s.k < 8:
            steps.append(replace(s, reach=s.radius))
            s = extend(s, s.radius)
        steps.append(s)
        assert run_greedy(8).steps == tuple(steps)

    def test_build_keeps_no_pair_sum_set(self):
        # keeping all 320,400 pair sums of K=400 peaks near 53 MB; the stages alone take ~1.5 MB
        tracemalloc.start()
        try:
            run_greedy(400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000

    def test_gap_search_reads_a_window_of_the_sums(self, monkeypatch):
        # the full pair sums of K=640 number 819,840; the window holds 924 of them
        containers = []

        def recording(sums, start=1):
            containers.append((type(sums), len(sums)))
            return min_abs_missing(sums, start)

        monkeypatch.setattr(construction, "min_abs_missing", recording)
        assert len(run_greedy(640).final.basis) == 1280
        assert len(containers) == 640  # the seed's, then one per extension
        assert all(kind is set and size <= 4 * 640 for kind, size in containers[1:]), containers[-1]

    def test_driver_matches_reference_chain(self):
        """300 seeded reach lists: every stage equals a chain of the full-sum reference extend."""
        rng = random.Random(23)
        slacks = [0, 1, 2, 5] + [10**j for j in range(41)]
        for _ in range(300):
            k_max, s, stages, reaches = rng.randrange(2, 41), initial_state(), [], []
            while s.k < k_max:
                c = s.radius * 10**30 if rng.random() < 0.1 else s.radius + rng.choice(slacks)
                stages.append(s)
                reaches.append(c)
                s = reference_kernel.extend(s, c)
            stages.append(s)
            trace = run_with_growth(ExplicitReaches(tuple(reaches)), k_max)
            for got, want in zip(trace.steps, stages, strict=True):
                assert (got.basis, got.radius, got.gap, got.positive_branch) == \
                    (want.basis, want.radius, want.gap, want.positive_branch), (reaches, got.k)

    def test_invariants_through_k12(self, greedy12):
        assert_verifies(greedy12)
        steps = greedy12.steps
        for prev, nxt in zip(steps, steps[1:]):
            assert nxt.radius == prev.gap + 3 * prev.reach
            assert set(prev.basis.elements) < set(nxt.basis.elements)
            # greedy recurrence: next reach within (3c, 5c)
            if nxt.reach is not None:
                assert 3 * prev.reach + 1 <= nxt.reach <= 5 * prev.reach - 1

    def test_even_stage_gap_floor(self, greedy12):
        gaps = [s.gap for s in greedy12.steps]
        for k in range(1, len(gaps) // 2 + 1):
            assert gaps[2 * k - 1] >= k + 1

    def test_guaranteed_coverage(self, greedy12):
        for step in greedy12.steps:
            if step.k % 2:
                continue
            half = step.k // 2
            for n in range(-half, half + 1):
                assert step.basis.rep_count(n) == 1

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=8))
    def test_driver_agrees_with_from_scratch_sums(self, slack):
        """Reach lists of radius + slack, chosen by a replay that recomputes every sumset."""
        a, reaches = {0, 1}, []
        for extra in slack:
            sums = {x + y for x in a for y in a}
            b = 1
            while b in sums and -b in sums:
                b += 1
            c = max(abs(v) for v in a) + extra
            reaches.append(c)
            a |= {b + 3 * c, -3 * c} if b not in sums else {-(b + 3 * c), 3 * c}
        trace = run_with_growth(ExplicitReaches(tuple(reaches)), len(reaches) + 1)
        assert_verifies(trace)
        assert [s.reach for s in trace.steps[:-1]] == reaches
        assert trace.final.basis.elements == tuple(sorted(a))


class TestGrowthPolicies:
    def test_explicit_matches_greedy(self):
        trace = run_with_growth(ExplicitReaches((1, 4)), 3)
        assert trace.steps == run_greedy(3).steps
        assert trace.mode == "explicit"

    def test_explicit_list_too_short(self):
        with pytest.raises(GrowthConfigError, match="stage 2"):
            run_with_growth(ExplicitReaches((1,)), 4)

    def test_explicit_reach_below_radius_names_stage(self):
        with pytest.raises(ValueError, match="stage 2"):
            run_with_growth(ExplicitReaches((1, 3)), 3)

    def test_table_thresholds(self):
        trace = run_with_growth(ThresholdTable({4: 10, 6: 100}), 3)
        assert [s.reach for s in trace.steps] == [10, 100, None]
        assert trace.final.basis.elements == (-302, -31, 0, 1, 30, 300)

    def test_table_missing_target(self):
        with pytest.raises(GrowthConfigError, match="target 6"):
            run_with_growth(ThresholdTable({4: 10}), 3)

    def test_threshold_must_not_decrease(self):
        with pytest.raises(GrowthConfigError, match="decreases"):
            ThresholdTable({4: 100, 6: 10})

    def test_zero_threshold_is_greedy(self):
        trace = run_with_growth(ThresholdTable({4: 0, 6: 0, 8: 0, 10: 0}), 5)
        assert [s.basis for s in trace.steps] == [s.basis for s in run_greedy(5).steps]

    def test_radius_dominates_small_thresholds(self):
        trace = run_with_growth(ThresholdTable({4: 1, 6: 1, 8: 1}), 4)
        greedy = run_greedy(4)
        assert [s.basis for s in trace.steps] == [s.basis for s in greedy.steps]

    def test_reused_policy_gives_equal_traces(self):
        policy = LogLogGrowth(2, 4, 3)
        first, second = run_with_growth(policy, 8), run_with_growth(policy, 8)
        assert first == second
        assert set(vars(policy)) == {"scale", "offset", "shift"}  # no state carried between runs

    def test_decrease_checked_without_earlier_stages(self):
        # the whole table is checked in target order when it is built, before any stage reads it
        with pytest.raises(GrowthConfigError, match=r"t\(8\)=10 < t\(6\)=100"):
            ThresholdTable({8: 10, 6: 100, 4: 1})

    def test_decrease_message_quotes_long_entries(self):
        with pytest.raises(GrowthConfigError) as refused:
            ThresholdTable({4: 10**5000, 6: 1})
        assert str(refused.value) == "threshold map decreases: t(6)=1 < t(4)=<5001-digit integer>"

    def test_empty_table_refused(self):
        # its descriptor "table," would not read back, and no stage could read it
        with pytest.raises(GrowthConfigError, match="threshold table is empty"):
            ThresholdTable({})

    @pytest.mark.parametrize("target", [3, 5, 2, 0, -4])
    def test_table_target_no_stage_reads_refused(self, target):
        # a stage asks only for m = 2k + 2 >= 4; the check runs before the decrease check
        with pytest.raises(GrowthConfigError, match=f"target {target} is never read"):
            ThresholdTable({4: 10, target: 10**6, 6: 100})

    def test_table_copies_the_callers_mapping(self):
        entries = {6: 100, 4: 10}
        policy = ThresholdTable(entries)
        entries[4] = 1000
        assert policy.descriptor == "table,4:10;6:100"
        assert policy.threshold(4) == 10

    def test_table_from_its_own_pairs(self):
        policy = ThresholdTable({4: 1, 6: 5})
        assert ThresholdTable(policy.table) == policy
        assert replace(policy) == policy
        assert ThresholdTable(((6, 5), (4, 1))) == policy
        assert ThresholdTable([[4, 1]]).table == ((4, 1),)

    def test_target_given_twice_in_pairs_refused(self):
        with pytest.raises(GrowthConfigError, match="gives target 4 twice"):
            ThresholdTable(((4, 1), (6, 5), (4, 1)))

    def test_equal_tables_hash_equal(self):
        first, second = ThresholdTable({4: 10, 6: 100}), ThresholdTable({6: 100, 4: 10})
        assert first == second and hash(first) == hash(second)
        assert len({first, second, ThresholdTable({4: 10})}) == 2

    def test_table_refuses_mutation(self):
        policy = ThresholdTable({4: 10, 6: 100})
        with pytest.raises(TypeError):
            policy.table[8] = 1  # would record a decreasing budget the table check refuses
        assert policy.descriptor == "table,4:10;6:100"

    def test_budgets_are_threshold_policies(self):
        for budget in (LogGrowth(3, 1), LogLogGrowth(2, 4, 3), ThresholdTable({4: 1})):
            assert isinstance(budget, ThresholdReach)
        assert LogGrowth(3, 1).descriptor == "log,3,1"
        assert LogLogGrowth(2, 4, 3).descriptor == "loglog,2,4,3"

    def test_table_label_is_written_from_the_texts_read(self):
        # inside one block, the label of a table that parse_budget read converts no entry again
        spec = f"table,{'4' * 600}:{'7' * 600};{'6' * 600}:{'8' * 600}"
        with decimal_io():
            entries = parse_budget(spec).table
            assert ThresholdTable({Undecimal(m): Undecimal(x) for m, x in entries}).descriptor == spec

    def test_table_label_past_the_limit(self):
        limit = sys.get_int_max_str_digits()  # outside a block, the interpreter's limit
        with pytest.raises(DigitLimitError, match=f"^an integer has more than {limit} decimal digits"):
            ThresholdTable({4: 10**limit}).descriptor

    @settings(max_examples=200)
    @given(
        st.floats(min_value=0, exclude_min=True, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_descriptor_names_the_parameters_exactly(self, scale, offset):
        for budget in (LogGrowth(scale, offset), LogLogGrowth(scale, offset, 3)):
            fields = budget.descriptor.split(",")[1:3]
            assert [float(v) for v in fields] == [scale, offset]

    def test_descriptor_drops_only_a_trailing_zero(self):
        assert LogLogGrowth(2.0, -4.0, 3).descriptor == "loglog,2,-4,3"
        assert LogGrowth(1e16, 1e-7).descriptor == "log,1e+16,1e-07"

    def test_one_inversion_per_stage(self, monkeypatch):
        targets = []
        least_x = construction._least_x

        def counted(m, *args, **kwargs):
            targets.append(m)
            return least_x(m, *args, **kwargs)

        monkeypatch.setattr(construction, "_least_x", counted)
        run_with_growth(LogLogGrowth(2, 4, 3), 10)
        assert targets == [4, 6, 8, 10, 12, 14, 16, 18, 20]  # 2k + 2 for stages 1..9, once each


class TestBudgetFamilies:
    @pytest.mark.parametrize("family", [
        LogGrowth(3, 1),
        LogLogGrowth(2, 4, 3),
        LogLogGrowth(1.5, 6, 1),
    ])
    @pytest.mark.parametrize("m", [4, 6, 8, 12, 14, 16, 18, 20])
    def test_threshold_minimal(self, family, m):
        """threshold(m) is the least x with budget >= m, decided at x's own digit count."""
        x = family.threshold(m)
        assert budget_at_least(family, x, m)
        assert x == 1 or not budget_at_least(family, x - 1, m)

    def test_known_loglog_thresholds(self):
        f = LogLogGrowth(2, 4, 3)
        assert f.threshold(4) == 1
        assert f.threshold(6) == 13
        assert f.threshold(8) == 1616

    def test_threshold_below_offset_is_one(self):
        assert LogGrowth(1, 4).threshold(4) == 1  # exp(0) = 1 exactly
        assert LogGrowth(3, 10).threshold(4) == 1
        assert LogLogGrowth(2, 30, 3).threshold(4) == 1

    def test_threshold_past_digit_limit_refused(self):
        with pytest.raises(GrowthConfigError, match="decimal digits"):
            LogLogGrowth(2, 4, 3).threshold(60)
        with pytest.raises(GrowthConfigError, match="decimal digits"):
            LogGrowth(1e-300, 0).threshold(4)
        with pytest.raises(GrowthConfigError, match=r"^threshold\(1000\) has over 1e307 decimal digits"):
            LogLogGrowth(1, 0).threshold(1000)  # t = 1000 fits a float, but exp(t) does not

    @pytest.mark.parametrize("family", [LogGrowth(), LogLogGrowth(2, 4, 3), LogGrowth(2.5, 1.5)])
    def test_target_past_float_range(self, family):
        # (m - offset) / scale overflows a float: refused above, and the least x is 1 below
        with pytest.raises(GrowthConfigError, match=r"^threshold\(<401-digit integer>\) has over 1e307 decimal digits"):
            family.threshold(10**400)
        assert family.threshold(-(10**400)) == 1

    def test_undecided_threshold_raises(self, monkeypatch):
        # a 1295-digit answer at 4, 8, ..., 64 digits of precision stays undecided: one enclosure per precision
        spans = []
        exp_span = construction._exp_span

        def counted(*args):
            spans.append(args[-1])
            return exp_span(*args)

        monkeypatch.setattr(construction, "_GUARD_DPS", -1290)
        monkeypatch.setattr(construction, "_exp_span", counted)
        with pytest.raises(GrowthConfigError, match=r"^threshold\(20\) is still undecided at 64 digits of precision$"):
            LogLogGrowth(2, 4, 3).threshold(20)
        assert spans == [14, 27, 54, 107, 213]  # bits for 4, 8, 16, 32 and 64 digits

    def test_budget_respected_on_run(self):
        f = LogLogGrowth(2, 4, 3)
        trace = run_with_growth(f, 5)
        samples = [1]
        for s in trace.steps[:-1]:
            samples += [s.reach, 3 * s.reach - 1, 3 * s.reach]
        samples += [trace.final.radius, 10 * trace.final.radius]
        for x in samples:
            assert trace.final.basis.counting(-x, x) <= f.value(x)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            LogGrowth(0, 5)
        with pytest.raises(ValueError):
            LogLogGrowth(-1, 5)

    @pytest.mark.parametrize("family", [LogGrowth, LogLogGrowth])
    @pytest.mark.parametrize("scale, offset, name", [
        (math.nan, 0, "scale"),
        (math.inf, 4, "scale"),
        (1, math.nan, "offset"),
        (1, -math.inf, "offset"),
        pytest.param(10**400, 0, "scale", id="10**400-0-scale"),
        pytest.param(1, 10**400, "offset", id="1-10**400-offset"),
        pytest.param(1, -10**400, "offset", id="1--10**400-offset"),
    ])
    def test_parameters_must_be_finite(self, family, scale, offset, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            family(scale, offset)

    @pytest.mark.parametrize("m", range(4, 17))
    def test_log_value_decides_each_threshold(self, m):
        """value(x) >= m exactly as the interval check decides it, at threshold(m) and one below."""
        f = LogGrowth(3, 1)
        x = f.threshold(m)
        assert [f.value(y) >= m for y in (x, x - 1)] == [budget_at_least(f, y, m) for y in (x, x - 1)] == [True, False]

    def test_log_value_refuses_x_below_one(self):
        with pytest.raises(ValueError, match="x >= 1, got 0"):
            LogGrowth(3, 1).value(0)

    def test_shift_keeps_domain_safe(self):
        with pytest.raises(ValueError):
            LogLogGrowth(2, 4, 0)
        with pytest.raises(ValueError):
            LogLogGrowth(2, 4, 3).value(0)


# loglog,2,4,3's threshold(m) as (decimal digits, SHA-256 of the text), recorded from the interval inversion that
# reference_budget keeps; tier-1 checks m <= 26, and the CI smoke m = 27 and 28, which take seconds
LOGLOG_2_4_3_THRESHOLDS = {
    4: (1, "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"),
    5: (1, "4e07408562bedb8b60ce05c1decfe3ad16b72230967de01f640b7e4729b49fce"),
    6: (2, "3fdba35f04dc8c462986c992bcf875546257113072a909c162f7e470e581e278"),
    7: (2, "434c9b5ae514646bbd91b50032ca579efec8f22bf0b4aac12e65997c418e0dd6"),
    8: (4, "ee09198e46224875cf39928511ef2b855895c43ee86d1de894ee82bc7c990afa"),
    9: (6, "7a0a102f3678c83d1b549d7e6c52594f499f4d0b393a942caf1305cb6b3a53f9"),
    10: (9, "bdaf42ad74305e4809bd5d8fd21538c664f0a2a713a3e94bd3d7b4b0f3b619cc"),
    11: (15, "f31a256e8942d31ead5926b3a6d0d400ab332d164ef996edcc3bdf33e417d833"),
    12: (24, "bf7c051fe5b87e345df849311aff823bc26e5b26b7106ef092cae54e2ea1627c"),
    13: (40, "2af31744dd2fe950c9d0e57361ab8dd494b014e2efe54ddfcd638e10b5b5294e"),
    14: (65, "ed9f702d1c77d4d8e46c730b33da514fd05ee5ab7502491b1fa0564c0b311a63"),
    15: (107, "d95fb0b70d083941d9b5452f2b5e3230f00cac09c04aacba45cd1de0ac52aa88"),
    16: (176, "a66caa6aaedd5259ad8a9f66faa41f538e1eb468243f25785930ce98a57281e9"),
    17: (289, "512cc158a148f1268577c6b91f20351773e1b2ba42d385e4774771e23172dd36"),
    18: (477, "1cc62d242a134394bd0d20ed90478671e9a1515e1efc6c67d641cf2f1c000638"),
    19: (786, "01505c021ffe55691591f5bd0a7b32e9b30504f715ae400ff0fa1f7306d8af72"),
    20: (1295, "e64a2f96b7132c969122476f2a29db428b2a47bc182c50903685bcd87185ba16"),
    21: (2135, "01ed68a36b18f360f1d486f6d63f8fd2e80fc146d27c3e1755df677c929daf68"),
    22: (3520, "8e45fa935329aa19912f3927e59b17e7ff6014e15ff9c0cbf7c31f87754d2687"),
    23: (5803, "77397f3b0f8765c3407ed4f4f42620f8834cbc1e97e57e4ad640c6813a6bc48c"),
    24: (9566, "07e148ae342e147bbdd2db080ddd34aedc5b89aa4d141b53bd2a36c76a189197"),
    25: (15772, "ce34ec2847e256e4ead9359c1175dd35058ada37e20601fcbdd508de72a79f0a"),
    26: (26004, "207dce1212c52983f42ef9e90d5794fb2727559aa1fde011e1459be08d2b0cfc"),
    27: (42872, "ae7d4fbcf565aa776a1bff5fc3971e10363e151a1e80d23330d9d72676404afa"),
    28: (70684, "347a2c7ac81349860f1c37cd50d410b5f16adcbb368c9f7a96e3db9ee9550fb5"),
}


@pytest.mark.parametrize("m", [m for m in LOGLOG_2_4_3_THRESHOLDS if m <= 26])
def test_loglog_thresholds_as_recorded(m):
    x = LogLogGrowth(2, 4, 3).threshold(m)
    with decimal_io():
        text = str(x)
    assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == LOGLOG_2_4_3_THRESHOLDS[m]


def _threshold_or_refusal(invert, *args, **kwargs):
    try:
        return invert(*args, **kwargs)
    except GrowthConfigError as e:
        return str(e)


@st.composite
def inversions(draw):
    """(m, scale, offset, nested, shift) for a threshold of at most ~5,000 digits, or a target below the offset."""
    nested = draw(st.booleans())
    scale = draw(st.floats(0.05, 40) | st.integers(1, 40))
    offset = draw(st.floats(-40, 40) | st.integers(-40, 40))
    digits = draw(st.integers(-50, 5000))  # about E's digit count, or t = digits / 5 < 0
    ln_e = (digits + 0.5) * math.log(10)
    t = digits / 5 if digits < 0 else math.log(ln_e) if nested else ln_e
    m = math.floor(offset + scale * t)  # (m - offset) / scale <= t
    return m, scale, offset, nested, draw(st.integers(1, 5)) if nested else 0


class TestIntegerInversion:
    """The integer enclosure of exp against the interval inversion it replaced, and against mpmath."""

    @seed(20261020)
    @settings(max_examples=150, deadline=None)
    @given(inversions())
    @example((4, 1.0, 4.0, False, 0))  # t = 0, so E = 1 exactly
    @example((4, 2, 4, True, 1))  # t = 0, E = e: int scale and offset
    @example((4, 4.0, 5.0, True, 1))  # t = -1/4: E = exp(exp(-1/4)) > 2, so x = 2
    @example((4, 8.0, 7.0, True, 1))  # t = -3/8: E < 2, so x = 1
    @example((4, 2.0, 30.0, True, 3))  # t = -13
    @example((10, 1.5, 4.0, True, 1))  # t = 4: a scale that is no power of two
    @example((20, 3, 1, False, 0))  # t = 19/3
    @example((-(10**400), 1.0, 0.0, False, 0))  # m past float range: x = 1
    @example((-(10**400), 2.0, 4.0, True, 1))
    @example((10**400, 1e300, 0.0, False, 0))  # refused: too many digits
    @example((60, 2.0, 4.0, True, 3))
    def test_thresholds_equal_the_interval_inversion(self, case):
        m, scale, offset, nested, shift = case
        expected = _threshold_or_refusal(reference_budget.least_x, m, scale, offset, nested=nested, shift=shift)
        assert _threshold_or_refusal(construction._least_x, m, scale, offset, nested=nested, shift=shift) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 2**200), st.integers(1, 10**30), st.integers(-300, 11), st.integers(1, 2000))
    def test_exp_series_encloses_exp(self, p, q, magnitude, bits):
        """L <= exp(x) <= U <= L * (1 + 2**-bits) + 1, in units of 2**f, for x = p / (q * 2**sigma) < 2**12."""
        import mpmath

        sigma = max(0, p.bit_length() - q.bit_length() - magnitude)
        low, high, f = construction._exp_series(p, q, sigma, bits)
        with mpmath.workprec(bits + 6200):
            exact = mpmath.exp(mpmath.mpf(p) / q / mpmath.mpf(2) ** sigma) / mpmath.mpf(2) ** f
        assert low <= exact <= high
        assert high << bits <= (low << bits) + low + (1 << bits)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-(2**100), 2**100), st.integers(1, 10**20), st.integers(-300, 11), st.integers(1, 500),
           st.integers(0, 2**12), st.integers(0, 2**40))
    def test_exp_and_its_span_enclose_exp(self, p, q, magnitude, bits, width, fraction):
        """_exp for any sign, and _exp_span from low to low + width * 2**-12, a span at most 1 wide."""
        import mpmath

        sigma = max(0, abs(p).bit_length() - q.bit_length() - magnitude)
        low, high, f = construction._exp(p, q, sigma, bits)
        span_low, span_high, g = construction._exp_span(fraction, fraction + (width << 28), -40, bits)
        with mpmath.workprec(bits + 6200):
            two = mpmath.mpf(2)
            assert low <= mpmath.exp(mpmath.mpf(p) / q / two**sigma) / two**f <= high
            assert span_low <= mpmath.exp(fraction / two**40) / two**g
            assert mpmath.exp((fraction + (width << 28)) / two**40) / two**g <= span_high


def _bookkeeping_count(trace, x):
    """The count read off stage bookkeeping: 2k below 3*reach, 2k + 1 up to
    the next radius, 2K from the final radius on."""
    for step, nxt in zip(trace.steps, trace.steps[1:]):
        if step.radius <= x < nxt.radius:
            return 2 * step.k + (x >= 3 * step.reach)
    return 2 * trace.final.k


@st.composite
def threshold_tables(draw):
    """A valid ThresholdTable: even targets >= 4, x not decreasing, some x of 500 digits or more."""
    targets = sorted(draw(st.sets(st.integers(2, 10**6).map(lambda k: 2 * k), min_size=1, max_size=6)))
    small, large = st.integers(-(10**6), 10**6), st.integers(10**499, 10**1500)
    xs = sorted(draw(st.lists(st.one_of(small, large), min_size=len(targets), max_size=len(targets))))
    return ThresholdTable(dict(zip(targets, xs)))


class TestParseBudget:
    def test_loglog_spec(self):
        policy = parse_budget("loglog,2,4,3")
        assert isinstance(policy, ThresholdReach)
        assert policy.descriptor == "loglog,2,4,3"

    def test_default_shift(self):
        assert parse_budget("loglog,2,4") == LogLogGrowth(2.0, 4.0)
        assert parse_budget("loglog,2,4").descriptor == LogLogGrowth(2.0, 4.0).descriptor

    def test_log_spec(self):
        assert parse_budget("log,2,2") == LogGrowth(2.0, 2.0)
        assert parse_budget("log,2,2").descriptor == "log,2,2"

    def test_table_spec(self):
        assert parse_budget("table,4:1;6:13").descriptor == "table,4:1;6:13"

    def test_rejects_garbage(self):
        for spec in ("log,2", "loglog,1,2,3,4", "table,", "powers,1,2"):
            with pytest.raises(GrowthConfigError):
                parse_budget(spec)

    @pytest.mark.parametrize("spec", [
        "log,3,1", "log,1.2345678,0.1234567", "log,1e+16,1e-07", "loglog,2,4,3", "loglog,2,-4,7",
        "loglog,0.5,-0.25,100", "table,4:10;6:100", "table,4:-5;8:" + "1" * 600,
    ])
    def test_canonical_spec_is_its_own_descriptor(self, spec):
        assert parse_budget(spec).descriptor == spec

    @settings(max_examples=200)
    @given(
        st.floats(min_value=0, exclude_min=True, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(min_value=1),
    )
    def test_reads_back_a_log_descriptor(self, scale, offset, shift):
        for budget in (LogGrowth(scale, offset), LogLogGrowth(scale, offset, shift)):
            assert parse_budget(budget.descriptor) == budget

    @settings(max_examples=100)
    @given(threshold_tables())
    def test_reads_back_a_table_descriptor(self, table):
        assert parse_budget(table.descriptor) == table


class TestCountingProfile:
    def test_known_values(self):
        trace = run_greedy(3)
        assert trace.final.basis.counting(-4, 4) == 4
        assert trace.final.basis.counting(-12, 12) == 5
        assert run_greedy(2).final.basis.counting(-1, 1) == 2

    def test_matches_piecewise_formula(self, greedy12):
        xs = set()
        for step in greedy12.steps:
            xs.add(step.radius)
            xs.add(step.radius + 1)
            if step.reach is not None:
                xs.update((3 * step.reach - 1, 3 * step.reach, 3 * step.reach + 1))
        xs.add(greedy12.final.radius + 10**6)
        for x in sorted(xs):
            assert greedy12.final.basis.counting(-x, x) == _bookkeeping_count(greedy12, x)

    def test_matches_piecewise_on_slow_trace(self, slow10):
        xs = []
        for step in slow10.steps[:-1]:
            xs += [step.radius, 3 * step.reach - 1, 3 * step.reach]
        for x in xs:
            assert slow10.final.basis.counting(-x, x) == _bookkeeping_count(slow10, x)


class TestTraceStructure:
    def test_stage_indices_must_be_dense(self):
        from urbasis import BasisTrace
        trace = run_greedy(3)
        with pytest.raises(ValueError):
            BasisTrace(steps=(trace.steps[0], trace.steps[2]))

    def test_step_lookup(self, greedy4):
        assert greedy4.step(3).basis.elements == (-14, -4, 0, 1, 3, 12)
        assert greedy4.final.k == 4

    def test_sizes(self, greedy4):
        assert [len(s.basis) for s in greedy4.steps] == [2, 4, 6, 8]

    def test_radius_sign_exclusive(self, greedy12):
        for s in greedy12.steps:
            assert (s.radius in s.basis) != (-s.radius in s.basis)
