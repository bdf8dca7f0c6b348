"""Kernel arithmetic: known values plus algebraic properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urbasis import IntSet, min_abs_missing

A2 = IntSet((-4, 0, 1, 3))
A3 = IntSet((-14, -4, 0, 1, 3, 12))

int_sets = st.frozensets(st.integers(-10**6, 10**6), max_size=40).map(IntSet.of)
small_sets = st.frozensets(st.integers(-50, 50), max_size=12).map(IntSet.of)


class TestConstruction:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            IntSet((3, 1))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            IntSet((1, 1))

    def test_unsorted_message_past_interpreter_digit_limit(self):
        with pytest.raises(ValueError) as refused:
            IntSet((10**5000, 1))
        assert str(refused.value) == "elements must be strictly increasing: <5001-digit integer> then 1"

    def test_of_sorts_and_dedups(self):
        assert IntSet.of([3, -4, 1, 0, 3]).elements == (-4, 0, 1, 3)

    def test_membership(self):
        assert 3 in A2 and -4 in A2 and 2 not in A2

    def test_empty_is_legal(self):
        empty = IntSet()
        assert len(empty) == 0 and not empty


class TestWithEnds:
    """IntSet.with_ends adds one element at each end, and compares only those two."""

    @settings(max_examples=150, deadline=None)
    @given(base=small_sets, low=st.integers(-60, 60), high=st.integers(-60, 60))
    def test_equals_the_constructor(self, base, low, high):
        values = (low,) + base.elements + (high,)
        try:
            expected = IntSet(values)
        except ValueError as refused:
            with pytest.raises(ValueError) as got:
                base.with_ends(low, high)
            assert str(got.value) == str(refused)
        else:
            assert base.with_ends(low, high) == expected

    @pytest.mark.parametrize("low, high, message", [
        (-14, 13, "-14 then -14"), (-15, 12, "12 then 12"), (0, 0, "0 then -14"), (-15, 13, None),
    ])
    def test_reports_the_first_pair_out_of_order(self, low, high, message):
        if message is None:
            assert A3.with_ends(low, high).elements == (-15,) + A3.elements + (13,)
        else:
            with pytest.raises(ValueError, match=f"^elements must be strictly increasing: {message}$"):
                A3.with_ends(low, high)

    def test_on_the_empty_set(self):
        assert IntSet().with_ends(-1, 1) == IntSet((-1, 1))
        with pytest.raises(ValueError, match="^elements must be strictly increasing: 1 then 1$"):
            IntSet().with_ends(1, 1)

    def test_compares_only_the_new_elements(self):
        compared = []

        class Counted(int):
            def __ge__(self, other):
                compared.append((int(self), int(other)))
                return int(self) >= int(other)

        base = IntSet(tuple(Counted(v) for v in range(-50, 50)))
        compared.clear()
        widened = base.with_ends(Counted(-60), Counted(60))
        assert compared == [(-60, -50), (49, 60)]
        assert widened.elements == (-60, *range(-50, 50), 60)


class TestSumset:
    def test_seed(self):
        assert IntSet((0, 1)).self_sumset().elements == (0, 1, 2)

    def test_stage_two(self):
        assert A2.self_sumset().elements == (-8, -4, -3, -1, 0, 1, 2, 3, 4, 6)

    def test_empty_absorbs(self):
        assert IntSet().self_sumset() == IntSet()

    @settings(max_examples=100)
    @given(small_sets)
    def test_matches_ordered_pair_sums(self, a):
        """Pairs a <= a' give the same sums as all ordered pairs."""
        assert set(a.self_sumset()) == {x + y for x in a for y in a}

    @settings(max_examples=100)
    @given(small_sets, st.integers(-10**9, 10**9))
    def test_translation_equivariant(self, a, c):
        """(A + c) + (A + c) = (A + A) + 2c."""
        shifted = IntSet.of(x + c for x in a)
        assert shifted.self_sumset() == IntSet.of(s + 2 * c for s in a.self_sumset())


class TestRepCount:
    def test_zero_has_one(self):
        assert A2.rep_count(0) == 1

    def test_missing_value(self):
        assert A2.rep_count(5) == 0

    def test_double_representation(self):
        assert IntSet((-4, 0, 1, 4)).rep_count(0) == 2

    @settings(max_examples=100)
    @given(small_sets)
    def test_total_count_is_pair_count(self, a):
        """Summing rep_count over the sumset touches every unordered pair once."""
        n = len(a)
        assert sum(a.rep_count(s) for s in a.self_sumset()) == n * (n + 1) // 2

    @settings(max_examples=100)
    @given(small_sets, st.integers(-200, 200))
    def test_positive_iff_in_sumset(self, a, n):
        """rep_count(n) > 0 exactly when n is a pairwise sum."""
        assert (a.rep_count(n) > 0) == (n in a.self_sumset())


class TestCounting:
    def test_known(self):
        assert A3.counting(-4, 4) == 4

    def test_single_point(self):
        assert A3.counting(12, 12) == 1

    def test_empty_window(self):
        assert A3.counting(5, 11) == 0

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            A3.counting(4, -4)

    @settings(max_examples=100)
    @given(int_sets, st.integers(0, 10**6), st.integers(0, 10**6))
    def test_monotone_in_window(self, a, x, y):
        """Wider symmetric windows never lose elements."""
        x, y = min(x, y), max(x, y)
        assert a.counting(-x, x) <= a.counting(-y, y)


class TestMaxAbs:
    def test_known_values(self):
        assert IntSet((0, 1)).max_abs() == 1
        assert A2.max_abs() == 4
        assert A3.max_abs() == 14

    def test_negative_dominates(self):
        assert IntSet((-9, 5)).max_abs() == 9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            IntSet().max_abs()


class TestMinAbsMissing:
    def test_seed_sums(self):
        assert min_abs_missing(IntSet((0, 1, 2))) == (1, False)

    def test_stage_two_sums(self):
        assert min_abs_missing(A2.self_sumset()) == (2, False)

    def test_stage_three_sums(self):
        assert min_abs_missing(A3.self_sumset()) == (5, True)

    def test_both_missing_reports_positive(self):
        # neither +3 nor -3 present: the positive side wins the tie
        assert min_abs_missing(IntSet((-2, -1, 0, 1, 2))) == (3, True)

    def test_plain_set_and_resumed_start(self):
        sums = set(A3.self_sumset())
        assert min_abs_missing(sums) == min_abs_missing(sums, 5) == (5, True)
        assert min_abs_missing(sums, 6) == (6, False)  # below start is not rechecked
        with pytest.raises(ValueError):
            min_abs_missing(sums, 0)

    @settings(max_examples=100)
    @given(small_sets)
    def test_b_is_minimal(self, a):
        """Every |n| below the reported b appears with both signs."""
        sums = a.self_sumset()
        b, positive = min_abs_missing(sums)
        assert (b not in sums) == positive
        assert (b not in sums) or (-b not in sums)
        for n in range(1, b):
            assert n in sums and -n in sums
