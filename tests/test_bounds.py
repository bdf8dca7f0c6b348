"""Density bound predicates: frozen values, exactness, cross-checks."""

import math
from records import replace

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urbasis import (
    IntSet,
    growth_report,
    log_envelope,
    reach_envelope,
    run_greedy,
    sqrt_cap,
)
from urbasis.bounds import _sqrt_float, _to_float


class TestLogEnvelope:
    def test_seed_point(self):
        check = log_envelope(1, 2)
        assert check.holds
        assert check.lower == pytest.approx(0.6348, abs=1e-3)
        assert check.upper == pytest.approx(2.0, rel=1e-9)

    def test_stage_two_point(self):
        check = log_envelope(4, 4)
        assert check.holds
        assert check.lower == pytest.approx(2.357, abs=1e-3)
        assert check.upper == pytest.approx(4.524, abs=1e-3)

    def test_upper_violation(self):
        assert not log_envelope(4, 6).holds

    def test_lower_violation(self):
        assert not log_envelope(10**6, 2).holds

    def test_boundary_equality_is_exact(self):
        # at x = 3 the upper bound is exactly 4; a count of 4 must pass
        assert log_envelope(3, 4).holds
        assert not log_envelope(3, 5).holds

    def test_rejects_x_below_one(self):
        with pytest.raises(ValueError):
            log_envelope(0, 2)

    def test_zero_count_fails_lower(self):
        assert not log_envelope(4, 0).holds

    @settings(max_examples=200)
    @given(st.integers(1, 10**9), st.integers(0, 200))
    def test_exact_decision_matches_high_precision(self, x, observed):
        """Integer power comparisons agree with 50-digit float evaluation."""
        check = log_envelope(x, observed)
        with mpmath.workdps(50):
            lower = 2 * mpmath.ln(x) / mpmath.ln(5) + 2 * (1 - mpmath.ln(3) / mpmath.ln(5))
            upper = 2 * mpmath.ln(x) / mpmath.ln(3) + 2
            margin = mpmath.mpf("1e-30")
            # skip hairline ties; the exact route is the authority there
            if min(abs(observed - lower), abs(observed - upper)) > margin:
                assert check.holds == (lower <= observed <= upper)


class TestSqrtCap:
    def test_greedy_prefix_value(self):
        # the greedy set has 8 elements with |a| <= 100
        trace = run_greedy(6)
        observed = trace.final.basis.counting(-100, 100)
        assert observed == 8
        check = sqrt_cap(1, 100, observed)
        assert check.holds
        assert check.upper == pytest.approx(28.284, abs=1e-3)

    def test_astronomical_sample_point(self):
        # display value saturates to inf; the decision itself stays exact
        check = sqrt_cap(1, 10**2000, 40)
        assert check.holds
        assert check.upper == math.inf
        assert not sqrt_cap(1, 10**2000, 10**1001).holds

    @pytest.mark.parametrize("n", [2**2046, 2**2048 - 1, 2**2048], ids=["2^2046", "2^2048-1", "2^2048"])
    def test_display_root_near_double_range(self, n):
        # past 2048 bits the root is not taken: sqrt(n) >= 2**1024 overflows a double anyway
        assert _sqrt_float(n) == _to_float(math.isqrt(n))
        assert math.isinf(_sqrt_float(n)) == (n >= 2**2048 - 1)  # 2**2048 - 1 overflows once rounded

    def test_boundary_equality(self):
        assert sqrt_cap(2, 4, 8).holds        # 64 == 8*2*4
        assert not sqrt_cap(2, 4, 9).holds

    def test_rejects_x_below_r(self):
        with pytest.raises(ValueError):
            sqrt_cap(2, 1, 1)

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            sqrt_cap(0, 4, 1)

    def test_interval_counterexample(self):
        # an interval has ~2m+1 elements in [-m, m]: far above sqrt(8m)
        m = 100
        interval = IntSet(tuple(range(-m, m + 1)))
        assert not sqrt_cap(1, m, interval.counting(-m, m)).holds

    @settings(max_examples=200)
    @given(st.integers(1, 4), st.integers(1, 10**12), st.integers(0, 10**7))
    def test_exact_decision(self, r, x, observed):
        if x < r:
            return
        check = sqrt_cap(r, x, observed)
        assert check.holds == (observed * observed <= 8 * r * x)


class TestReachEnvelope:
    @pytest.mark.parametrize("k,reach,expect", [
        (1, 1, True),
        (2, 4, True),
        (3, 14, True),
        (3, 13, True),
        (3, 19, True),
        (3, 12, False),
        (3, 20, False),
    ])
    def test_known_points(self, k, reach, expect):
        check = reach_envelope(k, reach)
        assert check.holds is expect

    def test_bounds_are_integers_for_all_k(self):
        for k in range(1, 60):
            assert (3**k - 1) % 2 == 0
            assert (3 * 5**k + 5) % 20 == 0

    def test_display_values(self):
        check = reach_envelope(3, 14)
        assert check.lower == 13.0 and check.upper == 19.0

    def test_rejects_bad_stage(self):
        with pytest.raises(ValueError):
            reach_envelope(0, 1)


class TestGrowthReport:
    def test_greedy_all_hold(self):
        trace = run_greedy(3)
        checks = growth_report(trace, [1, 4, 14])
        assert len(checks) == 8  # log envelope + sqrt cap per sample, reach envelope per extended stage
        assert {c.name for c in checks} == {"log-envelope", "sqrt-cap", "reach-envelope"}
        assert all(c.holds for c in checks)

    def test_greedy_reach_samples(self, greedy12):
        xs = [s.reach for s in greedy12.steps if s.reach is not None]
        assert all(c.holds for c in growth_report(greedy12, xs))

    def test_greedy_decided_from_data_not_label(self):
        trace = replace(run_greedy(3), mode="relabelled")
        names = [c.name for c in growth_report(trace, [1, 4, 14])]
        assert names.count("log-envelope") == 3

    def test_non_greedy_gets_cap_only(self, slow10):
        checks = growth_report(slow10, [slow10.steps[0].radius])
        assert [c.name for c in checks] == ["sqrt-cap"]

    def test_empty_samples(self, greedy12, slow10):
        checks = growth_report(greedy12, [])
        assert [(c.name, c.x) for c in checks] == [("reach-envelope", k) for k in range(1, 12)]
        assert all(c.holds for c in checks)
        assert growth_report(slow10, []) == []

    def test_rejects_out_of_range(self, greedy4):
        with pytest.raises(ValueError):
            growth_report(greedy4, [0])
        with pytest.raises(ValueError):
            growth_report(greedy4, [2 * greedy4.final.radius + 1])

    def test_monotone_display_bounds(self):
        lowers, uppers = [], []
        for x in range(1, 400):
            check = log_envelope(x, 2)
            lowers.append(check.lower)
            uppers.append(check.upper)
        assert lowers == sorted(lowers)
        assert uppers == sorted(uppers)
        caps = [sqrt_cap(1, x, 0).upper for x in range(1, 400)]
        assert caps == sorted(caps)
