"""Tail primitives against independent oracles and closed-form targets."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath import gammainc as mp_gammainc
from mpmath import log as mp_log

from screenlimits import tails
from screenlimits.errors import BudgetError, DomainError
from screenlimits.tails import (
    OverlapInput,
    RateInput,
    binomial_tail,
    chernoff_upper,
    exact_overlap_fraction,
    lecam_bound,
    log_poisson_tail,
    overlap_probability,
    poisson_tail,
    rate_function,
    robbins_lower,
    tail_estimate,
    threshold_for_ratio,
)


def enum_binomial_tail(k: int, p: float, m: int) -> float:
    """Literal 2^k enumeration: every outcome mask, weighted by p."""
    terms = [
        p ** mask.bit_count() * (1.0 - p) ** (k - mask.bit_count())
        for mask in range(1 << k)
        if mask.bit_count() >= m
    ]
    return math.fsum(terms)


def comb_overlap(v: int, t: int, s: int) -> float:
    """Exact rational 1 - C(V-t, s) / C(V, s)."""
    if t == 0 or s == 0:
        return 0.0
    if s > v - t:
        return 1.0
    return float(1 - Fraction(math.comb(v - t, s), math.comb(v, s)))


def mp_poisson_tail(lam: float, m: int):
    """High-precision Pr(Pois(lam) >= m) via mpmath's incomplete gamma."""
    with mp.workdps(50):
        return mp_gammainc(m, 0, lam, regularized=True)


class TestRateFunction:
    def test_published_value(self):
        assert rate_function(1.5) == pytest.approx(0.108, abs=1e-3)

    def test_zero_at_one(self):
        assert rate_function(1.0) == 0.0

    def test_closed_form_at_three(self):
        assert rate_function(3.0) == pytest.approx(3.0 * math.log(3.0) - 2.0, rel=1e-14)

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0):
            with pytest.raises(DomainError):
                rate_function(bad)

    def test_derivative_is_log(self):
        h = 1e-6
        for c in (0.3, 0.7, 1.0, 1.3, 2.0, 3.0, 5.0):
            fd = (rate_function(c + h) - rate_function(c - h)) / (2.0 * h)
            assert fd == pytest.approx(math.log(c), abs=1e-6)

    def test_convexity_midpoints(self):
        grid = [0.2, 0.5, 0.9, 1.0, 1.4, 2.0, 3.5, 6.0]
        for a in grid:
            for b in grid:
                if a >= b:
                    continue
                mid = 0.5 * (a + b)
                assert rate_function(mid) <= 0.5 * (rate_function(a) + rate_function(b)) + 1e-15

    def test_rate_input_exponent(self):
        ri = RateInput(c=3.0, lam=5.0)
        assert ri.exponent == pytest.approx(5.0 * rate_function(3.0), rel=1e-15)
        with pytest.raises(DomainError):
            RateInput(c=0.0, lam=5.0)
        with pytest.raises(DomainError):
            RateInput(c=2.0, lam=-1.0)


class TestPoissonTail:
    def test_headline_value(self):
        assert poisson_tail(5.0, 15) == pytest.approx(2.26e-4, rel=0.01)

    def test_total_mass_at_zero(self):
        assert poisson_tail(5.0, 0) == 1.0

    def test_cohort_values(self):
        assert poisson_tail(2.0, 3) == pytest.approx(0.323, abs=1e-3)
        assert poisson_tail(0.5, 3) == pytest.approx(0.014, abs=1e-3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            poisson_tail(0.0, 3)
        with pytest.raises(DomainError):
            poisson_tail(-2.0, 3)
        with pytest.raises(DomainError):
            poisson_tail(2.0, -1)

    def test_against_mpmath_oracle(self):
        # Representable-range accuracy target: 1e-10 relative.
        cases = []
        for lam in (0.5, 2.0, 5.0, 20.0, 100.0, 1000.0, 10000.0):
            for c in (0.5, 1.0, 1.5, 2.0, 3.0):
                m = max(1, math.ceil(c * lam))
                if lam * rate_function(max(m / lam, 1.0)) < 600.0:
                    cases.append((lam, m))
        assert len(cases) > 20
        for lam, m in cases:
            ours = poisson_tail(lam, m)
            ref = float(mp_poisson_tail(lam, m))
            assert ours == pytest.approx(ref, rel=1e-10), (lam, m)

    def test_log_tail_against_mpmath_deep(self):
        # Far past double-precision underflow, including the stated
        # upper corner of the accuracy envelope (lam=1e4, m=1e5).
        for lam, m in ((5.0, 80), (50.0, 300), (1000.0, 2500), (10000.0, 100000)):
            ours = log_poisson_tail(lam, m)
            with mp.workdps(50):
                ref = float(mp_log(mp_gammainc(m, 0, lam, regularized=True)))
            assert ours == pytest.approx(ref, rel=1e-10), (lam, m)

    def test_log_tail_term_limit(self, monkeypatch):
        # the log-space series as a plain while loop, counting its terms
        lam, m = 100.0, 110
        total = term = 1.0
        j = m
        while True:
            j += 1
            term *= lam / j
            total += term
            if term < 1e-18 * total:
                break
        want = -lam + m * math.log(lam) - math.lgamma(m + 1.0) + math.log(total)
        monkeypatch.setattr(tails, "_MAX_TERMS", j - m)
        assert log_poisson_tail(lam, m) == want
        monkeypatch.setattr(tails, "_MAX_TERMS", j - m - 1)
        with pytest.raises(BudgetError):
            log_poisson_tail(lam, m)

    def test_log_matches_linear_scale(self):
        for lam, m in ((0.5, 3), (2.0, 3), (5.0, 15), (50.0, 75), (200.0, 300)):
            exact = poisson_tail(lam, m)
            if exact > 1e-250:
                assert log_poisson_tail(lam, m) == pytest.approx(math.log(exact), rel=1e-12)

    def test_monotone_in_threshold(self):
        vals = [poisson_tail(3.0, m) for m in range(0, 40)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_monotone_in_rate(self):
        lams = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
        vals = [poisson_tail(lam, 7) for lam in lams]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestBinomialTail:
    def test_enumeration_oracle_small(self):
        for k in (1, 2, 3, 5, 8, 12):
            for p in (0.05, 0.3, 0.5, 0.9):
                for m in range(0, k + 2):
                    got = binomial_tail(k, p, m)
                    want = enum_binomial_tail(k, p, m)
                    assert abs(got - want) <= 1e-12, (k, p, m)

    def test_enumeration_oracle_k20(self):
        for p, m in ((0.3, 10), (0.05, 4), (0.7, 18)):
            got = binomial_tail(20, p, m)
            want = enum_binomial_tail(20, p, m)
            assert abs(got - want) <= 1e-12, (p, m)

    def test_trivial_edges(self):
        assert binomial_tail(10, 0.0, 1) == 0.0
        assert binomial_tail(10, 1.0, 10) == 1.0
        assert binomial_tail(10, 0.3, 0) == 1.0
        assert binomial_tail(10, 0.3, 11) == 0.0

    def test_close_to_poisson(self):
        gap = abs(binomial_tail(1000, 0.005, 15) - poisson_tail(5.0, 15))
        assert gap <= lecam_bound(1000, 0.005)

    def test_rejects_bad_p(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(DomainError):
                binomial_tail(10, bad, 3)

    def test_term_limit_is_budget_error(self):
        with pytest.raises(BudgetError):
            binomial_tail(10**300, 0.01, 3)

    def test_term_limit_boundary(self, monkeypatch):
        want = binomial_tail(12, 0.3, 3)
        monkeypatch.setattr(tails, "_MAX_TERMS", 10)
        assert binomial_tail(12, 0.3, 3) == want
        with pytest.raises(BudgetError):
            binomial_tail(13, 0.3, 3)

    @given(
        k=st.integers(min_value=1, max_value=400),
        p=st.floats(min_value=0.0, max_value=1.0),
        m=st.integers(min_value=0, max_value=450),
    )
    @settings(max_examples=200, deadline=None)
    def test_is_probability_and_monotone_step(self, k, p, m):
        v = binomial_tail(k, p, m)
        assert 0.0 <= v <= 1.0
        assert binomial_tail(k, p, m + 1) <= v + 1e-15


class TestSandwichBounds:
    def test_chernoff_headline(self):
        v = chernoff_upper(5.0, 15)
        assert v == pytest.approx(math.exp(-5.0 * rate_function(3.0)), rel=1e-14)
        assert v == pytest.approx(1.53e-3, rel=0.01)
        assert v >= poisson_tail(5.0, 15)

    def test_chernoff_half_rate_example(self):
        assert chernoff_upper(50.0, 75) == pytest.approx(4.52e-3, rel=0.02)

    def test_chernoff_near_one_at_unit_ratio(self):
        assert chernoff_upper(1.0, 1.0 + 1e-9) > 0.999999

    def test_chernoff_rejects_low_threshold(self):
        with pytest.raises(DomainError):
            chernoff_upper(5.0, 5.0)

    def test_robbins_headline(self):
        v = robbins_lower(5.0, 3.0)
        want = math.exp(-5.0 * rate_function(3.0) - 1.0 / 180.0) / math.sqrt(2 * math.pi * 15.0)
        assert v == pytest.approx(want, rel=1e-14)
        assert v == pytest.approx(1.57e-4, rel=0.01)
        assert v <= poisson_tail(5.0, 15)

    def test_robbins_rejects_c_at_most_one(self):
        with pytest.raises(DomainError):
            robbins_lower(5.0, 1.0)

    def test_robbins_below_chernoff_everywhere(self):
        for lam in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
            for c in (1.2, 1.5, 2.0, 3.0):
                assert robbins_lower(lam, c) < chernoff_upper(lam, c * lam)

    def test_sandwich_full_grid(self):
        # The documented grid, evaluated at the integer threshold's own
        # ratio c' = m/lam on both sides; zero violations expected.
        for lam in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
            for c in (1.2, 1.5, 2.0, 3.0):
                m = threshold_for_ratio(lam, c)
                c_prime = m / lam
                exact = poisson_tail(lam, m)
                assert robbins_lower(lam, c_prime) <= exact, (lam, c)
                assert exact <= chernoff_upper(lam, m), (lam, c)

    def test_tail_estimate_consistency(self):
        est = tail_estimate(5.0, 15)
        assert est.robbins_lower <= est.exact <= est.chernoff_upper
        assert est.log_exact == pytest.approx(math.log(est.exact), rel=1e-12)
        assert est.exponent == pytest.approx(5.0 * rate_function(3.0), rel=1e-14)
        with pytest.raises(DomainError):
            tail_estimate(5.0, 5)

    @given(
        lam=st.floats(min_value=0.1, max_value=60.0),
        c=st.floats(min_value=1.01, max_value=4.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_sandwich_property(self, lam, c):
        m = threshold_for_ratio(lam, c)
        if m <= lam:
            return
        exact = poisson_tail(lam, m)
        assert robbins_lower(lam, m / lam) <= exact <= chernoff_upper(lam, m)


class TestOverlap:
    def test_published_case(self):
        v = overlap_probability(OverlapInput(100, 10, 5))
        assert v == pytest.approx(0.4163, abs=1e-4)
        assert v == pytest.approx(comb_overlap(100, 10, 5), abs=1e-12)

    def test_trivial_cases(self):
        assert overlap_probability(OverlapInput(100, 0, 5)) == 0.0
        assert overlap_probability(OverlapInput(100, 10, 0)) == 0.0
        assert overlap_probability(OverlapInput(10, 8, 5)) == 1.0

    def test_comb_oracle_grid(self):
        for v in (1, 5, 17, 30, 60):
            step = max(1, v // 6)
            for t in range(0, v + 1, step):
                for s in range(0, v + 1, step):
                    got = overlap_probability(OverlapInput(v, t, s))
                    assert abs(got - comb_overlap(v, t, s)) <= 1e-12, (v, t, s)

    def test_package_comb_helper_agrees(self):
        assert exact_overlap_fraction(100, 10, 5) == pytest.approx(
            comb_overlap(100, 10, 5), abs=1e-15
        )

    def test_input_validation(self):
        with pytest.raises(DomainError):
            OverlapInput(0, 0, 0)
        with pytest.raises(DomainError):
            OverlapInput(10, 11, 5)
        with pytest.raises(DomainError):
            OverlapInput(10, 5, 11)

    @given(
        v=st.integers(min_value=1, max_value=200),
        t=st.integers(min_value=0, max_value=200),
        s=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_probability_and_monotone_in_t(self, v, t, s):
        if t > v or s > v:
            return
        val = overlap_probability(OverlapInput(v, t, s))
        assert 0.0 <= val <= 1.0
        if t + 1 <= v:
            assert overlap_probability(OverlapInput(v, t + 1, s)) >= val - 1e-15


class TestLeCam:
    def test_closed_form(self):
        assert lecam_bound(1000, 0.005) == pytest.approx(0.05, rel=1e-12)
        assert lecam_bound(123, 0.0) == 0.0

    def test_bounds_tail_gap_exhaustively(self):
        k, p = 200, 0.01
        bound = lecam_bound(k, p)
        assert bound == pytest.approx(0.04, rel=1e-12)
        lam = k * p
        worst = max(
            abs(binomial_tail(k, p, m) - poisson_tail(lam, m)) for m in range(0, k + 2)
        )
        assert worst <= bound

    def test_bounds_tail_gap_on_grid(self):
        for k, p in ((50, 0.02), (500, 0.004), (1000, 0.005)):
            bound = lecam_bound(k, p)
            lam = k * p
            for m in range(0, 30):
                assert abs(binomial_tail(k, p, m) - poisson_tail(lam, m)) <= bound


class TestThresholdForRatio:
    def test_integer_landing_stays_put(self):
        assert threshold_for_ratio(2.0, 1.5) == 3
        assert threshold_for_ratio(5.0, 3.0) == 15
        assert threshold_for_ratio(10.0, 1.2) == 12

    def test_fractional_rounds_up(self):
        assert threshold_for_ratio(5.0, 1.51) == 8
        assert threshold_for_ratio(1.0, 1.0000001) == 2
