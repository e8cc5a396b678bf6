"""Tail primitives against independent oracles and closed-form targets."""

import math
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath import exp as mp_exp
from mpmath import expm1 as mp_expm1
from mpmath import gammainc as mp_gammainc
from mpmath import hyp1f1 as mp_hyp1f1
from mpmath import log as mp_log
from mpmath import log1p as mp_log1p
from mpmath import loggamma as mp_loggamma
from mpmath import mpf
from mpmath import quad as mp_quad
from mpmath import sqrt as mp_sqrt

from screenlimits import tails
from screenlimits.errors import BudgetError, DomainError, RangeOverflowError
from screenlimits.tails import (
    OverlapInput,
    binomial_tail,
    log_poisson_tail,
    overlap_probability,
    poisson_tail,
    rate_function,
    tail_estimate,
    threshold_for_ratio,
)
from test_acceptance import _comb_overlap as comb_overlap


def enum_binomial_tail(k: int, p: float, m: int) -> float:
    """Literal 2^k enumeration: every outcome mask, weighted by p."""
    terms = [
        p ** mask.bit_count() * (1.0 - p) ** (k - mask.bit_count())
        for mask in range(1 << k)
        if mask.bit_count() >= m
    ]
    return math.fsum(terms)


def mp_overlap(v: int, t: int, s: int):
    """40-digit 1 - C(V-t, s) / C(V, s) through mpmath's loggamma."""
    with mp.workdps(40):
        log_miss = (
            mp_loggamma(v - t + 1) + mp_loggamma(v - s + 1)
            - mp_loggamma(v + 1) - mp_loggamma(v - s - t + 1)
        )
        return -mp_expm1(log_miss)


def best_time(call, repeats: int = 5) -> float:
    """Fastest of `repeats` wall-clock timings of call(), in seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return min(times)


def mp_poisson_tail(lam: float, m: int):
    """High-precision Pr(Pois(lam) >= m) via mpmath's incomplete gamma."""
    with mp.workdps(50):
        return mp_gammainc(m, 0, lam, regularized=True)


def mp_log_poisson_tail(lam: float, m: int):
    """40-digit ln P(m, lam) from P(a, z) = z^a e^-z M(1, a + 1, z) / Gamma(a + 1).

    mpmath's gammainc(m, 0, lam) raises NoConvergence by lam = 1e10; the
    Kummer series has positive terms and converges at any lam.
    """
    with mp.workdps(40):
        a, z = mpf(m), mpf(lam)
        series = mp_hyp1f1(1, a + 1, z, maxterms=10**8)
        return a * mp_log(z) - z - mp_loggamma(a + 1) + mp_log(series)


def mp_log_poisson_tail_by_quadrature(lam: float, m: int):
    """ln P(m, lam) as the integral of t^(m-1) e^-t / Gamma(m) over [0, lam], to ~40 digits.

    With t = m + u sqrt(m) the integrand is a near-Gaussian bump in u that
    ends at u0 = (lam - m) / sqrt(m), so the quadrature needs no series at
    all. Above the mean (u0 < 0) it is scaled by its value at u0 and taken
    over the last 80 / |u0| units (80 where |u0| <= 20); below, over
    |u| <= 40 up to u0. Either way all but e^-800 of it is kept. The working
    precision grows with the digits of m, which ln t^(m-1) spends. Near the
    mean it agrees with mp_log_poisson_tail to 25 digits at lam = 1e12, and
    it stays fast at lam = 1e40, where the Kummer series would need ~1e20
    terms.
    """
    with mp.workdps(40 + 2 * len(str(m))):
        a = mpf(m)
        root = mp_sqrt(a)
        top = (mpf(lam) - a) / root
        if top < 0:
            peak = top
            start = max(-root, top - (80 / -top if top < -20 else 80))
        else:
            peak = 0
            start, top = max(-root, mpf(-40)), min(top, mpf(40))
        at_peak = a + peak * root
        log_peak = (a - 1) * mp_log(at_peak) - at_peak

        def density(u):
            t = a + u * root
            return mp_exp((a - 1) * mp_log(t) - t - log_peak)

        nodes = [start + (top - start) * i / 24 for i in range(25)]
        area = mp_quad(density, nodes, maxdegree=10)
        return mp_log(area) + log_peak + mp_log(root) - mp_loggamma(a)


def mp_deviance(lam: float, m: int):
    """40-digit lam D(m/lam) = m ln(m/lam) + lam - m, through log1p of the exact m - lam."""
    with mp.workdps(40):
        d = mpf(m) - mpf(lam)
        return mpf(m) * mp_log1p(d / mpf(lam)) - d


def mp_binomial_tail(k: int, p: float, m: int):
    """40-digit Pr(Bin(k, p) >= m), pmf terms summed away from the mean.

    Above the mean it sums j >= m upward; at or below it, 1 minus the sum of
    j < m downward. Either way the terms fall, so the sum stops once a term
    is below 1e-45 of the total. (mpmath's betainc needs thousands of bits
    at k = 1e5.)
    """
    with mp.workdps(50):
        prob = mpf(p)
        odds = prob / (1 - prob)
        upper = m > k * p
        j = m if upper else m - 1
        term = mp_exp(
            mp_loggamma(k + 1) - mp_loggamma(j + 1) - mp_loggamma(k - j + 1)
            + j * mp_log(prob) + (k - j) * mp_log(1 - prob)
        )
        total = term
        while term > mpf(10) ** -45 * total and (j < k if upper else j > 0):
            if upper:
                term *= (k - j) * odds / (j + 1)
                j += 1
            else:
                term *= j / ((k - j + 1) * odds)
                j -= 1
            total += term
        return total if upper else 1 - total


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

    def test_limit_at_infinity(self):
        # m / lam past the double range: the bounds fall to 0, not nan
        assert rate_function(math.inf) == math.inf

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


class TestPoissonTail:
    def test_headline_value(self):
        assert poisson_tail(5.0, 15) == pytest.approx(2.26e-4, rel=0.01)

    def test_total_mass_at_zero(self):
        assert poisson_tail(5.0, 0) == 1.0

    def test_subnormal_mean_rounds_to_zero(self):
        # m / lam is inf here, and the tail ~1e-4664 rounds to 0.0
        assert poisson_tail(1e-310, 15) == 0.0

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

    @pytest.mark.parametrize("lam", [0.5, 5.0, 500.0, 1e4, 1e8, 1e12])
    def test_log_series_where_it_starts(self, lam):
        # m = 1.5 lam is the series' slowest start: each term is at most
        # 2/3 of the last, ~100 terms
        m = math.ceil(1.5 * lam)
        ours = log_poisson_tail(lam, m)
        assert abs(ours - float(mp_log_poisson_tail(lam, m))) <= 1e-12 * max(1.0, abs(ours))
        assert best_time(lambda: log_poisson_tail(lam, m)) < 1e-3

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
        # Le Cam: the total variation gap is at most 2 k p^2
        gap = abs(binomial_tail(1000, 0.005, 15) - poisson_tail(5.0, 15))
        assert gap <= 2 * 1000 * 0.005 * 0.005

    def test_rejects_bad_p(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(DomainError):
                binomial_tail(10, bad, 3)

    def test_huge_k_ends_in_a_result_or_a_range_error(self):
        # Pr(X < 3) < e^-1e298: the lower sum is skipped and the tail is 1
        assert best_time(lambda: binomial_tail(10**300, 0.01, 3)) < 1e-3
        assert binomial_tail(10**300, 0.01, 3) == 1.0
        # betainc(3, 1e300, 1e-305) is nan: a classified error, not a nan
        with pytest.raises(RangeOverflowError, match="betainc cannot evaluate"):
            binomial_tail(10**300, 1e-305, 3)

    @pytest.mark.parametrize(
        "k, p, m",
        [
            # m - 1 <= k p on one side of each pair, m <= 64 on one side
            (10**6, 63e-6, 64), (10**6, 63e-6, 65), (10**6, 64e-6, 64), (10**6, 64e-6, 65),
            (10**8, 5e-8, 6), (10**8, 5e-8, 7), (10**8, 6e-8, 7), (10**8, 1e-8, 2),
            (10**6, 5e-6, 1), (10, 1e-10, 1),
        ],
    )
    def test_lower_sum_and_betainc_meet_at_the_switch(self, k, p, m):
        want = float(mp_binomial_tail(k, p, m))
        assert binomial_tail(k, p, m) == pytest.approx(want, rel=1e-13, abs=0.0)

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
    """tail_estimate's bounds and exponent, the one sandwich every layer reports."""

    def test_chernoff_headline(self):
        v = tail_estimate(5.0, 15).chernoff_upper
        assert v == pytest.approx(math.exp(-5.0 * rate_function(3.0)), rel=1e-14)
        assert v == pytest.approx(1.53e-3, rel=0.01)
        assert v >= poisson_tail(5.0, 15)

    def test_chernoff_half_rate_example(self):
        assert tail_estimate(50.0, 75).chernoff_upper == pytest.approx(4.52e-3, rel=0.02)

    def test_chernoff_near_one_at_unit_ratio(self):
        assert tail_estimate(1.0 - 1e-9, 1).chernoff_upper > 0.999999

    def test_robbins_headline(self):
        v = tail_estimate(5.0, 15).robbins_lower
        want = math.exp(-5.0 * rate_function(3.0) - 1.0 / 180.0) / math.sqrt(2 * math.pi * 15.0)
        assert v == pytest.approx(want, rel=1e-14)
        assert v == pytest.approx(1.57e-4, rel=0.01)
        assert v <= poisson_tail(5.0, 15)

    @pytest.mark.parametrize("m", [5, 4, 0])
    def test_rejects_a_threshold_at_or_below_the_mean(self, m):
        with pytest.raises(DomainError, match="m > lam"):
            tail_estimate(5.0, m)

    def test_robbins_below_chernoff_everywhere(self):
        for lam in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
            for c in (1.2, 1.5, 2.0, 3.0):
                est = tail_estimate(lam, threshold_for_ratio(lam, c))
                assert est.robbins_lower < est.chernoff_upper

    def test_sandwich_full_grid(self):
        # The documented grid at the integer threshold; zero violations expected.
        for lam in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
            for c in (1.2, 1.5, 2.0, 3.0):
                m = threshold_for_ratio(lam, c)
                est = tail_estimate(lam, m)
                assert est.exact == poisson_tail(lam, m)
                assert est.robbins_lower <= est.exact <= est.chernoff_upper, (lam, c)

    def test_tail_estimate_consistency(self):
        est = tail_estimate(5.0, 15)
        assert est.robbins_lower <= est.exact <= est.chernoff_upper
        assert est.log_exact == pytest.approx(math.log(est.exact), rel=1e-12)
        assert est.exponent == pytest.approx(5.0 * rate_function(3.0), rel=1e-14)
        assert est.chernoff_upper == math.exp(-est.exponent)

    @given(
        lam=st.floats(min_value=0.1, max_value=60.0),
        c=st.floats(min_value=1.01, max_value=4.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_sandwich_property(self, lam, c):
        m = threshold_for_ratio(lam, c)
        if m <= lam:
            return
        est = tail_estimate(lam, m)
        assert est.robbins_lower <= est.exact <= est.chernoff_upper

    def test_exponent_a_hundred_million_past_a_huge_mean(self):
        # lam * rate_function(m / lam) cancels to 0.0 here, and Chernoff to 1.0
        lam, m = 1e16, 10**16 + 10**8
        est = tail_estimate(lam, m)
        assert est.exponent == pytest.approx(float(mp_deviance(lam, m)), rel=1e-13, abs=0.0)
        assert est.exponent == pytest.approx(0.49999999833, rel=1e-11)
        assert est.chernoff_upper == pytest.approx(0.60653, rel=1e-5)
        assert est.robbins_lower <= est.exact <= est.chernoff_upper

    @pytest.mark.parametrize("m", [5 * 10**16 + 1, 5 * 10**16 + 3], ids=["+1", "+3"])
    def test_exponent_at_a_threshold_no_double_holds(self, m):
        # float(m) is m - 1 or m + 1, so m - lam must come from the integers
        assert float(m) != m
        est = tail_estimate(5e16, m)
        assert est.exponent == pytest.approx(float(mp_deviance(5e16, m)), rel=1e-13, abs=0.0)
        assert 0.0 < est.robbins_lower <= est.exact <= est.chernoff_upper

    @given(
        lam=st.floats(min_value=1e-3, max_value=1e16),
        log_excess=st.floats(min_value=-12.0, max_value=math.log10(999.0)),
        offset=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_exponent_against_mpmath(self, lam, log_excess, offset):
        # m / lam - 1 from 1e-12 to 999; an offset past 2**53 gives an m no double holds
        m = math.ceil(lam * (1.0 + 10.0**log_excess)) + offset
        est = tail_estimate(lam, m)
        assert est.exponent == pytest.approx(float(mp_deviance(lam, m)), rel=1e-13, abs=0.0)
        assert est.robbins_lower <= est.chernoff_upper


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

    @pytest.mark.parametrize(
        "v, t, s", [(10**18, 3, 10**17), (10**18, 10**17, 3)], ids=["long-s", "long-t"]
    )
    def test_huge_list_in_min_s_t_steps(self, v, t, s):
        inp = OverlapInput(v, t, s)
        got = overlap_probability(inp)
        assert got == pytest.approx(float(mp_overlap(v, t, s)), rel=1e-12)
        assert best_time(lambda: overlap_probability(inp)) < 1e-3

    def test_term_limit_before_the_loop(self):
        inp = OverlapInput(10**18, 10**8, 10**8)

        def budget_error():
            with pytest.raises(BudgetError):
                overlap_probability(inp)

        assert best_time(budget_error) < 1e-3

    def test_term_limit_boundary(self, monkeypatch):
        want = overlap_probability(OverlapInput(100, 10, 5))
        monkeypatch.setattr(tails, "_MAX_TERMS", 5)
        assert overlap_probability(OverlapInput(100, 10, 5)) == want
        with pytest.raises(BudgetError):
            overlap_probability(OverlapInput(100, 6, 10))

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


def _poisson_grid():
    """(lam, m): m = lam + 1, lam + sqrt(lam), 7 standard deviations out (where
    scipy's gammainc is wrong at large lam) and 40 out (below its underflow)."""
    cases = []
    for d in range(5, 13):
        lam = 10.0**d
        root = math.sqrt(lam)
        for m in (lam + 1, lam + root, lam + 7 * root, lam + 40 * root):
            cases.append(pytest.param(lam, int(m), id=f"1e{d}-{int(m - lam)}"))
    return cases


def _binomial_grid(zs):
    """(k, p, m) over k in 1e4 .. 1e6 and five p, m at z standard deviations."""
    cases = set()
    for k in (10**4, 10**5, 10**6):
        for p in (5e-6, 1e-4, 0.01, 0.3, 0.7):
            mean, sd = k * p, math.sqrt(k * p * (1 - p))
            for z in zs:
                m = math.ceil(mean + z * sd)
                if 1 <= m <= k:
                    cases.add((k, p, m))
    return sorted(cases)


class TestAgainstMpmath:
    """The kernels against 40-digit mpmath where they claim 1e-12."""

    @pytest.mark.parametrize("lam, m", _poisson_grid())
    def test_poisson_tails(self, lam, m):
        want = mp_log_poisson_tail(lam, m)
        assert abs(log_poisson_tail(lam, m) - float(want)) <= 1e-12
        q = poisson_tail(lam, m)
        with mp.workdps(40):
            # 40 standard deviations out q is e^-800, which rounds to 0.0
            assert abs(q - mp_exp(want)) <= max(1e-12 * mp_exp(want), 5e-324)

    @pytest.mark.parametrize(
        "lam, m", [(1800.0, 3500), (7516.0, 13266), (1e4, 15000), (12890.0, 19322), (3e4, 45000)]
    )
    def test_log_tail_deep_at_a_few_ulps(self, lam, m):
        # past ln q ~ -1000 an absolute 1e-12 is a few ulps; claim 1e-15 relative
        want = float(mp_log_poisson_tail(lam, m))
        assert abs(log_poisson_tail(lam, m) - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize(
        "k, p, m",
        # with the benchmark oracle's three cases, k = 1e6 p = 5e-6 m = 3 among them
        sorted({*_binomial_grid((-1, 0, 3, 8)), (10**6, 5e-6, 3), (10**5, 6e-5, 7), (10**4, 5e-4, 4)}),
    )
    def test_binomial_tails(self, k, p, m):
        assert binomial_tail(k, p, m) == pytest.approx(
            float(mp_binomial_tail(k, p, m)), rel=1e-12, abs=0.0
        )

    @pytest.mark.parametrize("k, p, m", _binomial_grid((12, 20, 35)))
    def test_binomial_far_tails(self, k, p, m):
        # betainc's own error reaches 4e-12 at k = 1e6, p = 0.3, 35 sd out
        assert binomial_tail(k, p, m) == pytest.approx(
            float(mp_binomial_tail(k, p, m)), rel=5e-12, abs=0.0
        )


class TestHugeThresholds:
    """Thresholds past 2**53, where the ulp of m can exceed its standard
    deviation sqrt(m), against the 40-digit quadrature oracle."""

    @pytest.mark.parametrize(
        "lam, m",
        [
            (5e16, 50000000000000001),
            (1e20, 10**20 + 3 * 10**10 + 1),
            (1e20, 10**20 - 3 * 10**10 + 1),
            (1e18, int(1.4e18) + 100),
            (1e40, int(1e40) + 2**60),
            (1e40, int(1e40) - 2**60),
            (1e40, int(1e40) - 3 * 10**20 + 7),
            (1e40, int(1e40) + 2**78),
            (1e40, int(1e40) - 2**78),
        ],
        ids=[
            "5e16+1", "1e20+3sd", "1e20-3sd", "1.4e18+100", "1e40+2^60", "1e40-2^60",
            "1e40-3sd", "1e40+2^78", "1e40-2^78",
        ],
    )
    def test_threshold_no_double_holds(self, lam, m):
        assert float(m) != m
        want = float(mp_log_poisson_tail_by_quadrature(lam, m))
        got = log_poisson_tail(lam, m)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        q = poisson_tail(lam, m)
        assert 0.0 <= q <= 1.0
        assert q == pytest.approx(math.exp(want), rel=1e-12, abs=5e-324)

    def test_far_tail_of_a_huge_mean(self):
        # Temme's eta^-9 term once overflowed here (|w| ~ 2e34)
        lam, m = 1e70, int(1.2e70)
        want = float(mp_log_poisson_tail_by_quadrature(lam, m))
        assert log_poisson_tail(lam, m) == pytest.approx(want, rel=1e-15)
        assert poisson_tail(lam, m) == 0.0

    @pytest.mark.parametrize(
        "lam, m", [(1.7e308, int(8.5e307)), (7.7e305, int(3.85e305))], ids=["1.7e308", "7.7e305"]
    )
    def test_where_gammainc_returns_nan(self, lam, m):
        # far below the mean the tail is 1 to double precision
        got = log_poisson_tail(lam, m)
        assert got == 0.0 and math.copysign(1.0, got) == 1.0
        assert poisson_tail(lam, m) == 1.0

    def test_deviance_at_the_top_of_the_double_range(self):
        # _bd0's 2 x v once overflowed past x ~ 9e307: exact read nan, exponent inf
        lam, m = 1e308, int(1.01e308)
        with mp.workdps(40):
            want = float(mpf(m) * mp_log(mpf(m) / mpf(lam)) + mpf(lam) - mpf(m))
        est = tail_estimate(lam, m)
        assert est.exponent == pytest.approx(want, rel=1e-14)
        # the sandwich's width, ln sqrt(2 pi m) ~ 355, is far under an ulp of ln q
        assert est.log_exact == pytest.approx(-want, rel=1e-14)
        assert est.exact == 0.0

    @pytest.mark.parametrize(
        "lam, m, want",
        [(1e308, 10**308 + 1, 0.0), (1.7e308, int(1.7e308) + 1, math.log(0.5))],
        ids=["1e138-sd-below", "one-above-1.7e308"],
    )
    def test_off_the_grid_at_the_top_of_the_double_range(self, lam, m, want):
        # a bare ValueError and OverflowError once, from _bd0's overflow
        assert float(m) != m
        assert log_poisson_tail(lam, m) == pytest.approx(want, abs=1e-15)
        assert poisson_tail(lam, m) == pytest.approx(math.exp(want), abs=1e-15)

    @pytest.mark.parametrize("m", [0, 5, 2**53 + 1, 10**300], ids=["0", "5", "2^53+1", "10^300"])
    def test_an_infinite_mean_passes_every_threshold(self, m):
        assert poisson_tail(math.inf, m) == 1.0
        got = log_poisson_tail(math.inf, m)
        assert got == 0.0 and math.copysign(1.0, got) == 1.0

    @given(
        lam=st.floats(min_value=1e16, max_value=1e300),
        sds=st.floats(min_value=-1e3, max_value=1e3),
        offset=st.integers(min_value=-(2**80), max_value=2**80),
    )
    # 38 sd below the mean: ln q once came out as +7.4e-318
    @example(lam=1e16, sds=-1.0, offset=-3_667_711_837)
    @settings(max_examples=300, deadline=None)
    def test_is_a_log_probability_and_monotone(self, lam, sds, offset):
        m = max(0, int(lam) + int(sds * math.sqrt(lam)) + offset)
        got = log_poisson_tail(lam, m)
        assert got <= 0.0
        assert 0.0 <= poisson_tail(lam, m) <= 1.0
        later = log_poisson_tail(lam, m + 2**60)
        assert later <= got + 1e-12 * max(1.0, abs(got))


class TestRouter:
    """tail_estimate routes a threshold once and gives the entry points' bits."""

    @pytest.mark.parametrize(
        "lam, m",
        [
            (5.0, 15),  # gammainc, and the series for ln q
            (1e4, 10100),  # gammainc for both
            (1e4, 10400),  # Temme
            (1e4, 16000),  # series
            (1.0, 180),  # gammainc below the smallest normal double
            (1e12, 10**12 + 4 * 10**7),  # Temme
            (5e16, 5 * 10**16 + 1),  # off the grid, Temme
            (1e20, 3 * 10**20 + 1),  # off the grid, series
        ],
    )
    def test_tail_estimate_matches_the_entry_points(self, lam, m):
        est = tail_estimate(lam, m)
        assert repr(est.exact) == repr(poisson_tail(lam, m))
        assert repr(est.log_exact) == repr(log_poisson_tail(lam, m))

    @pytest.mark.parametrize(
        "m, kernel", [(10400, "_log_temme"), (16000, "_ratio_series")], ids=["temme", "series"]
    )
    def test_tail_estimate_runs_its_kernel_once(self, monkeypatch, m, kernel):
        calls = {"_log_temme": 0, "_ratio_series": 0}
        for name in calls:
            inner = getattr(tails, name)

            def counted(*args, _inner=inner, _name=name):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(tails, name, counted)
        tail_estimate(1e4, m)
        assert calls == {name: int(name == kernel) for name in calls}


class TestNoLongLoops:
    """Every kernel call on the grid returns within 50 ms; a per-term loop
    would take ~1 s at lam = 1e12 or k = 1e6."""

    @pytest.mark.parametrize("lam", [1e6, 1e8, 1e10, 1e12])
    @pytest.mark.parametrize("offset", [1.0, 40.0], ids=["mean+1", "underflow"])
    def test_poisson_calls(self, lam, offset):
        m = int(lam + (1 if offset == 1.0 else offset * math.sqrt(lam)))
        assert best_time(lambda: log_poisson_tail(lam, m), repeats=3) < 0.05
        assert best_time(lambda: poisson_tail(lam, m), repeats=3) < 0.05

    @pytest.mark.parametrize("k", [10**4, 10**5, 10**6])
    @pytest.mark.parametrize("p, m_of", [(5e-6, lambda k: 3), (0.3, lambda k: int(0.3 * k) + 1)])
    def test_binomial_calls(self, k, p, m_of):
        assert best_time(lambda: binomial_tail(k, p, m_of(k)), repeats=3) < 0.05


class TestLeCam:
    # Le Cam: total variation between Bin(k, p) and Pois(kp) is at most 2 k p^2

    def test_bounds_tail_gap_exhaustively(self):
        k, p = 200, 0.01
        bound = 2 * k * p * p
        assert bound == pytest.approx(0.04, rel=1e-12)
        lam = k * p
        worst = max(
            abs(binomial_tail(k, p, m) - poisson_tail(lam, m)) for m in range(0, k + 2)
        )
        assert worst <= bound

    def test_bounds_tail_gap_on_grid(self):
        for k, p in ((50, 0.02), (500, 0.004), (1000, 0.005)):
            bound = 2 * k * p * p
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

    def test_product_inside_the_fuzz_is_one(self):
        # c, lam > 0 make ceil(c lam) >= 1; the fuzz guard must not reach 0
        assert threshold_for_ratio(1e-12, 2.0) == 1
        assert threshold_for_ratio(5e-10, 2.0) == 1
        assert threshold_for_ratio(5e-324, 1.5) == 1
