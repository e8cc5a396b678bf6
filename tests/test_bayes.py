"""Posterior reliability: PPV, FDR, odds algebra, sparse approximation, regimes."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screenlimits.bayes import (
    REGIME_COLLAPSED,
    REGIME_EVIDENTIAL,
    REGIME_TRANSITIONAL,
    BayesContext,
    bayes_critical_population,
    classify_regime,
    ppv,
    sparse_ppv,
)
from screenlimits.errors import DomainError
from screenlimits.tails import poisson_tail, rate_function


def odds_ppv(pi: float, s: float, q: float) -> float:
    """PPV by the odds route: posterior odds = (s / q) * pi / (1 - pi)."""
    odds = (s / q) * (pi / (1.0 - pi))
    return odds / (1.0 + odds)


class TestComplementarity:
    def test_fixed_grid(self):
        rng = random.Random(42)
        for _ in range(1000):
            ctx = BayesContext(
                r=rng.uniform(0.5, 100.0),
                s=rng.uniform(0.05, 1.0),
                alpha=0.5,
                q=rng.uniform(1e-12, 0.5),
                n=rng.randrange(1000, 10**9),
            )
            post = ppv(ctx)
            assert abs(post.ppv + post.fdr - 1.0) <= 1e-15

    @given(
        pi=st.floats(min_value=1e-9, max_value=0.5),
        s=st.floats(min_value=0.01, max_value=1.0),
        q=st.floats(min_value=1e-12, max_value=0.9),
    )
    @settings(max_examples=300, deadline=None)
    def test_exact_quotients(self, pi, s, q):
        post = ppv(BayesContext(r=pi * 10**9, s=s, alpha=0.5, q=q, n=10**9))
        assert abs(post.ppv + post.fdr - 1.0) <= 1e-15
        assert 0.0 <= post.ppv <= 1.0


class TestWorkedExample:
    def test_screening_ppv(self):
        # ten real targets, 90% power, q from Pois(5) tail at m=15, a
        # million screened: an alert is ~4% likely to be real
        q = poisson_tail(5.0, 15)
        ctx = BayesContext(r=10.0, s=0.9, alpha=0.5, q=q, n=10**6)
        post = ppv(ctx)
        assert post.ppv == pytest.approx(9.0 / 235.0, rel=0.01)
        assert post.sparse_ppv == pytest.approx(post.ppv, rel=0.001)

    def test_odds_route_agrees(self):
        q = poisson_tail(5.0, 15)
        post = ppv(BayesContext(r=10.0, s=0.9, alpha=0.5, q=q, n=10**6))
        assert post.ppv / post.fdr == pytest.approx(0.0398, abs=0.0005)
        assert post.ppv == pytest.approx(0.0383, abs=0.0005)
        assert post.ppv == pytest.approx(odds_ppv(10.0 / 10**6, 0.9, q), rel=1e-12)


class TestOddsAlgebra:
    # PPV / FDR is the posterior odds: likelihood ratio s/q times prior odds
    def test_strong_evidence_example(self):
        post = ppv(BayesContext(r=1.0, s=1.0, alpha=0.5, q=1e-12, n=10**6))
        assert post.ppv / post.fdr == pytest.approx(1e6, rel=1e-5)

    def test_unit_likelihood_ratio_preserves_prior(self):
        post = ppv(BayesContext(r=30.0, s=0.4, alpha=0.5, q=0.4, n=100))
        assert post.ppv == pytest.approx(0.3, rel=1e-15)
        assert post.fdr == pytest.approx(0.7, rel=1e-15)

    @given(
        pi=st.floats(min_value=1e-9, max_value=0.99),
        s=st.floats(min_value=0.01, max_value=1.0),
        q=st.floats(min_value=1e-12, max_value=0.9),
    )
    @settings(max_examples=300, deadline=None)
    def test_odds_and_quotient_agree(self, pi, s, q):
        ctx = BayesContext(r=pi * 10**9, s=s, alpha=0.5, q=q, n=10**9)
        post = ppv(ctx)
        assert post.ppv == pytest.approx(odds_ppv(ctx.r / ctx.n, s, q), rel=1e-12)
        assert post.ppv / post.fdr == pytest.approx(
            (s / q) * (ctx.r / ctx.n) / (1.0 - ctx.r / ctx.n), rel=1e-12
        )


class TestSparseApproximation:
    def test_exact_at_critical_population(self):
        for alpha in (0.1, 0.5, 0.9, 0.99):
            r, s, q = 10.0, 0.9, 2.26e-4
            n_crit = bayes_critical_population(r, s, alpha, q)
            assert sparse_ppv(r * s, n_crit * q) == pytest.approx(alpha, rel=1e-12)

    def test_close_to_exact_when_sparse(self):
        rng = random.Random(7)
        for _ in range(200):
            r = rng.uniform(1.0, 50.0)
            s = rng.uniform(0.1, 1.0)
            q = rng.uniform(1e-8, 1e-3)
            n = rng.randrange(10**5, 10**9)
            post = ppv(BayesContext(r=r, s=s, alpha=0.5, q=q, n=n))
            # the approximation drops a pi-sized term in the denominator
            assert abs(post.ppv - post.sparse_ppv) <= 2.0 * r / n + 1e-15

    def test_critical_population_example(self):
        n_crit = bayes_critical_population(10.0, 0.9, 0.5, 2.26e-4)
        assert n_crit == pytest.approx(39823.0, rel=1e-3)

    def test_alpha_limits(self):
        assert bayes_critical_population(10.0, 0.9, 0.999999, 1e-4) < 1.0
        small = bayes_critical_population(10.0, 0.9, 0.5, 1e-4)
        large = bayes_critical_population(10.0, 0.9, 0.1, 1e-4)
        assert small < large

    def test_scaling_with_tail_exponent(self):
        # with q the Pois(lam) tail at c*lam, n_crit grows like
        # exp(lam * D(c)) over a sqrt(lam) prefactor
        c = 2.0
        values = {}
        for lam in (5.0, 10.0, 20.0):
            q = poisson_tail(lam, math.ceil(c * lam))
            values[lam] = bayes_critical_population(10.0, 0.9, 0.5, q)
        for lam_a, lam_b in ((5.0, 10.0), (10.0, 20.0)):
            predicted = math.exp((lam_b - lam_a) * rate_function(c)) * math.sqrt(
                lam_b / lam_a
            )
            assert values[lam_b] / values[lam_a] == pytest.approx(predicted, rel=0.30)


class TestMonotonicity:
    def test_ppv_falls_with_population(self):
        vals = [
            ppv(BayesContext(r=10.0, s=0.9, alpha=0.5, q=1e-4, n=n)).ppv
            for n in (10**4, 10**5, 10**6, 10**7)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_ppv_falls_with_false_alert_rate(self):
        vals = [
            ppv(BayesContext(r=10.0, s=0.9, alpha=0.5, q=q, n=10**6)).ppv
            for q in (1e-6, 1e-5, 1e-4, 1e-3)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_ppv_rises_with_power(self):
        vals = [
            ppv(BayesContext(r=10.0, s=s, alpha=0.5, q=1e-4, n=10**6)).ppv
            for s in (0.2, 0.5, 0.9)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestRegimes:
    def test_forensic_match_is_evidential(self):
        ctx = BayesContext(r=1.0, s=1.0, alpha=0.5, q=1e-12, n=10**6)
        verdict = classify_regime(ctx)
        assert verdict.nq == pytest.approx(1e-6, rel=1e-9)
        assert verdict.regime == REGIME_EVIDENTIAL
        assert verdict.frequentist_reliable

    def test_mass_screening_is_collapsed(self):
        ctx = BayesContext(r=10.0, s=0.9, alpha=0.5, q=2.26e-4, n=10**6)
        verdict = classify_regime(ctx)
        assert verdict.nq > 10.0 * verdict.rs
        assert verdict.regime == REGIME_COLLAPSED
        assert not verdict.frequentist_reliable

    def test_balanced_point_is_transitional(self):
        # nq == rs exactly: 100 * 0.09 = 9 = 10 * 0.9
        ctx = BayesContext(r=10.0, s=0.9, alpha=0.5, q=0.09, n=100)
        assert classify_regime(ctx).regime == REGIME_TRANSITIONAL

    def test_cut_boundaries(self):
        # nq = 0.1 * rs sits in evidential; nq = 10 * rs in collapsed
        lo = BayesContext(r=10.0, s=1.0, alpha=0.5, q=1.0 / 10**6, n=10**6)
        assert classify_regime(lo).regime == REGIME_EVIDENTIAL
        hi = BayesContext(r=10.0, s=1.0, alpha=0.5, q=100.0 / 10**6, n=10**6)
        assert classify_regime(hi).regime == REGIME_COLLAPSED

    def test_reliable_flag_tracks_unit_alert(self):
        below = BayesContext(r=1.0, s=0.5, alpha=0.5, q=0.5 / 10**6, n=10**6)
        above = BayesContext(r=1.0, s=0.5, alpha=0.5, q=2.0 / 10**6, n=10**6)
        assert classify_regime(below).frequentist_reliable
        assert not classify_regime(above).frequentist_reliable


class TestEdgesAndValidation:
    def test_certain_prior(self):
        assert ppv(BayesContext(r=100.0, s=0.9, alpha=0.5, q=0.3, n=100)).ppv == 1.0

    def test_zero_false_alerts(self):
        assert ppv(BayesContext(r=1.0, s=0.9, alpha=0.5, q=0.0, n=100)).ppv == 1.0

    def test_context_validation(self):
        with pytest.raises(DomainError):
            BayesContext(r=0.0, s=0.9, alpha=0.5, q=0.1, n=100)
        with pytest.raises(DomainError):
            BayesContext(r=1.0, s=1.5, alpha=0.5, q=0.1, n=100)
        with pytest.raises(DomainError):
            BayesContext(r=1.0, s=0.9, alpha=1.0, q=0.1, n=100)
        with pytest.raises(DomainError):
            BayesContext(r=1.0, s=0.9, alpha=0.5, q=1.5, n=100)
        with pytest.raises(DomainError):
            BayesContext(r=200.0, s=0.9, alpha=0.5, q=0.1, n=100)

    def test_degenerate_quotients(self):
        with pytest.raises(DomainError):
            sparse_ppv(0.0, 0.0)
        with pytest.raises(DomainError):
            bayes_critical_population(10.0, 0.9, 0.5, 0.0)
