"""Lifetime horizons under geometric attribute growth."""

import math

import pytest

from screenlimits.errors import (
    AlreadyUnreliableError,
    BracketError,
    DomainError,
)
from screenlimits.lifetime import (
    GrowthModel,
    critical_time_analytic,
    critical_time_corrected,
    lambda_at,
    unreliability_series,
)
from screenlimits.system import system_probability
from screenlimits.tails import poisson_tail

UNIT_MEAN = GrowthModel(k0=100.0, gamma=1.5, p=0.01)  # lam(0) = 1


class TestGrowthModel:
    def test_validation(self):
        with pytest.raises(DomainError):
            GrowthModel(k0=0.5, gamma=1.5, p=0.01)
        with pytest.raises(DomainError):
            GrowthModel(k0=100.0, gamma=1.0, p=0.01)
        with pytest.raises(DomainError):
            GrowthModel(k0=100.0, gamma=1.5, p=0.0)
        with pytest.raises(DomainError):
            GrowthModel(k0=100.0, gamma=1.5, p=1.0)


class TestLambdaAt:
    def test_initial_value(self):
        assert lambda_at(UNIT_MEAN, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_doubling_identity(self):
        step = math.log(2.0) / math.log(1.5)
        for t in (0.0, 1.0, 3.7, 9.2):
            assert lambda_at(UNIT_MEAN, t + step) == pytest.approx(
                2.0 * lambda_at(UNIT_MEAN, t), rel=1e-12
            )

    def test_factor_of_two_model(self):
        model = GrowthModel(k0=100.0, gamma=2.0, p=0.01)
        assert lambda_at(model, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            lambda_at(UNIT_MEAN, -0.1)

    def test_overflow_guard(self):
        with pytest.raises(DomainError):
            lambda_at(UNIT_MEAN, 2000.0)


class TestAnalyticHorizon:
    def test_reference_table(self):
        assert critical_time_analytic(UNIT_MEAN, 3) == pytest.approx(2.7, abs=0.05)
        assert critical_time_analytic(UNIT_MEAN, 5) == pytest.approx(4.0, abs=0.05)
        assert critical_time_analytic(UNIT_MEAN, 10) == pytest.approx(5.7, abs=0.05)
        fast = GrowthModel(k0=100.0, gamma=2.0, p=0.01)
        assert critical_time_analytic(fast, 5) == pytest.approx(2.3, abs=0.05)

    def test_mean_hits_threshold_at_horizon(self):
        for m in (3, 5, 10, 40):
            t_star = critical_time_analytic(UNIT_MEAN, m)
            assert lambda_at(UNIT_MEAN, t_star) == pytest.approx(m, rel=1e-9)

    def test_already_past_returns_zero(self):
        model = GrowthModel(k0=100.0, gamma=1.5, p=0.05)  # lam(0) = 5
        assert critical_time_analytic(model, 3) == 0.0

    def test_invalid_threshold(self):
        with pytest.raises(DomainError):
            critical_time_analytic(UNIT_MEAN, 0)


class TestCorrectedHorizon:
    def test_population_pulls_horizon_earlier(self):
        rep = critical_time_corrected(UNIT_MEAN, 20, 10**6)
        assert rep.t_star_analytic == pytest.approx(
            math.log(20.0) / math.log(1.5), rel=1e-12
        )
        assert rep.t_star_corrected < rep.t_star_analytic
        assert rep.t_star_corrected == pytest.approx(4.1427, abs=0.001)
        assert rep.lambda_at_failure == pytest.approx(5.364, abs=0.01)
        assert rep.correction_magnitude == pytest.approx(
            rep.t_star_analytic - rep.t_star_corrected, abs=1e-12
        )

    def test_root_residual(self):
        for m, n in ((20, 10**6), (100, 10**6), (10, 10**3)):
            rep = critical_time_corrected(UNIT_MEAN, m, n)
            lam = lambda_at(UNIT_MEAN, rep.t_star_corrected)
            residual = n * poisson_tail(lam, m) - rep.criterion_level
            assert abs(residual) <= 1e-6, (m, n, residual)

    def test_closed_form_is_rough_and_low(self):
        # the square-root target undershoots the true failure mean badly;
        # it is carried in the report for comparison, never as the answer
        rep = critical_time_corrected(UNIT_MEAN, 100, 10**6)
        assert rep.closed_form_lambda == pytest.approx(
            100.0 - math.sqrt(200.0 * math.log(10**6)), rel=1e-14
        )
        assert rep.closed_form_lambda == pytest.approx(47.435, abs=0.01)
        assert rep.lambda_at_failure == pytest.approx(59.436, abs=0.01)
        gap = rep.lambda_at_failure - rep.closed_form_lambda
        assert gap / rep.lambda_at_failure > 0.15

    def test_monotone_in_population(self):
        roots = [
            critical_time_corrected(UNIT_MEAN, 20, n).t_star_corrected
            for n in (10**3, 10**6, 10**9)
        ]
        assert roots[0] > roots[1] > roots[2]

    def test_monotone_in_growth_rate(self):
        slow = critical_time_corrected(UNIT_MEAN, 20, 10**6)
        fast = critical_time_corrected(
            GrowthModel(k0=100.0, gamma=2.0, p=0.01), 20, 10**6
        )
        assert fast.t_star_corrected < slow.t_star_corrected
        # but both fail at nearly the same mean: the root is set by n*q(lam)
        assert fast.lambda_at_failure == pytest.approx(
            slow.lambda_at_failure, rel=0.01
        )

    def test_monotone_in_threshold(self):
        roots = [
            critical_time_corrected(UNIT_MEAN, m, 10**6).t_star_corrected
            for m in (10, 20, 40)
        ]
        assert roots[0] < roots[1] < roots[2]

    def test_criterion_level(self):
        strict = critical_time_corrected(UNIT_MEAN, 20, 10**6, criterion_level=0.01)
        lax = critical_time_corrected(UNIT_MEAN, 20, 10**6, criterion_level=1.0)
        assert strict.t_star_corrected < lax.t_star_corrected
        assert strict.criterion_level == 0.01

    def test_already_unreliable(self):
        with pytest.raises(AlreadyUnreliableError):
            critical_time_corrected(UNIT_MEAN, 2, 10**6)

    def test_unreachable_level(self):
        # a single person can never produce n*q > 1
        with pytest.raises(BracketError):
            critical_time_corrected(UNIT_MEAN, 5, 1, criterion_level=2.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            critical_time_corrected(UNIT_MEAN, 0, 10**6)
        with pytest.raises(DomainError):
            critical_time_corrected(UNIT_MEAN, 20, 0)
        with pytest.raises(DomainError):
            critical_time_corrected(UNIT_MEAN, 20, 10**6, criterion_level=0.0)
        with pytest.raises(DomainError):
            critical_time_corrected(UNIT_MEAN, 1, 10**6)  # m <= lam(0)


class TestUnreliabilitySeries:
    def test_rows_match_components(self):
        times = [0.0, 1.0, 2.0, 3.0, 4.0]
        rows = unreliability_series(UNIT_MEAN, 5, 10, times)
        assert len(rows) == len(times)
        for t, r in zip(times, rows):
            assert (r.m, r.n) == (5, 10)
            assert r.lam == pytest.approx(lambda_at(UNIT_MEAN, t), rel=1e-14)
            assert r.q == pytest.approx(poisson_tail(r.lam, 5), rel=1e-14)
            assert r.expected == r.q * 10
            assert r.prob == pytest.approx(1.0 - (1.0 - r.q) ** 10, rel=1e-10)
            assert r.prob == system_probability(r.q, 10)[0]

    def test_series_brackets_corrected_root(self):
        rep = critical_time_corrected(UNIT_MEAN, 20, 10**6)
        before, after = unreliability_series(
            UNIT_MEAN,
            20,
            10**6,
            [rep.t_star_corrected - 0.01, rep.t_star_corrected + 0.01],
        )
        assert before.expected < rep.criterion_level < after.expected

    def test_validation(self):
        with pytest.raises(DomainError):
            unreliability_series(UNIT_MEAN, 0, 10, [0.0])
        with pytest.raises(DomainError):
            unreliability_series(UNIT_MEAN, 5, 0, [0.0])
