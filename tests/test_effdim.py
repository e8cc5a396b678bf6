"""Effective dimensionality under correlation and the adjusted limits."""

import math

import pytest

from screenlimits.effdim import (
    CorrelationAdjusted,
    SpatialCorrelation,
    TemporalCorrelation,
    adjusted_limits,
    design_effect,
    k_eff_from_design_effect,
    k_eff_spatial,
    k_eff_temporal,
    k_eff_temporal_geometric,
    k_eff_temporal_rough,
    variance_with_design_effect,
)
from screenlimits import effdim
from screenlimits.errors import BudgetError, DomainError, RangeOverflowError
from screenlimits.simulate import (
    MODE_COPULA,
    LatentCorrelation,
    SimPlan,
    latent_rho_for_binary,
    simulate_correlated,
)
from screenlimits.tails import rate_function


class TestDesignEffect:
    def test_independent(self):
        assert design_effect([0.0, 0.0, 0.0], 3) == 0.0

    def test_uniform_half(self):
        # every off-diagonal correlation 0.5: row sums are each 1.0 at k=3
        assert design_effect([1.0, 1.0, 1.0], 3) == pytest.approx(1.0, rel=1e-15)

    def test_exchangeable(self):
        # rho = 0.1 between all pairs at k = 10: each row sums to 0.9
        k, rho = 10, 0.1
        row = (k - 1) * rho
        deff = design_effect([row] * k, k)
        assert deff == pytest.approx(0.9, rel=1e-12)
        assert k_eff_from_design_effect(k, deff) == pytest.approx(k / 1.9, rel=1e-12)

    def test_variance_formula(self):
        var = variance_with_design_effect(10, 0.2, 0.9)
        assert var == pytest.approx(10 * 0.2 * 0.8 * 1.9, rel=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            design_effect([0.0], 2)
        with pytest.raises(DomainError):
            k_eff_from_design_effect(10, -1.0)
        with pytest.raises(DomainError):
            variance_with_design_effect(10, 0.0, 0.5)

    def test_simulated_variance_matches_design_effect(self):
        # draw correlated binary vectors and check the inflated variance
        k, p, rho_binary = 10, 0.2, 0.1
        latent = latent_rho_for_binary(k, p, rho_binary, draws=200_000, seed=3)
        plan = SimPlan(k=k, p=p, m=3, runs=200_000, seed=11, mode=MODE_COPULA)
        rep = simulate_correlated(plan, LatentCorrelation(kind="exchangeable", rho=latent))
        predicted = variance_with_design_effect(k, p, (k - 1) * rho_binary)
        assert rep.count_variance == pytest.approx(predicted, rel=0.05)


class TestSpatial:
    def test_reference_region(self):
        # 10 km x 10 km region, 500 m correlation patches
        k_eff = k_eff_spatial(SpatialCorrelation(area=1e8, xi=500.0))
        assert k_eff == pytest.approx(63.662, abs=0.064)

    def test_single_patch(self):
        xi = 3.0
        corr = SpatialCorrelation(area=2.0 * math.pi * xi**2, xi=xi)
        assert k_eff_spatial(corr) == pytest.approx(1.0, rel=1e-15)

    def test_linear_in_area(self):
        a = k_eff_spatial(SpatialCorrelation(area=1e6, xi=100.0))
        b = k_eff_spatial(SpatialCorrelation(area=3e6, xi=100.0))
        assert b == pytest.approx(3.0 * a, rel=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            SpatialCorrelation(area=0.0, xi=1.0)
        with pytest.raises(DomainError):
            SpatialCorrelation(area=1.0, xi=0.0)

    @pytest.mark.parametrize("xi", [1e300, 1e-300])
    def test_xi_squared_out_of_range(self, xi):
        with pytest.raises(RangeOverflowError):
            k_eff_spatial(SpatialCorrelation(area=1e6, xi=xi))


class TestTemporal:
    def test_year_of_daily_data(self):
        # 365 daily observations with a 30-day memory
        full = k_eff_temporal(TemporalCorrelation(k=365, tau=30.0))
        rough = k_eff_temporal_rough(365, 30.0)
        assert rough == pytest.approx(6.083, abs=0.001)
        assert full == pytest.approx(rough, rel=0.15)

    def test_uncorrelated_sequence(self):
        corr = TemporalCorrelation(k=50, rho=tuple([0.0] * 49))
        assert k_eff_temporal(corr) == pytest.approx(50.0, rel=1e-15)

    def test_short_memory_barely_reduces(self):
        k_eff = k_eff_temporal(TemporalCorrelation(k=100, tau=0.1))
        assert k_eff == pytest.approx(100.0, rel=0.01)

    def test_geometric_form_tracks_full_sum(self):
        # for tau well separated from both 1 and k the three forms agree
        for k, tau in ((200, 5.0), (400, 10.0), (1000, 20.0)):
            full = k_eff_temporal(TemporalCorrelation(k=k, tau=tau))
            geom = k_eff_temporal_geometric(k, tau)
            rough = k_eff_temporal_rough(k, tau)
            assert geom == pytest.approx(full, rel=0.05), (k, tau)
            assert rough == pytest.approx(full, rel=0.20), (k, tau)

    def test_explicit_rho_matches_tau(self):
        k, tau = 60, 4.0
        seq = tuple(math.exp(-h / tau) for h in range(1, k))
        by_tau = k_eff_temporal(TemporalCorrelation(k=k, tau=tau))
        by_rho = k_eff_temporal(TemporalCorrelation(k=k, rho=seq))
        assert by_rho == pytest.approx(by_tau, rel=1e-12)

    def test_net_negative_correlation_returns_k(self):
        corr = TemporalCorrelation(k=3, rho=(-0.4, -0.1))
        assert k_eff_temporal(corr) == 3.0

    @pytest.mark.parametrize("tau", [0.05, 0.7, 5.0, 60.0, 5000.0])
    @pytest.mark.parametrize("k", [2, 365, 4000, 20000])
    def test_tau_sum_stops_at_underflow_bit_identically(self, k, tau):
        # reference: the full k - 1 lag sum, zero terms included
        full = 1.0 + 2.0 * sum(math.exp(-h / tau) * (1.0 - h / k) for h in range(1, k))
        want = float(k) if full <= 1.0 else k / full
        assert k_eff_temporal(TemporalCorrelation(k=k, tau=tau)) == want

    def test_tau_sum_is_short_for_huge_k(self):
        corr = TemporalCorrelation(k=int(1e300), tau=5.0)
        assert k_eff_temporal(corr) == pytest.approx(1e300 * math.tanh(0.1), rel=1e-12)

    def test_tau_sum_term_limit(self, monkeypatch):
        monkeypatch.setattr(effdim, "_MAX_TERMS", 1000)
        # 1000 nonzero lags pass, 1001 do not
        assert k_eff_temporal(TemporalCorrelation(k=1001, tau=1e6)) > 0.0
        with pytest.raises(BudgetError):
            k_eff_temporal(TemporalCorrelation(k=1002, tau=1e6))
        # a huge k is fine while exp(-h/tau) underflows within the limit
        assert k_eff_temporal(TemporalCorrelation(k=10**6, tau=1.0)) > 0.0
        with pytest.raises(BudgetError):
            k_eff_temporal(TemporalCorrelation(k=10**6, tau=2.0))

    def test_validation(self):
        with pytest.raises(DomainError):
            TemporalCorrelation(k=5)
        with pytest.raises(DomainError):
            TemporalCorrelation(k=5, tau=2.0, rho=(0.1,) * 4)
        with pytest.raises(DomainError):
            TemporalCorrelation(k=5, rho=(0.1, 0.2))
        with pytest.raises(DomainError):
            TemporalCorrelation(k=5, rho=(0.1, 0.2, 0.3, 1.5))
        with pytest.raises(DomainError):
            k_eff_temporal_rough(0, 2.0)


class TestAdjustedLimits:
    def test_dense_panel(self):
        # ten thousand attributes shrunk to 64 effective dimensions
        adj = adjusted_limits(k=10_000, p=0.005, c=1.5, k_eff=64.0)
        assert adj.adjusted_exponent == pytest.approx(0.0346, abs=0.0002)
        assert adj.adjusted_n_crit == pytest.approx(7.32, abs=0.01)
        assert adj.reduction_factor == pytest.approx(64.0 / 10_000, rel=1e-15)
        assert adj.adjusted_tail_lower == pytest.approx(
            math.exp(-adj.adjusted_exponent), rel=1e-15
        )

    def test_sparse_year(self):
        adj = adjusted_limits(k=365, p=0.02, c=12.0 / 7.3, k_eff=6.0)
        assert adj.adjusted_exponent == pytest.approx(0.0208, abs=0.0002)
        assert adj.adjusted_n_crit == pytest.approx(2.76, abs=0.01)

    def test_no_reduction_recovers_independent_exponent(self):
        k, p, c = 500, 0.01, 2.0
        adj = adjusted_limits(k=k, p=p, c=c, k_eff=float(k))
        assert adj.adjusted_exponent == pytest.approx(k * p * rate_function(c), rel=1e-15)
        assert adj.reduction_factor == 1.0

    def test_exponent_monotone_in_k_eff(self):
        exps = [
            adjusted_limits(k=1000, p=0.01, c=1.5, k_eff=ke).adjusted_exponent
            for ke in (10.0, 100.0, 500.0, 1000.0)
        ]
        assert all(a < b for a, b in zip(exps, exps[1:]))

    def test_correlation_lowers_critical_population(self):
        k, p, c = 1000, 0.01, 1.5
        independent = adjusted_limits(k=k, p=p, c=c, k_eff=float(k))
        reduced = adjusted_limits(k=k, p=p, c=c, k_eff=50.0)
        assert reduced.adjusted_n_crit < independent.adjusted_n_crit
        lam = k * p
        assert independent.adjusted_n_crit == pytest.approx(
            math.sqrt(lam) * math.exp(lam * rate_function(c)), rel=1e-15
        )

    def test_validation(self):
        with pytest.raises(DomainError):
            adjusted_limits(k=100, p=0.01, c=1.5, k_eff=101.0)
        with pytest.raises(DomainError):
            adjusted_limits(k=100, p=0.01, c=1.5, k_eff=0.0)
        with pytest.raises(DomainError):
            adjusted_limits(k=100, p=0.01, c=1.0, k_eff=50.0)
        with pytest.raises(DomainError):
            adjusted_limits(k=100, p=1.0, c=1.5, k_eff=50.0)

    @pytest.mark.parametrize(
        "k, c, k_eff",
        [(int(1e300), 2.0, 1e300), (1000, 1e300, 10.0), (10**6, 2.0, 10**6 / 4)],
        ids=["huge-k", "huge-c", "exponent-966"],
    )
    def test_critical_population_overflow(self, k, c, k_eff):
        with pytest.raises(RangeOverflowError):
            adjusted_limits(k=k, p=0.01, c=c, k_eff=k_eff)
