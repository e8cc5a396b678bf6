"""Monte Carlo engine: accuracy, determinism, budget, correlation."""

import math
import statistics

import numpy as np
import pytest

from screenlimits import simulate
from screenlimits.errors import BudgetError, DomainError, RangeOverflowError
from screenlimits.simulate import (
    MODE_BINOMIAL,
    MODE_COMPOSITE,
    MODE_COPULA,
    MODE_POISSON,
    LatentCorrelation,
    SimPlan,
    latent_rho_for_binary,
    measure_binary_correlation,
    simulate_correlated,
    simulate_per_person,
    simulate_system,
)
from screenlimits.system import ScreeningConfig, system_probability, system_risk
from screenlimits.tails import binomial_tail, poisson_tail


def within_3se(report, slack: float = 0.0) -> bool:
    return report.abs_error <= 3.0 * report.std_error + slack


class TestPerPerson:
    def test_poisson_mode_reference_point(self):
        plan = SimPlan(k=1000, p=0.005, m=15, runs=10**6, seed=101, mode=MODE_POISSON)
        rep = simulate_per_person(plan)
        assert rep.analytic == pytest.approx(2.26e-4, rel=0.01)
        assert within_3se(rep)

    def test_binomial_mode_exact_reference(self):
        plan = SimPlan(k=20, p=0.3, m=5, runs=10**5, seed=7, mode=MODE_BINOMIAL)
        rep = simulate_per_person(plan)
        assert rep.analytic == pytest.approx(binomial_tail(20, 0.3, 5), rel=1e-12)
        assert within_3se(rep)

    def test_impossible_event(self):
        plan = SimPlan(k=50, p=0.0, m=1, runs=10**4, seed=0, mode=MODE_BINOMIAL)
        rep = simulate_per_person(plan)
        assert rep.estimate == 0.0
        assert rep.analytic == 0.0
        assert rep.abs_error == 0.0

    def test_certain_event(self):
        plan = SimPlan(k=5, p=1.0, m=5, runs=10**4, seed=0, mode=MODE_BINOMIAL)
        rep = simulate_per_person(plan)
        assert rep.estimate == 1.0
        assert rep.analytic == 1.0

    def test_zero_threshold_always_alerts(self):
        plan = SimPlan(k=10, p=0.2, m=0, runs=1000, seed=0, mode=MODE_BINOMIAL)
        rep = simulate_per_person(plan)
        assert rep.estimate == 1.0

    def test_mode_restriction(self):
        plan = SimPlan(k=10, p=0.2, m=3, runs=100, seed=0, mode=MODE_COPULA)
        with pytest.raises(DomainError):
            simulate_per_person(plan)


class TestSystem:
    def test_exact_mode_with_slack_for_saturation(self):
        cfg = ScreeningConfig(k=100, p=0.01, n=10**4, m=5)
        plan = SimPlan.for_config(cfg, runs=5000, seed=23, mode=MODE_BINOMIAL)
        rep = simulate_system(plan)
        assert rep.analytic == pytest.approx(
            system_risk(cfg).prob_at_least_one, rel=1e-12
        )
        assert rep.abs_error <= 3.0 * rep.std_error + 1e-12

    def test_poisson_mode(self):
        # n = 50 keeps the probability mid-range so the z-score is meaningful
        cfg = ScreeningConfig(k=200, p=0.01, n=50, m=6)
        plan = SimPlan.for_config(cfg, runs=20000, seed=5, mode=MODE_POISSON)
        rep = simulate_system(plan)
        assert 0.3 < rep.estimate < 0.8
        assert within_3se(rep)

    def test_composite_mode(self):
        cfg = ScreeningConfig(k=200, p=0.01, n=50, m=6)
        plan = SimPlan.for_config(cfg, runs=20000, seed=5, mode=MODE_COMPOSITE)
        rep = simulate_system(plan)
        assert 0.3 < rep.estimate < 0.8
        assert within_3se(rep)

    def test_single_person_system_matches_per_person(self):
        plan = SimPlan(k=30, p=0.1, m=6, n=1, runs=10**4, seed=99, mode=MODE_BINOMIAL)
        as_system = simulate_system(plan)
        as_person = simulate_per_person(plan)
        assert as_system.estimate == as_person.estimate
        assert as_system.analytic == pytest.approx(as_person.analytic, rel=1e-12)

    @pytest.mark.parametrize("mode", [MODE_BINOMIAL, MODE_POISSON, MODE_COMPOSITE])
    def test_analytic_is_system_probability(self, mode):
        plan = SimPlan(k=100, p=0.01, m=3, n=40, runs=100, seed=1, mode=mode)
        tail = poisson_tail(1.0, 3) if mode == MODE_POISSON else binomial_tail(100, 0.01, 3)
        assert simulate_system(plan).analytic == system_probability(tail, 40)[0]

    def test_draw_budget_enforced(self):
        plan = SimPlan(
            k=100, p=0.01, m=5, n=10**6, runs=10**6, seed=0, mode=MODE_BINOMIAL
        )
        with pytest.raises(BudgetError):
            simulate_system(plan)

    def test_budget_does_not_gate_composite(self):
        plan = SimPlan(
            k=100, p=0.01, m=5, n=10**6, runs=10**6, seed=0, mode=MODE_COMPOSITE
        )
        rep = simulate_system(plan)
        assert rep.estimate == pytest.approx(1.0)


class TestDeterminism:
    def test_repeat_call_bit_identity(self):
        plan = SimPlan(k=500, p=0.01, m=9, runs=50_000, seed=12345, mode=MODE_BINOMIAL)
        a = simulate_per_person(plan)
        b = simulate_per_person(plan)
        assert a == b

    def test_worker_count_invariance(self):
        plan = SimPlan(k=500, p=0.01, m=9, runs=50_000, seed=12345, mode=MODE_BINOMIAL)
        serial = simulate_per_person(plan, workers=1)
        for workers in (2, 4, 8):
            assert simulate_per_person(plan, workers=workers) == serial

    def test_worker_invariance_system(self):
        cfg = ScreeningConfig(k=100, p=0.01, n=200, m=4)
        plan = SimPlan.for_config(cfg, runs=20_000, seed=987, mode=MODE_BINOMIAL)
        serial = simulate_system(plan, workers=1)
        assert simulate_system(plan, workers=4) == serial

    def test_worker_invariance_copula(self):
        plan = SimPlan(k=64, p=0.05, m=8, runs=20_000, seed=55, mode=MODE_COPULA)
        corr = LatentCorrelation(kind="exchangeable", rho=0.3)
        serial = simulate_correlated(plan, corr, workers=1)
        assert simulate_correlated(plan, corr, workers=4) == serial

    def test_seed_sensitivity(self):
        base = SimPlan(k=500, p=0.01, m=9, runs=50_000, seed=1, mode=MODE_BINOMIAL)
        other = SimPlan(k=500, p=0.01, m=9, runs=50_000, seed=2, mode=MODE_BINOMIAL)
        assert simulate_per_person(base).estimate != simulate_per_person(other).estimate


class TestCalibration:
    def test_z_scores_calibrated_over_seeds(self):
        # ~95% of absolute z-scores should fall inside 3 over 100 seeds;
        # the acceptance gate is >= 95, so leave no slack here either
        plan_proto = dict(k=100, p=0.05, m=10, runs=20_000, mode=MODE_BINOMIAL)
        hits = 0
        for seed in range(100):
            rep = simulate_per_person(SimPlan(seed=seed, **plan_proto))
            if abs(rep.z_score) <= 3.0:
                hits += 1
        assert hits >= 95

    def test_error_shrinks_like_inverse_sqrt(self):
        # mean |error| over seeds vs runs on a log-log slope near -1/2
        plan_proto = dict(k=100, p=0.05, m=10, mode=MODE_BINOMIAL)
        sizes = (10**3, 10**4, 10**5, 10**6)
        mean_abs = []
        for runs in sizes:
            errors = [
                simulate_per_person(SimPlan(runs=runs, seed=seed, **plan_proto)).abs_error
                for seed in range(32)
            ]
            mean_abs.append(statistics.fmean(errors))
        slopes = [
            (math.log(mean_abs[i + 1]) - math.log(mean_abs[i]))
            / (math.log(sizes[i + 1]) - math.log(sizes[i]))
            for i in range(len(sizes) - 1)
        ]
        slope = statistics.fmean(slopes)
        assert -0.65 <= slope <= -0.35


class TestCorrelated:
    def test_zero_correlation_matches_independent(self):
        plan = SimPlan(k=50, p=0.1, m=9, runs=100_000, seed=77, mode=MODE_COPULA)
        rep = simulate_correlated(plan, LatentCorrelation(kind="exchangeable", rho=0.0))
        assert rep.analytic == pytest.approx(binomial_tail(50, 0.1, 9), rel=1e-12)
        assert within_3se(rep)
        assert rep.mean_count == pytest.approx(5.0, rel=0.02)
        assert rep.count_variance == pytest.approx(50 * 0.1 * 0.9, rel=0.05)

    def test_positive_correlation_fattens_tail(self):
        # same marginals, increasing latent correlation: deep-tail mass grows
        base = dict(k=50, p=0.1, runs=100_000, mode=MODE_COPULA)
        for m in (10, 12, 15):
            indep = simulate_correlated(
                SimPlan(m=m, seed=42, **base),
                LatentCorrelation(kind="exchangeable", rho=0.0),
            )
            corr = simulate_correlated(
                SimPlan(m=m, seed=42, **base),
                LatentCorrelation(kind="exchangeable", rho=0.4),
            )
            assert corr.estimate > indep.estimate, m

    def test_correlation_preserves_mean(self):
        plan = SimPlan(k=50, p=0.1, m=9, runs=100_000, seed=31, mode=MODE_COPULA)
        rep = simulate_correlated(plan, LatentCorrelation(kind="exchangeable", rho=0.5))
        assert rep.mean_count == pytest.approx(5.0, rel=0.02)
        assert rep.count_variance > 50 * 0.1 * 0.9 * 2.0

    def test_ar1_runs(self):
        plan = SimPlan(k=64, p=0.05, m=7, runs=50_000, seed=13, mode=MODE_COPULA)
        rep = simulate_correlated(plan, LatentCorrelation(kind="ar1", rho=0.6))
        assert 0.0 <= rep.estimate <= 1.0
        assert rep.mean_count == pytest.approx(64 * 0.05, rel=0.05)

    def test_ar1_counts_match_the_column_recurrence(self):
        k, size, rho, threshold = 365, 300, 0.55, -1.9
        corr = LatentCorrelation(kind="ar1", rho=rho)
        got = simulate._latent_counts(simulate._chunk_rng(5, 1), size, k, threshold, corr)
        own = simulate._chunk_rng(5, 1).standard_normal((size, k))
        latent = np.empty((size, k))
        latent[:, 0] = own[:, 0]
        scale = math.sqrt(1.0 - rho**2)
        for t in range(1, k):
            latent[:, t] = rho * latent[:, t - 1] + scale * own[:, t]
        assert np.array_equal(got, (latent <= threshold).sum(axis=1))

    def test_invalid_structures(self):
        with pytest.raises(DomainError):
            LatentCorrelation(kind="exchangeable", rho=-0.1)
        with pytest.raises(DomainError):
            LatentCorrelation(kind="exchangeable", rho=1.0)
        with pytest.raises(DomainError):
            LatentCorrelation(kind="ar1", rho=1.0)
        with pytest.raises(DomainError):
            LatentCorrelation(kind="unknown", rho=0.5)

    def test_copula_requires_copula_mode(self):
        plan = SimPlan(k=10, p=0.2, m=3, runs=100, seed=0, mode=MODE_BINOMIAL)
        with pytest.raises(DomainError):
            simulate_correlated(plan, LatentCorrelation(kind="exchangeable", rho=0.2))

    def test_measured_binary_correlation(self):
        # latent 0.3 compresses to a weaker binary correlation at p = 0.2
        measured = measure_binary_correlation(
            10, 0.2, LatentCorrelation(kind="exchangeable", rho=0.3), draws=200_000, seed=4
        )
        assert measured == pytest.approx(0.164, abs=0.02)
        assert 0.0 < measured < 0.3

    def test_latent_calibration_round_trip(self):
        target = 0.15
        latent = latent_rho_for_binary(8, 0.3, target, draws=100_000, seed=9)
        measured = measure_binary_correlation(
            8, 0.3, LatentCorrelation(kind="exchangeable", rho=latent), draws=200_000, seed=10
        )
        assert measured == pytest.approx(target, abs=0.02)
        assert latent > target


class TestPlanValidation:
    def test_field_checks(self):
        with pytest.raises(DomainError):
            SimPlan(k=-1, p=0.5, m=1, runs=10, seed=0, mode=MODE_BINOMIAL)
        with pytest.raises(DomainError):
            SimPlan(k=10, p=1.5, m=1, runs=10, seed=0, mode=MODE_BINOMIAL)
        with pytest.raises(DomainError):
            SimPlan(k=10, p=0.5, m=-1, runs=10, seed=0, mode=MODE_BINOMIAL)
        with pytest.raises(DomainError):
            SimPlan(k=10, p=0.5, m=1, runs=0, seed=0, mode=MODE_BINOMIAL)
        with pytest.raises(DomainError):
            SimPlan(k=10, p=0.5, m=1, runs=10, seed=-1, mode=MODE_BINOMIAL)
        with pytest.raises(DomainError):
            SimPlan(k=10, p=0.5, m=1, runs=10, seed=0, mode="bogus")

    def test_runs_beyond_draw_budget(self):
        assert SimPlan(k=10, p=0.1, m=2, runs=10**9, seed=0, mode=MODE_POISSON).runs == 10**9
        with pytest.raises(BudgetError):
            SimPlan(k=10, p=0.1, m=2, runs=10**9 + 1, seed=0, mode=MODE_POISSON)

    def test_for_config_copies_fields(self):
        cfg = ScreeningConfig(k=120, p=0.02, n=500, c=2.5)
        plan = SimPlan.for_config(cfg, runs=1000, seed=3, mode=MODE_POISSON)
        assert (plan.k, plan.p, plan.n) == (120, 0.02, 500)
        assert plan.m == cfg.threshold


def _numpy_bound(n: int, p: float) -> int:
    """The count past which numpy's inversion walk restarts."""
    mean = n * p
    return int(min(float(n), mean + 10.0 * math.sqrt(mean * (1.0 - p) + 1)))


def _inversion_edge(n: int) -> float:
    """The largest p with p * n <= 30 in floating point."""
    p = 30.0 / n
    while p * n > 30.0:
        p = math.nextafter(p, 0.0)
    while math.nextafter(p, math.inf) * n <= 30.0:
        p = math.nextafter(p, math.inf)
    return p


def _grid_ps(n: int) -> list[float]:
    """p from n p = 1e-4 to 60, the inversion edge on both sides, 1/2 and 0."""
    edge = _inversion_edge(n)
    ps = [lam / n for lam in (1e-4, 0.01, 0.3, 1.0, 5.0, 29.9, 60.0)]
    ps += [edge, math.nextafter(edge, math.inf), 0.5, 0.0]
    return sorted({min(p, 1.0) for p in ps})


class TestBinomialAlerts:
    """_binomial_alerts must equal rng.binomial(n, p, shape) >= m bit for bit."""

    @pytest.mark.parametrize("shape", [(257,), (16, 33)], ids=["1d", "2d"])
    @pytest.mark.parametrize("n", [1, 2, 20, 500, 10**6, 10**9, 2**62, 2**63 - 1])
    def test_matches_numpy_over_grid(self, n, shape):
        for i, p in enumerate(_grid_ps(n)):
            bound = _numpy_bound(n, p)
            for m in sorted({0, 1, bound, bound + 1, 40}):
                seed, j = 1000 * i + m, i % 3
                cuts = simulate._inversion_cuts(n, p, m)
                got = simulate._binomial_alerts(seed, j, n, p, m, shape, cuts)
                want = simulate._chunk_rng(seed, j).binomial(n, p, shape) >= m
                assert got.shape == want.shape
                assert np.array_equal(got, want), (n, p, m)

    def test_regime(self):
        edge = _inversion_edge(500)
        assert simulate._inversion_cuts(500, edge, 5) is not None
        assert simulate._inversion_cuts(500, math.nextafter(edge, math.inf), 5) is None
        assert simulate._inversion_cuts(60, 0.5, 30) is not None
        assert simulate._inversion_cuts(20, 0.6, 5) is None
        assert simulate._inversion_cuts(20, 0.0, 1) is None
        assert simulate._inversion_cuts(20, 0.1, 0) is None
        bound = _numpy_bound(20, 0.1)
        assert simulate._inversion_cuts(20, 0.1, bound) is not None
        assert simulate._inversion_cuts(20, 0.1, bound + 1) is None
        alert_cut, restart_cut = simulate._inversion_cuts(200, 0.01, 8)
        assert 0.0 < alert_cut < restart_cut < 1.0

    def test_restart_fallback_redraws_from_a_fresh_stream(self, monkeypatch):
        plans = [
            SimPlan(k=200, p=0.01, m=6, runs=20_000, seed=41, mode=MODE_BINOMIAL),
            SimPlan(k=200, p=0.01, m=6, n=50, runs=400, seed=42, mode=MODE_BINOMIAL),
            SimPlan(k=200, p=0.01, m=6, n=50, runs=20_000, seed=43, mode=MODE_POISSON),
        ]
        runs = [simulate_per_person, simulate_system, simulate_system]
        expected = [run(plan) for run, plan in zip(runs, plans)]
        real_cuts = simulate._inversion_cuts

        def restart_everywhere(n, p, m):
            alert_cut, _ = real_cuts(n, p, m)
            return alert_cut, -1.0

        rngs = []
        real_rng = simulate._chunk_rng

        def counted_rng(seed, j):
            rngs.append((seed, j))
            return real_rng(seed, j)

        monkeypatch.setattr(simulate, "_inversion_cuts", restart_everywhere)
        monkeypatch.setattr(simulate, "_chunk_rng", counted_rng)
        for run, plan, want in zip(runs, plans, expected):
            rngs.clear()
            assert run(plan, workers=2) == want
            # every chunk built its generator twice: once for the uniforms,
            # once more for the fallback draw
            assert len(rngs) == 2 * len(set(rngs))


class TestSamplerLimits:
    def test_binomial_size_beyond_int64(self):
        plan = SimPlan(k=20, p=0.3, m=5, n=2**63, runs=10, seed=0, mode=MODE_POISSON)
        with pytest.raises(RangeOverflowError):
            simulate_system(plan)
        plan = SimPlan(k=20, p=0.3, m=5, n=2**63 - 1, runs=10, seed=0, mode=MODE_POISSON)
        assert simulate_system(plan).estimate == 1.0

    def test_poisson_mean_beyond_numpy_limit(self):
        limit = simulate._POISSON_LAM_MAX
        assert limit == (2**63 - 1) - math.sqrt(2**63 - 1) * 10
        plan = SimPlan(k=10**19, p=1.0, m=5, runs=10, seed=0, mode=MODE_POISSON)
        with pytest.raises(RangeOverflowError):
            simulate_per_person(plan)
        # numpy itself accepts the limit and rejects the next double
        rng = np.random.default_rng(0)
        assert rng.poisson(limit) >= 0
        with pytest.raises(ValueError):
            rng.poisson(math.nextafter(limit, math.inf))
