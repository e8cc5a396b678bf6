"""Monte Carlo engine: accuracy, determinism, budget, correlation."""

import math
import statistics
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri, owens_t

from screenlimits import simulate
from screenlimits.cli import main
from screenlimits.datasets import figure_panels
from screenlimits.errors import BudgetError, DomainError, RangeOverflowError
from screenlimits.simulate import (
    MODE_BINOMIAL,
    MODE_COPULA,
    MODE_POISSON,
    LatentCorrelation,
    SimPlan,
    simulate_correlated,
    simulate_per_person,
    simulate_system,
)
from screenlimits.system import ScreeningConfig, system_probability, system_risk
from screenlimits.tails import binomial_tail, poisson_tail


def within_3se(report, slack: float = 0.0) -> bool:
    return report.abs_error <= 3.0 * report.std_error + slack


def binary_correlation(p: float, rho: float) -> float:
    """Correlation of two indicators 1{Z_i <= Phi^-1(p)} whose latent normals
    have correlation rho: (Phi2(h, h; rho) - p^2) / (p (1 - p)), h = Phi^-1(p),
    with the orthant Phi2(h, h; rho) = Phi(h) - 2 T(h, sqrt((1 - rho) / (1 + rho)))
    written through Owen's T."""
    h = ndtri(p)
    both = ndtr(h) - 2.0 * owens_t(h, math.sqrt((1.0 - rho) / (1.0 + rho)))
    return float((both - p * p) / (p * (1.0 - p)))


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
        plan = SimPlan(k=100, p=0.01, m=5, n=10**4, runs=5000, seed=23, mode=MODE_BINOMIAL)
        rep = simulate_system(plan)
        assert rep.analytic == pytest.approx(
            system_risk(cfg).prob, rel=1e-12
        )
        assert rep.abs_error <= 3.0 * rep.std_error + 1e-12

    def test_poisson_mode(self):
        # n = 50 keeps the probability mid-range so the z-score is meaningful
        plan = SimPlan(k=200, p=0.01, m=6, n=50, runs=20000, seed=5, mode=MODE_POISSON)
        rep = simulate_system(plan)
        assert 0.3 < rep.estimate < 0.8
        assert within_3se(rep)

    def test_single_person_system_matches_per_person(self):
        plan = SimPlan(k=30, p=0.1, m=6, n=1, runs=10**4, seed=99, mode=MODE_BINOMIAL)
        as_system = simulate_system(plan)
        as_person = simulate_per_person(plan)
        assert as_system.estimate == as_person.estimate
        assert as_system.analytic == pytest.approx(as_person.analytic, rel=1e-12)

    @pytest.mark.parametrize("mode", [MODE_BINOMIAL, MODE_POISSON])
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

    def test_budget_error_names_the_poisson_route(self):
        exact = SimPlan(k=100, p=0.01, m=5, n=10**6, runs=10**4, seed=0, mode=MODE_BINOMIAL)
        with pytest.raises(BudgetError, match="mode='poisson-approx'"):
            simulate_system(exact)
        rep = simulate_system(replace(exact, mode=MODE_POISSON))
        assert rep.runs == 10**4
        assert rep.estimate == pytest.approx(1.0)
        assert rep.analytic == system_probability(poisson_tail(1.0, 5), 10**6)[0]


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
        plan = SimPlan(k=100, p=0.01, m=4, n=200, runs=20_000, seed=987, mode=MODE_BINOMIAL)
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

    def test_poisson_z_scores_calibrated_over_seeds(self):
        # person poisson-approx decides each run from one raw word
        plan_proto = dict(k=100, p=0.05, m=10, runs=20_000, mode=MODE_POISSON)
        assert simulate._poisson_law(100 * 0.05, 10)[0] is not None
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

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.6])
    def test_exchangeable_law_matches_the_full_latent_sampler(self, rho):
        # the one-factor binomial draw against k latent normals per run
        k, p, m, runs = 40, 0.1, 9, 100_000
        threshold = statistics.NormalDist().inv_cdf(p)
        corr = LatentCorrelation(kind="exchangeable", rho=rho)
        got = simulate._latent_counts(simulate._chunk_rng(3, 0), runs, k, threshold, corr)
        rng = np.random.default_rng(4)
        want = np.concatenate(
            [
                (
                    math.sqrt(rho) * rng.standard_normal(10_000)[:, None]
                    + math.sqrt(1.0 - rho) * rng.standard_normal((10_000, k))
                    <= threshold
                ).sum(axis=1)
                for _ in range(runs // 10_000)
            ]
        )

        def z(stat_a, stat_b):
            # two-sample z of per-run statistics
            a, b = stat_a.astype(float), stat_b.astype(float)
            se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
            return (a.mean() - b.mean()) / se

        assert abs(z(got, want)) <= 6.0
        assert abs(z((got - got.mean()) ** 2, (want - want.mean()) ** 2)) <= 6.0
        assert abs(z(got >= m, want >= m)) <= 6.0

    def test_invalid_structures(self):
        with pytest.raises(DomainError):
            LatentCorrelation(kind="exchangeable", rho=-0.1)
        with pytest.raises(DomainError):
            LatentCorrelation(kind="exchangeable", rho=1.0)
        with pytest.raises(DomainError):
            LatentCorrelation(kind="ar1", rho=1.0)
        with pytest.raises(DomainError):
            LatentCorrelation(kind="unknown", rho=0.5)

    def test_draw_budget_counts_every_latent_draw(self):
        corr = LatentCorrelation(kind="ar1", rho=0.5)
        plan = SimPlan(k=10**6, p=0.1, m=3, runs=1001, seed=0, mode=MODE_COPULA)
        with pytest.raises(BudgetError, match="k\\*runs"):
            simulate_correlated(plan, corr)

    def test_copula_requires_copula_mode(self):
        plan = SimPlan(k=10, p=0.2, m=3, runs=100, seed=0, mode=MODE_BINOMIAL)
        with pytest.raises(DomainError):
            simulate_correlated(plan, LatentCorrelation(kind="exchangeable", rho=0.2))

    def test_measured_binary_correlation(self):
        # latent 0.3 compresses to a weaker binary correlation at p = 0.2;
        # moment-matched from the count variance with the empirical p
        k, corr = 10, LatentCorrelation(kind="exchangeable", rho=0.3)
        plan = SimPlan(k=k, p=0.2, m=k + 1, runs=200_000, seed=4, mode=MODE_COPULA)
        rep = simulate_correlated(plan, corr)
        p_hat = rep.mean_count / k
        bern_var = p_hat * (1.0 - p_hat)
        measured = (rep.count_variance - k * bern_var) / (k * (k - 1) * bern_var)
        assert binary_correlation(0.2, 0.3) == pytest.approx(0.1634, abs=1e-4)
        assert measured == pytest.approx(binary_correlation(0.2, 0.3), abs=0.02)
        assert 0.0 < measured < 0.3

    def test_latent_calibration_round_trip(self):
        # pick the latent rho whose binary correlation is the target, then
        # measure that target back from the simulated counts
        k, p, target = 8, 0.3, 0.15
        latent = brentq(lambda rho: binary_correlation(p, rho) - target, 0.0, 0.99, xtol=1e-12)
        plan = SimPlan(k=k, p=p, m=k + 1, runs=200_000, seed=10, mode=MODE_COPULA)
        rep = simulate_correlated(plan, LatentCorrelation(kind="exchangeable", rho=latent))
        p_hat = rep.mean_count / k
        bern_var = p_hat * (1.0 - p_hat)
        measured = (rep.count_variance - k * bern_var) / (k * (k - 1) * bern_var)
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


class _PoolBuilt(Exception):
    pass


class _NoPool:
    """Stands in for ThreadPoolExecutor: building one raises, so no thread starts."""

    def __init__(self, *args, **kwargs):
        raise _PoolBuilt


class TestWorkers:
    RUNS = {
        "person": lambda w, runs=10: simulate_per_person(
            _workers_plan(MODE_BINOMIAL, runs), workers=w
        ),
        "system": lambda w, runs=10: simulate_system(
            _workers_plan(MODE_BINOMIAL, runs), workers=w
        ),
        "correlated": lambda w, runs=10: simulate_correlated(
            _workers_plan(MODE_COPULA, runs), LatentCorrelation(kind="ar1", rho=0.5), workers=w
        ),
    }

    @pytest.mark.parametrize("workers", [0, -1, 33, 10**6, 2.0, True])
    @pytest.mark.parametrize("run", RUNS.values(), ids=RUNS)
    def test_out_of_range_fails_before_any_pool(self, run, workers, monkeypatch):
        monkeypatch.setattr(simulate, "_POOL", None)
        monkeypatch.setattr(simulate, "ThreadPoolExecutor", _NoPool)
        with pytest.raises(DomainError, match="workers must be an integer in"):
            run(workers)

    @pytest.mark.parametrize("run", RUNS.values(), ids=RUNS)
    def test_bound_is_inclusive(self, run, monkeypatch):
        want = run(1)
        # the 10-run plan is one chunk, which runs in the calling thread
        monkeypatch.setattr(simulate, "_POOL", None)
        monkeypatch.setattr(simulate, "ThreadPoolExecutor", _NoPool)
        assert run(32) == want

    @pytest.mark.parametrize("run", RUNS.values(), ids=RUNS)
    def test_many_chunks_build_one_pool(self, run, counted_pools):
        want = run(1, runs=20_000)
        assert run(32, runs=20_000) == want
        assert run(2, runs=20_000) == want
        assert len(counted_pools) == 1

    def test_one_pool_per_process(self, tmp_path, counted_pools):
        for w in (2, 4):
            for run in self.RUNS.values():
                run(w, runs=20_000)
            figure_panels(tmp_path / str(w), runs=50, workers=2)
        assert len(counted_pools) == 1

    @pytest.mark.parametrize("bad", [0, 5, 99])
    def test_error_reaches_the_caller_after_every_helper(self, bad):
        lock = threading.Lock()
        running, started, seen = [0], [], []

        def task(i):
            with lock:
                running[0] += 1
                started.append(i)
            try:
                time.sleep(0.005)
                if i == bad:
                    raise RuntimeError(f"task {i}")
                return i
            finally:
                with lock:
                    running[0] -= 1

        with pytest.raises(RuntimeError, match=f"task {bad}"):
            try:
                simulate._map_tasks(task, [(i,) for i in range(100)], 4)
            finally:
                seen.append(running[0])
        assert seen == [0]
        if bad < 99:
            # no thread takes a new task once one has failed
            assert len(started) < 100

    def test_every_task_runs_once_under_thread_switching(self):
        interval = sys.getswitchinterval()
        ran = []

        def task(i):
            ran.append(i)
            return i * i

        sys.setswitchinterval(1e-6)
        try:
            got = simulate._map_tasks(task, [(i,) for i in range(3000)], 8)
        finally:
            sys.setswitchinterval(interval)
        assert got == [i * i for i in range(3000)]
        assert sorted(ran) == list(range(3000))

    def test_figures_workers_is_a_domain_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(simulate, "_POOL", None)
        monkeypatch.setattr(simulate, "ThreadPoolExecutor", _NoPool)
        assert main(["figures", "--out", str(tmp_path), "--runs", "1", "--workers", "33"]) == 3
        assert "error[domain]: workers must be an integer in [1, 32], got 33" in capsys.readouterr().err


@pytest.fixture
def counted_pools(monkeypatch):
    """Every pool simulate builds from a fresh start; shut down afterwards."""
    built = []
    real = simulate.ThreadPoolExecutor

    def counted(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(simulate, "_POOL", None)
    monkeypatch.setattr(simulate, "ThreadPoolExecutor", counted)
    yield built
    for pool in built:
        pool.shutdown()


def _workers_plan(mode: str, runs: int = 10) -> SimPlan:
    return SimPlan(k=10, p=0.1, m=3, runs=runs, seed=0, mode=mode)


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


def _traced_law(monkeypatch, build, *args):
    """(build(*args), the float cuts its bisections returned, in order)."""
    seen = []
    real = simulate._last_short_walk

    def record(terms):
        seen.append(real(terms))
        return seen[-1]

    monkeypatch.setattr(simulate, "_last_short_walk", record)
    law = build(*args)
    monkeypatch.setattr(simulate, "_last_short_walk", real)
    return law, tuple(seen)


class TestBinomialAlerts:
    """_alerts on _binomial_law must equal rng.binomial(n, p, shape) >= m bit for bit.

    For a 2-D shape, that array reduced by any() along its rows.
    """

    @pytest.mark.parametrize("shape", [(257,), (16, 33)], ids=["1d", "2d"])
    @pytest.mark.parametrize("n", [1, 2, 20, 500, 10**6, 10**9, 2**62, 2**63 - 1])
    def test_matches_numpy_over_grid(self, n, shape):
        for i, p in enumerate(_grid_ps(n)):
            bound = _numpy_bound(n, p)
            for m in sorted({0, 1, bound, bound + 1, 40}):
                seed, j = 1000 * i + m, i % 3
                got = simulate._alerts(seed, j, shape, simulate._binomial_law(n, p, m))
                want = simulate._chunk_rng(seed, j).binomial(n, p, shape) >= m
                if want.ndim == 2:
                    want = want.any(axis=1)
                assert got.shape == want.shape
                assert np.array_equal(got, want), (n, p, m)

    def test_regime(self, monkeypatch):
        def cuts(n, p, m):
            return simulate._binomial_law(n, p, m)[0]

        edge = _inversion_edge(500)
        assert cuts(500, edge, 5) is not None
        assert cuts(500, math.nextafter(edge, math.inf), 5) is None
        assert cuts(60, 0.5, 30) is not None
        assert cuts(20, 0.6, 5) is None
        assert cuts(20, 0.0, 1) is None
        assert cuts(20, 0.1, 0) is None
        bound = _numpy_bound(20, 0.1)
        assert cuts(20, 0.1, bound) is not None
        assert cuts(20, 0.1, bound + 1) is None
        (words, _), (alert_cut, restart_cut) = _traced_law(
            monkeypatch, simulate._binomial_law, 200, 0.01, 8
        )
        assert 0.0 < alert_cut < restart_cut < 1.0
        assert words == (simulate._word_cut(alert_cut), simulate._word_cut(restart_cut))
        assert 0 < words[0] < words[1] < 2**64

    @pytest.mark.parametrize(
        "cut",
        [0.5, 1e-300, 0.0, 2.0**-53, 3 * 2.0**-53, 0.5 - 2.0**-53, math.nextafter(1.0, 0.0), -1.0]
        + [math.nextafter(2.0**-53 * k, d) for k in (1, 2**40 + 7) for d in (0.0, 1.0)],
    )
    def test_word_cut_matches_the_double(self, cut):
        # numpy's Philox double is (w >> 11) * 2**-53 of the same raw word
        key = np.array([7, 11], dtype=np.uint64)
        words = np.random.Philox(key=key).random_raw(10**6)
        u = np.random.Generator(np.random.Philox(key=key)).random(10**6)
        assert np.array_equal(u, (words >> np.uint64(11)) * 2.0**-53)
        wc = simulate._word_cut(cut)
        edges = [w for w in (0, wc - 1, wc, wc + 1, 2**64 - 1) if 0 <= w < 2**64]
        words = np.concatenate([words, np.array(edges, dtype=np.uint64)])
        u = (words >> np.uint64(11)) * 2.0**-53
        assert np.array_equal(u > cut, words >= wc)

    def test_restart_fallback_redraws_from_a_fresh_stream(self, monkeypatch):
        plans = [
            SimPlan(k=200, p=0.01, m=6, runs=20_000, seed=41, mode=MODE_BINOMIAL),
            SimPlan(k=200, p=0.01, m=6, n=50, runs=400, seed=42, mode=MODE_BINOMIAL),
            SimPlan(k=200, p=0.01, m=6, n=50, runs=20_000, seed=43, mode=MODE_POISSON),
        ]
        runs = [simulate_per_person, simulate_system, simulate_system]
        expected = [run(plan) for run, plan in zip(runs, plans)]
        real_law = simulate._binomial_law

        def restart_everywhere(n, p, m):
            (alert, _), draw = real_law(n, p, m)
            return (alert, 0), draw

        rngs = []
        real_rng = simulate._chunk_rng

        def counted_rng(seed, j):
            rngs.append((seed, j))
            return real_rng(seed, j)

        monkeypatch.setattr(simulate, "_binomial_law", restart_everywhere)
        monkeypatch.setattr(simulate, "_chunk_rng", counted_rng)
        for run, plan, want in zip(runs, plans, expected):
            rngs.clear()
            assert run(plan, workers=2) == want
            # every chunk built its generator twice: once for the uniforms,
            # once more for the fallback draw
            assert len(rngs) == 2 * len(set(rngs))


def _poisson_bound(lam: float) -> float:
    return lam + 10.0 * math.sqrt(lam + 1.0)


def _poisson_replay(u: float, lam: float, m: int) -> bool:
    """Whether the sequential-search Pois(lam) count from uniform u is >= m."""
    x, px = 0, math.exp(-lam)
    while x < m and u > px:
        u -= px
        x += 1
        px = px * lam / x
    return x >= m


def _full_bisection(reaches) -> float:
    """Largest double in [0, 1) from which reaches() is False, over all 62 bits."""
    lo, hi = 0, simulate._ONE_BITS
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reaches(simulate._double(mid)):
            hi = mid
        else:
            lo = mid
    return simulate._double(lo)


class TestPoissonAlerts:
    """_alerts on _poisson_law: one raw word per run, or rng.poisson."""

    LAMS = [1e-4, 0.3, 1.0, 5.0, 12.5, 29.9, 30.0, math.nextafter(30.0, math.inf), 45.0]

    @pytest.mark.parametrize("lam", LAMS)
    def test_matches_sequential_search_replay(self, lam, monkeypatch):
        bound = math.floor(_poisson_bound(lam))
        for i, m in enumerate(sorted({0, 1, 2, 6, bound, bound + 1})):
            seed, j = 31 * i + 7, i % 3
            law, floats = _traced_law(monkeypatch, simulate._poisson_law, lam, m)
            assert (law[0] is not None) == (lam <= 30.0 and 1 <= m <= bound), (lam, m)
            got = simulate._alerts(seed, j, (2000,), law)
            rng = simulate._chunk_rng(seed, j)
            if law[0] is None:
                want = rng.poisson(lam, 2000) >= m
            else:
                # one alert word and no restart word: the walk never restarts
                (cut,) = floats
                assert law[0] == (simulate._word_cut(cut), None)
                want = np.array([_poisson_replay(u, lam, m) for u in rng.random(2000)])
                # the cut is the last double whose walk stops short; at the
                # largest double below 1 no draw alerts
                assert not _poisson_replay(cut, lam, m)
                above = math.nextafter(cut, 1.0)
                assert above == 1.0 or _poisson_replay(above, lam, m)
            assert got.dtype == bool
            assert np.array_equal(got, want), (lam, m)

    def test_per_person_uses_the_words(self):
        plan = SimPlan(k=1000, p=0.005, m=9, runs=20_000, seed=29, mode=MODE_POISSON)
        (alert, _), _ = simulate._poisson_law(5.0, 9)
        sizes = simulate._chunk_sizes(plan.runs, simulate._CHUNK)
        words = np.concatenate(
            [simulate._chunk_rng(29, j).bit_generator.random_raw(size) for j, size in enumerate(sizes)]
        )
        alerts = int((words >= alert).sum())
        assert simulate_per_person(plan, workers=2).estimate == alerts / plan.runs

    def test_bracketed_cuts_equal_the_full_bisection(self, monkeypatch):
        rng = np.random.default_rng(8)
        for _ in range(600):
            n = int(10 ** rng.uniform(0, 9))
            p = min(0.5, 10 ** rng.uniform(-4, math.log10(30)) / n)
            m = int(rng.integers(1, max(1, _numpy_bound(n, p)) + 1))
            law, got = _traced_law(monkeypatch, simulate._binomial_law, n, p, m)
            q = 1.0 - p
            qn = math.exp(n * math.log1p(-p))

            def reaches(u, steps):
                # numpy's random_binomial_inversion walk, px computed in place
                px = qn
                for x in range(1, steps + 1):
                    if not u > px:
                        return False
                    u -= px
                    px = (float(n - x + 1) * p * px) / (x * q)
                return True

            bound = _numpy_bound(n, p)
            want = tuple(_full_bisection(lambda u, s=s: reaches(u, s)) for s in (m, bound + 1))
            assert got == want, (n, p, m)
            assert law[0] == tuple(simulate._word_cut(cut) for cut in want)
            lam = float(rng.uniform(1e-3, 30.0))
            m = int(rng.integers(1, math.floor(_poisson_bound(lam)) + 1))
            want = _full_bisection(lambda u: _poisson_replay(u, lam, m))
            _, got = _traced_law(monkeypatch, simulate._poisson_law, lam, m)
            assert got == (want,), (lam, m)

    @pytest.mark.parametrize("guess", [0.0, 1.0])
    def test_a_wrong_bracket_falls_back_to_the_full_range(self, guess, monkeypatch):
        # centre the bracket far from the cut: both end checks must catch it
        _, want = _traced_law(monkeypatch, simulate._binomial_law, 305, 0.01, 6)
        monkeypatch.setattr(simulate, "sum", lambda terms: guess, raising=False)
        _, got = _traced_law(monkeypatch, simulate._binomial_law, 305, 0.01, 6)
        assert got == want


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
