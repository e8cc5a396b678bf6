"""Monte Carlo engine: accuracy, determinism, budget, correlation."""

import functools
import math
import statistics
import sys
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

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

    def test_poisson_mode(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a system poisson-approx plan built a binomial law")

        # the person Poisson draw is the only draw: no Bin(n, q) law is built
        monkeypatch.setattr(simulate, "_binomial_law", refused)
        # n = 50 keeps the probability mid-range so the z-score is meaningful
        plan = SimPlan(k=200, p=0.01, m=6, n=50, runs=20000, seed=5, mode=MODE_POISSON)
        rep = simulate_system(plan)
        assert 0.3 < rep.estimate < 0.8
        assert within_3se(rep)

    @pytest.mark.parametrize("mode", [MODE_BINOMIAL, MODE_POISSON])
    def test_single_person_system_matches_per_person(self, mode):
        plan = SimPlan(k=30, p=0.1, m=6, n=1, runs=10**4, seed=99, mode=mode)
        as_system = simulate_system(plan)
        as_person = simulate_per_person(plan)
        assert as_system.estimate == as_person.estimate
        assert as_system.analytic == pytest.approx(as_person.analytic, rel=1e-12)
        if mode == MODE_POISSON:
            # the person report composed over n = 1, field by field
            assert as_system == as_person

    def test_poisson_mode_checks_the_person_q(self):
        plan = SimPlan(k=100, p=0.01, m=5, n=50, runs=3000, seed=3, mode=MODE_POISSON)
        system, person = simulate_system(plan), simulate_per_person(plan)
        assert system.z_score == person.z_score
        assert system.estimate == system_probability(person.estimate, 50)[0]
        assert system.analytic == system_probability(person.analytic, 50)[0]
        assert system.abs_error == abs(system.estimate - system.analytic)
        # the delta method: d/dq (1 - (1 - q)^n) = n (1 - q)^(n - 1)
        slope = 50 * (1.0 - person.estimate) ** 49
        assert system.std_error == pytest.approx(slope * person.std_error, rel=1e-12)

    def test_poisson_mode_at_a_certain_alert(self):
        # q = Pr(Pois(5) >= 0) = 1, so every run alerts and se(q) is 0
        plan = SimPlan(k=100, p=0.05, m=0, n=50, runs=100, seed=0, mode=MODE_POISSON)
        rep = simulate_system(plan)
        assert (rep.estimate, rep.std_error, rep.analytic, rep.z_score) == (1.0, 0.0, 1.0, 0.0)

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
        plan = SimPlan(k=500, p=0.01, m=9, runs=700_000, seed=12345, mode=MODE_BINOMIAL)
        serial = simulate_per_person(plan, workers=1)
        for workers in (2, 4, 8):
            assert simulate_per_person(plan, workers=workers) == serial

    def test_worker_invariance_system(self):
        plan = SimPlan(k=100, p=0.01, m=4, n=200, runs=20_000, seed=987, mode=MODE_BINOMIAL)
        serial = simulate_system(plan, workers=1)
        assert simulate_system(plan, workers=4) == serial

    @pytest.mark.parametrize("kind", ["exchangeable", "ar1"])
    def test_worker_invariance_copula(self, kind):
        # k = 64 gives chunks of 4096 runs, so 5 chunks
        plan = SimPlan(k=64, p=0.05, m=8, runs=20_000, seed=55, mode=MODE_COPULA)
        corr = LatentCorrelation(kind=kind, rho=0.3)
        serial = simulate_correlated(plan, corr, workers=1)
        for workers in (2, 4):
            assert simulate_correlated(plan, corr, workers=workers) == serial

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
        # person poisson-approx decides each run from one 16-bit quarter
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

    def test_ar1_count_variance_matches_the_orthant_sum(self):
        # Var(count) = k p (1 - p) + 2 sum_d (k - d) (Phi2(t, t; rho^d) - p^2),
        # with the error of the sample variance from the fourth central moment
        k, p, rho = 365, 0.025, 0.5
        corr = LatentCorrelation(kind="ar1", rho=rho)
        threshold = float(ndtri(p))
        counts = np.concatenate(
            [
                simulate._latent_counts(simulate._chunk_rng(21, j), size, k, threshold, corr)
                for j, size in enumerate(simulate._chunk_sizes(20_000, 2872))
            ]
        ).astype(float)

        def cross(r: float) -> float:
            # Phi2(t, t; r) - p^2
            return binary_correlation(p, r) * p * (1.0 - p)

        want = k * p * (1.0 - p) + 2.0 * math.fsum(
            (k - d) * cross(rho**d) for d in range(1, k)
        )
        n, var = counts.size, counts.var(ddof=1)
        mu4 = np.mean((counts - counts.mean()) ** 4)
        se = math.sqrt((mu4 - var * var * (n - 3) / (n - 1)) / n)
        assert abs((var - want) / se) <= 6.0, (var, want, se)
        assert abs(counts.mean() - k * p) <= 6.0 * math.sqrt(var / n)

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

    # runs that make at least three chunks of each kind
    MANY = {"person": 3 * simulate._VALUES, "system": 3 * simulate._VALUES, "correlated": 20_000}

    @pytest.mark.parametrize("kind", RUNS)
    def test_many_chunks_build_one_pool(self, kind, counted_pools):
        run, runs = self.RUNS[kind], self.MANY[kind]
        want = run(1, runs=runs)
        assert run(32, runs=runs) == want
        assert run(2, runs=runs) == want
        assert len(counted_pools) == 1

    @pytest.mark.parametrize(
        "plan, run, sizes",
        [
            # BTPE and p > 1/2 have no cuts: numpy draws every value
            (SimPlan(k=1000, p=0.04, m=48, runs=20_000, seed=3, mode=MODE_BINOMIAL),
             simulate_per_person, [8192, 8192, 3616]),
            (SimPlan(k=40, p=0.8, m=35, n=100, runs=20_000, seed=3, mode=MODE_BINOMIAL),
             simulate_system, [2621] * 7 + [1653]),
            # cuts: one chunk of 2**18 values
            (SimPlan(k=1000, p=0.005, m=9, runs=20_000, seed=3, mode=MODE_BINOMIAL),
             simulate_per_person, [20_000]),
        ],
        ids=["btpe", "high-p-system", "cuts"],
    )
    def test_laws_without_cuts_keep_chunks_for_the_workers(self, plan, run, sizes, monkeypatch):
        seen = []
        real = simulate._chunk_sizes

        def recorded(runs, chunk):
            seen.extend(real(runs, chunk))
            return real(runs, chunk)

        monkeypatch.setattr(simulate, "_chunk_sizes", recorded)
        run(plan, workers=2)
        assert seen == sizes

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


def _binomial_walk(u: float, n: int, p: float, steps: int) -> bool:
    """Whether numpy's random_binomial_inversion walk from u passes its first
    `steps` terms, px computed in place."""
    q = 1.0 - p
    px = math.exp(n * math.log1p(-p))
    for x in range(1, steps + 1):
        if not u > px:
            return False
        u -= px
        px = (float(n - x + 1) * p * px) / (x * q)
    return True


@functools.cache
def _numpy_restart_cut(n: int, p: float) -> int:
    """The smallest 53-bit U whose double's walk passes numpy's bound, where
    numpy would restart on a fresh double."""
    steps = _numpy_bound(n, p) + 1
    return _full_bisection(lambda u: _binomial_walk(u, n, p, steps))


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
    """(build(*args), the cuts its bisections returned, in order)."""
    seen = []
    real = simulate._alert_cut

    def record(terms):
        seen.append(real(terms))
        return seen[-1]

    monkeypatch.setattr(simulate, "_alert_cut", record)
    law = build(*args)
    monkeypatch.setattr(simulate, "_alert_cut", real)
    return law, tuple(seen)


def _any_by_row(flags: np.ndarray) -> np.ndarray:
    return flags.any(axis=1) if flags.ndim == 2 else flags


def _reference_alerts(seed: int, j: int, shape: tuple, laws: list, mask: int = 0xFFFF) -> np.ndarray:
    """_alerts from scalar arithmetic, one row of flags per law: each value's
    53-bit U is its 16-bit quarter followed by 37 tie bits, and a law's row
    flag is max(U) >= its cut.

    Quarters come lowest first from chunk j's raw words, each ANDed with
    `mask`. A row whose top quarter equals the top 16 bits of any law's cut
    with nonzero low bits draws one word per quarter equal to that top, rows
    in order, after all the quarters; every other U gets zero tie bits, which
    cannot change its row's flag under any law. A law without a cut takes its
    fallback draw on a fresh stream.
    """
    rows, width = shape[0], shape[1] if len(shape) == 2 else 1
    count = rows * width
    gen = simulate._chunk_rng(seed, j).bit_generator
    words = [int(w) for w in gen.random_raw((count + 3) // 4)]
    quarters = [(w >> shift) & 0xFFFF & mask for w in words for shift in (0, 16, 32, 48)][:count]
    tie_tops = {cut >> 37 for cut, _ in laws if cut is not None and cut % 2**37}
    top_u = []
    for r in range(rows):
        row = quarters[r * width : (r + 1) * width]
        top = max(row)
        tied = top in tie_tops
        top_u.append(max(h << 37 | (int(gen.random_raw()) >> 27 if tied and h == top else 0) for h in row))
    flags = []
    for cut, draw in laws:
        if cut is None:
            flags.append(_any_by_row(draw(simulate._chunk_rng(seed, j), shape)))
        else:
            flags.append(np.array([u >= cut for u in top_u]))
    return np.array(flags)


class TestBinomialAlerts:
    """_binomial_law's cut decides rng.binomial(n, p, shape) >= m bit for bit.

    A raw 64-bit word w whose U = w >> 11 reaches the cut is exactly a double
    whose inversion walk reaches m; _alerts, on the quarters of the same stream,
    must equal the scalar reference, and outside the regime numpy's draw.
    """

    @pytest.mark.parametrize("shape", [(257,), (16, 33)], ids=["1d", "2d"])
    @pytest.mark.parametrize("n", [1, 2, 20, 500, 10**6, 10**9, 2**62, 2**63 - 1])
    def test_matches_numpy_over_grid(self, n, shape):
        for i, p in enumerate(_grid_ps(n)):
            bound = _numpy_bound(n, p)
            for m in sorted({0, 1, bound, bound + 1, 40}):
                seed, j = 1000 * i + m, i % 3
                law = simulate._binomial_law(n, p, m)
                got = simulate._alerts(seed, j, shape, [law])[0]
                want = _any_by_row(simulate._chunk_rng(seed, j).binomial(n, p, shape) >= m)
                assert got.shape == want.shape
                if law[0] is None:
                    assert np.array_equal(got, want), (n, p, m)
                    continue
                words = simulate._chunk_rng(seed, j).bit_generator.random_raw(shape)
                u = words >> np.uint64(11)
                # no walk restarted, so numpy read exactly these words
                assert not (u >= _numpy_restart_cut(n, p)).any()
                assert np.array_equal(_any_by_row(u >= law[0]), want), (n, p, m)
                assert np.array_equal(got, _reference_alerts(seed, j, shape, [law])[0]), (n, p, m)

    def test_regime(self, monkeypatch):
        def cut(n, p, m):
            return simulate._binomial_law(n, p, m)[0]

        edge = _inversion_edge(500)
        assert cut(500, edge, 5) is not None
        assert cut(500, math.nextafter(edge, math.inf), 5) is None
        assert cut(60, 0.5, 30) is not None
        assert cut(20, 0.6, 5) is None
        assert cut(20, 0.0, 1) is None
        assert cut(20, 0.1, 0) is None
        bound = _numpy_bound(20, 0.1)
        assert cut(20, 0.1, bound) is not None
        assert cut(20, 0.1, bound + 1) is None
        (cut, _), traced = _traced_law(monkeypatch, simulate._binomial_law, 200, 0.01, 8)
        assert traced == (cut,)
        assert 1 < cut < _numpy_restart_cut(200, 0.01) < 2**53

    @pytest.mark.parametrize(
        "term",
        [0.5, 1e-300, 0.0, 2.0**-53, 3 * 2.0**-53, 0.5 - 2.0**-53, math.nextafter(1.0, 0.0)]
        + [math.nextafter(2.0**-53 * k, d) for k in (1, 2**40 + 7) for d in (0.0, 1.0)],
    )
    def test_word_cut_matches_the_double(self, term):
        # numpy's Philox double is (w >> 11) * 2**-53 of the same raw word
        key = np.array([7, 11], dtype=np.uint64)
        words = np.random.Philox(key=key).random_raw(10**6)
        u = np.random.Generator(np.random.Philox(key=key)).random(10**6)
        assert np.array_equal(u, (words >> np.uint64(11)) * 2.0**-53)
        # a walk of one term passes it exactly when the double exceeds it
        cut = simulate._alert_cut([term])
        # each U near the cut and at both ends, with its low 11 word bits clear and set
        edges = [w for x in (0, cut - 1, cut, cut + 1, 2**53 - 1) if 0 <= x < 2**53
                 for w in (x << 11, x << 11 | 2**11 - 1)]
        words = np.concatenate([words, np.array(edges, dtype=np.uint64)])
        u = (words >> np.uint64(11)) * 2.0**-53
        assert np.array_equal(u > term, (words >> np.uint64(11)) >= cut)

    @pytest.mark.parametrize("shape", [(4,), (2, 3)], ids=["1d", "2d"])
    def test_a_value_past_numpys_bound_alerts_without_fallback(self, shape, fallen, monkeypatch):
        # every raw word all ones: each U is 2**53 - 1, whose walk passes
        # numpy's bound, so its count exceeds bound >= m
        class AllOnes:
            def random_raw(self, size):
                return np.full(size, 2**64 - 1, dtype=np.uint64)

        monkeypatch.setattr(
            simulate, "_chunk_rng", lambda seed, j: SimpleNamespace(bit_generator=AllOnes())
        )
        u = math.nextafter(1.0, 0.0)
        assert _binomial_walk(u, 200, 0.01, _numpy_bound(200, 0.01) + 1)
        # m = 8 cuts below quarter 0xFFFF; m = 11 ties it, so tie words are drawn
        laws = [simulate._binomial_law(200, 0.01, m) for m in (8, 11)]
        assert laws[0][0] >> 37 < 0xFFFF == laws[1][0] >> 37 and laws[1][0] % 2**37
        for flags in simulate._alerts(0, 0, shape, laws):
            assert flags.all()
        assert not fallen


def _observed_tops(seed: int, j: int, shape: tuple) -> tuple[list[int], list[int]]:
    """Each row's largest 16-bit quarter of chunk j's words, lowest first, and
    the top 37 bits of the two words after the quarters (the first tie bits)."""
    count = int(np.prod(shape))
    words = simulate._chunk_rng(seed, j).bit_generator.random_raw((count + 3) // 4 + 2)
    quarters = words[:-2].view(np.uint16)[:count].reshape(shape[0], -1)
    return [int(t) for t in quarters.max(axis=1)], [int(w) >> 27 for w in words[-2:]]


def _cut(top: int, low: int) -> int:
    """The cut whose 53-bit U has these top 16 and low 37 bits."""
    return top << 37 | low


class TestQuarterWordTies:
    """_alerts against the scalar reference where a quarter ties a cut's top 16 bits."""

    # 257, 14, 15 and 1001 values leave 3, 2, 1 and 3 quarters of the last
    # word unused, so the tie words must start right after ceil(count / 4)
    SHAPES = {
        "1d": (257,), "2d": (16, 33), "two-unused": (2, 7), "one-unused": (3, 5),
        "one-row": (1, 1001),
    }
    LOWS = (0, 1, 2**36, 2**37 - 1)

    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES)
    def test_observed_tops_as_cuts(self, shape):
        draw = simulate._binomial_law(200, 0.01, 8)[1]
        for seed in range(6):
            tops, tie_bits = _observed_tops(seed, 1, shape)
            tops.sort()
            hi, peak = tops[len(tops) // 2], tops[-1]
            # a cut's low bits equal to the drawn tie bits decide >= from >
            lows = (*self.LOWS, *tie_bits)
            for alert in [_cut(t, low) for t in (hi, peak) for low in lows]:
                law = (alert, draw)
                got = simulate._alerts(seed, 1, shape, [law])[0]
                assert got.dtype == bool and got.shape == shape[:1]
                assert np.array_equal(got, _reference_alerts(seed, 1, shape, [law])[0]), (seed, alert)

    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES)
    def test_many_ties_per_row(self, shape, monkeypatch):
        # quarters cut down to 0..7 tie in almost every row; a one-row chunk
        # spans 16 blocks
        real = simulate._quarters
        monkeypatch.setattr(simulate, "_quarters", lambda gen, count: real(gen, count) & 7)
        monkeypatch.setattr(simulate, "_VALUES", 64)
        draw = simulate._binomial_law(200, 0.01, 8)[1]
        # near 2**37 the largest of a row's tie bits depends on how many it draws
        lows = (0, 1, 2**36, 2**37 - 2**31)
        for hi in (0, 3, 7):
            for lo in lows:
                law = (_cut(hi, lo), draw)
                for seed in range(5):
                    want = _reference_alerts(seed, 2, shape, [law], mask=7)[0]
                    assert np.array_equal(simulate._alerts(seed, 2, shape, [law])[0], want), (
                        hi, lo, seed,
                    )

    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES)
    def test_alert_word_edges(self, shape):
        # every U reaches cut 0; cut 2**53 has hi = 65536, above every
        # uint16 quarter, so no U reaches it
        draw = simulate._binomial_law(200, 0.01, 8)[1]
        for alert, want in ((0, True), (2**53, False)):
            law = (alert, draw)
            got = simulate._alerts(5, 0, shape, [law])[0]
            assert np.array_equal(got, np.full(shape[0], want)), alert
            assert np.array_equal(got, _reference_alerts(5, 0, shape, [law])[0]), alert

    def test_real_laws_reach_both_grid_edges(self, fallen):
        # e^-lam rounds to 1.0, so no U below 2**53 passes the first term
        none = simulate._poisson_law(1e-17, 1)
        # px_0 is about 2**-60, below the grid, so only U = 0 stops short
        every = simulate._binomial_law(60, 0.5, 1)
        assert (none[0], every[0]) == (2**53, 1)
        for law, want in ((none, False), (every, True)):
            for seed in range(3):
                got = simulate._alerts(seed, 0, (5000,), [law])[0]
                assert np.array_equal(got, np.full(5000, want)), (law[0], seed)
                assert np.array_equal(got, _reference_alerts(seed, 0, (5000,), [law])[0])
        assert not fallen

    def test_a_lower_block_peak_draws_no_tie_bits(self, monkeypatch):
        # in 4-value blocks of quarters 0..7 some block of a row often peaks
        # at one cut's top 5 before another reaches the other cut's 7; only
        # the quarters equal to the row's top draw tie bits
        real = simulate._quarters
        monkeypatch.setattr(simulate, "_quarters", lambda gen, count: real(gen, count) & 7)
        monkeypatch.setattr(simulate, "_VALUES", 4)
        laws = [_tie_law(_cut(7, 7 * 2**34)), _tie_law(_cut(5, 1))]
        alerts = 0
        for seed in range(60):
            want = _reference_alerts(seed, 3, (1, 41), laws, mask=7)
            assert np.array_equal(simulate._alerts(seed, 3, (1, 41), laws), want), seed
            alerts += want[0, 0]
        # both outcomes of the top-7 cut occur: a tie word reaches its low
        # bits about one time in eight
        assert 0 < alerts < 60

    def test_blocks_read_the_stream_of_one_draw(self, monkeypatch):
        laws = {
            "quarters": simulate._binomial_law(200, 0.01, 8),
            "fallback": simulate._binomial_law(20, 0.6, 19),
        }
        assert laws["fallback"][0] is None
        shape = (1, 1001)
        want = {name: [simulate._alerts(seed, 0, shape, [law])[0] for seed in range(40)]
                for name, law in laws.items()}
        monkeypatch.setattr(simulate, "_VALUES", 64)
        for name, law in laws.items():
            got = [simulate._alerts(seed, 0, shape, [law])[0] for seed in range(40)]
            assert np.array_equal(got, want[name]), name
            # both outcomes occur, so the comparison can fail
            assert 0 < np.count_nonzero(got) < 40, name


def _tie_law(cut: int):
    """A law with this cut and a draw function of its own."""
    return cut, simulate._binomial_law(200, 0.01, 8)[1]


@pytest.fixture
def fallen(monkeypatch):
    """The draw functions _fallback is called with, in call order."""
    seen = []
    real = simulate._fallback

    def counted(rng, rows, width, draw):
        seen.append(draw)
        return real(rng, rows, width, draw)

    monkeypatch.setattr(simulate, "_fallback", counted)
    return seen


class TestSweepsOnOneStream:
    """_alerts on a list of laws: one read of a chunk's quarters, and one tie
    word per quarter at the top of a row that ties any law's cut, decide
    every law against its own cuts."""

    PANEL_A = [simulate._binomial_law(k, 0.01, 6) for k in range(50, 306, 15)]

    @pytest.mark.parametrize("many_ties", [False, True], ids=["quarters", "quarters-and-7"])
    @pytest.mark.parametrize("shape", TestQuarterWordTies.SHAPES.values(), ids=TestQuarterWordTies.SHAPES)
    def test_sweeps_match_the_scalar_reference(self, shape, many_ties, fallen, monkeypatch):
        mask = 0xFFFF
        if many_ties:
            # quarters cut down to 0..7 tie in almost every row; a one-row
            # chunk spans 16 blocks
            mask, real = 7, simulate._quarters
            monkeypatch.setattr(simulate, "_quarters", lambda gen, count: real(gen, count) & 7)
            monkeypatch.setattr(simulate, "_VALUES", 64)
        for seed in range(6):
            if many_ties:
                gen = simulate._chunk_rng(seed, 1).bit_generator
                peak = int(simulate._quarters(gen, math.prod(shape)).max())
                hi, low = min(3, peak), 2**36
            else:
                tops, tie_bits = _observed_tops(seed, 1, shape)
                tops.sort()
                hi, peak, low = tops[len(tops) // 2], tops[-1], tie_bits[0]
            live = [
                # laws that share a cut top, and two with lo == 0, of which
                # the one at the peak ties no other law's top
                _tie_law(_cut(hi, 1)), _tie_law(_cut(hi, low)), _tie_law(_cut(hi, 2**37 - 1)),
                _tie_law(_cut(hi, 0)), _tie_law(_cut(peak, 0)),
                simulate._binomial_law(200, 0.01, 8), self.PANEL_A[-1],
            ]
            uncut = simulate._binomial_law(20, 0.6, 19)
            for redrawn in [], [uncut]:
                for sweep in live + redrawn, redrawn + live[::-1]:
                    fallen.clear()
                    got = simulate._alerts(seed, 1, shape, sweep)
                    assert len(got) == len(sweep)
                    assert all(f.dtype == bool and f.shape == shape[:1] for f in got)
                    want = _reference_alerts(seed, 1, shape, sweep, mask=mask)
                    assert np.array_equal(got, want), (seed, len(redrawn))
                    # only the law without a cut was drawn by the fallback
                    assert fallen == [law[1] for law in redrawn]

    @pytest.mark.parametrize("many_ties", [False, True], ids=["panel-a", "quarters-and-7"])
    def test_flags_nest_along_decreasing_cuts(self, many_ties, fallen, monkeypatch):
        # every chunk of panel A at runs = 5000 for two seeds, most of which
        # hold a row topped by quarter 0xFFFF
        laws, chunks = self.PANEL_A, list(enumerate(simulate._chunk_sizes(5000, 524)))
        width = 500
        if many_ties:
            real = simulate._quarters
            monkeypatch.setattr(simulate, "_quarters", lambda gen, count: real(gen, count) & 7)
            lows = (2**37 - 2**31, 2**36, 1, 0)
            laws = [_tie_law(_cut(top, low)) for top in (7, 5, 3) for low in lows]
            chunks, width = [(j, 64) for j in range(10)], 9
        cuts = [law[0] for law in laws]
        assert cuts == sorted(cuts, reverse=True)
        changed = top_ffff = 0
        for seed in range(2):
            for j, size in chunks:
                flags = np.array(simulate._alerts(seed, j, (size, width), laws))
                assert not fallen
                # each law's flags are contained in the next one's
                assert not (flags[:-1] & ~flags[1:]).any(), (seed, j)
                changed += int((flags[:-1] != flags[1:]).sum())
                top_ffff += 0xFFFF in _observed_tops(seed, j, (size, width))[0]
        assert changed > 0
        assert many_ties or top_ffff >= len(chunks)

    def test_exact_system_sums_the_reference_chunks(self, monkeypatch):
        # chunks of 8 runs of 500 individuals, the last one short
        monkeypatch.setattr(simulate, "_VALUES", 4096)
        plans = [
            SimPlan(k=k, p=0.01, m=6, n=500, runs=20, seed=3, mode=MODE_BINOMIAL)
            for k in (80, 125, 185, 305)
        ]
        laws = [simulate._binomial_law(plan.k, plan.p, plan.m) for plan in plans]
        counts = sum(
            _reference_alerts(3, j, (size, 500), laws).sum(axis=1)
            for j, size in enumerate(simulate._chunk_sizes(20, 8))
        )
        reports = simulate._exact_system(plans, workers=2)
        assert [rep.estimate for rep in reports] == [c / 20 for c in counts]
        assert counts[0] < counts[1] < counts[2]
        for plan, rep in zip(plans, reports):
            assert rep.analytic == system_probability(binomial_tail(plan.k, plan.p, plan.m), 500)[0]
        # one plan reads the words simulate_system reads
        assert simulate._exact_system(plans[1:2], workers=1) == [simulate_system(plans[1])]


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


def _full_bisection(reaches) -> int:
    """Smallest U in [1, 2**53] with reaches(U 2**-53), 2**53 for none, over
    all 53 bits."""
    lo, hi = 0, 2**53
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reaches(mid * 2.0**-53):
            hi = mid
        else:
            lo = mid
    return hi


class TestPoissonAlerts:
    """_alerts on _poisson_law: one 16-bit quarter per run, or rng.poisson."""

    LAMS = [1e-4, 0.3, 1.0, 5.0, 12.5, 29.9, 30.0, math.nextafter(30.0, math.inf), 45.0]

    @pytest.mark.parametrize("lam", LAMS)
    def test_matches_sequential_search_replay(self, lam, monkeypatch):
        bound = math.floor(_poisson_bound(lam))
        for i, m in enumerate(sorted({0, 1, 2, 6, bound, bound + 1})):
            seed, j = 31 * i + 7, i % 3
            law, traced = _traced_law(monkeypatch, simulate._poisson_law, lam, m)
            assert (law[0] is not None) == (lam <= 30.0 and 1 <= m <= bound), (lam, m)
            got = simulate._alerts(seed, j, (2000,), [law])[0]
            rng = simulate._chunk_rng(seed, j)
            assert got.dtype == bool
            if law[0] is None:
                assert np.array_equal(got, rng.poisson(lam, 2000) >= m), (lam, m)
                continue
            cut = law[0]
            assert traced == (cut,)
            want = np.array([_poisson_replay(u, lam, m) for u in rng.random(2000)])
            words = simulate._chunk_rng(seed, j).bit_generator.random_raw(2000)
            assert np.array_equal((words >> np.uint64(11)) >= cut, want), (lam, m)
            # the cut is the first U whose walk reaches m; at 2**53 no draw
            # alerts
            assert not _poisson_replay((cut - 1) * 2.0**-53, lam, m)
            assert cut == 2**53 or _poisson_replay(cut * 2.0**-53, lam, m)
            assert np.array_equal(got, _reference_alerts(seed, j, (2000,), [law])[0]), (lam, m)

    def test_per_person_uses_the_quarters(self, monkeypatch):
        monkeypatch.setattr(simulate, "_VALUES", 4096)
        plan = SimPlan(k=1000, p=0.005, m=9, runs=20_000, seed=29, mode=MODE_POISSON)
        law = simulate._poisson_law(5.0, 9)
        sizes = simulate._chunk_sizes(plan.runs, 4096)
        alerts = sum(int(_reference_alerts(29, j, (size,), [law])[0].sum()) for j, size in enumerate(sizes))
        assert simulate_per_person(plan, workers=2).estimate == alerts / plan.runs

    def test_bracketed_cuts_equal_the_full_bisection(self, monkeypatch):
        rng = np.random.default_rng(8)
        for _ in range(600):
            n = int(10 ** rng.uniform(0, 9))
            p = min(0.5, 10 ** rng.uniform(-4, math.log10(30)) / n)
            m = int(rng.integers(1, max(1, _numpy_bound(n, p)) + 1))
            law, got = _traced_law(monkeypatch, simulate._binomial_law, n, p, m)
            want = _full_bisection(lambda u: _binomial_walk(u, n, p, m))
            assert got == (want,), (n, p, m)
            assert law[0] == want
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


def _eps(x: int) -> float:
    """Phi^-1 of the 53-bit uniform (x + 1/2) 2**-53, the upper half by symmetry."""
    if x >= 2**52:
        return -_eps(2**53 - 1 - x)
    return float(ndtri((x + 0.5) * 2.0**-53))


def _ar1_count(tops: list[int], lows: list[int], rho: float, threshold: float) -> int:
    """Values at or below threshold of x_0 = eps_0, x_t = rho x_(t-1) + sqrt(1 - rho^2) eps_t."""
    scale = math.sqrt(1.0 - rho**2)
    x, count = 0.0, 0
    for t, (top, low) in enumerate(zip(tops, lows)):
        e = _eps(top << 37 | low)
        x = e if t == 0 else rho * x + scale * e
        count += x <= threshold
    return count


def _ar1_reference(seed, j, size, k, threshold, rho, force=lambda q: q):
    """(counts, decided, tops) of chunk j's ar1 runs, built value by value.

    Quarter i of the stream's raw words, lowest first (after `force`), is the
    top 16 bits of attribute i // size of run i % size. A run whose count is
    the same with every value at its bracket's lo and at its hi is decided.
    Each other run, in order, takes the top 37 bits of k more words as its
    values' low bits and counts the exact recurrence.
    """
    _, first, step = simulate._ar1_tables(rho)
    first, step = first.tolist(), step.tolist()
    gen = simulate._chunk_rng(seed, j).bit_generator
    words = [int(w) for w in gen.random_raw((k * size + 3) // 4)]
    quarters = [(w >> shift) & 0xFFFF for w in words for shift in (0, 16, 32, 48)][: k * size]
    quarters = [int(q) for q in force(np.array(quarters, dtype=np.uint16))]
    counts, decided, tops = [], [], []
    for run in range(size):
        row = quarters[run::size]
        lo, hi = first[row[0]]
        at_lo, at_hi = lo <= threshold, hi <= threshold
        for b in row[1:]:
            if rho < 0.0:
                lo, hi = hi, lo
            lo, hi = rho * lo + step[b][0], rho * hi + step[b][1]
            at_lo += lo <= threshold
            at_hi += hi <= threshold
        tops.append(row)
        decided.append(at_lo == at_hi)
        if at_lo == at_hi:
            counts.append(at_lo)
        else:
            lows = [int(w) >> 27 for w in gen.random_raw(k)]
            counts.append(_ar1_count(row, lows, rho, threshold))
    return counts, decided, tops


def _end_buckets(quarters: np.ndarray) -> np.ndarray:
    """Quarters with every 11th set to bucket 0 and the next-but-four to 65535."""
    quarters = quarters.copy()
    quarters[::11] = 0
    quarters[5::11] = 0xFFFF
    return quarters


class TestAr1Brackets:
    """_latent_counts' ar1 path against the scalar reference, value by value."""

    K, SIZE, P = 200, 48, 0.1

    def test_edges_hold_every_value_of_their_bucket(self):
        scale, first, step = simulate._ar1_tables(-0.6)
        assert scale == math.sqrt(1.0 - 0.36)
        assert first.shape == step.shape == (2**16, 2)
        assert not first.flags.writeable and not step.flags.writeable
        assert np.isfinite(first).all() and first[0, 0] == -first[-1, 1]
        rng = np.random.default_rng(8)
        lows = (np.zeros(2**16, dtype=np.int64), np.full(2**16, 2**37 - 1),
                rng.integers(0, 2**37, 2**16))
        for low in lows:
            eps = np.array([_eps(b << 37 | int(lo)) for b, lo in enumerate(low)])
            # padded outward: strictly beyond even the bucket's own end values
            assert (first[:, 0] < eps).all() and (eps < first[:, 1]).all()
            assert (step[:, 0] <= scale * eps).all() and (scale * eps <= step[:, 1]).all()
        # the pad is far below a bucket's width: neighbours barely overlap
        assert (first[1:, 0] - first[:-1, 1] < 1e-11).all()
        assert (first[1:, 0] > first[:-1, 0]).all()

    @pytest.mark.parametrize("ends", [False, True], ids=["stream", "end-buckets"])
    @pytest.mark.parametrize("widen", [0.0, 0.05], ids=["pad", "wide"])
    @pytest.mark.parametrize("rho", [-0.9, 0.0, 0.9])
    def test_counts_match_the_scalar_reference(self, rho, widen, ends, monkeypatch):
        if widen:
            # a wider bracket still holds every value, and leaves many runs open
            real = simulate._ar1_tables

            def wide_tables(r):
                scale, first, step = real(r)
                return scale, first + [-widen, widen], step + [-widen, widen]

            monkeypatch.setattr(simulate, "_ar1_tables", wide_tables)
        force = _end_buckets if ends else (lambda q: q)
        if ends:
            real_quarters = simulate._quarters
            monkeypatch.setattr(
                simulate, "_quarters", lambda gen, count: force(real_quarters(gen, count))
            )
        k, size, threshold = self.K, self.SIZE, float(ndtri(self.P))
        corr = LatentCorrelation(kind="ar1", rho=rho)
        seed = 17 + int(10 * rho)
        got = simulate._latent_counts(simulate._chunk_rng(seed, 3), size, k, threshold, corr)
        want, decided, tops = _ar1_reference(seed, 3, size, k, threshold, rho, force)
        assert got.dtype == np.int64 and got.tolist() == want
        if widen or rho == 0.9:
            assert not all(decided)
        rng = np.random.default_rng(seed)
        for run in np.flatnonzero(decided):
            for lows in ([0] * k, [2**37 - 1] * k, rng.integers(0, 2**37, k).tolist()):
                assert _ar1_count(tops[run], lows, rho, threshold) == want[run], (run, lows[0])

    def test_one_run_and_one_attribute(self):
        # p = 0.9 puts a 300-value run's count far above 255
        for size, k in ((1, 300), (300, 1)):
            threshold = float(ndtri(0.9))
            got = simulate._latent_counts(
                simulate._chunk_rng(2, 0), size, k, threshold, LatentCorrelation("ar1", 0.5)
            )
            assert got.tolist() == _ar1_reference(2, 0, size, k, threshold, 0.5)[0]


class TestSamplerLimits:
    def test_binomial_size_beyond_int64(self):
        # system poisson-approx draws per person, so n has no sampler limit
        plan = SimPlan(k=20, p=0.3, m=5, n=2**63, runs=10, seed=0, mode=MODE_POISSON)
        assert simulate_system(plan).estimate == 1.0
        # the int64 guard is on the attribute count k
        plan = SimPlan(k=2**63, p=0.3, m=5, runs=10, seed=0, mode=MODE_BINOMIAL)
        with pytest.raises(RangeOverflowError, match="binomial size k"):
            simulate_per_person(plan)
        plan = SimPlan(k=2**63 - 1, p=1e-30, m=5, runs=10, seed=0, mode=MODE_BINOMIAL)
        assert simulate_per_person(plan).estimate == 0.0

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
