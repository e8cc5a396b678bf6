"""Acceptance criteria: ten gates, one printed pass/fail line each.

Each test prints `criterion N: PASS|FAIL - detail` through the capture
barrier so the line is visible in any pytest run, then asserts. All ten pass
on a correct build. Criterion 5 forms its alert-count and ratio targets from
the unrounded Poisson tails in closed form: the quoted count 1400 is
1e5 * 0.014, a product of a rate rounded to two significant figures, and
that rounding alone is 2.8% off the exact 1438.77, beyond the stated 1% gate.
"""

import math
import random
import time

import pytest

from screenlimits.bayes import (
    REGIME_EVIDENTIAL,
    BayesContext,
    bayes_critical_population,
    classify_regime,
    ppv,
    sparse_ppv,
)
from screenlimits.cohorts import CohortGroup, CohortProfile, cohort_system_risk
from screenlimits.effdim import (
    SpatialCorrelation,
    adjusted_limits,
    k_eff_spatial,
    k_eff_temporal_rough,
)
from screenlimits.lifetime import GrowthModel, critical_time_analytic
from screenlimits.datasets import figure_panels
from screenlimits.simulate import MODE_BINOMIAL, SimPlan, simulate_per_person, simulate_system
from screenlimits.system import ScreeningConfig, phase_scan, system_risk
from screenlimits.tails import (
    OverlapInput,
    binomial_tail,
    overlap_probability,
    poisson_tail,
    tail_estimate,
)

from fractions import Fraction


def _report(capsys, idx: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {idx}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_headline_tail(capsys):
    t0 = time.perf_counter()
    q = poisson_tail(5.0, 15)
    risk = system_risk(ScreeningConfig(k=1000, p=0.005, n=10**6, m=15))
    ok_q = abs(q - 2.26e-4) <= 0.01 * 2.26e-4
    ok_alerts = abs(risk.expected - 226.0) <= 1.0
    ok_log = abs(risk.log_complement - (-226.0)) <= 1.0
    elapsed = time.perf_counter() - t0
    ok = ok_q and ok_alerts and ok_log and elapsed < 1.0
    _report(
        capsys,
        1,
        ok,
        f"q={q:.4e}, alerts={risk.expected:.2f}, "
        f"log-complement={risk.log_complement:.2f} in {elapsed:.2f}s",
    )
    assert ok_q and ok_alerts and ok_log
    assert elapsed < 1.0


def test_criterion_02_sandwich_grid(capsys):
    t0 = time.perf_counter()
    violations = 0
    points = 0
    for lam in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
        for c in (1.2, 1.5, 2.0, 3.0):
            m = math.ceil(c * lam - 1e-9)
            if m <= lam:
                continue
            points += 1
            est = tail_estimate(lam, m)
            if not (est.robbins_lower <= est.exact <= est.chernoff_upper):
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10.0
    _report(
        capsys, 2, ok, f"{points} grid points, {violations} violations in {elapsed:.2f}s"
    )
    assert violations == 0
    assert elapsed < 10.0


def _enum_tails(k: int, p: float) -> list[float]:
    """All-threshold tails from one literal 2^k outcome enumeration."""
    by_count = [[] for _ in range(k + 1)]
    for mask in range(1 << k):
        hits = mask.bit_count()
        by_count[hits].append(p**hits * (1.0 - p) ** (k - hits))
    pmf = [math.fsum(terms) for terms in by_count]
    return [math.fsum(pmf[m:]) for m in range(k + 2)]


def _comb_overlap(v: int, t: int, s: int) -> float:
    if t == 0 or s == 0:
        return 0.0
    if s > v - t:
        return 1.0
    return float(1 - Fraction(math.comb(v - t, s), math.comb(v, s)))


def test_criterion_03_exact_oracles(capsys):
    t0 = time.perf_counter()
    worst_binom = 0.0
    for k in (1, 2, 3, 5, 8, 12, 16, 20):
        for p in (0.05, 0.3, 0.5, 0.9):
            oracle = _enum_tails(k, p)
            for m in range(k + 2):
                diff = abs(binomial_tail(k, p, m) - oracle[m])
                worst_binom = max(worst_binom, diff)
    worst_overlap = 0.0
    for v in (1, 2, 5, 10, 17, 25, 40, 60):
        step = max(1, v // 6)
        for t in range(0, v + 1, step):
            for s in range(0, v + 1, step):
                got = overlap_probability(
                    OverlapInput(domain_size=v, person_items=t, suspicious_items=s)
                )
                diff = abs(got - _comb_overlap(v, t, s))
                worst_overlap = max(worst_overlap, diff)
    elapsed = time.perf_counter() - t0
    ok = worst_binom <= 1e-12 and worst_overlap <= 1e-12 and elapsed < 30.0
    _report(
        capsys,
        3,
        ok,
        f"binomial max dev {worst_binom:.2e}, overlap max dev "
        f"{worst_overlap:.2e} in {elapsed:.2f}s",
    )
    assert worst_binom <= 1e-12
    assert worst_overlap <= 1e-12
    assert elapsed < 30.0


def test_criterion_04_lifetime_table(capsys):
    t0 = time.perf_counter()
    base = GrowthModel(k0=100.0, gamma=1.5, p=0.01)
    fast = GrowthModel(k0=100.0, gamma=2.0, p=0.01)
    got = (
        critical_time_analytic(base, 3),
        critical_time_analytic(base, 5),
        critical_time_analytic(base, 10),
        critical_time_analytic(fast, 5),
    )
    targets = (2.7, 4.0, 5.7, 2.3)
    devs = [abs(g - t) for g, t in zip(got, targets)]
    elapsed = time.perf_counter() - t0
    ok = all(d <= 0.05 for d in devs) and elapsed < 1.0
    _report(
        capsys,
        4,
        ok,
        "horizons " + ", ".join(f"{g:.3f}" for g in got) + f" in {elapsed:.2f}s",
    )
    for dev in devs:
        assert dev <= 0.05
    assert elapsed < 1.0


def test_criterion_05_cohort_disparity(capsys):
    t0 = time.perf_counter()
    profile = CohortProfile(
        groups=(
            CohortGroup(label="low", size=10**5, p=0.005),
            CohortGroup(label="high", size=10**5, p=0.02),
        )
    )
    risk = cohort_system_risk(profile, k=100, m=3)
    by_label = {g.label: g for g in risk.groups}
    q_low, q_high = by_label["low"].q, by_label["high"].q
    alerts_low, alerts_high = by_label["low"].expected, by_label["high"].expected
    ratio = q_high / q_low
    # Pr(Pois(lam) >= 3) = 1 - e^-lam (1 + lam + lam^2/2) at lam = k*p = 0.5
    # and 2.0, written out so the targets do not go through poisson_tail.
    tail_low = 1.0 - math.exp(-0.5) * (1.0 + 0.5 + 0.5**2 / 2.0)
    tail_high = 1.0 - 5.0 * math.exp(-2.0)
    target_low, target_high = 1e5 * tail_low, 1e5 * tail_high
    target_ratio = tail_high / tail_low
    # The quoted 0.014, 0.323, 1400 and 32300 are these values rounded (and
    # ~23 is 0.323 / 0.014); counts and ratio are gated on the unrounded ones.
    quoted_low = round(target_low, -2)
    assert quoted_low == 1400.0
    ok_q_low = abs(q_low - 0.014) <= 0.001
    ok_q_high = abs(q_high - 0.323) <= 0.001
    ok_alerts_low = abs(alerts_low - target_low) <= 0.01 * target_low
    ok_alerts_high = abs(alerts_high - target_high) <= 0.01 * target_high
    ok_ratio = abs(ratio - target_ratio) <= 0.05 * target_ratio
    elapsed = time.perf_counter() - t0
    ok = ok_q_low and ok_q_high and ok_alerts_low and ok_alerts_high and ok_ratio
    _report(
        capsys,
        5,
        ok and elapsed < 1.0,
        f"q={q_low:.4f}/{q_high:.4f}, alerts_low={alerts_low:.2f} "
        f"(target {target_low:.2f}, quoted {quoted_low:.0f}), "
        f"alerts_high={alerts_high:.2f} (target {target_high:.2f}), "
        f"ratio={ratio:.3f} (target {target_ratio:.3f}) in {elapsed:.2f}s",
    )
    assert ok_q_low
    assert ok_q_high
    assert ok_alerts_low, (
        f"expected alerts {alerts_low:.2f} outside 1% of {target_low:.2f}"
    )
    assert ok_alerts_high, (
        f"expected alerts {alerts_high:.2f} outside 1% of {target_high:.2f}"
    )
    assert ok_ratio, f"ratio {ratio:.3f} outside 5% of {target_ratio:.3f}"
    assert elapsed < 1.0


def _scan_prob(lam: float, alpha: float) -> float:
    return phase_scan([lam], 1.5, alpha)[0].prob


def _alpha_at(lam: float, target: float, hi: float) -> float:
    lo = 1e-6
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _scan_prob(lam, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_06_phase_transition(capsys):
    t0 = time.perf_counter()
    sub = _scan_prob(200.0, 0.5)
    sup = _scan_prob(200.0, 1.5)
    widths = []
    for lam, hi in ((25.0, 2.0), (100.0, 2.0), (400.0, 1.4)):
        widths.append(_alpha_at(lam, 0.9, hi) - _alpha_at(lam, 0.1, hi))
    shrinking = widths[0] > widths[1] > widths[2]
    elapsed = time.perf_counter() - t0
    ok = sub < 0.01 and sup > 0.99 and shrinking and elapsed < 10.0
    _report(
        capsys,
        6,
        ok,
        f"prob(alpha=0.5)={sub:.2e}, prob(alpha=1.5)={sup:.6f}, widths "
        + "/".join(f"{w:.3f}" for w in widths)
        + f" in {elapsed:.2f}s",
    )
    assert sub < 0.01
    assert sup > 0.99
    assert shrinking
    assert elapsed < 10.0


def test_criterion_07_posterior_identities(capsys):
    t0 = time.perf_counter()
    rng = random.Random(0)
    worst_sum = 0.0
    for _ in range(1000):
        n = rng.randrange(10**3, 10**9)
        ctx = BayesContext(
            r=rng.uniform(0.5, n / 2),
            s=rng.uniform(0.01, 1.0),
            alpha=0.5,
            q=rng.uniform(1e-12, 0.9),
            n=n,
        )
        post = ppv(ctx)
        worst_sum = max(worst_sum, abs(post.ppv + post.fdr - 1.0))
    worst_alpha = 0.0
    for alpha in (0.05, 0.3, 0.5, 0.9, 0.99):
        n_crit = bayes_critical_population(10.0, 0.9, alpha, 2.26e-4)
        worst_alpha = max(
            worst_alpha, abs(sparse_ppv(10.0 * 0.9, n_crit * 2.26e-4) - alpha)
        )
    forensic = classify_regime(
        BayesContext(r=1.0, s=1.0, alpha=0.5, q=1e-12, n=10**6)
    )
    regime_ok = (
        forensic.regime == REGIME_EVIDENTIAL
        and forensic.nq == pytest.approx(1e-6, rel=1e-9)
    )
    elapsed = time.perf_counter() - t0
    ok = worst_sum <= 1e-15 and worst_alpha <= 1e-12 and regime_ok and elapsed < 5.0
    _report(
        capsys,
        7,
        ok,
        f"max |PPV+FDR-1| = {worst_sum:.2e}, max sparse gap {worst_alpha:.2e}, "
        f"forensic regime {forensic.regime} in {elapsed:.2f}s",
    )
    assert worst_sum <= 1e-15
    assert worst_alpha <= 1e-12
    assert regime_ok
    assert elapsed < 5.0


def test_criterion_08_effective_dimension(capsys):
    t0 = time.perf_counter()
    spatial = k_eff_spatial(SpatialCorrelation(area=1e8, xi=500.0))
    rough = k_eff_temporal_rough(365, 30.0)
    dense = adjusted_limits(k=10_000, p=0.005, c=1.5, k_eff=64.0)
    sparse = adjusted_limits(k=365, p=0.02, c=12.0 / 7.3, k_eff=6.0)
    ok_spatial = abs(spatial - 63.66) <= 0.01 * 63.66
    ok_rough = abs(rough - 6.08) <= 0.01
    ok_exp_dense = abs(dense.adjusted_exponent - 0.0345) <= 0.02 * 0.0345
    ok_exp_sparse = abs(sparse.adjusted_exponent - 0.021) <= 0.02 * 0.021
    ok_n_dense = abs(dense.adjusted_n_crit - 7.0) <= 0.10 * 7.0
    ok_n_sparse = abs(sparse.adjusted_n_crit - 2.8) <= 0.10 * 2.8
    elapsed = time.perf_counter() - t0
    ok = (
        ok_spatial
        and ok_rough
        and ok_exp_dense
        and ok_exp_sparse
        and ok_n_dense
        and ok_n_sparse
        and elapsed < 1.0
    )
    _report(
        capsys,
        8,
        ok,
        f"k_eff spatial {spatial:.2f}, rough {rough:.3f}, exponents "
        f"{dense.adjusted_exponent:.5f}/{sparse.adjusted_exponent:.5f}, "
        f"n_crit {dense.adjusted_n_crit:.2f}/{sparse.adjusted_n_crit:.2f} "
        f"in {elapsed:.2f}s",
    )
    assert ok_spatial and ok_rough
    assert ok_exp_dense and ok_exp_sparse
    assert ok_n_dense and ok_n_sparse
    assert elapsed < 1.0


def test_criterion_09_monte_carlo_accuracy(capsys):
    t0 = time.perf_counter()
    errors = []
    for idx, k in enumerate(range(50, 306, 15)):
        seed = (0 + 1_000_003 * idx) % 2**64
        plan = SimPlan(
            k=k, p=0.01, m=6, n=500, runs=5000, seed=seed, mode=MODE_BINOMIAL
        )
        rep = simulate_system(plan)
        errors.append(rep.abs_error)
    mae = sum(errors) / len(errors)
    hits = 0
    for seed in range(100):
        rep = simulate_per_person(
            SimPlan(k=100, p=0.05, m=10, runs=20_000, seed=seed, mode=MODE_BINOMIAL)
        )
        if abs(rep.z_score) <= 3.0:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = mae <= 0.005 and hits >= 95 and elapsed < 300.0
    _report(
        capsys,
        9,
        ok,
        f"sweep MAE {mae:.5f} over {len(errors)} points, calibration "
        f"{hits}/100 within 3 standard errors in {elapsed:.1f}s",
    )
    assert mae <= 0.005
    assert hits >= 95
    assert elapsed < 300.0


def test_criterion_10_reproducible_artifacts(capsys, tmp_path):
    t0 = time.perf_counter()
    names = ("panel_a.csv", "panel_b.csv", "panel_c.csv", "panel_d.csv", "manifest.json")
    dirs = []
    for label, workers in (("first", 1), ("second", 1), ("parallel", 4)):
        out = tmp_path / label
        figure_panels(out, runs=5000, seed=0, workers=workers)
        dirs.append(out)
    identical = all(
        (dirs[0] / name).read_bytes() == (d / name).read_bytes()
        for d in dirs[1:]
        for name in names
    )
    elapsed = time.perf_counter() - t0
    ok = identical and elapsed < 300.0
    _report(
        capsys,
        10,
        ok,
        f"three emissions (workers 1/1/4) byte-identical={identical} "
        f"in {elapsed:.1f}s",
    )
    assert identical
    assert elapsed < 300.0
