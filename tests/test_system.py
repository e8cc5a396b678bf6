"""System risk, critical population, and phase-transition scan."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from screenlimits.errors import DomainError, RangeOverflowError
from screenlimits.system import (
    ScreeningConfig,
    critical_population,
    phase_scan,
    system_probability,
    system_risk,
)
from screenlimits.tails import poisson_tail, rate_function


class TestScreeningConfig:
    def test_requires_exactly_one_threshold_spec(self):
        with pytest.raises(DomainError):
            ScreeningConfig(k=10, p=0.1, n=100)
        with pytest.raises(DomainError):
            ScreeningConfig(k=10, p=0.1, n=100, m=3, c=1.5)

    def test_threshold_from_ratio(self):
        cfg = ScreeningConfig(k=100, p=0.02, n=10, c=1.5)
        assert cfg.lam == pytest.approx(2.0)
        assert cfg.threshold == 3

    def test_validation(self):
        with pytest.raises(DomainError):
            ScreeningConfig(k=0, p=0.1, n=10, m=1)
        with pytest.raises(DomainError):
            ScreeningConfig(k=10, p=0.0, n=10, m=1)
        with pytest.raises(DomainError):
            ScreeningConfig(k=10, p=1.0, n=10, m=1)
        with pytest.raises(DomainError):
            ScreeningConfig(k=10, p=0.1, n=0, m=1)
        with pytest.raises(DomainError):
            ScreeningConfig(k=10, p=0.1, n=10, c=1.0)
        with pytest.raises(DomainError):
            ScreeningConfig(k=10, p=0.1, n=10, m=0)


class TestSystemRisk:
    def test_ratio_at_a_tiny_mean_uses_threshold_one(self):
        risk = system_risk(ScreeningConfig(k=1, p=1e-12, n=1000, c=2.0))
        assert risk.m == 1
        assert risk.q == pytest.approx(1e-12, rel=1e-9)
        assert risk.expected == pytest.approx(1e-9, rel=1e-9)

    def test_headline_example(self):
        risk = system_risk(ScreeningConfig(k=1000, p=0.005, n=10**6, m=15))
        assert risk.expected == pytest.approx(226.0, abs=1.0)
        assert risk.prob == 1.0
        assert risk.log_complement == pytest.approx(-226.0, abs=1.0)
        assert risk.lower <= risk.prob <= risk.upper

    def test_single_person_reduces_to_q(self):
        risk = system_risk(ScreeningConfig(k=100, p=0.01, n=1, m=3))
        assert risk.prob == pytest.approx(risk.q, rel=1e-12)

    def test_repeated_multiplication_oracle(self):
        cfg = ScreeningConfig(k=100, p=0.01, n=1000, m=3)
        risk = system_risk(cfg)
        q = risk.q
        assert q == pytest.approx(0.0803, abs=2e-4)
        prod = 1.0
        for _ in range(1000):
            prod *= 1.0 - q
        assert risk.prob == pytest.approx(1.0 - prod, rel=1e-10)

    def test_exact_value_is_system_probability(self):
        risk = system_risk(ScreeningConfig(k=1000, p=0.005, n=10**6, m=15))
        prob, log_comp = system_probability(risk.q, 10**6)
        assert (risk.prob, risk.log_complement) == (prob, log_comp)
        assert system_probability(1.0, 10) == (1.0, -math.inf)

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    def test_nobody_never_alerts(self, q):
        assert system_probability(q, 0) == (0.0, 0.0)

    def test_expected_alerts_identity(self):
        cfg = ScreeningConfig(k=50, p=0.02, n=12345, m=4)
        risk = system_risk(cfg)
        assert risk.expected == cfg.n * risk.q

    def test_sandwich_over_documented_grid(self):
        for k in (10, 100, 1000):
            for p in (0.001, 0.01, 0.05):
                for c in (1.5, 2.0, 3.0):
                    for n in (10**2, 10**4, 10**6):
                        risk = system_risk(ScreeningConfig(k=k, p=p, n=n, c=c))
                        assert risk.lower <= risk.prob, (k, p, c, n)
                        assert risk.prob <= risk.upper, (k, p, c, n)

    def test_monotone_in_population(self):
        probs = [
            system_risk(ScreeningConfig(k=200, p=0.01, n=n, m=6)).prob
            for n in (10, 100, 1000, 10**4, 10**5)
        ]
        assert all(a <= b for a, b in zip(probs, probs[1:]))

    def test_monotone_in_match_probability(self):
        probs = [
            system_risk(ScreeningConfig(k=200, p=p, n=5000, m=6)).prob
            for p in (0.002, 0.005, 0.01, 0.02, 0.04)
        ]
        assert all(a <= b for a, b in zip(probs, probs[1:]))

    def test_monotone_in_threshold(self):
        probs = [
            system_risk(ScreeningConfig(k=200, p=0.01, n=5000, m=m)).prob
            for m in (3, 4, 6, 9, 14)
        ]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_trivial_bounds_below_mean(self):
        # threshold at or below the mean: no large-deviation bounds exist
        risk = system_risk(ScreeningConfig(k=100, p=0.1, n=50, m=5))
        assert risk.lower == 0.0
        assert risk.upper == 1.0
        assert 0.0 <= risk.prob <= 1.0

    def test_bounds_at_a_ratio_that_rounds_to_one(self):
        # m = lam + 1 at lam = 5e16: m / lam is 1.0 in double precision, so no sandwich
        risk = system_risk(ScreeningConfig(k=10**17, p=0.5, n=1, m=5 * 10**16 + 1))
        assert risk.lower <= risk.prob <= risk.upper
        assert (risk.lower, risk.upper) == (0.0, 1.0)

    def test_huge_population_is_overflow_safe(self):
        risk = system_risk(ScreeningConfig(k=1000, p=0.005, n=10**12, m=30))
        assert 0.0 < risk.prob <= 1.0
        assert math.isfinite(risk.log_complement)

    @given(
        k=st.integers(min_value=2, max_value=2000),
        p=st.floats(min_value=1e-4, max_value=0.2),
        n=st.integers(min_value=1, max_value=10**9),
        c=st.floats(min_value=1.05, max_value=4.0),
    )
    # gammainc flushes this tail (q = 3.07e-312 by mpmath) to 0.0, below robbins_lower
    @example(k=1896, p=0.19921875, n=1, c=3.5)
    @settings(max_examples=200, deadline=None)
    def test_sandwich_property(self, k, p, n, c):
        risk = system_risk(ScreeningConfig(k=k, p=p, n=n, c=c))
        assert 0.0 <= risk.lower <= risk.prob
        assert risk.prob <= risk.upper <= 1.0


class TestCriticalPopulation:
    def test_headline_scale(self):
        scale = critical_population(50.0, 1.5)
        assert scale == pytest.approx(1560.0, rel=0.05)
        exact = math.sqrt(50.0) * math.exp(50.0 * rate_function(1.5))
        assert scale == pytest.approx(exact, rel=1e-14)

    def test_second_worked_point(self):
        assert critical_population(7.3, 12.0 / 7.3) == pytest.approx(9.5, rel=0.05)

    def test_unit_ratio_limit(self):
        # as c -> 1+ the rate vanishes and only the prefactor sqrt(lam) survives
        lam = 10.0
        assert critical_population(lam, 1.0 + 1e-9) == pytest.approx(math.sqrt(lam), rel=1e-6)

    def test_rejects_c_at_most_one(self):
        with pytest.raises(DomainError):
            critical_population(10.0, 1.0)
        with pytest.raises(DomainError):
            critical_population(0.0, 2.0)


def _scan_prob(lam: float, c: float, alpha: float) -> float:
    return phase_scan([lam], c, alpha)[0].prob


def _alpha_at_prob(lam: float, c: float, target: float, hi: float) -> float:
    """Bisect the scan exponent fraction alpha to a target probability."""
    lo = 1e-6
    assert _scan_prob(lam, c, lo) < target < _scan_prob(lam, c, hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _scan_prob(lam, c, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPhaseScan:
    def test_subcritical_and_supercritical(self):
        assert _scan_prob(200.0, 1.5, 0.5) < 0.01
        assert _scan_prob(200.0, 1.5, 1.5) > 0.99

    def test_point_fields(self):
        pts = phase_scan([25.0, 100.0], 1.5, 1.0)
        assert [pt.lam for pt in pts] == [25.0, 100.0]
        for pt in pts:
            assert pt.m == math.ceil(1.5 * pt.lam - 1e-9)
            assert pt.n == max(1, round(math.sqrt(pt.lam) * math.exp(pt.lam * rate_function(1.5))))
            assert pt.q == pytest.approx(poisson_tail(pt.lam, pt.m), rel=1e-14)
            assert pt.lower <= pt.prob <= pt.upper

    def test_points_equal_system_risk(self):
        # k * p == lam exactly, so both paths see the same tail arguments
        for pt in phase_scan([25.0, 100.0, 400.0], 1.5, 1.0):
            assert pt == system_risk(ScreeningConfig(k=round(2 * pt.lam), p=0.5, n=pt.n, m=pt.m))

    def test_tiny_mean_uses_threshold_one(self):
        (pt,) = phase_scan([1e-12], 2.0, 1.0)
        assert (pt.m, pt.n) == (1, 1)
        assert pt.q == pytest.approx(1e-12, rel=1e-9)

    def test_tiny_alpha_limit(self):
        pt = phase_scan([25.0], 1.5, 1e-9)[0]
        assert pt.n == round(math.sqrt(25.0))
        assert pt.prob <= pt.n * pt.q
        assert pt.prob == pytest.approx(pt.n * pt.q, rel=0.1)

    def test_band_width_shrinks_with_lambda(self):
        widths = {}
        for lam, hi in ((25.0, 2.0), (100.0, 2.0), (400.0, 1.4)):
            lo_edge = _alpha_at_prob(lam, 1.5, 0.1, hi)
            hi_edge = _alpha_at_prob(lam, 1.5, 0.9, hi)
            widths[lam] = hi_edge - lo_edge
        assert widths[25.0] > widths[100.0] > widths[400.0]

    def test_overflow_rejection(self):
        with pytest.raises(RangeOverflowError):
            phase_scan([400.0], 3.0, 2.0)
        with pytest.raises(RangeOverflowError):
            phase_scan([300.0], 1.5, 2.2)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            phase_scan([10.0], 1.0, 1.0)
        with pytest.raises(DomainError):
            phase_scan([10.0], 1.5, 0.0)
        with pytest.raises(DomainError):
            phase_scan([10.0, -1.0], 1.5, 1.0)
