"""Cohort decomposition, dominance, and disparity tests."""

import math
import random

import pytest

from screenlimits.cohorts import (
    CohortGroup,
    CohortProfile,
    GroupRisk,
    cohort_system_risk,
    disparity_ratio,
)
from screenlimits.errors import DomainError
from screenlimits.system import ScreeningConfig, population_risk, system_risk
from screenlimits.tails import poisson_tail

# reference two-group profile: same size, one group with four times
# the per-attribute match probability, common threshold m = 3 at k = 100
TWO_GROUPS = CohortProfile(
    groups=(
        CohortGroup(label="low", size=10**5, p=0.005),
        CohortGroup(label="high", size=10**5, p=0.02),
    )
)


def brute_exact(profile: CohortProfile, k: int, m: int) -> float:
    """Literal per-individual product, only feasible for small cohorts."""
    prod = 1.0
    for g in profile.groups:
        q = poisson_tail(k * g.p, m)
        for _ in range(g.size):
            prod *= 1.0 - q
    return 1.0 - prod


class TestProfileValidation:
    def test_group_fields(self):
        with pytest.raises(DomainError):
            CohortGroup(label="", size=10, p=0.1)
        with pytest.raises(DomainError):
            CohortGroup(label="a", size=0, p=0.1)
        with pytest.raises(DomainError):
            CohortGroup(label="a", size=10, p=1.0)

    def test_profile_fields(self):
        with pytest.raises(DomainError):
            CohortProfile(groups=())
        with pytest.raises(DomainError):
            CohortProfile(
                groups=(
                    CohortGroup(label="a", size=10, p=0.1),
                    CohortGroup(label="a", size=10, p=0.2),
                )
            )


class TestCohortSystemRisk:
    def test_reference_profile(self):
        risk = cohort_system_risk(TWO_GROUPS, k=100, m=3)
        by_label = {g.label: g for g in risk.groups}
        assert by_label["low"].lam == pytest.approx(0.5)
        assert by_label["high"].lam == pytest.approx(2.0)
        assert by_label["low"].q == pytest.approx(0.014, abs=0.001)
        assert by_label["high"].q == pytest.approx(0.323, abs=0.001)
        assert by_label["low"].expected == pytest.approx(1438.77, abs=0.01)
        assert by_label["high"].expected == pytest.approx(32332.36, abs=0.01)
        assert by_label["high"].q / by_label["low"].q == pytest.approx(22.47, abs=0.01)
        assert risk.exact == 1.0
        assert risk.total_mass == pytest.approx(1438.77 + 32332.36, abs=0.05)

    def test_shares_sum_to_one(self):
        risk = cohort_system_risk(TWO_GROUPS, k=100, m=3)
        assert sum(g.share for g in risk.groups) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 100, 10**6])
    @pytest.mark.parametrize("m", [1, 3, 40])
    def test_groups_are_population_risk_records(self, k, m):
        profile = CohortProfile(
            groups=(
                CohortGroup(label="a", size=1, p=1e-9),
                CohortGroup(label="b", size=10**5, p=0.005),
                CohortGroup(label="c", size=7, p=0.3),
                CohortGroup(label="d", size=10**12, p=0.02),
            )
        )
        risk = cohort_system_risk(profile, k=k, m=m)
        for g, row in zip(profile.groups, risk.groups):
            assert isinstance(row, GroupRisk)
            want = population_risk(k * g.p, m, g.size)
            assert {f: getattr(row, f) for f in vars(want)} == vars(want)
            assert (row.label, row.share) == (g.label, row.expected / risk.total_mass)
        assert math.fsum(g.share for g in risk.groups) == pytest.approx(1.0, rel=1e-12)
        assert risk.dominance.dominant_mass == max(g.expected for g in risk.groups)

    def test_single_group_matches_system_risk(self):
        profile = CohortProfile(groups=(CohortGroup(label="only", size=5000, p=0.01),))
        cohort = cohort_system_risk(profile, k=200, m=6)
        system = system_risk(ScreeningConfig(k=200, p=0.01, n=5000, m=6))
        assert cohort.exact == pytest.approx(system.prob, rel=1e-15)
        assert cohort.total_mass == pytest.approx(system.expected, rel=1e-15)

    def test_brute_force_oracle(self):
        profile = CohortProfile(
            groups=(
                CohortGroup(label="a", size=800, p=0.004),
                CohortGroup(label="b", size=1500, p=0.009),
                CohortGroup(label="c", size=300, p=0.02),
            )
        )
        risk = cohort_system_risk(profile, k=300, m=8)
        assert risk.exact == pytest.approx(brute_exact(profile, 300, 8), rel=1e-12)

    def test_poisson_approx_close_when_masses_small(self):
        profile = CohortProfile(
            groups=(
                CohortGroup(label="a", size=50, p=0.004),
                CohortGroup(label="b", size=80, p=0.006),
            )
        )
        risk = cohort_system_risk(profile, k=100, m=6)
        assert risk.poisson_approx == pytest.approx(risk.exact, rel=1e-3)
        assert risk.poisson_approx == pytest.approx(-math.expm1(-risk.total_mass), rel=1e-15)

    def test_group_order_preserved_and_permutation_invariant(self):
        a = CohortGroup(label="a", size=400, p=0.004)
        b = CohortGroup(label="b", size=700, p=0.012)
        fwd = cohort_system_risk(CohortProfile(groups=(a, b)), k=250, m=6)
        rev = cohort_system_risk(CohortProfile(groups=(b, a)), k=250, m=6)
        assert [g.label for g in fwd.groups] == ["a", "b"]
        assert [g.label for g in rev.groups] == ["b", "a"]
        assert fwd.exact == pytest.approx(rev.exact, rel=1e-15)
        assert fwd.total_mass == pytest.approx(rev.total_mass, rel=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            cohort_system_risk(TWO_GROUPS, k=0, m=3)
        with pytest.raises(DomainError):
            cohort_system_risk(TWO_GROUPS, k=100, m=0)


class TestDominance:
    def test_reference_profile_dominated_by_high(self):
        rep = cohort_system_risk(TWO_GROUPS, k=100, m=3).dominance
        assert rep.dominant_label == "high"
        assert rep.main_term == pytest.approx(1.0)
        assert rep.correction_bound == pytest.approx(0.0, abs=1e-300)

    def test_tie_resolves_to_first(self):
        profile = CohortProfile(
            groups=(
                CohortGroup(label="first", size=100, p=0.01),
                CohortGroup(label="second", size=100, p=0.01),
            )
        )
        rep = cohort_system_risk(profile, k=100, m=4).dominance
        assert rep.dominant_label == "first"
        assert rep.dominant_mass == rep.other_mass

    def test_correction_bound_controls_error(self):
        # profiles engineered so the non-dominant mass is small relative
        # to exp(-dominant): the one-group term is then provably close
        rng = random.Random(20260819)
        checked = 0
        for _ in range(100):
            lam_dom = rng.uniform(2.0, 4.0)
            ratio = rng.uniform(10.0, 20.0)
            other_frac = rng.uniform(0.3, 0.5)
            k = 400
            m = 12
            p_dom = lam_dom / k
            q_dom = poisson_tail(lam_dom, m)
            size_dom = max(1, round(ratio / q_dom))
            mass_dom = size_dom * q_dom
            q_other = poisson_tail(k * p_dom * 0.8, m)
            size_other = max(1, round(other_frac * mass_dom / q_other))
            profile = CohortProfile(
                groups=(
                    CohortGroup(label="dom", size=size_dom, p=p_dom),
                    CohortGroup(label="oth", size=size_other, p=p_dom * 0.8),
                )
            )
            risk = cohort_system_risk(profile, k, m)
            rep, exact = risk.dominance, risk.exact
            if rep.other_mass * math.exp(-rep.dominant_mass) < 0.1:
                assert abs(exact - rep.main_term) <= rep.correction_bound + 1e-12
                checked += 1
            assert rep.main_term <= exact + 1e-12
        assert checked >= 50

    def test_share_concentrates_as_gap_grows(self):
        shares = []
        for lam_high in (12.0, 14.0, 17.0, 22.0):
            profile = CohortProfile(
                groups=(
                    CohortGroup(label="low", size=1000, p=2.0 / 400.0),
                    CohortGroup(label="high", size=1000, p=lam_high / 400.0),
                )
            )
            risk = cohort_system_risk(profile, k=400, m=12)
            shares.append({g.label: g.share for g in risk.groups}["high"])
        assert all(a < b for a, b in zip(shares, shares[1:]))
        assert shares[-1] > 0.999


class TestDisparity:
    def test_reference_ratio(self):
        assert disparity_ratio(0.005, 0.02, k=100, m=3) == pytest.approx(22.47, abs=0.01)

    def test_matches_direct_quotient(self):
        ratio = disparity_ratio(0.004, 0.012, k=250, m=6)
        direct = poisson_tail(3.0, 6) / poisson_tail(1.0, 6)
        assert ratio == pytest.approx(direct, rel=1e-12)

    def test_grows_with_threshold(self):
        ratios = [disparity_ratio(2.0 / 400, 12.0 / 400, k=400, m=m) for m in (4, 8, 12)]
        assert ratios[0] < ratios[1] < ratios[2]

    def test_survives_underflowing_tails(self):
        # lam1 = 1 vs lam2 = 5 at m = 400: both tails underflow a double,
        # but the log-space quotient is still finite and huge
        ratio = disparity_ratio(0.001, 0.005, k=1000, m=400)
        assert math.isfinite(ratio)
        assert ratio > 1e100

    def test_ordering_required(self):
        with pytest.raises(DomainError):
            disparity_ratio(0.02, 0.005, k=100, m=3)
        with pytest.raises(DomainError):
            disparity_ratio(0.01, 0.01, k=100, m=3)

