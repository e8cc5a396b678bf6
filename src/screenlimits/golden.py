"""Frozen reference values recomputed end to end on every run.

Each check recomputes one headline quantity from primitive inputs and
compares it against a documented rounded target with an explicit tolerance.
The registry doubles as regression armor and as a worked-example catalog:
the CLI `golden` subcommand renders it as a pass/fail table and exits
nonzero if any row misses.

One row is expected to miss on a correct build: `cohort-alerts-low`. Its
target 1400 is the product of pre-rounded factors (1e5 times 0.014), while
the unrounded computation gives 1e5 * 0.0143877 = 1438.77, which is 2.8%
high and outside the 1% gate. The row is kept at its stated tolerance
rather than widened, so the gap stays visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .bayes import REGIME_EVIDENTIAL, BayesContext, classify_regime
from .cohorts import CohortGroup, CohortProfile, cohort_system_risk, disparity_ratio
from .effdim import SpatialCorrelation, adjusted_limits, k_eff_spatial, k_eff_temporal_rough
from .errors import DomainError
from .lifetime import GrowthModel, critical_time_analytic
from .system import ScreeningConfig, critical_population, system_risk
from .tails import poisson_tail

__all__ = [
    "GoldenCheck",
    "golden_report",
    "all_pass",
    "render_table",
    "rows_for_output",
]


@dataclass(frozen=True, slots=True)
class GoldenCheck:
    """One recomputed value against its frozen target.

    The pass rule is |value - expected| <= tol_scale * (tol_abs +
    tol_rel * |expected|).
    """

    name: str
    value: float
    expected: float
    tol_abs: float
    tol_rel: float
    passed: bool
    note: str = ""


def _check(
    name: str,
    value: float,
    expected: float,
    tol_scale: float,
    tol_abs: float = 0.0,
    tol_rel: float = 0.0,
    note: str = "",
) -> GoldenCheck:
    tol = tol_scale * (tol_abs + tol_rel * abs(expected))
    return GoldenCheck(
        name=name,
        value=value,
        expected=expected,
        tol_abs=tol_abs,
        tol_rel=tol_rel,
        passed=abs(value - expected) <= tol,
        note=note,
    )


def golden_report(tol_scale: float = 1.0) -> list[GoldenCheck]:
    """Recompute every registry row. tol_scale multiplies all tolerances.

    tol_scale=0 turns every comparison exact, which makes the rows whose
    targets are rounded display values fail; that is the intended way to
    verify the harness actually compares numbers.

    Raises:
        DomainError: Unless 0 <= tol_scale < inf.
    """
    if not (0.0 <= tol_scale < inf):
        raise DomainError(f"tol_scale must lie in [0, inf), got {tol_scale}")
    checks: list[GoldenCheck] = []

    # Flagship single-rate deployment: k=1000, p=0.005, m=15, n=1e6.
    q = poisson_tail(5.0, 15)
    risk = system_risk(ScreeningConfig(k=1000, p=0.005, n=10**6, m=15))
    checks.append(_check("tail-q-lam5-m15", q, 2.26e-4, tol_scale, tol_rel=0.01))
    checks.append(
        _check(
            "alerts-n1e6-lam5-m15",
            risk.expected,
            226.0,
            tol_scale,
            tol_abs=1.0,
        )
    )
    checks.append(
        _check(
            "log-complement-n1e6-lam5-m15",
            risk.log_complement,
            -226.0,
            tol_scale,
            tol_abs=1.0,
            note="certainty of a false alert, reported in log space",
        )
    )

    # Growth horizons for k0=100, p=0.01 (lam starts at 1.0).
    grow = GrowthModel(k0=100.0, gamma=1.5, p=0.01)
    checks.append(
        _check("horizon-m3-gamma1.5", critical_time_analytic(grow, 3), 2.7, tol_scale, tol_abs=0.05)
    )
    checks.append(
        _check("horizon-m5-gamma1.5", critical_time_analytic(grow, 5), 4.0, tol_scale, tol_abs=0.05)
    )
    checks.append(
        _check("horizon-m10-gamma1.5", critical_time_analytic(grow, 10), 5.7, tol_scale, tol_abs=0.05)
    )
    fast = GrowthModel(k0=100.0, gamma=2.0, p=0.01)
    checks.append(
        _check("horizon-m5-gamma2.0", critical_time_analytic(fast, 5), 2.3, tol_scale, tol_abs=0.05)
    )

    # Two-neighborhood cohort comparison: k=100, m=3, 1e5 people per group.
    profile = CohortProfile(
        groups=(
            CohortGroup(label="low", size=10**5, p=0.005),
            CohortGroup(label="high", size=10**5, p=0.02),
        )
    )
    cohort = cohort_system_risk(profile, k=100, m=3)
    by_label = {g.label: g for g in cohort.groups}
    checks.append(
        _check("cohort-q-low", by_label["low"].q, 0.014, tol_scale, tol_abs=0.001)
    )
    checks.append(
        _check("cohort-q-high", by_label["high"].q, 0.323, tol_scale, tol_abs=0.001)
    )
    checks.append(
        _check(
            "cohort-alerts-low",
            by_label["low"].expected,
            1400.0,
            tol_scale,
            tol_rel=0.01,
            note=(
                "target multiplies pre-rounded factors (1e5 * 0.014); the "
                "unrounded value is 2.8% higher, so this row fails by design"
            ),
        )
    )
    checks.append(
        _check(
            "cohort-alerts-high",
            by_label["high"].expected,
            32300.0,
            tol_scale,
            tol_rel=0.01,
        )
    )
    checks.append(
        _check(
            "cohort-ratio",
            disparity_ratio(0.005, 0.02, k=100, m=3),
            23.0,
            tol_scale,
            tol_rel=0.05,
        )
    )

    # Forensic-identification regime: one expected target, q near 1e-12.
    dna = BayesContext(r=1.0, s=1.0, alpha=0.9, q=1e-12, n=10**6)
    verdict = classify_regime(dna)
    checks.append(
        _check("evidential-nq", verdict.nq, 1e-6, tol_scale, tol_rel=1e-9)
    )
    checks.append(
        _check(
            "evidential-regime",
            1.0 if verdict.regime == REGIME_EVIDENTIAL else 0.0,
            1.0,
            tol_scale,
            note="1.0 means the low-false-positive regime is classified evidential",
        )
    )

    # Correlation-corrected effective dimensionality.
    checks.append(
        _check(
            "spatial-keff",
            k_eff_spatial(SpatialCorrelation(area=1e8, xi=500.0)),
            63.66,
            tol_scale,
            tol_rel=0.01,
        )
    )
    checks.append(
        _check(
            "temporal-keff-rough",
            k_eff_temporal_rough(365, 30.0),
            6.08,
            tol_scale,
            tol_abs=0.01,
        )
    )
    dense = adjusted_limits(k=10**4, p=0.005, c=1.5, k_eff=64.0)
    sparse = adjusted_limits(k=365, p=0.02, c=12.0 / 7.3, k_eff=6.0)
    checks.append(
        _check(
            "adjusted-exponent-dense",
            dense.adjusted_exponent,
            0.0345,
            tol_scale,
            tol_rel=0.02,
        )
    )
    checks.append(
        _check(
            "adjusted-exponent-sparse",
            sparse.adjusted_exponent,
            0.021,
            tol_scale,
            tol_rel=0.02,
        )
    )
    checks.append(
        _check("adjusted-ncrit-dense", dense.adjusted_n_crit, 7.0, tol_scale, tol_rel=0.10)
    )
    checks.append(
        _check("adjusted-ncrit-sparse", sparse.adjusted_n_crit, 2.8, tol_scale, tol_rel=0.10)
    )

    # Uncorrected critical-population scales at the same operating points.
    checks.append(
        _check(
            "critical-population-lam50",
            critical_population(50.0, 1.5),
            1560.0,
            tol_scale,
            tol_rel=0.05,
        )
    )
    checks.append(
        _check(
            "critical-population-lam7.3",
            critical_population(7.3, 12.0 / 7.3),
            9.5,
            tol_scale,
            tol_rel=0.05,
        )
    )
    return checks


def all_pass(checks: list[GoldenCheck]) -> bool:
    return all(c.passed for c in checks)


def rows_for_output(checks: list[GoldenCheck]) -> list[dict]:
    """Rows in the fixed column order used by the CSV/JSON writers."""
    return [
        {
            "name": c.name,
            "value": c.value,
            "expected": c.expected,
            "tol_abs": c.tol_abs,
            "tol_rel": c.tol_rel,
            "status": "pass" if c.passed else "FAIL",
            "note": c.note,
        }
        for c in checks
    ]


def render_table(checks: list[GoldenCheck]) -> str:
    """Plain-text pass/fail table, one line per check."""
    name_w = max(len(c.name) for c in checks)
    lines = []
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        line = f"{c.name:<{name_w}}  {status}  value={c.value!r} expected={c.expected!r}"
        if c.note:
            line += f"  ({c.note})"
        lines.append(line)
    failed = sum(not c.passed for c in checks)
    lines.append(f"{len(checks)} checks, {len(checks) - failed} passed, {failed} failed")
    return "\n".join(lines)
