"""Frozen reference values recomputed end to end on every run.

The registry is one table. Each row names a headline quantity, recomputes
it from primitive inputs, and gives the documented rounded target it is
held to, with an absolute and a relative tolerance and an optional note.
The inputs several rows share (the flagship deployment, the growth models,
the two-group cohort, the forensic context and the adjusted limits) are
built once before the table. The CLI `golden` subcommand renders the rows
as a pass/fail table and exits nonzero if any row misses.

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
    # Flagship single-rate deployment: k=1000, p=0.005, m=15, n=1e6.
    risk = system_risk(ScreeningConfig(k=1000, p=0.005, n=10**6, m=15))
    # Growth horizons for k0=100, p=0.01 (lam starts at 1.0).
    grow = GrowthModel(k0=100.0, gamma=1.5, p=0.01)
    fast = GrowthModel(k0=100.0, gamma=2.0, p=0.01)
    # Two-neighborhood cohort comparison: k=100, m=3, 1e5 people per group.
    low, high = cohort_system_risk(
        CohortProfile(
            groups=(
                CohortGroup(label="low", size=10**5, p=0.005),
                CohortGroup(label="high", size=10**5, p=0.02),
            )
        ),
        k=100,
        m=3,
    ).groups
    # Forensic-identification regime: one expected target, q near 1e-12.
    verdict = classify_regime(BayesContext(r=1.0, s=1.0, alpha=0.9, q=1e-12, n=10**6))
    # Correlation-corrected effective dimensionality.
    dense = adjusted_limits(k=10**4, p=0.005, c=1.5, k_eff=64.0)
    sparse = adjusted_limits(k=365, p=0.02, c=12.0 / 7.3, k_eff=6.0)
    # (name, value, expected, tol_abs, tol_rel, note)
    table = [
        ("tail-q-lam5-m15", poisson_tail(5.0, 15), 2.26e-4, 0.0, 0.01, ""),
        ("alerts-n1e6-lam5-m15", risk.expected, 226.0, 1.0, 0.0, ""),
        ("log-complement-n1e6-lam5-m15", risk.log_complement, -226.0, 1.0, 0.0,
         "certainty of a false alert, reported in log space"),
        ("horizon-m3-gamma1.5", critical_time_analytic(grow, 3), 2.7, 0.05, 0.0, ""),
        ("horizon-m5-gamma1.5", critical_time_analytic(grow, 5), 4.0, 0.05, 0.0, ""),
        ("horizon-m10-gamma1.5", critical_time_analytic(grow, 10), 5.7, 0.05, 0.0, ""),
        ("horizon-m5-gamma2.0", critical_time_analytic(fast, 5), 2.3, 0.05, 0.0, ""),
        ("cohort-q-low", low.q, 0.014, 0.001, 0.0, ""),
        ("cohort-q-high", high.q, 0.323, 0.001, 0.0, ""),
        ("cohort-alerts-low", low.expected, 1400.0, 0.0, 0.01,
         "target multiplies pre-rounded factors (1e5 * 0.014); the "
         "unrounded value is 2.8% higher, so this row fails by design"),
        ("cohort-alerts-high", high.expected, 32300.0, 0.0, 0.01, ""),
        ("cohort-ratio", disparity_ratio(0.005, 0.02, k=100, m=3), 23.0, 0.0, 0.05, ""),
        ("evidential-nq", verdict.nq, 1e-6, 0.0, 1e-9, ""),
        ("evidential-regime", 1.0 if verdict.regime == REGIME_EVIDENTIAL else 0.0, 1.0, 0.0, 0.0,
         "1.0 means the low-false-positive regime is classified evidential"),
        ("spatial-keff", k_eff_spatial(SpatialCorrelation(area=1e8, xi=500.0)), 63.66, 0.0, 0.01,
         ""),
        ("temporal-keff-rough", k_eff_temporal_rough(365, 30.0), 6.08, 0.01, 0.0, ""),
        ("adjusted-exponent-dense", dense.adjusted_exponent, 0.0345, 0.0, 0.02, ""),
        ("adjusted-exponent-sparse", sparse.adjusted_exponent, 0.021, 0.0, 0.02, ""),
        ("adjusted-ncrit-dense", dense.adjusted_n_crit, 7.0, 0.0, 0.10, ""),
        ("adjusted-ncrit-sparse", sparse.adjusted_n_crit, 2.8, 0.0, 0.10, ""),
        # Uncorrected critical-population scales at the same operating points.
        ("critical-population-lam50", critical_population(50.0, 1.5), 1560.0, 0.0, 0.05, ""),
        ("critical-population-lam7.3", critical_population(7.3, 12.0 / 7.3), 9.5, 0.0, 0.05, ""),
    ]
    return [
        GoldenCheck(
            name, value, expected, tol_abs, tol_rel,
            abs(value - expected) <= tol_scale * (tol_abs + tol_rel * abs(expected)),
            note,
        )
        for name, value, expected, tol_abs, tol_rel, note in table
    ]


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
