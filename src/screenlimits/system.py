"""Population-level false-alert risk for a screening deployment.

A deployment screens n independent innocent individuals, each of whom trips
the per-person test with probability q = Pr(Pois(k*p) >= m). This module
computes the exact probability that at least one innocent person alerts,
sandwich bounds derived from the per-person tail bounds, the critical
population scale at which false alerts become expected, and a sharpness scan
of the population-size phase transition.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, expm1, log1p, pi, sqrt

from .errors import DomainError, RangeOverflowError
from .tails import chernoff_upper, poisson_tail, rate_function, robbins_lower, threshold_for_ratio

__all__ = [
    "ScreeningConfig",
    "SystemRisk",
    "CriticalPopulation",
    "PhaseScanPoint",
    "system_probability",
    "system_risk",
    "critical_population",
    "phase_scan",
]

# phase_scan refuses populations beyond this; float formulas stay sound
# below it, and anything larger signals a runaway exponent upstream.
PHASE_SCAN_MAX_POPULATION = 1e30


@dataclass(frozen=True)
class ScreeningConfig:
    """Parameters of one screening deployment.

    Exactly one of `m` (integer alert threshold) or `c` (threshold-to-mean
    ratio, converted by `threshold_for_ratio(k * p, c)`) must be given.

    Attributes:
        k: Attributes checked per person (positive integer).
        p: Per-attribute match probability, strictly inside (0, 1).
        n: Screened population size (positive integer).
        m: Alert threshold (optional, positive integer).
        c: Threshold ratio (optional, > 1).
    """

    k: int
    p: float
    n: int
    m: int | None = None
    c: float | None = None

    def __post_init__(self) -> None:
        if self.k < 1 or self.k != int(self.k):
            raise DomainError(f"k must be a positive integer, got {self.k}")
        if not (0.0 < self.p < 1.0):
            raise DomainError(f"p must lie strictly in (0, 1), got {self.p}")
        if self.n < 1 or self.n != int(self.n):
            raise DomainError(f"n must be a positive integer, got {self.n}")
        if (self.m is None) == (self.c is None):
            raise DomainError("exactly one of m or c must be provided")
        if self.m is not None and (self.m < 1 or self.m != int(self.m)):
            raise DomainError(f"m must be a positive integer, got {self.m}")
        if self.c is not None and not (self.c > 1.0):
            raise DomainError(f"c must exceed 1, got {self.c}")

    @property
    def lam(self) -> float:
        """Per-person mean match count k * p."""
        return self.k * self.p

    @property
    def threshold(self) -> int:
        """Resolved integer alert threshold."""
        if self.m is not None:
            return self.m
        return threshold_for_ratio(self.lam, self.c)


@dataclass(frozen=True)
class SystemRisk:
    """System-level false-alert summary for one configuration.

    `log_complement` is n * ln(1 - q), always finite and informative even
    when `prob_at_least_one` saturates to 1.0 in double precision.
    """

    per_person_q: float
    expected_false_alerts: float
    prob_at_least_one: float
    lower_bound: float
    upper_bound: float
    log_complement: float


@dataclass(frozen=True)
class CriticalPopulation:
    """Population scales at which false alerts become near-certain.

    Attributes:
        refined: sqrt(2 pi c lam) * exp(lam D(c) + 1/(12 c lam)), the
            Stirling-matched reciprocal of the tail lower bound.
        sqrt_lambda_scale: sqrt(lam) * exp(lam D(c)), the headline scale.
        rough_scale: exp(lam D(c)) alone.
        exponent: lam * D(c).
    """

    refined: float
    sqrt_lambda_scale: float
    rough_scale: float
    exponent: float


@dataclass(frozen=True)
class PhaseScanPoint:
    """One row of a population phase-transition scan."""

    lam: float
    n: int
    m: int
    q: float
    prob: float
    lower: float
    upper: float


def system_probability(q: float, n: int) -> tuple[float, float]:
    """(Pr(at least one alert), n * ln(1 - q)) for n independent chances of q.

    1 - (1 - q)^n is evaluated as -expm1(n * log1p(-q)), which stays exact
    for tiny q and overflow-safe for n up to 1e12 and beyond.
    """
    if q >= 1.0:
        return 1.0, float("-inf")
    log_comp = n * log1p(-q)
    return -expm1(log_comp), log_comp


def _risk(lam: float, m: int, n: int) -> SystemRisk:
    """Exact risk and sandwich bounds for n people at mean lam, threshold m."""
    q = poisson_tail(lam, m)
    prob, log_comp = system_probability(q, n)
    if m > lam:
        lower = -expm1(-n * robbins_lower(lam, m / lam))
        q_up = chernoff_upper(lam, m)
        upper = 1.0 if q_up >= 1.0 else min(1.0, -expm1(-n * q_up / (1.0 - q_up)))
    else:
        lower, upper = 0.0, 1.0
    return SystemRisk(
        per_person_q=q,
        expected_false_alerts=n * q,
        prob_at_least_one=prob,
        lower_bound=lower,
        upper_bound=upper,
        log_complement=log_comp,
    )


def system_risk(config: ScreeningConfig) -> SystemRisk:
    """Exact system false-alert probability with sandwich bounds.

    The exact value is 1 - (1 - q)^n from `system_probability`. Bounds pair
    the per-person tail bounds with 1 - e^{-nq} on the lower side and
    1 - e^{-n q/(1-q)} on the upper side; when the threshold does not exceed
    the mean (no large-deviation regime) the bounds degrade to the trivial
    [0, 1].
    """
    return _risk(config.lam, config.threshold, config.n)


def critical_population(lam: float, c: float) -> CriticalPopulation:
    """Critical population scales for a tail operating point (lam, c > 1)."""
    if not (lam > 0.0):
        raise DomainError(f"lam must be positive, got {lam}")
    if not (c > 1.0):
        raise DomainError(f"critical population needs c > 1, got {c}")
    exponent = lam * rate_function(c)
    growth = exp(exponent)
    return CriticalPopulation(
        refined=sqrt(2.0 * pi * c * lam) * exp(exponent + 1.0 / (12.0 * c * lam)),
        sqrt_lambda_scale=sqrt(lam) * growth,
        rough_scale=growth,
        exponent=exponent,
    )


def phase_scan(
    lambda_values: list[float] | tuple[float, ...],
    c: float,
    alpha: float,
) -> list[PhaseScanPoint]:
    """Scan the population phase transition at exponent fraction alpha.

    For each lam, the population is set to n = round(sqrt(lam) *
    exp(alpha * lam * D(c))) (clamped to >= 1) and the system false-alert
    probability is computed exactly. alpha < 1 keeps n subcritical; alpha > 1
    pushes it supercritical; the transition sharpens as lam grows.

    Raises:
        RangeOverflowError: If any implied n exceeds 1e30.
        DomainError: If c <= 1, alpha <= 0, or any lam <= 0.
    """
    if not (c > 1.0):
        raise DomainError(f"phase scan needs c > 1, got {c}")
    if not (alpha > 0.0):
        raise DomainError(f"alpha must be positive, got {alpha}")
    points: list[PhaseScanPoint] = []
    for lam in lambda_values:
        if not (lam > 0.0):
            raise DomainError(f"lam values must be positive, got {lam}")
        exponent = alpha * lam * rate_function(c)
        if exponent > 706.0:
            raise RangeOverflowError(
                f"population exp({exponent:.1f}) overflows at lam={lam}, "
                f"alpha={alpha}"
            )
        n_real = sqrt(lam) * exp(exponent)
        if n_real > PHASE_SCAN_MAX_POPULATION:
            raise RangeOverflowError(
                f"population {n_real:.3e} exceeds supported range "
                f"{PHASE_SCAN_MAX_POPULATION:.0e} at lam={lam}, alpha={alpha}"
            )
        n = max(1, round(n_real))
        m = threshold_for_ratio(lam, c)
        risk = _risk(lam, m, n)
        points.append(
            PhaseScanPoint(
                lam=lam,
                n=n,
                m=m,
                q=risk.per_person_q,
                prob=risk.prob_at_least_one,
                lower=risk.lower_bound,
                upper=risk.upper_bound,
            )
        )
    return points
