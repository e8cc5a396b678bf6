"""Population-level false-alert risk for a screening deployment.

A deployment screens n independent innocent individuals, each of whom trips
the per-person test with probability q = Pr(Pois(lam) >= m). `population_risk`
is the one builder of that record: q, the expected false alerts n * q, the
exact probability that at least one innocent person alerts, and sandwich
bounds derived from the per-person tail bounds. Configurations, phase scans
and lifetime series all report through it. The module also gives the critical
population scale at which false alerts become expected.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, expm1, inf, isfinite, log1p, sqrt

from .errors import DomainError, RangeOverflowError, as_float, check_int, check_positive, check_unit
from .tails import _sandwich, poisson_tail, rate_function, threshold_for_ratio

__all__ = [
    "ScreeningConfig",
    "SystemRisk",
    "system_probability",
    "population_risk",
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
        check_int("k", self.k, 1)
        check_unit("p", self.p)
        check_int("n", self.n, 1)
        if (self.m is None) == (self.c is None):
            raise DomainError("exactly one of m or c must be provided")
        if self.m is not None:
            check_int("m", self.m, 1)
        if self.c is not None and not (self.c > 1.0):
            raise DomainError(f"c must exceed 1, got {self.c}")

    @property
    def lam(self) -> float:
        """Per-person mean match count k * p."""
        return as_float("k", self.k) * self.p

    @property
    def threshold(self) -> int:
        """Resolved integer alert threshold."""
        if self.m is not None:
            return self.m
        return threshold_for_ratio(self.lam, self.c)


@dataclass(frozen=True)
class SystemRisk:
    """False-alert summary for n people at mean lam and threshold m.

    Fields are named as the output columns: q is the per-person tail,
    expected is n * q, prob is 1 - (1 - q)^n within [lower, upper].
    `log_complement` is n * ln(1 - q), informative where `prob` saturates
    to 1.0, but -inf wherever q rounds to 1.0 (lam = 50, m = 1, n = 1000
    gives -inf, not -50,000).
    """

    lam: float
    m: int
    n: int
    q: float
    expected: float
    prob: float
    lower: float
    upper: float
    log_complement: float


def system_probability(q: float, n: int) -> tuple[float, float]:
    """(Pr(at least one alert), n * ln(1 - q)) for n independent chances of q.

    1 - (1 - q)^n is evaluated as -expm1(n * log1p(-q)), which stays exact
    for tiny q and overflow-safe for n up to 1e12 and beyond.
    """
    check_int("n", n, 0)
    size = as_float("n", n)
    if q >= 1.0:
        # (1 - q)^0 is 1 even at q = 1
        return (1.0, float("-inf")) if size else (0.0, 0.0)
    log_comp = size * log1p(-q)
    # + 0.0 writes the log complement of q = 0 as 0.0, not -0.0
    return -expm1(log_comp), log_comp + 0.0


def population_risk(lam: float, m: int, n: int) -> SystemRisk:
    """Exact risk and sandwich bounds for n people at mean lam, threshold m.

    The exact value is 1 - (1 - q)^n from `system_probability`. Bounds pair
    the per-person tail bounds with 1 - e^{-nq} on the lower side and
    1 - e^{-n q/(1-q)} on the upper side. They exist for any integer m > lam;
    at or below the mean they are the trivial [0, 1].
    """
    q = poisson_tail(lam, m)
    prob, log_comp = system_probability(q, n)
    lower, upper = 0.0, 1.0
    if m > lam:
        q_low, q_up, _ = _sandwich(lam, m)
        lower = -expm1(-n * q_low)
        upper = -expm1(-n * q_up / (1.0 - q_up)) if q_up < 1.0 else 1.0
    return SystemRisk(
        lam=lam,
        m=m,
        n=n,
        q=q,
        expected=n * q,
        prob=prob,
        lower=lower,
        upper=upper,
        log_complement=log_comp,
    )


def system_risk(config: ScreeningConfig) -> SystemRisk:
    """`population_risk` of one deployment configuration."""
    return population_risk(config.lam, config.threshold, config.n)


def _critical_scale(lam: float, exponent: float) -> float:
    """The critical population scale sqrt(lam) e^exponent.

    Raises:
        RangeOverflowError: If the scale overflows a double.
    """
    # exp raises past ~709.8 but passes an infinite exponent through as inf
    try:
        scale = sqrt(lam) * exp(exponent)
    except OverflowError:
        scale = inf
    if not isfinite(scale):
        raise RangeOverflowError(
            f"critical population sqrt(lam) e^E overflows a double at lam={lam:g}, E={exponent:g}"
        )
    return scale


def critical_population(lam: float, c: float) -> float:
    """Critical population scale sqrt(lam) * exp(lam D(c)) at (lam, c > 1).

    Raises:
        RangeOverflowError: If the scale overflows a double.
    """
    check_positive("lam", lam)
    if not (c > 1.0):
        raise DomainError(f"critical population needs c > 1, got {c}")
    return _critical_scale(lam, lam * rate_function(c))


def phase_scan(
    lambda_values: list[float] | tuple[float, ...],
    c: float,
    alpha: float,
) -> list[SystemRisk]:
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
    check_positive("alpha", alpha)
    points: list[SystemRisk] = []
    for lam in lambda_values:
        check_positive("lam values", lam)
        n_real = _critical_scale(lam, alpha * lam * rate_function(c))
        if n_real > PHASE_SCAN_MAX_POPULATION:
            raise RangeOverflowError(
                f"population {n_real:.3e} exceeds supported range "
                f"{PHASE_SCAN_MAX_POPULATION:.0e} at lam={lam}, alpha={alpha}"
            )
        n = max(1, round(n_real))
        points.append(population_risk(lam, threshold_for_ratio(lam, c), n))
    return points
