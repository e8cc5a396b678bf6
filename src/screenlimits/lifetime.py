"""Finite lifetime of a screening criterion under attribute growth.

The per-person mean match count grows geometrically, lam(t) = k0 * p *
gamma^t, as the attribute space expands. A fixed alert threshold m therefore
has a finite useful life: the analytic horizon T* where lam(T*) = m, and an
earlier population-corrected horizon where the expected number of innocent
alerts n * q(t) first reaches a criterion level (default 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log, sqrt

from .errors import AlreadyUnreliableError, BracketError, DomainError
from .system import system_probability
from .tails import poisson_tail

__all__ = [
    "GrowthModel",
    "LifetimeReport",
    "GrowthPoint",
    "lambda_at",
    "critical_time_analytic",
    "critical_time_corrected",
    "unreliability_series",
]

# Search bracket extends this many e-foldings of lam past the analytic
# horizon; the tail saturates to 1 well inside it.
_BRACKET_EFOLDS = 10.0

_BISECT_TOL = 1e-9
_MAX_BISECT_ITER = 200


@dataclass(frozen=True, slots=True)
class GrowthModel:
    """Geometric attribute-growth model lam(t) = k0 * p * gamma^t.

    Attributes:
        k0: Initial attribute count (>= 1).
        gamma: Growth factor per time unit (> 1).
        p: Per-attribute match probability in (0, 1).
    """

    k0: float
    gamma: float
    p: float

    def __post_init__(self) -> None:
        if not (self.k0 >= 1.0):
            raise DomainError(f"k0 must be >= 1, got {self.k0}")
        if not (self.gamma > 1.0):
            raise DomainError(f"gamma must exceed 1, got {self.gamma}")
        if not (0.0 < self.p < 1.0):
            raise DomainError(f"p must lie strictly in (0, 1), got {self.p}")


@dataclass(frozen=True, slots=True)
class LifetimeReport:
    """Lifetimes of one (model, m, n) configuration.

    Attributes:
        t_star_analytic: Time at which lam(t) = m (0 if already past).
        t_star_corrected: Root of n * q(t) = criterion_level.
        lambda_at_failure: lam at the corrected time.
        correction_magnitude: t_star_analytic - t_star_corrected.
        closed_form_lambda: The rough target m - sqrt(2 m ln n), reported
            for comparison only; never used as the answer.
        criterion_level: The level the root solves for.
    """

    t_star_analytic: float
    t_star_corrected: float
    lambda_at_failure: float
    correction_magnitude: float
    closed_form_lambda: float
    criterion_level: float


@dataclass(frozen=True, slots=True)
class GrowthPoint:
    """One time-series row: (t, lam, q, expected alerts, system prob)."""

    t: float
    lam: float
    q: float
    expected: float
    prob: float


def lambda_at(model: GrowthModel, t: float) -> float:
    """Mean match count at time t, with an explicit overflow guard."""
    if t < 0.0:
        raise DomainError(f"t must be nonnegative, got {t}")
    exponent = log(model.k0 * model.p) + t * log(model.gamma)
    if exponent > 700.0:
        raise DomainError(
            f"lam(t) overflows double precision at t={t} "
            f"(exponent {exponent:.1f})"
        )
    return exp(exponent)


def critical_time_analytic(model: GrowthModel, m: int) -> float:
    """Time T* at which lam(t) reaches m; 0.0 if m <= lam(0) already."""
    if m < 1 or m != int(m):
        raise DomainError(f"m must be a positive integer, got {m}")
    lam0 = model.k0 * model.p
    if m <= lam0:
        return 0.0
    return log(m / lam0) / log(model.gamma)


def critical_time_corrected(
    model: GrowthModel,
    m: int,
    n: int,
    criterion_level: float = 1.0,
) -> LifetimeReport:
    """Population-corrected lifetime: root of n * q(t) = criterion_level.

    Bisects n * Pr(Pois(lam(t)) >= m) - criterion_level over
    [0, T* + 10/ln gamma] to 1e-9 absolute tolerance in t. The monotone
    increase of q in t makes plain bisection reliable.

    Raises:
        AlreadyUnreliableError: If n * q(0) >= criterion_level (failed at
            t = 0; nothing to bracket).
        BracketError: If the criterion level is unreachable inside the
            bracket (e.g. level > n).
    """
    if m < 1 or m != int(m):
        raise DomainError(f"m must be a positive integer, got {m}")
    if n < 1 or n != int(n):
        raise DomainError(f"n must be a positive integer, got {n}")
    if not (criterion_level > 0.0):
        raise DomainError(
            f"criterion_level must be positive, got {criterion_level}"
        )
    lam0 = model.k0 * model.p
    if not (m > lam0):
        raise DomainError(
            f"threshold m={m} must exceed the initial mean {lam0}"
        )

    def excess(t: float) -> float:
        return n * poisson_tail(lambda_at(model, t), m) - criterion_level

    if excess(0.0) >= 0.0:
        raise AlreadyUnreliableError(
            f"n*q already reaches {criterion_level} at t=0; the system is "
            "unreliable at deployment"
        )
    t_analytic = critical_time_analytic(model, m)
    t_hi = t_analytic + _BRACKET_EFOLDS / log(model.gamma)
    if excess(t_hi) < 0.0:
        raise BracketError(
            f"criterion level {criterion_level} unreachable inside "
            f"[0, {t_hi:.3f}]"
        )
    lo, hi = 0.0, t_hi
    for _ in range(_MAX_BISECT_ITER):
        if hi - lo <= _BISECT_TOL:
            break
        mid = 0.5 * (lo + hi)
        if excess(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    t_root = 0.5 * (lo + hi)
    lam_fail = lambda_at(model, t_root)
    return LifetimeReport(
        t_star_analytic=t_analytic,
        t_star_corrected=t_root,
        lambda_at_failure=lam_fail,
        correction_magnitude=t_analytic - t_root,
        closed_form_lambda=m - sqrt(2.0 * m * log(n)),
        criterion_level=criterion_level,
    )


def unreliability_series(
    model: GrowthModel,
    m: int,
    n: int,
    times: list[float] | tuple[float, ...],
) -> list[GrowthPoint]:
    """Time series of (lam, q, n*q, system prob) rows along `times`."""
    if m < 1 or m != int(m):
        raise DomainError(f"m must be a positive integer, got {m}")
    if n < 1 or n != int(n):
        raise DomainError(f"n must be a positive integer, got {n}")
    rows = []
    for t in times:
        lam = lambda_at(model, t)
        q = poisson_tail(lam, m)
        prob, _ = system_probability(q, n)
        rows.append(GrowthPoint(t=t, lam=lam, q=q, expected=n * q, prob=prob))
    return rows
