"""Correlation-adjusted effective dimensionality and heuristic limits.

When the k per-person attributes are positively correlated, the variance of
the match count inflates by a design effect and the information content drops
to an effective number of independent attributes k_eff < k. k_eff comes from
a spatial region (area over correlation patch), from a serial autocorrelation
(Bartlett-Wilks sum, or the long-memory shorthand k / (2 tau)), or is given
directly; `adjusted_limits` recomputes the tail exponent and the critical
population at it. All adjusted limits derived from k_eff are heuristic
indications, not guaranteed bounds: the exponential forms are exact only for
independent attributes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, expm1, factorial, pi

from .errors import DomainError, RangeOverflowError, as_float, check_int, check_positive, check_unit
from .system import _critical_scale
from .tails import rate_function

__all__ = [
    "SpatialCorrelation",
    "TemporalCorrelation",
    "CorrelationAdjusted",
    "k_eff_spatial",
    "k_eff_temporal",
    "k_eff_temporal_rough",
    "adjusted_limits",
]

# Every value computed from a k_eff is a heuristic indication; emitters
# label columns with this marker.
HEURISTIC_NOTE = "heuristic"


@dataclass(frozen=True, slots=True)
class SpatialCorrelation:
    """Region of area `area` with exponential correlation length `xi`."""

    area: float
    xi: float

    def __post_init__(self) -> None:
        check_positive("area", self.area)
        check_positive("xi", self.xi)


@dataclass(frozen=True)
class TemporalCorrelation:
    """k serial observations with either exponential decay time tau or an
    explicit autocorrelation sequence rho[h-1] = rho(h) for h = 1..k-1."""

    k: int
    tau: float | None = None
    rho: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        check_int("k", self.k, 1)
        if (self.tau is None) == (self.rho is None):
            raise DomainError("exactly one of tau or rho must be provided")
        if self.tau is not None:
            check_positive("tau", self.tau)
        if self.rho is not None:
            if len(self.rho) != self.k - 1:
                raise DomainError(
                    f"rho must have k-1={self.k - 1} entries, got {len(self.rho)}"
                )
            for h, r in enumerate(self.rho, start=1):
                if not (-1.0 <= r <= 1.0):
                    raise DomainError(f"rho({h})={r} outside [-1, 1]")


@dataclass(frozen=True, slots=True)
class CorrelationAdjusted:
    """Heuristic limits recomputed at effective dimension k_eff."""

    k_eff: float
    reduction_factor: float
    adjusted_exponent: float
    adjusted_n_crit: float


def k_eff_spatial(corr: SpatialCorrelation) -> float:
    """Spatial effective dimension A / (2 pi xi^2).

    Raises:
        RangeOverflowError: If xi^2 leaves the double range (overflows, or
            underflows to zero).
    """
    try:
        return corr.area / (2.0 * pi * corr.xi**2)
    except (OverflowError, ZeroDivisionError):
        raise RangeOverflowError(f"xi^2 leaves the double range: xi={corr.xi}") from None


def k_eff_temporal(corr: TemporalCorrelation) -> float:
    """Bartlett-Wilks effective sample size k / (1 + 2 sum rho(h)(1 - h/k)).

    With tau given, rho(h) = r^h, r = e^-a, a = 1/tau, and the lag sum is
    r (k g(k a) - g(a)) / (expm1(-a)/a)^2 (see _scaled_g for g), whose parts
    stay near 1/2 or 1/a at every k and tau. Returns k unreduced if the
    denominator does not exceed 1 (net negative correlation) or r is 0.0.

    Raises:
        RangeOverflowError: If k exceeds the double range.
    """
    k = corr.k
    size = as_float("k", k)
    if corr.tau is None:
        lags = sum(r * (1.0 - h / k) for h, r in enumerate(corr.rho, start=1))
    else:
        a = 1.0 / corr.tau
        r = exp(-a)
        if r == 0.0:
            return size
        lags = r * (_scaled_g(size, a) - _scaled_g(1.0, a)) / (expm1(-a) / a) ** 2
    denom = 1.0 + 2.0 * lags
    if denom <= 1.0:
        return size
    return size / denom


def _scaled_g(k: float, a: float) -> float:
    """k g(k a), g(x) = (x + expm1(-x)) / x^2: below x = 1/2 its series
    sum_n (-x)^n / (n + 2)! to n = 15, past which the rest is under 1e-19 of
    it, else (1 + expm1(-x)/x) / a, which neither a subnormal 1/x nor
    k a = inf spoils, as k (1 + expm1(-x)/x) / x would."""
    x = k * a
    if x < 0.5:
        return k * sum((-x) ** n / factorial(n + 2) for n in range(16))
    return (1.0 + expm1(-x) / x) * (1.0 / a)


def k_eff_temporal_rough(k: int, tau: float) -> float:
    """Long-memory shorthand k / (2 tau)."""
    check_int("k", k, 1)
    check_positive("tau", tau)
    return as_float("k", k) / (2.0 * tau)


def adjusted_limits(k: int, p: float, c: float, k_eff: float) -> CorrelationAdjusted:
    """Heuristic tail exponent and critical population at dimension k_eff.

    adjusted_exponent = k_eff * p * D(c) and the critical population
    indication is sqrt(k p) * exp(exponent). Both are labeled heuristic
    wherever they are emitted.

    Raises:
        DomainError: If k_eff > k (negative net correlation would be needed
            to gain dimensions; not supported here).
        RangeOverflowError: If the critical population overflows a double.
    """
    check_int("k", k, 1)
    check_unit("p", p)
    if not (c > 1.0):
        raise DomainError(f"c must exceed 1, got {c}")
    if not (0.0 < k_eff <= k):
        raise DomainError(
            f"k_eff must lie in (0, k]; got k_eff={k_eff} for k={k} "
            "(nonnegative-correlation reductions only)"
        )
    exponent = k_eff * p * rate_function(c)
    n_crit = _critical_scale(as_float("k", k) * p, exponent)
    return CorrelationAdjusted(
        k_eff=k_eff,
        reduction_factor=k_eff / k,
        adjusted_exponent=exponent,
        adjusted_n_crit=n_crit,
    )
