"""Correlation-adjusted effective dimensionality and heuristic limits.

When the k per-person attributes are positively correlated, the variance of
the match count inflates by a design effect and the information content drops
to an effective number of independent attributes k_eff < k. All adjusted
limits derived from k_eff are heuristic indications, not guaranteed bounds:
the exponential forms are exact only for independent attributes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, inf, isfinite, pi, sqrt

from .errors import BudgetError, DomainError, RangeOverflowError
from .tails import _MAX_TERMS, rate_function

__all__ = [
    "SpatialCorrelation",
    "TemporalCorrelation",
    "CorrelationAdjusted",
    "design_effect",
    "variance_with_design_effect",
    "k_eff_from_design_effect",
    "k_eff_spatial",
    "k_eff_temporal",
    "k_eff_temporal_geometric",
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
        if not (self.area > 0.0):
            raise DomainError(f"area must be positive, got {self.area}")
        if not (self.xi > 0.0):
            raise DomainError(f"xi must be positive, got {self.xi}")


@dataclass(frozen=True)
class TemporalCorrelation:
    """k serial observations with either exponential decay time tau or an
    explicit autocorrelation sequence rho[h-1] = rho(h) for h = 1..k-1."""

    k: int
    tau: float | None = None
    rho: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.k < 1 or self.k != int(self.k):
            raise DomainError(f"k must be a positive integer, got {self.k}")
        if (self.tau is None) == (self.rho is None):
            raise DomainError("exactly one of tau or rho must be provided")
        if self.tau is not None and not (self.tau > 0.0):
            raise DomainError(f"tau must be positive, got {self.tau}")
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
    adjusted_tail_lower: float
    adjusted_n_crit: float


def design_effect(rho_row_sums: list[float] | tuple[float, ...], k: int) -> float:
    """DEFF = sum of off-diagonal correlations divided by k."""
    if k < 1 or k != int(k):
        raise DomainError(f"k must be a positive integer, got {k}")
    if len(rho_row_sums) != k:
        raise DomainError(f"need one row sum per observation, got {len(rho_row_sums)} for k={k}")
    return sum(rho_row_sums) / k


def variance_with_design_effect(k: int, p: float, deff: float) -> float:
    """Var(Y) = k p (1-p) (1 + DEFF) for the correlated match count."""
    if not (0.0 < p < 1.0):
        raise DomainError(f"p must lie strictly in (0, 1), got {p}")
    return k * p * (1.0 - p) * (1.0 + deff)


def k_eff_from_design_effect(k: int, deff: float) -> float:
    """Variance-matched effective sample size k / (1 + DEFF).

    Nonnegative DEFF (nonnegative average correlation) implies k_eff <= k.
    """
    if deff <= -1.0:
        raise DomainError(f"DEFF must exceed -1, got {deff}")
    return k / (1.0 + deff)


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

    With tau given, rho(h) = exp(-h/tau). It only falls with h, so the sum
    stops at the first lag where it underflows to 0.0, found by bisection:
    every later term is exactly 0.0 as well. Returns k unreduced if the
    denominator does not exceed 1 (net negative correlation).

    Raises:
        BudgetError: If the tau sum has more than tails._MAX_TERMS nonzero
            terms.
    """
    k = corr.k
    stop = k
    if corr.tau is not None:
        tau = corr.tau
        rho = lambda h: exp(-h / tau)  # noqa: E731
        # invariant: rho(lo) > 0, and rho(stop) == 0.0 or stop == k
        lo = 0
        while stop - lo > 1:
            mid = (lo + stop) // 2
            if rho(mid) == 0.0:
                stop = mid
            else:
                lo = mid
        if stop - 1 > _MAX_TERMS:
            raise BudgetError(
                f"temporal sum at k={k:g}, tau={tau:g} has more than {_MAX_TERMS:g} nonzero terms"
            )
    else:
        seq = corr.rho
        rho = lambda h: seq[h - 1]  # noqa: E731
    denom = 1.0 + 2.0 * sum(rho(h) * (1.0 - h / k) for h in range(1, stop))
    if denom <= 1.0:
        return float(k)
    return k / denom


def k_eff_temporal_geometric(k: int, tau: float) -> float:
    """Closed geometric-sum form k (1 - e^{-1/tau}) / (1 + e^{-1/tau})."""
    if k < 1 or not (tau > 0.0):
        raise DomainError(f"need k >= 1 and tau > 0, got k={k}, tau={tau}")
    r = exp(-1.0 / tau)
    return k * (1.0 - r) / (1.0 + r)


def k_eff_temporal_rough(k: int, tau: float) -> float:
    """Long-memory shorthand k / (2 tau)."""
    if k < 1 or not (tau > 0.0):
        raise DomainError(f"need k >= 1 and tau > 0, got k={k}, tau={tau}")
    return k / (2.0 * tau)


def adjusted_limits(k: int, p: float, c: float, k_eff: float) -> CorrelationAdjusted:
    """Heuristic tail and critical-population limits at dimension k_eff.

    adjusted_exponent = k_eff * p * D(c); the tail indication is
    exp(-exponent) and the critical population indication is
    sqrt(k p) * exp(exponent). All three are labeled heuristic wherever
    they are emitted.

    Raises:
        DomainError: If k_eff > k (negative net correlation would be needed
            to gain dimensions; not supported here).
        RangeOverflowError: If the critical population overflows a double.
    """
    if k < 1 or k != int(k):
        raise DomainError(f"k must be a positive integer, got {k}")
    if not (0.0 < p < 1.0):
        raise DomainError(f"p must lie strictly in (0, 1), got {p}")
    if not (c > 1.0):
        raise DomainError(f"c must exceed 1, got {c}")
    if not (0.0 < k_eff <= k):
        raise DomainError(
            f"k_eff must lie in (0, k]; got k_eff={k_eff} for k={k} "
            "(nonnegative-correlation reductions only)"
        )
    exponent = k_eff * p * rate_function(c)
    # exp raises past ~709.8 but passes an infinite exponent through as inf
    try:
        n_crit = sqrt(k * p) * exp(exponent)
    except OverflowError:
        n_crit = inf
    if not isfinite(n_crit):
        raise RangeOverflowError(
            f"critical population sqrt(k p) e^E overflows a double at exponent "
            f"E = k_eff p D(c) = {exponent:g}"
        )
    return CorrelationAdjusted(
        k_eff=k_eff,
        reduction_factor=k_eff / k,
        adjusted_exponent=exponent,
        adjusted_tail_lower=exp(-exponent),
        adjusted_n_crit=n_crit,
    )
