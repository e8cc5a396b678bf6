"""Upper-tail probabilities and closed-form bounds for rare-alert counts.

Core quantities for a screening test that flags an individual when a count
statistic reaches a threshold m:

* the Poisson rate function D(c) = c ln c - c + 1, governing tails of
  Pr(Pois(lambda) >= c*lambda),
* exact Poisson and binomial upper tails,
* a Chernoff upper bound exp(-lambda * D(m/lambda)) and a Robbins-Stirling
  lower bound that sandwich the exact tail in the c > 1 regime,
* the hypergeometric probability that a random s-subset hits a fixed t-subset
  (list-overlap false match), in min(s, t) steps.

Everything here is scalar math on floats; no arrays, no state.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, exp, expm1, fsum, inf, isfinite, lgamma, log, log1p, pi, sqrt
from sys import float_info

from scipy.special import gammainc

from .errors import (
    BudgetError, DomainError, RangeOverflowError, as_float, check_int, check_positive, check_unit,
)

__all__ = [
    "TailEstimate",
    "OverlapInput",
    "rate_function",
    "poisson_tail",
    "log_poisson_tail",
    "binomial_tail",
    "chernoff_upper",
    "robbins_lower",
    "tail_estimate",
    "overlap_probability",
    "threshold_for_ratio",
]

# Relative truncation target for the log-space tail series.
_SERIES_RTOL = 1e-18

# Most terms a tail series may sum before the kernel gives up with a
# BudgetError: ~1-2 s of interpreter time. The log-space Poisson series at
# lam = 1e12, m = lam + 1 needs 7.4e6 terms; the exact binomial sum needs
# k - m + 1 terms; the overlap product min(s, t).
_MAX_TERMS = 10**7


@dataclass(frozen=True, slots=True)
class TailEstimate:
    """Exact upper tail with its sandwich bounds at an integer threshold.

    Attributes:
        exact: Pr(Pois(lam) >= m).
        chernoff_upper: exp(-lam * D(m/lam)), always >= exact.
        robbins_lower: Stirling-corrected lower bound, always <= exact.
        log_exact: ln of the exact tail, finite even when `exact`
            underflows to zero in double precision.
        exponent: lam * D(m/lam).
    """

    exact: float
    chernoff_upper: float
    robbins_lower: float
    log_exact: float
    exponent: float


@dataclass(frozen=True, slots=True)
class OverlapInput:
    """Sizes for the random-list overlap probability.

    Attributes:
        domain_size: Number of distinct items V in the universe.
        person_items: Size t of the fixed (personal) list.
        suspicious_items: Size s of the randomly chosen list.
    """

    domain_size: int
    person_items: int
    suspicious_items: int

    def __post_init__(self) -> None:
        v = self.domain_size
        check_int("domain_size", v, 1)
        check_int("person_items", self.person_items, 0, v)
        check_int("suspicious_items", self.suspicious_items, 0, v)


def rate_function(c: float) -> float:
    """Poisson rate function D(c) = c ln c - c + 1.

    Strictly convex, zero only at c = 1, with D'(c) = ln c. Governs the
    exponential decay rate of Pr(Pois(lam) >= c*lam) for c > 1.

    Args:
        c: Positive ratio of threshold to mean; inf gives the limit inf.

    Raises:
        DomainError: If c <= 0.
    """
    check_positive("c", c)
    # at c = inf, c ln c - c would read inf - inf
    return inf if c == inf else c * log(c) - c + 1.0


def poisson_tail(lam: float, m: int) -> float:
    """Exact Pr(Pois(lam) >= m) via the regularized lower incomplete gamma.

    Uses the identity Pr(Pois(lam) >= m) = P(m, lam), evaluated by the
    series / continued-fraction split inside scipy's gammainc. Relative
    accuracy is ~1e-13 over lam <= 1e4, m <= 1e5.

    Below the smallest normal double gammainc flushes to 0.0 (3.07e-312 at
    lam=377.72, m=1323). While lam * D(m/lam) < 746 leaves room for a nonzero
    double, the result there is exp(log_poisson_tail(lam, m)); that series
    takes ~1 s at lam = 1e14 and past it can raise BudgetError.

    Args:
        lam: Mean of the Poisson distribution (> 0).
        m: Integer threshold (>= 0).
    """
    check_positive("lam", lam)
    check_int("threshold m", m, 0)
    if m == 0:
        return 1.0
    q = float(gammainc(as_float("threshold m", m), lam))
    if q < float_info.min and lam * rate_function(m / lam) < 746.0:
        return exp(log_poisson_tail(lam, m))
    return q


def log_poisson_tail(lam: float, m: int) -> float:
    """ln Pr(Pois(lam) >= m), finite far past double-precision underflow.

    For m > lam the tail series e^-lam lam^j / j! (j >= m) has decreasing
    terms with geometric ratio < lam/m, so the sum is evaluated in log space
    anchored at the first term. Otherwise the tail is order one and plain
    log(poisson_tail(...)) is exact enough.

    Raises:
        BudgetError: If the series has not converged after _MAX_TERMS terms,
            which happens only when m - lam is small against a huge lam.
    """
    check_positive("lam", lam)
    check_int("threshold m", m, 0)
    if m == 0:
        return 0.0
    if m <= lam:
        # Tail is order one here; underflow impossible.
        return log(float(gammainc(m, lam)))
    # m > lam: series in log space, one code path at any depth.
    log_first = -lam + as_float("threshold m", m) * log(lam) - lgamma(m + 1.0)
    total = 1.0
    term = 1.0
    for j in range(m + 1, m + 1 + _MAX_TERMS):
        term *= lam / j
        total += term
        if term < _SERIES_RTOL * total:
            break
    else:
        raise BudgetError(
            f"tail series at lam={lam:g}, m={m} has not converged after {_MAX_TERMS:g} terms"
        )
    return log_first + log(total)


def binomial_tail(k: int, p: float, m: int) -> float:
    """Exact Pr(Bin(k, p) >= m) by stable compensated summation.

    Terms are evaluated in log space through lgamma and accumulated with
    fsum, so the result stays accurate deep in the tail: the measured
    relative error is 3.8e-10 at (k, p, m) = (1e6, 5e-6, 3), set by rounding
    in the lgamma values of size ~1e7 whose differences form each term.
    Serves as the exact reference the Poisson approximation is checked
    against.

    Args:
        k: Number of trials (>= 0).
        p: Success probability in [0, 1].
        m: Threshold; m > k gives 0, m <= 0 gives 1.

    Raises:
        RangeOverflowError: If k exceeds the double range.
        BudgetError: If the sum has more than _MAX_TERMS terms (k - m + 1).
    """
    check_int("k", k, 0)
    check_unit("p", p, "[0, 1]")
    check_int("threshold m", m)
    if m <= 0:
        return 1.0
    if m > k:
        return 0.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    log_choose = lgamma(as_float("k", k) + 1.0)
    if k - m + 1 > _MAX_TERMS:
        raise BudgetError(
            f"binomial tail at k={k:g}, m={m:g} sums {k - m + 1:g} terms, more than {_MAX_TERMS:g}"
        )
    log_p = log(p)
    log_q = log1p(-p)
    # fsum is correctly rounded, so a generator gives the bytes a list would
    terms = (
        exp(log_choose - lgamma(j + 1.0) - lgamma(k - j + 1.0) + j * log_p + (k - j) * log_q)
        for j in range(m, k + 1)
    )
    return min(1.0, fsum(terms))


def chernoff_upper(lam: float, m: float) -> float:
    """Chernoff bound exp(-lam * D(m/lam)) on Pr(Pois(lam) >= m), m > lam."""
    check_positive("lam", lam)
    if not (m > lam):
        raise DomainError(f"Chernoff bound needs m > lam, got m={m}, lam={lam}")
    return min(1.0, exp(-lam * rate_function(m / lam)))


def robbins_lower(lam: float, c: float) -> float:
    """Robbins-Stirling lower bound on the upper tail at threshold c*lam.

    (2 pi c lam)^(-1/2) * exp(-lam D(c) - 1/(12 c lam)); a guaranteed lower
    bound on Pr(Pois(lam) >= m) when evaluated at c = m/lam for integer
    m > lam, since it lower-bounds the single pmf term at m.

    Args:
        lam: Poisson mean (> 0).
        c: Threshold ratio (> 1).
    """
    check_positive("lam", lam)
    if not (c > 1.0):
        raise DomainError(f"Robbins bound needs c > 1, got {c}")
    m = c * lam
    return exp(-lam * rate_function(c) - 1.0 / (12.0 * m)) / sqrt(2.0 * pi * m)


def tail_estimate(lam: float, m: int) -> TailEstimate:
    """Exact tail plus both sandwich bounds at an integer threshold m > lam.

    The bounds need the ratio c = m / lam to exceed 1 in double precision,
    which m = lam + 1 does not once lam passes ~9e15.

    Raises:
        RangeOverflowError: If c = m / lam, and so lam D(c), overflows a double.
    """
    check_positive("lam", lam)
    check_int("threshold m", m, 0)
    c = as_float("threshold m", m) / lam
    if not (c > 1.0):
        raise DomainError(
            f"sandwich bounds exist only for m / lam > 1, got m={m}, lam={lam}"
        )
    if c == inf:
        raise RangeOverflowError(f"ratio c = m / lam overflows a double: m={m}, lam={lam}")
    return TailEstimate(
        exact=poisson_tail(lam, m),
        chernoff_upper=chernoff_upper(lam, m),
        robbins_lower=robbins_lower(lam, c),
        log_exact=log_poisson_tail(lam, m),
        exponent=lam * rate_function(c),
    )


def overlap_probability(inp: OverlapInput) -> float:
    """Probability a uniformly random s-subset intersects a fixed t-subset.

    Complement of the hypergeometric zero-intersection term
    C(V-t, s) / C(V, s) = C(V-s, t) / C(V, t), so the product
    1 - prod_{l=0}^{min(s,t)-1} (1 - max(s, t) / (V - l)) runs over the
    shorter list, accumulated in log space. Returns exactly 1.0 when
    s > V - t (pigeonhole) and 0.0 when either list is empty.

    Raises:
        BudgetError: If min(s, t) exceeds _MAX_TERMS, before any term.
    """
    v, t, s = inp.domain_size, inp.person_items, inp.suspicious_items
    if t == 0 or s == 0:
        return 0.0
    if s > v - t:
        return 1.0
    short, long = min(s, t), max(s, t)
    if short > _MAX_TERMS:
        raise BudgetError(
            f"overlap product at s={s}, t={t} has {short} terms, more than {_MAX_TERMS:g}"
        )
    log_miss = 0.0
    for el in range(short):
        log_miss += log1p(-long / (v - el))
    return -expm1(log_miss)


def threshold_for_ratio(lam: float, c: float) -> int:
    """Integer threshold m = ceil(c * lam) >= 1, robust to float fuzz at integers.

    Raises:
        DomainError: If lam or c is not positive.
        RangeOverflowError: If c * lam overflows a double.
    """
    check_positive("lam", lam)
    check_positive("c", c)
    target = c * lam
    if not isfinite(target):
        raise RangeOverflowError(f"threshold c*lam overflows a double: lam={lam}, c={c}")
    # the fuzz guard keeps a product landing on an integer from rounding up;
    # it must not take a product of at most 1e-9 down to 0, since c, lam > 0
    return max(1, int(ceil(target - 1e-9)))

