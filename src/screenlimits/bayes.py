"""Posterior reliability of an alert: PPV, FDR, and evidence regimes.

An alert carries very different weight depending on how many innocent people
can produce one. With r true positives in a population of n, per-person
detection power s, and innocent false-alert probability q:

    PPV = s*pi / (s*pi + q*(1 - pi)),   pi = r/n,

and in the sparse regime this is rs / (rs + nq): the expected count of true
alerts against the expected count of false ones. The classifier below names
the three regimes of nq relative to rs, which decide whether an alert is
evidence or noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite

from .errors import DomainError, RangeOverflowError, as_float, check_int, check_positive, check_unit

__all__ = [
    "BayesContext",
    "PosteriorSummary",
    "RegimeVerdict",
    "REGIME_EVIDENTIAL",
    "REGIME_TRANSITIONAL",
    "REGIME_COLLAPSED",
    "ppv",
    "sparse_ppv",
    "bayes_critical_population",
    "classify_regime",
]

REGIME_EVIDENTIAL = "evidential"
REGIME_TRANSITIONAL = "transitional"
REGIME_COLLAPSED = "collapsed"

# Decade cutoffs separating the regimes of nq relative to rs.
_EVIDENTIAL_CUT = 0.1
_COLLAPSED_CUT = 10.0


@dataclass(frozen=True, slots=True)
class BayesContext:
    """Inputs for posterior computations.

    Attributes:
        r: Expected number of true positives in the population (> 0).
        s: Detection power, Pr(alert | true positive), in (0, 1].
        alpha: Target PPV for critical-population sizing, in (0, 1).
        q: Innocent false-alert probability, in [0, 1].
        n: Population size (positive integer, >= r).
    """

    r: float
    s: float
    alpha: float
    q: float
    n: int

    def __post_init__(self) -> None:
        check_positive("r", self.r)
        check_unit("s", self.s, "(0, 1]")
        check_unit("alpha", self.alpha)
        check_unit("q", self.q, "[0, 1]")
        check_int("n", self.n, 1)
        if self.r > self.n:
            raise DomainError(f"r={self.r} cannot exceed n={self.n}")


@dataclass(frozen=True, slots=True)
class PosteriorSummary:
    """Exact posterior, its complement, and the sparse approximation."""

    ppv: float
    fdr: float
    sparse_ppv: float


@dataclass(frozen=True, slots=True)
class RegimeVerdict:
    """Evidence-regime classification of a context.

    frequentist_reliable means nq < 1: fewer than one innocent alert
    expected, so an alert is itself surprising.
    """

    nq: float
    rs: float
    regime: str
    frequentist_reliable: bool


def sparse_ppv(rs: float, nq: float) -> float:
    """Sparse-regime approximation rs / (rs + nq)."""
    if not (rs >= 0.0 and nq >= 0.0):
        raise DomainError(f"rs and nq must be nonnegative, got {rs}, {nq}")
    if rs + nq == 0.0:
        raise DomainError("no alerts possible: rs + nq = 0")
    return rs / (rs + nq)


def ppv(ctx: BayesContext) -> PosteriorSummary:
    """Exact PPV and FDR plus the sparse-regime approximation.

    FDR is computed as its own quotient q(1-pi) / (s pi + q(1-pi)) rather
    than as 1 - PPV, so the exact complementarity identity is a real check.
    """
    n = as_float("n", ctx.n)
    pi = ctx.r / n
    denom = ctx.s * pi + ctx.q * (1.0 - pi)
    if denom == 0.0:
        raise DomainError("no alerts possible: s*pi + q*(1-pi) = 0")
    return PosteriorSummary(
        ppv=ctx.s * pi / denom,
        fdr=ctx.q * (1.0 - pi) / denom,
        sparse_ppv=sparse_ppv(ctx.r * ctx.s, n * ctx.q),
    )


def bayes_critical_population(r: float, s: float, alpha: float, q: float) -> float:
    """Population at which sparse PPV drops to alpha: (1-alpha) r s / (alpha q).

    Beyond this n, an alert's posterior reliability falls below the target
    alpha even though the frequentist expected false-alert count may still
    look tame.

    Raises:
        RangeOverflowError: If the population overflows a double.
    """
    check_positive("r", r)
    check_unit("s", s, "(0, 1]")
    check_unit("alpha", alpha)
    check_positive("q", q)
    # alpha q underflows to 0 for subnormal inputs
    n_crit = (1.0 - alpha) * r * s / (alpha * q) if alpha * q > 0.0 else inf
    if not isfinite(n_crit):
        raise RangeOverflowError(f"critical population overflows a double at alpha={alpha}, q={q}")
    return n_crit


def classify_regime(ctx: BayesContext) -> RegimeVerdict:
    """Name the evidence regime of nq relative to rs.

    evidential when nq <= 0.1 * rs, collapsed when nq >= 10 * rs,
    transitional in between (nq == rs is transitional).
    """
    nq = as_float("n", ctx.n) * ctx.q
    rs = ctx.r * ctx.s
    if nq <= _EVIDENTIAL_CUT * rs:
        regime = REGIME_EVIDENTIAL
    elif nq >= _COLLAPSED_CUT * rs:
        regime = REGIME_COLLAPSED
    else:
        regime = REGIME_TRANSITIONAL
    return RegimeVerdict(
        nq=nq,
        rs=rs,
        regime=regime,
        frequentist_reliable=nq < 1.0,
    )
