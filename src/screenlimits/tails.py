"""Upper-tail probabilities and closed-form bounds for rare-alert counts.

Core quantities for a screening test that flags an individual when a count
statistic reaches a threshold m:

* the Poisson rate function D(c) = c ln c - c + 1, governing tails of
  Pr(Pois(lambda) >= c*lambda),
* exact Poisson and binomial upper tails, the Poisson one also in log space,
  from scipy's gammainc and betainc where those hold and otherwise from
  Temme's uniform expansion, a short series at Loader's saddle-point pmf or
  a short lower sum, with no loop of more than ~100 steps,
* a Chernoff upper bound exp(-lambda * D(m/lambda)) and a Robbins-Stirling
  lower bound that sandwich the exact tail at any integer m > lambda, both
  from one deviance lambda * D(m/lambda) taken by Loader's bd0,
* the hypergeometric probability that a random s-subset hits a fixed t-subset
  (list-overlap false match), in at most 64 steps or Loader's closed form.

Everything here is scalar math on floats; no arrays, no state.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, copysign, exp, expm1, inf, isfinite, lgamma, log, log1p, pi, sqrt

from scipy.special import betainc, gammainc, log_ndtr

from .errors import (
    DomainError, RangeOverflowError, as_float, check_int, check_positive, check_unit,
)

__all__ = [
    "TailEstimate",
    "OverlapInput",
    "rate_function",
    "poisson_tail",
    "log_poisson_tail",
    "binomial_tail",
    "tail_estimate",
    "overlap_probability",
    "threshold_for_ratio",
]

# Relative truncation target for the log-space tail series.
_SERIES_RTOL = 1e-18

_LN_SQRT_2PI = 0.5 * log(2.0 * pi)

# Temme's expansion serves m >= 1000 (its c_5 / m^5 truncation is then
# ~1e-16; gammainc holds to 1e-13 below) and bd0 >= 2, two standard
# deviations out, short of which the 1/eta^(2k+1) terms cancel and
# gammainc is exact.
_TEMME_MIN_M = 1000.0
_TEMME_MIN_BD0 = 2.0
# Temme's c_0 ... c_4 (DLMF 8.12.11-12): t^j coefficients, j = 1 .. 2k+1,
# of c_k as polynomials in t = 1 / (lam/m - 1), and their eta^-(2k+1) ones.
_TEMME_C = (
    (1.0,),
    (-1 / 12, -1.0, -1.0),
    (1 / 288, 1 / 12, 25 / 12, 5.0, 3.0),
    (139 / 51840, -1 / 288, -49 / 288, -77 / 12, -105 / 4, -35.0, -15.0),
    (
        -571 / 2488320, -139 / 51840, 221 / 51840, 149 / 288, 2513 / 96, 1883 / 12,
        1365 / 4, 315.0, 105.0,
    ),
)
_TEMME_ETA = (-1.0, 1.0, -3.0, 15.0, -105.0)
# Past w = -1000 the Mills ratio phi(w) / Phi(w) is -w / (1 - u + 3 u^2 -
# 15 u^3), u = 1 / w^2, to within 105 u^4 ~ 1e-22.
_MILLS_W = 1000.0

# Most terms binomial_tail's lower sum and the overlap product take one by one.
_SHORT_SUM = 64


@dataclass(frozen=True, slots=True)
class TailEstimate:
    """Exact upper tail with its sandwich bounds at an integer threshold.

    Attributes:
        exact: Pr(Pois(lam) >= m).
        chernoff_upper: min(1, exp(-lam * D(m/lam))), always >= exact.
        robbins_lower: exp(-lam * D(m/lam) - 1/(12 m)) / sqrt(2 pi m), always <= exact.
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
    """Exact Pr(Pois(lam) >= m) = P(m, lam), the regularized lower incomplete gamma.

    scipy's gammainc gives it below the mean, within two standard
    deviations above it (bd0 < 2) and at m < 1000: there its relative error
    against 40-digit mpmath measured <= 1e-13. Past that, gammainc goes wrong
    (1.8e-14 against 1.28e-12 at lam = 1e12, m = lam + 7e6), so the result is
    exp of the log kernel, relative error ~ |ln q| * 2e-16; so it is too
    where gammainc falls below the smallest normal double or m is not a
    double.

    Args:
        lam: Mean of the Poisson distribution (> 0); inf gives 1.0.
        m: Integer threshold (>= 0).

    Raises:
        RangeOverflowError: If lam or m exceeds the double range, or gammainc
            returns nan where Temme's expansion does not hold (met nowhere
            in a scan of lam up to 1.7e308).
    """
    lam, x, b = _route(lam, m)
    if b is None and x == m:
        q = float(gammainc(x, lam))
        if q >= 2.2250738585072014e-308:  # sys.float_info.min
            return q
    return exp(_log_tail(lam, m, x, b))


def log_poisson_tail(lam: float, m: int) -> float:
    """ln Pr(Pois(lam) >= m), finite far past double-precision underflow.

    Three routes, none with a loop of more than ~100 steps:

    * m >= 1.5 lam: the tail series e^-lam lam^j / j! (j >= m) anchored at
      the pmf in Loader's saddle-point form (Loader 2000); each term is at
      most 2/3 of the one before.
    * lam < m < 1.5 lam with m >= 1000 and bd0(m, lam) >= 2 (over two
      standard deviations out), where gammainc goes wrong: Temme's uniform
      expansion P(m, lam) = Phi(w) - phi(w) S / sqrt(m), w = -sqrt(2 bd0),
      with c_0 ... c_4 in S (Temme 1979; DLMF 8.12), in log space through
      log_ndtr. It also stands in where gammainc returns nan (below the
      mean at lam ~ 1e306 and up).
    * elsewhere: log(gammainc(m, lam)), which cannot underflow there.

    Against 40-digit mpmath the error in ln q measured <= 2.5e-13 over lam in
    1e5 ... 1e12 at m = lam + 1, lam + sqrt(lam), 7 and 40 standard
    deviations out, and a few units in the last place of ln q down to
    ln q = -3300. An m past 2**53 that is not a double takes Temme's
    expansion at m itself (see _log_tail).

    Raises:
        RangeOverflowError: As poisson_tail.
    """
    lam, x, b = _route(lam, m)
    return _log_tail(lam, m, x, b)


def _route(lam: float, m: int) -> tuple[float, float, float | None]:
    """Check (lam, m); return lam and x = float(m) as doubles, and b = bd0(x, lam)
    where gammainc is not trusted with P(x, lam), above the mean where Temme's
    expansion holds. Elsewhere b is None, as it is off the grid (x != m)."""
    check_positive("lam", lam)
    check_int("threshold m", m, 0)
    lam = as_float("lam", lam)
    x = as_float("threshold m", m)
    # short of m = 1000 the gate fails, so the common small m skips its call
    return lam, x, _temme_bd0(lam, m, x) if x > lam and x >= _TEMME_MIN_M else None


def _temme_bd0(lam: float, m: int, x: float) -> float | None:
    """bd0(x, lam) where Temme's expansion holds at m = x on the double grid,
    else None: x >= 1000 and bd0 >= 2, over two standard deviations out,
    short of which gammainc is exact."""
    d = x - lam
    # bd0 <= d^2 / (2 min(x, lam)), so it is under 1.95 at d^2 < 3.9 min(x, lam)
    if x < _TEMME_MIN_M or x != m or d * d < 3.9 * min(x, lam):
        return None
    b = _bd0(x, lam, d)
    return b if b >= _TEMME_MIN_BD0 else None


def _excess(lam: float, m: int, x: float) -> float:
    """m - lam to an ulp, x = float(m); off the grid (m > 2**53) lam is an
    integer or its fraction is under an ulp of m - lam."""
    return x - lam if x == m else float(m - int(lam))


def _log_tail(lam: float, m: int, x: float, b: float | None) -> float:
    """ln P(m, lam), given (x, b) = _route(lam, m).

    At x >= 1.5 lam, the series at x; off the grid pmf(m) = pmf(x)
    (lam/x)^(m - x) to within (m - x)^2 / x, below an ulp of ln pmf. Else
    log(gammainc) where it is trusted and above 0, else Temme's expansion
    at m itself: off the grid lam > 2**52 there, and no correction from x to
    m through the pmf terms between them holds everywhere, since the ulp of
    m reaches its standard deviation sqrt(m) at m ~ 2**104.
    """
    if x >= 1.5 * lam:
        shift = 0.0 if x == m else (m - int(x)) * (log(lam) - log(x))
        return _log_pmf(x, lam, b) + shift + log(_ratio_series(lam, x))
    if b is None and x == m:
        q = float(gammainc(x, lam))
        if q > 0.0:
            return log(q)
        # gammainc's nan, as at lam = 1.7e308, x = lam / 2
        b = _temme_bd0(lam, m, x)
        if b is None:
            raise RangeOverflowError(
                f"gammainc cannot evaluate Pr(Pois({lam:g}) >= {x:g}) in double precision"
            )
    if lam == inf:  # off the grid; Pr(Pois(inf) >= m) is 1 for every finite m
        return 0.0
    d = _excess(lam, m, x)
    return _log_temme(x, d, _bd0(x, lam, d) if b is None else b)


def _bd0(x: float, mu: float, d: float) -> float:
    """Loader's deviance x ln(x/mu) + mu - x >= 0, to a few ulps, with d = x - mu.

    Within a factor 2 of mu it sums the positive series
    d v + 2 x sum_j v^(2j+1)/(2j+1), v = d/(x + mu), |v| < 1/3,
    so nothing cancels; outside, the direct form cancels at most ~4x.
    """
    v = 0.5 * d / (0.5 * x + 0.5 * mu)
    if abs(v) < 1.0 / 3.0:
        # the odd-power tail is summed apart from d v, so its roundings fall
        # at its own, smaller ulp; v^2 < 1/9, so it ends within ~20 steps
        tail = 0.0
        term = x * (2.0 * v)  # 2 x v would overflow past x ~ 9e307
        v2 = v * v
        for j in range(3, 80, 2):
            term *= v2
            step = tail + term / j
            if step == tail:
                break
            tail = step
        return d * v + tail
    ratio = x / mu
    return x * (log(ratio) if ratio < inf else log(x) - log(mu)) - d


def _log_pmf(x: float, lam: float, b: float | None = None) -> float:
    """ln(e^-lam lam^x / x!) for x >= 1, in Loader's saddle-point form past 15.

    There -stirlerr(x) - bd0(x, lam) - ln(2 pi x)/2 keeps each term small where
    x ln lam and ln x! would cancel; stirlerr(x) = ln x! - (x + 1/2) ln x + x -
    ln sqrt(2 pi) is Stirling's series to x^-9. At x <= 15 (so lam <= 10 in
    the series route) the plain form is the more exact. b, if given, is
    bd0(x, lam) already computed.
    """
    if x <= 15.0:
        return -lam + x * log(lam) - lgamma(x + 1.0)
    if b is None:
        b = _bd0(x, lam, x - lam)
    return -_stirlerr(x) - b - 0.5 * log(2.0 * pi * x)


def _stirlerr(x: float) -> float:
    """Stirling's error ln x! - (x + 1/2) ln x + x - ln sqrt(2 pi) for x >= 1:
    from lgamma at x <= 15, else its series to x^-9."""
    if x <= 15.0:
        return lgamma(x + 1.0) - (x + 0.5) * log(x) + x - _LN_SQRT_2PI
    xx = x * x
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * xx)) / xx) / xx) / xx) / x


def _ratio_series(lam: float, x: float) -> float:
    """sum_j prod_{i=1..j} lam / (x + i); for x >= 1.5 lam each term is at most
    2/3 of the last, so it ends within ~100 terms."""
    total = term = 1.0
    j = x
    while term >= _SERIES_RTOL * total:
        j += 1.0
        term *= lam / j
        total += term
    return total


def _log_temme(x: float, d: float, b: float) -> float:
    """ln P(x, x - d) by Temme's uniform expansion, b = bd0(x, x - d).

    w = sign(-d) sqrt(2 b), and P = Phi(w) - phi(w) S on either side of
    the mean. Over two standard deviations out (b >= 2), c_k(eta) is a
    polynomial in t = 1 / (lam/x - 1) plus a multiple of eta^-(2k+1);
    scaled by x^-(k+1/2) it is one in y = t / sqrt(x) and r = 1 / sqrt(x),
    plus one in v = 1 / w, with |y|, |v| <= 2/3 there, so nothing overflows
    at any x. Nearer the mean the two parts cancel, and S is taken from
    c_0(eta) = -1/3 + eta/12 + O(eta^2) alone, which only callers with
    x > 2**53 may ask for: there |eta| < 2 / sqrt(x) and the dropped terms
    are O(x^-3/2), under 1e-24.
    """
    w = copysign(sqrt(2.0 * b), -d)
    r = 1.0 / sqrt(x)
    if b < _TEMME_MIN_BD0:
        scaled = (w * r / 12.0 - 1.0 / 3.0) * r
    else:
        y = r * x / -d
        v = 1.0 / w
        scaled = 0.0
        for k, coefs in enumerate(_TEMME_C):
            n = 2 * k + 1
            scaled += sum(c * y**j * r ** (n - j) for j, c in enumerate(coefs, 1))
            scaled += _TEMME_ETA[k] * v**n
    if w < -_MILLS_W:
        # phi(w) / Phi(w) from Laplace's series, not from ln Phi(w), whose
        # rounding, an ulp of b, grows past 1 once b > 2**53
        u = 1.0 / (w * w)
        mills = -w / (1.0 - u + 3.0 * u * u - 15.0 * u**3)
        log_cdf = -b - _LN_SQRT_2PI - log(mills)
    else:
        log_cdf = float(log_ndtr(w))
        mills = exp(-b - _LN_SQRT_2PI - log_cdf)
    # subnormal parts can sum to ln q > 0; + 0.0 writes ln 1 as 0.0, not -0.0
    return min(log_cdf + log1p(-mills * scaled), 0.0) + 0.0


def binomial_tail(k: int, p: float, m: int) -> float:
    """Exact Pr(Bin(k, p) >= m) = I_p(m, k - m + 1), the regularized incomplete beta.

    scipy's betainc gives it, except for m <= 64 at or below the mean
    (m - 1 <= k p), where betainc loses up to 4e-9 at k = 1e8: there the
    result is 1 - Pr(X < m), summed over its m pmf terms as
    -expm1(ln Pr(X = 0) + log1p(...)). Against 40-digit mpmath over k in
    {1e4, 1e5, 1e6} and p from 5e-6 to 0.7, the relative error measured
    <= 1e-12 from 3 standard deviations below the mean to 8 above, and
    <= 4e-12 out to 35 above (k = 1e6, p = 0.3), where betainc itself
    loses digits; at k = 1e8 it reaches 4e-11 there. Serves as the exact
    reference the Poisson approximation is checked against.

    Args:
        k: Number of trials (>= 0).
        p: Success probability in [0, 1].
        m: Threshold; m > k gives 0, m <= 0 gives 1.

    Raises:
        RangeOverflowError: If k exceeds the double range, or betainc cannot
            evaluate the tail (nan, as at k = 1e300, p = 1e-305, m = 3).
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
    trials = as_float("k", k)
    if m <= _SHORT_SUM and m - 1 <= trials * p:
        log_first = trials * log1p(-p)
        if log_first < -700.0:
            # k p > 700, so the m <= 64 lower terms hold under e^-400
            return 1.0
        odds = p / (1.0 - p)
        rest, term = 0.0, 1.0
        for j in range(m - 1):
            term *= (trials - j) / (j + 1) * odds
            rest += term
        return -expm1(log_first + log1p(rest))
    q = float(betainc(as_float("threshold m", m), as_float("k", k - m + 1), p))
    if not 0.0 <= q <= 1.0:
        raise RangeOverflowError(
            f"betainc cannot evaluate Pr(Bin({k:g}, {p:g}) >= {m:g}) in double precision"
        )
    return q


def _sandwich(lam: float, m: int) -> tuple[float, float, float]:
    """(Robbins lower, Chernoff upper, exponent b = lam D(m/lam)) at an integer m > lam.

    b is bd0(m, lam), exact to a few ulps even where m / lam rounds to 1.
    Robbins' m! <= sqrt(2 pi m) (m/e)^m e^(1/(12 m)) bounds the pmf at m below.
    """
    x = as_float("threshold m", m)
    b = _bd0(x, lam, _excess(lam, m, x))
    return exp(-b - 1.0 / (12.0 * x)) / sqrt(2.0 * pi * x), min(1.0, exp(-b)), b


def tail_estimate(lam: float, m: int) -> TailEstimate:
    """Exact tail plus both sandwich bounds at an integer threshold m > lam.

    Raises:
        DomainError: If m <= lam, where no large-deviation sandwich exists.
        RangeOverflowError: If lam or m exceeds the double range.
    """
    lam, x, b = _route(lam, m)
    if not m > lam:
        raise DomainError(f"sandwich bounds exist only for m > lam, got m={m}, lam={lam}")
    lower, upper, exponent = _sandwich(lam, m)
    log_exact = _log_tail(lam, m, x, b)
    return TailEstimate(
        # poisson_tail takes gammainc where it is trusted, else exp of this kernel
        exact=poisson_tail(lam, m) if b is None and x == m else exp(log_exact),
        chernoff_upper=upper,
        robbins_lower=lower,
        log_exact=log_exact,
        exponent=exponent,
    )


def overlap_probability(inp: OverlapInput) -> float:
    """Probability a uniformly random s-subset intersects a fixed t-subset.

    Complement of the hypergeometric zero-intersection term
    C(V-t, s) / C(V, s) = C(V-s, t) / C(V, t), t the shorter list: up to
    _SHORT_SUM terms 1 - prod_{l<t} (1 - s / (V - l)), in log space; past
    that 1.0 when 2 s >= V (as the product rounds it: each factor is at most
    1/2), else Loader's saddle-point form (Loader 2000) of
    ln[(V-s)! (V-t)! / (V! r!)], r = V - s - t, with V-s, V-t and r each
    rounded once from the integers. Returns exactly 1.0 when s > V - t
    (pigeonhole) and 0.0 when either list is empty.

    Raises:
        RangeOverflowError: If V exceeds the double range past _SHORT_SUM terms.
    """
    v, t, s = inp.domain_size, inp.person_items, inp.suspicious_items
    t, s = min(s, t), max(s, t)
    if t == 0:
        return 0.0
    if s > v - t:
        return 1.0
    if t <= _SHORT_SUM:
        log_miss = 0.0
        for el in range(t):
            log_miss += log1p(-s / (v - el))
        # + 0.0 writes an exact 0 as 0.0, not -0.0
        return -expm1(log_miss) + 0.0
    if 2 * s >= v:
        return 1.0
    size = as_float("domain_size", v)
    vs, vt, r, d = float(v - s), float(v - t), float(v - s - t), -float(t)
    log_miss = (
        _stirlerr(vs) + _stirlerr(vt) - _stirlerr(size) - _stirlerr(r)
        + 0.5 * log1p(s / size * (t / r)) + t * log1p(-s / size)
        - _bd0(r, vs, d) + _bd0(vt, size, d)
    )
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

