"""40-digit mpmath references for the accuracy metric ``max_rel_err``.

The corpus is fixed: tails just above the mean at lambda = 1e5..1e10, one
system config at lambda = 5e7, and three exact binomial tails including the
pinned k=1e6, p=5e-6, m=3 case. It does not depend on the workload seed, so
the metric repeats exactly from run to run and between workloads. Each case
is run through ``cli.main`` like any other op, outside the timed region.

Errors are relative for probabilities. For a log-space output ln q the
error is |ln q - ln q_ref|, which is the relative error of q itself.
"""

from __future__ import annotations

import math

import mpmath

from workloads import ConfigWriter

DIGITS = 40
# Pinned kernel case: k=1e6, p=5e-6, m=3. binomial_tail's summation loop
# misses 40-digit mpmath by ~3.8e-10 here.
PINNED_BINOMIAL = (10**6, 5e-6, 3)

TAIL_CASES = [(10.0**d, int(10.0**d) + math.ceil(0.5 * math.sqrt(10.0**d))) for d in range(5, 11)]
SYSTEM_CASE = {"k": 10**8, "p": 0.5, "n": 1000, "m": 5 * 10**7 + 3000}
BINOMIAL_CASES = [PINNED_BINOMIAL, (10**5, 6e-5, 7), (10**4, 5e-4, 4)]


def log_poisson_sf(lam: float, m: int):
    """ln Pr(Pois(lam) >= m) = ln P(m, lam), via P(a, z) = z^a e^-z M(1, a+1, z) / Gamma(a+1)."""
    with mpmath.workdps(DIGITS):
        a, z = mpmath.mpf(m), mpmath.mpf(lam)
        series = mpmath.hyp1f1(1, a + 1, z, maxterms=10**8)
        return a * mpmath.log(z) - z - mpmath.loggamma(a + 1) + mpmath.log(series)


def binomial_sf(k: int, p: float, m: int):
    """Pr(Bin(k, p) >= m) = I_p(m, k - m + 1)."""
    with mpmath.workdps(DIGITS):
        return mpmath.betainc(m, k - m + 1, 0, p, regularized=True)


def _rel(value: str, ref) -> float:
    with mpmath.workdps(DIGITS):
        return float(abs((mpmath.mpf(float(value)) - ref) / ref))


def _abs(value: str, ref) -> float:
    with mpmath.workdps(DIGITS):
        return float(abs(mpmath.mpf(float(value)) - ref))


def corpus(writer: ConfigWriter) -> list:
    """(op, compare) pairs; compare(rows) -> {kernel: error}."""
    cases = []
    for lam, m in TAIL_CASES:
        def compare(rows, lam=lam, m=m):
            log_ref = log_poisson_sf(lam, m)
            with mpmath.workdps(DIGITS):
                ref = mpmath.exp(log_ref)
            return {"poisson_tail": _rel(rows[0]["exact"], ref),
                    "log_poisson_tail": _abs(rows[0]["log_exact"], log_ref)}
        cases.append((writer.scenario("tail", {"lambda": lam, "m": m}), compare))

    def compare_system(rows, case=SYSTEM_CASE):
        with mpmath.workdps(DIGITS):
            ref = mpmath.exp(log_poisson_sf(case["k"] * case["p"], case["m"]))
        return {"poisson_tail": _rel(rows[0]["q"], ref)}
    cases.append((writer.scenario("system", dict(SYSTEM_CASE)), compare_system))

    for k, p, m in BINOMIAL_CASES:
        params = {"target": "person", "k": k, "p": p, "m": m, "runs": 1000, "seed": 1,
                  "mode": "binomial-exact"}
        def compare(rows, k=k, p=p, m=m):
            return {"binomial_tail": _rel(rows[0]["analytic"], binomial_sf(k, p, m))}
        cases.append((writer.scenario("simulate", params, draws=1000, z_check=True), compare))
    return cases
