"""Seeded Monte Carlo validation of the analytic false-alert formulas.

Determinism contract: a report is a pure function of its plan. Trials are
partitioned into fixed-size chunks and chunk j draws from an independent
Philox stream keyed by (seed, j), so results are bit-identical across runs
and across any degree of parallelism: chunk outputs are integer counts and
integer sums, which combine identically in any order. The `workers` argument
changes wall-clock time only, never the report.

Modes:
    binomial-exact     draw the k-attribute match count per individual
    poisson-approx     draw Poisson counts (or Binomial(n, q) at system level)
    analytic-composite one Bernoulli(1 - (1-q)^n) per trial, for huge n
    copula-correlated  correlated attributes via a latent Gaussian copula

Binomial draws only ever feed an alert test count >= m. Where numpy samples
the binomial by inversion (0 < p <= 1/2, n p <= 30), it reads one Philox
double per value, and the alert is decided by comparing that same double
with a cut-off computed once per plan, so the uniforms alone give the
alerts numpy's counts would. The kernel-equality grid in
tests/test_simulate.py pins this to rng.binomial element by element: a
numpy upgrade that changes its sampler fails that test loudly instead of
moving a result.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import exp, inf, log1p, sqrt
from struct import pack, unpack

import numpy as np
from scipy.special import ndtri

from .errors import BudgetError, DomainError, RangeOverflowError
from .system import ScreeningConfig, system_probability
from .tails import binomial_tail, poisson_tail

__all__ = [
    "MODE_BINOMIAL",
    "MODE_POISSON",
    "MODE_COMPOSITE",
    "MODE_COPULA",
    "SimPlan",
    "SimReport",
    "CorrelatedSimReport",
    "LatentCorrelation",
    "simulate_per_person",
    "simulate_system",
    "simulate_correlated",
    "measure_binary_correlation",
    "latent_rho_for_binary",
]

MODE_BINOMIAL = "binomial-exact"
MODE_POISSON = "poisson-approx"
MODE_COMPOSITE = "analytic-composite"
MODE_COPULA = "copula-correlated"

_MODES = (MODE_BINOMIAL, MODE_POISSON, MODE_COMPOSITE, MODE_COPULA)

# Fixed trial chunk size; part of the determinism contract.
_CHUNK = 8192

# No plan may make more than this many draws: every mode draws at least one
# value per run, exact system mode n per run.
_DRAW_BUDGET = 1_000_000_000

# numpy's sampler limits: binomial n is an int64, and Generator.poisson
# rejects a mean above int64 max - 10 sqrt(int64 max).
_INT64_MAX = 2**63 - 1
_POISSON_LAM_MAX = _INT64_MAX - sqrt(_INT64_MAX) * 10

# Bit pattern of the double 1.0: every double in [0, 1) has a smaller one.
_ONE_BITS = unpack("<q", pack("<d", 1.0))[0]


@dataclass(frozen=True)
class SimPlan:
    """A fully specified simulation: parameters, budget, seed, mode.

    p may sit at 0 or 1 exactly (degenerate but simulable); the analytic
    reference handles both endpoints. More runs than the draw budget (1e9)
    raise BudgetError.
    """

    k: int
    p: float
    m: int
    runs: int
    seed: int
    mode: str
    n: int = 1

    def __post_init__(self) -> None:
        if self.k < 0 or self.k != int(self.k):
            raise DomainError(f"k must be a nonnegative integer, got {self.k}")
        if not (0.0 <= self.p <= 1.0):
            raise DomainError(f"p must lie in [0, 1], got {self.p}")
        if self.m < 0 or self.m != int(self.m):
            raise DomainError(f"m must be a nonnegative integer, got {self.m}")
        if self.runs < 1 or self.runs != int(self.runs):
            raise DomainError(f"runs must be a positive integer, got {self.runs}")
        if self.runs > _DRAW_BUDGET:
            raise BudgetError(f"runs = {self.runs:.2e} exceeds the {_DRAW_BUDGET:.0e}-draw budget")
        if self.n < 1 or self.n != int(self.n):
            raise DomainError(f"n must be a positive integer, got {self.n}")
        if not (0 <= self.seed < 2**64) or self.seed != int(self.seed):
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.mode not in _MODES:
            raise DomainError(f"mode must be one of {_MODES}, got {self.mode!r}")

    @classmethod
    def for_config(
        cls, config: ScreeningConfig, runs: int, seed: int, mode: str
    ) -> "SimPlan":
        """Build a plan from a validated deployment configuration."""
        return cls(
            k=config.k,
            p=config.p,
            m=config.threshold,
            n=config.n,
            runs=runs,
            seed=seed,
            mode=mode,
        )


@dataclass(frozen=True)
class SimReport:
    """Estimate with uncertainty and its analytic reference."""

    estimate: float
    std_error: float
    runs: int
    analytic: float
    abs_error: float
    z_score: float


@dataclass(frozen=True)
class CorrelatedSimReport(SimReport):
    """Correlated-run report; analytic is the independent-case reference."""

    mean_count: float
    count_variance: float


@dataclass(frozen=True, slots=True)
class LatentCorrelation:
    """Latent Gaussian correlation structure for the copula sampler.

    kind "exchangeable": every latent pair shares correlation rho in [0, 1)
    (common-factor construction). kind "ar1": latent corr(i, j) =
    rho^|i-j| with |rho| < 1.
    """

    kind: str
    rho: float

    def __post_init__(self) -> None:
        if self.kind not in ("exchangeable", "ar1"):
            raise DomainError(f"kind must be 'exchangeable' or 'ar1', got {self.kind!r}")
        if self.kind == "exchangeable" and not (0.0 <= self.rho < 1.0):
            raise DomainError(
                f"exchangeable rho must lie in [0, 1) for a valid "
                f"common-factor structure, got {self.rho}"
            )
        if self.kind == "ar1" and not (-1.0 < self.rho < 1.0):
            raise DomainError(f"ar1 rho must lie in (-1, 1), got {self.rho}")


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([seed, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunk_sizes(runs: int, chunk: int) -> list[int]:
    full, rem = divmod(runs, chunk)
    sizes = [chunk] * full
    if rem:
        sizes.append(rem)
    return sizes


def _walk_reaches(u: float, n: int, p: float, q: float, px: float, steps: int) -> bool:
    """Whether numpy's inversion walk from uniform u counts to `steps`.

    The float operations are those of numpy's random_binomial_inversion, in
    its order, starting from px = (1-p)^n; each is monotone in u.
    """
    for x in range(1, steps + 1):
        if not u > px:
            return False
        u -= px
        px = (float(n - x + 1) * p * px) / (x * q)
    return True


def _inversion_cuts(n: int, p: float, m: int) -> tuple[float, float] | None:
    """Uniform cut-offs that decide Bin(n, p) >= m in numpy's inversion sampler.

    numpy draws Bin(n, p) by inversion when 0 < p <= 1/2 and n p <= 30: one
    double U per value, the double rng.random would return, and the count
    reaches m exactly when U exceeds the first cut. Past the second cut the
    count would pass numpy's bound and the walk would restart on a fresh
    double. Returns None outside that regime, for m < 1 and for m beyond
    the bound; each cut is a bisection over the bit patterns of [0, 1).

    Raises:
        RangeOverflowError: If n does not fit numpy's int64 binomial size.
    """
    if n > _INT64_MAX:
        raise RangeOverflowError(f"binomial size n = {n:.3g} exceeds numpy's int64 limit")
    n = int(n)
    if not (0.0 < p <= 0.5 and n >= 1 and p * n <= 30.0 and m >= 1):
        return None
    q = 1.0 - p
    mean = n * p
    bound = int(min(float(n), mean + 10.0 * sqrt(mean * q + 1)))
    if m > bound:
        return None
    qn = exp(n * log1p(-p))

    def last_short_walk(steps: int) -> float:
        # invariant: the walk from lo stops short, the walk from hi does not
        # (hi = 1.0 stands in: rng.random never returns it)
        lo, hi = 0, _ONE_BITS
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _walk_reaches(unpack("<d", pack("<q", mid))[0], n, p, q, qn, steps):
                hi = mid
            else:
                lo = mid
        return unpack("<d", pack("<q", lo))[0]

    return last_short_walk(m), last_short_walk(bound + 1)


def _binomial_alerts(
    seed: int, j: int, n: int, p: float, m: int, shape, cuts: tuple[float, float] | None
) -> np.ndarray:
    """Exactly rng.binomial(n, p, shape) >= m on chunk j's stream.

    With cuts from _inversion_cuts the alerts are read off the uniforms
    numpy's sampler would have drawn. If any of them would have restarted
    the walk, numpy's stream shifts, so the chunk is drawn again by
    rng.binomial from a fresh generator.
    """
    rng = _chunk_rng(seed, j)
    if cuts is not None:
        alert_cut, restart_cut = cuts
        u = rng.random(shape)
        if not u.max() > restart_cut:
            return u > alert_cut
        rng = _chunk_rng(seed, j)
    return rng.binomial(n, p, shape) >= m


def _map_chunks(worker, sizes: list[int], workers: int) -> list:
    """Evaluate worker(chunk_index, size) for every chunk.

    Results are collected by chunk index, so scheduling order is
    irrelevant to the combined outcome.
    """
    if workers <= 1:
        return [worker(j, size) for j, size in enumerate(sizes)]
    out = [None] * len(sizes)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {
            pool.submit(worker, j, size): j for j, size in enumerate(sizes)
        }
        for fut, j in futures.items():
            out[j] = fut.result()
    return out


def _finish(alerts: int, plan: SimPlan, analytic: float) -> SimReport:
    estimate = alerts / plan.runs
    se = sqrt(estimate * (1.0 - estimate) / plan.runs)
    diff = estimate - analytic
    if se > 0.0:
        z = diff / se
    else:
        z = 0.0 if diff == 0.0 else (inf if diff > 0 else -inf)
    return SimReport(
        estimate=estimate,
        std_error=se,
        runs=plan.runs,
        analytic=analytic,
        abs_error=abs(diff),
        z_score=z,
    )


def simulate_per_person(plan: SimPlan, workers: int = 1) -> SimReport:
    """Estimate the per-person alert probability Pr(count >= m).

    binomial-exact draws Bin(k, p) per trial; poisson-approx draws
    Pois(k*p). The analytic reference matches the sampled law.
    """
    if plan.mode not in (MODE_BINOMIAL, MODE_POISSON):
        raise DomainError(
            f"per-person simulation supports {MODE_BINOMIAL!r} and "
            f"{MODE_POISSON!r}, got {plan.mode!r}"
        )
    sizes = _chunk_sizes(plan.runs, _CHUNK)
    if plan.mode == MODE_BINOMIAL:
        analytic = binomial_tail(plan.k, plan.p, plan.m)
        cuts = _inversion_cuts(plan.k, plan.p, plan.m)

        def worker(j: int, size: int) -> int:
            return int(_binomial_alerts(plan.seed, j, plan.k, plan.p, plan.m, size, cuts).sum())

    else:
        lam = plan.k * plan.p
        if lam > _POISSON_LAM_MAX:
            raise RangeOverflowError(
                f"Poisson mean k p = {lam:.3g} exceeds numpy's limit {_POISSON_LAM_MAX:.3g}"
            )
        analytic = poisson_tail(lam, plan.m)

        def worker(j: int, size: int) -> int:
            rng = _chunk_rng(plan.seed, j)
            return int((rng.poisson(lam, size=size) >= plan.m).sum())

    alerts = sum(_map_chunks(worker, sizes, workers))
    return _finish(alerts, plan, analytic)


def simulate_system(plan: SimPlan, workers: int = 1) -> SimReport:
    """Estimate the probability that at least one of n individuals alerts.

    binomial-exact simulates every individual's match count directly and is
    budget-capped at 1e9 individual draws; poisson-approx draws the alert
    count as Binomial(n, q_poisson) per trial; analytic-composite draws one
    Bernoulli(1 - (1-q)^n) per trial and is the intended route for n beyond
    the exact budget.
    """
    if plan.mode == MODE_COPULA:
        raise DomainError("use simulate_correlated for copula plans")
    if plan.mode == MODE_BINOMIAL:
        total_draws = plan.n * plan.runs
        if total_draws > _DRAW_BUDGET:
            raise BudgetError(
                f"exact mode needs n*runs = {total_draws:.2e} individual "
                f"draws (> {_DRAW_BUDGET:.0e}); reduce runs or use "
                f"mode={MODE_COMPOSITE!r}"
            )
        q = binomial_tail(plan.k, plan.p, plan.m)
        analytic, _ = system_probability(q, plan.n)
        chunk = max(1, min(_CHUNK, (1 << 21) // plan.n))
        sizes = _chunk_sizes(plan.runs, chunk)
        cuts = _inversion_cuts(plan.k, plan.p, plan.m)

        def worker(j: int, size: int) -> int:
            alerts = _binomial_alerts(plan.seed, j, plan.k, plan.p, plan.m, (size, plan.n), cuts)
            return int(alerts.any(axis=1).sum())

    elif plan.mode == MODE_POISSON:
        q = poisson_tail(plan.k * plan.p, plan.m)
        analytic, _ = system_probability(q, plan.n)
        sizes = _chunk_sizes(plan.runs, _CHUNK)
        cuts = _inversion_cuts(plan.n, q, 1)

        def worker(j: int, size: int) -> int:
            return int(_binomial_alerts(plan.seed, j, plan.n, q, 1, size, cuts).sum())

    else:  # MODE_COMPOSITE
        q = binomial_tail(plan.k, plan.p, plan.m)
        analytic, _ = system_probability(q, plan.n)
        sizes = _chunk_sizes(plan.runs, _CHUNK)

        def worker(j: int, size: int) -> int:
            rng = _chunk_rng(plan.seed, j)
            return int((rng.random(size) < analytic).sum())

    alerts = sum(_map_chunks(worker, sizes, workers))
    return _finish(alerts, plan, analytic)


def _latent_counts(
    rng: np.random.Generator,
    size: int,
    k: int,
    threshold: float,
    corr: LatentCorrelation,
) -> np.ndarray:
    """Match counts for `size` trials under the latent-Gaussian copula."""
    if corr.kind == "exchangeable":
        shared = rng.standard_normal(size)
        own = rng.standard_normal((size, k))
        latent = sqrt(corr.rho) * shared[:, None] + sqrt(1.0 - corr.rho) * own
        return (latent <= threshold).sum(axis=1)
    # the recurrence runs along attributes: one contiguous row per attribute
    latent = rng.standard_normal((size, k)).T.copy()
    scale = sqrt(1.0 - corr.rho**2)
    for t in range(1, k):
        latent[t] = corr.rho * latent[t - 1] + scale * latent[t]
    return (latent <= threshold).sum(axis=0)


def simulate_correlated(
    plan: SimPlan, corr: LatentCorrelation, workers: int = 1
) -> CorrelatedSimReport:
    """Tail estimate and empirical count variance under correlated attributes.

    Each attribute indicator is 1 when its latent standard normal falls at
    or below the p-quantile, so marginals stay Bernoulli(p) exactly while the
    latent structure induces dependence. The analytic field carries the
    independent-case reference Pr(Bin(k, p) >= m) for inflation comparisons.
    """
    if plan.mode != MODE_COPULA:
        raise DomainError(
            f"correlated simulation requires mode={MODE_COPULA!r}, got {plan.mode!r}"
        )
    if plan.k < 1:
        raise DomainError("copula simulation needs k >= 1")
    if not (0.0 < plan.p < 1.0):
        raise DomainError(
            f"copula simulation needs p strictly in (0, 1), got {plan.p}"
        )
    threshold = float(ndtri(plan.p))
    analytic = binomial_tail(plan.k, plan.p, plan.m)
    chunk = max(1, min(4096, (1 << 20) // plan.k))
    sizes = _chunk_sizes(plan.runs, chunk)

    def worker(j: int, size: int) -> tuple[int, int, int]:
        rng = _chunk_rng(plan.seed, j)
        counts = _latent_counts(rng, size, plan.k, threshold, corr)
        return (
            int((counts >= plan.m).sum()),
            int(counts.sum()),
            int((counts * counts).sum()),
        )

    parts = _map_chunks(worker, sizes, workers)
    alerts = sum(part[0] for part in parts)
    total = sum(part[1] for part in parts)
    total_sq = sum(part[2] for part in parts)
    base = _finish(alerts, plan, analytic)
    n_tr = plan.runs
    mean_count = total / n_tr
    var_count = (total_sq - n_tr * mean_count * mean_count) / (n_tr - 1) if n_tr > 1 else 0.0
    return CorrelatedSimReport(
        estimate=base.estimate,
        std_error=base.std_error,
        runs=base.runs,
        analytic=base.analytic,
        abs_error=base.abs_error,
        z_score=base.z_score,
        mean_count=mean_count,
        count_variance=var_count,
    )


def measure_binary_correlation(
    k: int,
    p: float,
    corr: LatentCorrelation,
    draws: int = 100_000,
    seed: int = 0,
) -> float:
    """Empirical mean pairwise correlation of the binary indicators.

    Moment-matched from a pilot sample: with Y the match count,
    rho_bar = (Var(Y) - k p(1-p)) / (k (k-1) p(1-p)), using the empirical
    p. This is the binary-scale correlation that feeds design_effect.
    """
    if k < 2:
        raise DomainError("pairwise correlation needs k >= 2")
    plan = SimPlan(k=k, p=p, m=k + 1, runs=draws, seed=seed, mode=MODE_COPULA)
    rep = simulate_correlated(plan, corr)
    p_hat = rep.mean_count / k
    bern_var = p_hat * (1.0 - p_hat)
    if bern_var == 0.0:
        raise DomainError("pilot sample degenerate: empirical p is 0 or 1")
    return (rep.count_variance - k * bern_var) / (k * (k - 1) * bern_var)


def latent_rho_for_binary(
    k: int,
    p: float,
    rho_binary: float,
    draws: int = 100_000,
    seed: int = 0,
    tol: float = 0.005,
) -> float:
    """Latent exchangeable rho whose pilot-measured binary rho hits a target.

    Plain bisection against measure_binary_correlation; the mapping is
    monotone. Accuracy is limited by pilot noise, hence the loose default
    tolerance.
    """
    if not (0.0 < rho_binary < 1.0):
        raise DomainError(f"target binary rho must lie in (0, 1), got {rho_binary}")
    lo, hi = 0.0, 0.999
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        got = measure_binary_correlation(
            k, p, LatentCorrelation(kind="exchangeable", rho=mid), draws, seed
        )
        if abs(got - rho_binary) <= tol:
            return mid
        if got < rho_binary:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
