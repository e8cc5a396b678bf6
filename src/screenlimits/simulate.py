"""Seeded Monte Carlo validation of the analytic false-alert formulas.

Determinism contract: a report is a pure function of its plan. Trials are
partitioned into fixed-size chunks and chunk j draws from an independent
Philox stream keyed by (seed, j), so results are bit-identical across runs
and across any degree of parallelism: chunk outputs are integer counts and
integer sums, which combine identically in any order. The `workers` argument
changes wall-clock time only, never the report.

Workers: a call runs its chunks in the calling thread plus up to
`workers - 1` helper threads of one pool shared by the whole process, all
taking chunks from one queue. A plan of one chunk never uses a thread.

Modes:
    binomial-exact     draw the k-attribute match count per individual
    poisson-approx     draw Poisson counts (or Binomial(n, q) at system level)
    copula-correlated  correlated attributes via a latent Gaussian copula

The exchangeable copula draws one shared normal s per run and the count as
Bin(k, Phi((t - sqrt(rho) s) / sqrt(1 - rho))), the law of k latent
threshold crossings given s; AR(1) draws all k latent normals. Both copula
kinds count k draws per run against the draw budget, and both report the
mean and variance of the count, whose excess over k p (1 - p) is the design
effect of the binary correlation the latent rho induces.

Binomial and Poisson draws only ever feed an alert test count >= m. Each
law is built once per plan as raw-word cuts plus a fallback draw
(`_binomial_law`, `_poisson_law`), and one kernel, `_alerts`, decides every
chunk from them. Where the law is sampled by sequential-search inversion
from one Philox double per value (numpy's binomial for 0 < p <= 1/2,
n p <= 30; the Poisson walk for 0 < k p <= 30, 1 <= m <= k p +
10 sqrt(k p + 1)), the count reaches m exactly when that double exceeds a
cut-off, so the test is made on the raw 64-bit words the doubles are made
from. A binomial chunk whose walk would have restarted, and every chunk
outside the regime, draws from the fallback instead. The kernel-equality
grids in tests/test_simulate.py pin this to rng.binomial and to a replay of
the Poisson walk element by element: a numpy upgrade that changes its
sampler fails them loudly instead of moving a result.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from math import exp, floor, inf, log1p, sqrt
from queue import Empty, SimpleQueue
from struct import pack, unpack
from threading import Event, Lock

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import (
    BudgetError,
    DomainError,
    RangeOverflowError,
    as_float,
    check_int,
    check_unit,
)
from .system import system_probability
from .tails import binomial_tail, poisson_tail

__all__ = [
    "MODE_BINOMIAL",
    "MODE_POISSON",
    "MODE_COPULA",
    "SimPlan",
    "SimReport",
    "CorrelatedSimReport",
    "LatentCorrelation",
    "simulate_per_person",
    "simulate_system",
    "simulate_correlated",
]

MODE_BINOMIAL = "binomial-exact"
MODE_POISSON = "poisson-approx"
MODE_COPULA = "copula-correlated"

_MODES = (MODE_BINOMIAL, MODE_POISSON, MODE_COPULA)

# Fixed trial chunk size; part of the determinism contract.
_CHUNK = 8192

# No plan may make more than this many draws: every mode draws at least one
# value per run, exact system mode n per run and copula mode k per run.
_DRAW_BUDGET = 1_000_000_000

# Most threads a run may use, the calling thread included. The shared pool
# holds at most _MAX_WORKERS - 1 helpers and starts them only as needed.
_MAX_WORKERS = 32
_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = Lock()

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
        check_int("k", self.k, 0)
        check_unit("p", self.p, "[0, 1]")
        check_int("m", self.m, 0)
        check_int("runs", self.runs, 1)
        if as_float("runs", self.runs) > _DRAW_BUDGET:
            raise BudgetError(f"runs = {self.runs:.2e} exceeds the {_DRAW_BUDGET:.0e}-draw budget")
        check_int("n", self.n, 1)
        check_int("seed", self.seed, 0, 2**64 - 1)
        if self.mode not in _MODES:
            raise DomainError(f"mode must be one of {_MODES}, got {self.mode!r}")


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


def _bits(u: float) -> int:
    return unpack("<q", pack("<d", u))[0]


def _double(bits: int) -> float:
    return unpack("<d", pack("<q", bits))[0]


def _walk_reaches(u: float, terms: list[float]) -> bool:
    """Whether a sequential-search walk from uniform u passes every term.

    Each step stops unless u > px and otherwise takes u -= px, as numpy's
    binomial inversion does, so the walk counts to len(terms) exactly when
    it passes them all. Each operation is monotone in u.
    """
    for px in terms:
        if not u > px:
            return False
        u -= px
    return True


def _last_short_walk(terms: list[float]) -> float:
    """Largest double in [0, 1) whose walk over `terms` stops short.

    A bisection over the bit patterns of [0, 1). The walk's float sum lies
    within a few ulps per step of the answer, so the search first brackets
    4 len(terms) + 8 patterns either side of it; if the walk does not confirm
    both ends, it falls back to the whole range. Either way the result is
    the one bit pattern where the walk changes, so both searches agree.
    """
    # invariant: the walk from lo stops short, the walk from hi does not
    # (hi = 1.0 stands in: rng.random never returns it)
    width = 4 * len(terms) + 8
    centre = _bits(min(sum(terms), 1.0))
    lo, hi = max(0, centre - width), min(_ONE_BITS, centre + width)
    if _walk_reaches(_double(lo), terms) or (
        hi < _ONE_BITS and not _walk_reaches(_double(hi), terms)
    ):
        lo, hi = 0, _ONE_BITS
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _walk_reaches(_double(mid), terms):
            hi = mid
        else:
            lo = mid
    return _double(lo)


def _word_cut(cut: float) -> int:
    """Smallest raw Philox word w whose double (w >> 11) * 2**-53 exceeds cut.

    A negative cut gives 0, which every word reaches; a cut at or above the
    largest double below 1 gives 2**64, which none does.
    """
    return max(0, floor(cut * 2.0**53) + 1) << 11


def _binomial_law(n: int, p: float, m: int):
    """(word cuts or None, fallback draw) deciding Bin(n, p) >= m.

    numpy draws Bin(n, p) by inversion when 0 < p <= 1/2 and n p <= 30: one
    double U per value, the double rng.random would return, and the count
    reaches m exactly when U exceeds the first cut. Past the second cut the
    count would pass numpy's bound and the walk would restart on a fresh
    double. The cuts are None outside that regime, for m < 1 and for m
    beyond the bound.

    Raises:
        RangeOverflowError: If n does not fit numpy's int64 binomial size.
    """
    if n > _INT64_MAX:
        raise RangeOverflowError(f"binomial size n = {n:.3g} exceeds numpy's int64 limit")
    n = int(n)

    def draw(rng: np.random.Generator, shape) -> np.ndarray:
        return rng.binomial(n, p, shape) >= m

    if not (0.0 < p <= 0.5 and n >= 1 and p * n <= 30.0 and m >= 1):
        return None, draw
    q = 1.0 - p
    mean = n * p
    bound = int(min(float(n), mean + 10.0 * sqrt(mean * q + 1)))
    if m > bound:
        return None, draw
    # the px of numpy's random_binomial_inversion, in its float order
    px = exp(n * log1p(-p))
    terms = [px]
    for x in range(1, bound + 1):
        px = (float(n - x + 1) * p * px) / (x * q)
        terms.append(px)
    return (_word_cut(_last_short_walk(terms[:m])), _word_cut(_last_short_walk(terms))), draw


def _poisson_law(lam: float, m: int):
    """(word cuts or None, fallback draw) deciding Pois(lam) >= m.

    The sequential-search walk starts from px = e^-lam and steps
    px = px lam / x (Devroye 1986, Non-Uniform Random Variate Generation,
    X.3); it never restarts, so the cuts carry no restart word. They are None
    outside 0 < lam <= 30 and 1 <= m <= lam + 10 sqrt(lam + 1), where the
    walk could grow long.

    Raises:
        RangeOverflowError: If lam exceeds numpy's Poisson limit.
    """
    if lam > _POISSON_LAM_MAX:
        raise RangeOverflowError(
            f"Poisson mean k p = {lam:.3g} exceeds numpy's limit {_POISSON_LAM_MAX:.3g}"
        )

    def draw(rng: np.random.Generator, shape) -> np.ndarray:
        return rng.poisson(lam, shape) >= m

    if not (0.0 < lam <= 30.0 and 1 <= m <= lam + 10.0 * sqrt(lam + 1.0)):
        return None, draw
    px = exp(-lam)
    terms = [px]
    for x in range(1, m):
        px = px * lam / x
        terms.append(px)
    return (_word_cut(_last_short_walk(terms)), None), draw


def _alerts(seed: int, j: int, shape: tuple[int, ...], law) -> np.ndarray:
    """The law's count >= m for chunk j's stream, one flag per row of `shape`.

    A 2-D shape is reduced along its rows by any(). With word cuts a value
    alerts when the raw Philox word behind the double its inversion walk
    reads reaches the alert word, and a row when its largest word does. If a
    word reaches a binomial law's restart word, numpy's walk would have
    restarted and shifted the stream, so the chunk is drawn again by the
    fallback from a fresh generator.
    """
    cuts, draw = law
    rng = _chunk_rng(seed, j)
    if cuts is not None:
        alert, restart = cuts
        words = rng.bit_generator.random_raw(shape)
        if words.ndim == 2:
            words = words.max(axis=1)
        if restart is None or words.max() < restart:
            return words >= alert
        rng = _chunk_rng(seed, j)
    alerts = draw(rng, shape)
    return alerts.any(axis=1) if alerts.ndim == 2 else alerts


def _pool() -> ThreadPoolExecutor:
    """The process-wide helper pool, built on first use."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(max_workers=_MAX_WORKERS - 1)
        return _POOL


def _map_tasks(fn, items: list[tuple], workers: int) -> list:
    """[fn(*args) for args in items], on up to `workers` threads.

    The calling thread and up to workers - 1 helpers from the shared pool
    take tasks from one queue; results are stored by task index, so
    scheduling order never reaches the result. After a task raises, no
    thread starts another, and the error reaches the caller only once every
    helper has stopped.
    """
    check_int("workers", workers, 1, _MAX_WORKERS)
    helpers = min(workers, len(items)) - 1
    if helpers < 1:
        return [fn(*args) for args in items]
    out = [None] * len(items)
    todo = SimpleQueue()
    for task in enumerate(items):
        todo.put(task)
    failed = Event()

    def drain() -> None:
        try:
            while not failed.is_set():
                try:
                    i, args = todo.get_nowait()
                except Empty:
                    return
                out[i] = fn(*args)
        except BaseException:
            failed.set()
            raise

    futures = []
    try:
        pool = _pool()
        for _ in range(helpers):
            futures.append(pool.submit(drain))
        drain()
    finally:
        # a helper that has not started would find nothing left to do
        started = [fut for fut in futures if not fut.cancel()]
        wait(started)
    for fut in started:
        fut.result()
    return out


def _count(plan: SimPlan, chunk: int, workers: int, tally) -> list:
    """[tally(j, size) for each chunk j of the plan's runs], in chunk order."""
    return _map_tasks(tally, list(enumerate(_chunk_sizes(plan.runs, chunk))), workers)


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


def _alert_report(
    plan: SimPlan, workers: int, law, analytic: float, row: tuple[int, ...] = (), chunk: int = _CHUNK
) -> SimReport:
    """The report of the runs `_alerts` flags under `law`; each run draws a block of shape `row`."""

    def tally(j: int, size: int) -> int:
        return int(_alerts(plan.seed, j, (size, *row), law).sum())

    return _finish(sum(_count(plan, chunk, workers, tally)), plan, analytic)


def simulate_per_person(plan: SimPlan, workers: int = 1) -> SimReport:
    """Estimate the per-person alert probability Pr(count >= m).

    binomial-exact draws Bin(k, p) per trial; poisson-approx draws
    Pois(k*p), from one raw word per trial where _poisson_law gives cuts.
    The analytic reference matches the sampled law.
    """
    if plan.mode not in (MODE_BINOMIAL, MODE_POISSON):
        raise DomainError(
            f"per-person simulation supports {MODE_BINOMIAL!r} and "
            f"{MODE_POISSON!r}, got {plan.mode!r}"
        )
    if plan.mode == MODE_BINOMIAL:
        analytic = binomial_tail(plan.k, plan.p, plan.m)
        law = _binomial_law(plan.k, plan.p, plan.m)
    else:
        lam = as_float("k", plan.k) * plan.p
        law = _poisson_law(lam, plan.m)
        analytic = poisson_tail(lam, plan.m)
    return _alert_report(plan, workers, law, analytic)


def simulate_system(plan: SimPlan, workers: int = 1) -> SimReport:
    """Estimate the probability that at least one of n individuals alerts.

    binomial-exact simulates every individual's match count directly and is
    budget-capped at 1e9 individual draws; poisson-approx draws the alert
    count as Binomial(n, q_poisson), one value per trial, and is the route
    for n beyond the exact budget.
    """
    if plan.mode == MODE_COPULA:
        raise DomainError("use simulate_correlated for copula plans")
    if plan.mode == MODE_BINOMIAL:
        total_draws = as_float("n * runs", plan.n * plan.runs)
        if total_draws > _DRAW_BUDGET:
            raise BudgetError(
                f"exact mode needs n*runs = {total_draws:.2e} individual "
                f"draws (> {_DRAW_BUDGET:.0e}); reduce runs or use "
                f"mode={MODE_POISSON!r}"
            )
        q = binomial_tail(plan.k, plan.p, plan.m)
        # each run is a row of n individuals, about 2M draws per chunk
        args, row = (plan.k, plan.p, plan.m), (plan.n,)
        chunk = max(1, min(_CHUNK, (1 << 21) // plan.n))
    else:
        # each run draws its alert count as Bin(n, q) and alerts when it is >= 1
        q = poisson_tail(as_float("k", plan.k) * plan.p, plan.m)
        args, row, chunk = (plan.n, q, 1), (), _CHUNK
    analytic, _ = system_probability(q, plan.n)
    return _alert_report(plan, workers, _binomial_law(*args), analytic, row, chunk)


def _latent_counts(
    rng: np.random.Generator,
    size: int,
    k: int,
    threshold: float,
    corr: LatentCorrelation,
) -> np.ndarray:
    """Match counts for `size` trials under the latent-Gaussian copula."""
    if corr.kind == "exchangeable":
        # given the shared factor s the k indicators are independent, each
        # Bernoulli(Phi((threshold - sqrt(rho) s) / sqrt(1 - rho)))
        shared = rng.standard_normal(size)
        p_given_s = ndtr((threshold - sqrt(corr.rho) * shared) / sqrt(1.0 - corr.rho))
        return rng.binomial(k, p_given_s)
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

    exchangeable draws one shared factor s per run and the count as
    Bin(k, Phi((t - sqrt(rho) s) / sqrt(1 - rho))), t the p-quantile: given
    s the k indicators are independent with that probability (Vasicek 2002).
    ar1 draws k latent normals per run and runs the recurrence. Either way
    the budget counts k draws per run, so more than 1e9 in k*runs raise
    BudgetError.
    """
    if plan.mode != MODE_COPULA:
        raise DomainError(
            f"correlated simulation requires mode={MODE_COPULA!r}, got {plan.mode!r}"
        )
    if plan.k < 1:
        raise DomainError("copula simulation needs k >= 1")
    check_unit("p", plan.p)
    total_draws = as_float("k * runs", plan.k * plan.runs)
    if total_draws > _DRAW_BUDGET:
        raise BudgetError(
            f"copula mode needs k*runs = {total_draws:.2e} latent draws (> {_DRAW_BUDGET:.0e})"
        )
    threshold = float(ndtri(plan.p))
    analytic = binomial_tail(plan.k, plan.p, plan.m)
    chunk = max(1, min(4096, (1 << 20) // plan.k))

    def tally(j: int, size: int) -> tuple[int, int, int]:
        counts = _latent_counts(_chunk_rng(plan.seed, j), size, plan.k, threshold, corr)
        return int((counts >= plan.m).sum()), int(counts.sum()), int((counts * counts).sum())

    alerts, total, total_sq = map(sum, zip(*_count(plan, chunk, workers, tally)))
    base = _finish(alerts, plan, analytic)
    n_tr = plan.runs
    mean_count = total / n_tr
    var_count = (total_sq - n_tr * mean_count * mean_count) / (n_tr - 1) if n_tr > 1 else 0.0
    return CorrelatedSimReport(**vars(base), mean_count=mean_count, count_variance=var_count)

