"""Seeded Monte Carlo validation of the analytic false-alert formulas.

Determinism contract: a report is a pure function of its plan, or for a
sweep of exact-system plans (figure panel A) of the sweep's plans. Trials are
partitioned into chunks whose size depends only on the plan, and chunk j
draws from an independent Philox stream keyed by (seed, j), so results are
bit-identical across runs and across any degree of parallelism: chunk
outputs are integer counts and integer sums, which combine identically in
any order. The `workers` argument changes wall-clock time only, never the
report. A binomial or Poisson alert chunk holds max(1, 2**18 // width) runs
of `width` values each (n for exact system rows, else 1), and at most 8192
runs when no law of the call has a cut; a copula chunk holds
max(1, min(4096, 2**20 // k)) runs.

Workers: a call runs its chunks in the calling thread plus up to
`workers - 1` helper threads of one pool shared by the whole process, all
taking chunks from one queue. A plan of one chunk never uses a thread.

Modes:
    binomial-exact     draw the k-attribute match count per individual
    poisson-approx     draw Poisson counts (per person, composed over n at system level)
    copula-correlated  correlated attributes via a latent Gaussian copula

The exchangeable copula draws one shared normal s per run and the count as
Bin(k, Phi((t - sqrt(rho) s) / sqrt(1 - rho))), the law of k latent
threshold crossings given s. AR(1) draws its k latent normals by inversion,
eps = Phi^-1((x + 1/2) 2**-53) of a 53-bit integer x per value, and counts
them without computing most of them: x's top 16 bits are one quarter of the
chunk's raw words, and the recurrence first runs on a [lo, hi] bracket
looked up per quarter. Only a run whose count differs between lo and hi
draws its 37 tie bits per value, after the chunk's quarters, and runs the
exact recurrence (1.2% of runs at k = 365, rho = 0.5, p = 0.025), so every
count is that of the inversion draw. Both copula kinds count k draws per
run against the draw budget, and both report the mean and variance of the
count, whose excess over k p (1 - p) is the design effect of the binary
correlation the latent rho induces.

Binomial and Poisson draws only ever feed an alert test count >= m. Each law
is built once per plan as one cut plus a fallback draw (`_binomial_law`,
`_poisson_law`), and `_alerts` decides a chunk for a list of laws from one
read of its stream: the one law of a plan, or every point of a sweep on
common random numbers, so that the points share their uniforms and a
point's alert flags contain those of every point with a higher cut. Where
the law is sampled by sequential-search inversion from one Philox double per
value (numpy's binomial walk for 0 < p <= 1/2, k p <= 30 and m up to numpy's
bound; the Poisson walk for 0 < k p <= 30, 1 <= m <= k p + 10 sqrt(k p + 1)),
that double is U 2**-53 of a 53-bit integer U, and the count reaches m
exactly when U reaches the law's cut, the smallest U whose walk passes the
first m terms. The walk runs only over those terms, so the law drawn is the
untruncated one the analytic tails compute: a U whose walk would pass
numpy's bound counts past bound >= m and alerts. The kernel spends 16 bits
per value: each raw word gives four 16-bit quarters, lowest first, and a
quarter is the top of its value's U. A quarter above the cut's top 16 bits
alerts and one below does not; a quarter equal to it (probability 2**-16)
takes the low 37 bits of U from the top of one more word, drawn after the
chunk's quarters, so each value alerts with probability exactly
Pr(U >= cut). A law without a cut (outside the regime) is drawn by the
fallback, from a fresh generator of the same (seed, j) stream. A row wider
than 2**18 values is drawn in blocks of at most 2**18 from the same stream,
so memory stays bounded. The grids in tests/test_simulate.py pin the cuts to
rng.binomial and to a replay of the Poisson walk element by element, so a
numpy upgrade that changes its sampler fails them loudly instead of moving a
result, and pin the kernel to a scalar reference that builds each U from its
quarter and tie bits.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from functools import cache, lru_cache
from math import exp, floor, inf, log1p, prod, sqrt
from queue import Empty, SimpleQueue
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

# Values a binomial or Poisson alert chunk draws (one run at least), and the
# most a wider row draws at once; part of the determinism contract. A
# multiple of 4, so that every block but the last ends on a word boundary.
_VALUES = 1 << 18

# Most runs of such a chunk when no law of it has a cut; part of the
# determinism contract.
_CHUNK = 8192

# A value's 53-bit uniform is U = quarter << _TIE_BITS | tie bits, its double
# U 2**-53. An alert law's cut is the smallest U that alerts, in [1, 2**53];
# 2**53 means no U does.
_TIE_BITS = 37

# No plan may make more than this many draws: every mode draws at least one
# value per run, exact system mode n per run and copula mode k per run.
_DRAW_BUDGET = 1_000_000_000

# Most threads a run may use, the calling thread included. The shared pool
# holds at most _MAX_WORKERS - 1 helpers and starts them only as needed.
_MAX_WORKERS = 32
_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = Lock()

# numpy's sampler limits: binomial size k is an int64, and Generator.poisson
# rejects a mean above int64 max - 10 sqrt(int64 max).
_INT64_MAX = 2**63 - 1
_POISSON_LAM_MAX = _INT64_MAX - sqrt(_INT64_MAX) * 10

# Relative outward pad of the AR(1) bucket edges: far above ndtri's error,
# far below a bucket's width (2**-16 of probability).
_EDGE_PAD = 1e-12


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


def _alert_cut(terms: list[float]) -> int:
    """Smallest U in [1, 2**53] whose walk from U 2**-53 passes every term.

    A bisection over the 53-bit grid, where 2**53 stands for no U. The walk's
    float sum lies within a few ulps per step of the cut, so the search first
    brackets 4 len(terms) + 8 grid points either side of it; if the walk does
    not confirm both ends, it falls back to the whole range. The walk is
    monotone in U, so both searches find the one U where it changes.
    """
    # invariant: the walk from lo stops short, the walk from hi does not
    # (hi = 2**53 stands in: no U reaches it)
    width = 4 * len(terms) + 8
    centre = floor(min(sum(terms), 1.0) * 2.0**53)
    lo, hi = max(0, centre - width), min(1 << 53, centre + width)
    if _walk_reaches(lo * 2.0**-53, terms) or (
        hi < 1 << 53 and not _walk_reaches(hi * 2.0**-53, terms)
    ):
        lo, hi = 0, 1 << 53
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _walk_reaches(mid * 2.0**-53, terms):
            hi = mid
        else:
            lo = mid
    return hi


def _binomial_law(k: int, p: float, m: int):
    """(cut or None, fallback draw) deciding Bin(k, p) >= m.

    numpy draws Bin(k, p) by inversion when 0 < p <= 1/2 and k p <= 30: one
    double per value, U 2**-53 as rng.random returns it, and the count
    reaches m exactly when U reaches the cut, where the walk passes its first
    m terms. The cut is None outside that regime, for m < 1 and for m
    beyond numpy's bound on the walk's length.

    Raises:
        RangeOverflowError: If the attribute count k does not fit numpy's
            int64 binomial size.
    """
    if k > _INT64_MAX:
        raise RangeOverflowError(f"binomial size k = {k:.3g} exceeds numpy's int64 limit")
    k = int(k)

    def draw(rng: np.random.Generator, shape) -> np.ndarray:
        return rng.binomial(k, p, shape) >= m

    if not (0.0 < p <= 0.5 and k >= 1 and p * k <= 30.0 and m >= 1):
        return None, draw
    q = 1.0 - p
    mean = k * p
    bound = int(min(float(k), mean + 10.0 * sqrt(mean * q + 1)))
    if m > bound:
        return None, draw
    # the px of numpy's random_binomial_inversion, in its float order
    px = exp(k * log1p(-p))
    terms = [px]
    for x in range(1, m):
        px = (float(k - x + 1) * p * px) / (x * q)
        terms.append(px)
    return _alert_cut(terms), draw


def _poisson_law(lam: float, m: int):
    """(cut or None, fallback draw) deciding Pois(lam) >= m.

    The sequential-search walk starts from px = e^-lam and steps
    px = px lam / x (Devroye 1986, Non-Uniform Random Variate Generation,
    X.3). The cut is None outside 0 < lam <= 30 and
    1 <= m <= lam + 10 sqrt(lam + 1), where the walk could grow long.

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
    return _alert_cut(terms), draw


def _quarters(gen, count: int) -> np.ndarray:
    """The 16-bit quarters of gen's next ceil(count / 4) raw words, lowest first.

    A count that is not a multiple of 4 leaves the top quarters of the last
    word unused.
    """
    return gen.random_raw((count + 3) // 4).astype("<u8", copy=False).view("<u2")[:count]


def _row_tops(gen, rows: int, width: int, tied: tuple[int, ...]):
    """(top, tie_rows, ties): each row's largest quarter, the rows whose top
    is in `tied`, and how many quarters of each such row equal its top.

    Rows are drawn in column blocks of at most _VALUES quarters. A chunk of
    more than one row has width at most _VALUES / 2, so it is one block, and
    the blocks of one row read the stream a single draw would.
    """
    top, seen = None, []
    for start in range(0, width, _VALUES):
        quarters = _quarters(gen, rows * min(_VALUES, width - start)).reshape(rows, -1)
        # a row of one value is its own peak, with no copy to make
        peak = quarters.max(axis=1) if quarters.shape[1] > 1 else quarters[:, 0]
        top = peak if top is None else np.maximum(top, peak)
        tie = np.zeros(rows, dtype=bool)
        for t in tied:
            tie |= peak == t
        hit = np.flatnonzero(tie)
        seen.append((hit, peak[hit], (quarters[hit] == peak[hit, None]).sum(axis=1)))
    if len(seen) == 1:
        # one block: its peaks are the rows' tops, so its ties are theirs
        hit, _, ties = seen[0]
        return top, hit, ties
    hit, peak, count = (np.concatenate(parts) for parts in zip(*seen))
    # a block's ties count only where its peak is the row's top
    keep = peak == top[hit]
    tie_rows, at = np.unique(hit[keep], return_inverse=True)
    ties = np.zeros(tie_rows.size, dtype=np.int64)
    np.add.at(ties, at, count[keep])
    return top, tie_rows, ties


def _fallback(rng: np.random.Generator, rows: int, width: int, draw) -> np.ndarray:
    """draw(rng, (rows, width)) reduced by any() along rows, in the column
    blocks _row_tops reads."""
    alerts = np.zeros(rows, dtype=bool)
    for start in range(0, width, _VALUES):
        alerts |= draw(rng, (rows, min(_VALUES, width - start))).any(axis=1)
        if alerts.all():
            # the rest of a row cannot clear its flag
            break
    return alerts


def _alerts(seed: int, j: int, shape: tuple[int, ...], laws: list) -> list[np.ndarray]:
    """Each law's count >= m for chunk j's stream: one array of flags per law,
    one flag per row of `shape`.

    A value alerts when the 53-bit uniform U its inversion walk reads reaches
    the law's cut, and a row when any of its values does. Each value
    gets one 16-bit quarter h of the chunk's raw words, the top 16 bits of
    its U, shared by every law. With (hi, lo) the top 16 and low 37 bits of
    a cut, h > hi alerts, and h == hi alerts if 37 tie bits reach lo (or
    at once when lo == 0). Only a row's largest quarters can decide it, so
    tie bits are drawn only for the quarters equal to the top of a row whose
    top ties any law's cut: after the chunk's quarters, one word per tie,
    rows in order, its top 37 bits. So each law sees its own exact draw, and
    where the cuts decrease along `laws` each row's flags can only turn on.
    A law without a cut is drawn by the fallback from a fresh generator.
    """
    rows, width = shape[0], prod(shape[1:])
    flags = [None] * len(laws)
    cuts = {i: divmod(cut, 1 << _TIE_BITS) for i, (cut, _) in enumerate(laws) if cut is not None}
    if cuts:
        gen = _chunk_rng(seed, j).bit_generator
        tied = tuple({hi for hi, lo in cuts.values() if lo})
        top, tie_rows, ties = _row_tops(gen, rows, width, tied)
        bits = gen.random_raw(int(ties.sum())) >> np.uint64(64 - _TIE_BITS)
        # only the largest tie bits of a row can decide it
        best = np.maximum.reduceat(bits, np.cumsum(ties) - ties)
        tops = top[tie_rows]
        for i, (hi, lo) in cuts.items():
            flags[i] = top > hi if lo else top >= hi
            flags[i][tie_rows[(tops == hi) & (best >= lo)]] = True
    for i, (cut, draw) in enumerate(laws):
        if cut is None:
            flags[i] = _fallback(_chunk_rng(seed, j), rows, width, draw)
    return flags


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


def _alert_reports(
    plans: list[SimPlan], workers: int, laws: list, analytics: list[float], row: tuple[int, ...] = ()
) -> list[SimReport]:
    """One report per plan, of the runs `_alerts` flags under its law; every
    plan shares the first plan's seed and runs, and each run draws a block of
    shape `row`.

    A chunk holds max(1, _VALUES // width) runs of `width` values each, and
    at most _CHUNK runs when no law has a cut.
    """
    chunk = max(1, _VALUES // prod(row))
    if all(law[0] is None for law in laws):
        # every value is a numpy draw, so a smaller chunk costs no more and
        # gives the workers more chunks to share
        chunk = min(chunk, _CHUNK)
    seed = plans[0].seed

    def tally(j: int, size: int) -> list[int]:
        return [int(np.count_nonzero(flags)) for flags in _alerts(seed, j, (size, *row), laws)]

    counts = map(sum, zip(*_count(plans[0], chunk, workers, tally)))
    return [_finish(c, plan, a) for c, plan, a in zip(counts, plans, analytics)]


def simulate_per_person(plan: SimPlan, workers: int = 1) -> SimReport:
    """Estimate the per-person alert probability Pr(count >= m).

    binomial-exact draws Bin(k, p) per trial; poisson-approx draws
    Pois(k*p), from one 16-bit quarter word per trial where _poisson_law
    gives a cut.
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
    return _alert_reports([plan], workers, [law], [analytic])[0]


def simulate_system(plan: SimPlan, workers: int = 1) -> SimReport:
    """Estimate the probability that at least one of n individuals alerts.

    binomial-exact simulates every individual's match count directly and is
    budget-capped at 1e9 individual draws. poisson-approx, the route for n
    beyond that budget, estimates the person-level q by simulate_per_person
    and composes 1 - (1 - q)^n analytically, by system_probability, for the
    estimate and the reference alike. Its draws check q, not the
    composition: z_score is the person-level z, and std_error is the delta
    method's n (1 - q)^(n-1) se(q).
    """
    if plan.mode == MODE_COPULA:
        raise DomainError("use simulate_correlated for copula plans")
    if plan.mode == MODE_POISSON:
        size = as_float("n", plan.n)
        person = simulate_per_person(plan, workers)
        q = person.estimate
        estimate, analytic = (system_probability(x, plan.n)[0] for x in (q, person.analytic))
        # se(q) is 0 at q = 1, where log1p(-q) would fail
        se = size * exp((size - 1.0) * log1p(-q)) * person.std_error if q < 1.0 else 0.0
        diff = abs(estimate - analytic)
        return replace(person, estimate=estimate, std_error=se, analytic=analytic, abs_error=diff)
    return _exact_system([plan], workers)[0]


def _exact_system(plans: list[SimPlan], workers: int) -> list[SimReport]:
    """One binomial-exact system report per plan, for plans that share seed,
    runs and n.

    Every plan reads the same chunk streams (common random numbers): each
    run is a row of n individuals, and one read of a chunk's quarters
    decides every plan's law (see _alerts).
    """
    n = plans[0].n
    total_draws = as_float("n * runs", n * plans[0].runs)
    if total_draws > _DRAW_BUDGET:
        raise BudgetError(
            f"exact mode needs n*runs = {total_draws:.2e} individual "
            f"draws (> {_DRAW_BUDGET:.0e}); reduce runs or use "
            f"mode={MODE_POISSON!r}"
        )
    laws = [_binomial_law(plan.k, plan.p, plan.m) for plan in plans]
    analytics = [system_probability(binomial_tail(plan.k, plan.p, plan.m), n)[0] for plan in plans]
    return _alert_reports(plans, workers, laws, analytics, (n,))


def _latent_values(x: np.ndarray) -> np.ndarray:
    """eps(x) = ndtri((x + 1/2) 2**-53) for 53-bit integers x (uint64), which
    it overwrites.

    The upper half is -eps(2**53 - 1 - x), so x + 1/2 stays exact in a
    double, the draw is symmetric bit for bit and both ends are finite
    (about +-8.29).
    """
    upper = x >= np.uint64(1 << 52)
    np.subtract(np.uint64((1 << 53) - 1), x, out=x, where=upper)
    e = x.astype(np.float64)
    e += 0.5
    e *= 2.0**-53
    ndtri(e, out=e)
    return np.negative(e, out=e, where=upper)


def _ar1_tables(rho: float) -> tuple[float, np.ndarray, np.ndarray]:
    """(scale, first, step), read-only, for an ar1 draw with this rho.

    scale = sqrt(1 - rho**2). first is the (65536, 2) table of [lo, hi] over
    each 16-bit quarter's values of x: eps at the smallest and largest x,
    padded outward by _EDGE_PAD (1 + |edge|), so it holds every eps of the
    quarter even where ndtri misses monotonicity by a few ulps. It brackets
    a run's first value, and step = scale * first brackets each later
    value's term scale * eps. first is built by the first ar1 plan of the
    process (~3.4 ms), and step is kept for the last scale asked for.
    """
    scale = sqrt(1.0 - rho**2)
    return scale, _ar1_edges(), _ar1_step(scale)


@cache
def _ar1_edges() -> np.ndarray:
    low = np.arange(1 << 16, dtype=np.uint64) << np.uint64(_TIE_BITS)
    edges = _latent_values(np.stack([low, low + np.uint64((1 << _TIE_BITS) - 1)], axis=1))
    edges += np.array([-_EDGE_PAD, _EDGE_PAD]) * (1.0 + np.abs(edges))
    edges.flags.writeable = False
    return edges


@lru_cache(maxsize=1)
def _ar1_step(scale: float) -> np.ndarray:
    step = scale * _ar1_edges()
    step.flags.writeable = False
    return step


def _latent_counts(
    rng: np.random.Generator,
    size: int,
    k: int,
    threshold: float,
    corr: LatentCorrelation,
) -> np.ndarray:
    """Match counts for `size` trials under the latent-Gaussian copula.

    exchangeable draws one shared normal and one binomial per run. ar1 runs
    x_0 = eps_0, x_t = rho x_(t-1) + scale eps_t, scale = sqrt(1 - rho**2),
    in that float order, with eps = _latent_values of a 53-bit x per value:
    one 16-bit quarter of the stream's raw words, laid out (k, size), then
    37 tie bits. The recurrence first runs on the [lo, hi] bracket that
    _ar1_tables gives each quarter, swapping the pair when rho < 0. Rounding
    is monotone, so the bracket holds the double the exact recurrence
    computes, and a run whose count is the same at lo and at hi has that
    count. Each other run takes its tie bits from k more words, drawn after
    the chunk's quarters, runs in order, the top 37 bits of each, and runs
    the exact recurrence. So every count is the count of the inversion draw.
    """
    if corr.kind == "exchangeable":
        # given the shared factor s the k indicators are independent, each
        # Bernoulli(Phi((threshold - sqrt(rho) s) / sqrt(1 - rho)))
        shared = rng.standard_normal(size)
        p_given_s = ndtr((threshold - sqrt(corr.rho) * shared) / sqrt(1.0 - corr.rho))
        return rng.binomial(k, p_given_s)
    rho = corr.rho
    scale, first, step = _ar1_tables(rho)
    gen = rng.bit_generator
    quarters = _quarters(gen, k * size).reshape(k, size)
    # take, not fancy indexing, gathers the (lo, hi) pairs at memory speed
    bounds = step.take(quarters, axis=0)
    bounds[0] = first.take(quarters[0], axis=0)
    for t in range(1, k):
        # rho < 0 sends the previous hi to the new lo
        bounds[t] += rho * (bounds[t - 1] if rho >= 0.0 else bounds[t - 1, :, ::-1])
    # columns: the count with every value at lo (the most) and at hi (the
    # least); an int32 sum takes a third of the time of count_nonzero
    counts = (bounds <= threshold).sum(axis=0, dtype=np.int32)
    # free 16 bytes a value before the exact path draws its own
    del bounds
    open_runs = np.flatnonzero(counts[:, 0] != counts[:, 1])
    if open_runs.size:
        x = quarters[:, open_runs].astype(np.uint64) << np.uint64(_TIE_BITS)
        x |= gen.random_raw((open_runs.size, k)).T >> np.uint64(64 - _TIE_BITS)
        latent = _latent_values(x)
        latent[1:] *= scale
        for t in range(1, k):
            latent[t] += rho * latent[t - 1]
        counts[open_runs, 0] = np.count_nonzero(latent <= threshold, axis=0)
    return counts[:, 0].astype(np.int64)


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
    ar1 runs the recurrence x_t = rho x_(t-1) + sqrt(1 - rho**2) eps_t over k
    latent normals drawn by inversion from 16-bit quarters, on float brackets
    that decide almost every run's count, and exactly for the rest (see
    _latent_counts); its bracket tables are ready before any chunk runs.
    Either way the budget counts k draws per run, so more than 1e9 in k*runs
    raise BudgetError.
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
    if corr.kind == "ar1":
        # built here, so the chunks' threads only read them
        _ar1_tables(corr.rho)

    def tally(j: int, size: int) -> tuple[int, int, int]:
        counts = _latent_counts(_chunk_rng(plan.seed, j), size, plan.k, threshold, corr)
        alerts = int(np.count_nonzero(counts >= plan.m))
        return alerts, int(counts.sum()), int((counts * counts).sum())

    alerts, total, total_sq = map(sum, zip(*_count(plan, chunk, workers, tally)))
    base = _finish(alerts, plan, analytic)
    n_tr = plan.runs
    mean_count = total / n_tr
    var_count = (total_sq - n_tr * mean_count * mean_count) / (n_tr - 1) if n_tr > 1 else 0.0
    return CorrelatedSimReport(**vars(base), mean_count=mean_count, count_variance=var_count)

