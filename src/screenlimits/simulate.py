"""Seeded Monte Carlo validation of the analytic false-alert formulas.

Determinism contract: a report is a pure function of its plan. Trials are
partitioned into chunks whose size depends only on the plan, and chunk j
draws from an independent Philox stream keyed by (seed, j), so results are
bit-identical across runs and across any degree of parallelism: chunk
outputs are integer counts and integer sums, which combine identically in
any order. The `workers` argument changes wall-clock time only, never the
report. A binomial or Poisson alert chunk holds max(1, 2**18 // width) runs
of `width` values each (n for exact system rows, else 1), and at most 8192
runs when its law has no word cuts; a copula chunk holds
max(1, min(4096, 2**20 // k)) runs.

Workers: a call runs its chunks in the calling thread plus up to
`workers - 1` helper threads of one pool shared by the whole process, all
taking chunks from one queue. A plan of one chunk never uses a thread.

Modes:
    binomial-exact     draw the k-attribute match count per individual
    poisson-approx     draw Poisson counts (or Binomial(n, q) at system level)
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

Binomial and Poisson draws only ever feed an alert test count >= m. Each
law is built once per plan as raw-word cuts plus a fallback draw
(`_binomial_law`, `_poisson_law`), and one kernel, `_alerts`, decides every
chunk from them. Where the law is sampled by sequential-search inversion
from one Philox double per value (numpy's binomial for 0 < p <= 1/2,
n p <= 30; the Poisson walk for 0 < k p <= 30, 1 <= m <= k p +
10 sqrt(k p + 1)), the count reaches m exactly when the 53-bit uniform U
behind that double reaches a cut, the raw 64-bit word cut shifted right by
11 bits. The kernel spends 16 bits per value: each raw word gives four
16-bit quarters, lowest first, and a quarter is the top of its value's U. A
quarter above the cut's top 16 bits alerts and one below does not; a
quarter equal to it (probability 2**-16) takes the low 37 bits of U from
the top of one more word, drawn after the chunk's quarters, so each value
alerts with probability exactly Pr(U >= cut). The same test against the
restart cut, whose top 16 bits are all ones (so a chunk of 2**18 values
meets ~4 of its ties), sends a binomial chunk whose walk would have
restarted to the fallback, which draws it again from a fresh generator of
the same (seed, j) stream, as it draws every chunk outside the regime.
That redraw reads the stream the restart test read, so the sampled law is
exact when no value reaches the restart cut and otherwise differs from it
by at most the chance of a restart in the chunk, below 1e-12 per value. A
row wider than 2**18 values is drawn in blocks of at most 2**18 from the
same stream, so memory stays bounded. The grids in tests/test_simulate.py
pin the word cuts to rng.binomial and to a replay of the Poisson walk
element by element, so a numpy upgrade that changes its sampler fails them
loudly instead of moving a result, and pin the kernel to a scalar
reference that builds each U from its quarter and tie bits.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cache, lru_cache
from math import exp, floor, inf, log1p, prod, sqrt
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

# Values a binomial or Poisson alert chunk draws (one run at least), and the
# most a wider row draws at once; part of the determinism contract. A
# multiple of 4, so that every block but the last ends on a word boundary.
_VALUES = 1 << 18

# Most runs of such a chunk when its law has no word cuts; part of the
# determinism contract.
_CHUNK = 8192

# A 53-bit uniform is a 16-bit quarter followed by this many tie bits.
_TIE_BITS = 37

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
    X.3); it never restarts, so its restart word is 2**64, which no word
    reaches. The cuts are None outside 0 < lam <= 30 and
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
    return (_word_cut(_last_short_walk(terms)), 1 << 64), draw


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


def _alerts(seed: int, j: int, shape: tuple[int, ...], law) -> np.ndarray:
    """The law's count >= m for chunk j's stream, one flag per row of `shape`.

    A value alerts when the 53-bit uniform U its inversion walk reads reaches
    the alert word's U, and a row when any of its values does. Each value
    gets one 16-bit quarter h of the chunk's raw words, the top 16 bits of
    its U. With (hi, lo) the top 16 and low 37 bits of the cut's U, h > hi
    alerts, and h == hi alerts if 37 tie bits reach lo (or at once when
    lo == 0). Only a row's largest quarters can decide it, so tie bits are
    drawn only for the quarters equal to the top of a row whose top is a
    tie: after the chunk's quarters, one word per tie, rows in order, its
    top 37 bits. If a U reaches a binomial law's restart word, numpy's walk
    would have restarted, so the chunk is drawn again by the fallback from a
    fresh generator.
    """
    cuts, draw = law
    rows, width = shape[0], prod(shape[1:])
    rng = _chunk_rng(seed, j)
    if cuts is not None:
        gen = rng.bit_generator
        (hi, lo), (rhi, rlo) = (divmod(cut >> 11, 1 << _TIE_BITS) for cut in cuts)
        tied = tuple(t for t, low in ((hi, lo), (rhi, rlo)) if low)
        top, tie_rows, ties = _row_tops(gen, rows, width, tied)
        peak = int(top.max())
        restart = peak > rhi or (peak == rhi and not rlo)
        if not restart:
            alerts = top > hi if lo else top >= hi
            if tie_rows.size:
                bits = gen.random_raw(int(ties.sum())) >> np.uint64(64 - _TIE_BITS)
                # only the largest tie bits of a row can decide it
                best = np.maximum.reduceat(bits, np.cumsum(ties) - ties)
                tops = top[tie_rows]
                restart = bool(np.any((tops == rhi) & (best >= rlo)))
                alerts[tie_rows[(tops == hi) & (best >= lo)]] = True
            if not restart:
                return alerts
        rng = _chunk_rng(seed, j)
    return _fallback(rng, rows, width, draw)


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
    plan: SimPlan, workers: int, law, analytic: float, row: tuple[int, ...] = ()
) -> SimReport:
    """The report of the runs `_alerts` flags under `law`; each run draws a block of shape `row`.

    A chunk holds max(1, _VALUES // width) runs of `width` values each, and
    at most _CHUNK runs when the law has no word cuts.
    """
    chunk = max(1, _VALUES // prod(row))
    if law[0] is None:
        # every value is a numpy draw, so a smaller chunk costs no more and
        # gives the workers more chunks to share
        chunk = min(chunk, _CHUNK)

    def tally(j: int, size: int) -> int:
        return int(np.count_nonzero(_alerts(plan.seed, j, (size, *row), law)))

    return _finish(sum(_count(plan, chunk, workers, tally)), plan, analytic)


def simulate_per_person(plan: SimPlan, workers: int = 1) -> SimReport:
    """Estimate the per-person alert probability Pr(count >= m).

    binomial-exact draws Bin(k, p) per trial; poisson-approx draws
    Pois(k*p), from one 16-bit quarter word per trial where _poisson_law
    gives cuts.
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
        # each run is a row of n individuals
        args, row = (plan.k, plan.p, plan.m), (plan.n,)
    else:
        # each run draws its alert count as Bin(n, q) and alerts when it is >= 1
        q = poisson_tail(as_float("k", plan.k) * plan.p, plan.m)
        args, row = (plan.n, q, 1), ()
    analytic, _ = system_probability(q, plan.n)
    return _alert_report(plan, workers, _binomial_law(*args), analytic, row)


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

