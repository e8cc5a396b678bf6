"""Seeded workload generators.

Each generator writes its scenario configs into a work directory and returns
a ``Workload``: warm-up ops, then the timed stream as a list of cycles. A
cycle has the same mix of op classes for every seed; the seed only moves the
parameters inside narrow ranges, so one run's cost is close to another's
and the figures are comparable across seeds.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from scipy.special import gammainc
from scipy.stats import binom, poisson

ANALYTIC_KINDS = ("tail", "system", "phase-scan", "lifetime", "cohort", "bayes", "effdim")
MIX_CYCLES = 16  # distinct scenario-mix cycles, each with its own seeded parameters
# monte-carlo runs every simulate config at these shares of its full run count.
# The op latencies then fill their range without gaps, so the median op does
# not jump from one config to the next when the host slows the 2-worker ops.
RUN_SCALES = (0.25, 0.35, 0.5, 0.71)


@dataclass
class Op:
    """One ``cli.main`` call and what its output must satisfy."""

    key: str  # identity of the output bytes: repeats and worker counts must match
    argv: list
    kind: str
    expect_exit: int = 0
    out: Path | None = None  # output file (scenario/golden) or directory (figures)
    fmt: str = "csv"
    draws: int = 0  # random variates the op consumes
    workers: int = 1
    z_check: bool = False  # sampled law equals the analytic reference


@dataclass
class Workload:
    name: str
    warmup: list = field(default_factory=list)
    cycles: list = field(default_factory=list)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _reliable_population(rng: random.Random, q0: float, n_max: float) -> int | None:
    """A population of 10..n_max with n * q0 < 0.5, so a lifetime solve has a root."""
    n = int(_log_uniform(rng, 10.0, n_max))
    while n >= 100 and n * q0 >= 0.5:
        n //= 10
    return n if n * q0 < 0.5 else None


def _threshold_for_alerts(n: int, sf) -> int:
    """Smallest m whose expected alert count n * sf(m - 1) is at most 1.5."""
    m = 1
    while n * sf(m - 1) > 1.5:
        m += 1
    return m


def _rate(c: float) -> float:
    return c * math.log(c) - c + 1.0


class ConfigWriter:
    """Writes config files and builds scenario ops that point at them."""

    def __init__(self, work: Path):
        self.cfg_dir = work / "cfg"
        self.out_dir = work / "out"
        self.cfg_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def scenario(self, kind: str, params: dict, sink: str = "stdout", fmt: str = "csv",
                 **op_fields) -> Op:
        self.count += 1
        name = f"c{self.count:05d}"
        cfg = self.cfg_dir / f"{name}.json"
        doc_kind = "phase" if kind == "phase-scan" else kind
        cfg.write_text(json.dumps({"name": name, "kind": doc_kind, "parameters": params}))
        argv = [kind, "--config", str(cfg), "--format", fmt]
        out = None
        if sink == "file":
            out = self.out_dir / f"{name}.{fmt}"
            argv += ["--out", str(out)]
        key = f"{self.cfg_dir.parent.name}/{name}:{sink}:{fmt}"
        return Op(key=key, argv=argv, kind=kind, out=out, fmt=fmt, **op_fields)


# ---------------------------------------------------------------- scenario-mix

def _mix_params(kind: str, rng: random.Random, variant: int) -> dict:
    if kind == "tail":
        lam = _log_uniform(rng, 0.5, 100.0)
        if variant == 0:
            return {"lambda": lam, "m": math.ceil(lam * rng.uniform(1.2, 3.0))}
        if variant == 1:
            return {"lambda": lam, "c": rng.uniform(1.2, 3.0)}
        return {"lambda": lam, "m": math.floor(lam * rng.uniform(0.3, 0.95))}
    if kind == "system":
        p = _log_uniform(rng, 1e-3, 0.05)
        k = rng.randint(50, max(51, int(100.0 / p)))
        params = {"k": k, "p": p, "n": int(_log_uniform(rng, 10.0, 1e9))}
        if variant == 1:
            params["c"] = rng.uniform(1.2, 3.0)
        else:
            params["m"] = math.ceil(k * p * rng.uniform(1.2, 3.0))
        return params
    if kind == "phase-scan":
        c = rng.uniform(1.3, 3.0)
        alpha = rng.uniform(0.4, 1.6)
        lam_max = min(100.0, 50.0 / (alpha * _rate(c)))
        lambdas = sorted(rng.uniform(0.5, lam_max) for _ in range(rng.randint(5, 20)))
        return {"lambdas": lambdas, "c": c, "alpha": alpha}
    if kind == "lifetime":
        lam0 = _log_uniform(rng, 0.1, 5.0)
        p = _log_uniform(rng, 1e-3, 0.02)
        m = math.ceil(lam0 * rng.uniform(2.0, 20.0)) + 1
        params = {"k0": max(1.0, lam0 / p), "gamma": rng.uniform(1.1, 3.0), "p": p, "m": m}
        if variant != 1:
            n = _reliable_population(rng, float(gammainc(m, params["k0"] * p)), 1e6)
            if n is not None:
                params["n"] = n
        return params
    if kind == "cohort":
        groups = [
            {"label": f"g{j}", "n": int(_log_uniform(rng, 1e3, 1e6)), "p": _log_uniform(rng, 1e-3, 0.03)}
            for j in range(rng.randint(2, 4))
        ]
        p_max = max(g["p"] for g in groups)
        k = rng.randint(50, max(51, int(60.0 / p_max)))
        p_mean = sum(g["p"] for g in groups) / len(groups)
        return {"groups": groups, "k": k, "m": math.ceil(k * p_mean * rng.uniform(1.2, 3.0))}
    if kind == "bayes":
        r = rng.uniform(1.0, 100.0)
        return {
            "r": r,
            "s": rng.uniform(0.5, 1.0),
            "alpha": rng.uniform(0.5, 0.99),
            "q": _log_uniform(rng, 1e-12, 1e-3),
            "n": int(_log_uniform(rng, max(1e3, r), 1e9)),
        }
    # effdim: one correlation source per variant
    params = {"p": _log_uniform(rng, 1e-3, 0.05), "c": rng.uniform(1.2, 3.0)}
    if variant == 2:
        k = rng.randint(5, 40)
        base = rng.uniform(0.1, 0.9)
        params.update(k=k, rho=[base**h for h in range(1, k)])
        return params
    k = rng.randint(20, 2000)
    params["k"] = k
    if variant == 0:
        params["tau"] = rng.uniform(0.5, 50.0)
    elif variant == 1:
        params["k_eff"] = rng.uniform(1.0, float(k))
    else:
        xi = rng.uniform(10.0, 1000.0)
        params.update(xi=xi, area=rng.uniform(1.0, float(k)) * 2.0 * math.pi * xi * xi)
    return params


def scenario_mix(seed: int, work: Path) -> Workload:
    """Seven analytic kinds x {file, stdout} x {csv, json}, plus one golden per cycle."""
    rng = random.Random(seed)
    w = ConfigWriter(work)
    sinks = [(s, f) for s in ("file", "stdout") for f in ("csv", "json")]
    golden_sinks = [("stdout", "table"), ("file", "csv"), ("file", "json")]
    cycles = []
    for c in range(MIX_CYCLES):
        cycle = []
        for j, (sink, fmt) in enumerate(sinks):
            for kind in ANALYTIC_KINDS:
                variant = (c + j) % (4 if kind == "effdim" else 3)
                cycle.append(w.scenario(kind, _mix_params(kind, rng, variant), sink, fmt))
        sink, fmt = golden_sinks[c % len(golden_sinks)]
        if sink == "stdout":
            cycle.append(Op(key="golden:stdout", argv=["golden"], kind="golden",
                            expect_exit=1, fmt="table"))
        else:
            out = w.out_dir / f"golden.{fmt}"
            cycle.append(Op(key=f"golden:{fmt}", argv=["golden", "--out", str(out), "--format", fmt],
                            kind="golden", expect_exit=1, out=out, fmt=fmt))
        rng.shuffle(cycle)
        cycles.append(cycle)
    return Workload("scenario-mix", warmup=list(cycles[0]), cycles=cycles)


# ----------------------------------------------------------------- monte-carlo

def _centered_binomial(rng: random.Random, k: int, mean: tuple[float, float]) -> tuple[float, int]:
    """p and m for Bin(k, p) with a mean in the given range and a tail in [0.05, 0.95]."""
    while True:
        p = rng.uniform(*mean) / k
        lam = k * p
        m = max(1, round(lam + rng.uniform(-1.0, 1.0) * math.sqrt(lam)))
        if 0.05 <= binom.sf(m - 1, k, p) <= 0.95:
            return p, m


def monte_carlo(seed: int, work: Path) -> Workload:
    """figures --runs 5000 plus simulate configs for every mode, each at 1 and 2 workers."""
    rng = random.Random(seed)
    w = ConfigWriter(work)
    fig_dir = w.out_dir / "figures"
    configs = []

    def simulate(target: str, params: dict, draws: int, z_check: bool) -> None:
        params = {"target": target, "seed": rng.getrandbits(32), **params}
        configs.append((params, draws, z_check))

    # Narrow ranges: numpy's sampler cost grows with the mean count, so the
    # draw cost of each config barely moves with the seed.
    for scale in RUN_SCALES:
        runs = round(2000 * scale)
        k = rng.randint(190, 210)
        m = _threshold_for_alerts(500, lambda x: binom.sf(x, k, 0.01))
        simulate("system", {"k": k, "p": 0.01, "m": m, "n": 500, "runs": runs,
                            "mode": "binomial-exact"}, runs * 500, True)
        runs = round(10**6 * scale)
        for mode in ("binomial-exact", "poisson-approx"):
            k = rng.randint(900, 1100)
            p, m = _centered_binomial(rng, k, mean=(4.5, 5.5))
            simulate("person", {"k": k, "p": p, "m": m, "runs": runs, "mode": mode}, runs, True)
        k = rng.randint(900, 1100)
        p = rng.uniform(4.5, 5.5) / k
        m = _threshold_for_alerts(100, lambda x: poisson.sf(x, k * p))
        simulate("system", {"k": k, "p": p, "m": m, "n": 100, "runs": runs,
                            "mode": "poisson-approx"}, runs, True)
        runs = round(10**4 * scale)
        for kind, shared in (("ar1", 0), ("exchangeable", 1)):
            p = rng.uniform(0.02, 0.03)
            corr = {"kind": kind, "rho": rng.uniform(0.4, 0.6)}
            simulate("correlated", {"k": 365, "p": p, "m": math.ceil(365 * p * 1.5), "runs": runs,
                                    "mode": "copula-correlated", "correlation": corr},
                     runs * (365 + shared), False)

    panel_a_draws = 5000 * 500 * 18  # runs x n x attribute-count points
    base = [w.scenario("simulate", params, draws=draws, z_check=z_check)
            for params, draws, z_check in configs]
    fig_argv = ["figures", "--runs", "5000", "--seed", str(seed), "--out", str(fig_dir)]
    fig = Op(key="figures", argv=fig_argv, kind="figures", out=fig_dir, fmt="panels",
             draws=panel_a_draws)

    def at(op: Op, workers: int) -> Op:
        return replace(op, argv=[*op.argv, "--workers", str(workers)], workers=workers)

    cycles = [[at(op, wk) for op in [fig, *base] for wk in order] for order in ((1, 2), (2, 1))]
    warm_fig = Op(key="figures-warmup", argv=["figures", "--runs", "100", "--seed", str(seed),
                                              "--out", str(w.out_dir / "figures-warmup")],
                  kind="figures", out=w.out_dir / "figures-warmup", fmt="panels")
    warmup = [warm_fig, *(at(op, 2) for op in base)]
    return Workload("monte-carlo", warmup=warmup, cycles=cycles)


GENERATORS = {"scenario-mix": scenario_mix, "monte-carlo": monte_carlo}
