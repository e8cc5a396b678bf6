"""Config-driven scenario execution with validated schemas and manifests.

A scenario is a JSON document naming a computation kind plus its parameter
map. Each kind is one entry of a declarative table: the parameters it
requires, the ones it accepts optionally (each with a type spec), and the
compute function that turns the typed parameters into rows of
``{column: value}``. Parameter maps are validated strictly: unknown keys,
missing keys, wrong JSON types and non-finite numbers are schema errors;
numeric range violations surface from the compute modules as domain errors.
The split matters because the CLI maps the two classes to different exit
codes.

Every file written gets a sibling ``<name>.manifest.json`` recording the
resolved parameters, seed, package version, and the sha256 of the output
bytes. Manifests contain nothing clock- or path-dependent, so a rerun with
identical inputs is byte-identical, manifest included.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field
from math import inf
from pathlib import Path

from .bayes import BayesContext, bayes_critical_population, classify_regime, ppv
from .cohorts import CohortGroup, CohortProfile, cohort_system_risk
from .effdim import (
    HEURISTIC_NOTE,
    SpatialCorrelation,
    TemporalCorrelation,
    adjusted_limits,
    k_eff_spatial,
    k_eff_temporal,
)
from .errors import RangeOverflowError, SchemaError, check_positive
from .lifetime import GrowthModel, critical_time_analytic, critical_time_corrected
from .simulate import (
    LatentCorrelation,
    SimPlan,
    simulate_correlated,
    simulate_per_person,
    simulate_system,
)
from .system import ScreeningConfig, phase_scan, system_risk
from .tableio import format_cell, render_rows, write_artifact
from .tails import log_poisson_tail, poisson_tail, tail_estimate, threshold_for_ratio

__all__ = [
    "SCENARIO_KINDS",
    "Scenario",
    "ScenarioResult",
    "load_scenario",
    "execute",
    "render_result",
    "run_scenario",
]

_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class Scenario:
    """One validated-on-execution computation request."""

    name: str
    kind: str
    parameters: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ScenarioResult:
    """Computed rows plus everything the writers and manifest need.

    Every row maps the same columns, in order, to their values; `parameters`
    is the resolved-parameter record written to the output and manifest.
    """

    comments: list[str]
    rows: list[dict]
    summary: dict
    parameters: dict


def _parse(value, spec, key: str):
    """Check one value against its type spec and return it typed.

    A spec is float, int or str; a one-element list [item spec] for a
    nonempty list; or a dict {key: spec} for an object whose keys are all
    required. Numbers must be finite: NaN, Infinity and literals that
    overflow a double are rejected here, before any computation.
    """
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise SchemaError(f"parameter {key!r} must be an object, got {value!r}")
        return _fields(value, spec, {})
    if isinstance(spec, list):
        if not isinstance(value, list) or not value:
            raise SchemaError(f"parameter {key!r} must be a nonempty list, got {value!r}")
        return [_parse(item, spec[0], key) for item in value]
    if spec is str:
        if not isinstance(value, str):
            raise SchemaError(f"parameter {key!r} must be a string, got {value!r}")
        return value
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    # abs(v) <= max is False for NaN and infinities, and compares huge ints exactly
    if not numeric or not abs(value) <= sys.float_info.max:
        raise SchemaError(f"parameter {key!r} must be a finite number, got {value!r}")
    if spec is int:
        if value != int(value):
            raise SchemaError(f"parameter {key!r} must be an integer, got {value!r}")
        return int(value)
    return float(value)


def _fields(params: dict, required: dict, optional: dict) -> dict:
    """Check keys against the required and optional specs; parse each value."""
    unknown = sorted(set(params) - set(required) - set(optional))
    if unknown:
        raise SchemaError(f"unknown parameter(s): {', '.join(unknown)}")
    missing = sorted(set(required) - set(params))
    if missing:
        raise SchemaError(f"missing parameter(s): {', '.join(missing)}")
    specs = {**required, **optional}
    return {key: _parse(value, specs[key], key) for key, value in params.items()}


def _exactly_one(params: dict, keys: tuple[str, ...]) -> str:
    present = [k for k in keys if k in params]
    if len(present) != 1:
        raise SchemaError(f"exactly one of {keys} must be given, got {present or 'none'}")
    return present[0]


# Each compute takes the parsed parameters and returns (comments, rows,
# summary). The parameters it leaves behind are the resolved record: tail
# and system replace a ratio c by the threshold m it resolves to, lifetime
# and simulate fill in their documented defaults.


def _tail(p: dict):
    if _exactly_one(p, ("m", "c")) == "c":
        p["m"] = threshold_for_ratio(p["lambda"], p.pop("c"))
    lam, m = p["lambda"], p["m"]
    check_positive("lam", lam)
    c = m / lam
    if c == inf:
        raise RangeOverflowError(f"ratio c = m / lam overflows a double: m={m}, lam={lam}")
    # at or below the mean there is no large-deviation sandwich to report
    est = tail_estimate(lam, m) if m > lam else None
    exact = est.exact if est is not None else poisson_tail(lam, m)
    log_exact = est.log_exact if est is not None else log_poisson_tail(lam, m)
    row = {
        "lam": lam,
        "m": m,
        "c": c,
        "exact": exact,
        "chernoff_upper": getattr(est, "chernoff_upper", ""),
        "robbins_lower": getattr(est, "robbins_lower", ""),
        "log_exact": log_exact,
        "exponent": getattr(est, "exponent", ""),
    }
    return ["upper-tail probability with sandwich bounds"], [row], {}


_SYSTEM_COLUMNS = ("n", "m", "lam", "q", "expected", "prob", "lower", "upper", "log_complement")
_PHASE_COLUMNS = ("lam", "n", "m", "q", "prob", "lower", "upper")


def _system(p: dict):
    _exactly_one(p, ("m", "c"))
    config = ScreeningConfig(k=p["k"], p=p["p"], n=p["n"], m=p.get("m"), c=p.pop("c", None))
    risk = system_risk(config)
    p["m"] = risk.m
    row = {"k": config.k, "p": config.p, **{c: getattr(risk, c) for c in _SYSTEM_COLUMNS}}
    return ["system-level false-alert probability with bounds"], [row], {}


def _phase(p: dict):
    points = phase_scan(p["lambdas"], p["c"], p["alpha"])
    comment = f"population phase scan at alpha={format_cell(p['alpha'])}, c={format_cell(p['c'])}"
    return [comment], [{c: getattr(pt, c) for c in _PHASE_COLUMNS} for pt in points], {}


def _lifetime(p: dict):
    model = GrowthModel(k0=p["k0"], gamma=p["gamma"], p=p["p"])
    m = p["m"]
    level = p.setdefault("criterion_level", 1.0)
    t_analytic = critical_time_analytic(model, m)
    report = critical_time_corrected(model, m, p["n"], criterion_level=level) if "n" in p else None
    row = {
        "k0": model.k0,
        "gamma": model.gamma,
        "p": model.p,
        "m": m,
        "n": p.get("n", ""),
        "criterion_level": level,
        "t_star_analytic": t_analytic,
    }
    # an analytic-only request (no n) leaves the population-corrected cells empty
    for column in (
        "t_star_corrected",
        "lambda_at_failure",
        "correction_magnitude",
        "closed_form_lambda",
    ):
        row[column] = getattr(report, column, "")
    return ["system lifetime under geometric attribute growth"], [row], {}


def _cohort(p: dict):
    profile = CohortProfile(
        groups=tuple(CohortGroup(label=g["label"], size=g["n"], p=g["p"]) for g in p["groups"])
    )
    risk = cohort_system_risk(profile, k=p["k"], m=p["m"])
    rows = [
        {"label": g.label, "n": g.n, "lam": g.lam, "q": g.q, "mass": g.expected, "share": g.share}
        for g in risk.groups
    ]
    summary = {
        "exact": risk.exact,
        "poisson_approx": risk.poisson_approx,
        "total_mass": risk.total_mass,
        **asdict(risk.dominance),
    }
    return ["per-group false-alert decomposition"], rows, summary


def _bayes(p: dict):
    ctx = BayesContext(**p)
    post = ppv(ctx)
    verdict = classify_regime(ctx)
    n_crit = bayes_critical_population(ctx.r, ctx.s, ctx.alpha, ctx.q)
    pi = ctx.r / ctx.n
    row = {
        "n": ctx.n,
        "pi": pi,
        "nq": verdict.nq,
        "rs": verdict.rs,
        "ppv_exact": post.ppv,
        "ppv_sparse": post.sparse_ppv,
        "fdr": post.fdr,
        "regime": verdict.regime,
        "frequentist_reliable": verdict.frequentist_reliable,
        "n_crit": n_crit,
        "sparse_prior": pi <= 0.01,
    }
    return ["posterior reliability of an alert"], [row], {}


def _effdim(p: dict):
    if ("area" in p) != ("xi" in p):
        raise SchemaError("spatial input requires both 'area' and 'xi'")
    source = _exactly_one(p, ("k_eff", "tau", "rho", "area"))
    k = p["k"]
    if source == "k_eff":
        k_eff = p["k_eff"]
    elif source == "tau":
        k_eff = k_eff_temporal(TemporalCorrelation(k=k, tau=p["tau"]))
    elif source == "rho":
        k_eff = k_eff_temporal(TemporalCorrelation(k=k, rho=tuple(p["rho"])))
    else:
        k_eff = k_eff_spatial(SpatialCorrelation(area=p["area"], xi=p["xi"]))
    base = adjusted_limits(k, p["p"], p["c"], float(k))
    adj = adjusted_limits(k, p["p"], p["c"], k_eff)
    row = {
        "k": k,
        "k_eff": adj.k_eff,
        "reduction_factor": adj.reduction_factor,
        "exponent_indep": base.adjusted_exponent,
        "exponent_corr": adj.adjusted_exponent,
        "n_crit_indep": base.adjusted_n_crit,
        "n_crit_corr": adj.adjusted_n_crit,
        "note": HEURISTIC_NOTE,
    }
    return ["correlation-corrected effective dimensionality (heuristic indication)"], [row], {}


def _simulate(p: dict):
    target = p["target"]
    if target not in ("person", "system", "correlated"):
        raise SchemaError(f"target must be person | system | correlated, got {target!r}")
    if ("correlation" in p) != (target == "correlated"):
        raise SchemaError("'correlation' is required with target=correlated and valid only there")
    p.setdefault("n", 1)
    # workers sets wall-clock time only, so it stays out of the recorded parameters
    workers = p.pop("workers", 1)
    plan = SimPlan(
        k=p["k"], p=p["p"], m=p["m"], runs=p["runs"], seed=p["seed"], mode=p["mode"], n=p["n"]
    )
    if target == "correlated":
        rep = simulate_correlated(plan, LatentCorrelation(**p["correlation"]), workers=workers)
    elif target == "system":
        rep = simulate_system(plan, workers=workers)
    else:
        rep = simulate_per_person(plan, workers=workers)
    row = {
        "target": target,
        "mode": plan.mode,
        "k": plan.k,
        "p": plan.p,
        "m": plan.m,
        "n": plan.n,
        "runs": plan.runs,
        "seed": plan.seed,
        "estimate": rep.estimate,
        "std_error": rep.std_error,
        "analytic": rep.analytic,
        "abs_error": rep.abs_error,
        "z_score": rep.z_score,
        # only the correlated report carries count moments
        "mean_count": getattr(rep, "mean_count", ""),
        "count_variance": getattr(rep, "count_variance", ""),
    }
    return ["Monte Carlo validation run"], [row], {}


# kind -> (required parameter specs, optional parameter specs, compute)
_KINDS = {
    "tail": ({"lambda": float}, {"m": int, "c": float}, _tail),
    "system": ({"k": int, "p": float, "n": int}, {"m": int, "c": float}, _system),
    "phase": ({"lambdas": [float], "c": float, "alpha": float}, {}, _phase),
    "lifetime": (
        {"k0": float, "gamma": float, "p": float, "m": int},
        {"n": int, "criterion_level": float},
        _lifetime,
    ),
    "cohort": ({"groups": [{"label": str, "n": int, "p": float}], "k": int, "m": int}, {}, _cohort),
    "bayes": ({"r": float, "s": float, "alpha": float, "q": float, "n": int}, {}, _bayes),
    "effdim": (
        {"k": int, "p": float, "c": float},
        {"k_eff": float, "tau": float, "area": float, "xi": float, "rho": [float]},
        _effdim,
    ),
    "simulate": (
        {"target": str, "k": int, "p": float, "m": int, "runs": int, "seed": int, "mode": str},
        {"n": int, "workers": int, "correlation": {"kind": str, "rho": float}},
        _simulate,
    ),
}

SCENARIO_KINDS = tuple(_KINDS)


def load_scenario(path: str | Path) -> Scenario:
    """Parse and structurally validate a scenario JSON file; bytes that are not
    UTF-8 and JSON no output could hold are SchemaErrors like invalid JSON."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise SchemaError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = data.decode("utf-8")
        if "\r" in raw:  # the newlines a text-mode read gives, for the same error offsets
            raw = raw.replace("\r\n", "\n").replace("\r", "\n")
        doc = json.loads(raw)
        if "\\u" in raw:  # only an escape can put a lone surrogate in a string
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        lone = exc.object[exc.start]
        raise SchemaError(f"invalid JSON in {path}: lone surrogate {lone!r} in a string") from exc
    except (ValueError, RecursionError) as exc:  # JSON, UTF-8 and int digit-limit errors
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("scenario document must be a JSON object")
    unknown = sorted(set(doc) - {"name", "kind", "parameters"})
    if unknown:
        raise SchemaError(f"unknown top-level key(s): {', '.join(unknown)}")
    if "kind" not in doc:
        raise SchemaError("scenario document needs a 'kind'")
    kind = doc["kind"]
    if kind not in SCENARIO_KINDS:
        raise SchemaError(f"unknown kind {kind!r}; valid kinds: {', '.join(SCENARIO_KINDS)}")
    params = doc.get("parameters", {})
    if not isinstance(params, dict):
        raise SchemaError("'parameters' must be an object")
    name = doc.get("name", kind)
    if not isinstance(name, str):
        raise SchemaError("'name' must be a string")
    return Scenario(name=name, kind=kind, parameters=params)


def execute(scenario: Scenario) -> ScenarioResult:
    """Validate parameters and run the computation for one scenario."""
    if scenario.kind not in _KINDS:
        raise SchemaError(
            f"unknown kind {scenario.kind!r}; valid kinds: {', '.join(SCENARIO_KINDS)}"
        )
    required, optional, compute = _KINDS[scenario.kind]
    params = _fields(scenario.parameters, required, optional)
    comments, rows, summary = compute(params)
    return ScenarioResult(comments=comments, rows=rows, summary=summary, parameters=params)


def render_result(scenario: Scenario, result: ScenarioResult, fmt: str) -> str:
    """Render a result as CSV (with comment headers) or pretty JSON."""
    if fmt not in _FORMATS:
        raise SchemaError(f"format must be one of {_FORMATS}, got {fmt!r}")
    comments = [f"scenario: {scenario.name}", f"kind: {scenario.kind}", *result.comments]
    comments += [f"{key} = {format_cell(value)}" for key, value in result.summary.items()]
    head = {
        "name": scenario.name,
        "kind": scenario.kind,
        "parameters": result.parameters,
        "summary": result.summary,
    }
    return render_rows(fmt, result.rows, comments, head)


def run_scenario(
    scenario: Scenario,
    out_path: str | Path | None = None,
    fmt: str = "csv",
) -> tuple[str, dict | None]:
    """Execute a scenario; write output + manifest when out_path is given.

    Returns the rendered text and, when a file was written, the manifest
    dict that was placed next to it as ``<filename>.manifest.json``.
    """
    result = execute(scenario)
    text = render_result(scenario, result, fmt)
    if out_path is None:
        return text, None
    params = result.parameters
    manifest = write_artifact(
        out_path, text, scenario.name, scenario.kind, params, params.get("seed")
    )
    return text, manifest
