"""Plot-ready datasets for the four reliability phase-transition panels.

Each panel is one CSV with a '#' comment header documenting its columns and
parameters, plus a shared manifest.json carrying parameters, seed, and
sha256 checksums. Output is byte-identical for identical (runs, seed),
regardless of worker count.

Panels:
    a: attribute-count sweep; analytic system risk vs Monte Carlo estimates.
    b: population sweep at fixed per-person risk; exact value and bounds.
    c: time sweep under geometric attribute growth.
    d: two-group disparity sweep over the shared attribute count.
"""

from __future__ import annotations

from pathlib import Path

from .cohorts import CohortGroup, CohortProfile, cohort_system_risk, disparity_ratio
from .errors import check_int
from .lifetime import GrowthModel, unreliability_series
from .simulate import MODE_BINOMIAL, SimPlan, _map_tasks, simulate_system
from .system import ScreeningConfig, system_risk
from .tableio import make_dir, render_csv, write_json, write_text

__all__ = ["PANEL_FILES", "figure_panels"]

PANEL_FILES = ("panel_a.csv", "panel_b.csv", "panel_c.csv", "panel_d.csv")
MANIFEST_FILE = "manifest.json"

# Panel parameter blocks; also copied into the manifest verbatim.
_PANEL_A = {
    "k_values": list(range(50, 306, 15)),
    "p": 0.01,
    "m": 6,
    "n": 500,
    "mode": MODE_BINOMIAL,
}
_PANEL_B = {
    "k": 1000,
    "p": 0.005,
    "m": 15,
    "log10_n": [1.0 + 0.25 * j for j in range(25)],
}
_PANEL_C = {
    "k0": 100.0,
    "gamma": 1.5,
    "p": 0.01,
    "m": 5,
    "n": 1,
    "t_max": 8.0,
    "t_step": 0.05,
}
_PANEL_D = {
    "p_low": 0.005,
    "p_high": 0.02,
    "m": 7,
    "group_size": 10**5,
    "k_values": list(range(100, 2001, 50)),
}


def _panel_a_rows(runs: int, seed: int, workers: int) -> list[dict]:
    # every point costs runs * n draws, so mapping whole points balances
    plans = [
        SimPlan(
            k=k,
            p=_PANEL_A["p"],
            m=_PANEL_A["m"],
            runs=runs,
            seed=(seed + 1_000_003 * idx) % 2**64,
            mode=_PANEL_A["mode"],
            n=_PANEL_A["n"],
        )
        for idx, k in enumerate(_PANEL_A["k_values"])
    ]
    reports = _map_tasks(simulate_system, [(plan,) for plan in plans], workers)
    return [
        {
            "k": plan.k,
            "lam": plan.k * _PANEL_A["p"],
            "m": _PANEL_A["m"],
            "n": _PANEL_A["n"],
            "analytic": rep.analytic,
            "estimate": rep.estimate,
            "std_error": rep.std_error,
            "z_score": rep.z_score,
        }
        for plan, rep in zip(plans, reports)
    ]


_PANEL_B_COLUMNS = ("n", "q", "prob", "lower", "upper", "log_complement")
_PANEL_C_COLUMNS = ("lam", "q", "expected", "prob")


def _panel_b_rows() -> list[dict]:
    cfg = _PANEL_B
    rows = []
    for x in cfg["log10_n"]:
        n = max(1, round(10.0**x))
        risk = system_risk(ScreeningConfig(k=cfg["k"], p=cfg["p"], n=n, m=cfg["m"]))
        rows.append({c: getattr(risk, c) for c in _PANEL_B_COLUMNS})
    return rows


def _panel_c_rows() -> list[dict]:
    cfg = _PANEL_C
    model = GrowthModel(k0=cfg["k0"], gamma=cfg["gamma"], p=cfg["p"])
    steps = round(cfg["t_max"] / cfg["t_step"])
    times = [j * cfg["t_step"] for j in range(steps + 1)]
    series = unreliability_series(model, cfg["m"], cfg["n"], times)
    return [
        {"t": t, **{c: getattr(risk, c) for c in _PANEL_C_COLUMNS}}
        for t, risk in zip(times, series)
    ]


def _panel_d_rows() -> list[dict]:
    cfg = _PANEL_D
    rows = []
    for k in cfg["k_values"]:
        profile = CohortProfile(
            groups=(
                CohortGroup(label="low", size=cfg["group_size"], p=cfg["p_low"]),
                CohortGroup(label="high", size=cfg["group_size"], p=cfg["p_high"]),
            )
        )
        risk = cohort_system_risk(profile, k=k, m=cfg["m"])
        by_label = {g.label: g for g in risk.groups}
        rows.append(
            {
                "k": k,
                "lam_low": by_label["low"].lam,
                "lam_high": by_label["high"].lam,
                "q_low": by_label["low"].q,
                "q_high": by_label["high"].q,
                "ratio": disparity_ratio(cfg["p_low"], cfg["p_high"], k=k, m=cfg["m"]),
                "share_high": by_label["high"].share,
            }
        )
    return rows


def figure_panels(
    out_dir: str | Path,
    runs: int = 5000,
    seed: int = 0,
    workers: int = 1,
) -> dict:
    """Write the four panel CSVs plus manifest.json into out_dir.

    Returns {"dir": str, "files": {name: sha256}}. Only panel_a consumes
    randomness; runs and seed are recorded in the manifest either way.

    Raises:
        DomainError: If seed lies outside [0, 2**64 - 1], before out_dir is made.
    """
    check_int("seed", seed, 0, 2**64 - 1)
    out = Path(out_dir)
    make_dir(out)

    panel_specs = {
        "panel_a.csv": (
            [
                "system false-alert probability vs attribute count",
                f"fixed p={_PANEL_A['p']}, m={_PANEL_A['m']}, n={_PANEL_A['n']}; "
                f"Monte Carlo mode={_PANEL_A['mode']} at runs per point below",
            ],
            _panel_a_rows(runs, seed, workers),
        ),
        "panel_b.csv": (
            [
                "system false-alert probability vs population size",
                f"fixed k={_PANEL_B['k']}, p={_PANEL_B['p']}, m={_PANEL_B['m']}",
            ],
            _panel_b_rows(),
        ),
        "panel_c.csv": (
            [
                "unreliability vs time under geometric attribute growth",
                f"k0={_PANEL_C['k0']}, gamma={_PANEL_C['gamma']}, p={_PANEL_C['p']}, "
                f"m={_PANEL_C['m']}, n={_PANEL_C['n']}",
            ],
            _panel_c_rows(),
        ),
        "panel_d.csv": (
            [
                "two-group disparity vs shared attribute count",
                f"p_low={_PANEL_D['p_low']}, p_high={_PANEL_D['p_high']}, "
                f"m={_PANEL_D['m']}, group_size={_PANEL_D['group_size']}",
            ],
            _panel_d_rows(),
        ),
    }

    checksums: dict[str, str] = {}
    for name, (comments, rows) in panel_specs.items():
        text = render_csv([*comments, f"columns: {', '.join(rows[0])}"], rows)
        checksums[name] = write_text(out / name, text)

    from . import __version__

    manifest = {
        "version": __version__,
        "runs": runs,
        "seed": seed,
        "files": checksums,
        "parameters": {
            "panel_a.csv": _PANEL_A,
            "panel_b.csv": _PANEL_B,
            "panel_c.csv": _PANEL_C,
            "panel_d.csv": _PANEL_D,
        },
    }
    write_json(out / MANIFEST_FILE, manifest)
    return {"dir": str(out), "files": checksums}
