"""Output checks for one ``cli.main`` call.

``check_op`` raises ``CheckError`` when an op's exit code, output format or
numeric invariants are wrong, and otherwise returns a digest of every byte
the op produced plus its parsed rows. The runner compares digests across
repeats and worker counts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# |z| bound for Monte Carlo reports whose analytic value is the sampled law.
# Thousands of reports per run stay far from a false failure at 6 sigma.
Z_BOUND = 6.0
# A saturated estimate (every run alerted, or none did) must have at least
# this probability under the analytic law.
SATURATED_MIN_PROB = 1e-9
# Slack for float comparisons of quantities computed by different formulas.
REL_SLACK = 1e-12

GOLDEN_EXPECTED_FAILURES = ["cohort-alerts-low"]


class CheckError(Exception):
    pass


def _num(value) -> float | None:
    if value is None or value == "":
        return None
    return float(value)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _ordered(lo, mid, hi, what: str) -> None:
    lo, mid, hi = _num(lo), _num(mid), _num(hi)
    slack = REL_SLACK * abs(mid)
    _require(lo <= mid + slack and mid <= hi + slack, f"{what}: {lo} <= {mid} <= {hi} fails")


def _probability(value, what: str) -> None:
    v = _num(value)
    _require(v is not None and 0.0 <= v <= 1.0, f"{what}={value} is not a probability")


def parse_table(text: str, fmt: str) -> list[dict]:
    """Rows of a CSV (with '#' comments) or scenario/golden JSON document."""
    if fmt == "json":
        doc = json.loads(text)
        return [dict(zip(doc["columns"], row, strict=True)) for row in doc["rows"]]
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    rows = [dict(zip(header, row, strict=True)) for row in reader]
    return rows


def _z_ok(row: dict, runs: int) -> bool:
    estimate, se, analytic = _num(row["estimate"]), _num(row["std_error"]), _num(row["analytic"])
    if se > 0.0:
        return abs(_num(row["z_score"])) <= Z_BOUND
    p_same = analytic**runs if estimate == 1.0 else (1.0 - analytic) ** runs
    return estimate in (0.0, 1.0) and p_same >= SATURATED_MIN_PROB


def _check_rows(kind: str, rows: list[dict], z_check: bool) -> None:
    _require(len(rows) >= 1, "no rows")
    if kind == "tail":
        row = rows[0]
        _probability(row["exact"], "exact")
        if row["chernoff_upper"] != "":
            _ordered(row["robbins_lower"], row["exact"], row["chernoff_upper"], "tail sandwich")
        _require(_num(row["log_exact"]) <= 0.0, "log_exact > 0")
    elif kind in ("system", "phase-scan"):
        for row in rows:
            _probability(row["q"], "q")
            _ordered(row["lower"], row["prob"], row["upper"], f"{kind} sandwich")
    elif kind == "lifetime":
        row = rows[0]
        if row["t_star_corrected"] != "":
            t_corr, t_analytic = _num(row["t_star_corrected"]), _num(row["t_star_analytic"])
            _require(0.0 <= t_corr <= t_analytic + 1e-9, f"corrected horizon {t_corr} > {t_analytic}")
    elif kind == "cohort":
        for row in rows:
            _probability(row["q"], "q")
        share = math.fsum(_num(row["share"]) for row in rows)
        _require(abs(share - 1.0) <= 1e-9, f"group shares sum to {share}")
    elif kind == "bayes":
        _probability(rows[0]["ppv_exact"], "ppv_exact")
        _probability(rows[0]["fdr"], "fdr")
    elif kind == "effdim":
        factor = _num(rows[0]["reduction_factor"])
        _require(0.0 < factor <= 1.0, f"reduction_factor={factor}")
    elif kind == "simulate":
        row = rows[0]
        runs = int(_num(row["runs"]))
        _probability(row["estimate"], "estimate")
        if z_check:
            _require(_z_ok(row, runs), f"z={row['z_score']} beyond {Z_BOUND}")
        if row["target"] == "correlated":
            # marginals stay Bernoulli(p), so the mean count estimates k*p
            mean, var = _num(row["mean_count"]), _num(row["count_variance"])
            expected = _num(row["k"]) * _num(row["p"])
            _require(abs(mean - expected) <= Z_BOUND * math.sqrt(var / runs) + 1e-9,
                     f"mean count {mean} far from k*p={expected}")


def _check_golden(text: str, fmt: str) -> None:
    if fmt == "table":
        failing = [line.split()[0] for line in text.splitlines()[:-1] if line.split()[1] == "FAIL"]
    else:
        failing = [row["name"] for row in parse_table(text, fmt) if row["status"] == "FAIL"]
    _require(failing == GOLDEN_EXPECTED_FAILURES, f"golden failing rows {failing}")


def _read_manifested(out: Path) -> tuple[bytes, bytes]:
    data = out.read_bytes()
    manifest_bytes = out.with_name(out.name + ".manifest.json").read_bytes()
    manifest = json.loads(manifest_bytes)
    _require(manifest["output"] == out.name, "manifest names another output")
    _require(manifest["sha256"] == hashlib.sha256(data).hexdigest(), "manifest sha256 mismatch")
    return data, manifest_bytes


def _check_figures(out_dir: Path, stdout: str, runs: int) -> list[bytes]:
    manifest_bytes = (out_dir / "manifest.json").read_bytes()
    files = json.loads(manifest_bytes)["files"]
    _require(sorted(files) == ["panel_a.csv", "panel_b.csv", "panel_c.csv", "panel_d.csv"],
             f"unexpected panels {sorted(files)}")
    blobs = []
    for name, digest in sorted(files.items()):
        data = (out_dir / name).read_bytes()
        _require(hashlib.sha256(data).hexdigest() == digest, f"{name} sha256 mismatch")
        _require(f"{name}  sha256={digest}" in stdout, f"{name} digest missing from stdout")
        blobs.append(data)
    for row in parse_table(blobs[0].decode(), "csv"):
        _require(_z_ok(row, runs), f"panel_a k={row['k']} z={row['z_score']}")
    for row in parse_table(blobs[1].decode(), "csv"):
        _ordered(row["lower"], row["prob"], row["upper"], "panel_b sandwich")
    return [*blobs, manifest_bytes]


def check_op(op, exit_code: int, stdout: str) -> tuple[str, list[dict]]:
    """Validate one op's result; return (digest of all output bytes, rows)."""
    _require(exit_code == op.expect_exit, f"exit {exit_code}, expected {op.expect_exit}")
    blobs = [stdout.encode()]
    rows: list[dict] = []
    if op.kind == "figures":
        runs = int(op.argv[op.argv.index("--runs") + 1])
        blobs += _check_figures(op.out, stdout, runs)
    else:
        text = stdout
        if op.out is not None:
            data, manifest_bytes = _read_manifested(op.out)
            blobs += [data, manifest_bytes]
            text = data.decode()
        if op.kind == "golden":
            _check_golden(text, op.fmt)
        else:
            rows = parse_table(text, op.fmt)
            _check_rows(op.kind, rows, op.z_check)
    digest = hashlib.sha256(b"\0".join(blobs)).hexdigest()
    return digest, rows
