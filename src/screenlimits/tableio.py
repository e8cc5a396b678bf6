"""Deterministic table writers shared by the dataset and scenario emitters.

Byte-identical output is the contract: floats are rendered with repr (the
shortest round-trip form), line endings are always "\\n", JSON keys are
sorted, and nothing derived from clock or filesystem state is written.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

__all__ = [
    "format_cell",
    "render_csv",
    "render_json",
    "render_rows",
    "write_text",
    "write_json",
    "write_artifact",
]


def format_cell(value) -> str:
    """Render one cell: shortest round-trip floats, plain ints, raw text."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(comments: list[str], rows: list[dict]) -> str:
    """CSV text: '#' comment lines, the first row's keys as header, the rows."""
    buf = io.StringIO()
    for line in comments:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0])
    for row in rows:
        writer.writerow([format_cell(v) for v in row.values()])
    return buf.getvalue()


def render_json(payload) -> str:
    """Sorted, two-space-indented JSON text with a trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_rows(fmt: str, rows: list[dict], comments: list[str], head: dict) -> str:
    """Rows that map the same columns: CSV under `comments`, or the JSON
    object {**head, "columns": [...], "rows": [[...], ...]}."""
    if fmt == "json":
        values = [list(row.values()) for row in rows]
        return render_json({**head, "columns": list(rows[0]), "rows": values})
    return render_csv(comments, rows)


def write_text(path: Path, text: str) -> str:
    """Write `text` as UTF-8, newlines untranslated; return the bytes' sha256."""
    data = text.encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def write_json(path: Path, payload) -> None:
    path.write_text(render_json(payload), encoding="utf-8", newline="")


def write_artifact(
    out: str | Path, text: str, scenario: str, kind: str, parameters: dict, seed: int | None
) -> dict:
    """Write `text` to `out` and its provenance to ``<name>.manifest.json``.

    The manifest records the scenario name and kind, the resolved
    parameters, the seed, the package version, the output's file name and
    the sha256 of its bytes. It is returned as written.
    """
    from . import __version__

    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    digest = write_text(out, text)
    manifest = {
        "scenario": scenario,
        "kind": kind,
        "parameters": parameters,
        "seed": seed,
        "artifact_version": __version__,
        "output": out.name,
        "sha256": digest,
    }
    write_json(out.with_name(out.name + ".manifest.json"), manifest)
    return manifest
