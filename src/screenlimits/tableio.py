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
    "write_text",
    "write_json",
    "write_artifact",
    "file_sha256",
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


def render_csv(comments: list[str], header: list[str], rows: list) -> str:
    """CSV text with '#' comment lines, a header row, and data rows."""
    buf = io.StringIO()
    for line in comments:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_cell(v) for v in row])
    return buf.getvalue()


def render_json(payload) -> str:
    """Sorted, two-space-indented JSON text with a trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="")


def write_json(path: Path, payload) -> None:
    path.write_text(render_json(payload), encoding="utf-8", newline="")


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
    write_text(out, text)
    manifest = {
        "scenario": scenario,
        "kind": kind,
        "parameters": parameters,
        "seed": seed,
        "artifact_version": __version__,
        "output": out.name,
        "sha256": file_sha256(out),
    }
    write_json(out.with_name(out.name + ".manifest.json"), manifest)
    return manifest
