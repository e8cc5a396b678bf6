"""The one file writer: in-place rewrites, digests, non-regular targets."""

import hashlib
import os
from pathlib import Path

from screenlimits import tableio
from screenlimits.datasets import PANEL_FILES, figure_panels


def test_dev_null_returns_digest():
    # /dev/null reports size 0 and rejects ftruncate, so the writer must not cut it
    assert tableio.write_text(Path("/dev/null"), "abc") == hashlib.sha256(b"abc").hexdigest()


def test_no_writer_opens_with_o_trunc(tmp_path, monkeypatch):
    opened = []
    real_open = os.open

    def recording_open(path, flags, *args, **kwargs):
        opened.append((Path(path).name, flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(tableio.os, "open", recording_open)
    for _ in range(2):  # the second pass rewrites existing files
        tableio.write_artifact(tmp_path / "a.csv", "x,y\n1,2\n", "s", "tail", {}, None)
        figure_panels(tmp_path / "fig", runs=20)
    names = {name for name, _ in opened}
    assert names == {"a.csv", "a.csv.manifest.json", *PANEL_FILES, "manifest.json"}
    assert len(opened) == 2 * len(names)
    assert all(flags & os.O_CREAT and not flags & os.O_TRUNC for _, flags in opened)
