"""The one file writer: in-place rewrites, digests, non-regular targets, JSON text."""

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


_LEAVES = (
    st.text()
    | st.sampled_from(["", "\x00\x1f\x7f\n\t", 'quote " and \\ slash', "é ☃ 😀  "])
    | st.booleans()
    | st.none()
    | st.integers(min_value=-(10**30), max_value=10**30)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 0.1])
    | st.floats()
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=25,
)


@given(_PAYLOADS)
@settings(max_examples=300, deadline=None)
def test_render_json_writes_the_bytes_of_json_dumps(payload):
    assert tableio.render_json(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_render_json_writes_empty_containers_and_numpy_floats():
    payload = {"a": [], "b": {}, "c": (), "d": [{}, []], "e": np.float64(0.1)}
    assert tableio.render_json(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "payload", [np.int64(3), {"rows": [[1, np.int64(3)]]}, {1, 2}, b"x"],
    ids=["int64", "nested-int64", "set", "bytes"],
)
def test_render_json_refuses_what_json_refuses(payload):
    with pytest.raises(TypeError):
        json.dumps(payload, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        tableio.render_json(payload)


def test_render_json_takes_str_keys_only():
    # json would write the key as "1"; no payload here has a key that is not a str
    with pytest.raises(TypeError):
        tableio.render_json({"a": {1: 2}})
