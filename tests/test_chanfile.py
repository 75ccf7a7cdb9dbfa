import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from nearwave.chanfile import (
    read_channel,
    read_metadata,
    sidecar_path,
    write_channel,
    write_metadata,
)


def test_round_trip_preserves_values(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.normal(size=(2, 1, 3, 2, 2)) + 1j * rng.normal(size=(2, 1, 3, 2, 2))
    path = tmp_path / "h.bin"
    write_channel(path, values)
    write_metadata(sidecar_path(path), {"seed": 7, "note": "test"})
    back = read_channel(path)
    assert back.shape == values.shape
    assert np.array_equal(back, values)
    meta = read_metadata(sidecar_path(path))
    assert meta == {"seed": "7", "note": "test"}


def test_round_trip_keeps_signed_zeros_and_infinities(tmp_path):
    values = np.array([complex(-0.0, 1.0), complex(2.0, np.inf), complex(-np.inf, -0.0)])
    values = values.reshape(1, 1, 3, 1, 1)
    write_channel(tmp_path / "h.bin", values)
    assert read_channel(tmp_path / "h.bin").tobytes() == values.tobytes()


def test_rejects_wrong_rank(tmp_path):
    with pytest.raises(ValueError):
        write_channel(tmp_path / "h.bin", np.ones((2, 2), dtype=complex))


def test_rejects_corrupt_header(tmp_path):
    path = tmp_path / "h.bin"
    header = np.array([1, 1, -3, 1, 1], dtype="<i8")
    path.write_bytes(header.tobytes())
    with pytest.raises(ValueError):
        read_channel(path)


def test_rejects_truncated_payload(tmp_path):
    path = tmp_path / "h.bin"
    write_channel(path, np.ones((1, 1, 4, 1, 1), dtype=complex))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError):
        read_channel(path)


def test_metadata_ignores_comments(tmp_path):
    path = tmp_path / "x.meta"
    write_metadata(path, {"a": 1})
    path.write_text(path.read_text() + "# comment line\n\nb = two\n")
    assert read_metadata(path) == {"a": "1", "b": "two"}


def test_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "h.bin"
    write_channel(path, np.ones((1, 1, 4, 1, 1), dtype=complex))
    path.write_bytes(path.read_bytes() + b"\0" * 16)
    with pytest.raises(ValueError, match="trailing bytes"):
        read_channel(path)


@pytest.mark.parametrize("extents", [
    [2**31, 2**31, 1, 1, 1],  # payload size overflows a read request
    [2**32] * 5,  # element count overflows int64
])
def test_rejects_header_extents_beyond_file_size(tmp_path, extents):
    path = tmp_path / "h.bin"
    path.write_bytes(np.array(extents, dtype="<i8").tobytes() + b"\0" * 32)
    with pytest.raises(ValueError, match="truncated"):
        read_channel(path)


def test_rejects_partial_header(tmp_path):
    path = tmp_path / "h.bin"
    path.write_bytes(b"\1" * 13)
    with pytest.raises(ValueError, match="header"):
        read_channel(path)


def test_metadata_rejects_line_without_equals(tmp_path):
    path = tmp_path / "x.meta"
    path.write_text("a = 1\nno separator here\n")
    with pytest.raises(ValueError, match=":2:"):
        read_metadata(path)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

channels = arrays(np.complex128, array_shapes(min_dims=5, max_dims=5, max_side=3),
                  elements=st.complex_numbers(allow_nan=True, allow_infinity=True))
keys = st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True)
values = st.text(st.characters(exclude_categories=("Cc", "Cs")), max_size=12).filter(
    lambda v: v == v.strip())


@settings(max_examples=60, deadline=None)
@given(values=channels, metadata=st.dictionaries(keys, values, max_size=4))
def test_round_trip_property(values, metadata):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "h.bin")
        write_channel(path, values)
        write_metadata(sidecar_path(path), metadata)
        back = read_channel(path)
        assert back.shape == values.shape
        assert back.tobytes() == values.tobytes()  # NaN payloads, signed zeros, infinities
        assert read_metadata(sidecar_path(path)) == metadata


@settings(max_examples=200, deadline=None)
@given(head=st.lists(st.integers(-2**63, 2**63 - 1), min_size=5, max_size=5)
       | st.lists(st.integers(0, 3), min_size=5, max_size=5),
       payload=st.binary(max_size=160), cut=st.integers(0, 200))
def test_fuzzed_channel_file_reads_as_its_header_or_raises(head, payload, cut):
    data = (np.array(head, dtype="<i8").tobytes() + payload)[:cut]
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "h.bin")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            out = read_channel(path)
        except ValueError:  # any other error fails the test
            return
    assert out.shape == tuple(head)
    assert 40 + 16 * out.size == len(data)


@settings(max_examples=60, deadline=None)
@given(values=channels, data=st.data())
def test_truncated_channel_file_raises(values, data):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "h.bin")
        write_channel(path, values)
        with open(path, "rb") as fh:
            full = fh.read()
        with open(path, "wb") as fh:
            fh.write(full[:data.draw(st.integers(0, len(full) - 1))])
        with pytest.raises(ValueError):
            read_channel(path)


@settings(max_examples=200, deadline=None)
@given(raw=st.binary(max_size=200) | st.text(max_size=200).map(str.encode))
def test_fuzzed_metadata_parses_or_raises(raw):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "x.meta")
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            meta = read_metadata(path)
        except ValueError:
            return
    assert all(isinstance(k, str) and isinstance(v, str) for k, v in meta.items())
