"""File formats: binary channel tensors, their metadata sidecar, and CSV tables.

Layout: a header of five little-endian int64 extents (n_rx, n_ry, n_tx,
n_ty, n_f) followed by the row-major tensor entries as little-endian
float64 pairs (real, imaginary). The sidecar is the same path with a
".meta" suffix appended, holding "key = value" lines.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

HEADER_DTYPE = np.dtype("<i8")
ENTRY_DTYPE = np.dtype("<c16")  # a (real, imaginary) pair of little-endian float64


def sidecar_path(path) -> str:
    return f"{path}.meta"


def write_channel(path, values: np.ndarray) -> None:
    """Write a 5-axis complex tensor; its sidecar is written by ``write_metadata``."""
    values = np.asarray(values, dtype=complex)
    if values.ndim != 5:
        raise ValueError("expected a 5-axis channel tensor")
    header = np.asarray(values.shape, dtype=HEADER_DTYPE)
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(values.astype(ENTRY_DTYPE).tobytes())


def read_channel(path) -> np.ndarray:
    """Read a tensor written by write_channel; a size the header does not declare raises."""
    with open(path, "rb") as fh:
        head = fh.read(5 * HEADER_DTYPE.itemsize)
        header = np.frombuffer(head, dtype=HEADER_DTYPE,
                               count=len(head) // HEADER_DTYPE.itemsize)
        if header.size != 5 or np.any(header < 1):
            raise ValueError("corrupt channel file header")
        shape = tuple(int(n) for n in header)
        expected = math.prod(shape) * ENTRY_DTYPE.itemsize
        payload = os.fstat(fh.fileno()).st_size - len(head)
        if payload != expected:
            problem = "truncated" if payload < expected else "has trailing bytes"
            raise ValueError(f"channel file {problem}: header extents {shape} need "
                             f"{expected} payload bytes, file has {payload}")
        raw = np.frombuffer(fh.read(expected), dtype=ENTRY_DTYPE)
    return raw.astype(complex).reshape(shape)


def write_metadata(path, metadata: dict) -> None:
    lines = [f"{key} = {metadata[key]}" for key in metadata]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_metadata(path) -> dict[str, str]:
    """Parse "key = value" lines, skipping blanks and # comments; no "=" or a repeated key raises."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key = key.strip()
            if key in out:
                raise ValueError(f"{path}:{lineno}: repeated key '{key}'")
            out[key] = value.strip()
    return out


def write_csv(path, header, rows) -> None:
    """Write one header row, then ``rows``, as comma-separated values."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
