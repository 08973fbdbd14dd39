"""Binary field snapshot format.

Layout (all little-endian):
    bytes 0-3   magic "STRZ"
    uint32      format version (currently 1)
    uint32      n   (dimension)
    uint32      N   (points per axis)
    float64     L   (box half-width)
    complex     N^n pairs of float64 (re, im), row-major
"""
from __future__ import annotations

import struct
from pathlib import Path
from typing import Union

import numpy as np

from .errors import PreconditionError, SnapshotFormatError
from .spectral import ComplexField, Grid

MAGIC = b"STRZ"
VERSION = 1
_HEADER = struct.Struct("<4sIIId")


def write_snapshot(field: ComplexField, path: Union[str, Path]) -> None:
    g = field.grid
    header = _HEADER.pack(MAGIC, VERSION, g.n, g.N, g.L)
    data = np.ascontiguousarray(field.values, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def read_snapshot(path: Union[str, Path]) -> ComplexField:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise SnapshotFormatError(f"{path}: truncated header")
    magic, version, n, N, L = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise SnapshotFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise SnapshotFormatError(f"{path}: unsupported version {version}")
    try:
        grid = Grid(n=int(n), L=float(L), N=int(N))
    except PreconditionError as exc:
        raise SnapshotFormatError(f"{path}: invalid grid header ({exc})") from exc
    expected = grid.npoints * 16
    payload = len(raw) - _HEADER.size
    if payload != expected:
        raise SnapshotFormatError(
            f"{path}: payload holds {payload} bytes, expected {expected}"
        )
    # one read-only view of the file bytes, which ComplexField keeps as is
    values = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size).reshape(grid.shape)
    return ComplexField(grid, values)
