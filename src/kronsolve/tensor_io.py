"""Tensor and CSV file formats.

Binary tensor layout (all little-endian): magic ``KTN1`` (4 bytes), format
version as u32, tensor order as u8, the dimensions as u64 each, then the
payload as float64 in row-major lexicographic order.  Round-trips bitwise.
CSV output uses '.' decimals, ',' separators, one header row, and 17
significant digits so every value parses back exactly.
"""

from __future__ import annotations

import csv
import math
import struct
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputError, TensorFormatError
from .tensor import as_tensor

TENSOR_MAGIC = b"KTN1"
TENSOR_VERSION = 1

# Refuse files whose header promises more elements than this.
MAX_TENSOR_ELEMENTS = 10**9

FLOAT_FORMAT = "%.17g"


def write_tensor(path, x) -> None:
    """Serialize a tensor to the binary format above."""
    x = as_tensor(x)
    if x.ndim > 255:
        raise InvalidInputError("tensor order exceeds the u8 header field")
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<I", TENSOR_VERSION))
        fh.write(struct.pack("<B", x.ndim))
        for dim in x.shape:
            fh.write(struct.pack("<Q", dim))
        fh.write(np.ascontiguousarray(x, dtype="<f8").tobytes())


def read_tensor(path) -> np.ndarray:
    """Read a tensor written by :func:`write_tensor`.

    Raises :class:`TensorFormatError` with a distinct code for a wrong magic,
    an unsupported version, an impossible dimension header, or a truncated
    payload.
    """
    data = Path(path).read_bytes()
    if len(data) < 4 or data[:4] != TENSOR_MAGIC:
        raise TensorFormatError(f"{path}: not a tensor file (bad magic)",
                                code="bad-magic")
    if len(data) < 9:
        raise TensorFormatError(f"{path}: header truncated", code="truncated")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != TENSOR_VERSION:
        raise TensorFormatError(
            f"{path}: unsupported format version {version}", code="bad-version")
    order = data[8]
    if order < 1:
        raise TensorFormatError(f"{path}: tensor order must be >= 1",
                                code="dim-overflow")
    header_end = 9 + 8 * order
    if len(data) < header_end:
        raise TensorFormatError(f"{path}: dimension header truncated",
                                code="truncated")
    dims = struct.unpack_from(f"<{order}Q", data, 9)
    if any(d == 0 for d in dims):
        raise TensorFormatError(f"{path}: zero dimension", code="dim-overflow")
    count = math.prod(dims)
    if count > MAX_TENSOR_ELEMENTS:
        raise TensorFormatError(
            f"{path}: header promises {count} elements (limit "
            f"{MAX_TENSOR_ELEMENTS})", code="dim-overflow")
    expected = header_end + 8 * count
    if len(data) != expected:
        raise TensorFormatError(
            f"{path}: expected {expected} bytes, found {len(data)}",
            code="truncated")
    payload = np.frombuffer(data, dtype="<f8", offset=header_end, count=count)
    return payload.astype(np.float64).reshape(dims)


def format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return FLOAT_FORMAT % float(value)
    return str(value)


def write_results_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write benchmark rows with the shared numeric formatting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([format_cell(v) for v in row])
