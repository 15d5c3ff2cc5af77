"""Tensor and CSV file formats.

Binary tensor layout (all little-endian): magic ``KTN1`` (4 bytes), format
version as u32, tensor order as u8, the dimensions as u64 each, then the
payload as float64 in row-major lexicographic order.  A finite float64
tensor of order 1 to 255 round-trips bitwise; other real dtypes are stored
as float64, and complex, string, object or non-finite input is refused.
CSV output uses '.' decimals, ',' separators, one header row, and 17
significant digits so every value parses back exactly.
"""

from __future__ import annotations

import csv
import math
import os
import struct
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
        np.ascontiguousarray(x, dtype="<f8").tofile(fh)


def read_tensor(path) -> np.ndarray:
    """Read a tensor written by :func:`write_tensor`.

    Raises :class:`TensorFormatError` with a distinct code for a wrong magic,
    an unsupported version, an impossible dimension header, or a truncated
    payload.
    """
    with open(path, "rb") as fh:
        head = fh.read(9)
        if head[:4] != TENSOR_MAGIC:
            raise TensorFormatError(f"{path}: not a tensor file (bad magic)",
                                    code="bad-magic")
        if len(head) < 9:
            raise TensorFormatError(f"{path}: header truncated", code="truncated")
        (version,) = struct.unpack_from("<I", head, 4)
        if version != TENSOR_VERSION:
            raise TensorFormatError(
                f"{path}: unsupported format version {version}", code="bad-version")
        order = head[8]
        if order < 1:
            raise TensorFormatError(f"{path}: tensor order must be >= 1",
                                    code="dim-overflow")
        dim_bytes = fh.read(8 * order)
        if len(dim_bytes) < 8 * order:
            raise TensorFormatError(f"{path}: dimension header truncated",
                                    code="truncated")
        dims = struct.unpack(f"<{order}Q", dim_bytes)
        if any(d == 0 for d in dims):
            raise TensorFormatError(f"{path}: zero dimension", code="dim-overflow")
        count = math.prod(dims)
        if count > MAX_TENSOR_ELEMENTS:
            raise TensorFormatError(
                f"{path}: header promises {count} elements (limit "
                f"{MAX_TENSOR_ELEMENTS})", code="dim-overflow")
        expected = 9 + 8 * order + 8 * count
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise TensorFormatError(
                f"{path}: expected {expected} bytes, found {size}", code="truncated")
        # the payload's one copy: read straight into the array, no byte string first
        payload = np.fromfile(fh, dtype="<f8", count=count)
    return payload.astype(np.float64, copy=False).reshape(dims)


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
