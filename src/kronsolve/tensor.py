"""Dense tensor and matrix primitives.

Conventions
-----------
Tensors are plain ``numpy.ndarray`` values in C (row-major) memory order.
:func:`vectorize` flattens lexicographically by index ``(i_1, ..., i_N)``,
which makes

    vectorize(G x_1 A1 x_2 ... x_N AN) == (A1 kron ... kron AN) @ vectorize(G)

hold exactly with the factors in natural order; ``v.reshape(shape)``
inverts it.  Modes are 0-based, like numpy axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, NumericalFailureError, SizeGuardError

DEFAULT_RANK_TOL = 1e-10

# Guard for densifying a Kronecker product (test-oracle path only).
EXPLICIT_KRON_MAX_ENTRIES = 10**7


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a 2-d float64 array."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-dimensional, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def as_tensor(x, name: str = "tensor") -> np.ndarray:
    """Validate and return ``x`` as an order >= 1 float64 array."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 1:
        x = x.reshape(1)
    if not np.all(np.isfinite(x)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return x


@dataclass(frozen=True)
class CompactSvd:
    """Compact SVD ``a = u @ diag(sigma) @ v.T`` with positive singular values.

    ``u`` is n x r and ``v`` is d x r with orthonormal columns; ``sigma`` is
    sorted non-increasing and strictly above ``DEFAULT_RANK_TOL * sigma[0]``.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        return self.sigma.size

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.v.T


def compact_svd(a) -> CompactSvd:
    """Compact SVD of ``a``; drops singular values <= DEFAULT_RANK_TOL * sigma_max.

    Parameters
    ----------
    a : array_like, shape (n, d)

    Raises
    ------
    InvalidInputError
        On non-finite input.
    NumericalFailureError
        If the underlying LAPACK solver does not converge.
    """
    a = as_matrix(a)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"SVD did not converge for a {a.shape[0]}x{a.shape[1]} matrix: {exc}",
            diagnostics={"shape": a.shape},
        ) from exc
    if s.size == 0 or s[0] <= 0.0:
        r = 0
    else:
        r = int(np.count_nonzero(s > DEFAULT_RANK_TOL * s[0]))
    return CompactSvd(u=u[:, :r].copy(), sigma=s[:r].copy(), v=vt[:r].T.copy())


def pseudo_inverse(a) -> np.ndarray:
    """Moore-Penrose inverse via the compact SVD: ``v @ diag(1/sigma) @ u.T``."""
    svd = compact_svd(a)
    if svd.rank == 0:
        return np.zeros((svd.v.shape[0], svd.u.shape[0]))
    return (svd.v / svd.sigma) @ svd.u.T


def vectorize(x) -> np.ndarray:
    """Flatten a tensor lexicographically by index (row-major)."""
    return as_tensor(x).reshape(-1)


def unfold(x, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding: fibers along ``mode`` become columns.

    The result has shape ``(I_mode, prod of the other dims)`` with columns
    ordered lexicographically by the remaining indices.  Exact inverse of
    :func:`fold`.
    """
    x = as_tensor(x)
    if not 0 <= mode < x.ndim:
        raise InvalidInputError(f"mode {mode} out of range for order-{x.ndim} tensor")
    return _unfold(x, mode)


def _unfold(x: np.ndarray, mode: int) -> np.ndarray:
    """:func:`unfold` of an already validated float64 tensor (no finiteness scan)."""
    return np.moveaxis(x, mode, 0).reshape(x.shape[mode], -1)


def fold(m, shape: Sequence[int], mode: int) -> np.ndarray:
    """Inverse of :func:`unfold`: rebuild the tensor of ``shape`` from ``m``."""
    m = np.asarray(m, dtype=np.float64)
    shape = tuple(int(s) for s in shape)
    if not 0 <= mode < len(shape):
        raise InvalidInputError(f"mode {mode} out of range for shape {shape}")
    rest = shape[:mode] + shape[mode + 1:]
    if m.shape != (shape[mode], math.prod(rest)):
        raise InvalidInputError(
            f"matrix of shape {m.shape} does not unfold to {shape} at mode {mode}")
    return np.moveaxis(m.reshape((shape[mode],) + rest), 0, mode)


def n_mode_product(x, a, mode: int) -> np.ndarray:
    """Multiply every mode-``mode`` fiber of ``x`` by the matrix ``a``.

    Output shape replaces ``x.shape[mode]`` with ``a.shape[0]``.
    """
    x = as_tensor(x)
    a = as_matrix(a)
    if not 0 <= mode < x.ndim:
        raise InvalidInputError(f"mode {mode} out of range for order-{x.ndim} tensor")
    if a.shape[1] != x.shape[mode]:
        raise InvalidInputError(
            f"matrix with {a.shape[1]} columns cannot act on mode of size "
            f"{x.shape[mode]}")
    return np.moveaxis(np.tensordot(a, x, axes=(1, mode)), 0, mode)


def multi_mode_product(x, factors: Sequence[np.ndarray]) -> np.ndarray:
    """Apply one matrix per mode: ``x x_1 A1 x_2 ... x_N AN``."""
    x = as_tensor(x)
    if len(factors) != x.ndim:
        raise InvalidInputError(
            f"need {x.ndim} factors for an order-{x.ndim} tensor, got {len(factors)}")
    for mode, a in enumerate(factors):
        x = n_mode_product(x, a, mode)
    return x


def explicit_kron(factors: Sequence[np.ndarray],
                  max_entries: int = EXPLICIT_KRON_MAX_ENTRIES) -> np.ndarray:
    """Densify ``A1 kron ... kron AN``.  Test-oracle path, size-guarded."""
    if len(factors) == 0:
        raise InvalidInputError("need at least one factor")
    mats = [as_matrix(a, f"factor {n}") for n, a in enumerate(factors)]
    rows = math.prod(a.shape[0] for a in mats)
    cols = math.prod(a.shape[1] for a in mats)
    if rows * cols > max_entries:
        raise SizeGuardError(
            f"explicit Kronecker product would hold {rows}x{cols} entries "
            f"(guard: {max_entries})")
    return reduce(np.kron, mats)
