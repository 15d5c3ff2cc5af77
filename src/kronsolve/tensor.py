"""Dense tensor and matrix primitives.

Conventions
-----------
Tensors are plain ``numpy.ndarray`` values in C (row-major) memory order.
``x.reshape(-1)`` flattens lexicographically by index ``(i_1, ..., i_N)``,
which makes

    (G x_1 A1 x_2 ... x_N AN).reshape(-1) == (A1 kron ... kron AN) @ G.reshape(-1)

hold exactly with the factors in natural order; ``v.reshape(shape)``
inverts it.  Modes are 0-based, like numpy axes.  Every Kronecker multiply
and mode product in the package runs the one unchecked kernel
:func:`_mode_products`, after its public entry point's checks.

Every factor decomposition in the package is a :func:`compact_svd`.  A tall
``m x n`` factor (``m >= 4 n`` and ``m n^2 >= 2^17``) goes through
CholeskyQR2 and one ``n x n`` SVD, a few GEMMs, whose singular values match
LAPACK's to about ``1e-15 sigma_max`` and whose singular vectors are
orthonormal to a few ulp.  Every other factor, and a tall one with
``sigma_min <= 1e-6 sigma_max``, goes through LAPACK's ``np.linalg.svd``,
backward stable at any condition number.  Every ridge solve drops the
directions of its design by the one rule of :func:`ridge_filter`, the cut
:func:`compact_svd` makes on the stacked design ``[K; sqrt(lam) I]``; a
Kronecker product's singular values are products of its factors', so it
can hold directions below that cut which each factor's own SVD keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, NumericalFailureError, SizeGuardError

DEFAULT_RANK_TOL = 1e-10

# CholeskyQR2's domain in compact_svd.  The size rule is measured (1 BLAS
# thread): it loses to LAPACK at 60x4, 300x4, 256x8 and 256x16 and wins at
# 1024x16, 4096x8 and 4096x64.  The conditioning rule keeps a 100x margin
# to sigma_min / sigma_max = 1e-8, where the first Gram matrix stops being
# numerically positive definite.
_CHOLQR_MIN_ASPECT = 4
_CHOLQR_MIN_WORK = 1 << 17
_CHOLQR_MIN_SIGMA_RATIO = 1e-6

# Guard for densifying a Kronecker product (test-oracle path only).
EXPLICIT_KRON_MAX_ENTRIES = 10**7


def as_real_array(a, name: str = "array") -> np.ndarray:
    """``a`` as float64 from bool, integer or float input; complex, string,
    object and ragged input raises :class:`InvalidInputError`."""
    try:
        a = np.asarray(a)
    except ValueError as exc:  # a ragged nested list
        raise InvalidInputError(f"{name} must be a real array: {exc}") from exc
    if a.dtype.kind not in "biuf":
        raise InvalidInputError(f"{name} must be a real array, got dtype {a.dtype}")
    return np.asarray(a, dtype=np.float64)


def check_integer(value, name: str, low: int = 0, high: int | None = None) -> int:
    """``value`` as an ``int`` if it is a Python or numpy integer, not a
    ``bool``, in ``[low, high)`` (no upper bound for ``high=None``)."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and low <= value and (high is None or value < high)):
        rule = (f"an integer in [{low}, {high})" if high is not None
                else "a non-negative integer" if low == 0 else f"an integer >= {low}")
        raise InvalidInputError(f"{name} must be {rule}, got {value!r}")
    return int(value)


def check_real(value, name: str) -> None:
    """Reject ``value`` unless it is a Python or numpy real number, not a ``bool``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a 2-d float64 array."""
    a = as_real_array(a, name)
    if a.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-dimensional, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def check_ridge_weight(lam) -> None:
    """Reject a ridge weight ``lam`` that is not real, or negative, infinite or NaN."""
    check_real(lam, "lambda")
    if not 0 <= lam < math.inf:
        raise InvalidInputError(f"lambda must be >= 0, got {lam}")


def as_tensor(x, name: str = "tensor") -> np.ndarray:
    """Validate and return ``x`` as an order >= 1 float64 array."""
    x = _float_tensor(x, name)
    if not np.all(np.isfinite(x)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return x


def _float_tensor(x, name: str = "tensor") -> np.ndarray:
    """``x`` as an order >= 1 float64 array, not scanned for finiteness."""
    x = as_real_array(x, name)
    return x.reshape(1) if x.ndim < 1 else x


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

    A tall ``m x n`` factor, with ``m >= 4 n`` and ``m n^2 >= 2^17``, is
    decomposed by CholeskyQR2 (Fukaya et al. 2014): ``a = Q R`` from two
    Cholesky passes over ``n x n`` Gram matrices, then ``R = Ur S V^T`` by
    one small SVD, so ``u = Q Ur``.  That is four GEMM-like passes over
    ``a``, 3-4x faster than LAPACK's Householder SVD at 4096 x 64.  While
    ``sigma_min > 1e-6 sigma_max`` its singular values match LAPACK's to
    about ``1e-15 sigma_max`` and ``u`` and ``v`` are orthonormal to a few
    ulp (Yamamoto et al. 2015 bound both up to a condition number of about
    ``1e8``).  Every other factor, and a tall one whose Cholesky passes or
    small SVD fail or whose small SVD shows ``sigma_min <= 1e-6 sigma_max``,
    is decomposed by ``np.linalg.svd``, so rank-deficient and
    ill-conditioned factors get LAPACK's result, and only they can meet
    the rank cut.

    Parameters
    ----------
    a : array_like, shape (m, n)

    Raises
    ------
    InvalidInputError
        On non-finite input.
    NumericalFailureError
        If the underlying LAPACK solver does not converge.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m >= _CHOLQR_MIN_ASPECT * n and m * n * n >= _CHOLQR_MIN_WORK:
        svd = _cholesky_qr2_svd(a)
        if svd is not None:
            return svd
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"SVD did not converge for a {a.shape[0]}x{a.shape[1]} matrix: {exc}",
            diagnostics={"shape": a.shape},
        ) from exc
    # s[:1] is empty for an empty matrix, so the rank is 0 there too
    r = int(np.count_nonzero(s > DEFAULT_RANK_TOL * s[:1]))
    return CompactSvd(u=u[:, :r].copy(), sigma=s[:r].copy(), v=vt[:r].T.copy())


def _cholesky_qr2_svd(a: np.ndarray) -> CompactSvd | None:
    """:func:`compact_svd` of a tall checked ``a`` by CholeskyQR2 and an SVD
    of its ``R``, or None where that may be inaccurate: a LAPACK call fails
    (a Gram matrix is not numerically positive definite, or overflowed), or
    ``R``'s ``sigma_min <= _CHOLQR_MIN_SIGMA_RATIO * sigma_max``."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            r1 = np.linalg.cholesky(a.T @ a).T
            q1 = a @ np.linalg.inv(r1)
            r2 = np.linalg.cholesky(q1.T @ q1).T
            ur, s, vt = np.linalg.svd(r2 @ r1)
        except np.linalg.LinAlgError:
            return None
    # written so that a NaN in s fails it too
    if not s[-1] > _CHOLQR_MIN_SIGMA_RATIO * s[0]:
        return None
    return CompactSvd(u=q1 @ (np.linalg.inv(r2) @ ur), sigma=s, v=vt.T.copy())


def ridge_filter(numerator, denominator: np.ndarray) -> np.ndarray:
    """``numerator / denominator`` where ``denominator`` (``sigma^2 + lam`` per
    direction) exceeds ``DEFAULT_RANK_TOL^2 (sigma_max^2 + lam)``, else 0: the
    truncated-SVD pseudo-inverse (Hansen 1987) of ``[K; sqrt(lam) I]``."""
    kept = denominator > DEFAULT_RANK_TOL**2 * np.max(denominator, initial=0.0)
    return np.divide(numerator, denominator, out=np.zeros_like(denominator), where=kept)


def pseudo_inverse(a) -> np.ndarray:
    """Moore-Penrose inverse via the compact SVD: ``v @ diag(1/sigma) @ u.T``."""
    svd = compact_svd(a)
    return (svd.v / svd.sigma) @ svd.u.T


def unfold(x, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding: fibers along ``mode`` become columns.

    The result has shape ``(I_mode, prod of the other dims)`` with columns
    ordered lexicographically by the remaining indices.
    """
    x = as_tensor(x)
    return _unfold(x, check_integer(mode, "mode", 0, x.ndim))


def _unfold(x: np.ndarray, mode: int) -> np.ndarray:
    """:func:`unfold` of an already validated float64 tensor (no finiteness scan)."""
    return np.moveaxis(x, mode, 0).reshape(x.shape[mode], -1)


def _mode_products(x: np.ndarray, mats: Sequence[np.ndarray | None]) -> np.ndarray:
    """``x x_1 M1 ... x_N MN`` for ``mats[n]`` of shape ``(J_n, x.shape[n])``;
    a ``None`` leaves its mode as it is.  Modes are contracted leading first,
    each as one batched ``M_n @ view`` on the ``(lead, I_n, rest)`` view, so
    no contraction copies its operand; the last mode is one GEMM."""
    for n, m in enumerate(mats):
        if m is None:
            continue
        head, tail = x.shape[:n], x.shape[n + 1:]
        if tail:
            x = m @ x.reshape(math.prod(head), x.shape[n], math.prod(tail))
        else:
            x = x.reshape(math.prod(head), x.shape[n]) @ m.T
        x = x.reshape(head + (m.shape[0],) + tail)
    return x


def multi_mode_product(x, factors: Sequence[np.ndarray]) -> np.ndarray:
    """Apply one matrix per mode: ``x x_1 A1 x_2 ... x_N AN``."""
    x = as_tensor(x)
    if len(factors) != x.ndim:
        raise InvalidInputError(
            f"need {x.ndim} factors for an order-{x.ndim} tensor, got {len(factors)}")
    mats = [as_matrix(a) for a in factors]
    for n, a in enumerate(mats):
        if a.shape[1] != x.shape[n]:
            raise InvalidInputError(
                f"matrix with {a.shape[1]} columns cannot act on mode of size "
                f"{x.shape[n]}")
    return _mode_products(x, mats)


def explicit_kron(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Densify ``A1 kron ... kron AN``.  Test-oracle path, refused above
    :data:`EXPLICIT_KRON_MAX_ENTRIES` entries."""
    if len(factors) == 0:
        raise InvalidInputError("need at least one factor")
    mats = [as_matrix(a, f"factor {n}") for n, a in enumerate(factors)]
    rows = math.prod(a.shape[0] for a in mats)
    cols = math.prod(a.shape[1] for a in mats)
    if rows * cols > EXPLICIT_KRON_MAX_ENTRIES:
        raise SizeGuardError(
            f"explicit Kronecker product would hold {rows}x{cols} entries "
            f"(guard: {EXPLICIT_KRON_MAX_ENTRIES})")
    return reduce(np.kron, mats)
