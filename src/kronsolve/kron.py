"""Fast multiplication with implicit Kronecker products.

The operator ``K = A1 kron ... kron AN`` is only ever represented by its
factor list.  ``kron_mat_mul`` peels the rightmost factor off recursively;
its checks wrap the one unchecked multiply kernel, which the Kronecker-eigen
preconditioner calls directly (its factors are singular vectors computed
from checked input) and which ``kron_vec_square`` reuses for square factors.
:class:`SketchedKron` is the row-sparsified ``S K`` for one
sketch: built once, it splits the factors into two column-balanced groups,
keeps the distinct Kronecker rows each group needs, and applies ``S K``,
``K^T S`` and ``K^T S^2 K`` touching only the nonzero rows.  The left-group
row of every nonzero, the flat scatter index of the transpose and the
column permutation into and out of the group order are also built once
(about nnz x left-group columns floats plus nnz x right-group columns
int64), so an apply gathers only the right-group side and a
transpose scatters with one ``np.bincount``.  The ``sketched_*`` functions
are one-shot wrappers around it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError
from .leverage import RowSketch
from .tensor import as_matrix

BALANCED_PARTITION_MAX_ORDER = 30


def check_factors(factors: Sequence[np.ndarray]) -> list[np.ndarray]:
    if len(factors) == 0:
        raise InvalidInputError("need at least one factor")
    return [as_matrix(a, f"factor {n}") for n, a in enumerate(factors)]


def kron_operator_shape(factors: Sequence[np.ndarray]) -> tuple[int, int]:
    """Implied (rows, cols) of the Kronecker product of ``factors``."""
    rows = math.prod(a.shape[0] for a in factors)
    cols = math.prod(a.shape[1] for a in factors)
    return rows, cols


def kron_mat_mul(factors: Sequence[np.ndarray], b) -> np.ndarray:
    """Compute ``(A1 kron ... kron AN) @ b`` without densifying the product.

    ``b`` may be a vector of length ``prod(cols)`` or a matrix with that many
    rows.  The rightmost factor is applied first and the remaining product is
    handled recursively, costing ``O(K * sum_n J_1..J_n I_n..I_N)`` overall.
    """
    factors = check_factors(factors)
    b = np.asarray(b, dtype=np.float64)
    squeeze = b.ndim == 1
    if squeeze:
        b = b[:, None]
    if b.ndim != 2:
        raise InvalidInputError("b must be a vector or a matrix")
    _, cols = kron_operator_shape(factors)
    if b.shape[0] != cols:
        raise InvalidInputError(
            f"b has {b.shape[0]} rows but the operator has {cols} columns")
    out = _kron_mat_mul_rec(factors, b)
    return out[:, 0] if squeeze else out


def _kron_mat_mul_rec(factors: Sequence[np.ndarray], b: np.ndarray) -> np.ndarray:
    if len(factors) == 1:
        return factors[0] @ b
    tail = factors[-1]
    i_n, j_n = tail.shape
    q = b.shape[0] // j_n
    k = b.shape[1]
    # z[q, i, k] = sum_j tail[i, j] * b[(q, j), k]  -- extract rightmost factor
    z = np.tensordot(b.reshape(q, j_n, k), tail, axes=([1], [1]))  # (q, k, i)
    z = z.transpose(0, 2, 1).reshape(q, i_n * k)
    c = _kron_mat_mul_rec(factors[:-1], z)
    return c.reshape(c.shape[0] * i_n, k)


def kron_vec_square(factors: Sequence[np.ndarray], c) -> np.ndarray:
    """Multiply a Kronecker product of square factors by a vector.

    The checked square-factor entry to :func:`kron_mat_mul`'s kernel; costs
    ``O(R * sum_n R_n)`` for ``R = prod R_n``.  Non-finite factors or a
    non-finite vector raise :class:`InvalidInputError`.
    """
    factors = check_factors(factors)
    for n, a in enumerate(factors):
        if a.shape[0] != a.shape[1]:
            raise InvalidInputError(f"factor {n} is {a.shape}, expected square")
    c = np.asarray(c, dtype=np.float64).reshape(-1)
    size = math.prod(a.shape[0] for a in factors)
    if c.size != size:
        raise InvalidInputError(f"vector length {c.size} != operator size {size}")
    if not np.all(np.isfinite(c)):
        raise InvalidInputError("vector contains non-finite entries")
    return _kron_mat_mul_rec(factors, c[:, None])[:, 0]


@dataclass(frozen=True)
class FactorPartition:
    """A split of factor positions minimizing the larger column product."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    left_product: int
    right_product: int

    @property
    def objective(self) -> int:
        return max(self.left_product, self.right_product)


def balanced_partition(col_dims: Sequence[int]) -> FactorPartition:
    """Split positions of ``col_dims`` to minimize max(prod left, prod right).

    Exhaustive over all subsets (guarded); ties are broken by the smaller
    left product, then lexicographically by the left index tuple.
    """
    dims = [int(d) for d in col_dims]
    n = len(dims)
    if n == 0:
        raise InvalidInputError("need at least one column dimension")
    if n > BALANCED_PARTITION_MAX_ORDER:
        raise InvalidInputError(
            f"exhaustive partition search supports at most "
            f"{BALANCED_PARTITION_MAX_ORDER} factors, got {n}")
    if any(d < 1 for d in dims):
        raise InvalidInputError("column dimensions must be positive")
    best = None
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            lp = math.prod(dims[i] for i in subset)
            rp = math.prod(dims) // lp
            key = (max(lp, rp), lp, subset)
            if best is None or key < best[0]:
                best = (key, subset, lp, rp)
    _, subset, lp, rp = best
    right = tuple(i for i in range(n) if i not in subset)
    return FactorPartition(left=subset, right=right, left_product=lp,
                           right_product=rp)


@dataclass(frozen=True)
class SparseDiagonal:
    """Sparse diagonal over the Kronecker rows: sorted unique flat indices."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64).reshape(-1)
        val = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if idx.size != val.size:
            raise InvalidInputError("indices and values must have equal length")
        if idx.size and np.any(np.diff(idx) <= 0):
            raise InvalidInputError("indices must be strictly increasing")
        if idx.size and idx[0] < 0:
            raise InvalidInputError("indices must be nonnegative")
        if not np.all(np.isfinite(val)):
            raise InvalidInputError("values must be finite")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    @property
    def nnz(self) -> int:
        return self.indices.size


def sparse_diagonal_from_sketch(sketch: RowSketch, row_shape: Sequence[int]) -> SparseDiagonal:
    """Collapse a row sketch into the diagonal ``sqrt(S^T S)``.

    Repeated draws of the same row accumulate: the diagonal entry at row j is
    ``sqrt(count_j / (p_j s))``, so applying the diagonal twice reproduces
    ``S^T S`` exactly.
    """
    idx = sketch.indices
    if idx.ndim == 2:
        flat = np.ravel_multi_index(tuple(idx.T), tuple(row_shape))
    else:
        flat = idx
    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    w2 = sketch.weights[order] ** 2
    unique, start = np.unique(flat, return_index=True)
    sums = np.add.reduceat(w2, start)
    return SparseDiagonal(indices=unique, values=np.sqrt(sums))


def kron_rows(factors: Sequence[np.ndarray], multi_indices: np.ndarray) -> np.ndarray:
    """Rows of the Kronecker product at the given multi-indices.

    ``multi_indices`` has shape (m, N); the result is (m, prod cols).  An
    empty factor list yields a single all-ones column.
    """
    multi_indices = np.atleast_2d(np.asarray(multi_indices, dtype=np.intp))
    m = multi_indices.shape[0]
    acc = np.ones((m, 1))
    for n, a in enumerate(factors):
        part = a[multi_indices[:, n], :]
        acc = (acc[:, :, None] * part[:, None, :]).reshape(m, -1)
    return acc


class SketchedKron:
    """The row-sparsified operator ``S K`` for one sparse diagonal ``S``.

    Everything that depends only on the factors and the sketch is derived
    once: the factors are validated, the nonzero rows are split by
    :func:`balanced_partition` into a left and a right column group, and the
    distinct Kronecker rows of each group are formed together with every
    nonzero row's position among them.  Three structures that every call
    would otherwise rebuild are kept as well: ``left_gather``, the
    left-group row of each nonzero (nnz x left-group columns floats),
    ``scatter``, the flat (left row, right column) bin of each entry the
    transpose accumulates (nnz x right-group columns int64), and the column
    mode order of the two groups with its inverse permutation.  Each later
    apply is then a gather plus small dense multiplies.
    """

    def __init__(self, factors: Sequence[np.ndarray], s_diag: SparseDiagonal):
        self.factors = check_factors(factors)
        self.s_diag = s_diag
        self.rows, self.cols = kron_operator_shape(self.factors)
        if s_diag.nnz and s_diag.indices[-1] >= self.rows:
            raise InvalidInputError("sparse diagonal index out of range")
        if s_diag.nnz == 0:
            return
        row_shape = tuple(a.shape[0] for a in self.factors)
        self.col_shape = tuple(a.shape[1] for a in self.factors)
        self.part = balanced_partition(self.col_shape)
        multi = np.unravel_index(s_diag.indices, row_shape)
        self.left_rows, self.left_pos = self._group_rows(self.part.left, multi, row_shape)
        self.right_rows, self.right_pos = self._group_rows(self.part.right, multi, row_shape)
        self.left_gather = self.left_rows[self.left_pos]
        # column modes in (left group, right group) order, and back
        self.group_order = self.part.left + self.part.right
        self.grouped_shape = tuple(self.col_shape[i] for i in self.group_order)
        self.ungroup = tuple(int(i) for i in np.argsort(self.group_order))
        r_right = self.right_rows.shape[1]
        self.scatter = (self.left_pos[:, None] * r_right + np.arange(r_right)).reshape(-1)

    def _group_rows(self, positions, multi, row_shape):
        """Distinct Kronecker rows of one factor group, and each nonzero's position."""
        if not positions:
            return np.ones((1, 1)), np.zeros(self.s_diag.nnz, dtype=np.intp)
        dims = tuple(row_shape[i] for i in positions)
        flat = np.ravel_multi_index(tuple(multi[i] for i in positions), dims)
        unique, pos = np.unique(flat, return_inverse=True)
        distinct = np.stack(np.unravel_index(unique, dims), axis=1)
        return kron_rows([self.factors[i] for i in positions], distinct), pos

    def apply(self, c) -> np.ndarray:
        """Entries of ``S K c`` at the nonzero rows of ``S``.

        The right group acts on the matricized ``c`` at its distinct rows,
        and each output entry contracts one left-group row with one of those
        columns.  Returns values aligned with ``s_diag.indices`` (already
        scaled by ``s_diag.values``).
        """
        c = np.asarray(c, dtype=np.float64).reshape(-1)
        if c.size != self.cols:
            raise InvalidInputError(
                f"vector length {c.size} != operator columns {self.cols}")
        if self.s_diag.nnz == 0:
            return np.zeros(0)
        r_left = self.left_rows.shape[1]
        grouped = c.reshape(self.col_shape).transpose(self.group_order).reshape(-1)
        c_mat = grouped.reshape(r_left, -1).T
        y = self.right_rows @ c_mat  # (distinct right rows) x (left cols)
        vals = np.einsum("tj,tj->t", y[self.right_pos], self.left_gather)
        return self.s_diag.values * vals

    def transpose_apply(self, b_values) -> np.ndarray:
        """Compute ``K^T S b`` given only the entries of ``b`` at nonzero rows.

        ``S b`` is scattered into a sparse matricization over the factor
        split, and one rectangular multiply against the distinct left-group
        rows finishes the contraction.  ``np.bincount`` adds each bin's terms
        in nonzero order, as ``np.add.at`` would, so the sums are the same
        to the bit.  ``b_values[t]`` corresponds to ``s_diag.indices[t]``.
        """
        b_values = np.asarray(b_values, dtype=np.float64).reshape(-1)
        if b_values.size != self.s_diag.nnz:
            raise InvalidInputError("b_values must align with the sparse diagonal")
        if self.s_diag.nnz == 0:
            return np.zeros(self.cols)
        scaled = self.s_diag.values * b_values
        # columns of (right kron)^T @ B_S at the occupied left-group indices
        shape = (self.left_rows.shape[0], self.right_rows.shape[1])
        terms = scaled[:, None] * self.right_rows[self.right_pos]
        w = np.bincount(self.scatter, weights=terms.reshape(-1),
                        minlength=shape[0] * shape[1]).reshape(shape)
        m = w.T @ self.left_rows  # (right cols) x (left cols): the rectangular multiply
        # (left slow, right fast) grouped order, permuted back to natural order
        return m.T.reshape(self.grouped_shape).transpose(self.ungroup).reshape(-1)

    def normal(self, x) -> np.ndarray:
        """``K^T S^2 K x``, the sketched normal matrix applied to ``x``."""
        return self.transpose_apply(self.apply(x))


def sketched_kron_apply(factors: Sequence[np.ndarray], s_diag: SparseDiagonal,
                        c) -> np.ndarray:
    """Entries of ``S K c`` at the nonzero rows of ``S``; see :class:`SketchedKron`."""
    return SketchedKron(factors, s_diag).apply(c)


def sketched_kron_transpose_apply(factors: Sequence[np.ndarray],
                                  s_diag: SparseDiagonal, b_values) -> np.ndarray:
    """``K^T S b`` from the entries of ``b`` at nonzero rows; see :class:`SketchedKron`."""
    return SketchedKron(factors, s_diag).transpose_apply(b_values)
