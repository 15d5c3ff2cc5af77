"""Fast multiplication with implicit Kronecker products.

The operator ``K = A1 kron ... kron AN`` is only ever represented by its
factor list.  ``kron_mat_mul``, the public multiply, and the unexported
``kron_vec_square`` validate their arguments and hand the operand to
:func:`~kronsolve.tensor._mode_products` as a tensor of the column shape,
since ``vec(G x_1 A1 ... x_N AN) = K vec(G)``.

Everything else here is a kernel that takes checked input: the solvers
validate the factors at their public entry and draw every sketch
themselves, so :class:`SparseDiagonal`, :func:`sparse_diagonal_from_sketch`,
:class:`SketchedKron` and its ``sketched_*`` wrappers trust their arguments
(finite float64 factors, a multi-index sketch inside the row shape, the
multi-indices of a diagonal's rows, vectors of the operator's lengths) and
check nothing again.
:class:`SketchedKron` is the row-sparsified ``S K`` for one
sketch: built once, it splits the factors into two column-balanced groups,
keeps the narrow left group's entries at the nonzeros one left column at a
time (a left-group columns x nnz float array) and the distinct rows of the
wide right group, both from :func:`kron_rows`, and applies ``S K``,
``K^T S`` and ``K^T S^2 K`` touching only the nonzero rows.  The apply
adds one gather per left column; the transpose mirrors it with one
``np.bincount`` per left column into the bins of the distinct right rows
and finishes with one multiply against those rows.  The ``sketched_*``
functions are one-shot wrappers around it.  Every Kronecker row comes
from :func:`kron_rows`: it returns the transpose view of a column-major
array, so the left columns are its result transposed back, with no copy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError
from .leverage import RowSketch
from .tensor import _mode_products, as_matrix, as_real_array, as_tensor

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
    rows.  One mode product per factor, leading first, costs ``O(K * sum_n
    I_1..I_n J_n..J_N)`` for ``K`` columns; the columns enter as a leading
    mode (``K = 1`` for one right-hand side, none for a vector), so the last
    factor stays one matrix product.
    """
    factors = check_factors(factors)
    b = as_real_array(b, "b")
    if b.ndim not in (1, 2):
        raise InvalidInputError("b must be a vector or a matrix")
    rows, cols = kron_operator_shape(factors)
    if b.shape[0] != cols:
        raise InvalidInputError(
            f"operand has {b.shape[0]} rows but the operator has {cols} columns")
    lead = b.shape[1:]
    out = _mode_products(b.T.reshape(lead + tuple(a.shape[1] for a in factors)),
                         [None] * len(lead) + factors)
    return out.reshape(lead + (rows,)).T


def kron_vec_square(factors: Sequence[np.ndarray], c) -> np.ndarray:
    """Multiply a Kronecker product of square factors by a vector.

    The checked square-factor entry to the multiply kernel; costs
    ``O(R * sum_n R_n)`` for ``R = prod R_n``.  Non-finite factors or a
    non-finite vector raise :class:`InvalidInputError`.
    """
    factors = check_factors(factors)
    for n, a in enumerate(factors):
        if a.shape[0] != a.shape[1]:
            raise InvalidInputError(f"factor {n} is {a.shape}, expected square")
    c = as_tensor(c, "vector").reshape(-1)
    shape = tuple(a.shape[0] for a in factors)
    if c.size != math.prod(shape):
        raise InvalidInputError(f"vector length {c.size} != operator shape {shape}")
    return _mode_products(c.reshape(shape), factors).reshape(-1)


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
    """Sparse diagonal over the Kronecker rows: strictly increasing flat
    int64 ``indices`` inside the row count and finite float64 ``values`` of
    the same length (not checked)."""

    indices: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        return self.indices.size


def sparse_diagonal_from_sketch(sketch: RowSketch, row_shape: Sequence[int]) -> SparseDiagonal:
    """Collapse a row sketch into the diagonal ``sqrt(S^T S)``.

    Repeated draws of the same row accumulate: the diagonal entry at row j is
    ``sqrt(count_j / (p_j s))``, so applying the diagonal twice reproduces
    ``S^T S`` exactly.  One sort (``np.unique``) merges the draws, and
    ``np.bincount`` adds each row's squared weights in draw order.  The
    sketch holds multi-indices, shape ``(s, N)``, inside ``row_shape``.
    """
    flat = np.ravel_multi_index(tuple(sketch.indices.T), tuple(row_shape))
    unique, inverse = np.unique(flat, return_inverse=True)
    sums = np.bincount(inverse, weights=sketch.weights**2, minlength=unique.size)
    return SparseDiagonal(indices=unique, values=np.sqrt(sums))


def kron_rows(factors: Sequence[np.ndarray], multi_indices: np.ndarray) -> np.ndarray:
    """Rows of the Kronecker product at the given multi-indices.

    ``multi_indices`` has shape (m, N); the result is (m, prod cols), also
    for m = 0: the transpose view of a C-contiguous (prod cols, m) array.
    Each factor contributes the gather ``np.take(A.T, idx, axis=1)``, one
    row per factor column, and each further factor multiplies into a new
    array of the product's size, so a single factor's gather is the result
    itself, with no copy.  An empty factor list yields one all-ones column.
    """
    multi_indices = np.atleast_2d(np.asarray(multi_indices, dtype=np.intp))
    m = multi_indices.shape[0]
    if not factors:
        return np.ones((1, m)).T
    acc = np.take(factors[0].T, multi_indices[:, 0], axis=1)
    for n, a in enumerate(factors[1:], start=1):
        part = np.take(a.T, multi_indices[:, n], axis=1)
        out = np.empty((acc.shape[0] * part.shape[0], m))
        np.multiply(acc[:, None, :], part[None, :, :],
                    out=out.reshape(acc.shape[0], part.shape[0], m))
        acc = out
    return acc.T


class SketchedKron:
    """The row-sparsified operator ``S K`` for one sparse diagonal ``S``.

    Everything that depends only on the factors and the sketch is derived
    once: the factors, which the caller has checked, are split by
    :func:`balanced_partition` into a left and a right column group, the
    left group never the wider.
    ``left_columns`` holds the left-group Kronecker rows of the nonzeros
    one left column at a time (left-group columns x nnz, C-contiguous; one
    all-ones row when the left group is empty), ``right_rows`` the distinct
    right-group rows and ``right_pos`` each nonzero's position among them,
    and the column mode order of the two groups is kept with its inverse
    permutation.  Each later apply is then a loop over the left columns,
    each step one gather or one ``np.bincount`` over contiguous nnz-long
    rows, plus one dense multiply.  An empty diagonal takes the same path,
    with zero-length rows, and its applies return zeros.

    ``multi`` holds the ``(nnz, N)`` multi-indices of ``s_diag.indices``,
    which the caller has already unravelled to read ``b`` at the draws
    (:func:`diagonal_multi_indices` forms them from the diagonal alone).
    """

    def __init__(self, factors: Sequence[np.ndarray], s_diag: SparseDiagonal,
                 multi: np.ndarray):
        self.factors = list(factors)
        self.s_diag = s_diag
        self.rows, self.cols = kron_operator_shape(self.factors)
        row_shape = tuple(a.shape[0] for a in self.factors)
        self.col_shape = tuple(a.shape[1] for a in self.factors)
        # ties go to the empty left set, so the right group is never empty
        self.part = balanced_partition(self.col_shape)
        left, right = list(self.part.left), list(self.part.right)
        self.left_columns = kron_rows([self.factors[i] for i in left], multi[:, left]).T
        right_dims = tuple(row_shape[i] for i in right)
        unique, self.right_pos = np.unique(
            np.ravel_multi_index(tuple(multi[:, right].T), right_dims),
            return_inverse=True)
        distinct = np.stack(np.unravel_index(unique, right_dims), axis=1)
        self.right_rows = kron_rows([self.factors[i] for i in right], distinct)
        # column modes in (left group, right group) order, and back
        self.group_order = self.part.left + self.part.right
        self.grouped_shape = tuple(self.col_shape[i] for i in self.group_order)
        self.ungroup = tuple(int(i) for i in np.argsort(self.group_order))

    def apply(self, c) -> np.ndarray:
        """Entries of ``S K c`` at the nonzero rows of ``S``.

        The right group acts on the matricized ``c`` at its distinct rows,
        one row of ``y_t`` per left column; each output entry then sums, over
        the left columns in order, that column's row of ``y_t`` at the
        entry's right row times its left-group entry.  Returns values
        aligned with ``s_diag.indices`` (already scaled by
        ``s_diag.values``).
        """
        r_left = self.left_columns.shape[0]
        grouped = c.reshape(self.col_shape).transpose(self.group_order).reshape(r_left, -1)
        y_t = grouped @ self.right_rows.T  # (left cols) x (distinct right rows)
        vals = np.zeros(self.s_diag.nnz)
        term = np.empty_like(vals)
        for y_j, column in zip(y_t, self.left_columns):
            # every position is in range, and "clip" spares take's buffered copy
            y_j.take(self.right_pos, out=term, mode="clip")
            term *= column
            vals += term
        vals *= self.s_diag.values
        return vals

    def transpose_apply(self, b_values) -> np.ndarray:
        """Compute ``K^T S b`` given only the entries of ``b`` at nonzero rows.

        The mirror of :meth:`apply`: for each left column, the nonzeros'
        entries of that column, scaled by their entries of ``S b``, are
        summed into the bins of their distinct right rows by one
        ``np.bincount``, and one multiply against the distinct right rows
        finishes the contraction.  ``np.bincount`` adds each bin's terms in
        nonzero order, as ``np.add.at`` would, so the sums are the same to
        the bit.  ``b_values[t]`` corresponds to ``s_diag.indices[t]``.
        """
        scaled = self.s_diag.values * b_values
        n_right = self.right_rows.shape[0]
        w_t = np.empty((self.left_columns.shape[0], n_right))
        for w_j, column in zip(w_t, self.left_columns):
            w_j[:] = np.bincount(self.right_pos, weights=column * scaled, minlength=n_right)
        # BLAS reads the transposed view w_t.T through its transpose flag, with no copy
        m = self.right_rows.T @ w_t.T  # (right cols) x (left cols)
        # (left slow, right fast) grouped order, permuted back to natural order
        return m.T.reshape(self.grouped_shape).transpose(self.ungroup).reshape(-1)

    def normal(self, x) -> np.ndarray:
        """``K^T S^2 K x``, the sketched normal matrix applied to ``x``."""
        return self.transpose_apply(self.apply(x))


def diagonal_multi_indices(factors: Sequence[np.ndarray],
                           s_diag: SparseDiagonal) -> np.ndarray:
    """The ``(nnz, N)`` multi-indices of ``s_diag.indices`` in ``K``'s row shape."""
    row_shape = tuple(a.shape[0] for a in factors)
    return np.stack(np.unravel_index(s_diag.indices, row_shape), axis=1)


def sketched_kron_apply(factors: Sequence[np.ndarray], s_diag: SparseDiagonal,
                        c) -> np.ndarray:
    """Entries of ``S K c`` at the nonzero rows of ``S``; see :class:`SketchedKron`."""
    return SketchedKron(factors, s_diag, diagonal_multi_indices(factors, s_diag)).apply(c)


def sketched_kron_transpose_apply(factors: Sequence[np.ndarray],
                                  s_diag: SparseDiagonal, b_values) -> np.ndarray:
    """``K^T S b`` from the entries of ``b`` at nonzero rows; see :class:`SketchedKron`."""
    return SketchedKron(factors, s_diag, diagonal_multi_indices(factors, s_diag)
                        ).transpose_apply(b_values)
