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
(finite float64 factors, a multi-index sketch inside the row shape, a
diagonal whose rows are distinct multi-indices in row order, vectors of the
operator's lengths) and check nothing again.
:class:`SketchedKron` is the row-sparsified ``S K`` for one
sketch: built once, it splits the factors into two column-balanced groups
and groups the nonzeros by their row of the wide right group, the rows with
equally many nonzeros side by side (the row-length grouping of sliced
ELLPACK).  Within each such count group the nonzeros are stored
position-in-run-major, as sliced ELLPACK stores a slice: the first nonzero
of every row, then the second, and so on.  It keeps the narrow left group's
entries at the nonzeros one left column at a time (a left-group columns x
nnz float array, so a count group's slice reads as left columns x
position x rows) and the distinct right rows, both from :func:`kron_rows`,
and applies ``S K``, ``K^T S`` and ``K^T S^2 K`` touching only the nonzero
rows: one multiply against the distinct right rows and one ``np.einsum``
per count group, whose inner loop runs over the group's rows.  The normal
apply fuses the two passes, as FusedMM fuses a sampled product with the
sparse product that follows: one loop over the groups applies, weights and
bins each group while its left columns are still in cache.  The
``sketched_*`` functions are one-shot wrappers around it.  Every Kronecker
row comes from :func:`kron_rows`: it returns the transpose view of a
column-major array, so the left columns are its result transposed back,
with no copy.
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

# sparse_diagonal_from_sketch merges the draws by counting them into the
# whole row space when it holds at most this many rows per draw, and by
# sorting them above.  Measured at 1 BLAS thread, 400 to 40,000 uniform
# draws: counting took 0.27-0.37x the sort's time at 1-2 rows per draw,
# 0.51-1.0x at 4, 0.8-2.2x at 8 and 1.5-2.7x at 16.  A tucker-cube factor
# step (1,511 draws over 3,600 rows) counts; reg-thin and reg-table (389 and
# 38,049 draws over 16.8M rows) sort.
_COUNT_MERGE_MAX_ROWS_PER_DRAW = 4


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
    """Sparse diagonal over the Kronecker rows: ``indices`` holds the
    ``(nnz, N)`` multi-indices of its rows inside the row shape, distinct and
    in row order, and ``values`` their finite float64 entries (not checked)."""

    indices: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        return self.values.size


def sparse_diagonal_from_sketch(sketch: RowSketch, row_shape: Sequence[int]) -> SparseDiagonal:
    """Collapse a row sketch into the diagonal ``sqrt(S^T S)``.

    Repeated draws of the same row accumulate: the diagonal entry at row j is
    ``sqrt(count_j / (p_j s))``, so applying the diagonal twice reproduces
    ``S^T S`` exactly.  Where the row space holds at most
    :data:`_COUNT_MERGE_MAX_ROWS_PER_DRAW` rows per draw, one
    ``np.bincount`` over it merges the draws and its nonzero bins are the
    drawn rows; above that, one sort (``np.unique``) merges them and
    ``np.bincount`` sums over the distinct rows.  Both add each row's
    squared weights in draw order, and a drawn row's squared weight is
    positive, so both give the same diagonal to the bit.  The sketch holds
    multi-indices, shape ``(s, N)``, inside ``row_shape``; the merge runs on
    their flat rows and unravels the distinct ones once, at its end.
    """
    flat = np.ravel_multi_index(tuple(sketch.indices.T), tuple(row_shape))
    weights_sq = sketch.weights**2
    rows = math.prod(row_shape)
    if rows <= _COUNT_MERGE_MAX_ROWS_PER_DRAW * flat.size:
        sums = np.bincount(flat, weights=weights_sq, minlength=rows)
        indices = np.flatnonzero(sums)
        sums = sums[indices]
    else:
        indices, inverse = np.unique(flat, return_inverse=True)
        sums = np.bincount(inverse, weights=weights_sq, minlength=indices.size)
    multi = np.stack(np.unravel_index(indices, tuple(row_shape)), axis=1)
    return SparseDiagonal(indices=multi, values=np.sqrt(sums))


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


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of ``a`` starts; none for an empty ``a``."""
    first = np.ones(min(a.size, 1), dtype=bool)
    return np.flatnonzero(np.concatenate((first, a[1:] != a[:-1])))


class SketchedKron:
    """The row-sparsified operator ``S K`` for one sparse diagonal ``S``.

    Everything that depends only on the factors and the sketch is derived
    once: the factors, which the caller has checked, are split by
    :func:`balanced_partition` into a left and a right column group, the
    left group never the wider.  The nonzeros are then reordered by
    ``perm`` (a permutation of ``range(nnz)``): sorted first by how many
    nonzeros share their right-group row, then by that row, so the rows
    with equally many nonzeros form one group, the groups in increasing
    size; ``groups`` holds one ``(c, r0, r1, k0, k1)`` per group size: the
    n = r1 - r0 distinct rows ``r0:r1`` each hold ``c`` nonzeros, the
    nonzeros ``k0:k1``.  Within a group the nonzeros are position-in-run-
    major: nonzero ``k0 + j n + i`` is the j-th of row ``r0 + i``.  In that
    order ``left_columns`` holds the left-group Kronecker rows of the
    nonzeros one left column at a time (left-group columns x nnz,
    C-contiguous; one all-ones row when the left group is empty), so a
    group's columns ``k0:k1`` read as (left cols, c, n), ``right_rows``
    holds the distinct right-group rows and ``weights`` the diagonal's
    values.  The column mode order of the two groups is kept with its
    inverse permutation.  There are three passes, :meth:`apply`,
    :meth:`transpose_apply` and the fused :meth:`normal`, each one dense
    multiply plus one ``np.einsum`` per group size (two in ``normal``) over
    contiguous slices, its inner loop over the group's n rows; ``apply``
    and ``transpose_apply`` pay one nnz-long scatter or gather to
    ``s_diag``'s order.  An empty diagonal takes the same path, with no
    groups and zero-length rows, and its applies return zeros.
    """

    def __init__(self, factors: Sequence[np.ndarray], s_diag: SparseDiagonal):
        factors = list(factors)
        self.s_diag = s_diag
        self.cols = kron_operator_shape(factors)[1]
        row_shape = tuple(a.shape[0] for a in factors)
        self.col_shape = tuple(a.shape[1] for a in factors)
        # ties go to the empty left set, so the right group is never empty
        self.part = balanced_partition(self.col_shape)
        left, right = list(self.part.left), list(self.part.right)
        right_dims = tuple(row_shape[i] for i in right)
        keys = np.ravel_multi_index(tuple(s_diag.indices[:, right].T), right_dims)
        by_row = np.argsort(keys)
        sorted_keys = keys[by_row]
        starts = _run_starts(sorted_keys)  # in by_row, of each distinct right row
        counts = np.diff(starts, append=keys.size)
        by_count = np.argsort(counts, kind="stable")
        sizes = counts[by_count]
        offsets = np.concatenate(([0], np.cumsum(sizes)))  # of each row, grouped
        bounds = np.append(_run_starts(sizes), sizes.size)  # of each group's rows
        self.groups = tuple(zip(sizes[bounds[:-1]].tolist(), bounds[:-1].tolist(),
                                bounds[1:].tolist(), offsets[bounds[:-1]].tolist(),
                                offsets[bounds[1:]].tolist()))
        # each row's run of by_row, moved to its grouped offset
        self.perm = by_row[np.repeat(starts[by_count] - offsets[:-1], sizes)
                           + np.arange(keys.size)]
        # then, within each group, the j-th nonzero of every row side by side
        for c_row, r0, r1, k0, k1 in self.groups:
            self.perm[k0:k1] = self.perm[k0:k1].reshape(r1 - r0, c_row).T.reshape(-1)
        self.weights = s_diag.values[self.perm]
        self.left_columns = kron_rows([factors[i] for i in left],
                                      s_diag.indices[self.perm[:, None], left]).T
        distinct = np.stack(np.unravel_index(sorted_keys[starts[by_count]], right_dims),
                            axis=1)
        self.right_rows = kron_rows([factors[i] for i in right], distinct)
        # column modes in (left group, right group) order, and back
        self.group_order = self.part.left + self.part.right
        self.grouped_shape = tuple(self.col_shape[i] for i in self.group_order)
        self.ungroup = tuple(int(i) for i in np.argsort(self.group_order))

    def _blocks(self):
        """Each group's ``(r0, r1, k0, k1)`` with its left columns read as
        (left cols, c, n) for its n = r1 - r0 rows: the j-th nonzeros of
        the rows side by side, so each ``np.einsum`` runs its inner loop
        over the rows."""
        r_left = self.left_columns.shape[0]
        for c_row, r0, r1, k0, k1 in self.groups:
            yield r0, r1, k0, k1, self.left_columns[:, k0:k1].reshape(r_left, c_row, r1 - r0)

    def _right_apply(self, c) -> np.ndarray:
        """The right group's action on the matricized ``c`` at its distinct
        rows, ``y_t``: (left cols) x (distinct right rows)."""
        r_left = self.left_columns.shape[0]
        grouped = c.reshape(self.col_shape).transpose(self.group_order).reshape(r_left, -1)
        return grouped @ self.right_rows.T

    def _right_transpose(self, w_t) -> np.ndarray:
        """``K^T``'s last step: the bins ``w_t`` of the distinct right rows,
        (left cols) x (distinct right rows), times those rows, in natural
        column order."""
        # BLAS reads the transposed view w_t.T through its transpose flag, with no copy
        m = self.right_rows.T @ w_t.T  # (right cols) x (left cols)
        # (left slow, right fast) grouped order, permuted back to natural order
        return m.T.reshape(self.grouped_shape).transpose(self.ungroup).reshape(-1)

    def apply(self, c) -> np.ndarray:
        """Entries of ``S K c`` at the nonzero rows of ``S``, aligned with
        ``s_diag.indices`` (already scaled by ``s_diag.values``).

        Each group's entries sum, over the left columns, their right row's
        entry of ``y_t`` times their left-group entry, as one ``np.einsum``;
        the weighted entries are then scattered back through ``perm``.
        """
        y_t = self._right_apply(c)
        vals = np.empty(self.weights.size)
        for r0, r1, k0, k1, block in self._blocks():
            np.einsum("lcn,ln->cn", block, y_t[:, r0:r1],
                      out=vals[k0:k1].reshape(block.shape[1:]))
        vals *= self.weights
        out = np.empty(self.weights.size)
        out[self.perm] = vals
        return out

    def transpose_apply(self, b_values) -> np.ndarray:
        """Compute ``K^T S b`` given only the entries of ``b`` at nonzero rows.

        ``b_values[t]`` corresponds to ``s_diag.indices[t]``; one gather
        through ``perm`` puts them in the grouped order.  The mirror of
        :meth:`apply`: one ``np.einsum`` per group into the bins of its
        distinct rows, then one multiply against the distinct right rows.
        """
        scaled = self.weights * b_values[self.perm]
        w_t = np.empty((self.left_columns.shape[0], self.right_rows.shape[0]))
        for r0, r1, k0, k1, block in self._blocks():
            np.einsum("lcn,cn->ln", block, scaled[k0:k1].reshape(block.shape[1:]),
                      out=w_t[:, r0:r1])
        return self._right_transpose(w_t)

    def normal(self, x) -> np.ndarray:
        """``K^T S^2 K x``, the sketched normal matrix applied to ``x``.

        One pass over the groups fuses the two applies: each group's
        entries of ``S K x`` are formed, multiplied by the weights twice,
        and binned while its left columns are still in cache.  The bins go
        over the columns of ``y_t`` the group has just read, so no second
        (left cols) x (distinct right rows) array is held.  Every entry is
        rounded as in ``transpose_apply(apply(x))``, so the two agree to
        the bit.
        """
        y_t = self._right_apply(x)
        vals = np.empty(self.weights.size)
        for r0, r1, k0, k1, block in self._blocks():
            v = vals[k0:k1].reshape(block.shape[1:])
            np.einsum("lcn,ln->cn", block, y_t[:, r0:r1], out=v)
            w = self.weights[k0:k1].reshape(block.shape[1:])
            v *= w
            v *= w
            np.einsum("lcn,cn->ln", block, v, out=y_t[:, r0:r1])
        return self._right_transpose(y_t)


def sketched_kron_apply(factors: Sequence[np.ndarray], s_diag: SparseDiagonal,
                        c) -> np.ndarray:
    """Entries of ``S K c`` at the nonzero rows of ``S``; see :class:`SketchedKron`."""
    return SketchedKron(factors, s_diag).apply(c)


def sketched_kron_transpose_apply(factors: Sequence[np.ndarray],
                                  s_diag: SparseDiagonal, b_values) -> np.ndarray:
    """``K^T S b`` from the entries of ``b`` at nonzero rows; see :class:`SketchedKron`."""
    return SketchedKron(factors, s_diag).transpose_apply(b_values)
