import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kronsolve.kron as kron
from kronsolve.errors import InvalidInputError
from kronsolve.kron import (
    SketchedKron,
    SparseDiagonal,
    balanced_partition,
    kron_mat_mul,
    kron_rows,
    kron_vec_square,
    sketched_kron_apply,
    sketched_kron_transpose_apply,
    sparse_diagonal_from_sketch,
)
from kronsolve.leverage import (
    RowSketch,
    build_product_sampler,
    ridge_leverage_scores,
    sample_rows,
)
from kronsolve.tensor import compact_svd, explicit_kron

from conftest import dense_kron


def random_factors(rng, shapes):
    return [rng.standard_normal(s) for s in shapes]


def diagonal(row_shape, flat, values):
    """The sparse diagonal over the distinct flat rows ``flat``, in row order."""
    return SparseDiagonal(indices=np.stack(np.unravel_index(flat, row_shape), axis=1),
                          values=np.asarray(values, dtype=np.float64))


def flat_rows(factors, sd):
    """The flat rows of ``sd`` in the Kronecker product of ``factors``."""
    return np.ravel_multi_index(tuple(sd.indices.T), [a.shape[0] for a in factors])


def random_sparse_diag(rng, factors, nnz):
    row_shape = [a.shape[0] for a in factors]
    idx = np.sort(rng.choice(math.prod(row_shape), size=nnz, replace=False))
    return diagonal(row_shape, idx, rng.standard_normal(nnz))


def dense_diag(factors, sd):
    n_rows = math.prod(a.shape[0] for a in factors)
    s = np.zeros((n_rows, n_rows))
    idx = flat_rows(factors, sd)
    s[idx, idx] = sd.values
    return s


class TestKronMatMul:
    def test_identity_factors(self, rng):
        b = rng.standard_normal((6, 2))
        np.testing.assert_allclose(
            kron_mat_mul([np.eye(2), np.eye(3)], b), b, atol=1e-12)

    def test_hand_case(self):
        facs = [np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])]
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(kron_mat_mul(facs, e1), [0.0, 1.0, 0.0, 3.0],
                                   atol=1e-12)

    def test_shape_contract(self, rng):
        facs = random_factors(rng, [(3, 2), (2, 4)])
        b = rng.standard_normal((8, 5))
        assert kron_mat_mul(facs, b).shape == (6, 5)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(InvalidInputError):
            kron_mat_mul(random_factors(rng, [(3, 2), (2, 4)]),
                         rng.standard_normal(9))

    @pytest.mark.parametrize("shapes", [
        [(4, 3)],
        [(3, 2), (2, 5)],
        [(2, 3), (4, 2), (3, 2)],
        [(5, 1), (1, 4), (2, 2)],
        [(2, 3), (1, 1), (3, 2), (2, 2)],
    ])
    def test_dense_oracle(self, rng, shapes):
        # a vector, one column and three columns each take their own layout
        facs = random_factors(rng, shapes)
        cols = math.prod(s[1] for s in shapes)
        dense = dense_kron(facs)
        for b_shape in [(cols,), (cols, 1), (cols, 3)]:
            b = rng.standard_normal(b_shape)
            got = kron_mat_mul(facs, b)
            assert got.shape == (dense.shape[0],) + b_shape[1:]
            assert np.max(np.abs(got - dense @ b)) <= 1e-10 * max(1, np.max(np.abs(dense @ b)))
        # one column is the vector's products, to the bit
        v = rng.standard_normal(cols)
        np.testing.assert_array_equal(kron_mat_mul(facs, v[:, None]),
                                      kron_mat_mul(facs, v)[:, None])

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_zero_column_factor(self, position):
        # K has no columns, so K b is the zero vector wherever the empty factor sits
        facs = [np.ones((2, 2)), np.ones((4, 3))]
        facs.insert(position, np.ones((3, 0)))
        np.testing.assert_array_equal(kron_mat_mul(facs, np.zeros(0)), np.zeros(24))


class TestKronVecSquare:
    def test_identity(self, rng):
        c = rng.standard_normal(12)
        np.testing.assert_allclose(
            kron_vec_square([np.eye(3), np.eye(4)], c), c, atol=1e-12)

    def test_single_factor(self, rng):
        a = rng.standard_normal((4, 4))
        c = rng.standard_normal(4)
        np.testing.assert_allclose(kron_vec_square([a], c), a @ c, atol=1e-12)

    def test_dense_oracle(self, rng):
        facs = random_factors(rng, [(2, 2), (3, 3), (2, 2)])
        c = rng.standard_normal(12)
        np.testing.assert_allclose(kron_vec_square(facs, c),
                                   dense_kron(facs) @ c, atol=1e-12)

    def test_rejects_rectangular(self, rng):
        with pytest.raises(InvalidInputError):
            kron_vec_square([rng.standard_normal((3, 2))], rng.standard_normal(2))

    def test_rejects_non_finite_factors(self, rng):
        for bad in (np.nan, np.inf):
            a = rng.standard_normal((3, 3))
            a[1, 2] = bad
            with pytest.raises(InvalidInputError):
                kron_vec_square([np.eye(2), a], rng.standard_normal(6))

    def test_rejects_non_finite_vector(self, rng):
        for bad in (np.nan, np.inf, -np.inf):
            c = rng.standard_normal(6)
            c[4] = bad
            with pytest.raises(InvalidInputError):
                kron_vec_square([np.eye(2), rng.standard_normal((3, 3))], c)


class TestBalancedPartition:
    def test_perfect_split(self):
        p = balanced_partition([2, 2, 2, 2])
        assert p.objective == 4
        assert {p.left_product, p.right_product} == {4}

    def test_single_dim(self):
        p = balanced_partition([5])
        assert p.objective == 5
        assert p.left == () and p.right == (0,)

    def test_enumerated_case(self):
        p = balanced_partition([2, 3, 4])
        assert p.objective == 6
        assert sorted((p.left_product, p.right_product)) == [4, 6]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_independent_enumerator(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        dims = [int(d) for d in rng.integers(1, 6, size=n)]
        p = balanced_partition(dims)
        best = min(
            max(math.prod(dims[i] for i in s), math.prod(dims) // max(1, math.prod(dims[i] for i in s)))
            for r in range(n + 1) for s in itertools.combinations(range(n), r))
        assert p.objective == best

    def test_order_guard(self):
        with pytest.raises(InvalidInputError):
            balanced_partition([2] * 31)


class TestSparseDiagonal:
    def test_from_sketch_aggregates_duplicates(self):
        sketch = RowSketch(indices=np.array([[2], [2], [0]]),
                           weights=np.array([1.0, 1.0, 3.0]))
        sd = sparse_diagonal_from_sketch(sketch, (4,))
        np.testing.assert_array_equal(sd.indices, [[0], [2]])
        # squared diagonal reproduces S^T S: sum of squared weights per row
        np.testing.assert_allclose(sd.values**2, [9.0, 2.0], atol=1e-12)

        # a multi-index sketch drawing one row 12 times: each row's entry
        # squared is the sum of its squared weights, added in draw order
        rng = np.random.default_rng(3)
        row_shape = (3, 4)
        multi = np.array([[1, 2]] * 12 + [[0, 0], [2, 3], [0, 0], [1, 1]])
        order = rng.permutation(multi.shape[0])
        sketch = RowSketch(indices=multi[order],
                           weights=rng.uniform(0.1, 3.0, multi.shape[0]))
        sd = sparse_diagonal_from_sketch(sketch, row_shape)
        flat = np.ravel_multi_index(tuple(sketch.indices.T), row_shape)
        want = np.zeros(math.prod(row_shape))
        np.add.at(want, flat, sketch.weights**2)
        # the distinct multi-indices in row order: flat rows 0, 5, 6 and 11
        np.testing.assert_array_equal(sd.indices, [[0, 0], [1, 1], [1, 2], [2, 3]])
        np.testing.assert_allclose(sd.values**2, want[[0, 5, 6, 11]], rtol=1e-14, atol=0)


class TestDrawMerge:
    """The counting merge and the sorting merge give one diagonal to the bit."""

    # rows per draw 30 / 28, 3 / 12 and 84 / 40 count; 4,000 / 40 and
    # 6,000 / 16 sort
    @pytest.mark.parametrize("row_shape, draws", [
        ((30,), 28), ((3,), 12), ((3, 4, 7), 40), ((4000,), 40), ((10, 20, 30), 16)])
    def test_both_sides_of_the_rule(self, monkeypatch, count_calls, row_shape, draws):
        rng = np.random.default_rng(sum(row_shape) + draws)
        rows = math.prod(row_shape)
        # a quarter of the draws repeat earlier ones, in shuffled order
        flat = rng.integers(0, rows, draws - draws // 4)
        flat = rng.permutation(np.concatenate([flat, rng.choice(flat, draws // 4)]))
        sketch = RowSketch(indices=np.stack(np.unravel_index(flat, row_shape), axis=1),
                           weights=rng.uniform(0.1, 3.0, draws))
        uniques = count_calls(np, "unique")
        merged = sparse_diagonal_from_sketch(sketch, row_shape)
        counts = rows <= kron._COUNT_MERGE_MAX_ROWS_PER_DRAW * draws
        assert len(uniques) == (0 if counts else 1)
        assert merged.nnz == np.unique(flat).size < draws
        np.testing.assert_array_equal(merged.indices, np.unique(sketch.indices, axis=0))
        # the other merge, forced by moving the rule past this sketch
        monkeypatch.setattr(kron, "_COUNT_MERGE_MAX_ROWS_PER_DRAW", 0 if counts else rows)
        other = sparse_diagonal_from_sketch(sketch, row_shape)
        assert merged.indices.dtype == other.indices.dtype
        np.testing.assert_array_equal(other.indices, np.unique(sketch.indices, axis=0))
        np.testing.assert_array_equal(merged.values, other.values)


class TestSketchedApplies:
    def test_full_diagonal_equals_dense(self, rng):
        facs = random_factors(rng, [(3, 2), (2, 2)])
        n_rows = 6
        sd = diagonal((3, 2), np.arange(n_rows), np.ones(n_rows))
        c = rng.standard_normal(4)
        np.testing.assert_allclose(sketched_kron_apply(facs, sd, c),
                                   kron_mat_mul(facs, c), atol=1e-10)
        b = rng.standard_normal(n_rows)
        np.testing.assert_allclose(
            sketched_kron_transpose_apply(facs, sd, b),
            kron_mat_mul([a.T for a in facs], b), atol=1e-10)

    def test_empty_diagonal(self, rng):
        facs = random_factors(rng, [(3, 2), (2, 2)])
        sd = SparseDiagonal(indices=np.zeros((0, 2), dtype=np.intp), values=np.array([]))
        assert sketched_kron_apply(facs, sd, rng.standard_normal(4)).size == 0
        out = sketched_kron_transpose_apply(facs, sd, np.array([]))
        np.testing.assert_array_equal(out, np.zeros(4))
        op = SketchedKron(facs, sd)
        np.testing.assert_array_equal(op.apply(rng.standard_normal(4)), np.zeros(0))
        np.testing.assert_array_equal(op.transpose_apply(np.zeros(0)), np.zeros(4))
        np.testing.assert_array_equal(op.normal(rng.standard_normal(4)), np.zeros(4))

    def test_single_row_oracle(self, rng):
        facs = random_factors(rng, [(4, 2), (3, 3)])
        dense = dense_kron(facs)
        row = 7
        w = 2.5
        sd = diagonal((4, 3), [row], [w])
        c = rng.standard_normal(6)
        np.testing.assert_allclose(sketched_kron_apply(facs, sd, c),
                                   [w * dense[row] @ c], atol=1e-12)

    def test_zero_vector(self, rng):
        facs = random_factors(rng, [(4, 2), (3, 3)])
        sd = random_sparse_diag(rng, facs, 4)
        np.testing.assert_array_equal(sketched_kron_apply(facs, sd, np.zeros(6)),
                                      np.zeros(4))

    @pytest.mark.parametrize("shapes,nnz", [
        ([(4, 2), (3, 2), (4, 3)], 7),
        ([(5, 3), (6, 2)], 5),
        ([(7, 2)], 3),
        ([(2, 3), (3, 2), (2, 2), (2, 2)], 9),
    ])
    def test_sparse_vs_dense(self, rng, shapes, nnz):
        facs = random_factors(rng, shapes)
        dense = dense_kron(facs)
        n_rows = dense.shape[0]
        sd = random_sparse_diag(rng, facs, nnz)
        s, idx = dense_diag(facs, sd), flat_rows(facs, sd)
        c = rng.standard_normal(dense.shape[1])
        np.testing.assert_allclose(sketched_kron_apply(facs, sd, c),
                                   (s @ dense @ c)[idx], atol=1e-12)
        bv = rng.standard_normal(nnz)
        bfull = np.zeros(n_rows)
        bfull[idx] = bv
        np.testing.assert_allclose(sketched_kron_transpose_apply(facs, sd, bv),
                                   dense.T @ s @ bfull, atol=1e-12)

    def test_most_rows_sketched(self, rng):
        # 10 of 12 rows kept: the two-group scheme holds at any density
        facs = random_factors(rng, [(4, 2), (3, 2)])
        dense = dense_kron(facs)
        sd = random_sparse_diag(rng, facs, 10)
        s = dense_diag(facs, sd)
        c = rng.standard_normal(4)
        np.testing.assert_allclose(sketched_kron_apply(facs, sd, c),
                                   (s @ dense @ c)[flat_rows(facs, sd)], atol=1e-12)

    def test_linearity(self, rng):
        facs = random_factors(rng, [(4, 2), (3, 3)])
        sd = random_sparse_diag(rng, facs, 5)
        c1, c2 = rng.standard_normal(6), rng.standard_normal(6)
        a, b = 0.7, -1.3
        np.testing.assert_allclose(
            sketched_kron_apply(facs, sd, a * c1 + b * c2),
            a * sketched_kron_apply(facs, sd, c1)
            + b * sketched_kron_apply(facs, sd, c2), atol=1e-10)

    def test_adjoint_consistency(self, rng):
        facs = random_factors(rng, [(3, 2), (4, 3)])
        n_rows = 12
        sd = diagonal((3, 4), np.arange(n_rows), np.ones(n_rows))
        c = rng.standard_normal(6)
        b = rng.standard_normal(n_rows)
        lhs = sketched_kron_apply(facs, sd, c) @ b
        rhs = c @ sketched_kron_transpose_apply(facs, sd, b)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_holds_no_nonzero_by_right_group_array(self, rng):
        # order 3 with column dims 3 | 9, and 100 of 240 rows drawn: at most
        # 30 distinct right-group rows, so right rows repeat
        facs = random_factors(rng, [(8, 3), (6, 3), (5, 3)])
        sd = random_sparse_diag(rng, facs, 100)
        op = SketchedKron(facs, sd)
        assert (op.part.left_product, op.part.right_product) == (3, 9)
        n_right_distinct = op.right_rows.shape[0]
        assert n_right_distinct < sd.nnz
        bound = max(sd.nnz * 3, n_right_distinct * 9)
        arrays = {name: value for name, value in vars(op).items()
                  if isinstance(value, np.ndarray)}
        sizes = {name: value.size for name, value in arrays.items()}
        assert max(sizes.values()) <= bound, (sizes, bound)
        # one float array of nnz x left columns, and no index array that large
        assert [name for name, size in sizes.items() if size >= sd.nnz * 3] == [
            "left_columns"], sizes
        assert op.left_columns.shape == (3, sd.nnz)
        assert op.left_columns.dtype == np.float64
        assert op.left_columns.flags.c_contiguous

    @pytest.mark.parametrize("shapes", [[(8, 3), (6, 3), (5, 3)], [(6, 2), (5, 2), (4, 8)],
                                        [(7, 1), (5, 3)]])
    def test_left_columns_are_the_rows_kron_rows_built(self, rng, monkeypatch, shapes):
        # the left group's Kronecker rows, transposed without a copy; a lone
        # left factor, two of them, and an empty left group
        built = []

        def recording(*args):
            built.append(kron_rows(*args))
            return built[-1]

        monkeypatch.setattr(kron, "kron_rows", recording)
        facs = random_factors(rng, shapes)
        rows = math.prod(a.shape[0] for a in facs)
        sd = random_sparse_diag(rng, facs, rows // 2)
        op = SketchedKron(facs, sd)
        left = list(op.part.left)
        assert len(built) == 2  # the left group's rows, then the distinct right rows
        assert op.left_columns.flags.c_contiguous
        assert np.shares_memory(op.left_columns, built[0])
        # at the nonzeros in the operator's grouped order
        np.testing.assert_array_equal(
            op.left_columns.T, kron_rows([facs[i] for i in left], sd.indices[op.perm][:, left]))


def repeated_right_rows(rng, shapes, counts):
    """Factors of the given shapes and a sparse diagonal whose distinct
    right-group rows hold ``counts[i]`` nonzeros each."""
    factors = random_factors(rng, shapes)
    part = balanced_partition([s[1] for s in shapes])
    row_shape = tuple(s[0] for s in shapes)
    left_dims = tuple(row_shape[i] for i in part.left)
    right_dims = tuple(row_shape[i] for i in part.right)
    right_flat = rng.choice(math.prod(right_dims), size=len(counts), replace=False)
    multi = np.zeros((sum(counts), len(shapes)), dtype=np.intp)
    k0 = 0
    for r, k in zip(right_flat, counts):
        multi[k0:k0 + k, list(part.right)] = np.unravel_index(r, right_dims)
        if part.left:  # an empty left group holds one row
            left_flat = rng.choice(math.prod(left_dims), size=k, replace=False)
            multi[k0:k0 + k, list(part.left)] = np.stack(
                np.unravel_index(left_flat, left_dims), axis=1)
        k0 += k
    idx = np.sort(np.ravel_multi_index(tuple(multi.T), row_shape))
    return factors, diagonal(row_shape, idx, rng.uniform(0.1, 2.0, idx.size))


# right rows repeating 1 to 7 times at orders 2 and 3 (the second with a
# two-factor left group), every right row distinct at orders 1 and 2, and
# an empty sketch
REPEATED_RIGHT_ROWS = [
    ([(8, 2), (9, 2)], [1, 6, 2, 6, 3, 1, 4, 7, 5]),
    ([(8, 2), (3, 2), (4, 2)], [7, 1, 1, 3, 5, 2, 6, 4, 2, 7, 1, 6]),
    ([(3, 2), (4, 2), (5, 4)], [1, 3, 6, 7, 2]),
    ([(9, 3)], [1] * 5),
    ([(6, 3), (10, 3)], [1] * 10),
    ([(8, 2), (9, 2)], []),
]


class TestGroupedLayout:
    """``SketchedKron`` groups its nonzeros by right-group row, the rows
    with equally many nonzeros together and each group position-in-run-major,
    and keeps ``s_diag``'s order at its public applies."""

    @pytest.mark.parametrize("shapes,counts", REPEATED_RIGHT_ROWS)
    def test_layout(self, rng, shapes, counts):
        factors, sd = repeated_right_rows(rng, shapes, counts)
        op = SketchedKron(factors, sd)
        np.testing.assert_array_equal(np.sort(op.perm), np.arange(sd.nnz))
        np.testing.assert_array_equal(op.weights, sd.values[op.perm])
        right = list(op.part.right)
        keys = np.ravel_multi_index(tuple(sd.indices[op.perm][:, right].T),
                                    tuple(shapes[i][0] for i in right))
        # the groups tile the distinct right rows and the nonzeros in order,
        # each in increasing size
        sizes = [g[0] for g in op.groups]
        assert sizes == sorted(set(counts))
        assert [0] + [g[2] for g in op.groups] == [g[1] for g in op.groups] + [len(counts)]
        assert [0] + [g[4] for g in op.groups] == [g[3] for g in op.groups] + [sd.nnz]
        row_keys = []
        for c_row, r0, r1, k0, k1 in op.groups:
            assert k1 - k0 == c_row * (r1 - r0)
            runs = keys[k0:k1].reshape(c_row, r1 - r0)
            # position-in-run-major: the j-th nonzeros of the group's rows
            # side by side, one distinct right row per column
            np.testing.assert_array_equal(runs, runs[:1].repeat(c_row, axis=0))
            row_keys.extend(runs[0])
            np.testing.assert_array_equal(
                op.right_rows[r0:r1],
                kron_rows([factors[i] for i in right],
                          np.stack(np.unravel_index(runs[0], tuple(
                              shapes[i][0] for i in right)), axis=1)))
        assert len(set(row_keys)) == len(row_keys) == len(counts)

    @pytest.mark.parametrize("shapes,counts", REPEATED_RIGHT_ROWS)
    def test_public_order_matches_explicit_kron(self, rng, shapes, counts):
        factors, sd = repeated_right_rows(rng, shapes, counts)
        op = SketchedKron(factors, sd)
        sk = sketched_oracle(factors, sd)  # rows aligned with sd.indices
        c = rng.standard_normal(op.cols)
        b_values = rng.standard_normal(sd.nnz)
        got = op.apply(c)
        np.testing.assert_allclose(got, sk @ c, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(sk) @ np.abs(c), initial=0.0))
        got_t = op.transpose_apply(b_values)
        np.testing.assert_allclose(
            got_t, sk.T @ b_values, rtol=1e-12,
            atol=1e-12 * np.max(np.abs(sk.T) @ np.abs(b_values), initial=0.0))
        np.testing.assert_array_equal(op.normal(c), op.transpose_apply(op.apply(c)))
        # one nonzero at a time: the t-th entry in and out is s_diag's t-th row
        for t in range(sd.nnz):
            e_t = np.zeros(sd.nnz)
            e_t[t] = 1.0
            np.testing.assert_allclose(op.transpose_apply(e_t), sk[t], rtol=1e-12,
                                       atol=1e-12 * np.abs(sk[t]).max())


def sketched_problem(shapes, seed, distinct, n_repeats):
    """Factors of the given shapes and a sketch diagonal over ``distinct`` rows.

    Every chosen row is drawn once and ``n_repeats`` of them again, in a
    shuffled order, so the diagonal accumulates duplicate draws.
    """
    rng = np.random.default_rng(seed)
    factors = [rng.standard_normal(s) for s in shapes]
    row_shape = tuple(s[0] for s in shapes)
    n_rows = math.prod(row_shape)
    rows = rng.choice(n_rows, size=distinct, replace=False)
    repeats = rng.choice(rows, size=n_repeats) if distinct else rows
    flat = np.concatenate([rows, repeats]).astype(np.int64)
    rng.shuffle(flat)
    multi = np.stack(np.unravel_index(flat, row_shape), axis=1)
    sketch = RowSketch(indices=multi, weights=rng.uniform(0.1, 2.0, flat.size))
    sd = sparse_diagonal_from_sketch(sketch, row_shape)
    assert sd.nnz == distinct
    c = rng.standard_normal(math.prod(s[1] for s in shapes))
    b_values = rng.standard_normal(sd.nnz)
    return factors, sd, c, b_values


@st.composite
def sketched_problems(draw):
    """Factors of order 1-4 and a sketch diagonal with repeated draws.

    The number of distinct rows ranges from none to all of them; order 1
    (and unit column dimensions) leave one partition group empty.
    """
    shapes = draw(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 3)),
                           min_size=1, max_size=4))
    seed = draw(st.integers(0, 2**32 - 1))
    distinct = draw(st.integers(0, math.prod(s[0] for s in shapes)))
    return sketched_problem(shapes, seed, distinct, draw(st.integers(0, 6)))


def sketched_oracle(factors, sd):
    """Dense ``S K`` restricted to the nonzero rows of ``S``."""
    return sd.values[:, None] * explicit_kron(factors)[flat_rows(factors, sd)]


def grouped_formulation(op, factors, c, b_values):
    """``op.apply(c)`` and ``op.transpose_apply(b_values)`` summed term by
    term in the operator's grouped order, from the left-group Kronecker
    rows that :func:`kron_rows` forms at the permuted nonzeros.

    The apply adds, one left column after another, that column's row of
    ``c_grouped @ right_rows.T`` at each nonzero's right row times its
    left-group entry, and scatters the sums back to ``s_diag``'s order.  The
    transpose scatters the scaled left-group rows into the distinct
    right-row bins with ``np.add.at``.  The bins are a transposed view of a
    (left columns) x (right rows) array, as in the operator, since BLAS may
    round a product differently when it reads an operand in another layout.
    """
    sd = op.s_diag
    order = op.part.left + op.part.right
    multi = sd.indices[op.perm]
    left = kron_rows([factors[i] for i in op.part.left], multi[:, list(op.part.left)])
    r_left = left.shape[1]
    # each grouped nonzero's distinct right row
    row = np.concatenate([np.tile(np.arange(r0, r1), c_row)
                          for c_row, r0, r1, _, _ in op.groups] + [np.zeros(0, np.intp)])
    c_grouped = c.reshape(op.col_shape).transpose(order).reshape(r_left, -1)
    y_t = c_grouped @ op.right_rows.T
    vals = np.zeros(sd.nnz)
    for j in range(r_left):
        vals = vals + y_t[j, row] * left[:, j]
    apply = np.empty(sd.nnz)
    apply[op.perm] = sd.values[op.perm] * vals
    scaled = (sd.values * b_values)[op.perm]
    w = np.zeros((r_left, op.right_rows.shape[0])).T
    np.add.at(w, row, scaled[:, None] * left)
    grouped = (op.right_rows.T @ w).T.reshape(-1)
    grouped_shape = tuple(op.col_shape[i] for i in order)
    natural = grouped.reshape(grouped_shape).transpose(
        tuple(np.argsort(np.asarray(order)))).reshape(-1)
    return apply, natural


# a sketch whose 30 right rows hold 12 to 29 nonzeros, in 11 groups of
# equally many
GROUP_SIZES_EXAMPLE = ([(40, 2), (30, 2)], 5, 600, 100)
GROUP_SIZES_EXAMPLE_COUNT = 11


class TestSketchedProperties:
    # order 1 (left group empty), a unit column dimension (left group
    # empty), a 1,200-row operator whose bins each sum many draws, order 4,
    # and many group sizes
    @example(sketched_problem([(5, 2)], 1, 2, 6))
    @example(sketched_problem([(4, 1), (3, 2)], 2, 5, 6))
    @example(sketched_problem([(40, 3), (30, 3)], 3, 500, 300))
    @example(sketched_problem([(5, 2), (4, 3), (3, 2), (2, 2)], 4, 30, 40))
    @example(sketched_problem(*GROUP_SIZES_EXAMPLE))
    @given(sketched_problems())
    @settings(max_examples=150, deadline=None)
    def test_kernels_match_grouped_formulation(self, problem):
        # the einsum may add a nonzero's left-column terms in another order
        # than the reference does, so the two agree to rounding, at a
        # hundredth of test_applies_match_explicit_kron's tolerance
        factors, sd, c, b_values = problem
        op = SketchedKron(factors, sd)
        apply_ref, transpose_ref = grouped_formulation(op, factors, c, b_values)
        scale = max(1.0, float(np.max(np.abs(sketched_oracle(factors, sd)), initial=0.0)))
        np.testing.assert_allclose(op.apply(c), apply_ref, rtol=1e-12,
                                   atol=1e-12 * scale * np.abs(c).sum())
        np.testing.assert_allclose(op.transpose_apply(b_values), transpose_ref, rtol=1e-12,
                                   atol=1e-12 * scale * np.abs(b_values).sum())

    def test_group_sizes_example_has_many_groups(self):
        factors, sd, _, _ = sketched_problem(*GROUP_SIZES_EXAMPLE)
        op = SketchedKron(factors, sd)
        assert len(op.groups) == GROUP_SIZES_EXAMPLE_COUNT

    @given(sketched_problems())
    @settings(max_examples=150, deadline=None)
    def test_applies_match_explicit_kron(self, problem):
        factors, sd, c, b_values = problem
        sk = sketched_oracle(factors, sd)
        tol = 1e-10 * max(1.0, float(np.max(np.abs(sk), initial=0.0)))
        np.testing.assert_allclose(sketched_kron_apply(factors, sd, c), sk @ c,
                                   rtol=1e-10, atol=tol * np.abs(c).sum())
        np.testing.assert_allclose(
            sketched_kron_transpose_apply(factors, sd, b_values), sk.T @ b_values,
            rtol=1e-10, atol=tol * np.abs(b_values).sum())
        normal = sketched_kron_transpose_apply(
            factors, sd, sketched_kron_apply(factors, sd, c))
        expected = sk.T @ (sk @ c)
        np.testing.assert_allclose(normal, expected, rtol=1e-9,
                                   atol=1e-9 * max(1.0, np.abs(expected).max(initial=0.0)))

    @given(sketched_problems())
    @settings(max_examples=150, deadline=None)
    def test_operator_normal_matches_explicit_kron(self, problem):
        factors, sd, c, _ = problem
        sk = sketched_oracle(factors, sd)
        expected = sk.T @ (sk @ c)
        op = SketchedKron(factors, sd)
        np.testing.assert_allclose(
            op.normal(c), expected, rtol=1e-9,
            atol=1e-9 * max(1.0, np.abs(expected).max(initial=0.0)))

    @given(sketched_problems(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_operator_reuse_is_bitwise_the_wrappers(self, problem, seed):
        factors, sd, _, _ = problem
        op = SketchedKron(factors, sd)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            c = rng.standard_normal(op.cols)
            b_values = rng.standard_normal(sd.nnz)
            np.testing.assert_array_equal(op.apply(c),
                                          sketched_kron_apply(factors, sd, c))
            np.testing.assert_array_equal(
                op.transpose_apply(b_values),
                sketched_kron_transpose_apply(factors, sd, b_values))
            np.testing.assert_array_equal(
                op.normal(c), sketched_kron_transpose_apply(
                    factors, sd, sketched_kron_apply(factors, sd, c)))


def normal_by_nonzero(factors, sd, x):
    """``K^T S^2 K x`` summed nonzero by nonzero: each nonzero's entry of
    ``S^2 K x`` times its left-group row, added into its distinct right
    row's bin with ``np.add.at``, then the bins times those right rows."""
    part = balanced_partition([a.shape[1] for a in factors])
    left, right = list(part.left), list(part.right)
    right_dims = tuple(factors[i].shape[0] for i in right)
    keys = np.ravel_multi_index(tuple(sd.indices[:, right].T), right_dims)
    distinct, row = np.unique(keys, return_inverse=True)
    left_rows = kron_rows([factors[i] for i in left], sd.indices[:, left])
    right_rows = kron_rows([factors[i] for i in right],
                           np.stack(np.unravel_index(distinct, right_dims), axis=1))
    order = part.left + part.right
    col_shape = tuple(a.shape[1] for a in factors)
    x_grouped = x.reshape(col_shape).transpose(order).reshape(left_rows.shape[1], -1)
    u = np.sum(left_rows * (x_grouped @ right_rows.T).T[row], axis=1)
    bins = np.zeros((right_rows.shape[0], left_rows.shape[1]))
    np.add.at(bins, row, (sd.values**2 * u)[:, None] * left_rows)
    grouped = (bins.T @ right_rows).reshape(tuple(col_shape[i] for i in order))
    return grouped.transpose(tuple(np.argsort(order))).reshape(-1)


def leverage_diagonal(shapes, draws, seed):
    """Factors of the benchmark's synthetic law and the merged diagonal of
    ``draws`` rows from the product of their leverage distributions."""
    rng = np.random.default_rng(seed)
    factors = [rng.normal(1.0, math.sqrt(1e-3), s) for s in shapes]
    sampler = build_product_sampler([ridge_leverage_scores(compact_svd(a), 0.0)
                                     for a in factors])
    sketch = sample_rows(sampler, draws, seed)
    return factors, sparse_diagonal_from_sketch(sketch, [s[0] for s in shapes])


class TestFusedNormal:
    """``SketchedKron.normal`` runs both applies in one pass over the
    groups; it rounds every entry as the two public applies do."""

    def check(self, factors, sd):
        op = SketchedKron(factors, sd)
        x = np.random.default_rng(0).standard_normal(op.cols)
        got = op.normal(x)
        np.testing.assert_array_equal(got, op.transpose_apply(op.apply(x)))
        want = normal_by_nonzero(factors, sd, x)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        return op

    def test_table_point(self):
        # reg-table's shape: 38,049 draws over 4096^2 rows, 64 | 64 columns
        factors, sd = leverage_diagonal([(4096, 64), (4096, 64)], 38_049, 14)
        op = self.check(factors, sd)
        assert len(op.groups) == 26

    def test_right_rows_all_distinct(self, rng):
        factors = random_factors(rng, [(6, 3), (50, 3)])
        flat = rng.integers(0, 6, 20) * 50 + rng.choice(50, 20, replace=False)
        sd = diagonal((6, 50), np.sort(flat), rng.uniform(0.1, 2.0, 20))
        op = self.check(factors, sd)
        assert op.groups == ((1, 0, 20, 0, 20),)

    def test_empty_diagonal(self, rng):
        factors = random_factors(rng, [(6, 3), (5, 3)])
        sd = SparseDiagonal(indices=np.zeros((0, 2), dtype=np.intp), values=np.zeros(0))
        op = self.check(factors, sd)
        assert op.groups == ()

    def test_two_factor_left_group(self):
        factors, sd = leverage_diagonal([(6, 2), (5, 2), (40, 8)], 600, 3)
        op = self.check(factors, sd)
        assert op.part.left == (0, 1)
        assert len(op.groups) > 1


class TestSketchRowsOfKron:
    """The Kronecker rows that every sketched design gathers."""

    def test_kron_rows_oracle(self, rng):
        facs = random_factors(rng, [(3, 2), (4, 3)])
        dense = dense_kron(facs)
        shape = (3, 4)
        flat = np.arange(12)
        multi = np.stack(np.unravel_index(flat, shape), axis=1)
        np.testing.assert_allclose(kron_rows(facs, multi), dense, atol=1e-12)

    def test_kron_rows_of_no_rows(self, rng):
        facs = random_factors(rng, [(3, 2), (4, 3)])
        out = kron_rows(facs, np.zeros((0, 2), dtype=np.intp))
        assert out.shape == (0, 6)
