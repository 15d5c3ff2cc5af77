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
    diagonal_multi_indices,
    kron_mat_mul,
    kron_rows,
    kron_vec_square,
    sketched_kron_apply,
    sketched_kron_transpose_apply,
    sparse_diagonal_from_sketch,
)
from kronsolve.leverage import RowSketch
from kronsolve.tensor import explicit_kron

from conftest import dense_kron


def random_factors(rng, shapes):
    return [rng.standard_normal(s) for s in shapes]


def random_sparse_diag(rng, n_rows, nnz):
    idx = np.sort(rng.choice(n_rows, size=nnz, replace=False)).astype(np.int64)
    return SparseDiagonal(indices=idx, values=rng.standard_normal(nnz))


def dense_diag(sd, n_rows):
    s = np.zeros((n_rows, n_rows))
    s[sd.indices, sd.indices] = sd.values
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
        np.testing.assert_array_equal(sd.indices, [0, 2])
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
        np.testing.assert_array_equal(sd.indices, [0, 5, 6, 11])
        np.testing.assert_allclose(sd.values**2, want[sd.indices], rtol=1e-14, atol=0)


class TestSketchedApplies:
    def test_full_diagonal_equals_dense(self, rng):
        facs = random_factors(rng, [(3, 2), (2, 2)])
        n_rows = 6
        sd = SparseDiagonal(indices=np.arange(n_rows),
                            values=np.ones(n_rows))
        c = rng.standard_normal(4)
        np.testing.assert_allclose(sketched_kron_apply(facs, sd, c),
                                   kron_mat_mul(facs, c), atol=1e-10)
        b = rng.standard_normal(n_rows)
        np.testing.assert_allclose(
            sketched_kron_transpose_apply(facs, sd, b),
            kron_mat_mul([a.T for a in facs], b), atol=1e-10)

    def test_empty_diagonal(self, rng):
        facs = random_factors(rng, [(3, 2), (2, 2)])
        sd = SparseDiagonal(indices=np.array([], dtype=np.int64),
                            values=np.array([]))
        assert sketched_kron_apply(facs, sd, rng.standard_normal(4)).size == 0
        out = sketched_kron_transpose_apply(facs, sd, np.array([]))
        np.testing.assert_array_equal(out, np.zeros(4))
        op = SketchedKron(facs, sd, diagonal_multi_indices(facs, sd))
        np.testing.assert_array_equal(op.apply(rng.standard_normal(4)), np.zeros(0))
        np.testing.assert_array_equal(op.transpose_apply(np.zeros(0)), np.zeros(4))
        np.testing.assert_array_equal(op.normal(rng.standard_normal(4)), np.zeros(4))

    def test_single_row_oracle(self, rng):
        facs = random_factors(rng, [(4, 2), (3, 3)])
        dense = dense_kron(facs)
        row = 7
        w = 2.5
        sd = SparseDiagonal(indices=np.array([row]), values=np.array([w]))
        c = rng.standard_normal(6)
        np.testing.assert_allclose(sketched_kron_apply(facs, sd, c),
                                   [w * dense[row] @ c], atol=1e-12)

    def test_zero_vector(self, rng):
        facs = random_factors(rng, [(4, 2), (3, 3)])
        sd = random_sparse_diag(rng, 12, 4)
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
        sd = random_sparse_diag(rng, n_rows, nnz)
        s = dense_diag(sd, n_rows)
        c = rng.standard_normal(dense.shape[1])
        np.testing.assert_allclose(sketched_kron_apply(facs, sd, c),
                                   (s @ dense @ c)[sd.indices], atol=1e-12)
        bv = rng.standard_normal(nnz)
        bfull = np.zeros(n_rows)
        bfull[sd.indices] = bv
        np.testing.assert_allclose(sketched_kron_transpose_apply(facs, sd, bv),
                                   dense.T @ s @ bfull, atol=1e-12)

    def test_most_rows_sketched(self, rng):
        # 10 of 12 rows kept: the two-group scheme holds at any density
        facs = random_factors(rng, [(4, 2), (3, 2)])
        dense = dense_kron(facs)
        sd = random_sparse_diag(rng, 12, 10)
        s = dense_diag(sd, 12)
        c = rng.standard_normal(4)
        np.testing.assert_allclose(sketched_kron_apply(facs, sd, c),
                                   (s @ dense @ c)[sd.indices], atol=1e-12)

    def test_linearity(self, rng):
        facs = random_factors(rng, [(4, 2), (3, 3)])
        sd = random_sparse_diag(rng, 12, 5)
        c1, c2 = rng.standard_normal(6), rng.standard_normal(6)
        a, b = 0.7, -1.3
        np.testing.assert_allclose(
            sketched_kron_apply(facs, sd, a * c1 + b * c2),
            a * sketched_kron_apply(facs, sd, c1)
            + b * sketched_kron_apply(facs, sd, c2), atol=1e-10)

    def test_adjoint_consistency(self, rng):
        facs = random_factors(rng, [(3, 2), (4, 3)])
        n_rows = 12
        sd = SparseDiagonal(indices=np.arange(n_rows), values=np.ones(n_rows))
        c = rng.standard_normal(6)
        b = rng.standard_normal(n_rows)
        lhs = sketched_kron_apply(facs, sd, c) @ b
        rhs = c @ sketched_kron_transpose_apply(facs, sd, b)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_holds_no_nonzero_by_right_group_array(self, rng):
        # order 3 with column dims 3 | 9, and 100 of 240 rows drawn: at most
        # 30 distinct right-group rows, so right rows repeat
        facs = random_factors(rng, [(8, 3), (6, 3), (5, 3)])
        sd = random_sparse_diag(rng, 240, 100)
        op = SketchedKron(facs, sd, diagonal_multi_indices(facs, sd))
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
        sd = random_sparse_diag(rng, rows, rows // 2)
        multi = diagonal_multi_indices(facs, sd)
        op = SketchedKron(facs, sd, multi)
        left = list(op.part.left)
        assert len(built) == 2  # the left group's rows, then the distinct right rows
        assert op.left_columns.flags.c_contiguous
        assert np.shares_memory(op.left_columns, built[0])
        np.testing.assert_array_equal(
            op.left_columns.T, kron_rows([facs[i] for i in left], multi[:, left]))


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
    return sd.values[:, None] * explicit_kron(factors)[sd.indices]


def sequential_formulation(op, factors, c, b_values):
    """``op.apply(c)`` and ``op.transpose_apply(b_values)`` from the
    left-group Kronecker rows that :func:`kron_rows` forms.

    The apply adds, one left column after another, that column's row of
    ``c_grouped @ right_rows.T`` at each nonzero's right row times its
    left-group entry.  The transpose scatters the scaled left-group rows
    into the distinct right-row bins with ``np.add.at``; the operator's
    per-column ``np.bincount`` must match this to the bit.
    """
    sd = op.s_diag
    if sd.nnz == 0:
        return np.zeros(0), np.zeros(op.cols)
    order = op.part.left + op.part.right
    multi = diagonal_multi_indices(factors, sd)
    left = kron_rows([factors[i] for i in op.part.left], multi[:, list(op.part.left)])
    r_left = left.shape[1]
    c_grouped = c.reshape(op.col_shape).transpose(order).reshape(r_left, -1)
    y_t = c_grouped @ op.right_rows.T
    vals = np.zeros(sd.nnz)
    for j in range(r_left):
        vals = vals + y_t[j, op.right_pos] * left[:, j]
    scaled = sd.values * b_values
    w = np.zeros((op.right_rows.shape[0], r_left))
    np.add.at(w, op.right_pos, scaled[:, None] * left)
    grouped = (op.right_rows.T @ w).T.reshape(-1)
    grouped_shape = tuple(op.col_shape[i] for i in order)
    natural = grouped.reshape(grouped_shape).transpose(
        tuple(np.argsort(np.asarray(order)))).reshape(-1)
    return sd.values * vals, natural


class TestSketchedProperties:
    # order 1 (left group empty), a unit column dimension (left group
    # empty), a 1,200-row operator whose bins each sum many draws, order 4
    @example(sketched_problem([(5, 2)], 1, 2, 6))
    @example(sketched_problem([(4, 1), (3, 2)], 2, 5, 6))
    @example(sketched_problem([(40, 3), (30, 3)], 3, 500, 300))
    @example(sketched_problem([(5, 2), (4, 3), (3, 2), (2, 2)], 4, 30, 40))
    @given(sketched_problems())
    @settings(max_examples=150, deadline=None)
    def test_kernels_bitwise_match_first_formulation(self, problem):
        factors, sd, c, b_values = problem
        op = SketchedKron(factors, sd, diagonal_multi_indices(factors, sd))
        apply_ref, transpose_ref = sequential_formulation(op, factors, c, b_values)
        np.testing.assert_array_equal(op.apply(c), apply_ref)
        np.testing.assert_array_equal(op.transpose_apply(b_values), transpose_ref)

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
        op = SketchedKron(factors, sd, diagonal_multi_indices(factors, sd))
        np.testing.assert_allclose(
            op.normal(c), expected, rtol=1e-9,
            atol=1e-9 * max(1.0, np.abs(expected).max(initial=0.0)))

    @given(sketched_problems(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_operator_reuse_is_bitwise_the_wrappers(self, problem, seed):
        factors, sd, _, _ = problem
        op = SketchedKron(factors, sd, diagonal_multi_indices(factors, sd))
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
