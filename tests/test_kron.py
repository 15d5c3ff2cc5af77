import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    ])
    def test_dense_oracle(self, rng, shapes):
        facs = random_factors(rng, shapes)
        cols = math.prod(s[1] for s in shapes)
        b = rng.standard_normal((cols, 3))
        dense = dense_kron(facs)
        got = kron_mat_mul(facs, b)
        assert np.max(np.abs(got - dense @ b)) <= 1e-10 * max(1, np.max(np.abs(dense @ b)))


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
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            SparseDiagonal(indices=[2, 1], values=[1.0, 1.0])
        with pytest.raises(InvalidInputError):
            SparseDiagonal(indices=[0, 0], values=[1.0, 1.0])
        with pytest.raises(InvalidInputError):
            SparseDiagonal(indices=[0], values=[np.inf])

    def test_from_sketch_aggregates_duplicates(self):
        sketch = RowSketch(indices=np.array([2, 2, 0]),
                           weights=np.array([1.0, 1.0, 3.0]))
        sd = sparse_diagonal_from_sketch(sketch, (4,))
        np.testing.assert_array_equal(sd.indices, [0, 2])
        # squared diagonal reproduces S^T S: sum of squared weights per row
        np.testing.assert_allclose(sd.values**2, [9.0, 2.0], atol=1e-12)


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

    def test_index_out_of_range(self, rng):
        facs = random_factors(rng, [(2, 2), (2, 2)])
        sd = SparseDiagonal(indices=np.array([5]), values=np.array([1.0]))
        with pytest.raises(InvalidInputError):
            sketched_kron_apply(facs, sd, rng.standard_normal(4))


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


def first_formulation(op, c, b_values):
    """``op.apply(c)`` and ``op.transpose_apply(b_values)`` as first written.

    Both gathers are rebuilt on every call and the transpose scatters with
    ``np.add.at``; the operator's precomputed kernels must match this to the
    bit.
    """
    sd = op.s_diag
    if sd.nnz == 0:
        return np.zeros(0), np.zeros(op.cols)
    scaled = sd.values * b_values
    order = op.part.left + op.part.right
    r_left = op.left_rows.shape[1]
    c_mat = c.reshape(op.col_shape).transpose(order).reshape(-1).reshape(r_left, -1).T
    y = op.right_rows @ c_mat
    vals = np.einsum("tj,tj->t", y[op.right_pos], op.left_rows[op.left_pos])
    w = np.zeros((op.left_rows.shape[0], op.right_rows.shape[1]))
    np.add.at(w, op.left_pos, scaled[:, None] * op.right_rows[op.right_pos])
    grouped = (w.T @ op.left_rows).T.reshape(-1)
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
        op = SketchedKron(factors, sd)
        apply_ref, transpose_ref = first_formulation(op, c, b_values)
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
        np.testing.assert_allclose(
            SketchedKron(factors, sd).normal(c), expected, rtol=1e-9,
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


class TestSketchRowsOfKron:
    """The Kronecker rows that every sketched design gathers."""

    def test_kron_rows_oracle(self, rng):
        facs = random_factors(rng, [(3, 2), (4, 3)])
        dense = dense_kron(facs)
        shape = (3, 4)
        flat = np.arange(12)
        multi = np.stack(np.unravel_index(flat, shape), axis=1)
        np.testing.assert_allclose(kron_rows(facs, multi), dense, atol=1e-12)
