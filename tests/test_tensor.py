import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronsolve.errors import (InvalidInputError, NumericalFailureError,
                              SizeGuardError)
from kronsolve.tensor import (
    compact_svd,
    explicit_kron,
    fold,
    multi_mode_product,
    n_mode_product,
    pseudo_inverse,
    unfold,
    vectorize,
)

from conftest import dense_kron


class TestCompactSvd:
    def test_identity(self):
        svd = compact_svd(np.eye(3))
        assert svd.rank == 3
        np.testing.assert_allclose(svd.sigma, [1.0, 1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(svd.u.T @ svd.u, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(svd.v.T @ svd.v, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(svd.reconstruct(), np.eye(3), atol=1e-12)

    def test_rank_deficient_diagonal(self):
        svd = compact_svd([[3.0, 0.0], [0.0, 0.0]])
        assert svd.rank == 1
        np.testing.assert_allclose(svd.sigma, [3.0])

    def test_reconstruction_random(self, rng):
        a = rng.standard_normal((6, 4))
        svd = compact_svd(a)
        err = np.linalg.norm(svd.reconstruct() - a) / np.linalg.norm(a)
        assert err <= 1e-8

    @pytest.mark.parametrize("shape", [(5, 5), (17, 9), (64, 64), (40, 64)])
    def test_reconstruction_sizes(self, rng, shape):
        a = rng.standard_normal(shape)
        svd = compact_svd(a)
        assert np.linalg.norm(svd.reconstruct() - a) <= 1e-8 * np.linalg.norm(a)
        np.testing.assert_allclose(svd.u.T @ svd.u, np.eye(svd.rank), atol=1e-10)
        np.testing.assert_allclose(svd.v.T @ svd.v, np.eye(svd.rank), atol=1e-10)

    def test_zero_matrix(self):
        svd = compact_svd(np.zeros((3, 2)))
        assert svd.rank == 0

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            compact_svd([[np.nan, 0.0], [0.0, 1.0]])

    def test_lapack_failure_maps_to_numerical_error(self, monkeypatch):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", boom)
        with pytest.raises(NumericalFailureError):
            compact_svd(np.eye(3))


class TestPseudoInverse:
    def test_identity(self):
        np.testing.assert_allclose(pseudo_inverse(np.eye(2)), np.eye(2), atol=1e-12)

    def test_diagonal(self):
        p = pseudo_inverse([[2.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(p, [[0.5, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_left_inverse_full_rank(self, rng):
        a = rng.standard_normal((5, 3))
        np.testing.assert_allclose(pseudo_inverse(a) @ a, np.eye(3), atol=1e-8)

    def test_penrose_identities_rank_deficient(self, rng):
        # rank-2 5x4 matrix
        a = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4))
        p = pseudo_inverse(a)
        np.testing.assert_allclose(a @ p @ a, a, atol=1e-8)
        np.testing.assert_allclose(p @ a @ p, p, atol=1e-8)
        np.testing.assert_allclose((a @ p).T, a @ p, atol=1e-8)
        np.testing.assert_allclose((p @ a).T, p @ a, atol=1e-8)


class TestUnfoldFold:
    def test_order_one(self):
        x = np.array([1.0, 2.0, 3.0])
        m = unfold(x, 0)
        assert m.shape == (3, 1)
        np.testing.assert_array_equal(m[:, 0], x)

    def test_matrix_mode0_fibers(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        m = unfold(x, 0)
        # columns of the unfolding are the mode-0 fibers x[:, j]
        for j in range(2):
            np.testing.assert_array_equal(m[:, j], x[:, j])

    def test_fiber_enumeration_bruteforce(self, rng):
        x = rng.standard_normal((2, 3, 4))
        for mode in range(3):
            m = unfold(x, mode)
            rest = [r for k, r in enumerate(x.shape) if k != mode]
            for j, idx in enumerate(itertools.product(*[range(r) for r in rest])):
                full = list(idx)
                full.insert(mode, slice(None))
                np.testing.assert_array_equal(m[:, j], x[tuple(full)])

    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
           st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_exact(self, shape, mode, seed):
        if mode >= len(shape):
            mode = mode % len(shape)
        x = np.random.default_rng(seed).standard_normal(tuple(shape))
        assert np.array_equal(fold(unfold(x, mode), shape, mode), x)

    def test_fold_errors(self):
        with pytest.raises(InvalidInputError):
            fold(np.ones((2, 5)), (2, 3), 0)
        with pytest.raises(InvalidInputError):
            unfold(np.ones((2, 2)), 2)


class TestVectorize:
    def test_scalarish(self):
        v = vectorize(np.array([7.0]))
        assert v.shape == (1,)

    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, shape, seed):
        x = np.random.default_rng(seed).standard_normal(tuple(shape))
        assert np.array_equal(vectorize(x).reshape(shape), x)

    def test_kron_consistency_elementwise(self, rng):
        # multilinear expansion entry oracle: sum over all core indices
        g = rng.standard_normal((2, 2, 2))
        factors = [rng.standard_normal((3, 2)) for _ in range(3)]
        expanded = multi_mode_product(g, factors)
        oracle = np.zeros((3, 3, 3))
        for i, j, k in itertools.product(range(3), repeat=3):
            total = 0.0
            for r1, r2, r3 in itertools.product(range(2), repeat=3):
                total += (g[r1, r2, r3] * factors[0][i, r1]
                          * factors[1][j, r2] * factors[2][k, r3])
            oracle[i, j, k] = total
        np.testing.assert_allclose(expanded, oracle, atol=1e-12)
        np.testing.assert_allclose(
            vectorize(expanded), dense_kron(factors) @ vectorize(g), atol=1e-12)


class TestNModeProduct:
    def test_identity(self, rng):
        x = rng.standard_normal((2, 3, 4))
        np.testing.assert_array_equal(n_mode_product(x, np.eye(3), 1), x)

    def test_order_one_is_matvec(self, rng):
        x = rng.standard_normal(4)
        a = rng.standard_normal((2, 4))
        np.testing.assert_allclose(n_mode_product(x, a, 0), a @ x, atol=1e-12)

    def test_bruteforce_sum(self, rng):
        x = rng.standard_normal((2, 3, 2))
        a = rng.standard_normal((4, 3))
        out = n_mode_product(x, a, 1)
        assert out.shape == (2, 4, 2)
        for i, j, k in itertools.product(range(2), range(4), range(2)):
            expect = sum(x[i, t, k] * a[j, t] for t in range(3))
            assert abs(out[i, j, k] - expect) < 1e-12

    def test_dim_mismatch(self, rng):
        with pytest.raises(InvalidInputError):
            n_mode_product(rng.standard_normal((2, 3)), np.eye(4), 1)


class TestExplicitKron:
    def test_identity(self):
        np.testing.assert_array_equal(explicit_kron([np.eye(2), np.eye(3)]), np.eye(6))

    def test_hand_expansion(self):
        k = explicit_kron([[[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [1.0, 0.0]]])
        np.testing.assert_array_equal(k[:, 0], [0.0, 1.0, 0.0, 3.0])
        np.testing.assert_array_equal(k, dense_kron([[[1, 2], [3, 4]],
                                                     [[0, 1], [1, 0]]]))

    def test_single_factor(self, rng):
        a = rng.standard_normal((3, 2))
        np.testing.assert_array_equal(explicit_kron([a]), a)

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            explicit_kron([np.ones((2, 2))] * 4, max_entries=100)

