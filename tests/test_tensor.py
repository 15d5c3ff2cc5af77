import itertools

import numpy as np
import pytest

import kronsolve.tensor as tensor
from kronsolve.errors import (InvalidInputError, NumericalFailureError,
                              SizeGuardError)
from kronsolve.tensor import (
    compact_svd,
    explicit_kron,
    multi_mode_product,
    pseudo_inverse,
    ridge_filter,
    unfold,
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

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_matrix(self, shape):
        svd = compact_svd(np.zeros(shape))
        assert svd.rank == 0
        assert svd.u.shape == (shape[0], 0) and svd.v.shape == (shape[1], 0)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            compact_svd([[np.nan, 0.0], [0.0, 1.0]])

    def test_lapack_failure_maps_to_numerical_error(self, monkeypatch, rng):
        # a tall factor's small SVD of R fails first and hands the factor to
        # LAPACK, whose failure raises
        calls = []

        def boom(a, *args, **kwargs):
            calls.append(np.shape(a))
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", boom)
        for a in [np.eye(3), rng.standard_normal((4096, 64))]:
            with pytest.raises(NumericalFailureError):
                compact_svd(a)
        assert calls == [(3, 3), (64, 64), (4096, 64)]

    @staticmethod
    def conditioned(rng, shape, kappa, scale=3.0):
        """A random ``shape`` matrix with singular values log-spaced from
        ``scale`` down to ``scale / kappa``."""
        m, n = shape
        u = np.linalg.qr(rng.standard_normal((m, n)))[0]
        v = np.linalg.qr(rng.standard_normal((n, n)))[0]
        return (u * (scale * np.logspace(0, -np.log10(kappa), n))) @ v.T

    @pytest.mark.parametrize("kappa", [1.0, 1e3, 1e6])
    @pytest.mark.parametrize("shape", [(4096, 64), (4096, 8), (2048, 16)])
    def test_tall_factor_matches_lapack(self, rng, shape, kappa):
        a = self.conditioned(rng, shape, kappa)
        want = np.linalg.svd(a, compute_uv=False)
        svd = compact_svd(a)
        n = shape[1]
        assert svd.rank == n
        assert np.max(np.abs(svd.sigma - want)) <= 1e-12 * want[0]
        assert np.max(np.abs(svd.u.T @ svd.u - np.eye(n))) <= 1e-12
        assert np.max(np.abs(svd.v.T @ svd.v - np.eye(n))) <= 1e-12
        assert np.linalg.norm(svd.reconstruct() - a) <= 1e-13 * np.linalg.norm(a)

    @pytest.mark.parametrize("case", ["kappa 1e9", "zero column", "duplicated columns",
                                      "entries near overflow"])
    def test_tall_factor_falls_back_to_lapack(self, rng, case):
        a = self.conditioned(rng, (4096, 64), 1e9 if case == "kappa 1e9" else 1e2)
        if case == "zero column":
            a[:, 7] = 0.0
        elif case == "duplicated columns":
            a[:, 7] = a[:, 40]
        elif case == "entries near overflow":
            a *= 1e160
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        r = int(np.count_nonzero(s > tensor.DEFAULT_RANK_TOL * s[0]))
        svd = compact_svd(a)
        assert svd.rank == r == (63 if "column" in case else 64)
        np.testing.assert_array_equal(svd.sigma, s[:r])
        np.testing.assert_array_equal(svd.u, u[:, :r])
        np.testing.assert_array_equal(svd.v, vt[:r].T)

    def test_only_tall_factors_take_cholesky_qr(self, count_calls, rng):
        calls = count_calls(np.linalg, "cholesky")
        for shape in [(60, 4), (256, 8)]:
            compact_svd(rng.standard_normal(shape))
        assert not calls
        compact_svd(rng.standard_normal((4096, 64)))
        assert len(calls) == 2


class TestPseudoInverse:
    def test_identity(self):
        np.testing.assert_allclose(pseudo_inverse(np.eye(2)), np.eye(2), atol=1e-12)

    def test_diagonal(self):
        p = pseudo_inverse([[2.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(p, [[0.5, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(pseudo_inverse(np.zeros((3, 2))), np.zeros((2, 3)))

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


class TestRidgeFilter:
    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    def test_one_cut_for_every_lam(self, lam):
        # sigma^2 + lam must exceed 1e-20 (sigma_max^2 + lam); kept entries
        # are one division each, bit for bit
        sigma = np.array([2.0, 1e-3, 2.1e-10, 1.9e-10, 0.0])
        denominator = sigma**2 + lam
        got = ridge_filter(sigma, denominator)
        kept = denominator > 1e-20 * denominator[0]
        assert kept.tolist() == ([True, True, True, False, False] if lam == 0
                                 else [True] * 5)
        np.testing.assert_array_equal(got[kept], sigma[kept] / denominator[kept])
        np.testing.assert_array_equal(got[~kept], 0.0)

    def test_empty_and_all_zero(self):
        assert ridge_filter(1.0, np.zeros(0)).shape == (0,)
        np.testing.assert_array_equal(ridge_filter(1.0, np.zeros(3)), np.zeros(3))


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

    def test_fold_errors(self):
        with pytest.raises(InvalidInputError):
            unfold(np.ones((2, 2)), 2)


class TestVectorize:
    """Row-major flattening, ``x.reshape(-1)``, turns mode products into
    Kronecker multiplies."""

    def test_kron_consistency_elementwise(self, rng):
        # multilinear expansion entry oracle: sum over all core indices
        for core_shape, out_shape in [((2, 2, 2), (3, 3, 3)),
                                      ((2, 1, 3, 2), (3, 2, 1, 2))]:
            g = rng.standard_normal(core_shape)
            factors = [rng.standard_normal((i, r)) for i, r in zip(out_shape, core_shape)]
            expanded = multi_mode_product(g, factors)
            oracle = np.zeros(out_shape)
            for out in itertools.product(*map(range, out_shape)):
                for idx in itertools.product(*map(range, core_shape)):
                    oracle[out] += g[idx] * np.prod(
                        [a[i, r] for a, i, r in zip(factors, out, idx)])
            np.testing.assert_allclose(expanded, oracle, atol=1e-12)
            np.testing.assert_allclose(
                expanded.reshape(-1), dense_kron(factors) @ g.reshape(-1), atol=1e-12)

    def test_multi_mode_product_scans_the_tensor_once(self, monkeypatch, rng):
        x = rng.standard_normal((4, 3, 2, 2))
        scans = []
        original = tensor.as_tensor

        def counting(t, *args, **kwargs):
            scans.append(np.shape(t))
            return original(t, *args, **kwargs)

        monkeypatch.setattr(tensor, "as_tensor", counting)
        multi_mode_product(x, [rng.standard_normal((2, i)) for i in x.shape])
        assert scans == [x.shape]


def mode_product(x, a, mode):
    """``x x_mode a`` through :func:`multi_mode_product`, identities elsewhere."""
    return multi_mode_product(
        x, [a if k == mode else np.eye(d) for k, d in enumerate(x.shape)])


class TestNModeProduct:
    def test_identity(self, rng):
        x = rng.standard_normal((2, 3, 4))
        np.testing.assert_array_equal(mode_product(x, np.eye(3), 1), x)

    def test_order_one_is_matvec(self, rng):
        x = rng.standard_normal(4)
        a = rng.standard_normal((2, 4))
        np.testing.assert_allclose(mode_product(x, a, 0), a @ x, atol=1e-12)

    def test_bruteforce_sum(self, rng):
        x = rng.standard_normal((2, 3, 2))
        a = rng.standard_normal((4, 3))
        out = mode_product(x, a, 1)
        assert out.shape == (2, 4, 2)
        for i, j, k in itertools.product(range(2), range(4), range(2)):
            expect = sum(x[i, t, k] * a[j, t] for t in range(3))
            assert abs(out[i, j, k] - expect) < 1e-12

    def test_dim_mismatch(self, rng):
        with pytest.raises(InvalidInputError):
            mode_product(rng.standard_normal((2, 3)), np.eye(4), 1)


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

    def test_size_guard(self, monkeypatch):
        monkeypatch.setattr(tensor, "EXPLICIT_KRON_MAX_ENTRIES", 100)
        np.testing.assert_array_equal(explicit_kron([np.ones((2, 2))] * 3), np.ones((8, 8)))
        with pytest.raises(SizeGuardError):
            explicit_kron([np.ones((2, 2))] * 4)

