import itertools
import math

import numpy as np
import pytest

from kronsolve.errors import InvalidInputError, NumericalFailureError
from kronsolve.leverage import (
    LeverageScores,
    approx_leverage_scores_jl,
    build_product_sampler,
    regression_sample_count,
    ridge_leverage_scores,
    sample_rows,
    spectral_approx_rows,
    spectral_sample_count,
    statistical_leverage_scores,
)
from kronsolve.tensor import compact_svd, explicit_kron

from conftest import dense_kron

# The score-estimation guarantee holds for a projection with O(log n) rows;
# the examples' tight tolerances need the theoretical constant, far above the
# practical default (see JL_LOG_FACTOR).
THEORY_LOG_FACTOR = 8000.0


def dense_ridge_scores(a, lam):
    """Row-by-row oracle: a_i (A^T A + lam I)^+ a_i^T."""
    a = np.asarray(a, dtype=np.float64)
    inv = np.linalg.pinv(a.T @ a + lam * np.eye(a.shape[1]))
    return np.einsum("ij,jk,ik->i", a, inv, a)


class TestRidgeLeverageScores:
    def test_identity_unregularized(self):
        ls = ridge_leverage_scores(compact_svd(np.eye(3)), 0.0)
        np.testing.assert_allclose(ls.scores, [1.0, 1.0, 1.0], atol=1e-12)
        assert ls.approx_factor == 1.0

    def test_identity_ridge(self):
        ls = ridge_leverage_scores(compact_svd(np.eye(2)), 1.0)
        np.testing.assert_allclose(ls.scores, [0.5, 0.5], atol=1e-12)

    def test_rank_deficient_hand_case(self):
        # A^T A + 3 I = diag(4, 7): scores (1/4, 4/7, 0)
        a = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        ls = ridge_leverage_scores(compact_svd(a), 3.0)
        np.testing.assert_allclose(ls.scores, [0.25, 4.0 / 7.0, 0.0], atol=1e-12)

    def test_matches_dense_definition(self, rng):
        for lam in (0.0, 0.3, 5.0):
            a = rng.standard_normal((12, 4))
            ls = ridge_leverage_scores(compact_svd(a), lam)
            np.testing.assert_allclose(ls.scores, dense_ridge_scores(a, lam),
                                       atol=1e-10)

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_rank_zero(self, lam):
        ls = ridge_leverage_scores(compact_svd(np.zeros((4, 2))), lam)
        np.testing.assert_array_equal(ls.scores, np.zeros(4))

    def test_negative_lambda_rejected(self, rng):
        with pytest.raises(InvalidInputError):
            ridge_leverage_scores(compact_svd(rng.standard_normal((4, 2))), -1.0)

    def test_scores_at_most_one(self, rng):
        for _ in range(20):
            a = rng.standard_normal((10, 3))
            lam = float(rng.uniform(0, 2))
            ls = ridge_leverage_scores(compact_svd(a), lam)
            assert np.all(ls.scores <= 1.0 + 1e-10)
            assert np.all(ls.scores >= -1e-12)

    def test_sums(self, rng):
        a = rng.standard_normal((9, 4))
        svd = compact_svd(a)
        stat = ridge_leverage_scores(svd, 0.0)
        assert abs(stat.scores.sum() - svd.rank) <= 1e-8
        lam = 0.7
        ridge = ridge_leverage_scores(svd, lam)
        expected = np.sum(svd.sigma**2 / (svd.sigma**2 + lam))
        assert abs(ridge.scores.sum() - expected) <= 1e-8

    def test_appending_rows_never_increases_scores(self, rng):
        for _ in range(10):
            a = rng.standard_normal((8, 3))
            extra = rng.standard_normal((4, 3))
            before = statistical_leverage_scores(a).scores
            after = statistical_leverage_scores(np.vstack([a, extra])).scores[:8]
            assert np.all(after <= before + 1e-10)


class TestApproxScoresJl:
    def test_nonnegative(self, rng):
        a = rng.standard_normal((20, 4))
        ls = approx_leverage_scores_jl(a, a, a.T @ a, 0.25, seed=0)
        assert np.all(ls.scores >= 0.0)
        assert ls.approx_factor == pytest.approx(1.125)

    def test_identity_concentration(self):
        eps = 0.25
        hits = 0
        for seed in range(100):
            ls = approx_leverage_scores_jl(np.eye(4), np.eye(4), np.eye(4), eps,
                                           seed, log_factor=THEORY_LOG_FACTOR)
            ok = np.all(ls.scores >= 1.0 / (1.0 + eps / 2) - 1e-12)
            ok &= np.all(ls.scores <= 1.0 + eps / 2 + 1e-12)
            hits += bool(ok)
        assert hits >= 95

    def test_random_matrix_vs_exact(self, rng):
        eps = 0.25
        a = rng.standard_normal((50, 5))
        exact = statistical_leverage_scores(a).scores
        hits = 0
        for seed in range(100):
            ls = approx_leverage_scores_jl(a, a, a.T @ a, eps, seed,
                                           log_factor=THEORY_LOG_FACTOR)
            ok = np.all(ls.scores >= exact / (1.0 + eps / 2) - 1e-12)
            ok &= np.all(ls.scores <= exact * (1.0 + eps / 2) + 1e-12)
            hits += bool(ok)
        assert hits >= 95

    def test_eps_range(self, rng):
        a = rng.standard_normal((6, 2))
        with pytest.raises(InvalidInputError):
            approx_leverage_scores_jl(a, a, a.T @ a, 0.5, seed=0)
        with pytest.raises(InvalidInputError):
            approx_leverage_scores_jl(a, a, a.T @ a, 0.0, seed=0)

    def test_singular_gram(self, rng):
        a = np.zeros((4, 2))
        with pytest.raises(NumericalFailureError):
            approx_leverage_scores_jl(a, a, a.T @ a, 0.25, seed=0)


class TestSpectralApproxRows:
    def test_identity_rows_are_rescaled_basis(self):
        sa = spectral_approx_rows(np.eye(4), eps=0.5, delta=0.5, seed=0)
        # every sampled row is w * e_j with w = sqrt(n / s)
        w = math.sqrt(4.0 / sa.shape[0])
        for row in sa:
            nz = np.nonzero(row)[0]
            assert nz.size == 1
            assert row[nz[0]] == pytest.approx(w)
        gram = sa.T @ sa
        assert np.max(np.abs(gram - np.diag(np.diag(gram)))) == 0.0

    def test_spectral_sandwich(self, rng):
        eps, delta = 0.5, 0.1
        a = rng.standard_normal((200, 4))
        whiten = np.linalg.inv(np.linalg.cholesky(a.T @ a))
        hits = 0
        for seed in range(100):
            sa = spectral_approx_rows(a, eps, delta, seed)
            mid = whiten @ (sa.T @ sa) @ whiten.T
            eig = np.linalg.eigvalsh(mid)
            hits += bool(eig.min() >= 1 - eps and eig.max() <= 1 + eps)
        assert hits >= 90

    def test_sample_count(self, rng):
        a = rng.standard_normal((50, 3))
        sa = spectral_approx_rows(a, eps=0.5, delta=0.1, seed=1)
        assert sa.shape[0] == spectral_sample_count(3, 0.5, 0.1)

    def test_eps_zero_rejected(self, rng):
        with pytest.raises(InvalidInputError):
            spectral_approx_rows(rng.standard_normal((5, 2)), eps=0.0,
                                 delta=0.1, seed=0)


class TestRegressionSampleCount:
    # by hand: 1680 ln(40) / 0.25 = 24789.27; 1e-3 * 1680 * 4 ln(160) / 0.1
    # = 341.05; 1e-4 * 1680 * 16 ln(640) ln(100) / 0.25 = 319.94
    @pytest.mark.parametrize("d, eps, alpha, failure_log, expected", [
        (1, 0.25, 1.0, 1.0, 24790),
        (4, 0.1, 1e-3, 1.0, 342),
        (16, 0.25, 1e-4, math.log(100), 320),
        (4, 0.25, 1e-9, 1.0, 1),
    ])
    def test_hand_values(self, d, eps, alpha, failure_log, expected):
        assert regression_sample_count(d, eps, alpha, failure_log) == expected


class TestProductSampler:
    def test_uniform_product(self):
        per = [statistical_leverage_scores(np.eye(2)),
               statistical_leverage_scores(np.eye(3))]
        sampler = build_product_sampler(per)
        draws, probs = sampler.sample(60, np.random.default_rng(0))
        assert {tuple(row) for row in draws} == set(itertools.product(range(2), range(3)))
        np.testing.assert_allclose(probs, 1.0 / 6.0)

    def test_single_factor(self, rng):
        a = rng.standard_normal((5, 2))
        scores = statistical_leverage_scores(a)
        sampler = build_product_sampler([scores])
        np.testing.assert_allclose(sampler.per_factor_probabilities[0],
                                   scores.normalized(), atol=1e-12)

    def test_joint_frequencies_and_kron_oracle(self, rng):
        facs = [rng.standard_normal((4, 2)), rng.standard_normal((3, 2))]
        per = [statistical_leverage_scores(a) for a in facs]
        sampler = build_product_sampler(per)

        # normalized product distribution matches the explicit Kronecker scores
        joint = np.outer(sampler.per_factor_probabilities[0],
                         sampler.per_factor_probabilities[1]).reshape(-1)
        full = statistical_leverage_scores(explicit_kron(facs)).normalized()
        np.testing.assert_allclose(joint, full, atol=1e-9)

        draws, _ = sampler.sample(100_000, np.random.default_rng(7))
        flat = draws[:, 0] * 3 + draws[:, 1]
        freq = np.bincount(flat, minlength=12) / 100_000
        se = np.sqrt(joint * (1 - joint) / 100_000)
        assert np.all(np.abs(freq - joint) <= 3 * se + 1e-12)

    @staticmethod
    def plain_draws(sampler, uniforms):
        """The draws of an unsorted ``np.searchsorted`` per factor."""
        return np.stack([np.clip(np.searchsorted(cdf, u, side="right"), 0, cdf.size - 1)
                         for cdf, u in zip(sampler.per_factor_cdf, uniforms)], axis=1)

    @pytest.mark.parametrize("seed,sizes,s", [
        (0, (5,), 1), (1, (4, 3), 50), (2, (60, 60, 60), 2000),
        (3, (4096, 4096), 38_049), (4, (1, 7, 2, 3), 500),
    ])
    def test_sorted_lookup_draws_plain_searchsorted(self, seed, sizes, s):
        rng = np.random.default_rng(seed)
        sampler = build_product_sampler([
            statistical_leverage_scores(rng.standard_normal((n, 1))) for n in sizes])
        reference_rng = np.random.default_rng(seed)
        uniforms = [reference_rng.random(s) for _ in sizes]
        draws, probs = sampler.sample(s, np.random.default_rng(seed))
        np.testing.assert_array_equal(draws, self.plain_draws(sampler, uniforms))
        # the joint probabilities, multiplied in factor order, to the bit
        np.testing.assert_array_equal(probs, np.prod(
            [p[col] for p, col in zip(sampler.per_factor_probabilities, draws.T)], axis=0))

    def test_uniform_on_a_cdf_entry_draws_plain_searchsorted(self):
        # uniforms equal to CDF entries (the final 1.0 too), repeated and in
        # descending order: the sorted lookup breaks ties as side="right" does
        sampler = build_product_sampler([
            LeverageScores(np.array([1.0, 2.0, 3.0, 4.0]), 0.0),
            LeverageScores(np.array([0.5, 0.0, 0.25, 0.25]), 0.0)])
        uniforms = [np.concatenate([cdf[::-1], cdf, [0.0, 0.5, cdf[1], 0.0]])
                    for cdf in sampler.per_factor_cdf]

        class Replay:
            """A generator stand-in that hands out the given uniforms."""

            def __init__(self, arrays):
                self.arrays = list(arrays)

            def random(self, size):
                out = self.arrays.pop(0)
                assert out.size == size
                return out.copy()

        draws, _ = sampler.sample(uniforms[0].size, Replay(uniforms))
        np.testing.assert_array_equal(draws, self.plain_draws(sampler, uniforms))


def one_factor_sampler(p):
    """A :class:`ProductSampler` of one factor whose row ``j`` is drawn with
    probability ``p[j] / sum(p)``."""
    return build_product_sampler([LeverageScores(np.asarray(p, dtype=np.float64), 0.0)])


class TestSampleRows:
    def test_uniform_weights(self):
        sketch = sample_rows(one_factor_sampler(np.full(4, 0.25)), 2, seed=0)
        assert sketch.indices.shape == (2, 1)
        np.testing.assert_allclose(sketch.weights, [math.sqrt(2.0)] * 2, atol=1e-12)

    def test_degenerate_distribution(self):
        # rows of zero probability, on either side of the one that has it all,
        # are never drawn
        for p in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]):
            sketch = sample_rows(one_factor_sampler(p), 3, seed=0)
            np.testing.assert_array_equal(sketch.indices, [[np.argmax(p)]] * 3)
            np.testing.assert_allclose(sketch.weights, [1.0 / math.sqrt(3.0)] * 3,
                                       atol=1e-12)

    def test_sketch_gram_is_unbiased(self, rng):
        # Monte Carlo: E[(SA)^T SA] == A^T A
        a = rng.standard_normal((30, 3))
        sampler = build_product_sampler([statistical_leverage_scores(a)])
        total = np.zeros((3, 3))
        reps = 200
        for seed in range(reps):
            sketch = sample_rows(sampler, 2000, seed=seed)
            sa = sketch.weights[:, None] * a[sketch.indices[:, 0]]
            total += sa.T @ sa
        mean = total / reps
        err = np.linalg.norm(mean - a.T @ a) / np.linalg.norm(a.T @ a)
        assert err <= 0.05


class TestKroneckerScoreFormulas:
    def test_ridge_formula_direct_summation(self, rng):
        # direct summation over all singular-triple products vs the dense
        # definition on the explicit Kronecker matrix
        for lam in (0.0, 0.5):
            shapes = [(4, 2), (3, 2), (2, 2)]
            facs = [rng.standard_normal(s) for s in shapes]
            svds = [np.linalg.svd(a, full_matrices=False) for a in facs]
            k = dense_kron(facs)
            want = dense_ridge_scores(k, lam)
            got = np.zeros(k.shape[0])
            row_ranges = [range(s[0]) for s in shapes]
            col_ranges = [range(min(s)) for s in shapes]
            for flat, rows in enumerate(itertools.product(*row_ranges)):
                total = 0.0
                for t in itertools.product(*col_ranges):
                    sig2 = math.prod(svds[n][1][t[n]] ** 2 for n in range(3))
                    u2 = math.prod(svds[n][0][rows[n], t[n]] for n in range(3)) ** 2
                    if sig2 + lam > 0:
                        total += sig2 / (sig2 + lam) * u2
                got[flat] = total
            np.testing.assert_allclose(got, want, atol=1e-9)
            lib = ridge_leverage_scores(compact_svd(k), lam)
            np.testing.assert_allclose(lib.scores, want, atol=1e-9)
