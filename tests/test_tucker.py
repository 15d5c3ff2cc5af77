import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import kronsolve as ks
import kronsolve.kron as kron
import kronsolve.solvers as solvers
import kronsolve.tensor as tensor
import kronsolve.tucker as tucker
from kronsolve.errors import InvalidInputError
from kronsolve.experiments import generate_synth_tucker
from kronsolve.leverage import (
    build_product_sampler,
    regression_sample_count,
    sample_rows,
    statistical_leverage_scores,
)
from kronsolve.solvers import RegressionConfig
from kronsolve.tensor import compact_svd, explicit_kron, unfold
from kronsolve.tucker import (
    AlsReport,
    TuckerModel,
    build_factor_workspace,
    core_update,
    fast_factor_matrix_update,
    naive_factor_update,
    reconstruct,
    regularized_loss,
    relative_error,
    tucker_als,
)

from conftest import dense_kron, factor_shaped, load_perfbench, sketched_rows


def random_model(rng, shape, rank, lam=0.0):
    core = rng.standard_normal(tuple(rank))
    factors = [rng.standard_normal((i, r)) for i, r in zip(shape, rank)]
    return TuckerModel(core=core, factors=factors, lam=lam)


def leftover_design(model, n):
    """Dense per-row design matrix of the factor-n update."""
    others = [a for k, a in enumerate(model.factors) if k != n]
    return explicit_kron(others) @ unfold(model.core, n).T


def svd_bases(model):
    return [compact_svd(a) for a in model.factors]


def row_ridge_loss(design, y, b, lam):
    return float(np.sum((design @ y - b) ** 2) + lam * np.sum(y**2))


# 12^3 with a rank-3 core: at alpha 5e-5 every fast factor update draws a
# sketch instead of falling back to the exact solve
LOSS_CFG = RegressionConfig(eps=0.25, delta=0.05, seed=3, alpha=5e-5)


class TestModelBasics:
    def test_shape_validation(self, rng):
        with pytest.raises(InvalidInputError):
            TuckerModel(core=rng.standard_normal((2, 2)),
                        factors=[rng.standard_normal((4, 2))])
        with pytest.raises(InvalidInputError):
            TuckerModel(core=rng.standard_normal((3, 2)),
                        factors=[rng.standard_normal((2, 3)),
                                 rng.standard_normal((4, 2))])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_factor_rejected(self, bad):
        # the model checks its factors as it checks its core
        factors = [np.eye(4, 2), np.eye(3, 2)]
        factors[1][0, 0] = bad
        with pytest.raises(InvalidInputError, match="factor 1 contains non-finite"):
            TuckerModel(core=np.ones((2, 2)), factors=factors)

    def test_zero_core_reconstruction(self, rng):
        model = random_model(rng, (4, 3, 5), (2, 2, 2))
        model.core = np.zeros_like(model.core)
        x = rng.standard_normal((4, 3, 5))
        assert np.all(reconstruct(model) == 0.0)
        assert relative_error(model, x) == pytest.approx(1.0)

    def test_hand_rank_one(self):
        u = np.array([1.0, 2.0])
        v = np.array([3.0, -1.0])
        w = np.array([0.5, 4.0])
        core = np.zeros((2, 2, 2))
        core[0, 0, 0] = 1.0
        factors = [np.column_stack([u, np.zeros(2)]),
                   np.column_stack([v, np.zeros(2)]),
                   np.column_stack([w, np.zeros(2)])]
        model = TuckerModel(core=core, factors=factors)
        got = reconstruct(model)
        for i, j, k in itertools.product(range(2), repeat=3):
            assert got[i, j, k] == pytest.approx(u[i] * v[j] * w[k])

    def test_rre_of_own_reconstruction(self, rng):
        model = random_model(rng, (4, 3, 5), (2, 2, 2))
        assert relative_error(model, reconstruct(model)) == pytest.approx(0.0, abs=1e-14)

    def test_loss_zero_lambda(self, rng):
        model = random_model(rng, (4, 3), (2, 2))
        x = rng.standard_normal((4, 3))
        want = float(np.sum((reconstruct(model) - x) ** 2))
        assert regularized_loss(model, x) == pytest.approx(want)

    def test_loss_zero_model_unit_lambda(self, rng):
        model = random_model(rng, (4, 3), (2, 2), lam=1.0)
        model.core = np.zeros_like(model.core)
        model.factors = [np.zeros_like(a) for a in model.factors]
        x = rng.standard_normal((4, 3))
        assert regularized_loss(model, x) == pytest.approx(float(np.sum(x**2)))

    def test_loss_additivity(self, rng):
        model = random_model(rng, (4, 3, 2), (2, 2, 2), lam=0.7)
        x = rng.standard_normal((4, 3, 2))
        err = float(np.sum((reconstruct(model) - x) ** 2))
        frob = float(np.sum(model.core**2)) + sum(float(np.sum(a**2))
                                                  for a in model.factors)
        assert regularized_loss(model, x) == pytest.approx(err + 0.7 * frob)


class TestCoreUpdate:
    def test_orthonormal_projection(self, rng):
        # square orthonormal factors, lam 0: core is the back-projected tensor
        qs = [np.linalg.qr(rng.standard_normal((4, 4)))[0] for _ in range(3)]
        model = TuckerModel(core=np.zeros((4, 4, 4)), factors=qs)
        x = rng.standard_normal((4, 4, 4))
        core = core_update(model, x)
        from kronsolve.tensor import multi_mode_product
        want = multi_mode_product(x, [q.T for q in qs])
        np.testing.assert_allclose(core, want, atol=1e-10)

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_zero_factor_gives_the_zero_core(self, rng, lam):
        # a zero factor has an empty basis, and the SVD route solves nothing
        model = random_model(rng, (6, 5, 4), (2, 3, 2), lam=lam)
        model.factors[1][:] = 0.0
        core = core_update(model, rng.standard_normal(model.shape))
        assert core.shape == model.core_shape
        np.testing.assert_array_equal(core, np.zeros(model.core_shape))

    def test_huge_lambda_shrinks(self, rng):
        model = random_model(rng, (5, 4), (2, 2), lam=0.0)
        x = rng.standard_normal((5, 4))
        plain = core_update(model, x)
        model.lam = 1e12
        tiny = core_update(model, x)
        assert np.linalg.norm(tiny) <= 1e-9 * np.linalg.norm(plain)

    def test_fast_matches_exact_quality(self, rng):
        # a fast sweep solves the core exactly, at the factors it ends with
        for seed in range(10):
            rs = np.random.default_rng(seed + 300)
            x = rs.standard_normal((10, 10, 10))
            cfg = RegressionConfig(eps=0.25, delta=0.05, lam=1e-3, seed=seed,
                                   alpha=2e-4)
            model, _ = tucker_als(x, (3, 3, 3), lam=1e-3, sweeps=1,
                                  solver_mode="fast", config=cfg)
            exact = core_update(model, x)
            assert np.linalg.norm(model.core - exact) <= 1e-12 * np.linalg.norm(exact)


def degenerate(model, case):
    """``model`` with a zero column in factor 1, a zero core slice along
    mode 0, two equal core slices along mode 0 (a rank-deficient core
    unfolding, so a rank-deficient mode-0 design), or as it is (``case``
    'zero column', 'zero core slice', 'equal core slices', 'plain')."""
    if case == "zero column":
        model.factors[1][:, 0] = 0.0
    elif case == "zero core slice":
        model.core[1] = 0.0
    elif case == "equal core slices":
        model.core[1] = model.core[0]
    return model


# each case with a ridge and without, where the pseudo-inverse convention
# picks the minimum-norm solution of a rank-deficient design
DEGENERATE_CASES = [(case, lam) for case in ("plain", "zero column", "zero core slice",
                                             "equal core slices")
                    for lam in (0.3, 0.0)]


class TestNaiveFactorUpdate:
    def test_fixed_point(self, rng):
        model = random_model(rng, (5, 4, 3), (2, 2, 2))
        x = reconstruct(model)
        before = regularized_loss(model, x)
        model.factors[1] = naive_factor_update(model, x, 1)
        after = regularized_loss(model, x)
        assert after <= before + 1e-10

    def test_per_row_normal_equation(self, rng):
        for case, lam in DEGENERATE_CASES:
            model = degenerate(random_model(rng, (5, 4, 3), (2, 2, 2), lam=lam), case)
            x = rng.standard_normal((5, 4, 3))
            n = 0
            new = naive_factor_update(model, x, n)
            design = leftover_design(model, n)
            b = unfold(x, n)
            for i in range(5):
                grad = design.T @ (design @ new[i] - b[i]) + lam * new[i]
                assert np.linalg.norm(grad) <= 1e-8 * max(1.0, np.linalg.norm(b[i])), case

    def test_order_two_dense_oracle(self, rng):
        # every row against the stacked [K; sqrt(lam) I] least-squares solution
        for case, lam in DEGENERATE_CASES:
            model = degenerate(random_model(rng, (6, 5), (2, 3), lam=lam), case)
            x = rng.standard_normal((6, 5))
            new = naive_factor_update(model, x, 0)
            want = stacked_ridge_lstsq(leftover_design(model, 0), unfold(x, 0).T, lam).T
            assert_rows_close(new, want, 1e-10)
            if case == "zero core slice":
                np.testing.assert_array_equal(new[:, 1], np.zeros(6))

    def test_decomposes_only_the_factors_it_reads(self, count_calls, rng):
        model = random_model(rng, (5, 4, 3), (2, 2, 2), lam=0.1)
        svds = count_calls(tucker, "compact_svd")
        naive_factor_update(model, rng.standard_normal((5, 4, 3)), 1)
        # factor 1 is the one solved for, so its SVD would go unread
        svds = factor_shaped(svds, (5, 4, 3), (2, 2, 2))
        assert len(svds) == 2
        assert all(args[0] is model.factors[k] for args, k in zip(svds, (0, 2)))


class TestFactorWorkspace:
    def test_projector_algebra(self, rng):
        model = random_model(rng, (5, 4, 6), (2, 3, 2), lam=0.1)
        ws = build_factor_workspace(model, 1, eps=0.25, lam=0.1)
        n_mat = ws.constraint_projector()
        np.testing.assert_allclose(n_mat @ n_mat, n_mat, atol=1e-8)
        np.testing.assert_allclose(n_mat.T, n_mat, atol=1e-10)
        g_t = unfold(model.core, 1).T
        np.testing.assert_allclose(n_mat @ g_t, np.zeros_like(g_t), atol=1e-10)

    def test_apply_zero(self, rng):
        model = random_model(rng, (5, 4, 6), (2, 3, 2), lam=0.1)
        ws = build_factor_workspace(model, 0, eps=0.25, lam=0.1)
        np.testing.assert_array_equal(ws.apply(np.zeros(6)), np.zeros(6))

    def test_square_invertible_core_unfolding(self, rng):
        # order-2 model with a square invertible unfolding: no constraint left
        model = TuckerModel(core=rng.standard_normal((2, 2)),
                            factors=[rng.standard_normal((5, 2)),
                                     rng.standard_normal((4, 2))], lam=0.2)
        ws = build_factor_workspace(model, 0, eps=0.25, lam=0.2)
        assert ws.penalty_weight <= 1e-20  # zero up to projector roundoff
        np.testing.assert_allclose(ws.constraint_projector(), np.zeros((2, 2)),
                                   atol=1e-10)
        k = model.factors[1]
        gp = np.linalg.pinv(unfold(model.core, 0))
        m = k.T @ k + 0.2 * gp @ gp.T
        z = rng.standard_normal(2)
        np.testing.assert_allclose(ws.apply(z), np.linalg.solve(m, z), atol=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_woodbury_matches_dense_pinv(self, seed):
        rng = np.random.default_rng(seed)
        rank = tuple(rng.integers(2, 5, size=3))
        shape = tuple(int(r) + int(rng.integers(1, 4)) for r in rank)
        lam = float(rng.uniform(0, 0.5))
        model = random_model(rng, shape, rank, lam=lam)
        n = int(rng.integers(0, 3))
        ws = build_factor_workspace(model, n, eps=0.25, lam=lam)
        others = [a for k, a in enumerate(model.factors) if k != n]
        k = dense_kron(others)
        g = unfold(model.core, n)
        gp = np.linalg.pinv(g)
        n_mat = np.eye(g.shape[1]) - g.T @ np.linalg.pinv(g.T)
        m = k.T @ k + lam * gp @ gp.T + ws.penalty_weight * (n_mat.T @ n_mat)
        mp = np.linalg.pinv(m)
        z = rng.standard_normal(g.shape[1])
        got = ws.apply(z)
        want = mp @ z
        assert np.linalg.norm(got - want) <= 1e-8 * max(1.0, np.linalg.norm(want))
        # identity on the range of M
        v = m @ z
        np.testing.assert_allclose(m @ ws.apply(v), v,
                                   atol=1e-8 * max(1.0, np.linalg.norm(v)))

    def test_projection_kills_constraint(self, rng):
        model = random_model(rng, (5, 4, 6), (2, 3, 2), lam=0.1)
        ws = build_factor_workspace(model, 1, eps=0.25, lam=0.1)
        z = rng.standard_normal(4)
        proj = ws.project_feasible(z)
        n_mat = ws.constraint_projector()
        assert np.linalg.norm(n_mat @ proj) <= 1e-6 * max(1e-30, np.linalg.norm(proj))

    def test_eps_range(self, rng):
        model = random_model(rng, (5, 4), (2, 2))
        with pytest.raises(InvalidInputError):
            build_factor_workspace(model, 0, eps=0.4, lam=0.0)


class TestConstrainedSubstitution:
    """Dense checks of the constrained reformulation of the row updates."""

    @staticmethod
    def _instance(seed):
        rng = np.random.default_rng(seed)
        k = rng.standard_normal((12, 6))      # leftover Kronecker block
        g = rng.standard_normal((3, 6))       # core unfolding
        b = rng.standard_normal(12)
        lam = float(rng.uniform(0.01, 1.0))
        return k, g, b, lam

    @staticmethod
    def _constrained_optimum(k, g, b, lam):
        # minimize ||K z - b||^2 + lam ||(G^T)^+ z||^2 over z in range(G^T)
        q, _ = np.linalg.qr(g.T)  # orthonormal basis of the feasible set
        gtp = np.linalg.pinv(g.T)
        stacked = np.vstack([k @ q, math.sqrt(lam) * gtp @ q])
        target = np.concatenate([b, np.zeros(gtp.shape[0])])
        v = np.linalg.lstsq(stacked, target, rcond=None)[0]
        z = q @ v
        val = float(np.sum((k @ z - b) ** 2) + lam * np.sum((gtp @ z) ** 2))
        return z, val

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_original_ridge(self, seed):
        k, g, b, lam = self._instance(seed)
        design = k @ g.T
        y_star = np.linalg.solve(design.T @ design + lam * np.eye(3),
                                 design.T @ b)
        ridge_val = float(np.sum((design @ y_star - b) ** 2)
                          + lam * np.sum(y_star**2))
        z_star, constrained_val = self._constrained_optimum(k, g, b, lam)
        assert constrained_val == pytest.approx(ridge_val, rel=1e-8, abs=1e-8)
        recovered = np.linalg.pinv(g.T) @ z_star
        np.testing.assert_allclose(recovered, y_star, atol=1e-8)

    @pytest.mark.parametrize("eps", [0.1, 0.3])
    @pytest.mark.parametrize("seed", range(4))
    def test_penalty_relaxation(self, seed, eps):
        k, g, b, lam = self._instance(seed)
        gtp = np.linalg.pinv(g.T)
        # the constraint matrix is an orthogonal projector, so N^+ = N
        n_mat = np.eye(6) - g.T @ gtp
        stacked = np.vstack([k, math.sqrt(lam) * gtp])
        w = (1 + 12.0 / eps) * np.linalg.norm(stacked @ n_mat, ord=2) ** 2
        penalized = np.vstack([stacked, math.sqrt(w) * n_mat])
        target = np.concatenate([b, np.zeros(gtp.shape[0] + 6)])
        zhat = np.linalg.lstsq(penalized, target, rcond=None)[0]
        z = (np.eye(6) - n_mat) @ zhat
        val = float(np.sum((k @ z - b) ** 2) + lam * np.sum((gtp @ z) ** 2))
        _, best = self._constrained_optimum(k, g, b, lam)
        assert val <= (1 + eps) * best + 1e-10


class TestFastFactorUpdate:
    def test_shortcut_matches_naive(self, rng):
        x = rng.standard_normal((6, 6, 6))
        model, _ = tucker_als(x, (2, 2, 2), lam=0.0, sweeps=1,
                              solver_mode="exact",
                              config=RegressionConfig(seed=5))
        cfg = RegressionConfig(eps=0.25, delta=0.05, lam=0.0, seed=6)
        fast = fast_factor_matrix_update(model, x, 0, cfg)
        naive = naive_factor_update(model, x, 0)
        np.testing.assert_allclose(fast, naive, atol=1e-6)

    def test_zero_row_stays_zero(self, rng):
        x = rng.standard_normal((6, 6, 6))
        model, _ = tucker_als(x, (2, 2, 2), lam=1e-2, sweeps=1,
                              solver_mode="exact",
                              config=RegressionConfig(seed=5))
        model.lam = 1e-2
        x = x.copy()
        x[2] = 0.0
        cfg = RegressionConfig(eps=0.25, delta=0.05, lam=1e-2, seed=6, alpha=5e-5)
        fast = fast_factor_matrix_update(model, x, 0, cfg)
        np.testing.assert_allclose(fast[2], np.zeros(2), atol=1e-12)

    def test_sketched_per_row_quality(self):
        good = total = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((8, 8, 8))
            model, _ = tucker_als(x, (2, 2, 2), lam=1e-3, sweeps=1,
                                  solver_mode="exact",
                                  config=RegressionConfig(seed=seed))
            cfg = RegressionConfig(eps=0.25, delta=0.05, lam=1e-3, seed=seed,
                                   alpha=5e-5)
            fast = fast_factor_matrix_update(model, x, 0, cfg)
            naive = naive_factor_update(model, x, 0)
            design = leftover_design(model, 0)
            b = unfold(x, 0)
            for i in range(8):
                lf = row_ridge_loss(design, fast[i], b[i], 1e-3)
                ln = row_ridge_loss(design, naive[i], b[i], 1e-3)
                total += 1
                good += lf <= 1.25 * ln
        assert good >= math.ceil(0.95 * total)

    def test_eps_range(self, rng):
        model = random_model(rng, (5, 4, 3), (2, 2, 2))
        with pytest.raises(InvalidInputError):
            fast_factor_matrix_update(model, rng.standard_normal((5, 4, 3)), 0,
                                      RegressionConfig(eps=0.35, seed=0))

    def test_fallback_inside_als_decomposes_nothing(self, count_calls, rng):
        # at alpha 1 every sketch would cover its rows, so each fast factor
        # step runs the exact update on the bases that ALS holds: the only
        # decompositions are one per update (the start's orthonormal factors
        # are their own bases)
        x = rng.standard_normal((8, 7, 6))
        svds = [count_calls(module, "compact_svd") for module in (solvers, tucker)]
        fallbacks = count_calls(tucker, "_exact_factor_update")
        draws = count_calls(solvers, "sample_rows")
        tucker_als(x, (3, 2, 2), lam=1e-2, sweeps=2, solver_mode="fast",
                   config=RegressionConfig(eps=0.25, delta=0.1, alpha=1.0, seed=0))
        assert [len(factor_shaped(calls, x.shape, (3, 2, 2))) for calls in svds] == [3 * 2, 0]
        assert len(fallbacks) == 3 * 2 and len(draws) == 0


def sketched_block_oracle(model, x, n, config):
    """Every row of the factor-``n`` update solved densely from the same sketch.

    The sketch is drawn as the update documents (exact statistical leverage
    scores of the other factors, ``config.seed``); ``S K`` keeps one
    rescaled row per draw, repeated draws included, and each row's sketched
    ridge problem is solved with the pseudo-inverse convention.
    """
    others = [a for k, a in enumerate(model.factors) if k != n]
    row_shape = tuple(a.shape[0] for a in others)
    r_rest = math.prod(a.shape[1] for a in others)
    s = regression_sample_count(r_rest, config.eps, config.alpha,
                                math.log(model.factors[n].shape[0] / config.delta))
    sampler = build_product_sampler([statistical_leverage_scores(a) for a in others])
    sketch = sample_rows(sampler, s, config.seed)
    design = sketched_rows(others, sketch) @ unfold(model.core, n).T
    flat = np.ravel_multi_index(tuple(sketch.indices.T), row_shape)
    sb = sketch.weights[:, None] * unfold(x, n)[:, flat].T
    # the pseudo-inverse convention: singular directions of D at or below
    # 1e-10 sigma_max (LAPACK's SVD) carry no solution.  A design that is
    # rank-deficient in exact arithmetic, such as one with fewer leftover
    # core columns than R_n, keeps roundoff singular values near 1e-16 |D|,
    # which the stacked solve would divide by lam
    _, sigma, vt = np.linalg.svd(design, full_matrices=False)
    basis = vt[sigma > 1e-10 * sigma[:1]].T
    return (basis @ stacked_ridge_lstsq(design @ basis, sb, model.lam)).T, sketch


def stacked_ridge_lstsq(design, sb, lam):
    """``(D^T D + lam I)^+ D^T sb`` as the minimum-norm least-squares
    solution of ``[D; sqrt(lam) I] y = [sb; 0]``.

    The SVD of the stacked matrix loses ``cond(D)``, not the ``cond(D)^2``
    of a solve with ``D^T D + lam I``, which with unit-scale Gaussian factors
    of order 4 reaches ``3e5`` and so ``1e-10`` on its own.
    """
    cols = design.shape[1]
    stacked = np.vstack([design, math.sqrt(lam) * np.eye(cols)])
    rhs = np.concatenate([sb, np.zeros((cols,) + sb.shape[1:])])
    return np.linalg.lstsq(stacked, rhs, rcond=None)[0]


def assert_rows_close(got, want, rtol):
    for g, w in zip(got, want):
        assert np.linalg.norm(g - w) <= rtol * max(np.linalg.norm(w), 1e-300)


def block_problem(ranks, extra, n, lam, seed, target):
    """A model, a tensor and a config whose factor-``n`` sample count is about
    ``target`` draws (alpha scaled to it); ``None`` if the exact update runs."""
    rng = np.random.default_rng(seed)
    shape = [r + e for r, e in zip(ranks, extra)]
    model = random_model(rng, shape, ranks, lam=lam)
    x = rng.standard_normal(shape)
    r_rest = math.prod(r for k, r in enumerate(ranks) if k != n)
    i_rest = math.prod(i for k, i in enumerate(shape) if k != n)
    failure_log = math.log(shape[n] / 0.05)
    unscaled = regression_sample_count(r_rest, 0.25, 1.0, failure_log)
    cfg = RegressionConfig(eps=0.25, delta=0.05, lam=lam, seed=seed,
                           alpha=min(1.0, target / unscaled))
    if regression_sample_count(r_rest, 0.25, cfg.alpha, failure_log) >= i_rest:
        return None
    return model, x, cfg


@st.composite
def block_problems(draw):
    """Orders 2-4, ranks 1-3, and a sample count anywhere below the leftover rows."""
    order = draw(st.integers(2, 4))
    ranks = draw(st.lists(st.integers(1, 3), min_size=order, max_size=order))
    extra = draw(st.lists(st.integers(0, 4), min_size=order, max_size=order))
    n = draw(st.integers(0, order - 1))
    i_rest = math.prod(r + e for k, (r, e) in enumerate(zip(ranks, extra)) if k != n)
    assume(i_rest >= 2)
    target = draw(st.integers(1, i_rest - 1))
    # down to lam 1e-12, where cond(D^T D + lam I) reaches cond(D)^2: the
    # SVD solve and the stacked-system oracle each lose cond(D), not its square
    lam = draw(st.floats(1e-12, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    problem = block_problem(ranks, extra, n, lam, seed, target)
    assume(problem is not None)
    return problem + (n,)


class TestBlockFactorUpdate:
    """The fast factor update is one sketched ridge solve for all rows."""

    # the target is noise (0.0) or the model's own tensor plus that noise
    # (1.0), so the sketched residual is large or small next to S b
    @pytest.mark.parametrize("signal", [0.0, 1.0])
    @given(problem=block_problems())
    @example(problem=block_problem((2, 3, 2, 2), (3, 1, 2, 2), 1, 0.05, 9, 60) + (1,))
    @settings(max_examples=120, deadline=None)
    def test_matches_dense_sketched_ridge(self, signal, problem):
        model, x, cfg, n = problem
        x = x + signal * reconstruct(model)
        want, sketch = sketched_block_oracle(model, x, n, cfg)
        got = fast_factor_matrix_update(model, x, n, cfg)
        assert got.shape == model.factors[n].shape
        assert_rows_close(got, want, 1e-10)

    def test_example_repeats_draws(self):
        model, x, cfg = block_problem((2, 3, 2, 2), (3, 1, 2, 2), 1, 0.05, 9, 60)
        _, sketch = sketched_block_oracle(model, x, 1, cfg)
        distinct = np.unique(sketch.indices, axis=0).shape[0]
        assert distinct < sketch.sample_count

    def test_rank_deficient_core_without_ridge(self):
        # a zero core slice along mode 0 makes the sketched design rank
        # deficient; with lam 0 the pseudo-inverse solution comes out
        model, x, cfg = block_problem((3, 2, 2), (3, 4, 4), 0, 0.0, 4, 20)
        model.core[1] = 0.0
        got = fast_factor_matrix_update(model, x, 0, cfg)
        want, _ = sketched_block_oracle(model, x, 0, cfg)
        assert np.all(np.isfinite(got))
        np.testing.assert_array_equal(got[:, 1], np.zeros(x.shape[0]))
        assert_rows_close(got, want, 1e-10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lam", [0.0, 0.1])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_zero_core_gives_exact_zeros(self, count_calls, n, lam):
        # a zero core makes the sketched design zero; its SVD has rank 0, so
        # the general solve returns zeros, with no -0.0 and no warning
        model, x, cfg = block_problem((2, 2, 2), (4, 4, 4), n, lam, 1, 20)
        model.core[...] = 0.0
        draws = count_calls(solvers, "sample_rows")
        got = fast_factor_matrix_update(model, x, n, cfg)
        assert len(draws) == 1
        assert got.shape == model.factors[n].shape
        assert np.ascontiguousarray(got).tobytes() == bytes(8 * got.size)

    def test_rank_one_design_at_tiny_ridge(self):
        # one leftover core column and R_n = 2: D = v g^T has rank 1 in exact
        # arithmetic, so every row's solution is g (v^T S b_i) / (|v|^2 |g|^2
        # + lam), which roundoff in D would move by up to 1e-16 |D| / lam
        model, x, cfg = block_problem((1, 1, 2), (0, 2, 0), 2, 1e-12, 0, 2)
        g = model.core.reshape(-1)
        s = regression_sample_count(1, cfg.eps, cfg.alpha, math.log(2 / cfg.delta))
        sketch = sample_rows(build_product_sampler(
            [statistical_leverage_scores(a) for a in model.factors[:2]]), s, cfg.seed)
        rows, cols = sketch.indices.T
        v = sketch.weights * model.factors[0][rows, 0] * model.factors[1][cols, 0]
        sb = sketch.weights[:, None] * x[rows, cols]
        want = np.outer(v @ sb, g) / ((v @ v) * (g @ g) + 1e-12)
        got = fast_factor_matrix_update(model, x, 2, cfg)
        assert_rows_close(got, want, 1e-14)

    def test_one_sketch_per_update(self, count_calls):
        model, x, cfg = block_problem((2, 2, 2), (4, 4, 4), 2, 0.1, 1, 20)
        draws = count_calls(solvers, "sample_rows")
        exact = count_calls(tucker, "_exact_factor_update")
        fast_factor_matrix_update(model, x, 2, cfg)
        assert len(draws) == 1 and len(exact) == 0
        # the draw count is the per-row union bound's: ln(I_n / delta)
        assert draws[0][1] == regression_sample_count(4, 0.25, cfg.alpha,
                                                      math.log(6 / 0.05))

    def test_one_sketch_per_update_inside_als(self, count_calls):
        # every factor update of a sweep draws one sketch, and the core none
        x = generate_synth_tucker((12, 12, 12), (3, 3, 3), 0.01, seed=4)
        draws = count_calls(solvers, "sample_rows")
        tucker_als(x, (3, 3, 3), lam=1e-3, sweeps=2, solver_mode="fast",
                   config=LOSS_CFG)
        assert len(draws) == 2 * 3

    def test_sketched_solves_read_the_tensor_in_place(self, count_calls):
        # every sketched solve of a sweep reads b at its draws from X itself:
        # the middle mode's unfolding of a 12 x 11 x 10 tensor cannot be a
        # view, so a solve handed it would read a copy
        x = generate_synth_tucker((12, 11, 10), (3, 3, 3), 0.01, seed=4)
        reads = count_calls(solvers, "_drawn_rows")
        tucker_als(x, (3, 3, 3), lam=1e-3, sweeps=1, solver_mode="fast",
                   config=RegressionConfig(eps=0.25, delta=0.05, seed=3, alpha=1e-5))
        assert len(reads) == 3
        assert all(np.shares_memory(b, x) for _, _, b in reads)

    def test_exact_update_when_the_sketch_covers_the_rows(self, count_calls):
        model, x, _ = block_problem((2, 2, 2), (4, 4, 4), 2, 0.1, 1, 20)
        draws = count_calls(solvers, "sample_rows")
        exact = count_calls(tucker, "_exact_factor_update")
        got = fast_factor_matrix_update(model, x, 2, RegressionConfig(lam=0.1))
        assert len(draws) == 0 and len(exact) == 1
        np.testing.assert_array_equal(got, naive_factor_update(model, x, 2))


class TestSketchedCoreUpdate:
    """Fast ALS has no sketched core update: each sweep projects the tensor
    once and solves the exact ridge core on that projection."""

    def test_fast_sweep_solves_the_exact_core(self, count_calls):
        x = generate_synth_tucker((12, 12, 12), (3, 3, 3), 0.01, seed=4)
        samplers = count_calls(solvers, "build_product_sampler")
        exact_solves = count_calls(tucker, "_svd_ridge_solution")
        model, report = tucker_als(x, (3, 3, 3), lam=1e-3, sweeps=2,
                                   solver_mode="fast", config=LOSS_CFG)
        # every sketch is drawn over the N-1 factors of a factor update
        assert len(samplers) == 2 * 3
        assert all(len(args[0]) == 2 for args in samplers)
        assert len(exact_solves) == 2
        exact = core_update(model, x)
        assert np.linalg.norm(model.core - exact) <= 1e-12 * np.linalg.norm(exact)
        assert report.sweep_losses[-1] == pytest.approx(
            regularized_loss(model, x), rel=1e-10, abs=0)

    def test_fast_als_runs_no_richardson(self, count_calls):
        x = generate_synth_tucker((12, 12, 12), (3, 3, 3), 0.01, seed=4)
        unused = [count_calls(module, name) for module in (kron, solvers, tucker)
                  for name in ("fast_kronecker_regression", "pcg_solve", "richardson_solve",
                               "build_kron_preconditioner", "factor_gram",
                               "ridge_loss", "SketchedKron")
                  if hasattr(module, name)]
        solves = count_calls(tucker, "sketched_ridge_solve")
        tucker_als(x, (3, 3, 3), lam=1e-3, sweeps=2, solver_mode="fast",
                   config=LOSS_CFG)
        assert sum(len(calls) for calls in unused) == 0
        assert len(solves) == 2 * 3


class TestRangeFinderStart:
    @pytest.mark.parametrize("shape,rank,lam,seed", [
        ((12, 10, 8), (3, 2, 4), 1e-3, 0), ((20, 20, 20), (4, 4, 4), 0.0, 1),
        ((9, 30), (2, 5), 0.5, 2), ((6, 5, 4, 7), (2, 3, 1, 2), 1e-2, 3),
        ((7,), (3,), 0.1, 4), ((5, 4, 3), (5, 4, 3), 1e-3, 5)])
    def test_orthonormal_factors_and_exact_core(self, shape, rank, lam, seed):
        x = generate_synth_tucker(shape, [min(2, r) for r in rank], 0.01, seed=seed)
        model, projected = tucker.initial_model(x, rank, lam, seed)
        for a, r in zip(model.factors, rank):
            assert np.max(np.abs(a.T @ a - np.eye(r))) <= 1e-12
        exact = core_update(model, x)
        assert np.max(np.abs(model.core - exact)) <= 1e-12 * np.max(np.abs(exact))
        np.testing.assert_array_equal(model.core, projected / (1.0 + lam))

        x_norm_sq = float(np.sum(x**2))
        want_err, want_loss = tucker._fit(model, x, x_norm_sq)
        _, report = tucker_als(x, rank, lam=lam, sweeps=1,
                               config=RegressionConfig(seed=seed))
        assert report.step_labels[0] == "init-core"
        assert report.step_losses[0] == pytest.approx(want_loss, rel=1e-10, abs=1e-300)
        assert report.step_errors[0] == pytest.approx(want_err, rel=1e-10,
                                                      abs=1e-12 * x_norm_sq)

    def test_seeded_and_shared_by_both_modes(self, count_calls):
        x = generate_synth_tucker((10, 9, 8), (3, 3, 3), 0.01, seed=6)
        starts = count_calls(tucker, "initial_model")
        cfg = RegressionConfig(eps=0.25, delta=0.05, seed=11, alpha=5e-5)
        for mode in ("exact", "fast"):
            tucker_als(x, (3, 3, 3), lam=1e-3, sweeps=1, solver_mode=mode, config=cfg)
        assert [args[3] for args in starts] == [11, 11]
        a, _ = tucker.initial_model(x, (3, 3, 3), 1e-3, 11)
        b, _ = tucker.initial_model(x, (3, 3, 3), 1e-3, 11)
        np.testing.assert_array_equal(a.core, b.core)

    def test_captures_the_leading_subspaces(self):
        # tensors with a slowly decaying spectrum (29 rank-one terms weighted
        # 1/k): per tensor the start keeps 84-99% of the energy that the dense
        # sequentially truncated HOSVD keeps, 93% on average; the sketch's
        # own leading singular vectors, without the Q^T T_(n) step, keep
        # 3-97%, 59% on average
        kept = []
        for shape, rank in [((20, 20, 20), (4, 4, 4)), ((30, 25, 20), (3, 5, 2)),
                            ((12, 12, 12, 12), (2, 3, 2, 3))]:
            for seed in range(3):
                rng = np.random.default_rng(seed)
                x = np.zeros(shape)
                for k in range(1, 30):
                    term = np.ones(())
                    for i in shape:
                        term = np.multiply.outer(term, rng.standard_normal(i))
                    x += term / k
                t = x
                for n, r in enumerate(rank):
                    u = np.linalg.svd(unfold(t, n), full_matrices=False)[0][:, :r]
                    t = np.moveaxis(np.tensordot(u, t, axes=([0], [n])), 0, n)
                _, projected = tucker.initial_model(x, rank, 0.0, seed)
                kept.append(np.sum(projected**2) / np.sum(t**2))
        assert min(kept) >= 0.8 and np.mean(kept) >= 0.9, kept

    def test_zero_tensor(self):
        x = np.zeros((5, 4, 3))
        model, _ = tucker.initial_model(x, (2, 2, 2), 0.1, 0)
        assert not np.any(model.core)
        for a in model.factors:
            np.testing.assert_allclose(a.T @ a, np.eye(2), atol=1e-12)


# Known failing fast starts from the previous random-orthonormal start: the
# benchmark's tucker-cube instance (--seed) and the call's config.seed.  From
# them the fast route ended 5.18, 3.13 and 3.57 times the best exact rre of
# the benchmark run, and from the last one exact ALS stalled at rre 9.4e-3.
CLIFF_STARTS = [(1463759648, 403133303), (804, 291095248), (11, 592467769)]


@pytest.mark.parametrize("instance_seed,call_seed", CLIFF_STARTS)
def test_fast_tucker_cliff_starts(tmp_path, instance_seed, call_seed):
    workloads = load_perfbench("workloads")
    work = workloads.TuckerWorkload("tucker-cube")
    work.setup(ks, instance_seed, tmp_path)
    work.reseed(call_seed)
    fast = work.error(work.fast(ks))
    exact = work.error(work.exact(ks))
    assert fast <= 1.1 * exact, (fast, exact)
    # the noise (relative scale TUCKER_NOISE) sets the floor of the rre
    assert exact <= 1.05 * workloads.TUCKER_NOISE**2, exact


class TestTuckerAls:
    def test_full_rank_interpolation(self, rng):
        x = rng.standard_normal((4, 3, 5))
        _, report = tucker_als(x, (4, 3, 5), lam=0.0, sweeps=1,
                               solver_mode="exact",
                               config=RegressionConfig(seed=0))
        assert report.rre <= 1e-8

    def test_rank_one_ground_truth(self, rng):
        u, v, w = (rng.standard_normal(6), rng.standard_normal(5),
                   rng.standard_normal(4))
        x = np.einsum("i,j,k->ijk", u, v, w)
        _, report = tucker_als(x, (1, 1, 1), lam=0.0, sweeps=5,
                               solver_mode="exact",
                               config=RegressionConfig(seed=3))
        assert report.rre <= 1e-6

    def test_exact_mode_monotone(self, rng):
        x = rng.standard_normal((8, 8, 8))
        _, report = tucker_als(x, (3, 3, 3), lam=1e-2, sweeps=3,
                               solver_mode="exact",
                               config=RegressionConfig(seed=1))
        losses = report.step_losses
        for a, b in zip(losses, losses[1:]):
            assert b <= a * (1 + 1e-10) + 1e-10

    def test_fast_mode_practical_reaches_exact_quality(self):
        from kronsolve.experiments import generate_synth_tucker
        x = generate_synth_tucker((20, 20, 20), (4, 4, 4), 0.01, seed=0)
        _, exact = tucker_als(x, (4, 4, 4), lam=0.0, sweeps=5,
                              solver_mode="exact",
                              config=RegressionConfig(seed=0))
        _, fast = tucker_als(x, (4, 4, 4), lam=0.0, sweeps=5,
                             solver_mode="fast",
                             config=RegressionConfig(eps=0.25, delta=0.05,
                                                     seed=0, alpha=7e-5))
        # with ~300 of 400 rows per factor update, recovery still lands at
        # the noise floor
        assert fast.rre <= 2.0 * exact.rre
        assert fast.rre <= 3e-4

    @pytest.mark.parametrize("mode", ["exact", "fast"])
    @pytest.mark.parametrize("shape,rank,config", [
        ((5, 4, 3), (2, 2, 2), None), ((12, 12, 12), (3, 3, 3), LOSS_CFG)])
    def test_zero_tensor_gives_the_zero_model(self, mode, shape, rank, config):
        model, report = tucker_als(np.zeros(shape), rank, lam=0.1, sweeps=1,
                                   solver_mode=mode, config=config)
        assert report.rre == 0.0
        assert not np.any(reconstruct(model))
        assert not np.any(model.core)

    def test_validation(self, rng, count_calls):
        x = rng.standard_normal((4, 4))
        with pytest.raises(InvalidInputError):
            tucker_als(x, (5, 2), sweeps=1)
        with pytest.raises(InvalidInputError):
            tucker_als(x, (2, 2), sweeps=0)
        with pytest.raises(InvalidInputError):
            tucker_als(x, (2, 2), solver_mode="bogus")
        # a sweep count or a core rank that is not an integer
        for sweeps in (2.5, "2"):
            with pytest.raises(InvalidInputError, match="sweeps"):
                tucker_als(x, (2, 2), sweeps=sweeps)
        for core_shape in ((2.7, 2), ("2", 2)):
            with pytest.raises(InvalidInputError, match="core shape"):
                tucker_als(x, core_shape, sweeps=1)
        # bools are not counts, and a core shape is a sequence
        with pytest.raises(InvalidInputError, match="sweeps"):
            tucker_als(x, (2, 2), sweeps=True)
        for core_shape in (2, np.int64(2), np.array(2), (True, 2), (2, np.True_)):
            with pytest.raises(InvalidInputError, match="core shape"):
                tucker_als(x, core_shape, sweeps=1)
        # numpy integers are integers, and a 1-d array is a sequence
        model, _ = tucker_als(x, (np.int64(2), 2), sweeps=np.int64(1))
        assert model.core_shape == (2, 2)
        model, _ = tucker_als(x, np.array([2, 1]), sweeps=1)
        assert model.core_shape == (2, 1)
        # a fast call checks eps before the start
        starts = count_calls(tucker, "initial_model")
        with pytest.raises(InvalidInputError, match="eps"):
            tucker_als(x, (2, 2), solver_mode="fast", config=RegressionConfig(eps=0.35))
        assert not starts

    def test_exact_mode_decomposes_each_factor_once(self, rng, compact_svd_calls):
        x = rng.standard_normal((6, 5, 4))
        tucker_als(x, (2, 2, 2), lam=1e-2, sweeps=2, solver_mode="exact")
        # one cache per factor update, none at the orthonormal start; the
        # exact core updates read them
        assert len(compact_svd_calls) == 3 * 2

    def test_fast_report_records_two_steps_per_sweep(self):
        x = generate_synth_tucker((12, 12, 12), (3, 3, 3), 0.01, seed=4)
        model, report = tucker_als(x, (3, 3, 3), lam=1e-3, sweeps=2,
                                   solver_mode="fast", config=LOSS_CFG)
        assert report.step_labels == ["init-core", "sweep0-factors", "sweep0-core",
                                      "sweep1-factors", "sweep1-core"]
        # a one-sweep run ends at the core the second sweep starts from; the
        # factors record holds the new factors with that core
        first, _ = tucker_als(x, (3, 3, 3), lam=1e-3, sweeps=1,
                              solver_mode="fast", config=LOSS_CFG)
        old_core = TuckerModel(core=first.core, factors=model.factors, lam=1e-3)
        x_norm_sq = float(np.sum(x**2))
        want = [dense_fit(m, x, x_norm_sq)[1] for m in (old_core, model)]
        np.testing.assert_allclose(report.step_losses[-2:], want, rtol=1e-10, atol=0)
        assert report.sweep_losses == report.step_losses[2::2]

    def test_ridge_weight_is_lam_not_config_lam(self, count_calls):
        # tucker_als's lam alone sets the ridge weight: fast runs whose
        # factor steps sketch, at config.lam 0 and 5, end at one model
        x = generate_synth_tucker((12, 12, 12), (3, 3, 3), 0.01, seed=4)
        solves = count_calls(tucker, "sketched_ridge_solve")
        runs = [tucker_als(x, (3, 3, 3), lam=1e-3, sweeps=2, solver_mode="fast",
                           config=replace(LOSS_CFG, lam=config_lam))
                for config_lam in (0.0, 5.0)]
        assert len(solves) == 2 * 2 * 3
        (first, first_report), (second, second_report) = runs
        assert first.lam == second.lam == 1e-3
        np.testing.assert_array_equal(first.core, second.core)
        for a, b in zip(first.factors, second.factors):
            np.testing.assert_array_equal(a, b)
        assert first_report.step_losses == second_report.step_losses

    def test_report_structure(self, rng):
        x = rng.standard_normal((5, 4, 3))
        _, report = tucker_als(x, (2, 2, 2), lam=0.1, sweeps=2,
                               solver_mode="exact",
                               config=RegressionConfig(seed=0))
        assert isinstance(report, AlsReport)
        assert len(report.sweep_losses) == 2
        assert len(report.sweep_rres) == 2
        # init core + 2 sweeps x (3 factors + core)
        assert len(report.step_losses) == 1 + 2 * 4
        assert report.rre == report.sweep_rres[-1]

    @pytest.mark.parametrize("mode,shape,alpha,steps", [
        pytest.param("exact", (6, 5, 4), 5e-5, ["factor0", "factor1", "factor2", "core"],
                     id="exact"),
        # every fast step's sketch would cover its rows, so each runs exact
        pytest.param("fast", (6, 5, 4), 5e-5, ["factor0", "factor1", "factor2", "core"],
                     id="fast"),
        pytest.param("fast", (12, 12, 12), 5e-5, ["factors", "core"], id="fast-sketched"),
        # counts [None, 189, 189]: an exact step, then two sketched ones
        pytest.param("fast", (100, 10, 10), 1e-4, ["factor0", "factors", "core"],
                     id="fast-mixed")])
    def test_sweep_seconds_sum_step_times(self, mode, shape, alpha, steps):
        # a record follows each exact factor step, and one follows a sweep's
        # sketched steps when its last step was sketched; a sweep's seconds
        # are its records' seconds
        x = generate_synth_tucker(shape, (3, 3, 3), 0.01, seed=4)
        cfg = replace(LOSS_CFG, alpha=alpha)
        _, report = tucker_als(x, (3, 3, 3), lam=0.1, sweeps=3,
                               solver_mode=mode, config=cfg)
        assert report.step_labels == ["init-core"] + [
            f"sweep{k}-{step}" for k in range(3) for step in steps]
        for k, seconds in enumerate(report.sweep_seconds):
            first = 1 + k * len(steps)  # step 0 is the initial core solve
            assert seconds == sum(report.step_seconds[first:first + len(steps)])


def dense_fit(model, x, x_norm_sq):
    """The dense reconstruction formula that ``tucker._fit`` replaces."""
    err = float(np.sum((reconstruct(model) - x) ** 2))
    reg = float(np.sum(model.core**2)) + sum(float(np.sum(a**2)) for a in model.factors)
    return err, err + model.lam * reg


class TestLossRecording:
    @pytest.mark.parametrize("mode", ["exact", "fast"])
    def test_recorder_feeds_nothing_back(self, monkeypatch, mode):
        x = generate_synth_tucker((12, 12, 12), (3, 3, 3), 0.01, seed=4)
        model, report = tucker_als(x, (3, 3, 3), lam=1e-3, sweeps=2,
                                   solver_mode=mode, config=LOSS_CFG)
        # every record, the start's included, computed densely from x instead
        monkeypatch.setattr(tucker, "_fit_projected",
                            lambda model, y, x_norm_sq, coords:
                            dense_fit(model, x, x_norm_sq))
        dense_model, dense_report = tucker_als(x, (3, 3, 3), lam=1e-3, sweeps=2,
                                               solver_mode=mode, config=LOSS_CFG)
        np.testing.assert_array_equal(model.core, dense_model.core)
        for a, b in zip(model.factors, dense_model.factors):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(report.step_losses, dense_report.step_losses,
                                   rtol=1e-10, atol=0)
        np.testing.assert_allclose(report.step_errors, dense_report.step_errors,
                                   rtol=1e-10, atol=0)

    @pytest.mark.parametrize("shape,seed", [((20, 20, 20), 0), ((20, 20, 20), 2),
                                            ((30, 30, 30), 1), ((40, 30, 20), 0),
                                            ((40, 30, 20), 3)])
    def test_identity_accuracy_at_the_noise_floor(self, shape, seed):
        # exact ridge ALS leaves factors and core at unequal scales, and the
        # error is about 1e-4 of ||X||^2, so four digits cancel; the documented
        # accuracy is about ulp * ||X||^2 (expanding A^T A reached 26 ulp here)
        x = generate_synth_tucker(shape, (4, 4, 4), 0.01, seed=seed)
        model, _ = tucker_als(x, (4, 4, 4), lam=1e-3, sweeps=3,
                              config=RegressionConfig(seed=seed + 10))
        x_norm_sq = float(np.sum(x**2))
        err, loss = tucker._fit(model, x, x_norm_sq)
        want_err, want_loss = dense_fit(model, x, x_norm_sq)
        ulp = np.finfo(float).eps * x_norm_sq
        assert abs(err - want_err) <= 10 * ulp
        assert abs(loss - want_loss) <= 10 * ulp
        assert err == pytest.approx(want_err, rel=1e-10, abs=0)

    def test_error_clamped_at_zero(self, rng):
        for _ in range(20):
            model = random_model(rng, (6, 5, 4), (2, 3, 2))
            xhat = reconstruct(model)
            assert tucker._fit(model, xhat, float(np.sum(xhat**2)))[0] >= 0.0
            assert relative_error(model, reconstruct(model)) >= 0.0

    @pytest.mark.parametrize("zeroed", [[(0, 1)], [(0, 0), (2, 1)], [(1, None)]])
    def test_rank_deficient_factors(self, rng, zeroed):
        # a zero column leaves a factor's SVD basis one direction short and a
        # zero factor leaves it empty; the record still matches the dense one
        model = random_model(rng, (7, 6, 5), (2, 3, 2), lam=0.1)
        for n, col in zeroed:
            if col is None:
                model.factors[n][:] = 0.0
            else:
                model.factors[n][:, col] = 0.0
        x = reconstruct(model) + 1e-2 * rng.standard_normal(model.shape)
        x_norm_sq = float(np.sum(x**2))
        assert [svd.rank for svd in svd_bases(model)] != [2, 3, 2]
        err, loss = tucker._fit(model, x, x_norm_sq)
        want_err, want_loss = dense_fit(model, x, x_norm_sq)
        assert err == pytest.approx(want_err, rel=1e-10, abs=0)
        assert loss == pytest.approx(want_loss, rel=1e-10, abs=0)
        assert relative_error(model, x) == pytest.approx(want_err / x_norm_sq,
                                                         rel=1e-10, abs=0)
        assert regularized_loss(model, x) == pytest.approx(want_loss, rel=1e-10, abs=0)

    @pytest.mark.parametrize("mode", ["exact", "fast"])
    def test_one_decomposition_per_factor_update(self, count_calls, mode):
        # the loss record reads the bases the block updates read, and ALS
        # decomposes a factor only after updating it
        x = generate_synth_tucker((12, 12, 12), (3, 3, 3), 0.01, seed=4)
        qrs = count_calls(np.linalg, "qr")
        caches = count_calls(tucker, "build_factor_cache")
        svds = count_calls(tucker, "compact_svd")
        tucker_als(x, (3, 3, 3), lam=1e-3, sweeps=2, solver_mode=mode,
                   config=LOSS_CFG)
        assert len(qrs) == 0
        assert len(caches) == 2 * 3
        assert len(factor_shaped(svds, x.shape, (3, 3, 3))) == 0

    @pytest.mark.parametrize("mode", ["exact", "fast"])
    def test_factor_cached_only_after_its_update(self, monkeypatch, mode):
        # every build_factor_cache call decomposes the factor the update just
        # before it returned; the start's factors are never decomposed
        x = generate_synth_tucker((12, 12, 12), (3, 3, 3), 0.01, seed=4)
        events = []
        update = "_ridge_factor" if mode == "exact" else "_sketched_factor_update"
        original_update, original_cache = getattr(tucker, update), tucker.build_factor_cache

        def logged_update(*args, **kwargs):
            events.append(("update", original_update(*args, **kwargs)))
            return events[-1][1]

        def logged_cache(a):
            events.append(("cache", a))
            return original_cache(a)

        monkeypatch.setattr(tucker, update, logged_update)
        monkeypatch.setattr(tucker, "build_factor_cache", logged_cache)
        tucker_als(x, (3, 3, 3), lam=1e-3, sweeps=2, solver_mode=mode,
                   config=LOSS_CFG)
        assert [kind for kind, _ in events] == ["update", "cache"] * (2 * 3)
        assert all(events[k][1] is events[k + 1][1] for k in range(0, len(events), 2))

    def test_step_seconds_exclude_the_loss_record(self, monkeypatch, rng):
        # a slow loss record must not show in the block-update times
        fit = tucker._fit_projected
        records = []

        def slow_fit(*args):
            records.append(args)
            time.sleep(0.1)
            return fit(*args)

        monkeypatch.setattr(tucker, "_fit_projected", slow_fit)
        x = rng.standard_normal((6, 5, 4))
        _, report = tucker_als(x, (2, 2, 2), lam=0.1, sweeps=1, solver_mode="exact")
        assert len(records) == len(report.step_seconds) == 1 + 4
        assert max(report.step_seconds) < 0.1

    @pytest.mark.parametrize("mode,shape,alpha,modes", [
        pytest.param("exact", (12, 12, 12), LOSS_CFG.alpha, [0, 1, 2], id="exact"),
        pytest.param("fast", (12, 12, 12), LOSS_CFG.alpha, [None], id="fast"),
        # every step's sketch would cover its rows, so each runs exact
        pytest.param("fast", (12, 12, 12), 1.0, [0, 1, 2], id="fast-alpha1"),
        # counts [None, 189, 189]: an exact step, then two sketched ones
        pytest.param("fast", (100, 10, 10), 1e-4, [0, None], id="fast-mixed")])
    def test_one_projection_of_the_tensor_per_factor_step(self, count_calls, mode, shape,
                                                          alpha, modes):
        # each exact factor step reads the tensor once, and a sweep whose
        # last step was sketched reads it once more, in one call that
        # contracts every mode; the records and the core steps read
        # projections of it, and no exact step hands it to the Kronecker
        # multiply
        x = generate_synth_tucker(shape, (3, 3, 3), 0.01, seed=4)
        projections = count_calls(tucker, "_mode_products")
        multiplies = [count_calls(module, "kron_mat_mul") for module in (solvers, tucker)]
        _, report = tucker_als(x, (3, 3, 3), lam=1e-3, sweeps=2, solver_mode=mode,
                               config=replace(LOSS_CFG, alpha=alpha))
        reads = [mats for t, mats in projections if np.size(t) == x.size]
        # exact step n contracts every mode but n; the read after sketched
        # steps contracts every mode
        assert [[m is None for m in mats] for mats in reads] == [
            [k == n for k in range(3)] for _ in range(2) for n in modes]
        assert all(np.size(args[1]) < x.size for calls in multiplies for args in calls)
        # one record per read, and one for the core
        steps = ["factors" if n is None else f"factor{n}" for n in modes] + ["core"]
        assert report.step_labels == ["init-core"] + [
            f"sweep{k}-{step}" for k in range(2) for step in steps]

    def test_shape_mismatch_rejected(self, rng):
        model = random_model(rng, (6, 5, 4), (2, 2, 2))
        with pytest.raises(InvalidInputError):
            relative_error(model, rng.standard_normal((6, 5, 1)))
        with pytest.raises(InvalidInputError):
            regularized_loss(model, rng.standard_normal((5, 4)))

    @pytest.mark.parametrize("mode", ["exact", "fast"])
    def test_no_dense_reconstruction_inside_als(self, count_calls, mode):
        x = generate_synth_tucker((12, 12, 12), (3, 3, 3), 0.01, seed=4)
        reconstructs = count_calls(tucker, "reconstruct")
        ridge_losses = count_calls(solvers, "ridge_loss")
        grams = [count_calls(solvers, "factor_gram"), count_calls(tucker, "factor_gram")]
        tucker_als(x, (3, 3, 3), lam=1e-3, sweeps=2, solver_mode=mode,
                   config=LOSS_CFG)
        assert len(reconstructs) == 0
        # no core update evaluates a loss or reads a Gram, sketched or exact
        assert len(ridge_losses) == 0
        assert sum(len(g) for g in grams) == 0


class TestValidateOnce:
    @pytest.mark.parametrize("mode", ["exact", "fast"])
    def test_als_never_scans_a_finite_tensor(self, monkeypatch, count_calls, rng, mode):
        # at alpha 1e-6 every fast factor step sketches, and a sketched step
        # checks only the fibres it draws; tucker_als reads its entry check
        # off ||X||^2, so a finite tensor is never scanned in either mode
        x = rng.standard_normal((7, 6, 5))
        scans = []
        original = tensor.as_tensor

        def counting(t, *args, **kwargs):
            if np.size(t) == x.size:
                scans.append(1)
            return original(t, *args, **kwargs)

        monkeypatch.setattr(tucker, "as_tensor", counting)
        monkeypatch.setattr(tensor, "as_tensor", counting)
        exact_steps = count_calls(tucker, "_exact_factor_update")
        tucker_als(x, (2, 2, 2), lam=1e-2, sweeps=2, solver_mode=mode,
                   config=replace(LOSS_CFG, alpha=1e-6))
        assert not scans
        # exact ALS runs every factor step on the exact kernel, fast ALS none
        assert len(exact_steps) == (2 * 3 if mode == "exact" else 0)

    @pytest.mark.parametrize("mode", ["exact", "fast"])
    def test_nan_tensor_rejected(self, rng, mode):
        for bad in (np.nan, np.inf):
            x = rng.standard_normal((6, 5, 4))
            x[2, 1, 3] = bad
            with pytest.raises(InvalidInputError):
                tucker_als(x, (2, 2, 2), sweeps=1, solver_mode=mode, config=LOSS_CFG)

    # every public entry that reads X; at alpha 1e-6 every fast factor step
    # sketches, at alpha 1 every one falls back to the exact update
    ENTRIES = ["tucker_als-exact-1e-06", "tucker_als-exact-1", "tucker_als-fast-1e-06",
               "tucker_als-fast-1", "fast_factor_matrix_update-1e-06",
               "fast_factor_matrix_update-1", "naive_factor_update", "core_update",
               "relative_error", "regularized_loss"]

    @staticmethod
    def call(entry, model, x):
        name, _, option = entry.partition("-")
        if name == "tucker_als":
            mode, alpha = option.split("-", 1)
            return tucker_als(x, model.core_shape, lam=1e-2, sweeps=2, solver_mode=mode,
                              config=replace(LOSS_CFG, alpha=float(alpha)))
        if name == "fast_factor_matrix_update":
            return fast_factor_matrix_update(model, x, 1,
                                             replace(LOSS_CFG, alpha=float(option)))
        if name == "naive_factor_update":
            return naive_factor_update(model, x, 1)
        return getattr(tucker, name)(model, x)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_no_entry_scans_the_tensor(self, count_calls, rng, entry):
        # each entry checks X through what it computes from it (||X||^2, a
        # projection or its drawn fibres), never by an X-sized scan
        model = random_model(rng, (7, 6, 5), (2, 2, 2), lam=0.1)
        x = rng.standard_normal((7, 6, 5))
        scans = [count_calls(module, "as_tensor") for module in (tucker, tensor)]
        scans.append(count_calls(np, "isfinite"))
        fallbacks = count_calls(tucker, "_exact_factor_update")
        self.call(entry, model, x)
        assert not [args for c in scans for args in c if np.size(args[0]) == x.size]
        # the fast steps took the route the entry names
        if entry.startswith(("fast_factor", "tucker_als-fast")):
            steps = 1 if entry.startswith("fast_factor") else 6
            assert len(fallbacks) == (steps if entry.endswith("-1") else 0)

    @pytest.mark.parametrize("entry", ["tucker_als-exact-1e-06", "tucker_als-fast-1e-06",
                                       "relative_error", "regularized_loss"])
    def test_tensor_whose_norm_overflows_is_rejected(self, rng, entry):
        # every entry is finite but ||X||^2 overflows; the start used to meet
        # it as a bare LinAlgError from numpy's eigensolver
        model = random_model(rng, (6, 5, 4), (2, 2, 2), lam=0.1)
        x = 1e160 * rng.standard_normal((6, 5, 4))
        assert np.all(np.isfinite(x)) and np.vdot(x, x) == np.inf
        with pytest.raises(InvalidInputError, match="not finite"):
            self.call(entry, model, x)

    def test_nan_tensor_rejected_by_each_step(self, count_calls, rng):
        model = random_model(rng, (6, 5, 4), (2, 2, 2), lam=0.1)
        finite = rng.standard_normal((6, 5, 4))
        # LOSS_CFG draws at least the 24 leftover rows, so it takes the
        # exact route, which checks its projection of x
        fallbacks = count_calls(tucker, "_exact_factor_update")
        fast_factor_matrix_update(model, finite, 1, LOSS_CFG)
        assert len(fallbacks) == 1
        for bad in (np.nan, np.inf, -np.inf):
            x = finite.copy()
            x[0, 0, 0] = bad
            for step in (core_update, lambda m, x: naive_factor_update(m, x, 1),
                         lambda m, x: fast_factor_matrix_update(m, x, 1, LOSS_CFG),
                         relative_error, regularized_loss):
                with pytest.raises(InvalidInputError):
                    step(model, x)

    def test_sketched_step_checks_the_fibres_it_draws(self, count_calls, rng):
        # alpha 1e-6 draws one row and takes the sketched route, which reads
        # x only at the drawn mode-1 fibres x[i, :, k]
        model = random_model(rng, (6, 5, 4), (2, 2, 2), lam=0.1)
        finite = rng.standard_normal((6, 5, 4))
        config = replace(LOSS_CFG, alpha=1e-6)
        draws = count_calls(solvers, "sample_rows")
        want = fast_factor_matrix_update(model, finite, 1, config)
        (sampler, s, seed), = draws
        drawn = {tuple(ij) for ij in sample_rows(sampler, s, seed).indices}
        undrawn = next(ij for ij in itertools.product(range(6), range(4))
                       if ij not in drawn)
        x = finite.copy()
        i, k = next(iter(drawn))
        x[i, 3, k] = np.nan
        with pytest.raises(InvalidInputError):
            fast_factor_matrix_update(model, x, 1, config)
        x = finite.copy()
        i, k = undrawn
        x[i, 3, k] = np.inf
        np.testing.assert_array_equal(fast_factor_matrix_update(model, x, 1, config), want)
        with pytest.raises(InvalidInputError):
            fast_factor_matrix_update(model, finite[:, :, :3], 1, config)

    @pytest.mark.parametrize("alpha", [LOSS_CFG.alpha, 1.0])
    def test_fast_als_works_out_each_sample_count_once(self, count_calls, monkeypatch,
                                                       alpha):
        # a mode's sample count depends on the shapes and the config alone,
        # so a 2-sweep order-3 call computes one per mode, and its steps take
        # their seeds without building a config, on either route
        x = generate_synth_tucker((12, 12, 12), (3, 3, 3), 0.01, seed=4)
        config = replace(LOSS_CFG, alpha=alpha)
        counts = count_calls(tucker, "regression_sample_count")
        draws = count_calls(solvers, "sample_rows")
        built = []
        check = RegressionConfig.__post_init__
        monkeypatch.setattr(RegressionConfig, "__post_init__",
                            lambda self: built.append(self) or check(self))
        tucker_als(x, (3, 3, 3), lam=1e-3, sweeps=2, solver_mode="fast", config=config)
        assert len(counts) == 3 and not built
        assert len(draws) == (2 * 3 if alpha < 1.0 else 0)
