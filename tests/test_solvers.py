import dataclasses
import math
import pickle
import re
import tempfile
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kronsolve
import kronsolve.experiments as experiments
import kronsolve.kron as kron
import kronsolve.solvers as solvers
import kronsolve.tensor as tensor
import kronsolve.tucker as tucker
from kronsolve.errors import InvalidInputError, NumericalFailureError, SizeGuardError
from kronsolve.kron import kron_mat_mul
from kronsolve.leverage import (
    RowSketch,
    build_product_sampler,
    sample_rows,
    statistical_leverage_scores,
)
from kronsolve.solvers import (
    RegressionConfig,
    build_kron_preconditioner,
    factor_gram,
    fast_kronecker_regression,
    kronmatmul_svd_solve,
    naive_normal_solve,
    pcg_solve,
    ridge_loss,
    sketch_and_solve_ridge,
)
from kronsolve.tensor import compact_svd
from conftest import dense_kron, sketched_rows


def lstsq_solution(a, b):
    return np.linalg.lstsq(a, b, rcond=None)[0]


def svd_preconditioner(factors, lam):
    """The preconditioner the fast solver builds: eigenpairs from each SVD."""
    svds = [compact_svd(a) for a in factors]
    return build_kron_preconditioner([s.v for s in svds],
                                     [s.sigma**2 for s in svds], lam)


def energy_norm_preconditioner(ata, kappa, rng):
    """``M`` with ``M ata`` of condition number exactly ``kappa``:
    ``ata^{-1/2} H ata^{-1/2}`` for an ``H`` with eigenvalues spread over
    ``[1, kappa]`` in a random basis."""
    w, q = np.linalg.eigh(ata)
    inv_root = (q / np.sqrt(w)) @ q.T
    basis, _ = np.linalg.qr(rng.standard_normal(ata.shape))
    h = (basis * np.linspace(1.0, kappa, ata.shape[0])) @ basis.T
    return inv_root @ h @ inv_root


def recording(m):
    """``v -> m @ v`` and the list of copies of its arguments: as PCG's
    preconditioner, the k-th is the residual ``r_k`` of iterate ``k``."""
    args = []

    def apply(v):
        args.append(v.copy())
        return m @ v

    return apply, args


class TestPcg:
    def test_exact_preconditioner_converges_in_one_step(self, rng):
        a = rng.standard_normal((8, 3))
        b = rng.standard_normal(8)
        ata = a.T @ a
        inv = np.linalg.inv(ata)
        x, iters, _ = pcg_solve(lambda v: ata @ v, lambda v: inv @ v, a.T @ b,
                                RegressionConfig(eps=0.25), float(b @ b))
        assert iters == 1
        np.testing.assert_allclose(x, lstsq_solution(a, b), atol=1e-10)

    @pytest.mark.parametrize("kappa", [2.0, 4.0])
    def test_energy_error_bound(self, rng, kappa):
        # ||x_k - x*||_A <= 2 ((sqrt(kappa) - 1) / (sqrt(kappa) + 1))^k ||x*||_A
        # for kappa the condition number of M A; iterate k's error is
        # A^{-1} r_k, and r_k is the argument of the k-th preconditioner apply
        a = rng.standard_normal((40, 10))
        b = rng.standard_normal(40)
        ata = a.T @ a
        ata_inv = np.linalg.inv(ata)
        apply_precond, residuals = recording(energy_norm_preconditioner(ata, kappa, rng))
        rhs = a.T @ b
        x, iters, _ = pcg_solve(lambda v: ata @ v, apply_precond, rhs,
                                RegressionConfig(eps=0.01), float(b @ b))
        assert iters >= 3
        rate = (math.sqrt(kappa) - 1) / (math.sqrt(kappa) + 1)
        e0 = math.sqrt(rhs @ ata_inv @ rhs)
        xstar = ata_inv @ rhs
        errors = [math.sqrt(r @ ata_inv @ r) for r in residuals]
        errors.append(math.sqrt((x - xstar) @ ata @ (x - xstar)))
        steps = [*range(len(residuals)), iters]
        for k, err in zip(steps, errors):
            assert err <= 2 * rate**k * e0 * (1 + 1e-10) + 1e-12 * e0, (k, err)

    def test_stops_on_the_loss_rule(self, rng):
        # the stop is the first step that lowers the loss ||a x - b||^2 by at
        # most eps^2 / 10 of the loss left after it; iterate k's residual
        # r_k is the argument of the k-th preconditioner apply, and
        # x_k = A^{-1} (rhs - r_k).  Most of b lies in a's range, so the
        # loss left is far below ||b||^2, and the stop comes well before
        # CG's 40 steps to the exact solution
        a = rng.standard_normal((200, 40))
        b = a @ rng.standard_normal(40) + 0.1 * rng.standard_normal(200)
        ata = a.T @ a
        apply_precond, residuals = recording(energy_norm_preconditioner(ata, 20.0, rng))
        rhs = a.T @ b
        eps = 0.1
        x, iters, _ = pcg_solve(lambda v: ata @ v, apply_precond, rhs,
                                RegressionConfig(eps=eps), float(b @ b))
        iterates = [np.linalg.solve(ata, rhs - r) for r in residuals[:iters]] + [x]
        losses = [float((a @ v - b) @ (a @ v - b)) for v in iterates]
        stops = [losses[k - 1] - losses[k] <= eps**2 / 10 * losses[k]
                 for k in range(1, len(losses))]
        assert iters > 2 and stops == [False] * (iters - 1) + [True]

    def test_one_normal_apply_per_iteration(self, rng):
        a = rng.standard_normal((30, 6))
        b = rng.standard_normal(30)
        ata = a.T @ a
        apply_normal, normals = recording(ata)
        apply_precond, preconds = recording(energy_norm_preconditioner(ata, 8.0, rng))
        x, iters, _ = pcg_solve(apply_normal, apply_precond, a.T @ b,
                                RegressionConfig(eps=0.01), float(b @ b))
        assert iters > 1
        assert len(normals) == iters
        # one apply per step, plus the start's; the last step's gives the
        # final residual
        assert len(preconds) == iters + 1

    @pytest.mark.parametrize("b_in_range", [False, True])
    def test_returns_the_final_relative_residual(self, rng, b_in_range):
        # sqrt(r^T M r / r_0^T M r_0) at the iterate returned: recomputed
        # where the loss rule stopped the iteration, and at most
        # RESIDUAL_TOL where the floor did (b in a's range)
        a = rng.standard_normal((60, 12))
        b = a @ rng.standard_normal(12)
        if not b_in_range:
            b += rng.standard_normal(60)
        ata = a.T @ a
        m = energy_norm_preconditioner(ata, 4.0, rng)
        rhs = a.T @ b
        x, iters, residual = pcg_solve(lambda v: ata @ v, lambda v: m @ v, rhs,
                                       RegressionConfig(eps=0.1), float(b @ b))
        assert iters > 0 and 0.0 < residual < 1.0
        if b_in_range:
            assert residual <= solvers.RESIDUAL_TOL
        else:
            r = rhs - ata @ x
            want = math.sqrt((r @ m @ r) / (rhs @ m @ rhs))
            assert residual == pytest.approx(want, rel=1e-9)

    def test_consistent_system_runs_to_the_floor(self, rng):
        # b in a's range leaves no loss to stop on, so PCG runs until r^T z
        # falls to RESIDUAL_TOL^2 of its start
        a = rng.standard_normal((200, 40))
        x_true = rng.standard_normal(40)
        b = a @ x_true
        ata = a.T @ a
        m = energy_norm_preconditioner(ata, 2.0, rng)
        cfg = RegressionConfig(eps=0.1)
        x, iters, _ = pcg_solve(lambda v: ata @ v, lambda v: m @ v, a.T @ b, cfg,
                                float(b @ b))
        assert iters < cfg.effective_max_iters
        assert np.linalg.norm(x - x_true) <= 1e-8 * np.linalg.norm(x_true)

    def test_stops_at_the_cap(self):
        # a consistent system (b_norm_sq is the loss at zero, so the optimum
        # is 0) whose 100 eigendirections, spread over six decades with no
        # preconditioning, each hold 1 of the loss: every step still lowers
        # the loss left by more than eps^2 / 10, and the floor is far off
        d = np.logspace(0, 6, 100)
        rhs = np.sqrt(d)
        cfg = RegressionConfig(eps=0.25)
        x, iters, _ = pcg_solve(lambda v: d * v, lambda v: v, rhs, cfg,
                                float(rhs @ (rhs / d)))
        assert iters == cfg.effective_max_iters

    def test_zero_rhs_gives_zeros(self):
        apply_normal, calls = recording(np.eye(4))
        x, iters, residual = pcg_solve(apply_normal, lambda v: v, np.zeros(4),
                                       RegressionConfig(eps=0.25), 1.0)
        assert iters == 0 and not calls and residual == 0.0
        np.testing.assert_array_equal(x, np.zeros(4))

    def test_negated_preconditioner_raises(self, rng):
        a = rng.standard_normal((6, 3))
        ata = a.T @ a
        # a stop that only compared r^T z with its tolerance would return the
        # zero start here
        bad = -np.linalg.inv(ata)
        with pytest.raises(NumericalFailureError) as err:
            pcg_solve(lambda v: ata @ v, lambda v: bad @ v,
                      rng.standard_normal(3), RegressionConfig(eps=0.25), 1.0)
        assert err.value.iterations == 0
        assert err.value.diagnostics["rz"] < 0

    def test_indefinite_operator_raises(self, rng):
        with pytest.raises(NumericalFailureError) as err:
            pcg_solve(lambda v: -v, lambda v: v, rng.standard_normal(3),
                      RegressionConfig(eps=0.25), 1.0)
        assert err.value.diagnostics["pq"] < 0

    @pytest.mark.parametrize("eps,lam", [(0.25, 1e-3), (0.1, 0.0), (0.05, 1e-2)])
    def test_sketched_loss_near_the_direct_solve(self, rng, eps, lam):
        # the fast route's operator, preconditioner and ||S b||^2 on a small
        # order-2 sketch: PCG's sketched loss is within (1 + eps^2) of the
        # direct solve's on the same sketch
        facs = [rng.normal(1.0, 0.1, (30, 3)), rng.normal(1.0, 0.1, (25, 4))]
        b = rng.standard_normal((30, 25))
        scores = [statistical_leverage_scores(a) for a in facs]
        sketch = sample_rows(build_product_sampler(scores), 150, 0)
        sdiag = kron.sparse_diagonal_from_sketch(sketch, b.shape)
        op = kron.SketchedKron(facs, sdiag)
        sb = sdiag.values * b[tuple(sdiag.indices.T)]
        x, iters, _ = pcg_solve(lambda v: op.normal(v) + lam * v,
                                svd_preconditioner(facs, lam).apply,
                                op.transpose_apply(sb), RegressionConfig(eps=eps),
                                float(sb @ sb))
        direct = solvers.sketched_ridge_solve(
            facs, *solvers._drawn_rows(sketch, b.shape, b), lam)
        # the oracle keeps every draw as its own row of explicit_kron
        design = sketched_rows(facs, sketch)
        target = sketch.weights * b[tuple(sketch.indices.T)]

        def sketched_loss(v):
            r = design @ v - target
            return float(r @ r) + lam * float(v @ v)

        assert 0 < iters < RegressionConfig(eps=eps).effective_max_iters
        assert sketched_loss(x) <= (1 + eps**2) * sketched_loss(direct)


class TestRidgeLoss:
    def test_zero_solution(self, rng):
        facs = [rng.standard_normal((4, 2)), rng.standard_normal((3, 2))]
        b = rng.standard_normal(12)
        assert ridge_loss(facs, np.zeros(4), b, 0.7) == pytest.approx(b @ b)

    def test_lambda_additivity(self, rng):
        facs = [rng.standard_normal((4, 2)), rng.standard_normal((3, 2))]
        b = rng.standard_normal(12)
        x = rng.standard_normal(4)
        lam = 0.31
        diff = ridge_loss(facs, x, b, lam) - ridge_loss(facs, x, b, 0.0)
        assert diff == pytest.approx(lam * x @ x)

    def test_dense_agreement(self, rng):
        facs = [rng.standard_normal((5, 2)), rng.standard_normal((4, 3))]
        k = dense_kron(facs)
        b = rng.standard_normal(20)
        x = rng.standard_normal(6)
        lam = 0.05
        want = np.sum((k @ x - b) ** 2) + lam * x @ x
        assert ridge_loss(facs, x, b, lam) == pytest.approx(want, rel=1e-10)

    def test_validates_each_factor_once(self, count_calls, rng):
        facs = [rng.standard_normal((5, 2)), rng.standard_normal((4, 3)),
                rng.standard_normal((3, 2))]
        checks = [count_calls(module, "as_matrix") for module in (kron, solvers, tensor)]
        ridge_loss(facs, rng.standard_normal(12), rng.standard_normal(60), 0.1)
        shapes = {a.shape for a in facs}
        assert sum(np.shape(args[0]) in shapes for calls in checks for args in calls) == 3

    def test_length_mismatch(self, rng):
        facs = [rng.standard_normal((4, 2)), rng.standard_normal((3, 2))]
        with pytest.raises(InvalidInputError):
            ridge_loss(facs, np.zeros(5), np.zeros(12), 0.1)
        with pytest.raises(InvalidInputError):
            ridge_loss(facs, np.zeros(4), np.zeros(1), 0.1)

    # (factor shapes, block entries): the first block bound of each order
    # leaves an uneven last block, the second one row of A1 per block
    STREAM_CASES = [
        ([(7, 3)], 2), ([(7, 3)], 1),
        ([(5, 2), (4, 3)], 8), ([(5, 2), (4, 3)], 3),
        ([(5, 2), (4, 3), (3, 2)], 24), ([(5, 2), (4, 3), (3, 2)], 5),
    ]

    @pytest.mark.parametrize("shapes, block", STREAM_CASES)
    def test_streamed_blocks_match_dense(self, monkeypatch, rng, shapes, block):
        monkeypatch.setattr(solvers, "_LOSS_BLOCK_ENTRIES", block)
        facs = [rng.standard_normal(shape) for shape in shapes]
        k = dense_kron(facs)
        x = rng.standard_normal(k.shape[1])
        b = rng.standard_normal(k.shape[0])
        want = np.sum((k @ x - b) ** 2) + 0.05 * x @ x
        assert ridge_loss(facs, x, b, 0.05) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_b_in_a_later_block(self, monkeypatch, rng, bad):
        monkeypatch.setattr(solvers, "_LOSS_BLOCK_ENTRIES", 8)
        facs = [rng.standard_normal((5, 2)), rng.standard_normal((4, 3))]
        b = rng.standard_normal(20)
        b[17] = bad  # the third block of two A1 rows
        assert not math.isfinite(ridge_loss(facs, rng.standard_normal(6), b, 0.1))

    @pytest.mark.parametrize("block", [24, 12])
    def test_no_block_holds_more_than_the_bound(self, monkeypatch, rng, block):
        monkeypatch.setattr(solvers, "_LOSS_BLOCK_ENTRIES", block)
        sizes = []
        kernel = solvers._mode_products

        def recording(x, mats):
            out = kernel(x, mats)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(solvers, "_mode_products", recording)
        facs = [rng.standard_normal((5, 2)), rng.standard_normal((4, 3)),
                rng.standard_normal((3, 2))]
        ridge_loss(facs, rng.standard_normal(12), rng.standard_normal(60), 0.1)
        assert len(sizes) > 1 and sum(sizes) == 60
        assert max(sizes) <= block


class TestExactSolvers:
    def test_identity_unregularized(self, rng):
        b = rng.standard_normal(6)
        rep = naive_normal_solve([np.eye(2), np.eye(3)], b, 0.0)
        np.testing.assert_allclose(rep.solution, b, atol=1e-10)

    def test_identity_shrinkage(self, rng):
        b = rng.standard_normal(6)
        lam = 0.4
        rep = kronmatmul_svd_solve([np.eye(2), np.eye(3)], b, lam)
        np.testing.assert_allclose(rep.solution, b / (1 + lam), atol=1e-10)

    def test_huge_lambda_shrinks_to_zero(self, rng):
        facs = [rng.standard_normal((6, 2)), rng.standard_normal((5, 2))]
        b = rng.standard_normal(30)
        rep = naive_normal_solve(facs, b, 1e12)
        ktb = np.linalg.norm(dense_kron(facs).T @ b)
        assert np.linalg.norm(rep.solution) <= 1e-9 * ktb

    def test_normal_equation_residual(self, rng):
        facs = [rng.standard_normal((7, 3)), rng.standard_normal((5, 2))]
        b = rng.standard_normal(35)
        lam = 0.02
        rep = naive_normal_solve(facs, b, lam)
        k = dense_kron(facs)
        grad = k.T @ (k @ rep.solution - b) + lam * rep.solution
        assert np.linalg.norm(grad) <= 1e-8 * max(1.0, np.linalg.norm(k.T @ b))

    @pytest.mark.parametrize("lam", [0.0, 1e-3, 1.0])
    def test_solver_agreement(self, rng, lam):
        facs = [rng.standard_normal((8, 3)), rng.standard_normal((6, 2))]
        b = rng.standard_normal(48)
        r1 = naive_normal_solve(facs, b, lam)
        r2 = kronmatmul_svd_solve(facs, b, lam)
        np.testing.assert_allclose(r1.solution, r2.solution, atol=1e-8)
        assert r1.loss == pytest.approx(r2.loss, rel=1e-8)
        assert r1.residual == r2.residual == 0.0

    def test_unregularized_residual_orthogonality(self, rng):
        facs = [rng.standard_normal((8, 3)), rng.standard_normal((6, 2))]
        b = rng.standard_normal(48)
        rep = kronmatmul_svd_solve(facs, b, 0.0)
        k = dense_kron(facs)
        resid = k @ rep.solution - b
        assert np.linalg.norm(k.T @ resid) <= 1e-8 * np.linalg.norm(b)

    def test_loss_recomputable(self, rng):
        facs = [rng.standard_normal((8, 3)), rng.standard_normal((6, 2))]
        b = rng.standard_normal(48)
        rep = kronmatmul_svd_solve(facs, b, 0.1)
        assert rep.loss == pytest.approx(
            ridge_loss(facs, rep.solution, b, 0.1), abs=1e-10)

    # 900 columns and 1,600 rows: naive's 900^2 normal matrix and
    # sketch-solve's 634 x 900 sketched design both exceed a guard of 10,000
    @pytest.mark.parametrize("route", [
        lambda f, b: naive_normal_solve(f, b, 0.0),
        lambda f, b: sketch_and_solve_ridge(f, b, RegressionConfig(alpha=1e-5)),
    ], ids=["naive", "sketch-solve"])
    def test_size_guard(self, rng, monkeypatch, route):
        monkeypatch.setattr(solvers, "DENSE_GUARD", 10_000)
        facs = [rng.standard_normal((40, 30)), rng.standard_normal((40, 30))]
        with pytest.raises(SizeGuardError, match="guard: 10000"):
            route(facs, rng.standard_normal(1600))


class TestSketchAndSolve:
    def test_full_identity_sketch_is_exact(self, rng):
        facs = [rng.standard_normal((5, 2)), rng.standard_normal((4, 2))]
        b = rng.standard_normal(20)
        lam = 1e-2
        every_row = np.stack(np.unravel_index(np.arange(20), (5, 4)), axis=1)
        full = RowSketch(indices=every_row, weights=np.ones(20))
        x = solvers.sketched_ridge_solve(
            facs, *solvers._drawn_rows(full, (5, 4), b.reshape(5, 4)), lam)
        exact = kronmatmul_svd_solve(facs, b, lam)
        np.testing.assert_allclose(x, exact.solution, atol=1e-8)

    def test_zero_target(self, rng):
        facs = [rng.standard_normal((5, 2)), rng.standard_normal((4, 2))]
        rep = sketch_and_solve_ridge(facs, np.zeros(20),
                                     RegressionConfig(lam=1e-2, seed=0))
        np.testing.assert_allclose(rep.solution, np.zeros(4), atol=1e-12)

    def test_loss_guarantee_half_eps(self, rng):
        hits = 0
        for seed in range(40):
            rs = np.random.default_rng(seed + 500)
            facs = [rs.standard_normal((14, 2)), rs.standard_normal((14, 2))]
            b = rs.standard_normal(196)
            cfg = RegressionConfig(eps=0.5, delta=0.1, lam=1e-2, seed=seed)
            rep = sketch_and_solve_ridge(facs, b, cfg)
            opt = kronmatmul_svd_solve(facs, b, 1e-2)
            hits += rep.loss <= 1.5 * opt.loss
        assert hits >= 34  # 85%

    def test_repeated_draws_match_per_draw_rows(self, rng):
        # merging repeated draws leaves the sketched normal equation as it is
        facs = [rng.standard_normal((5, 2)), rng.standard_normal((4, 3))]
        b = rng.standard_normal(20)
        flat = np.array([3, 7, 3, 19, 7, 7, 0, 12])
        multi = np.stack(np.unravel_index(flat, (5, 4)), axis=1)
        sketch = RowSketch(indices=multi, weights=rng.uniform(0.5, 2.0, flat.size))
        x = solvers.sketched_ridge_solve(
            facs, *solvers._drawn_rows(sketch, (5, 4), b.reshape(5, 4)), 0.1)
        sk = sketched_rows(facs, sketch)
        want = (np.linalg.pinv(sk.T @ sk + 0.1 * np.eye(6))
                @ (sk.T @ (sketch.weights * b[flat])))
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)

    def test_sample_count_scales_before_rounding(self, rng):
        # ceil(0.3 * 1680 ln(40) / 0.1) = ceil(18591.95) = 18592; scaling the
        # rounded count instead gives ceil(0.3 * ceil(61973.17)) = 18593.  K
        # has 20,000 rows, more than the draws, so the route sketches
        facs = [rng.standard_normal((200, 1)), rng.standard_normal((100, 1))]
        cfg = RegressionConfig(eps=0.1, lam=1e-2, alpha=0.3, seed=0)
        rep = sketch_and_solve_ridge(facs, rng.standard_normal(20_000), cfg)
        assert rep.sample_count == 18592
        assert 0 < rep.distinct_rows <= 18592  # repeated draws merge

    def test_exact_fallback_draws_nothing(self, count_calls):
        # alpha 1 on K's 400 rows asks for 355,992 draws, so the route runs
        # kronmatmul_svd_solve instead and reports no sketch
        draws = count_calls(solvers, "sample_rows")
        rs = np.random.default_rng(0)
        facs = [rs.standard_normal((20, 3)) for _ in range(2)]
        b = rs.standard_normal(400)
        rep = sketch_and_solve_ridge(facs, b, RegressionConfig(lam=1e-3, seed=0, alpha=1.0))
        assert not draws
        np.testing.assert_array_equal(rep.solution,
                                      kronmatmul_svd_solve(facs, b, 1e-3).solution)
        assert rep.sample_count == rep.distinct_rows == 0

    def test_draws_merge_once_per_call(self, count_calls):
        # distinct_rows is read off the merge the solve makes, not a second
        # pass over the draws; alpha 2e-4 draws 28 of K's 30 rows, so the
        # route sketches, and its merge counts the draws into K's rows, so
        # nothing sorts them
        merges = count_calls(solvers, "sparse_diagonal_from_sketch")
        draws = count_calls(solvers, "sample_rows")
        uniques = count_calls(np, "unique")
        rs = np.random.default_rng(3)
        facs = [rs.standard_normal((6, 2)), rs.standard_normal((5, 2))]
        cfg = RegressionConfig(eps=0.25, lam=1e-2, alpha=2e-4, seed=1)
        for call in range(1, 3):
            rep = sketch_and_solve_ridge(facs, rs.standard_normal(30), cfg)
            assert len(merges) == call and not uniques
        (_, s, _), _ = draws
        sketch = solvers.sample_rows(*draws[0])
        assert rep.sample_count == s
        assert 0 < rep.distinct_rows == np.unique(sketch.indices, axis=0).shape[0] < s


class TestPreconditioner:
    def test_dense_construction_agreement(self, rng):
        facs = [rng.standard_normal((6, 2)), rng.standard_normal((5, 3))]
        lam = 0.3
        k = dense_kron(facs)
        dense = np.linalg.inv(k.T @ k + lam * np.eye(6))
        x = rng.standard_normal(6)
        # from the factor SVDs, as the fast solver builds it, and from the
        # square Gram eigenpairs, as the Woodbury workspace does
        grams = [factor_gram(a) for a in facs]
        for pre in (svd_preconditioner(facs, lam),
                    build_kron_preconditioner([g.v for g in grams],
                                              [g.eigenvalues for g in grams], lam)):
            np.testing.assert_allclose(pre.apply(x), dense @ x, atol=1e-10)

    def test_pseudoinverse_convention(self, rng):
        # rank-deficient factor with lam = 0: zero directions stay zero
        a = np.zeros((4, 2))
        a[:, 0] = rng.standard_normal(4)
        pre = svd_preconditioner([a], 0.0)
        assert pre.v_factors[0].shape == (2, 1)
        dense = np.linalg.pinv(a.T @ a)
        x = rng.standard_normal(2)
        np.testing.assert_allclose(pre.apply(x), dense @ x, atol=1e-10)

    @given(st.lists(st.tuples(st.integers(1, 7), st.integers(1, 4), st.booleans()),
                    min_size=1, max_size=3),
           st.sampled_from([0.0, 1e-3, 0.5, 10.0]), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_svd_preconditioner_is_the_ridge_pseudoinverse(self, shapes, lam, seed):
        # wide factors, factors with a zero column, lam = 0 and lam > 0: on
        # every x = K^T y the SVD-built operator is pinv(K^T K + lam I)
        # nonzero singular values in [0.5, 2] keep pinv's own error near 1e-13
        rs = np.random.default_rng(seed)
        facs = []
        for rows, cols, zero_column in shapes:
            live = cols - 1 if zero_column and cols > 1 else cols
            r = min(rows, live)
            u = np.linalg.qr(rs.standard_normal((rows, r)))[0]
            v = np.linalg.qr(rs.standard_normal((live, r)))[0]
            a = (u * rs.uniform(0.5, 2.0, r)) @ v.T
            facs.append(np.insert(a, rs.integers(live + 1), 0.0, axis=1)
                        if live < cols else a)
        pre = svd_preconditioner(facs, lam)
        k = dense_kron(facs)
        x = k.T @ rs.standard_normal(k.shape[0])
        # the product leaves roundoff in x outside the row space of K, which
        # pinv scales by up to 1/lam and the operator drops (2e-14 of x grew
        # to 1.3e-10 of the result at lam 1e-3), so x is projected onto that
        # row space, taken from a dense SVD of K
        _, s_k, vt_k = np.linalg.svd(k, full_matrices=False)
        kept = s_k > 1e-10 * s_k[0]
        row_space = vt_k[kept]
        x = row_space.T @ (row_space @ x)
        # pinv(K^T K + lam I) x read off that SVD: a pinv of the formed
        # K^T K spreads its roundoff into the 1/lam directions, 1.5e-10 of
        # the result for three rank-1 and rank-3 factors at lam 1e-3, where
        # the operator and this oracle both matched a 50-digit solve to 4e-12
        want = row_space.T @ ((row_space @ x) / (s_k[kept] ** 2 + lam))
        got = pre.apply(x)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @given(st.lists(st.tuples(st.integers(1, 9), st.integers(1, 4)), min_size=1,
                    max_size=4),
           st.floats(0.0, 10.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_apply_matches_checked_kernels_bitwise(self, shapes, lam, seed):
        # apply runs the unchecked kernel; the checked public one gives the same bits
        rs = np.random.default_rng(seed)
        pre = svd_preconditioner([rs.standard_normal(s) for s in shapes], lam)
        x = rs.standard_normal(math.prod(v.shape[0] for v in pre.v_factors))
        t = kron_mat_mul([v.T for v in pre.v_factors], x)
        want = kron_mat_mul(list(pre.v_factors), t * pre.d_diag)
        np.testing.assert_array_equal(pre.apply(x), want)

    def test_sketched_normal_sandwich(self, rng):
        eps, tau, lam = 0.25, 0.25, 1e-3
        hits = 0
        for seed in range(100):
            rs = np.random.default_rng(seed)
            facs = [rs.standard_normal((15, 2)), rs.standard_normal((12, 3))]
            k = dense_kron(facs)
            sampler = build_product_sampler(
                [statistical_leverage_scores(a) for a in facs])
            sketch = sample_rows(sampler, 3000, seed)
            sk = sketched_rows(facs, sketch)
            m = k.T @ k + lam * np.eye(6)
            skn = sk.T @ sk + lam * np.eye(6)
            w, v = np.linalg.eigh(m)
            mih = v @ np.diag(w**-0.5) @ v.T
            eig = np.linalg.eigvalsh(mih @ skn @ mih)
            hits += bool(eig.min() >= 1 - math.sqrt(eps) - tau
                         and eig.max() <= 1 + math.sqrt(eps) + tau)
        assert hits >= 90


class TestFastKroneckerRegression:
    def test_identity_factors(self, rng):
        b = rng.standard_normal(6)
        rep = fast_kronecker_regression([np.eye(2), np.eye(3)], b,
                                        RegressionConfig(seed=0))
        np.testing.assert_allclose(rep.solution, b, atol=1e-10)
        assert rep.loss <= 1e-16

    def test_zero_factor_rejected(self, rng):
        with pytest.raises(InvalidInputError):
            fast_kronecker_regression([np.zeros((3, 2)), np.eye(2)],
                                      rng.standard_normal(6),
                                      RegressionConfig(seed=0))

    def test_eps_range(self, rng):
        facs = [rng.standard_normal((4, 2))]
        with pytest.raises(InvalidInputError):
            fast_kronecker_regression(facs, rng.standard_normal(4),
                                      RegressionConfig(eps=0.5, seed=0))

    def test_approximation_contract_theoretical_counts(self, rng):
        # at alpha = 1 the sample count dwarfs the row count, so the exact
        # route runs and the (1+eps) bound is met with ratio 1
        rs = np.random.default_rng(0)
        facs = [rs.normal(1.0, math.sqrt(1e-3), (20, 3)) for _ in range(2)]
        b = rs.standard_normal(400)
        cfg = RegressionConfig(eps=0.25, delta=0.05, lam=1e-3, seed=0)
        rep = fast_kronecker_regression(facs, b, cfg)
        opt = kronmatmul_svd_solve(facs, b, 1e-3)
        assert rep.sample_count == 0
        assert rep.loss <= (1 + cfg.eps) * opt.loss + 1e-12

    def test_exact_fallback_report_is_kronmatmuls(self):
        # when the sketch would cover every row, the report is the exact
        # solver's in every field but the wall time, which covers the call,
        # and the loss function, whose value is the same
        rs = np.random.default_rng(0)
        facs = [rs.normal(1.0, math.sqrt(1e-3), (20, 3)) for _ in range(2)]
        b = rs.standard_normal(400)
        rep = fast_kronecker_regression(facs, b, RegressionConfig(lam=1e-3, seed=0))
        exact = kronmatmul_svd_solve(facs, b, 1e-3)
        for f in dataclasses.fields(exact):
            if f.name not in ("wall_time", "loss_fn"):
                np.testing.assert_array_equal(getattr(rep, f.name),
                                              getattr(exact, f.name), err_msg=f.name)
        assert rep.loss == exact.loss

    def test_exact_fallback_reports_no_sketch(self):
        # alpha 1: the sketch would cover every row, so nothing is drawn,
        # merged or iterated
        rs = np.random.default_rng(0)
        facs = [rs.normal(1.0, math.sqrt(1e-3), (20, 3)) for _ in range(2)]
        rep = fast_kronecker_regression(facs, rs.standard_normal(400),
                                        RegressionConfig(lam=1e-3, seed=0, alpha=1.0))
        assert rep.sample_count == rep.iterations == rep.distinct_rows == 0

    def test_report_counts_the_merged_draws(self, count_calls):
        # distinct_rows is the nonzero count of the merged sketch
        calls = count_calls(solvers, "sparse_diagonal_from_sketch")
        rs = np.random.default_rng(0)
        facs = [rs.normal(1.0, math.sqrt(1e-3), (20, 3)) for _ in range(2)]
        cfg = RegressionConfig(eps=0.25, delta=0.05, lam=1e-3, seed=0, alpha=2e-4)
        rep = fast_kronecker_regression(facs, rs.standard_normal(400), cfg)
        (sketch, row_shape), = calls
        flat = np.ravel_multi_index(tuple(sketch.indices.T), row_shape)
        assert 0 < rep.distinct_rows == np.unique(flat).size < rep.sample_count

    @pytest.mark.parametrize("alpha", [2e-4, 1.0])
    def test_report_says_how_the_solve_ended(self, alpha):
        # the sketched route reports PCG's applies and that it stopped before
        # its cap; the exact fallback (alpha 1) reports none and converged
        rs = np.random.default_rng(0)
        facs = [rs.normal(1.0, math.sqrt(1e-3), (20, 3)) for _ in range(2)]
        cfg = RegressionConfig(eps=0.25, delta=0.05, lam=1e-3, seed=0, alpha=alpha)
        rep = fast_kronecker_regression(facs, rs.standard_normal(400), cfg)
        sketched = alpha < 1.0
        assert (rep.sample_count > 0) == sketched
        assert (rep.iterations > 0) == sketched
        assert rep.iterations < cfg.effective_max_iters
        assert rep.converged is True
        assert (0.0 < rep.residual < 1.0) if sketched else rep.residual == 0.0

    def test_report_says_when_pcg_ran_out_of_iterations(self, monkeypatch):
        real = solvers.pcg_solve

        def capped(*args):
            x, _, residual = real(*args)
            return x, args[3].effective_max_iters, residual

        monkeypatch.setattr(solvers, "pcg_solve", capped)
        rs = np.random.default_rng(0)
        facs = [rs.normal(1.0, math.sqrt(1e-3), (20, 3)) for _ in range(2)]
        cfg = RegressionConfig(eps=0.25, lam=1e-3, seed=0, alpha=2e-4)
        rep = fast_kronecker_regression(facs, rs.standard_normal(400), cfg)
        assert rep.iterations == cfg.effective_max_iters and rep.converged is False

    def test_approximation_contract_sketched(self):
        # alpha scaled down so the sketch is real (about 214 of 400 rows)
        hits = 0
        for seed in range(100):
            rs = np.random.default_rng(seed + 1000)
            facs = [rs.normal(1.0, math.sqrt(1e-3), (20, 3)) for _ in range(2)]
            b = rs.standard_normal(400)
            cfg = RegressionConfig(eps=0.25, delta=0.05, lam=1e-3, seed=seed,
                                   alpha=2e-4)
            rep = fast_kronecker_regression(facs, b, cfg)
            assert 0 < rep.sample_count < 400
            opt = kronmatmul_svd_solve(facs, b, 1e-3)
            hits += rep.loss <= (1 + cfg.eps) * opt.loss
        assert hits >= 95

    def test_operator_released_before_exact_loss(self, monkeypatch):
        # the loss's projection of b runs when the loss is first read, after
        # the call has returned and freed the operator's precomputed gathers;
        # a zero size rule sends even this small problem to the split form
        monkeypatch.setattr(solvers, "_DENSE_SKETCH_MAX_ENTRIES", 0)
        ops, projections = [], []

        class Recording(solvers.SketchedKron):
            def __init__(self, *args):
                super().__init__(*args)
                ops.append(weakref.ref(self))

        original_multiply = solvers.kron_mat_mul

        def checked_multiply(factors, operand):
            if np.size(operand) == 400:  # b, not a solver-sized vector
                assert ops and all(ref() is None for ref in ops)
                projections.append(operand)
            return original_multiply(factors, operand)

        monkeypatch.setattr(solvers, "SketchedKron", Recording)
        monkeypatch.setattr(solvers, "kron_mat_mul", checked_multiply)
        rs = np.random.default_rng(7)
        facs = [rs.normal(1.0, math.sqrt(1e-3), (20, 3)) for _ in range(2)]
        cfg = RegressionConfig(eps=0.25, delta=0.05, lam=1e-3, seed=0, alpha=1e-4)
        rep = fast_kronecker_regression(facs, rs.standard_normal(400), cfg)
        assert rep.iterations > 0
        assert len(ops) == 1 and len(projections) == 0
        assert math.isfinite(rep.loss)
        assert len(projections) == 1

    def test_design_released_before_exact_loss(self, monkeypatch):
        # the dense form's materialized design is gone, like the split
        # form's operator, once the call has returned and before the loss
        # reads b
        designs, projections = [], []
        original_rows, original_multiply = solvers._weighted_rows, solvers.kron_mat_mul

        def recording_rows(*args):
            design = original_rows(*args)
            designs.append(weakref.ref(design))
            return design

        def checked_multiply(factors, operand):
            if np.size(operand) == 400:  # b, not a solver-sized vector
                assert designs and all(ref() is None for ref in designs)
                projections.append(operand)
            return original_multiply(factors, operand)

        monkeypatch.setattr(solvers, "_weighted_rows", recording_rows)
        monkeypatch.setattr(solvers, "kron_mat_mul", checked_multiply)
        rs = np.random.default_rng(7)
        facs = [rs.normal(1.0, math.sqrt(1e-3), (20, 3)) for _ in range(2)]
        cfg = RegressionConfig(eps=0.25, delta=0.05, lam=1e-3, seed=0, alpha=1e-4)
        rep = fast_kronecker_regression(facs, rs.standard_normal(400), cfg)
        assert rep.iterations > 0
        assert len(designs) == 1 and len(projections) == 0
        assert math.isfinite(rep.loss)
        assert len(projections) == 1

    def test_draws_are_unravelled_once(self, monkeypatch):
        # the merge unravels its distinct rows once, at its end, and the
        # read of b and the sketched design take the diagonal's
        # multi-indices as they are
        merging_now, unravelled = [False], []
        merge, unravel = solvers.sparse_diagonal_from_sketch, np.unravel_index

        def merging(*args):
            merging_now[0] = True
            sdiag = merge(*args)
            merging_now[0] = False
            return sdiag

        def unravelling(indices, shape):
            unravelled.append(merging_now[0])
            return unravel(indices, shape)

        monkeypatch.setattr(solvers, "sparse_diagonal_from_sketch", merging)
        monkeypatch.setattr(np, "unravel_index", unravelling)
        rs = np.random.default_rng(7)
        facs = [rs.normal(1.0, math.sqrt(1e-3), (20, 3)) for _ in range(2)]
        cfg = RegressionConfig(eps=0.25, delta=0.05, lam=1e-3, seed=0, alpha=1e-4)
        rep = fast_kronecker_regression(facs, rs.standard_normal(400), cfg)
        assert rep.iterations > 0 and unravelled == [True]

    @pytest.mark.parametrize("order", [2, 3])
    def test_one_svd_per_factor(self, count_calls, order):
        # the sampler and the preconditioner read the same thin SVDs
        rs = np.random.default_rng(7)
        facs = [rs.normal(1.0, 0.03, (20, 3)) for _ in range(order)]
        svds = count_calls(solvers, "compact_svd")
        grams = count_calls(solvers, "factor_gram")
        cfg = RegressionConfig(eps=0.25, delta=0.05, lam=1e-3, seed=0, alpha=1e-4)
        rep = fast_kronecker_regression(facs, rs.standard_normal(20**order), cfg)
        assert 0 < rep.sample_count < 20**order
        assert len(svds) == order
        assert len(grams) == 0

    def test_scale_equivariance(self, rng):
        facs = [rng.standard_normal((12, 2)), rng.standard_normal((10, 2))]
        b = rng.standard_normal(120)
        cfg = RegressionConfig(eps=0.25, delta=0.1, lam=1e-3, seed=11, alpha=1e-3)
        r1 = fast_kronecker_regression(facs, b, cfg)
        r2 = fast_kronecker_regression(facs, 3.0 * b, cfg)
        assert r1.sample_count == r2.sample_count
        np.testing.assert_allclose(r2.solution, 3.0 * r1.solution, rtol=1e-9,
                                   atol=1e-12)

    def test_exact_fallback_reuses_caches(self, rng, count_calls, monkeypatch):
        # at alpha 1 every sketch of fast ALS would cover its rows, so each
        # factor step runs the exact update; each core step runs the exact
        # solve on the factor SVDs and the tensor projection ALS already
        # holds, and decomposes nothing itself
        x = rng.standard_normal((8, 7, 6))
        svds = [count_calls(solvers, "compact_svd"), count_calls(tucker, "compact_svd")]
        core_step_svds = []
        core_step = tucker._core_update

        def counted_core_step(*args):
            before = sum(len(calls) for calls in svds)
            core = core_step(*args)
            core_step_svds.append(sum(len(calls) for calls in svds) - before)
            return core

        monkeypatch.setattr(tucker, "_core_update", counted_core_step)
        exact_solves = count_calls(tucker, "_svd_ridge_solution")
        sketches = count_calls(solvers, "sample_rows")
        cfg = RegressionConfig(eps=0.25, delta=0.1, alpha=1.0, seed=0)
        fast, fast_report = tucker.tucker_als(x, (3, 2, 2), lam=1e-2, sweeps=2,
                                              solver_mode="fast", config=cfg)
        assert core_step_svds == [0, 0]
        assert len(exact_solves) == 2 and len(sketches) == 0
        # every fast step fell back to its exact update, so the run is exact
        # ALS to the bit, its step records included
        exact, exact_report = tucker.tucker_als(x, (3, 2, 2), lam=1e-2, sweeps=2,
                                                config=cfg)
        np.testing.assert_array_equal(fast.core, exact.core)
        for a, b in zip(fast.factors, exact.factors):
            np.testing.assert_array_equal(a, b)
        for name in ("step_labels", "step_losses", "step_errors", "sweep_losses",
                     "sweep_rres", "rre"):
            assert getattr(fast_report, name) == getattr(exact_report, name), name

    def test_report_loss_matches_solution(self, rng):
        facs = [rng.standard_normal((12, 2)), rng.standard_normal((10, 2))]
        b = rng.standard_normal(120)
        cfg = RegressionConfig(eps=0.25, delta=0.1, lam=1e-3, seed=2, alpha=1e-3)
        rep = fast_kronecker_regression(facs, b, cfg)
        assert rep.loss == pytest.approx(
            ridge_loss(facs, rep.solution, b, 1e-3), abs=1e-10)


def dense_ridge_loss(factors, x, b, lam):
    r = dense_kron(factors) @ x - b
    return float(r @ r) + lam * float(x @ x)


def _both_forms(monkeypatch, facs, b, cfg):
    """The fast call's reports with its normal apply in the split form and
    in the dense form, forced by the size rule."""
    reports = []
    for limit in (0, math.inf):
        monkeypatch.setattr(solvers, "_DENSE_SKETCH_MAX_ENTRIES", limit)
        reports.append(fast_kronecker_regression(facs, b, cfg))
    return reports


def coherent_problem():
    """The order-4 synthetic factors (n=24, d=3), each row scaled by a
    |Cauchy| draw from one generator in factor order (cond(K) about 3.5e10),
    with lam 1e-3 and alpha 1e-5 (263 distinct draws of 331,776 rows)."""
    facs, _ = experiments.generate_synth_regression(24, 3, 4, 0)
    scales = np.random.default_rng(1000)
    return [a * np.abs(scales.standard_cauchy(24))[:, None] for a in facs], 1e-3, 1e-5


def conditioned_problem(order, d, log_conditions, coherent, lam, seed):
    """Factors of ``order`` with ``d`` columns whose singular values fall
    evenly in log scale from 1 to ``10**-log_conditions[k]``, their rows
    scaled by |Cauchy| draws when ``coherent``; with ``lam`` and alpha 2e-5,
    about 6R draws."""
    rs = np.random.default_rng(seed)
    n = 40 if order == 2 else 16
    facs = []
    for log_condition in log_conditions[:order]:
        u = np.linalg.qr(rs.standard_normal((n, d)))[0]
        v = np.linalg.qr(rs.standard_normal((d, d)))[0]
        a = (u * np.logspace(0, -log_condition, d)) @ v.T
        facs.append(a * np.abs(rs.standard_cauchy(n))[:, None] if coherent else a)
    return facs, lam, 2e-5


@st.composite
def conditioned_problems(draw):
    """Orders 2-3 and factor condition numbers from 1 to 1e10."""
    order = draw(st.integers(2, 3))
    return conditioned_problem(
        order, draw(st.integers(2, 3)),
        draw(st.lists(st.floats(0.0, 10.0), min_size=order, max_size=order)),
        draw(st.booleans()), draw(st.sampled_from([0.0, 1e-6, 1e-3])),
        draw(st.integers(0, 2**32 - 1)))


class TestPcgOperatorForms:
    @staticmethod
    def _cases():
        rs = np.random.default_rng(3)
        heavy = np.ones((20, 1))
        heavy[:3] = 8.0  # three high-leverage rows, drawn again and again
        deficient = rs.standard_normal((15, 3))
        deficient[:, 2] = deficient[:, 0]
        return {
            "order 1": ([rs.standard_normal((3000, 6))], 1e-3, 2e-5),
            "order 3": ([rs.standard_normal((12, 3)) for _ in range(3)], 1e-3, 2e-5),
            "repeated draws": ([heavy * rs.standard_normal((20, 2)),
                                rs.standard_normal((20, 2))], 1e-3, 5e-5),
            "lam 0, rank-deficient factor": ([deficient, rs.standard_normal((14, 3))],
                                             0.0, 3e-5),
        }

    @pytest.mark.parametrize("case", ["order 1", "order 3", "repeated draws",
                                      "lam 0, rank-deficient factor"])
    def test_forms_agree(self, monkeypatch, case):
        # the same sketch, solved by PCG on the implicit operator and on the
        # materialized design: the same iterations, and the same loss to
        # roundoff
        facs, lam, alpha = self._cases()[case]
        rows = math.prod(a.shape[0] for a in facs)
        b = np.random.default_rng(4).standard_normal(rows)
        cfg = RegressionConfig(eps=0.1, delta=0.05, lam=lam, alpha=alpha, seed=1)
        split, dense = _both_forms(monkeypatch, facs, b, cfg)
        assert 0 < split.sample_count < rows
        if case == "repeated draws":
            assert split.distinct_rows < split.sample_count
        assert split.iterations == dense.iterations > 0
        assert (split.sample_count, split.distinct_rows) == (dense.sample_count,
                                                             dense.distinct_rows)
        assert abs(dense.loss - split.loss) <= 1e-10 * split.loss
        np.testing.assert_allclose(dense.solution, split.solution, rtol=1e-8,
                                   atol=1e-12 * np.linalg.norm(split.solution))

    def test_forms_agree_on_coherent_factors(self, monkeypatch):
        # a formed dense preconditioner W W^T was indefinite here and broke
        # PCG down; both forms apply KronPreconditioner and agree to roundoff
        # of the ill-conditioned solve, 1.2e-9 in the loss when this was added
        facs, lam, alpha = coherent_problem()
        b = np.random.default_rng(4).standard_normal(24**4)
        cfg = RegressionConfig(eps=0.1, delta=0.05, lam=lam, alpha=alpha, seed=1)
        split, dense = _both_forms(monkeypatch, facs, b, cfg)
        assert 0 < split.distinct_rows == dense.distinct_rows < 24**4
        assert split.iterations == dense.iterations > 0
        assert abs(dense.loss - split.loss) <= 1e-8 * split.loss

    @example(coherent_problem())
    @given(conditioned_problems())
    @settings(max_examples=40, deadline=None)
    def test_forms_complete_on_ill_conditioned_factors(self, problem):
        facs, lam, alpha = problem
        rows = math.prod(a.shape[0] for a in facs)
        b = np.random.default_rng(4).standard_normal(rows)
        cfg = RegressionConfig(eps=0.1, delta=0.05, lam=lam, alpha=alpha, seed=1)
        with pytest.MonkeyPatch.context() as patch:
            split, dense = _both_forms(patch, facs, b, cfg)
        assert 0 < split.sample_count < rows
        # at lam 0 nothing floors the sketched normal matrix, so the forms
        # agree to the accuracy of a normal-equations residual, about
        # ulp * cond(K) <= 2.2e-6 under the rank rule's cut (3.1e-7 at most
        # over 1,500 random instances when lam 0 was added)
        tol = 1e-8 if lam > 0 else 2.2e-6
        assert abs(dense.loss - split.loss) <= tol * split.loss

    @pytest.mark.parametrize("d, dense", [(8, True), (16, False)])
    def test_size_rule_picks_the_form(self, count_calls, d, dense):
        # the benchmark's settings: d=8 is reg-thin's 64 columns and about
        # 390 draws (2.5e4 entries), which the dense form takes; d=16 makes
        # 256 columns and about 1,800 distinct draws (4.6e5 entries), which
        # stay in the implicit SketchedKron; both apply KronPreconditioner
        operators = count_calls(solvers, "SketchedKron")
        preconditioner_applies = count_calls(solvers.KronPreconditioner, "apply")
        rows = count_calls(solvers, "kron_rows")
        rs = np.random.default_rng(5)
        facs = [rs.normal(1.0, math.sqrt(1e-3), (256, d)) for _ in range(2)]
        cfg = RegressionConfig(eps=0.1, delta=0.01, lam=1e-3, alpha=1e-5, seed=5)
        rep = fast_kronecker_regression(facs, np.ones(256**2), cfg)
        assert rep.iterations > 0 and rep.converged
        entries = rep.distinct_rows * d**2
        assert (entries <= solvers._DENSE_SKETCH_MAX_ENTRIES) == dense
        assert len(operators) == (0 if dense else 1)
        assert len(preconditioner_applies) == rep.iterations + 1
        assert len(rows) == (1 if dense else 0)


def singular_problem(seed):
    """Two 48 x 3 factors ``Q1 diag(1, 10^-4.5, 1e-9) Q2^T`` and a Gaussian
    ``b``, all from one generator: ``K``'s singular values fall to 1e-18 of
    its largest, below the one rank rule's cut of 1e-10."""
    rs = np.random.default_rng(seed)
    facs = [(np.linalg.qr(rs.standard_normal((48, 3)))[0] * np.logspace(0, -9, 3))
            @ np.linalg.qr(rs.standard_normal((3, 3)))[0].T for _ in range(2)]
    return facs, rs.standard_normal(48 * 48)


class TestNumericallySingularDesign:
    """lam 0 where ``K`` is numerically singular: the exact route and the
    preconditioner drop the directions below the rank rule's cut, as the
    dense ``np.linalg.lstsq`` does here (the exact route read 1.003-1.48x
    the lstsq optimum, and PCG
    broke down at seeds 0, 1, 3 and 4 in both forms, when each of them
    still inverted every product of the factors' kept singular values)."""

    @staticmethod
    def lstsq_loss(facs, b):
        return dense_ridge_loss(facs, lstsq_solution(dense_kron(facs), b), b, 0.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_route_meets_lstsq(self, seed):
        facs, b = singular_problem(seed)
        rep = kronmatmul_svd_solve(facs, b, 0.0)
        assert dense_ridge_loss(facs, rep.solution, b, 0.0) <= 1.001 * self.lstsq_loss(facs, b)

    @pytest.mark.parametrize("seed", range(6))
    def test_fast_route_completes_in_both_forms(self, monkeypatch, seed):
        facs, b = singular_problem(seed)
        cfg = RegressionConfig(eps=0.1, delta=0.01, alpha=2e-5, seed=0)
        opt = self.lstsq_loss(facs, b)
        for rep in _both_forms(monkeypatch, facs, b, cfg):
            assert 0 < rep.sample_count < b.size
            assert dense_ridge_loss(facs, rep.solution, b, 0.0) <= 1.5 * opt


class TestOneDrawPath:
    """Every sketched route draws its rows through ``solvers._leverage_draws``:
    the fast regression, sketch-and-solve and the sketched Tucker step."""

    @staticmethod
    def run(route, alpha):
        rs = np.random.default_rng(7)
        cfg = RegressionConfig(eps=0.25, delta=0.05, lam=1e-3, seed=0, alpha=alpha)
        if route == "tucker-step":
            model = tucker.TuckerModel(core=rs.standard_normal((2, 2, 2)),
                                       factors=[rs.standard_normal((8, 2)) for _ in range(3)],
                                       lam=0.1)
            return tucker.fast_factor_matrix_update(model, rs.standard_normal((8, 8, 8)), 0, cfg)
        facs = [rs.normal(1.0, 0.03, (20, 3)) for _ in range(2)]
        solve = fast_kronecker_regression if route == "fast" else sketch_and_solve_ridge
        return solve(facs, rs.standard_normal(400), cfg)

    # alpha 1e-6 sketches on every route; at alpha 1 every route falls back
    # to its exact solve
    @pytest.mark.parametrize("route,alpha,draws", [
        ("fast", 1e-6, 1), ("fast", 1.0, 0), ("sketch-solve", 1e-6, 1),
        ("sketch-solve", 1.0, 0), ("tucker-step", 1e-6, 1), ("tucker-step", 1.0, 0)])
    def test_each_sketched_route_draws_once(self, count_calls, route, alpha, draws):
        calls = [count_calls(module, "_leverage_draws") for module in (solvers, tucker)]
        samples = count_calls(solvers, "sample_rows")
        self.run(route, alpha)
        assert sum(len(c) for c in calls) == len(samples) == draws

    def test_tucker_binds_no_sampler(self):
        for name in ("build_product_sampler", "sample_rows", "ridge_leverage_scores"):
            assert not hasattr(tucker, name), name


class TestReportedLoss:
    """The two SVD routes read their loss off ``(U kron ...)^T b`` and
    ``||b||^2``; it must be the dense ridge loss of the reported solution."""

    CFG = dict(eps=0.25, delta=0.05, seed=4, alpha=1e-4)

    @staticmethod
    def instance(rs, shapes, zero_column):
        facs = [rs.standard_normal(shape) for shape in shapes]
        if zero_column:
            facs[-1][:, 0] = 0.0  # a dropped singular value
        return facs, rs.standard_normal(math.prod(a.shape[0] for a in facs))

    def solve_both(self, facs, b, lam):
        fast = fast_kronecker_regression(facs, b, RegressionConfig(lam=lam, **self.CFG))
        assert 0 < fast.sample_count < b.size  # the sketched route ran
        return kronmatmul_svd_solve(facs, b, lam), fast

    @pytest.mark.parametrize("shapes", [[(20, 3), (15, 2)], [(8, 2), (7, 3), (6, 2)]])
    @pytest.mark.parametrize("lam", [0.0, 0.3])
    @pytest.mark.parametrize("zero_column", [False, True])
    def test_matches_dense_loss(self, shapes, lam, zero_column):
        rs = np.random.default_rng(len(shapes) + 10 * zero_column)
        facs, b = self.instance(rs, shapes, zero_column)
        for rep in self.solve_both(facs, b, lam):
            want = dense_ridge_loss(facs, rep.solution, b, lam)
            assert rep.loss == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("shapes", [[(20, 3), (15, 2)], [(8, 2), (7, 3), (6, 2)]])
    def test_near_exact_fit(self, shapes):
        # ||b||^2 - ||t||^2 cancels almost to zero: the loss stays at or above
        # zero and within a few ulp of ||b||^2 of the dense loss
        rs = np.random.default_rng(3)
        facs = [rs.standard_normal(shape) for shape in shapes]
        k = dense_kron(facs)
        b = k @ rs.standard_normal(k.shape[1]) + 1e-9 * rs.standard_normal(k.shape[0])
        for rep in self.solve_both(facs, b, 0.0):
            assert rep.loss >= 0.0
            want = dense_ridge_loss(facs, rep.solution, b, 0.0)
            assert abs(rep.loss - want) <= 1e-13 * float(b @ b)

    @pytest.mark.parametrize("route", ["exact", "fast"])
    def test_one_kronecker_pass_over_b(self, monkeypatch, count_calls, route):
        # the exact solve forms the one projection of b and the loss reuses
        # it; the fast call forms none, and its first loss read forms it.
        # No multiply forms a residual of the full row count
        loss_calls = count_calls(solvers, "ridge_loss")
        sizes = []
        for module in (kron, solvers):
            kernel = module._mode_products

            def recording(x, mats, kernel=kernel):
                out = kernel(x, mats)
                sizes.append(max(x.size, out.size))
                return out

            monkeypatch.setattr(module, "_mode_products", recording)
        facs, b = self.instance(np.random.default_rng(5), [(20, 3), (15, 2)], False)
        if route == "exact":
            rep = kronmatmul_svd_solve(facs, b, 1e-3)
        else:
            rep = fast_kronecker_regression(facs, b, RegressionConfig(lam=1e-3, **self.CFG))
            assert 0 < rep.sample_count < b.size
        in_call = sizes.count(b.size)
        rep.loss
        assert len(loss_calls) == 0
        assert (in_call, sizes.count(b.size) - in_call) == ((1, 0) if route == "exact"
                                                            else (0, 1))
        assert max(sizes) == b.size


class TestLazyLoss:
    """No route evaluates its loss inside the call: the first read of
    ``loss`` does, once, to the bit of the eager formula, and then lets go
    of what the evaluation read."""

    CFG = dict(eps=0.25, delta=0.05, lam=1e-3, seed=0)
    ROUTES = {
        "naive": lambda f, b: naive_normal_solve(f, b, 1e-3),
        "kronmatmul": lambda f, b: kronmatmul_svd_solve(f, b, 1e-3),
        "sketch-solve": lambda f, b: sketch_and_solve_ridge(
            f, b, RegressionConfig(alpha=2e-4, **TestLazyLoss.CFG)),
        "fast": lambda f, b: fast_kronecker_regression(
            f, b, RegressionConfig(alpha=2e-4, **TestLazyLoss.CFG)),
        "fast-fallback": lambda f, b: fast_kronecker_regression(
            f, b, RegressionConfig(alpha=1.0, **TestLazyLoss.CFG)),
    }
    # the multiplies by all of b the solve itself makes: K^T b, or the
    # projection (U kron ...)^T b that the exact routes' loss reuses
    SOLVE_PASSES = {"naive": 1, "kronmatmul": 1, "sketch-solve": 0, "fast": 0,
                    "fast-fallback": 1}

    @staticmethod
    def eager_loss(route, factors, x, b):
        """The loss as each route evaluated it inside the call before."""
        if route in ("naive", "sketch-solve"):
            return ridge_loss(factors, x, b, 1e-3)
        svds = [compact_svd(a) for a in factors]
        t = kron_mat_mul([s.u.T for s in svds], b)
        return solvers._projected_ridge_loss(svds, t, float(np.vdot(b, b)), x, 1e-3)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_loss_is_evaluated_at_the_first_read(self, monkeypatch, route):
        # counted, not recorded: a record of the arguments would keep the SVDs
        losses = []
        for name in ("ridge_loss", "_projected_ridge_loss"):
            def counting(*args, evaluate=getattr(solvers, name)):
                losses.append(name)
                return evaluate(*args)

            monkeypatch.setattr(solvers, name, counting)
        operand_sizes = []
        for module in (kron, solvers):
            kernel = module._mode_products

            def recording(x, mats, kernel=kernel):
                operand_sizes.append(x.size)
                return kernel(x, mats)

            monkeypatch.setattr(module, "_mode_products", recording)
        bases = []
        decompose = solvers.compact_svd

        def recording_svd(a):
            svd = decompose(a)
            bases.append(weakref.ref(svd.u))
            return svd

        monkeypatch.setattr(solvers, "compact_svd", recording_svd)
        rs = np.random.default_rng(7)
        facs = [rs.normal(1.0, 0.03, (20, 3)) for _ in range(2)]
        b = rs.standard_normal(400)

        rep = self.ROUTES[route](facs, b)
        assert (rep.sample_count > 0) == (route in ("sketch-solve", "fast"))
        assert losses == []
        assert operand_sizes.count(b.size) == self.SOLVE_PASSES[route]
        # the SVD routes' loss functions hold every basis the call made;
        # sketch-solve draws by its factors' bases but its loss holds none
        assert (len(bases) > 0) == (route != "naive")
        svd_route = route in ("kronmatmul", "fast", "fast-fallback")
        assert [ref() is not None for ref in bases] == [svd_route] * len(bases)
        function = weakref.ref(rep.loss_fn)

        first = rep.loss
        assert len(losses) == 1
        assert operand_sizes.count(b.size) == self.SOLVE_PASSES[route] + (route == "fast")
        assert rep.loss == first
        assert len(losses) == 1
        assert function() is None
        assert all(ref() is None for ref in bases)

        eager = self.eager_loss(route, facs, rep.solution, b)
        assert np.float64(first).tobytes() == np.float64(eager).tobytes()

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_copies_share_one_evaluation(self, monkeypatch, route):
        # a copy made before the first read shares the original's evaluation,
        # and once both are read neither holds the route's loss function
        losses = []
        for name in ("ridge_loss", "_projected_ridge_loss"):
            def counting(*args, evaluate=getattr(solvers, name)):
                losses.append(name)
                return evaluate(*args)

            monkeypatch.setattr(solvers, name, counting)
        rs = np.random.default_rng(7)
        facs = [rs.normal(1.0, 0.03, (20, 3)) for _ in range(2)]
        rep = self.ROUTES[route](facs, rs.standard_normal(400))
        copy = dataclasses.replace(rep, wall_time=0.0)
        function = weakref.ref(rep.loss_fn)
        assert copy.loss == rep.loss
        assert len(losses) == 1
        assert function() is None

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_report_pickles_before_its_loss_is_read(self, route):
        rs = np.random.default_rng(7)
        facs = [rs.normal(1.0, 0.03, (20, 3)) for _ in range(2)]
        rep = self.ROUTES[route](facs, rs.standard_normal(400))
        copy = pickle.loads(pickle.dumps(rep))
        assert pickle.loads(pickle.dumps(dataclasses.replace(rep))).loss == copy.loss
        assert copy.loss == rep.loss
        assert pickle.loads(pickle.dumps(rep)).loss == rep.loss


@pytest.mark.filterwarnings("error")
class TestNonFiniteTarget:
    """A NaN or inf in ``b`` raises where a solver reads ``b``, with no
    numpy warning before the error."""

    FACTORS_SEED = 7
    CFG = RegressionConfig(eps=0.25, delta=0.05, lam=1e-3, seed=3, alpha=2e-4)

    @classmethod
    def problem(cls):
        rs = np.random.default_rng(cls.FACTORS_SEED)
        return [rs.normal(1.0, 0.03, (20, 3)) for _ in range(2)], rs.standard_normal(400)

    def drawn_rows(self, count_calls, factors, b):
        """The distinct rows the fast route's sketch reads at ``CFG``."""
        calls = count_calls(solvers, "sparse_diagonal_from_sketch")
        rep = fast_kronecker_regression(factors, b, self.CFG)
        assert 0 < rep.sample_count < b.size and len(calls) == 1
        sketch, row_shape = calls[0]
        drawn = np.unique(np.ravel_multi_index(tuple(sketch.indices.T), row_shape))
        assert 0 < drawn.size < b.size
        return drawn, rep

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fast_rejects_a_drawn_entry(self, count_calls, bad):
        factors, b = self.problem()
        drawn, _ = self.drawn_rows(count_calls, factors, b)
        b[drawn[len(drawn) // 2]] = bad
        with pytest.raises(InvalidInputError):
            fast_kronecker_regression(factors, b, self.CFG)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_fast_undrawn_entry_shows_in_the_loss(self, count_calls, bad):
        factors, b = self.problem()
        drawn, clean = self.drawn_rows(count_calls, factors, b)
        b[np.setdiff1d(np.arange(b.size), drawn)[0]] = bad
        rep = fast_kronecker_regression(factors, b, self.CFG)
        np.testing.assert_array_equal(rep.solution, clean.solution)
        assert not math.isfinite(rep.loss)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_fast_undrawn_entry_in_the_last_rows(self, count_calls, bad):
        # the last undrawn row lies in the last row of A1
        factors, b = self.problem()
        drawn, clean = self.drawn_rows(count_calls, factors, b)
        row = np.setdiff1d(np.arange(b.size), drawn)[-1]
        assert row >= b.size - 20
        b[row] = bad
        rep = fast_kronecker_regression(factors, b, self.CFG)
        np.testing.assert_array_equal(rep.solution, clean.solution)
        assert not math.isfinite(rep.loss)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 137, 399])
    def test_exact_routes_reject(self, bad, where):
        factors, b = self.problem()
        b[where] = bad
        with pytest.raises(InvalidInputError):
            kronmatmul_svd_solve(factors, b, 1e-3)
        with pytest.raises(InvalidInputError):
            naive_normal_solve(factors, b, 1e-3)
        # alpha 1: more samples than rows, so the fast route runs the exact one
        with pytest.raises(InvalidInputError):
            fast_kronecker_regression(factors, b, RegressionConfig(lam=1e-3))

    @pytest.mark.parametrize("entry", ["kronmatmul_svd_solve", "naive_normal_solve",
                                       "naive_factor_update", "core_update"])
    def test_projection_that_overflows_is_rejected(self, entry):
        # every input entry is finite, but the projection each exact entry
        # checks overflows; the error arrives with no numpy warning before it
        rs = np.random.default_rng(self.FACTORS_SEED)
        if entry.startswith(("kronmatmul", "naive_normal")):
            factors = [rs.normal(1.0, 0.03, (20, 3)) for _ in range(2)]
            call = lambda: getattr(solvers, entry)(factors, np.full(400, 1e307), 1e-3)
        else:
            model = tucker.TuckerModel(np.ones((2, 2, 2)),
                                       [rs.normal(1.0, 0.03, (20, 2)) for _ in range(3)])
            x = np.full((20, 20, 20), 1e307)
            call = lambda: getattr(tucker, entry)(model, x, *([0] if "factor" in entry else []))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="not finite"):
                call()

    def test_fast_rejects_drawn_entries_whose_norm_overflows(self):
        # every entry of b is finite, but ||S b||^2 overflows: the caller
        # sees bad input, not a PCG breakdown
        rs = np.random.default_rng(self.FACTORS_SEED)
        factors = [rs.normal(1.0, 0.03, (40, 4)) for _ in range(2)]
        b = 1e160 * rs.standard_normal(1600)
        config = RegressionConfig(eps=0.1, delta=0.01, lam=1e-3, alpha=1e-4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="not finite"):
                fast_kronecker_regression(factors, b, config)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_sketch_and_solve_rejects_a_drawn_entry(self, count_calls, bad):
        # the solver's own seeded sketch; one of its draws is made non-finite
        factors, b = self.problem()
        calls = count_calls(solvers, "sparse_diagonal_from_sketch")
        sketch_and_solve_ridge(factors, b, self.CFG)
        (sketch, row_shape), = calls
        b[np.ravel_multi_index(tuple(sketch.indices[0]), row_shape)] = bad
        with pytest.raises(InvalidInputError):
            sketch_and_solve_ridge(factors, b, self.CFG)


class TestPublicBoundary:
    """The package's regression entries are the one place a factor is
    checked: the sketch kernels behind them take it as given."""

    CFG = RegressionConfig(eps=0.25, delta=0.05, lam=1e-3, seed=0, alpha=1e-3)
    ENTRIES = {
        "naive_normal_solve": lambda f, b: kronsolve.naive_normal_solve(f, b, 1e-3),
        "kronmatmul_svd_solve": lambda f, b: kronsolve.kronmatmul_svd_solve(f, b, 1e-3),
        "sketch_and_solve_ridge":
            lambda f, b: kronsolve.sketch_and_solve_ridge(f, b, TestPublicBoundary.CFG),
        "fast_kronecker_regression":
            lambda f, b: kronsolve.fast_kronecker_regression(f, b, TestPublicBoundary.CFG),
        "ridge_loss": lambda f, b: kronsolve.ridge_loss(f, np.ones(6), b, 1e-3),
        "kron_mat_mul": lambda f, b: kronsolve.kron_mat_mul(f, np.ones(6)),
    }

    @staticmethod
    def bad_factor(kind):
        a = np.random.default_rng(1).standard_normal((4, 3))
        if kind == "ndim":
            return a.reshape(4, 3, 1)
        a[1, 2] = {"nan": np.nan, "inf": np.inf}[kind]
        return a

    @pytest.mark.parametrize("kind", ["nan", "inf", "ndim"])
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_entry_rejects_a_bad_factor(self, entry, kind):
        good = np.random.default_rng(0).standard_normal((5, 2))
        with pytest.raises(InvalidInputError):
            self.ENTRIES[entry]([good, self.bad_factor(kind)], np.ones(20))

    @pytest.mark.parametrize("entry", sorted(set(ENTRIES) - {"kron_mat_mul"}))
    def test_entry_rejects_b_of_the_wrong_length(self, entry):
        rng = np.random.default_rng(0)
        factors = [rng.standard_normal((5, 2)), rng.standard_normal((4, 3))]
        with pytest.raises(InvalidInputError):
            self.ENTRIES[entry](factors, np.ones(19))

    # every entry that takes a ridge weight, called on a 5 x 4 x 3 problem
    LAM_ENTRIES = {
        "RegressionConfig": lambda f, b, x, lam: RegressionConfig(lam=lam),
        "naive_normal_solve": lambda f, b, x, lam: kronsolve.naive_normal_solve(f, b, lam),
        "kronmatmul_svd_solve":
            lambda f, b, x, lam: kronsolve.kronmatmul_svd_solve(f, b, lam),
        "fast_kronecker_regression": lambda f, b, x, lam: kronsolve.fast_kronecker_regression(
            f, b, dataclasses.replace(TestPublicBoundary.CFG, lam=lam)),
        "ridge_loss": lambda f, b, x, lam: kronsolve.ridge_loss(f, np.ones(6), b, lam),
        "ridge_leverage_scores":
            lambda f, b, x, lam: kronsolve.ridge_leverage_scores(compact_svd(f[0]), lam),
        "TuckerModel": lambda f, b, x, lam: tucker.TuckerModel(
            core=np.ones((2, 2, 2)), factors=[np.ones((5, 2))] * 3, lam=lam),
        "build_factor_workspace": lambda f, b, x, lam: tucker.build_factor_workspace(
            tucker.TuckerModel(core=np.ones((2, 2, 2)), factors=[np.eye(5, 2)] * 3),
            0, 0.25, lam),
        "tucker_als": lambda f, b, x, lam: kronsolve.tucker_als(x, (2, 2, 2), lam=lam,
                                                                sweeps=1),
    }

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0, 0.1 + 0j, "0.1", True])
    @pytest.mark.parametrize("entry", sorted(LAM_ENTRIES))
    def test_entry_rejects_a_bad_lambda(self, entry, lam):
        rng = np.random.default_rng(0)
        factors = [rng.standard_normal((5, 2)), rng.standard_normal((4, 3))]
        x = rng.standard_normal((5, 4, 3))
        with pytest.raises(InvalidInputError, match="lambda"):
            self.LAM_ENTRIES[entry](factors, np.ones(20), x, lam)

    # every other real number the boundary takes: the call and the name its
    # error gives; each range check follows the type check
    SCALAR_ENTRIES = {
        "RegressionConfig(eps)": (lambda v: RegressionConfig(eps=v), "eps"),
        "RegressionConfig(delta)": (lambda v: RegressionConfig(delta=v), "delta"),
        "RegressionConfig(alpha)": (lambda v: RegressionConfig(alpha=v), "alpha"),
        "generate_synth_tucker(noise)": (
            lambda v: experiments.generate_synth_tucker((6, 6, 6), (2, 2, 2), v, 0),
            "--noise"),
    }

    @pytest.mark.parametrize("value", [0.1 + 0j, "0.1", True])
    @pytest.mark.parametrize("entry", sorted(SCALAR_ENTRIES))
    def test_entry_rejects_a_scalar_that_is_not_real(self, entry, value):
        call, name = self.SCALAR_ENTRIES[entry]
        with pytest.raises(InvalidInputError,
                           match=f"^{re.escape(name)} must be a real number"):
            call(value)

    @pytest.mark.parametrize("real", [float, np.float64, np.float32])
    @pytest.mark.parametrize("entry", sorted(SCALAR_ENTRIES))
    def test_entry_takes_a_numpy_real(self, entry, real):
        # 0.1 lies inside the range of every entry above
        call, _ = self.SCALAR_ENTRIES[entry]
        call(real(0.1))

    # every integer the boundary takes: the call, a value outside the
    # argument's range, and how its error begins; a 5 x 4 x 3 tensor
    @staticmethod
    def int_model():
        return tucker.TuckerModel(core=np.ones((2, 2, 2)),
                                  factors=[np.eye(5, 2), np.eye(4, 2), np.eye(3, 2)])

    INT_ENTRIES = {
        "RegressionConfig(seed)": (lambda v: RegressionConfig(seed=v), -1, "seed"),
        "run_regression_experiment(seeds)": (
            lambda v: experiments.run_regression_experiment(
                4, 2, 2, RegressionConfig(), [v], ["kronmatmul"]), -1, "seed"),
        "run_regression_experiment(repeats)": (
            lambda v: experiments.run_regression_experiment(
                4, 2, 2, RegressionConfig(), [0], ["kronmatmul"], repeats=v), 0, "repeats"),
        "tucker_als(sweeps)": (
            lambda v: kronsolve.tucker_als(np.ones((5, 4, 3)), (2, 2, 2), sweeps=v),
            0, "sweeps"),
        "tucker_als(core_shape)": (
            lambda v: kronsolve.tucker_als(np.ones((5, 4, 3)), (2, v, 2), sweeps=1),
            5, "core shape entry 1"),
        "naive_factor_update(n)": (
            lambda v: kronsolve.naive_factor_update(
                TestPublicBoundary.int_model(), np.ones((5, 4, 3)), v), 3, "mode"),
        "fast_factor_matrix_update(n)": (
            lambda v: kronsolve.fast_factor_matrix_update(
                TestPublicBoundary.int_model(), np.ones((5, 4, 3)), v,
                TestPublicBoundary.CFG), 3, "mode"),
        "unfold(mode)": (lambda v: kronsolve.unfold(np.ones((5, 4, 3)), v), 3, "mode"),
        "generate_synth_regression(n)": (
            lambda v: experiments.generate_synth_regression(v, 2, 2, 0), 1, "n"),
        "generate_synth_regression(d)": (
            lambda v: experiments.generate_synth_regression(4, v, 2, 0), 0, "d"),
        "generate_synth_regression(order)": (
            lambda v: experiments.generate_synth_regression(4, 2, v, 0), 0, "order"),
        "generate_synth_tucker(shape)": (
            lambda v: experiments.generate_synth_tucker((6, v, 6), (2, 2, 2), 0.0, 0),
            0, "--synthetic entry 1"),
        "generate_synth_tucker(rank)": (
            lambda v: experiments.generate_synth_tucker((6, 6, 6), (2, v, 2), 0.0, 0),
            7, "--true-rank entry 1"),
        "generate_synth_regression(seed)": (
            lambda v: experiments.generate_synth_regression(4, 2, 2, v), -1, "seed"),
        "generate_synth_tucker(seed)": (
            lambda v: experiments.generate_synth_tucker((6, 6, 6), (2, 2, 2), 0.0, v),
            -1, "seed"),
    }

    @pytest.mark.parametrize("kind", ["bool", "float", "out of range"])
    @pytest.mark.parametrize("entry", sorted(INT_ENTRIES))
    def test_entry_rejects_a_bad_integer(self, entry, kind):
        call, outside, name = self.INT_ENTRIES[entry]
        value = {"bool": True, "float": 2.5, "out of range": outside}[kind]
        with pytest.raises(InvalidInputError, match=f"^{re.escape(name)} must be"):
            call(value)

    @pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8])
    @pytest.mark.parametrize("entry", sorted(INT_ENTRIES))
    def test_entry_takes_a_numpy_integer(self, entry, integer):
        # 2 lies inside the range of every entry above
        call, _, _ = self.INT_ENTRIES[entry]
        call(integer(2))

    @staticmethod
    def write_and_read(x):
        with tempfile.TemporaryDirectory() as tmp:
            kronsolve.write_tensor(f"{tmp}/x.ktn", x)
            return kronsolve.read_tensor(f"{tmp}/x.ktn")

    # every array the boundary takes: the call, the array's shape and the
    # name its error gives; the other arguments are those of a 5 x 4 x 3 problem
    FACTORS = [np.eye(5, 2) + 1.0, np.eye(4, 3) + 2.0]
    REAL_ENTRIES = {
        "kron_mat_mul(b)": (lambda a: kronsolve.kron_mat_mul(TestPublicBoundary.FACTORS, a),
                            (6,), "b"),
        "kron_mat_mul(factors)": (
            lambda a: kronsolve.kron_mat_mul([np.eye(5, 2), a], np.ones(6)), (4, 3),
            "factor 1"),
        "kron_vec_square(c)": (lambda a: kron.kron_vec_square([np.eye(2), np.eye(3)], a),
                               (6,), "vector"),
        "ridge_loss(x)": (
            lambda a: kronsolve.ridge_loss(TestPublicBoundary.FACTORS, a, np.ones(20), 1e-3),
            (6,), "x"),
        "ridge_loss(b)": (
            lambda a: kronsolve.ridge_loss(TestPublicBoundary.FACTORS, np.ones(6), a, 1e-3),
            (20,), "b"),
        "naive_normal_solve(b)": (
            lambda a: kronsolve.naive_normal_solve(TestPublicBoundary.FACTORS, a,
                                                   1e-3).solution, (20,), "b"),
        "kronmatmul_svd_solve(b)": (
            lambda a: kronsolve.kronmatmul_svd_solve(TestPublicBoundary.FACTORS, a,
                                                     1e-3).solution, (20,), "b"),
        "sketch_and_solve_ridge(b)": (
            lambda a: kronsolve.sketch_and_solve_ridge(
                TestPublicBoundary.FACTORS, a, TestPublicBoundary.CFG).solution, (20,), "b"),
        "fast_kronecker_regression(b)": (
            lambda a: kronsolve.fast_kronecker_regression(
                TestPublicBoundary.FACTORS, a, TestPublicBoundary.CFG).solution, (20,), "b"),
        "fast_kronecker_regression(factors)": (
            lambda a: kronsolve.fast_kronecker_regression(
                [a, np.eye(4, 3) + 2.0], np.ones(20), TestPublicBoundary.CFG).solution,
            (5, 2), "factor 0"),
        "compact_svd(a)": (lambda a: kronsolve.compact_svd(a).sigma, (5, 2), "matrix"),
        "multi_mode_product(x)": (
            lambda a: kronsolve.multi_mode_product(a, [np.eye(5), np.eye(4), np.eye(3)]),
            (5, 4, 3), "tensor"),
        "unfold(x)": (lambda a: kronsolve.unfold(a, 1), (5, 4, 3), "tensor"),
        "write_tensor(x)": (lambda a: TestPublicBoundary.write_and_read(a), (5, 4, 3),
                            "tensor"),
        "tucker_als(x)": (lambda a: kronsolve.tucker_als(a, (2, 2, 2), sweeps=1)[0].core,
                          (5, 4, 3), "tensor"),
        "relative_error(x)": (
            lambda a: kronsolve.relative_error(TestPublicBoundary.int_model(), a),
            (5, 4, 3), "tensor"),
        "regularized_loss(x)": (
            lambda a: kronsolve.regularized_loss(TestPublicBoundary.int_model(), a),
            (5, 4, 3), "tensor"),
        "core_update(x)": (
            lambda a: kronsolve.core_update(TestPublicBoundary.int_model(), a),
            (5, 4, 3), "tensor"),
        "naive_factor_update(x)": (
            lambda a: kronsolve.naive_factor_update(TestPublicBoundary.int_model(), a, 1),
            (5, 4, 3), "tensor"),
        "fast_factor_matrix_update(x)": (
            lambda a: kronsolve.fast_factor_matrix_update(
                TestPublicBoundary.int_model(), a, 1, TestPublicBoundary.CFG),
            (5, 4, 3), "tensor"),
        "TuckerModel(core)": (
            lambda a: tucker.TuckerModel(
                core=a, factors=[np.eye(5, 2), np.eye(4, 2), np.eye(3, 2)]).core,
            (2, 2, 2), "core"),
        "TuckerModel(factors)": (
            lambda a: tucker.TuckerModel(
                core=np.ones((2, 2, 2)), factors=[a, np.eye(4, 2), np.eye(3, 2)]).factors[0],
            (5, 2), "factor 0"),
    }

    @staticmethod
    def real_array(shape):
        """Integer-valued entries in 1..3, so every dtype below holds them."""
        return np.random.default_rng(3).integers(1, 4, shape)

    @pytest.mark.parametrize("kind", ["complex", "string", "ragged"])
    @pytest.mark.parametrize("entry", sorted(REAL_ENTRIES))
    def test_entry_rejects_an_array_that_is_not_real(self, entry, kind):
        # before the one rule a complex array was solved by its real part,
        # and a string array of numbers was parsed; a ragged nested list
        # raised numpy's bare ValueError
        call, shape, name = self.REAL_ENTRIES[entry]
        a = self.real_array(shape)
        bad = {"complex": lambda: a + 0.5j, "string": lambda: a.astype(str),
               "ragged": lambda: [a.tolist(), a.tolist()[:-1]]}[kind]()
        with pytest.raises(InvalidInputError, match=f"^{re.escape(name)} must be a real array"):
            call(bad)

    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint16, np.bool_, np.float32])
    @pytest.mark.parametrize("entry", sorted(REAL_ENTRIES))
    def test_entry_takes_a_real_array_as_its_float64_conversion(self, entry, dtype):
        call, shape, _ = self.REAL_ENTRIES[entry]
        a = self.real_array(shape)
        if dtype is np.bool_:
            a = a >= 2
            a.flat[0] = True  # no factor of all zeros
        a = a.astype(dtype)
        np.testing.assert_array_equal(call(a), call(a.astype(np.float64)))


class TestConfig:
    def test_default_iteration_cap(self):
        cfg = RegressionConfig(eps=0.25)
        assert cfg.effective_max_iters == 8 * math.ceil(math.log(4.0))

    def test_range_validation(self):
        with pytest.raises(InvalidInputError):
            RegressionConfig(eps=0.0)
        with pytest.raises(InvalidInputError):
            RegressionConfig(delta=1.0)
        with pytest.raises(InvalidInputError):
            RegressionConfig(lam=-1.0)
        with pytest.raises(InvalidInputError):
            RegressionConfig(alpha=0.0)

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # numpy's seeding raised a bare ValueError on -1 and 1.5 at the first draw
        with pytest.raises(InvalidInputError, match="seed"):
            RegressionConfig(seed=seed)

    @pytest.mark.parametrize("seed", [0, 7, np.uint32(4_000_000_000), np.int64(5)])
    def test_integer_seeds_pass(self, seed):
        assert RegressionConfig(seed=seed).seed == seed
