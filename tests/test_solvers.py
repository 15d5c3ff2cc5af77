import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kronsolve.solvers as solvers
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
    build_factor_cache,
    build_kron_preconditioner,
    factor_gram,
    fast_kronecker_regression,
    kronmatmul_svd_solve,
    naive_normal_solve,
    richardson_solve,
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


class TestRichardson:
    def test_exact_preconditioner_converges_in_one_step(self, rng):
        a = rng.standard_normal((8, 3))
        b = rng.standard_normal(8)
        ata = a.T @ a
        inv = np.linalg.inv(ata)
        x, iters = richardson_solve(lambda v: ata @ v, lambda v: inv @ v,
                                    a.T @ b, 1.0, RegressionConfig(eps=0.25))
        assert iters == 1
        np.testing.assert_allclose(x, lstsq_solution(a, b), atol=1e-10)

    @pytest.mark.parametrize("kappa", [2.0, 4.0])
    def test_contraction_rate(self, rng, kappa):
        a = rng.standard_normal((8, 3))
        b = rng.standard_normal(8)
        ata = a.T @ a
        m = kappa * ata
        minv = np.linalg.inv(m)
        xstar = lstsq_solution(a, b)

        def mnorm(v):
            return math.sqrt(v @ m @ v)

        # iterate k >= 1 is the argument of the k-th normal apply, and the
        # returned x is iterate ``iters``
        iterates = []

        def apply_normal(v):
            iterates.append(v.copy())
            return ata @ v

        x, iters = richardson_solve(apply_normal, lambda v: minv @ v, a.T @ b,
                                    1.0, RegressionConfig(eps=0.25))
        assert iters >= len(iterates) > 0
        e0 = mnorm(xstar)
        rate = 1.0 - 1.0 / kappa
        for k, xk in [*enumerate(iterates, start=1), (iters, x)]:
            assert mnorm(xk - xstar) <= rate**k * e0 * (1 + 1e-10) + 1e-12

    def test_zero_start_skips_the_zero_product(self, rng):
        a = rng.standard_normal((8, 3))
        b = rng.standard_normal(8)
        ata = a.T @ a
        minv = np.linalg.inv(2.0 * ata)
        rhs = a.T @ b
        cfg = RegressionConfig(eps=0.25)
        calls = []

        def apply_normal(v):
            calls.append(v)
            return ata @ v

        x, iters = richardson_solve(apply_normal, lambda v: minv @ v, rhs, 1.0, cfg)
        # the contraction 1/2 needs more steps than the budget, which is spent
        assert iters == cfg.effective_max_iters > 1
        # the same iteration with the zero product applied gives the same bits
        want = np.zeros(3)
        for _ in range(iters):
            want = want - 1.0 * (minv @ (ata @ want - rhs))
        np.testing.assert_array_equal(x, want)
        assert len(calls) == iters - 1
        assert all(np.any(v) for v in calls)

    def test_divergence_detected(self, rng):
        a = rng.standard_normal((6, 3))
        ata = a.T @ a
        # a negated preconditioner pushes the iterate away from the solution
        bad = -np.linalg.inv(ata)
        with pytest.raises(NumericalFailureError) as err:
            richardson_solve(lambda v: ata @ v, lambda v: bad @ v,
                             rng.standard_normal(3), 1.0,
                             RegressionConfig(eps=0.25))
        assert "residual_history" in err.value.diagnostics


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

    def test_size_guard(self, rng):
        facs = [rng.standard_normal((40, 30)), rng.standard_normal((40, 30))]
        with pytest.raises(SizeGuardError):
            naive_normal_solve(facs, rng.standard_normal(1600), 0.0,
                               max_dense_entries=10_000)


class TestSketchAndSolve:
    def test_full_identity_sketch_is_exact(self, rng):
        facs = [rng.standard_normal((5, 2)), rng.standard_normal((4, 2))]
        b = rng.standard_normal(20)
        lam = 1e-2
        full = RowSketch(indices=np.arange(20), weights=np.ones(20))
        rep = sketch_and_solve_ridge(facs, b, RegressionConfig(lam=lam, seed=0),
                                     sketch=full)
        exact = kronmatmul_svd_solve(facs, b, lam)
        np.testing.assert_allclose(rep.solution, exact.solution, atol=1e-8)

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
        sketch = RowSketch(indices=flat, weights=rng.uniform(0.5, 2.0, flat.size))
        rep = sketch_and_solve_ridge(facs, b, RegressionConfig(lam=0.1, seed=0),
                                     sketch=sketch)
        sk = sketched_rows(facs, sketch)
        want = (np.linalg.pinv(sk.T @ sk + 0.1 * np.eye(6))
                @ (sk.T @ (sketch.weights * b[flat])))
        assert np.linalg.norm(rep.solution - want) <= 1e-12 * np.linalg.norm(want)
        for indices in (np.array([3, 20]), np.array([[0, 1], [5, 0]]),
                        np.array([[0, 1], [0, -1]])):
            outside = RowSketch(indices=indices, weights=np.ones(2))
            with pytest.raises(InvalidInputError):
                sketch_and_solve_ridge(facs, b, RegressionConfig(lam=0.1), sketch=outside)

    def test_sample_count_scales_before_rounding(self, rng):
        # ceil(0.3 * 1680 ln(40) / 0.1) = ceil(18591.95) = 18592; scaling the
        # rounded count instead gives ceil(0.3 * ceil(61973.17)) = 18593
        facs = [rng.standard_normal((5, 1)), rng.standard_normal((4, 1))]
        cfg = RegressionConfig(eps=0.1, lam=1e-2, alpha=0.3, seed=0)
        rep = sketch_and_solve_ridge(facs, rng.standard_normal(20), cfg)
        assert rep.sample_count == 18592


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
        want = np.linalg.pinv(k.T @ k + lam * np.eye(k.shape[1])) @ x
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
        # the loss's dense multiply must not run on top of the operator's
        # precomputed gathers
        ops = []

        class Recording(solvers.SketchedKron):
            def __init__(self, *args):
                super().__init__(*args)
                ops.append(weakref.ref(self))

        original_loss = solvers.ridge_loss

        def checked_loss(*args):
            assert ops and all(ref() is None for ref in ops)
            return original_loss(*args)

        monkeypatch.setattr(solvers, "SketchedKron", Recording)
        monkeypatch.setattr(solvers, "ridge_loss", checked_loss)
        rs = np.random.default_rng(7)
        facs = [rs.normal(1.0, math.sqrt(1e-3), (20, 3)) for _ in range(2)]
        cfg = RegressionConfig(eps=0.25, delta=0.05, lam=1e-3, seed=0, alpha=1e-4)
        rep = fast_kronecker_regression(facs, rs.standard_normal(400), cfg)
        assert rep.iterations > 0
        assert len(ops) == 1

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

    # the Tucker core update, sketched or exact, is the one solve that reads
    # caches; the next three tests pin its cache handling
    def test_cached_factor_data(self, rng, count_calls):
        model = tucker.TuckerModel(core=rng.standard_normal((2, 3)),
                                   factors=[rng.standard_normal((15, 2)),
                                            rng.standard_normal((12, 3))], lam=1e-2)
        x = rng.standard_normal((15, 12))
        caches = [build_factor_cache(a) for a in model.factors]
        sketched = count_calls(tucker, "sketched_ridge_solve")
        # Without caches the update builds the same SVDs, so both calls give
        # the same bits.  alpha=1e-3 asks for more rows than the 180 there
        # are (exact route); at 1e-4 the sketch runs.
        for mode, alpha in (("exact", 1.0), ("fast", 1e-3), ("fast", 1e-4)):
            cfg = RegressionConfig(eps=0.25, delta=0.1, seed=4, alpha=alpha)
            cached = tucker.core_update(model, x, mode=mode, config=cfg, caches=caches)
            plain = tucker.core_update(model, x, mode=mode, config=cfg)
            np.testing.assert_array_equal(plain, cached)
        assert len(sketched) == 2

    def test_exact_fallback_reuses_caches(self, rng, count_calls):
        model = tucker.TuckerModel(core=rng.standard_normal((3, 3)),
                                   factors=[rng.standard_normal((20, 3)) for _ in range(2)],
                                   lam=1e-2)
        caches = [build_factor_cache(a) for a in model.factors]
        svds = [count_calls(solvers, "compact_svd"), count_calls(tucker, "compact_svd")]
        cfg = RegressionConfig(eps=0.25, delta=0.1, alpha=1.0, seed=0)
        core = tucker.core_update(model, rng.standard_normal((20, 20)), mode="fast",
                                  config=cfg, caches=caches)
        assert core.shape == (3, 3)
        assert sum(len(calls) for calls in svds) == 0

    def test_mismatched_caches_rejected(self, rng):
        model = tucker.TuckerModel(core=rng.standard_normal((2, 3)),
                                   factors=[rng.standard_normal((40, 2)),
                                            rng.standard_normal((12, 3))], lam=1e-2)
        x = rng.standard_normal((40, 12))
        cfg = RegressionConfig(eps=0.25, delta=0.1, seed=4, alpha=1e-4)
        wrong = []
        for rows in (25, 50):
            wrong.append([build_factor_cache(rng.standard_normal((rows, 2))),
                          build_factor_cache(model.factors[1])])
        # right rows, wrong column count; and one cache short
        wrong.append([build_factor_cache(model.factors[0]),
                      build_factor_cache(rng.standard_normal((12, 2)))])
        wrong.append(wrong[-1][:1])
        for caches in wrong:
            for mode in ("exact", "fast"):
                with pytest.raises(InvalidInputError):
                    tucker.core_update(model, x, mode=mode, config=cfg, caches=caches)

    def test_report_loss_matches_solution(self, rng):
        facs = [rng.standard_normal((12, 2)), rng.standard_normal((10, 2))]
        b = rng.standard_normal(120)
        cfg = RegressionConfig(eps=0.25, delta=0.1, lam=1e-3, seed=2, alpha=1e-3)
        rep = fast_kronecker_regression(facs, b, cfg)
        assert rep.loss == pytest.approx(
            ridge_loss(facs, rep.solution, b, 1e-3), abs=1e-10)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_sketch_and_solve_rejects_a_drawn_entry(self, bad):
        factors, b = self.problem()
        sketch = RowSketch(indices=np.array([[0, 1], [5, 2], [5, 2], [19, 19]]),
                           weights=np.ones(4))
        b[5 * 20 + 2] = bad
        with pytest.raises(InvalidInputError):
            sketch_and_solve_ridge(factors, b, self.CFG, sketch=sketch)


class TestConfig:
    def test_default_damping_and_iters(self):
        cfg = RegressionConfig(eps=0.25)
        assert cfg.effective_damping == pytest.approx(0.5)
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
