"""Self-contained oracle-equivalence checks behind ``kronsolve check``.

Each check compares a fast code path against an independent dense
computation on a fixed-seed instance and prints one pass/fail line.
"""

from __future__ import annotations

import tempfile
from functools import reduce
from pathlib import Path

import numpy as np


def run_checks() -> int:
    from . import kron, leverage, solvers, tensor, tensor_io, tucker

    rng = np.random.default_rng(20240901)
    failures = 0

    def check(name, ok, detail=""):
        nonlocal failures
        if ok:
            print(f"ok   {name}")
        else:
            failures += 1
            print(f"FAIL {name}{': ' + detail if detail else ''}")

    # row-major flattening of a multi-mode product vs explicit Kronecker expansion
    g = rng.standard_normal((2, 3, 2))
    facs = [rng.standard_normal((3, 2)), rng.standard_normal((4, 3)),
            rng.standard_normal((2, 2))]
    lhs = tensor.multi_mode_product(g, facs).reshape(-1)
    rhs = tensor.explicit_kron(facs) @ g.reshape(-1)
    check("multi_mode_product/kron consistency", np.allclose(lhs, rhs, atol=1e-12))

    # implicit multiplies vs dense
    dense = reduce(np.kron, facs)
    b = rng.standard_normal((dense.shape[1], 3))
    check("kron_mat_mul", np.allclose(kron.kron_mat_mul(facs, b), dense @ b,
                                      atol=1e-10))
    sq = [rng.standard_normal((2, 2)), rng.standard_normal((3, 3))]
    c = rng.standard_normal(6)
    check("kron_vec_square",
          np.allclose(kron.kron_vec_square(sq, c), reduce(np.kron, sq) @ c,
                      atol=1e-10))

    # sketched applies vs dense
    rows = dense.shape[0]
    idx = np.sort(rng.choice(rows, size=5, replace=False)).astype(np.int64)
    vals = rng.standard_normal(5)
    multi = np.stack(np.unravel_index(idx, [a.shape[0] for a in facs]), axis=1)
    sd = kron.SparseDiagonal(indices=multi, values=vals)
    cvec = rng.standard_normal(dense.shape[1])
    smat = np.zeros((rows, rows))
    smat[idx, idx] = vals
    check("sketched_kron_apply",
          np.allclose(kron.sketched_kron_apply(facs, sd, cvec),
                      (smat @ dense @ cvec)[idx], atol=1e-10))
    bv = rng.standard_normal(5)
    bfull = np.zeros(rows)
    bfull[idx] = bv
    check("sketched_kron_transpose_apply",
          np.allclose(kron.sketched_kron_transpose_apply(facs, sd, bv),
                      dense.T @ smat @ bfull, atol=1e-10))

    # SketchedKron's normal apply, its nonzeros grouped by right-group row,
    # vs the dense K^T S^2 K at orders 2 and 3 (left group 6 rows), and its
    # fused pass over the groups vs its two public applies, to the bit; its
    # 10 right rows hold 1 to 6 nonzeros, two rows in most groups; its own
    # generator leaves the later instances as they were
    grng = np.random.default_rng(20240903)
    gaps = []
    for shapes in ([(6, 2), (12, 2)], [(6, 2), (3, 2), (4, 2)]):
        gf = [grng.standard_normal(s) for s in shapes]
        n_right = gf[1].shape[0] * (gf[2].shape[0] if len(gf) == 3 else 1)
        counts = (4, 1, 6, 2, 5, 3, 1, 2, 4, 6)
        right = grng.choice(n_right, size=len(counts), replace=False)
        flat = np.sort(np.concatenate([grng.choice(6, size=k, replace=False) * n_right + r
                                       for r, k in zip(right, counts)]))
        multi = np.stack(np.unravel_index(flat, [a.shape[0] for a in gf]), axis=1)
        gd = kron.SparseDiagonal(indices=multi, values=grng.uniform(0.1, 2.0, flat.size))
        op = kron.SketchedKron(gf, gd)
        sk = gd.values[:, None] * tensor.explicit_kron(gf)[flat]
        x = grng.standard_normal(sk.shape[1])
        want = sk.T @ (sk @ x)
        got = op.normal(x)
        gaps.append((len(op.groups), np.linalg.norm(got - want) / np.linalg.norm(want),
                     np.array_equal(got, op.transpose_apply(op.apply(x)))))
    check("sketched operator, grouped by right row",
          all(groups == 6 and gap <= 1e-12 and fused for groups, gap, fused in gaps),
          "; ".join(f"{groups} groups, relative difference {gap:.2e}, "
                    f"normal {'is' if fused else 'is not'} bitwise its two applies"
                    for groups, gap, fused in gaps))

    # exact solvers agree
    sf = [rng.standard_normal((8, 3)), rng.standard_normal((6, 2))]
    bb = rng.standard_normal(48)
    r1 = solvers.naive_normal_solve(sf, bb, 1e-3)
    r2 = solvers.kronmatmul_svd_solve(sf, bb, 1e-3)
    check("exact solver agreement",
          np.allclose(r1.solution, r2.solution, atol=1e-8))

    # leverage product law
    small = [rng.standard_normal((4, 2)), rng.standard_normal((3, 2))]
    per = [leverage.statistical_leverage_scores(a) for a in small]
    sampler = leverage.build_product_sampler(per)
    joint = np.outer(sampler.per_factor_probabilities[0],
                     sampler.per_factor_probabilities[1]).reshape(-1)
    full = leverage.statistical_leverage_scores(tensor.explicit_kron(small))
    check("leverage product law",
          np.allclose(joint, full.normalized(), atol=1e-9))

    # PCG with the exact normal matrix as preconditioner converges in one step
    a = rng.standard_normal((8, 3))
    ata = a.T @ a
    inv = np.linalg.inv(ata)
    x, iters, _ = solvers.pcg_solve(
        lambda v: ata @ v, lambda v: inv @ v, a.T @ bb[:8],
        solvers.RegressionConfig(eps=0.25), float(bb[:8] @ bb[:8]))
    xstar = np.linalg.lstsq(a, bb[:8], rcond=None)[0]
    check("pcg exact preconditioner",
          iters == 1 and np.allclose(x, xstar, atol=1e-8))

    # Woodbury-corrected preconditioner vs dense pseudoinverse
    model = tucker.TuckerModel(
        core=rng.standard_normal((2, 3, 2)),
        factors=[rng.standard_normal((5, 2)), rng.standard_normal((6, 3)),
                 rng.standard_normal((4, 2))], lam=0.1)
    ws = tucker.build_factor_workspace(model, 0, eps=0.25, lam=0.1)
    others = [model.factors[1], model.factors[2]]
    kd = tensor.explicit_kron(others)
    gmat = tensor.unfold(model.core, 0)
    gp = np.linalg.pinv(gmat)
    nproj = np.eye(gmat.shape[1]) - gmat.T @ np.linalg.pinv(gmat.T)
    m = kd.T @ kd + 0.1 * gp @ gp.T + ws.penalty_weight * nproj
    z = rng.standard_normal(gmat.shape[1])
    check("woodbury preconditioner",
          np.allclose(ws.apply(z), np.linalg.pinv(m) @ z, atol=1e-8))

    # sketched block factor update vs every row's dense sketched ridge
    # solution from the same sketch (one rescaled row per draw)
    xb = rng.standard_normal((5, 6, 4))
    cfg = solvers.RegressionConfig(eps=0.25, delta=0.05, lam=0.1, alpha=1e-5, seed=7)
    s = leverage.regression_sample_count(6, cfg.eps, cfg.alpha, np.log(5 / cfg.delta))
    sketch = leverage.sample_rows(leverage.build_product_sampler(
        [leverage.statistical_leverage_scores(a) for a in others]), s, cfg.seed)
    flat = np.ravel_multi_index(tuple(sketch.indices.T), (6, 4))
    design = sketch.weights[:, None] * kd[flat] @ gmat.T
    sb = sketch.weights[:, None] * tensor.unfold(xb, 0)[:, flat].T
    want = np.linalg.pinv(design.T @ design + 0.1 * np.eye(2)) @ (design.T @ sb)
    got = tucker.fast_factor_matrix_update(model, xb, 0, cfg)
    check("tucker block factor update",
          s < 24 and np.allclose(got, want.T, rtol=1e-10, atol=0),
          f"{s} draws, largest difference {np.max(np.abs(got - want.T))!r}")

    # a fast sweep's core is the exact ridge core at the factors it ends with,
    # from factor updates that each draw fewer rows than they have
    xc = rng.standard_normal((5, 6, 4))
    ranks = (2, 3, 2)
    cfg = solvers.RegressionConfig(eps=0.25, delta=0.05, alpha=1e-5, seed=8)
    sketched = all(
        leverage.regression_sample_count(
            int(np.prod(ranks)) // ranks[n], cfg.eps, cfg.alpha,
            np.log(xc.shape[n] / cfg.delta)) < xc.size // xc.shape[n]
        for n in range(3))
    fitted, _ = tucker.tucker_als(xc, ranks, lam=0.1, sweeps=1, solver_mode="fast",
                                  config=cfg)
    want = tucker.core_update(fitted, xc)
    gap = np.linalg.norm(fitted.core - want) / np.linalg.norm(want)
    check("tucker fast sweep core is the exact ridge core",
          sketched and gap <= 1e-12, f"sketched {sketched}, relative difference {gap!r}")

    # Tucker loss from the Gram identity vs the dense reconstruction, with
    # the error at 1e-4 of ||X||^2 so that the identity's terms cancel
    xhat = tucker.reconstruct(model)
    noise = rng.standard_normal(xhat.shape)
    xt = xhat + 1e-2 * np.linalg.norm(xhat) / np.linalg.norm(noise) * noise
    err, loss = tucker._fit(model, xt, float(np.sum(xt**2)))
    dense_err = float(np.sum((xhat - xt) ** 2))
    dense_loss = dense_err + model.lam * (
        float(np.sum(model.core**2)) + sum(float(np.sum(f**2)) for f in model.factors))
    check("tucker loss identity",
          abs(err - dense_err) <= 1e-10 * dense_err
          and abs(loss - dense_loss) <= 1e-10 * dense_loss,
          f"error {err!r} vs {dense_err!r}, loss {loss!r} vs {dense_loss!r}")

    # regression loss read off (U kron ...)^T b and ||b||^2 vs the dense
    # residual of the same solution
    resid = reduce(np.kron, sf) @ r2.solution - bb
    dense_loss = float(resid @ resid) + 1e-3 * float(r2.solution @ r2.solution)
    check("regression loss identity",
          abs(r2.loss - dense_loss) <= 1e-10 * dense_loss,
          f"loss {r2.loss!r} vs {dense_loss!r}")

    # exact factor update vs every row's minimum-norm least-squares solution
    # of the stacked [K; sqrt(lam) I], with a zero column in another factor
    zeroed = [f.copy() for f in model.factors]
    zeroed[2][:, 1] = 0.0
    kz = tensor.explicit_kron(zeroed[1:]) @ gmat.T
    xf = rng.standard_normal((5, 6, 4))
    want = np.linalg.lstsq(np.vstack([kz, np.sqrt(0.1) * np.eye(2)]), np.vstack(
        [tensor.unfold(xf, 0).T, np.zeros((2, 5))]), rcond=None)[0].T
    got = tucker.naive_factor_update(tucker.TuckerModel(model.core, zeroed, 0.1), xf, 0)
    gap = np.linalg.norm(got - want) / np.linalg.norm(want)
    check("tucker exact factor update", gap <= 1e-10, f"relative difference {gap!r}")

    # its sketched twin at lam 0: every row's minimum-norm least-squares
    # solution of the stacked sketched design of the update's own draws (one
    # rescaled row per draw), with the same zero column
    cfg = solvers.RegressionConfig(eps=0.25, delta=0.05, alpha=1e-5, seed=9)
    s = leverage.regression_sample_count(6, cfg.eps, cfg.alpha, np.log(5 / cfg.delta))
    sketch = leverage.sample_rows(leverage.build_product_sampler(
        [leverage.statistical_leverage_scores(a) for a in zeroed[1:]]), s, cfg.seed)
    flat = np.ravel_multi_index(tuple(sketch.indices.T), (6, 4))
    want = np.linalg.lstsq(sketch.weights[:, None] * kz[flat],
                           sketch.weights[:, None] * tensor.unfold(xf, 0)[:, flat].T,
                           rcond=None)[0].T
    got = tucker.fast_factor_matrix_update(tucker.TuckerModel(model.core, zeroed, 0.0),
                                           xf, 0, cfg)
    gap = np.linalg.norm(got - want) / np.linalg.norm(want)
    check("tucker sketched factor update", s < 24 and gap <= 1e-10,
          f"{s} draws, relative difference {gap!r}")

    # the fast regression route on one instance on each side of the size
    # rule of its normal apply (a dense design at 16 columns and 80 draws,
    # SketchedKron at 256 columns and 1,829 draws; KronPreconditioner in
    # both): within 1.5x of OPT, and PCG stops before its cap; its own
    # generator leaves the later instances as they were
    frng = np.random.default_rng(20240902)
    cfg = solvers.RegressionConfig(eps=0.1, delta=0.01, lam=1e-3, alpha=1e-5)
    details = []
    for n, d, dense in ((64, 4, True), (256, 16, False)):
        rf = [frng.normal(1.0, np.sqrt(1e-3), (n, d)) for _ in range(2)]
        rb = np.ones(n * n)
        fast = solvers.fast_kronecker_regression(rf, rb, cfg)
        ratio = fast.loss / solvers.kronmatmul_svd_solve(rf, rb, cfg.lam).loss
        entries = fast.distinct_rows * d * d
        side = (entries <= solvers._DENSE_SKETCH_MAX_ENTRIES) == dense
        details.append((n, d, ratio, fast.converged, side))
    check("fast regression, dense and implicit operators",
          all(1.0 <= r <= 1.5 and conv and side for _, _, r, conv, side in details),
          "; ".join(f"n={n} d={d}: loss/OPT {r:.4g}, converged {conv}, on its side {side}"
                    for n, d, r, conv, side in details))

    # lam 0, K numerically singular (to 1e-18): both routes near dense lstsq
    srng = np.random.default_rng(0)
    sing = [(np.linalg.qr(srng.standard_normal((48, 3)))[0] * np.logspace(0, -9, 3))
            @ np.linalg.qr(srng.standard_normal((3, 3)))[0].T for _ in range(2)]
    sing_b, sing_k = srng.standard_normal(48 * 48), tensor.explicit_kron(sing)
    exact, fast, opt = (float(np.sum((sing_k @ x - sing_b) ** 2)) for x in (
        solvers.kronmatmul_svd_solve(sing, sing_b, 0.0).solution,
        solvers.fast_kronecker_regression(sing, sing_b, solvers.RegressionConfig(
            eps=0.1, delta=0.01, alpha=2e-5)).solution,
        np.linalg.lstsq(sing_k, sing_b, rcond=None)[0]))
    check("ridge solves at lam 0, numerically singular K",
          exact <= 1.001 * opt and fast <= 1.5 * opt,
          f"loss / lstsq optimum: kronmatmul {exact / opt:.6g}, fast {fast / opt:.4g}")

    # tensor file round trip
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.ktn"
        xt = rng.standard_normal((3, 4, 2))
        tensor_io.write_tensor(path, xt)
        back = tensor_io.read_tensor(path)
        check("tensor file roundtrip", np.array_equal(back, xt))

    # a tall factor's CholeskyQR2 SVD vs LAPACK's, at condition number 1e5
    q = np.linalg.qr(rng.standard_normal((2048, 32)))[0]
    w = np.linalg.qr(rng.standard_normal((32, 32)))[0]
    tall = (q * np.logspace(0, -5, 32)) @ w.T
    svd = tensor._cholesky_qr2_svd(tall)
    if svd is None:
        check("tall compact SVD", False, "CholeskyQR2 handed the factor to LAPACK")
    else:
        want = np.linalg.svd(tall, compute_uv=False)
        gaps = (np.max(np.abs(svd.sigma - want)) / want[0],
                np.max(np.abs(svd.u.T @ svd.u - np.eye(32))),
                np.max(np.abs(svd.v.T @ svd.v - np.eye(32))),
                np.linalg.norm(svd.reconstruct() - tall) / np.linalg.norm(tall))
        check("tall compact SVD", max(gaps) <= 1e-12,
              "sigma, u and v orthogonality, reconstruction: "
              + ", ".join(f"{g:.2e}" for g in gaps))

    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0
