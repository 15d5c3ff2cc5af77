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

    # vectorization vs explicit Kronecker expansion
    g = rng.standard_normal((2, 3, 2))
    facs = [rng.standard_normal((3, 2)), rng.standard_normal((4, 3)),
            rng.standard_normal((2, 2))]
    lhs = tensor.vectorize(tensor.multi_mode_product(g, facs))
    rhs = tensor.explicit_kron(facs) @ tensor.vectorize(g)
    check("vectorize/kron consistency", np.allclose(lhs, rhs, atol=1e-12))

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
    sd = kron.SparseDiagonal(indices=idx, values=vals)
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

    # Richardson with the exact normal matrix converges in one step
    a = rng.standard_normal((8, 3))
    ata = a.T @ a
    inv = np.linalg.inv(ata)
    x, iters = solvers.richardson_solve(
        lambda v: ata @ v, lambda v: inv @ v, a.T @ bb[:8], 1.0,
        solvers.RegressionConfig(eps=0.25))
    xstar = np.linalg.lstsq(a, bb[:8], rcond=None)[0]
    check("richardson exact preconditioner",
          iters <= 1 and np.allclose(x, xstar, atol=1e-8))

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

    # sketched core update vs the dense sketched ridge solution from the
    # same sketch (one rescaled row per draw)
    xc = rng.standard_normal((5, 6, 4))
    cfg = solvers.RegressionConfig(eps=0.25, delta=0.05, alpha=1e-5, seed=8)
    s = leverage.regression_sample_count(12, cfg.eps, cfg.alpha, np.log(1 / cfg.delta))
    sketch = leverage.sample_rows(leverage.build_product_sampler(
        [leverage.statistical_leverage_scores(a) for a in model.factors]), s, cfg.seed)
    flat = np.ravel_multi_index(tuple(sketch.indices.T), xc.shape)
    design = sketch.weights[:, None] * tensor.explicit_kron(model.factors)[flat]
    want = np.linalg.pinv(design.T @ design + 0.1 * np.eye(12)) @ (
        design.T @ (sketch.weights * xc.reshape(-1)[flat]))
    got = tucker.core_update(model, xc, mode="fast", config=cfg).reshape(-1)
    check("tucker sketched core update",
          s < xc.size and np.allclose(got, want, rtol=1e-10, atol=0),
          f"{s} draws, largest difference {np.max(np.abs(got - want))!r}")

    # Tucker loss from the Gram identity vs the dense reconstruction, with
    # the error at 1e-4 of ||X||^2 so that the identity's terms cancel
    xhat = tucker.reconstruct(model)
    noise = rng.standard_normal(xhat.shape)
    xt = xhat + 1e-2 * np.linalg.norm(xhat) / np.linalg.norm(noise) * noise
    err, loss = tucker._fit(model, xt, float(np.sum(xt**2)),
                            [tensor.compact_svd(f) for f in model.factors])
    dense_err = float(np.sum((xhat - xt) ** 2))
    dense_loss = dense_err + model.lam * (
        float(np.sum(model.core**2)) + sum(float(np.sum(f**2)) for f in model.factors))
    check("tucker loss identity",
          abs(err - dense_err) <= 1e-10 * dense_err
          and abs(loss - dense_loss) <= 1e-10 * dense_loss,
          f"error {err!r} vs {dense_err!r}, loss {loss!r} vs {dense_loss!r}")

    # tensor file round trip
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.ktn"
        xt = rng.standard_normal((3, 4, 2))
        tensor_io.write_tensor(path, xt)
        back = tensor_io.read_tensor(path)
        check("tensor file roundtrip", np.array_equal(back, xt))

    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0
