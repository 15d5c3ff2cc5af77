"""Acceptance criteria.

Every test here enforces one acceptance criterion at its stated tolerance
and prints one ``[PASS]``/``[FAIL]`` line (visible with ``pytest -s`` or by
running this file directly).  The runtime-scaling criterion is soft: it
reports a ``[WARN]`` on violation instead of failing, since wall-clock
ratios are noisy.
"""

import itertools
import math
import time
from functools import reduce

import numpy as np
import pytest

from kronsolve.kron import (
    SparseDiagonal,
    kron_mat_mul,
    kron_vec_square,
    sketched_kron_apply,
    sketched_kron_transpose_apply,
)
from kronsolve.leverage import (
    build_product_sampler,
    spectral_approx_rows,
    statistical_leverage_scores,
)
from kronsolve.solvers import (
    RegressionConfig,
    fast_kronecker_regression,
    kronmatmul_svd_solve,
    naive_normal_solve,
    pcg_solve,
    sketch_and_solve_ridge,
)
from kronsolve.tensor import unfold
from kronsolve.tucker import TuckerModel, build_factor_workspace, tucker_als
from kronsolve.experiments import generate_synth_regression, generate_synth_tucker

RESULTS = []


def report(name, ok, elapsed, limit, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {name}: {detail} ({elapsed:.2f}s / limit {limit:.0f}s)"
    RESULTS.append(line)
    print(line, flush=True)
    return ok and elapsed < limit


def dense_kron(factors):
    return reduce(np.kron, [np.asarray(a, float) for a in factors])


def dense_ridge_scores(a, lam):
    inv = np.linalg.pinv(a.T @ a + lam * np.eye(a.shape[1]))
    return np.einsum("ij,jk,ik->i", a, inv, a)


def test_kronecker_leverage_law():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_stat = worst_ridge = 0.0
    for _ in range(50):
        order = int(rng.integers(2, 4))
        shapes = [(int(rng.integers(2, 7)), int(rng.integers(1, 5)))
                  for _ in range(order)]
        shapes = [(max(r, c), c) for r, c in shapes]
        facs = [rng.standard_normal(s) for s in shapes]
        k = dense_kron(facs)

        # statistical law: product of per-factor distributions
        sampler = build_product_sampler(
            [statistical_leverage_scores(a) for a in facs])
        joint = reduce(np.kron, sampler.per_factor_probabilities)
        full = statistical_leverage_scores(k).normalized()
        worst_stat = max(worst_stat, float(np.max(np.abs(joint - full))))

        # ridge law: direct summation over singular triples vs the dense
        # definition a_i (K^T K + lam I)^+ a_i^T
        lam = float(rng.uniform(0.01, 1.0))
        svds = [np.linalg.svd(a, full_matrices=False) for a in facs]
        want = dense_ridge_scores(k, lam)
        got = np.zeros(k.shape[0])
        rows_ranges = [range(s[0]) for s in shapes]
        cols_ranges = [range(min(s)) for s in shapes]
        for flat, rows in enumerate(itertools.product(*rows_ranges)):
            total = 0.0
            for t in itertools.product(*cols_ranges):
                sig2 = math.prod(svds[n][1][t[n]] ** 2 for n in range(order))
                u2 = math.prod(svds[n][0][rows[n], t[n]]
                               for n in range(order)) ** 2
                if sig2 + lam > 0:
                    total += sig2 / (sig2 + lam) * u2
            got[flat] = total
        worst_ridge = max(worst_ridge, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - t0
    ok = worst_stat <= 1e-9 and worst_ridge <= 1e-9
    assert report("kronecker-leverage-law", ok, elapsed, 5,
                  f"stat dev {worst_stat:.2e}, ridge dev {worst_ridge:.2e}")


def test_fast_multiply_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        order = int(rng.integers(1, 5))
        while True:
            shapes = [(int(rng.integers(1, 9)), int(rng.integers(1, 5)))
                      for _ in range(order)]
            if math.prod(s[0] for s in shapes) <= 2000:
                break
        facs = [rng.standard_normal(s) for s in shapes]
        dense = dense_kron(facs)
        n_rows, n_cols = dense.shape

        b = rng.standard_normal((n_cols, 2))
        dev = np.max(np.abs(kron_mat_mul(facs, b) - dense @ b))
        worst = max(worst, dev / max(1.0, np.max(np.abs(dense @ b))))

        sq = [rng.standard_normal((s[1], s[1])) for s in shapes]
        c = rng.standard_normal(n_cols)
        dsq = dense_kron(sq)
        dev = np.max(np.abs(kron_vec_square(sq, c) - dsq @ c))
        worst = max(worst, dev / max(1.0, np.max(np.abs(dsq @ c))))

        nnz = int(rng.integers(1, max(2, n_rows // 3)))
        idx = np.sort(rng.choice(n_rows, size=nnz, replace=False)).astype(np.int64)
        multi = np.stack(np.unravel_index(idx, [s[0] for s in shapes]), axis=1)
        sd = SparseDiagonal(indices=multi, values=rng.standard_normal(nnz))
        smat = np.zeros((n_rows, n_rows))
        smat[idx, idx] = sd.values
        cv = rng.standard_normal(n_cols)
        want = (smat @ dense @ cv)[idx]
        dev = np.max(np.abs(sketched_kron_apply(facs, sd, cv) - want),
                     initial=0.0)
        worst = max(worst, dev / max(1.0, np.max(np.abs(want), initial=0.0)))

        bv = rng.standard_normal(nnz)
        bf = np.zeros(n_rows)
        bf[idx] = bv
        want = dense.T @ smat @ bf
        dev = np.max(np.abs(sketched_kron_transpose_apply(facs, sd, bv) - want))
        worst = max(worst, dev / max(1.0, np.max(np.abs(want))))
    elapsed = time.perf_counter() - t0
    assert report("fast-multiply-oracle-equivalence", worst <= 1e-10, elapsed,
                  10, f"worst rel dev {worst:.2e} over 100 instances")


def test_approximation_contract():
    t0 = time.perf_counter()
    eps, delta, lam = 0.25, 0.05, 1e-3
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        facs = [rng.normal(1.0, math.sqrt(1e-3), (20, 3)) for _ in range(2)]
        b = rng.standard_normal(400)
        cfg = RegressionConfig(eps=eps, delta=delta, lam=lam, seed=seed)
        rep = fast_kronecker_regression(facs, b, cfg)
        opt = kronmatmul_svd_solve(facs, b, lam)
        hits += rep.loss <= (1 + eps) * opt.loss + 1e-12
    elapsed = time.perf_counter() - t0
    assert report("approximation-contract", hits >= 95, elapsed, 60,
                  f"{hits}/100 seeds within (1+eps) of OPT")


def test_exact_solver_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    lams = [0.0, 1e-3, 1.0]
    for i in range(50):
        order = int(rng.integers(1, 4))
        shapes = [(int(rng.integers(2, 8)), int(rng.integers(1, 4)))
                  for _ in range(order)]
        shapes = [(max(r, c), c) for r, c in shapes]
        facs = [rng.standard_normal(s) for s in shapes]
        b = rng.standard_normal(math.prod(s[0] for s in shapes))
        lam = lams[i % 3]
        r1 = naive_normal_solve(facs, b, lam)
        r2 = kronmatmul_svd_solve(facs, b, lam)
        dev = np.linalg.norm(r1.solution - r2.solution)
        worst = max(worst, dev / max(1.0, np.linalg.norm(r2.solution)))
    elapsed = time.perf_counter() - t0
    assert report("exact-solver-agreement", worst <= 1e-8, elapsed, 10,
                  f"worst rel dev {worst:.2e} over 50 instances")


def test_pcg_rate():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    ok = True
    for trial in range(20):
        a = rng.standard_normal((8, 3))
        b = rng.standard_normal(8)
        ata = a.T @ a
        ata_inv = np.linalg.inv(ata)
        w, q = np.linalg.eigh(ata)
        inv_root = (q / np.sqrt(w)) @ q.T
        basis, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rhs = a.T @ b
        e0 = math.sqrt(rhs @ ata_inv @ rhs)
        for kappa in (1.0, 2.0, 4.0):
            # M A has condition number kappa: its eigenvalues are 1..kappa
            m = inv_root @ ((basis * np.linspace(1.0, kappa, 3)) @ basis.T) @ inv_root
            # iterate k's error is A^{-1} r_k, and r_k is the argument of
            # the k-th preconditioner apply
            residuals = []

            def apply_precond(r):
                residuals.append(r.copy())
                return m @ r

            x, iters, _ = pcg_solve(lambda v: ata @ v, apply_precond, rhs,
                                    RegressionConfig(eps=0.01), float(b @ b))
            errors = [math.sqrt(abs(r @ ata_inv @ r)) for r in residuals]
            errors.append(math.sqrt(abs((x - ata_inv @ rhs) @ ata @ (x - ata_inv @ rhs))))
            rate = (math.sqrt(kappa) - 1) / (math.sqrt(kappa) + 1)
            for k, err in zip([*range(len(residuals)), iters], errors):
                ok &= err <= 2 * rate**k * e0 * 1.01 + 1e-12 * e0
    elapsed = time.perf_counter() - t0
    assert report("pcg-rate", ok, elapsed, 5,
                  "A-norm error within 2((sqrt(kappa)-1)/(sqrt(kappa)+1))^k "
                  "for kappa in {1,2,4}")


def test_woodbury_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(30):
        rng = np.random.default_rng(seed + 500)
        rank = tuple(int(r) for r in rng.integers(2, 5, size=3))
        shape = tuple(r + int(rng.integers(1, 4)) for r in rank)
        lam = float(rng.uniform(0.0, 0.5))
        model = TuckerModel(
            core=rng.standard_normal(rank),
            factors=[rng.standard_normal((i, r)) for i, r in zip(shape, rank)],
            lam=lam)
        n = int(rng.integers(0, 3))
        ws = build_factor_workspace(model, n, eps=0.25, lam=lam)
        others = [a for k, a in enumerate(model.factors) if k != n]
        kd = dense_kron(others)
        g = unfold(model.core, n)
        gp = np.linalg.pinv(g)
        n_mat = np.eye(g.shape[1]) - g.T @ np.linalg.pinv(g.T)
        m = kd.T @ kd + lam * gp @ gp.T + ws.penalty_weight * n_mat
        mp = np.linalg.pinv(m)
        for _ in range(3):
            z = rng.standard_normal(g.shape[1])
            want = mp @ z
            dev = np.linalg.norm(ws.apply(z) - want)
            worst = max(worst, dev / max(1.0, np.linalg.norm(want)))
    elapsed = time.perf_counter() - t0
    assert report("woodbury-correctness", worst <= 1e-8, elapsed, 10,
                  f"worst rel dev {worst:.2e} over 30 cores")


def test_constrained_regression_equivalence():
    t0 = time.perf_counter()
    eps = 0.1
    worst_eq = 0.0
    worst_ratio = 0.0
    for seed in range(30):
        rng = np.random.default_rng(seed + 600)
        k = rng.standard_normal((12, 6))
        g = rng.standard_normal((3, 6))
        b = rng.standard_normal(12)
        lam = float(rng.uniform(0.01, 1.0))
        gtp = np.linalg.pinv(g.T)
        n_mat = np.eye(6) - g.T @ gtp

        # original per-row ridge problem
        design = k @ g.T
        y_star = np.linalg.solve(design.T @ design + lam * np.eye(3),
                                 design.T @ b)
        ridge_val = float(np.sum((design @ y_star - b) ** 2)
                          + lam * np.sum(y_star**2))

        # substituted equality-constrained problem, solved on a feasible basis
        q, _ = np.linalg.qr(g.T)
        stacked = np.vstack([k, math.sqrt(lam) * gtp])
        target = np.concatenate([b, np.zeros(3)])
        v = np.linalg.lstsq(stacked @ q, target, rcond=None)[0]
        z = q @ v
        constrained_val = float(np.sum((k @ z - b) ** 2)
                                + lam * np.sum((gtp @ z) ** 2))
        worst_eq = max(worst_eq, abs(constrained_val - ridge_val)
                       / max(1.0, ridge_val))

        # penalized relaxation at the required weight (N^+ = N, projector)
        w = (1 + 12.0 / eps) * np.linalg.norm(stacked @ n_mat, ord=2) ** 2
        penalized = np.vstack([stacked, math.sqrt(w) * n_mat])
        zhat = np.linalg.lstsq(penalized,
                               np.concatenate([target, np.zeros(6)]),
                               rcond=None)[0]
        zp = (np.eye(6) - n_mat) @ zhat
        val = float(np.sum((k @ zp - b) ** 2) + lam * np.sum((gtp @ zp) ** 2))
        worst_ratio = max(worst_ratio, val / constrained_val)
    elapsed = time.perf_counter() - t0
    ok = worst_eq <= 1e-8 and worst_ratio <= 1.1
    assert report("constrained-regression-equivalence", ok, elapsed, 10,
                  f"optimum dev {worst_eq:.2e}, relaxation ratio {worst_ratio:.4f}")


def test_tucker_monotonicity_and_interpolation():
    t0 = time.perf_counter()
    monotone = True
    for seed in range(20):
        rng = np.random.default_rng(seed + 700)
        x = rng.standard_normal((8, 8, 8))
        _, rep = tucker_als(x, (3, 3, 3), lam=1e-2, sweeps=3,
                            solver_mode="exact",
                            config=RegressionConfig(seed=seed))
        for a, b in zip(rep.step_losses, rep.step_losses[1:]):
            monotone &= b <= a * (1 + 1e-10) + 1e-10
    rng = np.random.default_rng(42)
    x = rng.standard_normal((8, 8, 8))
    _, rep = tucker_als(x, (8, 8, 8), lam=0.0, sweeps=1, solver_mode="exact",
                        config=RegressionConfig(seed=0))
    interp = rep.rre <= 1e-8
    elapsed = time.perf_counter() - t0
    assert report("tucker-monotonicity-interpolation", monotone and interp,
                  elapsed, 30,
                  f"monotone={monotone}, full-rank RRE {rep.rre:.2e}")


def test_sketched_als_quality():
    t0 = time.perf_counter()
    eps = 0.25
    hits = 0
    for seed in range(10):
        x = generate_synth_tucker((20, 20, 20), (4, 4, 4), 0.01, seed)
        _, exact = tucker_als(x, (4, 4, 4), lam=0.0, sweeps=5,
                              solver_mode="exact",
                              config=RegressionConfig(seed=seed))
        _, fast = tucker_als(x, (4, 4, 4), lam=0.0, sweeps=5,
                             solver_mode="fast",
                             config=RegressionConfig(eps=eps, delta=0.05,
                                                     seed=seed))
        hits += abs(fast.rre - exact.rre) <= 0.05 * max(exact.rre, 1e-12)
    elapsed = time.perf_counter() - t0
    assert report("sketched-als-quality", hits >= 9, elapsed, 120,
                  f"{hits}/10 seeds within 5% of exact-mode RRE")


def test_runtime_scaling_smoke():
    # soft criterion: report, never fail (timing noise)
    t0 = time.perf_counter()
    d = 8
    times = {}
    for n in (512, 4096):
        facs, b = generate_synth_regression(n, d, 2, seed=0)
        cfg = RegressionConfig(eps=0.1, delta=0.01, lam=1e-3, alpha=1e-5, seed=0)
        fast = sorted(fast_kronecker_regression(facs, b, cfg).wall_time
                      for _ in range(3))[1]
        naive = sorted(naive_normal_solve(facs, b, 1e-3).wall_time
                       for _ in range(3))[1]
        times[n] = (fast, naive)
    fast_ratio = times[4096][0] / times[512][0]
    naive_ratio = times[4096][1] / times[512][1]
    elapsed = time.perf_counter() - t0
    ok = fast_ratio <= 3.0 and naive_ratio > 10.0
    status = "PASS" if ok else "WARN"
    line = (f"[{status}] runtime-scaling-smoke: fast 4096/512 = "
            f"{fast_ratio:.2f}x (want <= 3), naive = {naive_ratio:.1f}x "
            f"(want > 10) ({elapsed:.2f}s)")
    RESULTS.append(line)
    print(line, flush=True)


def test_statistical_sketch_guarantees():
    t0 = time.perf_counter()
    # spectral sandwich at the guaranteed sample count
    eps, delta = 0.5, 0.1
    rng = np.random.default_rng(808)
    a = rng.standard_normal((200, 4))
    whiten = np.linalg.inv(np.linalg.cholesky(a.T @ a))
    sandwich_hits = 0
    for seed in range(100):
        sa = spectral_approx_rows(a, eps, delta, seed)
        eig = np.linalg.eigvalsh(whiten @ (sa.T @ sa) @ whiten.T)
        sandwich_hits += bool(eig.min() >= 1 - eps and eig.max() <= 1 + eps)

    # sketch-and-solve ridge at its guaranteed sample count
    solve_hits = 0
    for seed in range(100):
        rs = np.random.default_rng(seed + 900)
        facs = [rs.standard_normal((14, 2)), rs.standard_normal((14, 2))]
        b = rs.standard_normal(196)
        cfg = RegressionConfig(eps=0.5, delta=0.1, lam=1e-2, seed=seed)
        rep = sketch_and_solve_ridge(facs, b, cfg)
        opt = kronmatmul_svd_solve(facs, b, 1e-2)
        solve_hits += rep.loss <= 1.5 * opt.loss
    elapsed = time.perf_counter() - t0
    ok = sandwich_hits >= 90 and solve_hits >= 85
    assert report("statistical-sketch-guarantees", ok, elapsed, 60,
                  f"sandwich {sandwich_hits}/100 (need 90), "
                  f"sketch-solve {solve_hits}/100 (need 85)")


def test_zz_print_summary():
    print("\n==== acceptance summary ====", flush=True)
    for line in RESULTS:
        print(line, flush=True)


if __name__ == "__main__":
    import sys

    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and name != "test_zz_print_summary":
            try:
                fn()
            except AssertionError:
                failures += 1
    print("\n==== acceptance summary ====")
    for line in RESULTS:
        print(line)
    sys.exit(1 if failures else 0)
