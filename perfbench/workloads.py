"""The benchmark's workloads: inputs from a seed, the two routes, and the gates.

Each workload solves one instance by the sketched ("fast") route and by the
exact route.  The benchmark generates the inputs itself, so the program only
receives arrays; the errors the gates use (ridge loss, relative gradient,
relative reconstruction error) are recomputed here with plain numpy rather
than read from the program's reports.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time

import numpy as np

# The synthetic regression task of the paper: Normal(1, 0.001) factors, all-ones target.
SYNTH_MEAN = 1.0
SYNTH_SD = math.sqrt(0.001)
REG_SETTINGS = dict(eps=0.1, delta=0.01, lam=1e-3, alpha=1e-5)

# alpha 1e-4 avoids the rre cliff at 1e-5 and the all-exact fallback at 1e-2.
TUCKER_SETTINGS = dict(eps=0.1, delta=0.01, lam=1e-3, alpha=1e-4)
TUCKER_SHAPE = (60, 60, 60)
TUCKER_RANK = (4, 4, 4)
TUCKER_NOISE = 0.01
TUCKER_SWEEPS = 3

# Gate thresholds.  The exact solver reaches a relative gradient near 5e-16
# on the regression instances; the fast route sits near 1.13-1.21 x OPT
# (regression) and, from most random starts, 1.03-1.05 x the best exact rre
# (Tucker).  A few Tucker starts end far above the ceiling: that is the fast
# route's quality cliff (see NOTES.md), and the gate reports it.
EXACT_GRADIENT_TOL = 1e-8
REGRESSION_QUALITY_CEILING = 1.5
TUCKER_QUALITY_CEILING = 2.0
LOSS_FLOOR = 1.0 - 1e-12
MONOTONE_TOL = 1e-9

ROW_CHUNK = 256


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(np.asarray(p, dtype=np.float64)).tobytes())
    return h.hexdigest()[:16]


def apply_kron_rows(factors, y: np.ndarray) -> np.ndarray:
    """``y @ (A1 kron ... kron AN)^T``: the Kronecker product applied to each row of ``y``."""
    t = y.reshape((y.shape[0],) + tuple(a.shape[1] for a in factors))
    for a in factors:
        t = np.tensordot(t, a, axes=([1], [1]))  # contracts J_n, appends I_n
    return t.reshape(y.shape[0], -1)


class Workload:
    """One instance solved by both routes; ``quality_ratio`` must lie in [floor, ceiling]."""

    floor = 0.0

    def reseed(self, seed: int) -> None:
        """Seed of the routes' own randomness (sketches; Tucker's start) for the next call."""
        self.config = dataclasses.replace(self.config, seed=seed)

    def quality_failures(self, ratio: float) -> list[str]:
        if ratio < self.floor:
            return [f"fast.loss_below_opt ratio={ratio!r}"]
        if ratio > self.ceiling:
            return [f"fast.quality_ceiling ratio={ratio:.6g}"]
        return []


class RegressionWorkload(Workload):
    """Kronecker ridge regression at n rows and d columns per factor."""

    floor = LOSS_FLOOR
    ceiling = REGRESSION_QUALITY_CEILING

    def __init__(self, name: str, n: int, d: int, order: int = 2):
        self.name, self.n, self.d, self.order = name, n, d, order

    def setup(self, ks, seed: int, workdir) -> dict[str, float]:
        rng = np.random.default_rng(seed)
        self.factors = [rng.normal(SYNTH_MEAN, SYNTH_SD, (self.n, self.d))
                        for _ in range(self.order)]
        self.b = np.ones(self.n**self.order)
        self.config = ks.solvers.RegressionConfig(seed=seed, **REG_SETTINGS)
        self._ktb_norm = None
        return {}

    def fast(self, ks):
        return ks.solvers.fast_kronecker_regression(self.factors, self.b, self.config)

    def exact(self, ks):
        return ks.solvers.kronmatmul_svd_solve(self.factors, self.b, self.config.lam)

    @staticmethod
    def fingerprint(report) -> str:
        return digest(report.solution, report.loss, report.iterations, report.sample_count)

    def _loss(self, x: np.ndarray, rhs: np.ndarray, gradient: bool = False):
        """``||Kx - rhs||^2 + lam||x||^2`` and, if asked, ``K^T(Kx - rhs) + lam x``.

        Works through the rows of the first factor in chunks, so no vector of
        the full row count is formed."""
        first, rest = self.factors[0], self.factors[1:]
        x_mat = x.reshape(first.shape[1], -1)
        rhs_mat = rhs.reshape(first.shape[0], -1)
        rest_t = [a.T for a in rest]
        loss, grad = 0.0, np.zeros_like(x_mat)
        for lo in range(0, first.shape[0], ROW_CHUNK):
            a = first[lo:lo + ROW_CHUNK]
            r = apply_kron_rows(rest, a @ x_mat) - rhs_mat[lo:lo + ROW_CHUNK]
            loss += float(np.sum(r * r))
            if gradient:
                grad += a.T @ apply_kron_rows(rest_t, r)
        lam = self.config.lam
        return loss + lam * float(x @ x), grad.reshape(-1) + lam * x

    def check_exact(self, report) -> tuple[float, list[str]]:
        x = report.solution
        if not np.all(np.isfinite(x)):
            return math.nan, ["exact.finite"]
        loss, grad = self._loss(x, self.b, gradient=True)
        if self._ktb_norm is None:
            _, ktb = self._loss(np.zeros_like(x), -self.b, gradient=True)
            self._ktb_norm = float(np.linalg.norm(ktb))
        rel = float(np.linalg.norm(grad)) / self._ktb_norm
        return loss, ([] if rel <= EXACT_GRADIENT_TOL
                      else [f"exact.relative_gradient={rel:.3g}"])

    def check_fast(self, report) -> tuple[float, list[str]]:
        if not np.all(np.isfinite(report.solution)):
            return math.nan, ["fast.finite"]
        return self._loss(report.solution, self.b)[0], []


class TuckerWorkload(Workload):
    """Regularized Tucker ALS of a noisy low-rank cube read back from a .ktn file."""

    ceiling = TUCKER_QUALITY_CEILING

    def __init__(self, name: str):
        self.name = name

    def setup(self, ks, seed: int, workdir) -> dict[str, float]:
        rng = np.random.default_rng(seed)
        core = rng.standard_normal(TUCKER_RANK)
        x = core
        for i_n, r_n in zip(TUCKER_SHAPE, TUCKER_RANK):
            q, _ = np.linalg.qr(rng.standard_normal((i_n, r_n)))
            x = np.tensordot(x, q, axes=([0], [1]))
        scale = TUCKER_NOISE * float(np.linalg.norm(x)) / math.sqrt(x.size)
        x = x + rng.standard_normal(x.shape) * scale

        path = workdir / f"{self.name}-{seed}.ktn"
        t0 = time.perf_counter()
        ks.tensor_io.write_tensor(path, x)
        t1 = time.perf_counter()
        self.x = ks.tensor_io.read_tensor(path)
        t2 = time.perf_counter()
        size = path.stat().st_size
        path.unlink()
        if not np.array_equal(self.x, x):
            raise RuntimeError("tensor file round trip changed the tensor")
        self.x_norm_sq = float(np.sum(self.x**2))
        self.config = ks.solvers.RegressionConfig(seed=seed, **TUCKER_SETTINGS)
        return {"tensor_io.write_tensor.s": t1 - t0, "tensor_io.read_tensor.s": t2 - t1,
                "tensor_io.read_tensor.bytes": size}

    def _als(self, ks, mode):
        return ks.tucker.tucker_als(self.x, TUCKER_RANK, lam=self.config.lam,
                                    sweeps=TUCKER_SWEEPS, solver_mode=mode,
                                    config=self.config)

    def fast(self, ks):
        return self._als(ks, "fast")

    def exact(self, ks):
        return self._als(ks, "exact")

    @staticmethod
    def fingerprint(result) -> str:
        model, report = result
        return digest(model.core, *model.factors, report.step_losses, report.rre)

    def error(self, result) -> float:
        """Final relative reconstruction error ``||Xhat - X||^2 / ||X||^2``."""
        model, _ = result
        xhat = model.core
        for a in model.factors:
            xhat = np.tensordot(xhat, a, axes=([0], [1]))
        return float(np.sum((xhat - self.x) ** 2)) / self.x_norm_sq

    @staticmethod
    def _finite(model) -> bool:
        return bool(np.all(np.isfinite(model.core))
                    and all(np.all(np.isfinite(a)) for a in model.factors))

    def check_exact(self, result) -> tuple[float, list[str]]:
        model, report = result
        if not self._finite(model):
            return math.nan, ["exact.finite"]
        losses = report.step_losses
        rises = [k for k in range(1, len(losses))
                 if losses[k] > losses[k - 1] * (1.0 + MONOTONE_TOL)]
        return self.error(result), [f"exact.monotone_loss step={report.step_labels[k]}"
                                    for k in rises]

    def check_fast(self, result) -> tuple[float, list[str]]:
        if not self._finite(result[0]):
            return math.nan, ["fast.finite"]
        return self.error(result), []


WORKLOADS = {
    "reg-table": lambda: RegressionWorkload("reg-table", n=4096, d=64),
    "reg-thin": lambda: RegressionWorkload("reg-thin", n=4096, d=8),
    "tucker-cube": lambda: TuckerWorkload("tucker-cube"),
}


def warm_up(ks) -> None:
    """Run both routes of both tasks once on tiny instances (lazy imports, BLAS start-up)."""
    reg = RegressionWorkload("warm-reg", n=256, d=8)
    reg.setup(ks, 0, None)
    reg.fast(ks)
    reg.exact(ks)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 8, 8))
    cfg = ks.solvers.RegressionConfig(**TUCKER_SETTINGS)
    for mode in ("fast", "exact"):
        ks.tucker.tucker_als(x, (2, 2, 2), lam=cfg.lam, sweeps=1, solver_mode=mode,
                             config=cfg)
