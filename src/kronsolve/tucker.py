"""L2-regularized Tucker decomposition by alternating least squares.

ALS starts from a seeded, sequentially truncated randomized HOSVD of the
tensor (a range finder per mode, Halko, Martinsson & Tropp 2011), which
both modes share.  Each sweep then updates every factor matrix and then the
core tensor; both block updates are ridge regression problems against an
implicit Kronecker design matrix.  ``exact`` mode solves them exactly
(block coordinate descent, so the regularized loss is non-increasing).
``fast`` mode draws one leverage-score sketch of the design's Kronecker
rows per block update and solves the small sketched ridge problem directly
with :func:`~kronsolve.solvers.sketched_ridge_solve`, for all rows of a
factor at once and for the core alike (as sketched Tucker-ALS does, Malik &
Becker 2018), so no Tucker step runs Richardson iteration.

The constrained-update workspace (:class:`FactorUpdateWorkspace`,
:func:`build_factor_workspace`) is the Woodbury-preconditioned per-row
route that the fast factor update used to run; no solver calls it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, NumericalFailureError, SizeGuardError
from .kron import kron_mat_mul
from .leverage import build_product_sampler, regression_sample_count, \
    ridge_leverage_scores, sample_rows
from .solvers import (
    DEFAULT_DENSE_GUARD,
    KronPreconditioner,
    RegressionConfig,
    _check_caches,
    _svd_ridge_solution,
    _validated_problem,
    build_factor_cache,
    build_kron_preconditioner,
    factor_gram,
    sketched_ridge_solve,
)
from .tensor import (
    CompactSvd,
    _unfold,
    as_tensor,
    compact_svd,
    multi_mode_product,
    pseudo_inverse,
    unfold,
)

# Columns of the range finder's test matrix beyond the target rank R_n.
RANGE_FINDER_OVERSAMPLING = 5

POWER_ITERATION_MAX = 100
POWER_ITERATION_TOL = 1e-6
PENALTY_SAFETY_MARGIN = 1.05


@dataclass
class TuckerModel:
    """Core tensor plus one loading matrix per mode."""

    core: np.ndarray
    factors: list[np.ndarray]
    lam: float = 0.0

    def __post_init__(self):
        self.core = as_tensor(self.core, "core")
        if len(self.factors) != self.core.ndim:
            raise InvalidInputError(
                f"core has order {self.core.ndim} but got {len(self.factors)} factors")
        self.factors = [np.asarray(a, dtype=np.float64) for a in self.factors]
        for n, a in enumerate(self.factors):
            if a.ndim != 2 or a.shape[1] != self.core.shape[n]:
                raise InvalidInputError(
                    f"factor {n} of shape {a.shape} does not match core dim "
                    f"{self.core.shape[n]}")
            if a.shape[0] < a.shape[1]:
                raise InvalidInputError(
                    f"factor {n} is {a.shape}; ranks above the dimension are "
                    f"not supported")
        if self.lam < 0:
            raise InvalidInputError(f"lambda must be >= 0, got {self.lam}")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.shape[0] for a in self.factors)

    @property
    def core_shape(self) -> tuple[int, ...]:
        return self.core.shape


def reconstruct(model: TuckerModel) -> np.ndarray:
    """Expand the model: core multiplied by every factor along its mode."""
    return multi_mode_product(model.core, model.factors)


def _model_tensor(model: TuckerModel, x) -> np.ndarray:
    """Validate ``x`` (finite, the model's shape) and return it as float64."""
    x = as_tensor(x)
    if x.shape != model.shape:
        raise InvalidInputError(f"tensor shape {x.shape} != model shape {model.shape}")
    return x


def _project(x: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """``x x_1 M1^T ... x_N MN^T``: each matrix's rows contract one mode of ``x``."""
    for m in mats:
        x = np.tensordot(x, m, axes=([0], [0]))  # contracts the leading mode, appends R_n
    return x


def _fit(model: TuckerModel, x: np.ndarray, x_norm_sq: float,
         svds: Sequence[CompactSvd]) -> tuple[float, float]:
    """Squared reconstruction error and the regularized loss built on it.

    ``x_norm_sq`` is ``||X||_F^2`` and ``svds`` holds the compact SVD of
    each factor, the same decomposition the block updates read, so that ALS
    decomposes each factor once per update.  The error comes from the Gram
    identity (Kolda & Bader 2009, SIAM Review, section 4.2)

        ||Xhat - X||^2 = ||X||^2 - 2 <X x_n A_n^T, G> + <G x_n A_n^T A_n, G>,

    so no dense reconstruction is formed: the cost is one pass over ``x``
    plus core-sized work.  It is evaluated in each factor's SVD basis
    ``A_n = U_n (S_n V_n^T)``: with ``Y = X x_n U_n^T`` and
    ``H = G x_n S_n V_n^T`` it reads ``(||X||^2 - ||Y||^2) + ||Y - H||^2``.
    The first difference still cancels, which bounds the absolute accuracy
    of the error to about ulp * ||X||^2 (a few 1e-12 relative at a relative
    error of 1e-4); it is clamped at 0.  Multiplying out ``A_n^T A_n``
    instead loses up to 100x more when the factors and the core differ in
    scale, as ridge ALS makes them.

    The SVD drops singular values at or below ``1e-10 * sigma_max`` of
    their factor, so the error is that of the model with each ``A_n``
    replaced by its truncation, which is within ``1e-10 ||A_n||_2`` of it.
    A factor that is rank-deficient up to roundoff, such as one with a zero
    column, loses only roundoff, and a zero factor has an empty basis and
    records the error ``||X||^2``.
    """
    return _fit_projected(model, _project(x, [svd.u for svd in svds]), x_norm_sq,
                          [svd.v * svd.sigma for svd in svds])


def _fit_projected(model: TuckerModel, y: np.ndarray, x_norm_sq: float,
                   coords: Sequence[np.ndarray]) -> tuple[float, float]:
    """:func:`_fit` from the projection ``Y = X x_1 U_1^T ... x_N U_N^T``
    and each factor's coordinates in its basis, ``V_n S_n`` (``A_n^T U_n``),
    for a caller that holds ``Y``."""
    h = _project(model.core, coords)
    err = max(x_norm_sq - float(np.sum(y**2)) + float(np.sum((y - h) ** 2)), 0.0)
    reg = float(np.sum(model.core**2))
    reg += sum(float(np.sum(a**2)) for a in model.factors)
    return err, err + model.lam * reg


def relative_error(model: TuckerModel, x) -> float:
    """Relative reconstruction error ``||Xhat - X||_F^2 / ||X||_F^2``.

    The numerator comes from the Gram identity (see ``_fit``), without a
    dense reconstruction; it is accurate to about ulp * ||X||^2 absolute,
    so the ratio is accurate to about 1e-16 absolute, and never negative.
    """
    x = _model_tensor(model, x)
    den = float(np.sum(x**2))
    num, _ = _fit(model, x, den, [compact_svd(a) for a in model.factors])
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


def regularized_loss(model: TuckerModel, x) -> float:
    """Squared reconstruction error plus lam times all squared Frobenius norms."""
    x = _model_tensor(model, x)
    return _fit(model, x, float(np.sum(x**2)),
                [compact_svd(a) for a in model.factors])[1]


def _other_factors(model: TuckerModel, n: int) -> list[np.ndarray]:
    return [a for k, a in enumerate(model.factors) if k != n]


def core_update(model: TuckerModel, x, mode: str = "exact",
                config: RegressionConfig | None = None,
                caches: Sequence[CompactSvd] | None = None) -> np.ndarray:
    """Solve the core regression at fixed factors; returns the new core.

    ``exact`` composes the factor SVDs as :func:`kronmatmul_svd_solve` does,
    without evaluating a loss.  ``fast`` draws
    ``ceil(alpha * 1680 R ln(40R) ln(1/delta) / eps)`` rows of the factors'
    Kronecker product from their leverage-score product distribution (seeded
    by ``config.seed``) and solves the sketched ridge problem directly with
    :func:`~kronsolve.solvers.sketched_ridge_solve`; when that count reaches
    the row count it runs the exact update instead.  Both read the
    per-factor SVDs in ``caches`` (one per factor, checked against the
    factors) when provided.  When a factor is zero the design is zero, so
    the ridge core is zero.
    """
    x = _model_tensor(model, x)
    if mode not in ("exact", "fast"):
        raise InvalidInputError(f"unknown core update mode {mode!r}")
    return _core_update(model, x, mode, config, caches)


def _core_update(model: TuckerModel, x: np.ndarray, mode: str,
                 config: RegressionConfig | None,
                 caches: Sequence[CompactSvd] | None) -> np.ndarray:
    """:func:`core_update` for a tensor ``x`` that the caller has validated."""
    if caches is not None:
        _check_caches(model.factors, caches)
    if not all(np.any(a) for a in model.factors):
        return np.zeros(model.core_shape)  # a zero factor makes K zero
    factors, b, rows, cols = _validated_problem(model.factors, x)
    if mode == "fast":
        config = config or RegressionConfig()
        s = regression_sample_count(cols, config.eps, config.alpha,
                                    math.log(1.0 / config.delta))
        if s < rows:
            svds = [compact_svd(a) for a in factors] if caches is None else caches
            sampler = build_product_sampler([ridge_leverage_scores(v, 0.0) for v in svds])
            sketch = sample_rows(sampler, s, config.seed)
            core = sketched_ridge_solve(factors, sketch, b, model.lam)
            return core.reshape(model.core_shape)
    # exact mode, or a sketch that would draw at least every row
    return _svd_ridge_solution(factors, b, model.lam, caches).reshape(model.core_shape)


def naive_factor_update(model: TuckerModel, x, n: int) -> np.ndarray:
    """Exact ridge update of factor ``n``: every row solved via the normal
    equation ``(KK^T + lam I)^+ K b_i^T`` with ``K = G_(n) (kron of others)^T``.

    ``KK^T`` is assembled through the factor-Gram Kronecker identity; the
    per-row right-hand sides use implicit Kronecker multiplies.  Refuses
    when ``R_rest^2`` exceeds ``DEFAULT_DENSE_GUARD``.
    """
    x = _model_tensor(model, x)
    if not 0 <= n < len(model.factors):
        raise InvalidInputError(f"mode {n} out of range")
    return _naive_factor_update(model, x, n)


def _naive_factor_update(model: TuckerModel, x: np.ndarray, n: int) -> np.ndarray:
    """:func:`naive_factor_update` for a tensor ``x`` and mode ``n`` that the
    caller has validated."""
    others = _other_factors(model, n)
    g_n = unfold(model.core, n)
    r_rest = g_n.shape[1]
    if r_rest * r_rest > DEFAULT_DENSE_GUARD:
        raise SizeGuardError(
            f"Gram Kronecker product would hold {r_rest}x{r_rest} entries "
            f"(guard: {DEFAULT_DENSE_GUARD})")
    gram_rest = reduce(np.kron, [a.T @ a for a in others], np.ones((1, 1)))
    kkt = g_n @ gram_rest @ g_n.T
    b = _unfold(x, n)
    # K B^T = G_(n) (kron of others)^T B^T, columns indexed by tensor rows
    rest_t = [a.T for a in others]
    kbt = g_n @ (kron_mat_mul(rest_t, b.T) if rest_t else b.T)
    rn = g_n.shape[0]
    y = np.linalg.pinv(kkt + model.lam * np.eye(rn)) @ kbt
    return y.T


@dataclass(frozen=True)
class FactorUpdateWorkspace:
    """Preassembled operators for the constrained factor-row solves.

    No solver calls this: the fast factor update solves one sketched block
    problem instead (see :func:`fast_factor_matrix_update`).  Holds the
    pseudoinverses of the core unfolding, the penalty weight for the
    nullspace constraint, and the Woodbury-corrected inverse of the
    penalized normal matrix, decomposed so one application costs Kronecker
    multiplies plus rank-``R_n`` corrections.
    """

    g_n: np.ndarray              # R_n x R_rest core unfolding
    gn_pinv: np.ndarray          # G^+        (R_rest x R_n)
    gnt_pinv: np.ndarray         # (G^T)^+    (R_n x R_rest)
    penalty_weight: float
    base: KronPreconditioner     # (K^T K + w I)^+ from the Gram eigendecompositions
    correction_mid: np.ndarray   # Woodbury core inverse (R_n x R_n)
    correction_right: np.ndarray  # lam (G^T)^+ - w G  (R_n x R_rest)

    def constraint_projector(self) -> np.ndarray:
        """Dense ``N = I - G^T (G^T)^+`` (orthogonal projector, test aid)."""
        r = self.gn_pinv.shape[0]
        return np.eye(r) - self.g_n.T @ self.gnt_pinv

    def project_feasible(self, z: np.ndarray) -> np.ndarray:
        """Project onto the constraint set: ``(I - N^+ N) z = G^T (G^T)^+ z``."""
        return self.g_n.T @ (self.gnt_pinv @ z)

    def apply(self, z: np.ndarray) -> np.ndarray:
        """Apply the Woodbury-corrected inverse of the penalized normal matrix."""
        base = self.base.apply(z)
        corr = self.correction_right @ base
        corr = self.correction_mid @ corr
        corr = self.gn_pinv @ corr
        return base - self.base.apply(corr)


def build_factor_workspace(model: TuckerModel, n: int, eps: float,
                           lam: float) -> FactorUpdateWorkspace:
    """Assemble the constrained-update preconditioner for factor ``n``.

    No solver calls this (see :class:`FactorUpdateWorkspace`).  The penalty
    weight is ``(1 + 12/eps)`` times a power-iteration estimate of
    ``||[K; sqrt(lam) (G^T)^+] N||_2^2`` (times a 1.05 safety margin,
    since power iteration approaches the norm from below), and the inverse of
    the penalized normal matrix is decomposed by the Woodbury identity around
    ``(K^T K + w I)^+``.
    """
    if model.core.ndim < 2:
        raise InvalidInputError("factor updates need an order >= 2 model")
    if not 0.0 < eps < 1.0 / 3.0:
        raise InvalidInputError(f"eps must be in (0, 1/3), got {eps}")
    g_n = unfold(model.core, n)
    if not np.any(g_n):
        raise InvalidInputError("core unfolding is identically zero")
    gn_pinv = pseudo_inverse(g_n)
    gnt_pinv = gn_pinv.T
    grams = [factor_gram(a) for a in _other_factors(model, n)]
    gram_mats = tuple(g.matrix for g in grams)
    r_rest = g_n.shape[1]

    def apply_constrained_gram(v: np.ndarray) -> np.ndarray:
        # N (K^T K + lam G^+ (G^+)^T) N v, the square of the penalized block
        u = v - g_n.T @ (gnt_pinv @ v)
        t = kron_mat_mul(list(gram_mats), u)
        t = t + lam * (gn_pinv @ (gn_pinv.T @ u))
        return t - g_n.T @ (gnt_pinv @ t)

    norm_sq = _power_iteration(apply_constrained_gram, r_rest)
    w = (1.0 + 12.0 / eps) * norm_sq * PENALTY_SAFETY_MARGIN

    base = build_kron_preconditioner([g.v for g in grams],
                                     [g.eigenvalues for g in grams], w)

    correction_right = lam * gnt_pinv - w * g_n
    # the base preconditioner applied to the columns of G^+
    t = kron_mat_mul([v.T for v in base.v_factors], gn_pinv)
    p0_gpinv = kron_mat_mul(list(base.v_factors), base.d_diag[:, None] * t)
    core = np.eye(g_n.shape[0]) + correction_right @ p0_gpinv
    try:
        core_inv = np.linalg.solve(core, np.eye(g_n.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            "Woodbury core matrix is singular",
            diagnostics={"w": w, "mode": n}) from exc
    return FactorUpdateWorkspace(
        g_n=g_n, gn_pinv=gn_pinv, gnt_pinv=gnt_pinv, penalty_weight=w,
        base=base, correction_mid=core_inv, correction_right=correction_right)


def _power_iteration(operator, dim: int, seed: int = 0) -> float:
    """Largest-eigenvalue lower bound for a PSD operator; 0 if it is zero.

    Only :func:`build_factor_workspace`, which no solver calls, uses it.
    Runs at most ``POWER_ITERATION_MAX`` rounds.  Every Rayleigh quotient of
    a PSD operator lower-bounds the top eigenvalue, so when the 1e-6
    relative-change stop is not reached (nearly degenerate spectra) the best
    quotient seen is still a usable underestimate; after 100 rounds it is
    within a couple percent, which the caller's safety margin absorbs.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    estimate = 0.0
    best = 0.0
    for _ in range(POWER_ITERATION_MAX):
        u = operator(v)
        if not np.all(np.isfinite(u)):
            raise NumericalFailureError(
                "power iteration produced non-finite values",
                diagnostics={"estimate": estimate})
        norm = float(np.linalg.norm(u))
        if norm <= 1e-300:
            return 0.0
        new_estimate = float(v @ u)
        best = max(best, new_estimate)
        v = u / norm
        if abs(new_estimate - estimate) <= POWER_ITERATION_TOL * max(1e-30, abs(new_estimate)):
            break
        estimate = new_estimate
    return best


def fast_factor_matrix_update(model: TuckerModel, x, n: int,
                              config: RegressionConfig,
                              caches: Sequence[CompactSvd] | None = None,
                              ) -> np.ndarray:
    """Sketched update of factor ``n``: one sketched ridge solve for all rows.

    Row ``i`` of the factor minimizes ``||K y - b_i||^2 + lam ||y||^2`` with
    ``K = (kron of the other factors) G_(n)^T`` and ``b_i`` row ``i`` of the
    mode-``n`` unfolding.  One sketch ``S`` of
    ``ceil(alpha * 1680 R_rest ln(40 R_rest) ln(I_n/delta) / eps)`` rows of
    the leftover Kronecker product is drawn from the leverage-score product
    distribution (seeded by ``config.seed``), and
    :func:`~kronsolve.solvers.sketched_ridge_solve` returns
    ``(D^T D + lam I)^+ D^T S B^T`` with ``D = S K`` (one row per distinct
    draw, R_n columns) for every row at once, with the pseudo-inverse
    convention of :func:`naive_factor_update` (so ``lam = 0`` with a
    rank-deficient core does not raise).  The ``ln(I_n/delta)``
    factor is the per-row union bound of the paper: the one sketch serves
    all ``I_n`` right-hand sides, so each row's (1+eps) guarantee holds
    together with probability ``1 - delta``.  When the sample count reaches
    the leftover row count, the exact update :func:`naive_factor_update`
    runs instead.  ``caches`` (one per factor of ``model``) supply the other
    factors' SVDs for the leverage scores.  When the core or another factor
    is zero, so is ``K``, and every row's solution is zero.
    """
    x = _model_tensor(model, x)
    if not 0 <= n < len(model.factors):
        raise InvalidInputError(f"mode {n} out of range")
    if not 0.0 < config.eps < 1.0 / 3.0:
        raise InvalidInputError(
            f"factor updates require eps in (0, 1/3), got {config.eps}")
    others = _other_factors(model, n)
    i_n = model.factors[n].shape[0]
    r_rest = math.prod(a.shape[1] for a in others)
    i_rest = math.prod(a.shape[0] for a in others)
    s = regression_sample_count(r_rest, config.eps, config.alpha,
                                math.log(i_n / config.delta))
    if s >= i_rest:
        return naive_factor_update(model, x, n)

    g_n = unfold(model.core, n)
    if not (np.any(g_n) and all(np.any(a) for a in others)):
        return np.zeros_like(model.factors[n])
    svds = ([compact_svd(a) for a in others] if caches is None
            else [svd for k, svd in enumerate(caches) if k != n])
    sampler = build_product_sampler([ridge_leverage_scores(v, 0.0) for v in svds])
    sketch = sample_rows(sampler, s, config.seed)
    return sketched_ridge_solve(others, sketch, _unfold(x, n).T, model.lam,
                                right=g_n.T).T


@dataclass
class AlsReport:
    """Loss/time trace of one alternating-least-squares run.

    ``step_errors`` (squared reconstruction errors) and ``step_losses``
    (regularized losses) come from the Gram identity of ``_fit``, not from a
    dense reconstruction; each error is accurate to about ulp * ||X||^2
    absolute (a few 1e-12 relative at a relative error of 1e-4) and is never
    negative.  ``step_seconds`` times each block update alone (not the loss
    recorded after it); the first step, ``init-core``, times the
    range-finder start that yields the initial factors and core.
    ``sweep_seconds`` is the sum of one sweep's step times.
    """

    step_labels: list[str] = field(default_factory=list)
    step_losses: list[float] = field(default_factory=list)
    step_errors: list[float] = field(default_factory=list)
    step_seconds: list[float] = field(default_factory=list)
    sweep_losses: list[float] = field(default_factory=list)
    sweep_rres: list[float] = field(default_factory=list)
    sweep_seconds: list[float] = field(default_factory=list)
    rre: float = math.nan

    @property
    def mean_sweep_seconds(self) -> float:
        return float(np.mean(self.sweep_seconds)) if self.sweep_seconds else math.nan


def _khatri_rao(mats: Sequence[np.ndarray], k: int) -> np.ndarray:
    """Column-wise Kronecker product of ``k``-column matrices, first one slowest."""
    out = np.ones((1, k))
    for m in mats:
        out = (out[:, None, :] * m[None, :, :]).reshape(-1, k)
    return out


def initial_model(x: np.ndarray, core_shape: Sequence[int], lam: float,
                  seed) -> tuple[TuckerModel, np.ndarray]:
    """The ALS start: a sequentially truncated randomized HOSVD of ``x``.

    For ``n = 0..N-1``, on ``T``, the tensor already truncated in the modes
    before ``n``: ``Q`` is an orthonormal basis of ``T_(n) Omega``, where
    ``Omega`` is the Khatri-Rao product of one seeded Gaussian matrix per
    other mode with ``R_n + RANGE_FINDER_OVERSAMPLING`` columns (so no
    ``I_rest x k`` Gaussian is drawn); ``U_n`` is ``Q`` times the top-``R_n``
    eigenvectors of ``(Q^T T_(n)) (Q^T T_(n))^T``; and ``T <- T x_n U_n^T``,
    whose unfolding is those eigenvectors applied to ``Q^T T_(n)``, so each
    mode costs two passes over ``T``.  ``Q`` holds the left singular
    vectors of the sketch's thin SVD, an orthonormal basis of its range.

    The factors are orthonormal, so the exact ridge core is the projection
    ``T = X x_1 U_1^T ... x_N U_N^T`` divided by ``1 + lam``.  Returns the
    model and ``T``.
    """
    rng = np.random.default_rng(seed)
    t = x
    factors = []
    for n, r_n in enumerate(core_shape):
        k = min(r_n + RANGE_FINDER_OVERSAMPLING, t.shape[n])
        rest = t.shape[:n] + t.shape[n + 1:]
        t_n = _unfold(t, n)
        omega = _khatri_rao([rng.standard_normal((d, k)) for d in rest], k)
        q = np.linalg.svd(t_n @ omega, full_matrices=False)[0]
        sketch = q.T @ t_n
        _, v = np.linalg.eigh(sketch @ sketch.T)
        top = v[:, ::-1][:, :r_n]  # eigh sorts ascending
        factors.append(q @ top)
        t = np.moveaxis((top.T @ sketch).reshape((r_n,) + rest), 0, n)
    return TuckerModel(core=t / (1.0 + lam), factors=factors, lam=lam), t


def tucker_als(x, core_shape: Sequence[int], lam: float = 0.0,
               sweeps: int = 5, solver_mode: str = "exact",
               config: RegressionConfig | None = None,
               ) -> tuple[TuckerModel, AlsReport]:
    """Alternating least squares for the regularized Tucker objective.

    The start is the range-finder HOSVD of :func:`initial_model` (seeded
    from ``config.seed``, the same in both modes): orthonormal factors and
    their exact ridge core, recorded as the ``init-core`` step.  Its loss
    is read off the projected tensor the start already holds, with the
    orthonormal factors as their own bases.  Each sweep then updates
    factors for modes ``0..N-1`` followed by the core, recording the
    regularized loss after every block update.  In ``exact`` mode every
    block update is an exact minimizer, so the recorded losses are
    non-increasing (up to roundoff).  The losses come from the Gram
    identity (see :class:`AlsReport` for their accuracy), with
    ``||X||^2`` computed once per call, so no step forms the dense
    reconstruction.  Each factor is decomposed once per update into a
    compact SVD (:func:`~kronsolve.solvers.build_factor_cache`) that all
    later block updates read, the core updates of both modes included, and
    that every later loss record reads too, so ALS runs no other
    factorization of a factor.  ``config`` supplies the sampling
    parameters and the seed of the ``fast`` mode; ``lam`` alone sets the
    ridge weight.  ``x`` is validated once, here, and the exact block
    updates do not scan it again; a fast factor update checks it once more
    as its own public entry point does, which is negligible against its
    sketched block solve.

    Returns the fitted model and an :class:`AlsReport` whose ``rre`` is the
    final relative reconstruction error.
    """
    x = as_tensor(x)
    core_shape = tuple(int(r) for r in core_shape)
    if len(core_shape) != x.ndim:
        raise InvalidInputError(
            f"core shape {core_shape} does not match tensor order {x.ndim}")
    if any(r < 1 or r > i for r, i in zip(core_shape, x.shape)):
        raise InvalidInputError(
            f"core shape {core_shape} must be componentwise in [1, {x.shape}]")
    if sweeps < 1:
        raise InvalidInputError(f"sweeps must be >= 1, got {sweeps}")
    if solver_mode not in ("exact", "fast"):
        raise InvalidInputError(f"unknown solver mode {solver_mode!r}")
    config = config or RegressionConfig()

    report = AlsReport()
    x_norm_sq = float(np.sum(x**2))

    def record(label: str, seconds: float, fit: tuple[float, float] | None = None):
        err, loss = _fit(model, x, x_norm_sq, caches) if fit is None else fit
        report.step_labels.append(label)
        report.step_losses.append(loss)
        report.step_errors.append(err)
        report.step_seconds.append(seconds)

    t0 = time.perf_counter()
    model, projected = initial_model(x, core_shape, lam, config.seed)
    seconds = time.perf_counter() - t0
    # orthonormal factors are their own basis, with identity coordinates
    eyes = [np.eye(r) for r in core_shape]
    record("init-core", seconds, _fit_projected(model, projected, x_norm_sq, eyes))
    caches = [build_factor_cache(a) for a in model.factors]

    seed_root = np.random.SeedSequence(config.seed)
    for sweep in range(sweeps):
        sweep_seeds = seed_root.spawn(x.ndim + 1)
        for n in range(x.ndim):
            t0 = time.perf_counter()
            if solver_mode == "exact":
                model.factors[n] = _naive_factor_update(model, x, n)
            else:
                step_cfg = _reseed(config, sweep_seeds[n])
                model.factors[n] = fast_factor_matrix_update(
                    model, x, n, step_cfg, caches=caches)
            caches[n] = build_factor_cache(model.factors[n])
            seconds = time.perf_counter() - t0
            record(f"sweep{sweep}-factor{n}", seconds)
        t0 = time.perf_counter()
        step_cfg = _reseed(config, sweep_seeds[-1]) if solver_mode == "fast" else None
        model.core = _core_update(model, x, solver_mode, step_cfg, caches)
        record(f"sweep{sweep}-core", time.perf_counter() - t0)
        report.sweep_losses.append(report.step_losses[-1])
        report.sweep_rres.append(report.step_errors[-1] / x_norm_sq
                                 if x_norm_sq > 0 else 0.0)
        report.sweep_seconds.append(sum(report.step_seconds[-(x.ndim + 1):]))
    report.rre = report.sweep_rres[-1]
    return model, report


def _reseed(config: RegressionConfig, seed_seq: np.random.SeedSequence) -> RegressionConfig:
    return replace(config, seed=int(seed_seq.generate_state(1)[0]))
