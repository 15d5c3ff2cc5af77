"""L2-regularized Tucker decomposition by alternating least squares.

ALS starts from a seeded, sequentially truncated randomized HOSVD of the
tensor (a range finder per mode, Halko, Martinsson & Tropp 2011), which
both modes share.  Each sweep then updates every factor matrix and then the
core tensor; both block updates are ridge regression problems against an
implicit Kronecker design matrix.  ``exact`` mode solves them exactly
(block coordinate descent, so the regularized loss is non-increasing).
``fast`` mode draws one leverage-score sketch of the design's Kronecker
rows per factor update and solves the small sketched ridge problem for all
rows of the factor at once, directly from one SVD of the sketched design
with :func:`~kronsolve.solvers.sketched_ridge_solve` (as sketched
Tucker-ALS does, Malik & Becker 2018), so no Tucker step runs conjugate
gradients; a step whose sketch would draw at least the leftover rows runs
exactly.
Both modes run one sweep loop, in which the mode sets only which steps
sketch.  An exact step reads its update and its loss record off one
projection of the tensor onto the other factors, and so does the core when
the sweep's last step was exact; a sweep whose last step sketched projects
the tensor once more, for its record and the exact ridge core.

:func:`tucker_als` checks its input once and runs every factor step on
the kernels :func:`_exact_factor_update` and :func:`_sketched_factor_update`;
the public steps check what a caller hands them and call the same kernels.
The tensor ``X`` is checked as the regression routes check ``b``
(:func:`~kronsolve.solvers._check_finite_reads`): by what each entry
computes from it, never by a scan.  :func:`tucker_als`,
:func:`relative_error` and :func:`regularized_loss` check the
``||X||_F^2`` they need anyway; the exact factor step and
:func:`core_update` check the projection of ``X`` they form; and a
sketched factor step checks the ``(S U)^T B^T`` it forms from its fibres,
for the left singular vectors ``U`` of its sketched design.

The constrained-update workspace (:class:`FactorUpdateWorkspace`,
:func:`build_factor_workspace`) is the Woodbury-preconditioned per-row
route that the fast factor update used to run; no solver calls it.
"""

from __future__ import annotations

import math
import time
from collections import abc
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .kron import kron_mat_mul, kron_rows
from .leverage import regression_sample_count
from .solvers import (
    KronPreconditioner,
    RegressionConfig,
    _check_finite_reads,
    _leverage_draws,
    _projected_ridge_loss,
    _svd_ridge_solution,
    build_factor_cache,
    build_kron_preconditioner,
    factor_gram,
    sketched_ridge_solve,
)
from .tensor import (
    CompactSvd,
    _float_tensor,
    _mode_products,
    _unfold,
    as_matrix,
    as_tensor,
    check_integer,
    check_ridge_weight,
    compact_svd,
    multi_mode_product,
    pseudo_inverse,
    ridge_filter,
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
        self.factors = [as_matrix(a, f"factor {n}") for n, a in enumerate(self.factors)]
        for n, (a, r) in enumerate(zip(self.factors, self.core.shape)):
            if not a.shape[1] == r <= a.shape[0]:
                raise InvalidInputError(f"factor {n} is {a.shape}; core dim {r} needs "
                                        f"{r} columns and at least {r} rows")
        check_ridge_weight(self.lam)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.shape[0] for a in self.factors)

    @property
    def core_shape(self) -> tuple[int, ...]:
        return self.core.shape


def reconstruct(model: TuckerModel) -> np.ndarray:
    """Expand the model: core multiplied by every factor along its mode."""
    return multi_mode_product(model.core, model.factors)


def _model_shaped(model: TuckerModel, x) -> np.ndarray:
    """``x`` as float64, checked against the model's shape but not scanned:
    each entry checks what it computes from ``x``."""
    x = _float_tensor(x)
    if x.shape != model.shape:
        raise InvalidInputError(f"tensor shape {x.shape} != model shape {model.shape}")
    return x


def _fit(model: TuckerModel, x: np.ndarray, x_norm_sq: float) -> tuple[float, float]:
    """Squared reconstruction error and the regularized loss built on it.

    ``x_norm_sq`` is ``||X||_F^2``.  ALS records its losses through
    :func:`_fit_projected`, from the projection its steps hold.  The error
    is the ridge loss at lam 0 of the core regression, whose design is the
    Kronecker product of the factors: it is read off each factor's compact
    SVD ``A_n = U_n S_n V_n^T`` and ``Y = X x_n U_n^T`` (one
    ``_mode_products`` call) by
    :func:`~kronsolve.solvers._projected_ridge_loss`, which states the
    identity and its accuracy (about ulp * ||X||^2 absolute).  No dense
    reconstruction is formed: the cost is one pass over ``x`` plus
    core-sized work.  A factor that is rank-deficient up to roundoff, such
    as one with a zero column, loses only roundoff, and a zero factor has
    an empty basis and records the error ``||X||^2``.
    """
    svds = [compact_svd(a) for a in model.factors]
    return _fit_projected(model, _mode_products(x, [svd.u.T for svd in svds]),
                          x_norm_sq, svds)


def _fit_projected(model: TuckerModel, y: np.ndarray, x_norm_sq: float,
                   svds: Sequence[CompactSvd]) -> tuple[float, float]:
    """:func:`_fit` from the projection ``Y = X x_1 U_1^T ... x_N U_N^T``
    onto the bases ``svds`` of the factors, for a caller that holds ``Y``:
    it reads only core-sized arrays."""
    err = _projected_ridge_loss(svds, y.reshape(-1), x_norm_sq,
                                model.core.reshape(-1), 0.0)
    reg = float(np.sum(model.core**2))
    reg += sum(float(np.sum(a**2)) for a in model.factors)
    return err, err + model.lam * reg


def relative_error(model: TuckerModel, x) -> float:
    """Relative reconstruction error ``||Xhat - X||_F^2 / ||X||_F^2``.

    The numerator comes from the Gram identity (see ``_fit``), without a
    dense reconstruction; it is accurate to about ulp * ||X||^2 absolute,
    so the ratio is accurate to about 1e-16 absolute, and never negative.
    A NaN or inf in ``x``, or an ``x`` whose ``||X||_F^2`` overflows, raises
    :class:`InvalidInputError` from the check of that norm.
    """
    x = _model_shaped(model, x)
    den = _checked_norm_sq(x)
    num, _ = _fit(model, x, den)
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


def regularized_loss(model: TuckerModel, x) -> float:
    """Squared reconstruction error plus lam times all squared Frobenius
    norms; ``x`` is checked as in :func:`relative_error`."""
    x = _model_shaped(model, x)
    return _fit(model, x, _checked_norm_sq(x))[1]


def _checked_norm_sq(x: np.ndarray) -> float:
    """``||X||_F^2``, which is finite exactly when every entry is and the
    norm does not overflow; otherwise :class:`InvalidInputError`."""
    norm_sq = float(np.vdot(x, x))
    _check_finite_reads(norm_sq, "||X||_F^2")
    return norm_sq


def _other_factors(model: TuckerModel, n: int) -> list[np.ndarray]:
    return [a for k, a in enumerate(model.factors) if k != n]


def core_update(model: TuckerModel, x) -> np.ndarray:
    """Solve the core regression exactly at fixed factors; returns the new core.

    Composes the factor SVDs as :func:`kronmatmul_svd_solve` does, from the
    projection ``Y = X x_1 U_1^T ... x_N U_N^T`` of ``x`` onto their left
    singular vectors, without evaluating a loss.  Both ALS modes solve the
    core this way.  A NaN or inf in ``x`` raises :class:`InvalidInputError`
    from the check of ``Y``; ``x`` is not scanned.  A zero factor has an
    empty basis, so ``Y`` is empty and the ridge core is zero.
    """
    x = _model_shaped(model, x)
    svds = [compact_svd(a) for a in model.factors]
    with np.errstate(invalid="ignore", over="ignore"):  # checked just below
        y = _mode_products(x, [svd.u.T for svd in svds])
    _check_finite_reads(y, "Y = X x_1 U_1^T ... x_N U_N^T")
    return _core_update(model, y, svds)


def _core_update(model: TuckerModel, y: np.ndarray,
                 svds: Sequence[CompactSvd]) -> np.ndarray:
    """:func:`core_update` from the factors' compact SVDs ``svds`` and the
    projection ``y = X x_1 U_1^T ... x_N U_N^T`` onto their bases."""
    return _svd_ridge_solution(svds, y.reshape(-1), model.lam).reshape(model.core_shape)


def naive_factor_update(model: TuckerModel, x, n: int) -> np.ndarray:
    """Exact ridge update of factor ``n``: row ``i`` is
    ``(K^T K + lam I)^+ K^T b_i`` with ``K = (kron of the other factors)
    G_(n)^T`` and ``b_i`` row ``i`` of the mode-``n`` unfolding.

    With the compact SVDs ``A_k = U_k S_k V_k^T``, ``Z = X x_k U_k^T for
    every k != n`` (one pass over ``x``) and ``C = G_(n) (kron of V_k S_k for
    k != n)``, ``K^T K = C C^T`` and ``K^T b_i = C z_i``, so one compact SVD
    ``C = U diag(sigma) V^T`` gives the new factor ``Z_(n) V diag(sigma /
    (sigma^2 + lam)) U^T``, cut by :func:`~kronsolve.tensor.ridge_filter`,
    with no Gram matrix formed.  The step decomposes the N-1 factors it
    reads and runs :func:`_exact_factor_update`.  A NaN or inf in ``x``
    raises :class:`InvalidInputError` from the check of ``Z``; ``x`` is not
    scanned.  When another factor is zero its basis is empty, so is ``Z``,
    and the update is zero whatever ``x`` holds.
    """
    x = _model_shaped(model, x)
    n = check_integer(n, "mode", 0, len(model.factors))
    svds = [None if k == n else compact_svd(a) for k, a in enumerate(model.factors)]
    return _exact_factor_update(model, x, n, svds)[0]


def _exact_factor_update(model: TuckerModel, x: np.ndarray, n: int,
                         svds: Sequence[CompactSvd | None]) -> tuple[np.ndarray, np.ndarray]:
    """:func:`naive_factor_update` on checked input, from the bases ``svds``
    (``svds[n]`` unread) that ALS holds or the public step computes;
    returns the factor and the projection ``Z`` it was read off."""
    with np.errstate(invalid="ignore", over="ignore"):  # checked just below
        z = _mode_products(x, [None if k == n else svd.u.T for k, svd in enumerate(svds)])
    _check_finite_reads(z, "Z = X x_k U_k^T for k != n")
    return _ridge_factor(model, z, n, svds), z


def _ridge_factor(model: TuckerModel, z: np.ndarray, n: int,
                  svds: Sequence[CompactSvd | None]) -> np.ndarray:
    """:func:`naive_factor_update` from ``z`` and the SVDs (``svds[n]`` unread)."""
    coords = [None if k == n else (svd.v * svd.sigma).T for k, svd in enumerate(svds)]
    svd = compact_svd(_unfold(_mode_products(model.core, coords), n))
    gain = ridge_filter(svd.sigma, svd.sigma**2 + model.lam)
    return (_unfold(z, n) @ svd.v * gain) @ svd.u.T


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
    check_ridge_weight(lam)
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
                              config: RegressionConfig) -> np.ndarray:
    """Sketched update of factor ``n``: one sketched ridge solve for all rows.

    Row ``i`` of the factor minimizes ``||K y - b_i||^2 + lam ||y||^2`` with
    ``K = (kron of the other factors) G_(n)^T`` and ``b_i`` row ``i`` of the
    mode-``n`` unfolding, where ``lam`` is ``model.lam`` (the step does not
    read ``config.lam``).  One sketch ``S`` of
    ``ceil(alpha * 1680 R_rest ln(40 R_rest) ln(I_n/delta) / eps)`` rows of
    the leftover Kronecker product is drawn from the leverage-score product
    distribution by :func:`~kronsolve.solvers._leverage_draws` (seeded by
    ``config.seed``), and :func:`~kronsolve.solvers.sketched_ridge_solve`
    returns ``(D^T D + lam I)^+ D^T S B^T`` with ``D = S K`` (one row per
    distinct draw, R_n columns) for every row at once, from one SVD of ``D``
    cut by the rank rule as in :func:`naive_factor_update` (so ``lam = 0``
    with a rank-deficient core does not raise), reading ``B^T`` only at the
    sampled fibres of ``np.moveaxis(x, n, -1)``, a view of X, in one GEMM.  The
    ``ln(I_n/delta)`` factor is the per-row union bound of the paper: the
    one sketch serves all ``I_n`` right-hand sides, so each row's (1+eps)
    guarantee holds together with probability ``1 - delta``.  The step
    decomposes the N-1 factors it reads and runs
    :func:`_exact_factor_update` when the sample count reaches the leftover
    row count, else :func:`_sketched_factor_update`.
    Neither scans ``x``: a non-finite entry on a drawn fibre raises
    :class:`InvalidInputError` from the check of ``(S U)^T B^T``, one on a
    fibre the sketch did not draw cannot change the result, and the exact
    route checks its projection.  When the core or another factor is zero,
    so is ``K``, and every row's solution is zero.
    """
    n = check_integer(n, "mode", 0, len(model.factors))
    x = _model_shaped(model, x)
    count = _factor_sample_count(model.shape, model.core_shape, n, config)
    svds = [None if k == n else compact_svd(a) for k, a in enumerate(model.factors)]
    if count is None:
        return _exact_factor_update(model, x, n, svds)[0]
    return _sketched_factor_update(model, x, n, svds, count, config.seed)


def _factor_sample_count(shape: Sequence[int], core_shape: Sequence[int], n: int,
                         config: RegressionConfig) -> int | None:
    """The draws of a sketched update of factor ``n``, or ``None`` where
    they reach the leftover row count and the exact update runs; an ``eps``
    outside ``(0, 1/3)`` raises :class:`InvalidInputError`."""
    if not 0.0 < config.eps < 1.0 / 3.0:
        raise InvalidInputError(
            f"factor updates require eps in (0, 1/3), got {config.eps}")
    i_rest = math.prod(i for k, i in enumerate(shape) if k != n)
    r_rest = math.prod(r for k, r in enumerate(core_shape) if k != n)
    count = regression_sample_count(r_rest, config.eps, config.alpha,
                                    math.log(shape[n] / config.delta))
    return None if count >= i_rest else count


def _sketched_factor_update(model: TuckerModel, x: np.ndarray, n: int,
                            svds: Sequence[CompactSvd | None], count: int,
                            seed: int) -> np.ndarray:
    """:func:`fast_factor_matrix_update`'s sketched route on checked input:
    ``count`` draws, seeded by ``seed``, from the bases ``svds``."""
    others = _other_factors(model, n)
    g_n = _unfold(model.core, n)  # TuckerModel checked the core
    if not (np.any(g_n) and all(np.any(a) for a in others)):
        return np.zeros_like(model.factors[n])
    draws = _leverage_draws([svd for k, svd in enumerate(svds) if k != n], count, seed,
                            np.moveaxis(x, n, -1))
    return sketched_ridge_solve(others, *draws, model.lam, right=g_n.T).T


@dataclass
class AlsReport:
    """Loss/time trace of one alternating-least-squares run.

    ``step_errors`` (squared reconstruction errors) and ``step_losses``
    (regularized losses) come from the Gram identity of ``_fit``, not from a
    dense reconstruction; each error is accurate to about ulp * ||X||^2
    absolute (a few 1e-12 relative at a relative error of 1e-4) and is never
    negative.  No record reads the tensor itself: each reads the projection
    onto the bases ALS holds, the start's orthonormal factors as their own
    and, after a factor update, that factor's compact SVD; ALS decomposes a
    factor only after updating it (see :func:`tucker_als`).
    Records follow the steps that ran, not the mode: each exact factor
    update records ``sweep{k}-factor{n}``; a sweep whose last update
    sketched projects the tensor and records ``sweep{k}-factors``; the core
    records ``sweep{k}-core``.  So an exact sweep records N + 1 steps, a
    sketched one 2, and a fast sweep at full coverage what an exact one
    does.  ``step_seconds`` times the work since the previous record, a
    sketched update in the next record's time (the loss evaluations are
    not timed); the first step, ``init-core``, times the range-finder start
    that yields the initial factors and core.  ``sweep_seconds`` is the sum
    of one sweep's step times.
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


def initial_model(x: np.ndarray, core_shape: Sequence[int], lam: float,
                  seed) -> tuple[TuckerModel, np.ndarray]:
    """The ALS start: a sequentially truncated randomized HOSVD of ``x``.

    For ``n = 0..N-1``, on ``T``, the tensor already truncated in the modes
    before ``n``: ``Q`` is an orthonormal basis of ``T_(n) Omega``, where
    ``Omega`` is the Khatri-Rao product of one seeded Gaussian matrix per
    other mode with ``R_n + RANGE_FINDER_OVERSAMPLING`` columns (so no
    ``I_rest x k`` Gaussian is drawn): its column ``j`` is the Kronecker row
    of the transposed Gaussians at ``(j, ..., j)``.  ``U_n`` is ``Q`` times
    the top-``R_n`` eigenvectors of ``(Q^T T_(n)) (Q^T T_(n))^T``, and
    ``T <- T x_n U_n^T``, whose unfolding is those eigenvectors applied to
    ``Q^T T_(n)``, so each mode costs two passes over ``T``.  ``Q`` holds
    the left singular vectors of the sketch's thin SVD, an orthonormal
    basis of its range.

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
        gaussians = [rng.standard_normal((d, k)).T for d in rest]
        omega = kron_rows(gaussians, np.repeat(np.arange(k)[:, None], len(rest), 1))
        q = np.linalg.svd(t_n @ omega.T, full_matrices=False)[0]
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
    their exact ridge core, recorded as the ``init-core`` step.  Each
    sweep then updates factors for modes ``0..N-1`` followed by the core,
    and the core is the exact ridge core in both modes.

    ALS holds one basis per factor, ``A_k = U_k S_k V_k^T``, that every
    step reads.  The start's orthonormal factors serve as their own bases
    (``U_k = A_k``, ``S_k = V_k = I``), so the start's loss is read off the
    projected tensor it already holds and no start factor is decomposed.
    ALS decomposes a factor only after updating it, into a compact SVD
    (:func:`~kronsolve.solvers.build_factor_cache`).  Both modes run one
    sweep loop, and ``solver_mode`` sets only which factor steps sketch:
    none in ``exact`` mode, and in ``fast`` mode each step whose draws stay
    below its leftover row count (see :func:`fast_factor_matrix_update`;
    ``eps`` and the counts are checked and worked out once, before the
    start).  An exact step ``n`` reads the tensor once, as
    ``Z = X x_k U_k^T for every k != n``, reads its update off ``Z`` and
    records the loss from ``Y = Z x_n U_n^T``.  Sketched steps read the
    tensor only at their sampled fibres; when a sweep's last step sketched,
    one projection ``Y = X x_1 U_1^T ... x_N U_N^T`` gives the record
    ``sweep{k}-factors``.  The core step, which changes no factor, solves
    and records from the sweep's last ``Y``.  So an exact sweep reads the
    tensor ``N`` times, a sketched one once, and a fast sweep at full
    coverage is an exact sweep, records included.  In exact mode every block
    update is an exact minimizer, so the recorded losses are non-increasing
    (up to roundoff).  No mode forms a dense reconstruction.  ``config``
    supplies the sampling parameters and the seed of the ``fast`` mode;
    ``lam`` alone sets the ridge weight.  ``x`` is checked through
    ``||X||_F^2``, which ALS needs anyway, and is never scanned: a NaN or
    inf entry, or a norm that overflows, raises :class:`InvalidInputError`
    before the start, and a finite norm bounds every projection ALS forms.

    Returns the fitted model and an :class:`AlsReport` whose ``rre`` is the
    final relative reconstruction error.
    """
    x = _float_tensor(x)
    x_norm_sq = _checked_norm_sq(x)
    # a 1-d array is a sequence too; a 0-d one, like an int, is not
    if not (isinstance(core_shape, abc.Sequence) or np.ndim(core_shape) == 1):
        raise InvalidInputError(f"core shape {core_shape!r} must be a sequence of integers")
    if len(core_shape) != x.ndim:
        raise InvalidInputError(f"core shape {core_shape!r} does not fit order {x.ndim}")
    core_shape = tuple(check_integer(r, f"core shape entry {n}", 1, i + 1)
                       for n, (r, i) in enumerate(zip(core_shape, x.shape)))
    check_integer(sweeps, "sweeps", 1)
    check_ridge_weight(lam)
    if solver_mode not in ("exact", "fast"):
        raise InvalidInputError(f"unknown solver mode {solver_mode!r}")
    config = config or RegressionConfig()
    counts = ([_factor_sample_count(x.shape, core_shape, n, config) for n in range(x.ndim)]
              if solver_mode == "fast" else [None] * x.ndim)

    report = AlsReport()

    def record(label: str, y: np.ndarray):
        nonlocal t0
        seconds = time.perf_counter() - t0
        err, loss = _fit_projected(model, y, x_norm_sq, caches)
        report.step_labels.append(label)
        report.step_losses.append(loss)
        report.step_errors.append(err)
        report.step_seconds.append(seconds)
        t0 = time.perf_counter()

    t0 = time.perf_counter()
    model, y = initial_model(x, core_shape, lam, config.seed)
    # orthonormal factors are their own bases, with identity coordinates
    caches = [CompactSvd(u=a, sigma=np.ones(r), v=np.eye(r))
              for a, r in zip(model.factors, core_shape)]
    record("init-core", y)

    for sweep in range(sweeps):
        first = len(report.step_seconds)
        for n, count in enumerate(counts):
            if count is None:
                model.factors[n], z = _exact_factor_update(model, x, n, caches)
            else:
                seed = np.random.SeedSequence(config.seed, spawn_key=(sweep * x.ndim + n,))
                model.factors[n] = _sketched_factor_update(
                    model, x, n, caches, count, int(seed.generate_state(1)[0]))
            caches[n] = build_factor_cache(model.factors[n])
            if count is None:
                y = _mode_products(z, [svd.u.T if k == n else None
                                       for k, svd in enumerate(caches)])
                record(f"sweep{sweep}-factor{n}", y)
        if counts[-1] is not None:
            y = _mode_products(x, [svd.u.T for svd in caches])
            record(f"sweep{sweep}-factors", y)
        model.core = _core_update(model, y, caches)
        record(f"sweep{sweep}-core", y)
        report.sweep_losses.append(report.step_losses[-1])
        report.sweep_rres.append(report.step_errors[-1] / x_norm_sq
                                 if x_norm_sq > 0 else 0.0)
        report.sweep_seconds.append(sum(report.step_seconds[first:]))
    report.rre = report.sweep_rres[-1]
    return model, report

