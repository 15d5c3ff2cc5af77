"""Kronecker ridge regression solvers.

Four routes to ``argmin_x ||K x - b||^2 + lam ||x||^2`` for an implicit
``K = A1 kron ... kron AN``:

* :func:`naive_normal_solve` densifies ``K^T K`` (as a Kronecker product of
  factor Grams) and pseudo-inverts it.
* :func:`kronmatmul_svd_solve` composes the factor SVDs and never forms an
  R x R matrix; exact, and the reference for OPT.
* :func:`sketch_and_solve_ridge` samples rows of ``K`` by their leverage
  scores and solves the sketched normal equation directly.
* :func:`fast_kronecker_regression` solves the *sketched* problem by damped
  Richardson iteration preconditioned with the eigendecomposition of the
  *unsketched* normal matrix, so every step costs only sparse Kronecker
  applies.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError, NumericalFailureError, SizeGuardError
from .kron import (
    SketchedKron,
    _kron_vec_square,
    check_factors,
    kron_mat_mul,
    kron_operator_shape,
    sketch_rows_of_kron,
    sparse_diagonal_from_sketch,
)
from .leverage import (
    build_product_sampler,
    regression_sample_count,
    ridge_leverage_scores,
    sample_rows,
    statistical_leverage_scores,
)
from .tensor import CompactSvd, as_matrix, compact_svd

DEFAULT_DENSE_GUARD = 10**8

# Richardson stops once the preconditioned residual falls below this
# fraction of the preconditioned right-hand side.
RESIDUAL_TOL = 1e-9

# Divergence heuristic: this many consecutive residual increases by this
# total growth factor aborts the iteration.
_DIVERGENCE_WINDOW = 5
_DIVERGENCE_GROWTH = 10.0


@dataclass(frozen=True)
class RegressionConfig:
    """The paper's parameters for the stochastic solvers.

    ``alpha`` scales the theoretical sample counts (``alpha=1`` uses them
    unscaled).  The Richardson step ``1 - sqrt(eps)`` and the iteration
    budget ``8 * ceil(ln(1/eps))`` both derive from ``eps``.
    """

    eps: float = 0.25
    delta: float = 0.05
    lam: float = 0.0
    alpha: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise InvalidInputError(f"eps must be in (0, 1), got {self.eps}")
        if not 0.0 < self.delta < 1.0:
            raise InvalidInputError(f"delta must be in (0, 1), got {self.delta}")
        if self.lam < 0.0:
            raise InvalidInputError(f"lambda must be >= 0, got {self.lam}")
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidInputError(f"alpha must be in (0, 1], got {self.alpha}")

    @property
    def effective_damping(self) -> float:
        return 1.0 - math.sqrt(self.eps)

    @property
    def effective_max_iters(self) -> int:
        return 8 * max(1, math.ceil(math.log(1.0 / self.eps)))

    def with_lam(self, lam: float) -> "RegressionConfig":
        return replace(self, lam=lam)


@dataclass(frozen=True)
class SolveReport:
    """Solution vector plus bookkeeping for benchmark tables."""

    solution: np.ndarray
    loss: float
    iterations: int
    sample_count: int
    wall_time: float


@dataclass(frozen=True)
class FactorGram:
    """Eigendecomposition ``A^T A = v @ diag(eigenvalues) @ v.T``.

    ``v`` is square orthogonal and ``eigenvalues`` is descending and clipped
    at zero, so Kronecker-diagonal pseudo-inverses stay well defined.
    """

    v: np.ndarray
    eigenvalues: np.ndarray
    matrix: np.ndarray


def factor_gram(a) -> FactorGram:
    """Eigendecomposition of ``a.T @ a``."""
    a = as_matrix(a)
    g = a.T @ a
    g = 0.5 * (g + g.T)
    w, v = np.linalg.eigh(g)
    w = np.clip(w[::-1], 0.0, None)
    return FactorGram(v=np.ascontiguousarray(v[:, ::-1]), eigenvalues=w, matrix=g)


@dataclass(frozen=True)
class FactorCache:
    """Per-factor spectral data reused across solves: thin SVD plus Gram.

    The SVD is computed when the cache is built.  The Gram eigenpairs are
    computed from the stored factor on first access only, because the exact
    solvers read just the SVD; the factor must not be modified in place
    while the cache is in use.
    """

    svd: CompactSvd
    factor: np.ndarray

    @cached_property
    def gram(self) -> FactorGram:
        return factor_gram(self.factor)


def build_factor_cache(a) -> FactorCache:
    return FactorCache(svd=compact_svd(a), factor=np.asarray(a, dtype=np.float64))


def _check_caches(factors: Sequence[np.ndarray],
                  caches: Sequence[FactorCache]) -> None:
    if len(caches) != len(factors):
        raise InvalidInputError("need one cache entry per factor")
    for n, (a, cache) in enumerate(zip(factors, caches)):
        if cache.svd.u.shape[0] != a.shape[0] or cache.svd.v.shape[0] != a.shape[1]:
            raise InvalidInputError(
                f"cache {n} was built for a {cache.svd.u.shape[0]}x"
                f"{cache.svd.v.shape[0]} factor, factor {n} is "
                f"{a.shape[0]}x{a.shape[1]}")


@dataclass(frozen=True)
class KronPreconditioner:
    """Decomposed inverse normal matrix ``(V kron ...) D (V kron ...)^T``.

    ``d_diag`` holds ``(eig_1 kron ... kron eig_N + lam)^+`` entries (zero
    where the eigenvalue product and ``lam`` both vanish), so applying the
    preconditioner costs one diagonal scaling between two square Kronecker
    multiplies.  The factors are :class:`FactorGram` eigenvectors, computed
    from checked input, so :meth:`apply` multiplies through the unchecked
    kernel of :func:`~kronsolve.kron.kron_vec_square`.
    """

    v_factors: tuple[np.ndarray, ...]
    d_diag: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``(V kron ...) D (V kron ...)^T x`` for a flat float64 ``x``."""
        t = _kron_vec_square([v.T for v in self.v_factors], x)
        t = t * self.d_diag
        return _kron_vec_square(self.v_factors, t)


def pseudo_reciprocal(d: np.ndarray) -> np.ndarray:
    """Entrywise ``1/d`` with zeros kept at zero (pseudoinverse convention)."""
    out = np.zeros_like(d)
    nz = d > 0
    out[nz] = 1.0 / d[nz]
    return out


def build_kron_preconditioner(grams: Sequence[FactorGram], lam: float) -> KronPreconditioner:
    eig = reduce(np.kron, [g.eigenvalues for g in grams])
    d_diag = pseudo_reciprocal(eig + lam)
    return KronPreconditioner(v_factors=tuple(g.v for g in grams), d_diag=d_diag)


def richardson_solve(apply_normal: Callable[[np.ndarray], np.ndarray],
                     apply_precond: Callable[[np.ndarray], np.ndarray],
                     rhs: np.ndarray,
                     damping: float,
                     config: RegressionConfig,
                     x0: np.ndarray | None = None,
                     callback: Callable[[np.ndarray], None] | None = None,
                     ) -> tuple[np.ndarray, int]:
    """Damped preconditioned Richardson iteration for normal equations.

    Iterates ``x <- x - damping * M^+ (apply_normal(x) - rhs)`` from zero
    (or ``x0``) until the preconditioned residual drops below
    :data:`RESIDUAL_TOL` relative to the preconditioned right-hand side, or
    the budget ``config.effective_max_iters`` runs out.  Returns the final
    iterate and the number of updates applied.  From zero the first step is
    ``-M^+ rhs``, which the tolerance already needs, so it costs no
    operator apply.

    Raises
    ------
    NumericalFailureError
        If the residual grows 10x over 5 consecutive iterations.
    """
    rhs = np.asarray(rhs, dtype=np.float64).reshape(-1)
    x = np.zeros_like(rhs) if x0 is None else np.array(x0, dtype=np.float64)
    if x.shape != rhs.shape:
        raise InvalidInputError("x0 must match the right-hand side length")
    precond_rhs = apply_precond(rhs)
    scale = float(np.linalg.norm(precond_rhs))
    tol = RESIDUAL_TOL * max(scale, np.finfo(float).tiny)
    history: list[float] = []
    iterations = 0
    for k in range(config.effective_max_iters):
        if k == 0 and x0 is None:
            step = -precond_rhs  # apply_normal(0) is 0
        else:
            step = apply_precond(apply_normal(x) - rhs)
        norm = float(np.linalg.norm(step))
        history.append(norm)
        if norm <= tol:
            break
        if len(history) > _DIVERGENCE_WINDOW:
            window = history[-(_DIVERGENCE_WINDOW + 1):]
            if (all(window[i + 1] > window[i] for i in range(_DIVERGENCE_WINDOW))
                    and window[-1] > _DIVERGENCE_GROWTH * window[0]):
                raise NumericalFailureError(
                    "Richardson iteration diverged",
                    iterations=iterations,
                    diagnostics={"residual_history": history})
        x = x - damping * step
        iterations += 1
        if callback is not None:
            callback(x)
    return x, iterations


def ridge_loss(factors: Sequence[np.ndarray], x, b, lam: float) -> float:
    """Evaluate ``||K x - b||^2 + lam ||x||^2`` without materializing ``K``."""
    factors = check_factors(factors)
    rows, cols = kron_operator_shape(factors)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if x.size != cols or b.size != rows:
        raise InvalidInputError(
            f"x/b of lengths {x.size}/{b.size} do not match operator "
            f"{rows}x{cols}")
    r = kron_mat_mul(factors, x) - b
    return float(r @ r + lam * (x @ x))


def _check_finite_reads(values: np.ndarray, what: str) -> None:
    """Reject non-finite ``b`` where a solver reads it.

    No route scans all of ``b``: the exact routes check their ``R``-length
    projection of it, which a NaN or inf anywhere in ``b`` reaches (NaN and
    ``inf * 0`` are NaN, and ``inf`` survives a sum or turns it into NaN),
    and the sketched routes check the entries they draw.
    """
    if not np.all(np.isfinite(values)):
        raise InvalidInputError(f"b contains non-finite entries ({what} is not finite)")


def _validated_problem(factors, b):
    factors = check_factors(factors)
    rows, cols = kron_operator_shape(factors)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if b.size != rows:
        raise InvalidInputError(f"b has length {b.size}, operator has {rows} rows")
    for n, a in enumerate(factors):
        if not np.any(a):
            raise InvalidInputError(f"factor {n} is identically zero")
    return factors, b, rows, cols


def naive_normal_solve(factors: Sequence[np.ndarray], b, lam: float,
                       max_dense_entries: int | None = DEFAULT_DENSE_GUARD,
                       ) -> SolveReport:
    """Exact ridge solution via the densified normal matrix.

    ``K^T K`` is built as the Kronecker product of the factor Gram matrices
    and pseudo-inverted; ``K^T b`` uses the implicit transpose multiply.
    Guarded: refuses when ``(prod R_n)^2`` exceeds ``max_dense_entries``.
    """
    factors, b, rows, cols = _validated_problem(factors, b)
    if lam < 0:
        raise InvalidInputError(f"lambda must be >= 0, got {lam}")
    if max_dense_entries is not None and cols * cols > max_dense_entries:
        raise SizeGuardError(
            f"normal matrix would hold {cols}x{cols} entries "
            f"(guard: {max_dense_entries})")
    t0 = time.perf_counter()
    gram = reduce(np.kron, [a.T @ a for a in factors])
    ktb = kron_mat_mul([a.T for a in factors], b)
    _check_finite_reads(ktb, "K^T b")
    x = np.linalg.pinv(gram + lam * np.eye(cols)) @ ktb
    wall = time.perf_counter() - t0
    return SolveReport(solution=x, loss=ridge_loss(factors, x, b, lam),
                       iterations=0, sample_count=0, wall_time=wall)


def kronmatmul_svd_solve(factors: Sequence[np.ndarray], b, lam: float,
                         caches: Sequence[FactorCache] | None = None) -> SolveReport:
    """Exact ridge solution from factor SVDs and implicit Kronecker products.

    ``x = (V kron ...) diag(sigma/(sigma^2+lam)) (U kron ...)^T b`` where the
    per-factor compact SVDs compose into a compact SVD of ``K``; agrees with
    :func:`naive_normal_solve` for every ``lam >= 0``.  The SVDs come from
    ``caches`` (one per factor, checked against the factors) when passed.
    A non-finite ``b`` raises :class:`InvalidInputError`; it is caught in
    the projection ``(U kron ...)^T b``, not by a scan of ``b``.
    """
    factors, b, rows, cols = _validated_problem(factors, b)
    if lam < 0:
        raise InvalidInputError(f"lambda must be >= 0, got {lam}")
    if caches is not None:
        _check_caches(factors, caches)
    t0 = time.perf_counter()
    x = _svd_ridge_solution(factors, b, lam, caches)
    wall = time.perf_counter() - t0
    return SolveReport(solution=x, loss=ridge_loss(factors, x, b, lam),
                       iterations=0, sample_count=0, wall_time=wall)


def _svd_ridge_solution(factors: Sequence[np.ndarray], b: np.ndarray, lam: float,
                        caches: Sequence[FactorCache] | None) -> np.ndarray:
    """The solution of :func:`kronmatmul_svd_solve` without checks or loss.

    The caller has validated ``factors``, ``lam`` and ``caches``; ``b`` is
    checked through its projection.
    """
    svds = ([compact_svd(a) for a in factors] if caches is None
            else [c.svd for c in caches])
    t = kron_mat_mul([s.u.T for s in svds], b)
    _check_finite_reads(t, "(U kron ...)^T b")
    sigma = reduce(np.kron, [s.sigma for s in svds])
    t = t * (sigma / (sigma**2 + lam))
    return kron_mat_mul([s.v for s in svds], t)


def sketch_and_solve_ridge(factors: Sequence[np.ndarray], b,
                           config: RegressionConfig,
                           sketch=None,
                           max_dense_entries: int | None = DEFAULT_DENSE_GUARD,
                           ) -> SolveReport:
    """Sketch-and-solve baseline: solve the sampled normal equation directly.

    Rows of ``K`` are drawn from the exact leverage-score product
    distribution (``ceil(alpha * 1680 R ln(40R) / eps)`` of them), the
    sketched matrix is materialized, and
    ``((SK)^T SK + lam I)^+ (SK)^T S b`` is returned.  ``sketch`` overrides
    the drawn row sketch (test hook).
    """
    factors, b, rows, cols = _validated_problem(factors, b)
    t0 = time.perf_counter()
    if sketch is None:
        sampler = build_product_sampler(
            [statistical_leverage_scores(a) for a in factors])
        s = regression_sample_count(cols, config.eps, config.alpha)
        sketch = sample_rows(sampler, s, config.seed)
    s = sketch.sample_count
    if max_dense_entries is not None and max(s * cols, cols * cols) > max_dense_entries:
        raise SizeGuardError(
            f"sketched matrix would hold {s}x{cols} entries "
            f"(guard: {max_dense_entries})")
    sk = sketch_rows_of_kron(factors, sketch)
    if sketch.indices.ndim == 2:
        flat = np.ravel_multi_index(tuple(sketch.indices.T),
                                    tuple(a.shape[0] for a in factors))
    else:
        flat = sketch.indices
    sb = sketch.weights * b[flat]
    _check_finite_reads(sb, "S b")
    x = np.linalg.pinv(sk.T @ sk + config.lam * np.eye(cols)) @ (sk.T @ sb)
    wall = time.perf_counter() - t0
    return SolveReport(solution=x, loss=ridge_loss(factors, x, b, config.lam),
                       iterations=0, sample_count=s, wall_time=wall)


def fast_kronecker_regression(factors: Sequence[np.ndarray], b,
                              config: RegressionConfig,
                              caches: Sequence[FactorCache] | None = None,
                              ) -> SolveReport:
    """(1+eps)-approximate Kronecker ridge regression in subquadratic time.

    Pipeline: one thin SVD and Gram eigendecomposition per factor
    (:func:`build_factor_cache`, O(n d^2) each), whose exact statistical
    leverage scores feed a product-distribution row sampler and whose Gram
    eigenpairs build the decomposed preconditioner; then
    ``ceil(alpha * 1680 R ln(40R) ln(1/delta) / eps)`` sampled rows solved by
    damped preconditioned Richardson iteration where every operator
    application exploits sketch sparsity and Kronecker structure.

    ``caches`` (one per factor, e.g. reused across Tucker sweeps) skips the
    per-factor decompositions, also in the exact SVD solver that runs instead
    when the sample count reaches the row count and the sketch is pointless.

    ``b`` is checked where it is read: a non-finite entry at a sampled row
    raises :class:`InvalidInputError`, and one at a row the sketch did not
    draw shows up as a non-finite (NaN or inf) loss.  The exact fallback
    checks its projection of ``b`` instead.

    ``wall_time`` covers the solve; the reported loss is evaluated exactly
    afterwards, once the sketched operator and its precomputed gathers have
    been released, so they do not add to the loss's peak memory.
    """
    factors, b, rows, cols = _validated_problem(factors, b)
    if not 0.0 < config.eps <= 0.25:
        raise InvalidInputError(
            f"fast regression requires eps in (0, 1/4], got {config.eps}")
    if caches is not None:
        _check_caches(factors, caches)
    lam = config.lam

    t0 = time.perf_counter()
    s = regression_sample_count(cols, config.eps, config.alpha,
                                math.log(1.0 / config.delta))
    if s >= rows:
        # sketching cannot help: more samples than rows
        exact = kronmatmul_svd_solve(factors, b, lam, caches=caches)
        wall = time.perf_counter() - t0
        return SolveReport(solution=exact.solution, loss=exact.loss,
                           iterations=0, sample_count=0, wall_time=wall)

    if caches is None:
        caches = [build_factor_cache(a) for a in factors]
    sampler = build_product_sampler(
        [ridge_leverage_scores(c.svd, 0.0) for c in caches])
    precond = build_kron_preconditioner([c.gram for c in caches], lam)

    # fixed spawn child 2N of config.seed: changing it moves every seeded sketch
    seed = np.random.SeedSequence(config.seed, spawn_key=(2 * len(factors),))
    sketch = sample_rows(sampler, s, seed)
    row_shape = tuple(a.shape[0] for a in factors)
    sdiag = sparse_diagonal_from_sketch(sketch, row_shape)
    b_drawn = b[sdiag.indices]
    _check_finite_reads(b_drawn, "b at a sampled row")
    op = SketchedKron(factors, sdiag)
    rhs = op.transpose_apply(sdiag.values * b_drawn)
    x, iters = richardson_solve(lambda v: op.normal(v) + lam * v, precond.apply,
                                rhs, config.effective_damping, config)
    wall = time.perf_counter() - t0
    del op
    return SolveReport(solution=x, loss=ridge_loss(factors, x, b, lam),
                       iterations=iters, sample_count=s, wall_time=wall)
