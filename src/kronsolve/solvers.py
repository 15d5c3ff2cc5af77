"""Kronecker ridge regression solvers.

Four routes to ``argmin_x ||K x - b||^2 + lam ||x||^2`` for an implicit
``K = A1 kron ... kron AN``:

* :func:`naive_normal_solve` densifies ``K^T K`` (as a Kronecker product of
  factor Grams) and pseudo-inverts it.
* :func:`kronmatmul_svd_solve` composes the factor SVDs and never forms an
  R x R matrix; exact, and the reference for OPT.
* :func:`sketch_and_solve_ridge` samples rows of ``K`` by their leverage
  scores and solves the sketched normal equation directly with
  :func:`sketched_ridge_solve`, the direct solve that the fast Tucker block
  updates share.
* :func:`fast_kronecker_regression` solves the *sketched* problem by damped
  Richardson iteration preconditioned with the eigendecomposition of the
  *unsketched* normal matrix, read off the factor SVDs, so every step costs
  only sparse Kronecker applies.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError, NumericalFailureError, SizeGuardError
from .kron import (
    SketchedKron,
    _kron_mat_mul_rec,
    check_factors,
    kron_mat_mul,
    kron_operator_shape,
    kron_rows,
    sparse_diagonal_from_sketch,
)
from .leverage import (
    RowSketch,
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
    """Eigendecomposition of ``a.T @ a``.

    Only :func:`~kronsolve.tucker.build_factor_workspace`, which no solver
    calls, reads it: the regression solver takes the same eigenpairs from
    the factor SVD.
    """
    a = as_matrix(a)
    g = a.T @ a
    g = 0.5 * (g + g.T)
    w, v = np.linalg.eigh(g)
    w = np.clip(w[::-1], 0.0, None)
    return FactorGram(v=np.ascontiguousarray(v[:, ::-1]), eigenvalues=w, matrix=g)


def build_factor_cache(a) -> CompactSvd:
    """The thin SVD of one factor, reused by every solve that reads it.

    A name of its own, so that the benchmark's tracer counts the factor
    decompositions Tucker ALS makes apart from every other SVD.
    """
    return compact_svd(a)


def _check_caches(factors: Sequence[np.ndarray],
                  caches: Sequence[CompactSvd]) -> None:
    if len(caches) != len(factors):
        raise InvalidInputError("need one cache entry per factor")
    for n, (a, svd) in enumerate(zip(factors, caches)):
        if svd.u.shape[0] != a.shape[0] or svd.v.shape[0] != a.shape[1]:
            raise InvalidInputError(
                f"cache {n} was built for a {svd.u.shape[0]}x"
                f"{svd.v.shape[0]} factor, factor {n} is "
                f"{a.shape[0]}x{a.shape[1]}")


@dataclass(frozen=True)
class KronPreconditioner:
    """Decomposed inverse normal matrix ``(V kron ...) D (V kron ...)^T``.

    ``d_diag`` holds ``(eig_1 kron ... kron eig_N + lam)^+`` entries (zero
    where the eigenvalue product and ``lam`` both vanish), so applying the
    preconditioner costs one diagonal scaling between two Kronecker
    multiplies.  Each ``V`` (``d x r``) has orthonormal columns: the right
    singular vectors of a factor, whose eigenvalues are the squared singular
    values, or the square eigenvectors of a :class:`FactorGram`.  With
    ``r < d`` the operator is the inverse on the span of ``V kron ...``,
    which holds every ``K^T y``.  The factors are computed from checked
    input, so :meth:`apply` multiplies through the unchecked kernel of
    :func:`~kronsolve.kron.kron_mat_mul`.
    """

    v_factors: tuple[np.ndarray, ...]
    d_diag: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``(V kron ...) D (V kron ...)^T x`` for a flat float64 ``x``."""
        t = _kron_mat_mul_rec([v.T for v in self.v_factors], x[:, None])[:, 0]
        t = t * self.d_diag
        return _kron_mat_mul_rec(self.v_factors, t[:, None])[:, 0]


def pseudo_reciprocal(d: np.ndarray) -> np.ndarray:
    """Entrywise ``1/d`` with zeros kept at zero (pseudoinverse convention)."""
    out = np.zeros_like(d)
    nz = d > 0
    out[nz] = 1.0 / d[nz]
    return out


def build_kron_preconditioner(v_factors: Sequence[np.ndarray],
                              eigenvalues: Sequence[np.ndarray],
                              lam: float) -> KronPreconditioner:
    """:class:`KronPreconditioner` from the eigenpairs of each ``A_n^T A_n``:
    the columns of ``v_factors[n]`` and the entries of ``eigenvalues[n]``."""
    eig = reduce(np.kron, eigenvalues)
    d_diag = pseudo_reciprocal(eig + lam)
    return KronPreconditioner(v_factors=tuple(v_factors), d_diag=d_diag)


def richardson_solve(apply_normal: Callable[[np.ndarray], np.ndarray],
                     apply_precond: Callable[[np.ndarray], np.ndarray],
                     rhs: np.ndarray,
                     damping: float,
                     config: RegressionConfig,
                     ) -> tuple[np.ndarray, int]:
    """Damped preconditioned Richardson iteration for normal equations.

    Iterates ``x <- x - damping * M^+ (apply_normal(x) - rhs)`` from zero
    until the preconditioned residual drops below
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
    x = np.zeros_like(rhs)
    precond_rhs = apply_precond(rhs)
    scale = float(np.linalg.norm(precond_rhs))
    tol = RESIDUAL_TOL * max(scale, np.finfo(float).tiny)
    history: list[float] = []
    iterations = 0
    for k in range(config.effective_max_iters):
        if k == 0:
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
    with np.errstate(invalid="ignore"):  # a non-finite b raises just below
        ktb = kron_mat_mul([a.T for a in factors], b)
    _check_finite_reads(ktb, "K^T b")
    x = np.linalg.pinv(gram + lam * np.eye(cols)) @ ktb
    wall = time.perf_counter() - t0
    return SolveReport(solution=x, loss=ridge_loss(factors, x, b, lam),
                       iterations=0, sample_count=0, wall_time=wall)


def kronmatmul_svd_solve(factors: Sequence[np.ndarray], b, lam: float) -> SolveReport:
    """Exact ridge solution from factor SVDs and implicit Kronecker products.

    ``x = (V kron ...) diag(sigma/(sigma^2+lam)) (U kron ...)^T b`` where the
    per-factor compact SVDs compose into a compact SVD of ``K``; agrees with
    :func:`naive_normal_solve` for every ``lam >= 0``.  A non-finite ``b``
    raises :class:`InvalidInputError`; it is caught in the projection
    ``(U kron ...)^T b``, not by a scan of ``b``.
    """
    factors, b, rows, cols = _validated_problem(factors, b)
    if lam < 0:
        raise InvalidInputError(f"lambda must be >= 0, got {lam}")
    t0 = time.perf_counter()
    x = _svd_ridge_solution(factors, b, lam, None)
    wall = time.perf_counter() - t0
    return SolveReport(solution=x, loss=ridge_loss(factors, x, b, lam),
                       iterations=0, sample_count=0, wall_time=wall)


def _svd_ridge_solution(factors: Sequence[np.ndarray], b: np.ndarray, lam: float,
                        caches: Sequence[CompactSvd] | None) -> np.ndarray:
    """The solution of :func:`kronmatmul_svd_solve` without checks or loss.

    The caller has validated ``factors``, ``lam`` and ``caches`` (the SVDs
    are read from them when passed); ``b`` is checked through its projection.
    """
    svds = [compact_svd(a) for a in factors] if caches is None else caches
    with np.errstate(invalid="ignore"):  # a non-finite b raises just below
        t = kron_mat_mul([s.u.T for s in svds], b)
    _check_finite_reads(t, "(U kron ...)^T b")
    sigma = reduce(np.kron, [s.sigma for s in svds])
    t = t * (sigma / (sigma**2 + lam))
    return kron_mat_mul([s.v for s in svds], t)


def sketched_ridge_solve(factors: Sequence[np.ndarray], sketch: RowSketch,
                         b: np.ndarray, lam: float,
                         right: np.ndarray | None = None) -> np.ndarray:
    """Solve a sketched ridge problem directly: ``(D^T D + lam I)^+ D^T S b``.

    ``D = S K right`` for the row sketch ``S`` and ``K = A1 kron ... kron
    AN``, with ``right`` (``R x R'``) taken as the identity when omitted.
    Repeated draws of a row are merged first
    (:func:`~kronsolve.kron.sparse_diagonal_from_sketch`): one row weighted
    by the root of its summed squared weights leaves ``D^T D`` and
    ``D^T S b`` unchanged, so ``D`` holds one row per distinct draw.  Those
    Kronecker rows come from :func:`~kronsolve.kron.kron_rows` and are
    weighted in place.  Every column of ``b`` (a vector or a matrix whose
    rows are the rows of ``K``) is solved at once, with the pseudo-inverse
    convention, so ``lam = 0`` with a rank-deficient ``D`` does not raise,
    and refined by one step against ``D``.

    ``b`` is read only at the drawn rows, and a non-finite entry there
    raises :class:`InvalidInputError`.  ``factors``, ``right`` and ``lam``
    are the caller's to validate.
    """
    row_shape = tuple(a.shape[0] for a in factors)
    try:
        sdiag = sparse_diagonal_from_sketch(sketch, row_shape)
    except ValueError as exc:  # a multi-index outside row_shape, or a negative one
        raise InvalidInputError("sketch index out of range") from exc
    if sdiag.nnz and sdiag.indices[-1] >= math.prod(row_shape):
        raise InvalidInputError("sketch index out of range")
    b_drawn = b[sdiag.indices]
    _check_finite_reads(b_drawn, "b at a sampled row")
    weights = sdiag.values.reshape((-1,) + (1,) * (b_drawn.ndim - 1))
    design = kron_rows(factors, np.stack(np.unravel_index(sdiag.indices, row_shape),
                                         axis=1))
    design *= sdiag.values[:, None]
    if right is not None:
        design = design @ right
    gram_pinv = np.linalg.pinv(design.T @ design + lam * np.eye(design.shape[1]))
    sb = weights * b_drawn
    x = gram_pinv @ (design.T @ sb)
    # the normal equations square D's condition number, so their solution is
    # only good to about eps (|D|^2 + lam) / lam; one correction from the
    # residual against D itself brings it back to a few eps
    x += gram_pinv @ (design.T @ (sb - design @ x) - lam * x)
    return x


def sketch_and_solve_ridge(factors: Sequence[np.ndarray], b,
                           config: RegressionConfig,
                           sketch=None,
                           max_dense_entries: int | None = DEFAULT_DENSE_GUARD,
                           ) -> SolveReport:
    """Sketch-and-solve baseline: solve the sampled normal equation directly.

    Rows of ``K`` are drawn from the exact leverage-score product
    distribution (``ceil(alpha * 1680 R ln(40R) / eps)`` of them) and
    :func:`sketched_ridge_solve` returns ``((SK)^T SK + lam I)^+ (SK)^T S b``
    from one materialized row per distinct draw.  ``sketch`` overrides the
    drawn row sketch (test hook).  Guarded: refuses when the sketched matrix
    could hold more than ``max_dense_entries`` entries.
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
    x = sketched_ridge_solve(factors, sketch, b, config.lam)
    wall = time.perf_counter() - t0
    return SolveReport(solution=x, loss=ridge_loss(factors, x, b, config.lam),
                       iterations=0, sample_count=s, wall_time=wall)


def fast_kronecker_regression(factors: Sequence[np.ndarray], b,
                              config: RegressionConfig) -> SolveReport:
    """(1+eps)-approximate Kronecker ridge regression in subquadratic time.

    Pipeline: one thin SVD per factor (O(n d^2) each), whose exact
    statistical leverage scores feed a product-distribution row sampler and
    whose right singular vectors and squared singular values, the eigenpairs
    of ``A^T A``, build the decomposed preconditioner; then
    ``ceil(alpha * 1680 R ln(40R) ln(1/delta) / eps)`` sampled rows solved by
    damped preconditioned Richardson iteration where every operator
    application exploits sketch sparsity and Kronecker structure.  When the
    sample count reaches the row count the sketch is pointless, and the
    exact :func:`kronmatmul_svd_solve` runs instead.  This is the regression
    route only: the fast Tucker block updates solve their small sketched
    problems directly (:func:`sketched_ridge_solve`).  Singular values at or
    below ``1e-10 * sigma_max`` of their factor are dropped, as in
    :func:`kronmatmul_svd_solve`, so the preconditioner inverts only the
    directions the SVD resolves.

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
    lam = config.lam

    t0 = time.perf_counter()
    s = regression_sample_count(cols, config.eps, config.alpha,
                                math.log(1.0 / config.delta))
    if s >= rows:
        # sketching cannot help: more samples than rows
        exact = kronmatmul_svd_solve(factors, b, lam)
        wall = time.perf_counter() - t0
        return SolveReport(solution=exact.solution, loss=exact.loss,
                           iterations=0, sample_count=0, wall_time=wall)

    svds = [compact_svd(a) for a in factors]
    sampler = build_product_sampler([ridge_leverage_scores(svd, 0.0) for svd in svds])
    precond = build_kron_preconditioner([svd.v for svd in svds],
                                        [svd.sigma**2 for svd in svds], lam)

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
