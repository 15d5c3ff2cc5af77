"""Kronecker ridge regression solvers.

Four routes to ``argmin_x ||K x - b||^2 + lam ||x||^2`` for an implicit
``K = A1 kron ... kron AN``:

* :func:`naive_normal_solve` densifies ``K^T K`` (as a Kronecker product of
  factor Grams) and pseudo-inverts it.
* :func:`kronmatmul_svd_solve` composes the factor SVDs and never forms an
  R x R matrix; exact, and the reference for OPT.
* :func:`sketch_and_solve_ridge` samples rows of ``K`` by their leverage
  scores and solves the sketched normal equation directly with
  :func:`sketched_ridge_solve`, the one direct sketched solve, which the
  fast Tucker block updates share.
* :func:`fast_kronecker_regression` solves the *sketched* problem by
  conjugate gradients preconditioned with the eigendecomposition of the
  *unsketched* normal matrix, read off the factor SVDs.  Every step costs
  one apply of the sketched rows and of the preconditioner: sparse Kronecker
  applies on a large problem, dense matrix-vector products with the
  materialized sketched design on a small one (:func:`_pcg_operators`).

Both sketched routes and the fast Tucker step draw through
:func:`_leverage_draws`, and each sketched route runs the exact
:func:`kronmatmul_svd_solve` instead once its sample count reaches the row
count.  The four routes and :func:`ridge_loss` are the public entries: each checks
its factors (2-d and finite; a solve also refuses an identically zero
factor) and the lengths of its vectors, and :class:`RegressionConfig`
checks its parameters.  :func:`sketched_ridge_solve`,
:func:`pcg_solve`, :class:`KronPreconditioner` and the private
helpers are kernels that take checked input and check it no more; they
hand it on to the sketch kernels of :mod:`~kronsolve.kron` and
:mod:`~kronsolve.leverage` unchecked too.  A route checks ``b`` where it
reads it (:func:`_check_finite_reads`), as every Tucker entry checks its
tensor.

Every route reports the ridge loss of its solution, evaluated the first
time :attr:`SolveReport.loss` is read and not inside the call.
:func:`kronmatmul_svd_solve` and :func:`fast_kronecker_regression` read it
off the factor SVDs, the projection ``t = (U1 kron ... kron UN)^T b`` and
``||b||^2`` (:func:`_projected_ridge_loss`): the exact route reuses the
``t`` its solve formed, and the fast route forms ``t`` at that read, so a
fast call never passes over all of ``b``.  The other two call
:func:`ridge_loss`, the direct evaluator.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import partial, reduce
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError, NumericalFailureError, SizeGuardError
from .kron import (
    SketchedKron,
    SparseDiagonal,
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
)
from .tensor import (CompactSvd, _mode_products, as_matrix, as_real_array, check_integer,
                     check_ridge_weight, compact_svd)

# naive_normal_solve and sketch_and_solve_ridge refuse a dense matrix of more
# entries than this; each reads it when called
DENSE_GUARD = 10**8

# PCG also stops once r^T M^+ r falls to RESIDUAL_TOL^2 of its start (a consistent system)
RESIDUAL_TOL = 1e-9

# ridge_loss forms its residual this many entries at a time (at least one
# row of the first factor): 8 MB blocks keep the block GEMMs wide at d=64
# while no regression call holds a residual of the full row count.
_LOSS_BLOCK_ENTRIES = 1 << 20

# fast_kronecker_regression runs PCG on its materialized sketched design and
# a dense preconditioner when the larger holds at most this many entries.
# Measured at 1 BLAS thread on order-2 and order-3 calls: the dense form took
# 0.56-0.97x the implicit form's time from 1.3e3 to 2.5e5 entries (16 to 144
# columns), 1.04-2.1x from 2.7e5 to 1.4e6 (36 to 400 columns) and 9x at 8.6e6
# (1,024 columns); the rule keeps half of that crossover as margin.
_DENSE_SKETCH_MAX_ENTRIES = 1 << 17


@dataclass(frozen=True)
class RegressionConfig:
    """The paper's parameters for the stochastic solvers.

    ``alpha`` scales the theoretical sample counts (``alpha=1`` uses them
    unscaled).  The inner solver's stop (a step that lowers the sketched
    loss by at most ``eps^2 / 10`` of what remains) and its iteration cap
    ``8 * ceil(ln(1/eps))`` both derive from ``eps``.  ``seed`` is a
    non-negative Python or numpy integer, not a ``bool``.
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
        check_ridge_weight(self.lam)
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidInputError(f"alpha must be in (0, 1], got {self.alpha}")
        check_integer(self.seed, "seed")

    @property
    def effective_max_iters(self) -> int:
        return 8 * max(1, math.ceil(math.log(1.0 / self.eps)))


class _EvaluateOnce:
    """A zero-argument function called at most once: the first call keeps
    its value and lets go of the function."""

    def __init__(self, fn: Callable[[], float]):
        self.fn = fn

    def __call__(self) -> float:
        if self.fn is not None:
            self.value, self.fn = self.fn(), None
        return self.value


@dataclass(frozen=True)
class SolveReport:
    """Solution vector plus bookkeeping for benchmark tables.

    :attr:`loss` is the exact ridge loss ``||K x - b||^2 + lam ||x||^2`` of
    ``solution``.  The call that returns the report does not evaluate it:
    ``loss_fn`` does, the first time :attr:`loss` is read, directly by
    :func:`ridge_loss` or, in :func:`kronmatmul_svd_solve` and
    :func:`fast_kronecker_regression`, from the projection of ``b`` onto the
    factors' left singular vectors, to about ulp * ||b||^2 absolute.  The
    route keeps a reference to ``b``, not a copy, so the loss is taken
    against ``b`` as it stands at that first read, and copies made by
    :func:`dataclasses.replace` before it share that one evaluation.
    ``wall_time`` never covers it.  ``sample_count`` is the rows drawn and
    ``distinct_rows`` the rows left once repeated draws are merged; both are
    0 where no sketch ran.  ``converged`` is False only when :func:`pcg_solve` stopped
    at its cap, and ``residual`` is its final relative residual
    ``sqrt(r^T z / r_0^T z_0)``, 0 where PCG did not run.
    """

    solution: np.ndarray
    loss_fn: Callable[[], float] = field(repr=False)
    iterations: int
    sample_count: int
    wall_time: float
    converged: bool = True
    distinct_rows: int = 0
    residual: float = 0.0

    def __post_init__(self):
        if not isinstance(self.loss_fn, _EvaluateOnce):
            object.__setattr__(self, "loss_fn", _EvaluateOnce(self.loss_fn))

    @property
    def loss(self) -> float:
        """The ridge loss of ``solution``: ``loss_fn()`` at the first read of
        this report or of a copy, its cached value after.  The first read
        replaces ``loss_fn`` by a constant, so the report stops holding what
        the route's function held (the factor SVDs, ``b``)."""
        value = self.loss_fn()
        object.__setattr__(self, "loss_fn", partial(float, value))
        return value


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
    input, so :meth:`apply` skips to the kernel behind
    :func:`~kronsolve.kron.kron_mat_mul`, :func:`~kronsolve.tensor._mode_products`.
    """

    v_factors: tuple[np.ndarray, ...]
    d_diag: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``(V kron ...) D (V kron ...)^T x`` for a flat float64 ``x``."""
        t = _mode_products(x.reshape([v.shape[0] for v in self.v_factors]),
                           [v.T for v in self.v_factors]).reshape(-1)
        t = t * self.d_diag
        return _mode_products(t.reshape([v.shape[1] for v in self.v_factors]),
                              self.v_factors).reshape(-1)


def build_kron_preconditioner(v_factors: Sequence[np.ndarray],
                              eigenvalues: Sequence[np.ndarray],
                              lam: float) -> KronPreconditioner:
    """:class:`KronPreconditioner` from the eigenpairs of each ``A_n^T A_n``:
    the columns of ``v_factors[n]`` and the entries of ``eigenvalues[n]``."""
    d = reduce(np.kron, eigenvalues) + lam
    d_diag = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)
    return KronPreconditioner(v_factors=tuple(v_factors), d_diag=d_diag)


def pcg_solve(apply_normal: Callable[[np.ndarray], np.ndarray],
              apply_precond: Callable[[np.ndarray], np.ndarray], rhs: np.ndarray,
              config: RegressionConfig, b_norm_sq: float,
              ) -> tuple[np.ndarray, int, float]:
    """Preconditioned conjugate gradients (Saad 2003, Alg. 9.1) from zero for
    sketched normal equations ``N x = rhs``; returns the iterate, the number
    of iterations, each of which makes one ``apply_normal``, and the final
    relative residual ``sqrt(r^T z / r_0^T z_0)`` (0 for a zero ``rhs``).

    Step ``k`` lowers the sketched loss ``x^T N x - 2 rhs^T x + b_norm_sq``
    (``b_norm_sq = ||S b||^2``) by ``alpha_k r_k^T z_k``.  The iteration
    stops after a step that lowers it by at most ``eps^2 / 10`` of what
    remains, once ``r_k^T z_k <= RESIDUAL_TOL^2 r_0^T z_0``, or at the cap
    ``config.effective_max_iters``.  Its ``k``-th iterate minimizes the
    energy-norm error over a Krylov space that holds the ``k``-th iterate of
    Richardson iteration with the same preconditioner.  A negative ``r^T z`` or a
    nonpositive ``p^T N p`` (an indefinite preconditioner or operator)
    raises :class:`NumericalFailureError`.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = apply_precond(r)
    rz = rz_start = float(r @ z)
    floor = RESIDUAL_TOL**2 * rz
    remaining = b_norm_sq
    p = z
    iterations = 0
    # a negative r^T z is below the floor too, so it must reach the check
    while not 0.0 <= rz <= floor:
        q = apply_normal(p)
        pq = float(p @ q)
        if not (rz > 0.0 and pq > 0.0):
            raise NumericalFailureError(
                f"PCG broke down: r^T z = {rz!r}, p^T N p = {pq!r}",
                iterations=iterations, diagnostics={"rz": rz, "pq": pq})
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        iterations += 1
        remaining -= alpha * rz
        z = apply_precond(r)
        rz_next = float(r @ z)
        if (alpha * rz <= config.eps**2 / 10 * remaining
                or iterations == config.effective_max_iters):
            rz = rz_next
            break
        p = z + (rz_next / rz) * p
        rz = rz_next
    # a step that stops the iteration does not check r^T z, which an
    # indefinite preconditioner can leave negative
    residual = math.sqrt(max(rz, 0.0) / rz_start) if rz_start > 0.0 else 0.0
    return x, iterations, residual


# The benchmark traces the inner solver under this binding; it goes when a
# benchmark change renames the traced name (ROADMAP item 1(b)).
richardson_solve = pcg_solve


def ridge_loss(factors: Sequence[np.ndarray], x, b, lam: float) -> float:
    """Evaluate ``||K x - b||^2 + lam ||x||^2`` without materializing ``K``.

    The residual streams through blocks of the first factor's rows: each
    block is ``A1[lo:hi] kron A2 kron ... kron AN`` applied to ``x`` by the
    multiply kernel, holds at most :data:`_LOSS_BLOCK_ENTRIES` entries (or
    one row of ``A1``), and is gone before the next, so no vector of the
    full row count is formed and ``b`` is read in one pass.  The blocks do
    the flops of one whole multiply.  A NaN or inf in ``b`` gives a
    non-finite loss.
    """
    factors = check_factors(factors)
    rows, cols = kron_operator_shape(factors)
    x = as_real_array(x, "x").reshape(-1)
    b = as_real_array(b, "b").reshape(-1)
    if x.size != cols:
        raise InvalidInputError(f"x has length {x.size}, operator has {cols} columns")
    if b.size != rows:
        raise InvalidInputError(f"b has length {b.size}, operator has {rows} rows")
    check_ridge_weight(lam)
    first, rest = factors[0], factors[1:]
    per_row = math.prod(a.shape[0] for a in rest)  # rows of K per row of A1
    step = max(1, _LOSS_BLOCK_ENTRIES // max(per_row, 1))
    x_tensor = x.reshape([a.shape[1] for a in factors])
    total = 0.0
    for lo in range(0, first.shape[0], step):
        hi = min(lo + step, first.shape[0])
        r = _mode_products(x_tensor, [first[lo:hi]] + rest).reshape(-1)
        r -= b[lo * per_row:hi * per_row]
        total += float(np.vdot(r, r))
    return total + lam * float(x @ x)


def _check_finite_reads(values: np.ndarray | float, what: str) -> None:
    """Reject a non-finite input (``b``, or a Tucker tensor ``X``) where a
    solver reads it.

    No entry scans all of its input: it checks what it computes from it.
    The exact routes check their projection of it (``t`` for regression,
    ``Z`` or ``Y`` for a Tucker step), which a NaN or inf anywhere in the
    input reaches (NaN and ``inf * 0`` are NaN, and ``inf`` survives a sum
    or turns it into NaN), and so does an overflow of the projection, which
    they compute with numpy's invalid and overflow warnings off, so that
    this error is the one the caller sees; Tucker ALS and its loss
    evaluators check the ``||X||_F^2`` they need anyway, which is not finite
    once an entry is or once the norm overflows; and the sketched routes
    check what they compute from the entries they draw (``||S b||^2``, ``D^T S b``).
    """
    if not np.all(np.isfinite(values)):
        raise InvalidInputError(
            f"the input is not finite or too large ({what} is not finite)")


def _drawn_rows(sketch: RowSketch, row_shape: tuple[int, ...], b: np.ndarray):
    """The merged draws of ``sketch``, their ``(nnz, N)`` multi-indices, and
    ``b`` there.

    ``b``'s leading axes are ``row_shape``, so it is read at the draws
    alone; each route checks what it computes from them.
    """
    sdiag = sparse_diagonal_from_sketch(sketch, row_shape)
    multi = np.unravel_index(sdiag.indices, row_shape)
    return sdiag, np.stack(multi, axis=1), b[multi]


def _leverage_draws(svds: Sequence[CompactSvd], count: int, seed, b: np.ndarray):
    """:func:`_drawn_rows` of ``count`` rows of ``K`` drawn by the product of
    its factors' statistical leverage scores, read off their compact SVDs
    ``svds``; ``b``'s leading axes are ``K``'s row shape.  Every sketched
    route draws here, each with its own ``seed``."""
    sampler = build_product_sampler([ridge_leverage_scores(svd, 0.0) for svd in svds])
    sketch = sample_rows(sampler, count, seed)
    return _drawn_rows(sketch, tuple(svd.u.shape[0] for svd in svds), b)


def _validated_problem(factors, b):
    factors = check_factors(factors)
    rows, cols = kron_operator_shape(factors)
    b = as_real_array(b, "b").reshape(-1)
    if b.size != rows:
        raise InvalidInputError(f"b has length {b.size}, operator has {rows} rows")
    for n, a in enumerate(factors):
        if not np.any(a):
            raise InvalidInputError(f"factor {n} is identically zero")
    return factors, b, rows, cols


def naive_normal_solve(factors: Sequence[np.ndarray], b, lam: float) -> SolveReport:
    """Exact ridge solution via the densified normal matrix.

    ``K^T K`` is built as the Kronecker product of the factor Gram matrices
    and pseudo-inverted; ``K^T b`` uses the implicit transpose multiply.
    Guarded: raises :class:`SizeGuardError` when ``(prod R_n)^2`` exceeds
    :data:`DENSE_GUARD`.
    """
    factors, b, rows, cols = _validated_problem(factors, b)
    check_ridge_weight(lam)
    if cols * cols > DENSE_GUARD:
        raise SizeGuardError(
            f"normal matrix would hold {cols}x{cols} entries (guard: {DENSE_GUARD})")
    t0 = time.perf_counter()
    gram = reduce(np.kron, [a.T @ a for a in factors])
    with np.errstate(invalid="ignore", over="ignore"):  # checked just below
        ktb = kron_mat_mul([a.T for a in factors], b)
    _check_finite_reads(ktb, "K^T b")
    x = np.linalg.pinv(gram + lam * np.eye(cols)) @ ktb
    wall = time.perf_counter() - t0
    return SolveReport(solution=x, loss_fn=partial(ridge_loss, factors, x, b, lam),
                       iterations=0, sample_count=0, wall_time=wall)


def kronmatmul_svd_solve(factors: Sequence[np.ndarray], b, lam: float) -> SolveReport:
    """Exact ridge solution from factor SVDs and implicit Kronecker products.

    ``x = (V kron ...) diag(sigma/(sigma^2+lam)) (U kron ...)^T b`` where the
    per-factor compact SVDs compose into a compact SVD of ``K``; agrees with
    :func:`naive_normal_solve` for every ``lam >= 0``.  A non-finite ``b``
    raises :class:`InvalidInputError`; it is caught in the projection
    ``t = (U kron ...)^T b``, not by a scan of ``b``.  The reported loss is
    read off that ``t`` and ``||b||^2`` (:func:`_projected_ridge_loss`) when
    it is first read, against ``b`` as it stands then, so the call reads
    ``b`` in one Kronecker multiply and the first read in one dot product.
    """
    factors, b, rows, cols = _validated_problem(factors, b)
    check_ridge_weight(lam)
    t0 = time.perf_counter()
    svds = [compact_svd(a) for a in factors]
    with np.errstate(invalid="ignore", over="ignore"):  # checked just below
        t = kron_mat_mul([s.u.T for s in svds], b)
    _check_finite_reads(t, "(U kron ...)^T b")
    x = _svd_ridge_solution(svds, t, lam)
    wall = time.perf_counter() - t0
    return SolveReport(solution=x, loss_fn=partial(_loss_off_bases, svds, b, x, lam, t),
                       iterations=0, sample_count=0, wall_time=wall)


def _svd_ridge_solution(svds: Sequence[CompactSvd], t: np.ndarray,
                        lam: float) -> np.ndarray:
    """The ridge solution ``(V kron ...) diag(sigma/(sigma^2+lam)) t`` from
    the factors' compact SVDs and the projection ``t = (U kron ...)^T b``,
    which the caller has formed and checked; no loss is evaluated."""
    sigma = reduce(np.kron, [s.sigma for s in svds])
    return kron_mat_mul([s.v for s in svds], t * (sigma / (sigma**2 + lam)))


def _projected_ridge_loss(svds: Sequence[CompactSvd], t: np.ndarray,
                          b_norm_sq: float, x: np.ndarray, lam: float) -> float:
    """:func:`ridge_loss` from the factors' compact SVDs, the projection
    ``t = (U kron ...)^T b`` and ``||b||^2``; it reads only ``R``-sized arrays.

    With ``K = (U kron ...) (S V^T kron ...)`` the loss is
    ``(||b||^2 - ||t||^2) + ||t - (S V^T kron ...) x||^2 + lam ||x||^2``;
    :func:`~kronsolve.tucker._fit_projected` reads the Tucker error off it
    at lam 0.  The first difference cancels, which bounds the absolute
    accuracy to about ulp * ||b||^2; it is clamped at 0.  Multiplying out
    ``A^T A`` instead loses up to 100x more when the factors and ``x``
    differ in scale, as ridge ALS leaves them.  The SVDs drop singular
    values at or below ``1e-10 * sigma_max`` of their factor, which moves
    the loss by no more than that truncation moves ``K x``.  A NaN or inf in ``t`` or
    ``b_norm_sq`` gives a non-finite loss.
    """
    coords = [(s.v * s.sigma).T for s in svds]
    h = _mode_products(x.reshape([s.v.shape[0] for s in svds]), coords).reshape(-1)
    d = t - h
    # max(nan, 0.0) keeps the NaN that max(0.0, nan) would drop
    outside = max(b_norm_sq - float(np.vdot(t, t)), 0.0)
    return outside + float(np.vdot(d, d)) + lam * float(x @ x)


def _loss_off_bases(svds: Sequence[CompactSvd], b: np.ndarray, x: np.ndarray,
                    lam: float, t: np.ndarray | None = None) -> float:
    """:func:`_projected_ridge_loss` against ``b`` as it stands at the call:
    ``||b||^2`` is taken here, and so is ``t = (U kron ...)^T b`` unless the
    solve formed it.  The reports of the two SVD routes evaluate their loss
    through it when it is first read."""
    # an undrawn non-finite entry of b reaches t as a NaN or inf, not an error
    with np.errstate(invalid="ignore"):
        if t is None:
            t = kron_mat_mul([svd.u.T for svd in svds], b)
        return _projected_ridge_loss(svds, t, float(np.vdot(b, b)), x, lam)


def _weighted_rows(factors: Sequence[np.ndarray], sdiag: SparseDiagonal,
                   multi: np.ndarray) -> np.ndarray:
    """The materialized sketched design ``S K``: the Kronecker rows of
    :func:`~kronsolve.kron.kron_rows` at the merged draws ``multi``, each
    weighted in place by its entry of ``sdiag``."""
    design = kron_rows(factors, multi)
    design *= sdiag.values[:, None]
    return design


def sketched_ridge_solve(factors: Sequence[np.ndarray], sdiag: SparseDiagonal,
                         multi: np.ndarray, b_drawn: np.ndarray, lam: float,
                         right: np.ndarray | None = None) -> np.ndarray:
    """Solve a sketched ridge problem directly: ``(D^T D + lam I)^+ D^T S b``.

    ``D = S K right`` for the row sketch ``S`` and ``K = A1 kron ... kron
    AN``, with ``right`` (``R x R'``) taken as the identity when omitted.
    The sketch comes merged, as :func:`_leverage_draws` returns it: the
    diagonal ``sdiag`` (a repeated row weighted by the root of its summed
    squared weights, which leaves ``D^T D`` and ``D^T S b`` unchanged), its
    ``(nnz, N)`` multi-indices ``multi``, and ``b_drawn``, ``b`` there,
    whose trailing axis holds more right-hand sides.  ``D`` holds the
    Kronecker rows of :func:`~kronsolve.kron.kron_rows`, weighted in place.
    All are solved at once, with the pseudo-inverse convention, so
    ``lam = 0`` with a rank-deficient ``D`` does not raise, and refined by
    one step against ``D``.  ``factors``, ``right`` and ``lam`` are the
    caller's to validate; ``b_drawn`` is checked through ``D^T S b``.
    """
    weights = sdiag.values.reshape((-1,) + (1,) * (b_drawn.ndim - 1))
    design = _weighted_rows(factors, sdiag, multi)
    if right is not None:
        design = design @ right
    gram_pinv = np.linalg.pinv(design.T @ design + lam * np.eye(design.shape[1]))
    with np.errstate(invalid="ignore", over="ignore"):  # checked just below
        sb = weights * b_drawn
        dsb = design.T @ sb
    _check_finite_reads(dsb, "D^T S b")
    x = gram_pinv @ dsb
    # the normal equations square D's condition number, so their solution is
    # only good to about eps (|D|^2 + lam) / lam; one correction from the
    # residual against D itself brings it back to a few eps
    x += gram_pinv @ (design.T @ (sb - design @ x) - lam * x)
    return x


def sketch_and_solve_ridge(factors: Sequence[np.ndarray], b,
                           config: RegressionConfig) -> SolveReport:
    """Sketch-and-solve baseline: solve the sampled normal equation directly.

    Rows of ``K`` are drawn from the exact leverage-score product
    distribution (``ceil(alpha * 1680 R ln(40R) / eps)`` of them) and
    :func:`sketched_ridge_solve` returns ``((SK)^T SK + lam I)^+ (SK)^T S b``
    from one materialized row per distinct draw.  When the sample count
    reaches the row count the sketch is pointless, and the exact
    :func:`kronmatmul_svd_solve` runs instead, as in
    :func:`fast_kronecker_regression`.  Otherwise guarded: raises
    :class:`SizeGuardError` when the sketched matrix could hold more than
    :data:`DENSE_GUARD` entries.  The loss is :func:`ridge_loss`'s,
    evaluated when it is first read, against ``b`` as it stands then.
    """
    factors, b, rows, cols = _validated_problem(factors, b)
    t0 = time.perf_counter()
    s = regression_sample_count(cols, config.eps, config.alpha)
    if s >= rows:
        exact = kronmatmul_svd_solve(factors, b, config.lam)
        return replace(exact, wall_time=time.perf_counter() - t0)
    if max(s * cols, cols * cols) > DENSE_GUARD:
        raise SizeGuardError(
            f"sketched matrix would hold {s}x{cols} entries (guard: {DENSE_GUARD})")
    draws = _leverage_draws([compact_svd(a) for a in factors], s, config.seed,
                            b.reshape([a.shape[0] for a in factors]))
    x = sketched_ridge_solve(factors, *draws, config.lam)
    wall = time.perf_counter() - t0
    return SolveReport(solution=x, loss_fn=partial(ridge_loss, factors, x, b, config.lam),
                       iterations=0, sample_count=s, wall_time=wall,
                       distinct_rows=draws[0].nnz)


def _pcg_operators(factors: Sequence[np.ndarray], sdiag: SparseDiagonal,
                   multi: np.ndarray, precond: KronPreconditioner, sb: np.ndarray,
                   lam: float):
    """The normal apply ``v -> K^T S^2 K v + lam v``, the preconditioner apply
    and the right-hand side ``K^T S^2 b`` (from ``sb``, ``S b`` at the draws)
    of :func:`fast_kronecker_regression`'s PCG solve.

    A small problem, whose larger of the sketched design ``D = S K`` (``nnz x
    R``) and the dense preconditioner (``R x R``) holds at most
    :data:`_DENSE_SKETCH_MAX_ENTRIES` entries, materializes both, so that
    each apply is one or two dense matrix-vector products:
    ``D = diag(s) kron_rows(factors, multi)`` as :func:`sketched_ridge_solve`
    builds it, and ``P = V diag(d) V^T`` for ``V = V1 kron ... kron VN``,
    from the factors and the diagonal of ``precond``.  A larger one keeps ``S K`` implicit
    in a :class:`~kronsolve.kron.SketchedKron` and applies ``precond`` by
    Kronecker multiplies.
    """
    cols = kron_operator_shape(factors)[1]
    if max(sdiag.nnz, cols) * cols <= _DENSE_SKETCH_MAX_ENTRIES:
        design = _weighted_rows(factors, sdiag, multi)
        # V diag(d) V^T as W W^T, W = V diag(sqrt d): one symmetric product
        w = reduce(np.kron, precond.v_factors) * np.sqrt(precond.d_diag)
        dense_precond = w @ w.T
        return (lambda u: design.T @ (design @ u) + lam * u,
                lambda r: dense_precond @ r, design.T @ sb)
    op = SketchedKron(factors, sdiag, multi)
    return lambda u: op.normal(u) + lam * u, precond.apply, op.transpose_apply(sb)


def fast_kronecker_regression(factors: Sequence[np.ndarray], b,
                              config: RegressionConfig) -> SolveReport:
    """(1+eps)-approximate Kronecker ridge regression in subquadratic time.

    Pipeline: one thin SVD per factor (O(n d^2) each), whose exact
    statistical leverage scores feed a product-distribution row sampler and
    whose right singular vectors and squared singular values, the eigenpairs
    of ``A^T A``, build the decomposed preconditioner; then
    ``ceil(alpha * 1680 R ln(40R) ln(1/delta) / eps)`` sampled rows solved by
    preconditioned conjugate gradients (:func:`pcg_solve`).  One size rule
    (:func:`_pcg_operators`) picks the form of PCG's operators: a small
    problem materializes its sketched design ``S K`` and the dense
    preconditioner, and every apply is a dense matrix-vector product; a
    larger one keeps ``S K`` implicit in a
    :class:`~kronsolve.kron.SketchedKron`, whose applies touch only the
    drawn rows, and applies the preconditioner by Kronecker multiplies.
    Both forms solve the same sketched problem.  When the sample count
    reaches the row count the sketch is pointless, and the exact
    :func:`kronmatmul_svd_solve` runs instead.  This is the regression
    route only: the fast Tucker block updates solve their small sketched
    problems directly (:func:`sketched_ridge_solve`).  Singular values at or
    below ``1e-10 * sigma_max`` of their factor are dropped, as in
    :func:`kronmatmul_svd_solve`, so the preconditioner inverts only the
    directions the SVD resolves.

    ``b`` is checked through the ``||S b||^2`` that PCG needs anyway: a
    non-finite or overflowing read at the sampled rows raises
    :class:`InvalidInputError`, and a non-finite entry at a row the sketch
    did not draw shows up as a non-finite loss.  The exact fallback checks
    its projection of ``b`` instead.

    ``wall_time`` covers the call, which does not evaluate the loss: the
    report evaluates it exactly when :attr:`SolveReport.loss` is first read,
    against ``b`` as it stands then.  It is read off the projection
    ``t = (U kron ...)^T b``, formed at that read by one Kronecker multiply,
    and ``||b||^2`` (:func:`_projected_ridge_loss`), so the loss reduces
    ``b`` to an ``R``-sized vector and never holds a vector of the full row
    count beyond ``b`` itself.  The sketched operator or design is gone by
    then.
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
        return replace(exact, wall_time=time.perf_counter() - t0)

    svds = [compact_svd(a) for a in factors]
    precond = build_kron_preconditioner([svd.v for svd in svds],
                                        [svd.sigma**2 for svd in svds], lam)

    # fixed spawn child 2N of config.seed: changing it moves every seeded sketch
    seed = np.random.SeedSequence(config.seed, spawn_key=(2 * len(factors),))
    row_shape = tuple(a.shape[0] for a in factors)
    sdiag, multi, b_drawn = _leverage_draws(svds, s, seed, b.reshape(row_shape))
    with np.errstate(invalid="ignore", over="ignore"):  # checked just below
        sb = sdiag.values * b_drawn
        sb_norm_sq = float(sb @ sb)
    _check_finite_reads(sb_norm_sq, "||S b||^2")
    x, iters, residual = pcg_solve(*_pcg_operators(factors, sdiag, multi, precond, sb, lam),
                                   config, sb_norm_sq)
    wall = time.perf_counter() - t0
    return SolveReport(solution=x, loss_fn=partial(_loss_off_bases, svds, b, x, lam),
                       iterations=iters, sample_count=s, wall_time=wall,
                       converged=iters < config.effective_max_iters,
                       distinct_rows=sdiag.nnz, residual=residual)
