"""Kronecker ridge regression solvers.

Four routes to ``argmin_x ||K x - b||^2 + lam ||x||^2`` for an implicit
``K = A1 kron ... kron AN``:

* :func:`naive_normal_solve` densifies ``K^T K`` (as a Kronecker product of
  factor Grams) and pseudo-inverts it.
* :func:`kronmatmul_svd_solve` composes the factor SVDs and never forms an
  R x R matrix; exact, and the reference for OPT.
* :func:`sketch_and_solve_ridge` samples rows of ``K`` by their leverage
  scores and solves the sketched problem directly from one SVD of the
  sketched design with :func:`sketched_ridge_solve`, the one direct
  sketched solve, which the fast Tucker block updates share.
* :func:`fast_kronecker_regression` solves the *sketched* problem by
  conjugate gradients preconditioned with the eigendecomposition of the
  *unsketched* normal matrix, read off the factor SVDs.  Every step costs
  one :meth:`KronPreconditioner.apply` and one apply of the sketched rows:
  on a large problem the implicit :class:`~kronsolve.kron.SketchedKron`,
  whose draws are grouped by their wide-group row so that each apply is a
  few dense contractions, and on a small one dense matrix-vector products
  with the materialized design (:func:`_sketched_normal_system`).

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
time :attr:`SolveReport.loss` is read and not inside the call.  The exact
solves, the sketched solve and the preconditioner drop the same directions,
by the one rank rule of :func:`~kronsolve.tensor.ridge_filter`.
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
                     check_real, check_ridge_weight, compact_svd, ridge_filter)

# naive_normal_solve and sketch_and_solve_ridge refuse a dense matrix of more
# entries than this; each reads it when called
DENSE_GUARD = 10**8

# PCG also stops once r^T M^+ r falls to RESIDUAL_TOL^2 of its start (a consistent system)
RESIDUAL_TOL = 1e-9

# ridge_loss forms its residual this many entries at a time (at least one
# row of the first factor): 8 MB blocks keep the block GEMMs wide at d=64
# while no regression call holds a residual of the full row count.
_LOSS_BLOCK_ENTRIES = 1 << 20

# fast_kronecker_regression runs PCG on its materialized sketched design when
# it holds at most this many entries, and on SketchedKron above; both apply
# KronPreconditioner.  Measured against SketchedKron's position-major applies
# and fused normal apply at 1 BLAS thread (orders 2-4, medians of 15 calls per
# form, the forms alternating in one process): the dense form took 0.53-0.80x
# the implicit form's time from 1.3e3 to 1.4e5 entries (16 to 144 columns;
# 0.80x at reg-thin's 2.5e4), 0.89-0.97x at 2.0e5 and 1.05-1.08x at 2.7e5
# (order 2), 1.34-1.48x at 3.3e5 (order 3), 1.47x at 4.7e5 (order 2),
# 1.02-1.23x at 4.5e5 (order 4), 3.6x at 2.6e6 and 9.7x at 8.5e6.  The
# crossover sits near 2e5 entries, between 2^17 and 2^18.
_DENSE_SKETCH_MAX_ENTRIES = 1 << 17


@dataclass(frozen=True)
class RegressionConfig:
    """The paper's parameters for the stochastic solvers.

    ``alpha`` scales the theoretical sample counts (``alpha=1`` uses them
    unscaled).  The inner solver's stop (a step that lowers the sketched
    loss by at most ``eps^2 / 10`` of what remains) and its iteration cap
    ``8 * ceil(ln(1/eps))`` both derive from ``eps``.  ``seed`` is a
    non-negative Python or numpy integer, not a ``bool``.  ``lam`` is the
    regression routes' ridge weight; no Tucker entry reads it: ``tucker_als``
    takes its own ``lam``, and the public Tucker steps ``TuckerModel.lam``.
    """

    eps: float = 0.25
    delta: float = 0.05
    lam: float = 0.0
    alpha: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("eps", "delta", "alpha"):
            check_real(getattr(self, name), name)
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
    """Eigendecomposition ``A^T A = v @ diag(eigenvalues) @ v.T``: ``v`` is
    square orthogonal and ``eigenvalues`` descending and clipped at zero."""

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

    ``d_diag`` holds ``1 / (eig_1 kron ... kron eig_N + lam)`` where the rank
    rule of :func:`~kronsolve.tensor.ridge_filter` keeps a direction and 0
    elsewhere, so an apply is one diagonal scaling between two Kronecker
    multiplies.  Each ``V`` (``d x r``) has orthonormal columns: the right
    singular vectors of a factor, whose eigenvalues are the squared singular
    values, or the square eigenvectors of a :class:`FactorGram`; their span
    holds every ``K^T y``.  The factors are computed from checked input, so
    :meth:`apply` skips to the kernel :func:`~kronsolve.tensor._mode_products`.
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
    the columns of ``v_factors[n]`` and the entries of ``eigenvalues[n]``,
    cut by the rank rule as the exact solve is."""
    d_diag = ridge_filter(1.0, reduce(np.kron, eigenvalues) + lam)
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
    check what they compute from the entries they draw (``||S b||^2``, or
    ``(S U)^T b`` for the left singular vectors ``U`` of the sketched design).
    """
    if not np.all(np.isfinite(values)):
        raise InvalidInputError(
            f"the input is not finite or too large ({what} is not finite)")


def _drawn_rows(sketch: RowSketch, row_shape: tuple[int, ...], b: np.ndarray):
    """The pair ``(sdiag, b_drawn)``: the merged draws of ``sketch``, whose
    ``indices`` are their ``(nnz, N)`` multi-indices, and ``b`` there.

    ``b``'s leading axes are ``row_shape``, so it is read at the draws
    alone; each route checks what it computes from them.
    """
    sdiag = sparse_diagonal_from_sketch(sketch, row_shape)
    return sdiag, b[tuple(sdiag.indices.T)]


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
    per-factor compact SVDs compose into a compact SVD of ``K``, cut by the
    rank rule of :func:`~kronsolve.tensor.ridge_filter` (at ``lam = 0``, the
    directions of ``K`` at or below ``1e-10 sigma_max`` drop); it agrees with
    :func:`naive_normal_solve`, the independent ``pinv`` reference, while
    ``K^T K + lam I`` is well conditioned.  A non-finite ``b`` raises
    :class:`InvalidInputError`; it is caught in the projection
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
    """The ridge solution ``(V kron ...) diag(sigma/(sigma^2+lam)) t``, cut
    by the rank rule, from the factors' compact SVDs and the projection
    ``t = (U kron ...)^T b``, which the caller has formed and checked; no
    loss is evaluated."""
    sigma = reduce(np.kron, [s.sigma for s in svds])
    return kron_mat_mul([s.v for s in svds], t * ridge_filter(sigma, sigma**2 + lam))


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
                   right: np.ndarray | None = None) -> np.ndarray:
    """The materialized sketched design ``S K right`` (``right`` omitted: the
    identity): the Kronecker rows of :func:`~kronsolve.kron.kron_rows` at the
    rows of ``sdiag``, times ``right``, weighted in place by its values."""
    design = kron_rows(factors, sdiag.indices)
    if right is not None:
        design = design @ right
    design *= sdiag.values[:, None]
    return design


def sketched_ridge_solve(factors: Sequence[np.ndarray], sdiag: SparseDiagonal,
                         b_drawn: np.ndarray, lam: float,
                         right: np.ndarray | None = None) -> np.ndarray:
    """Solve a sketched ridge problem from one SVD of the sketched design.

    ``D = S K right`` for the row sketch ``S`` and ``K = A1 kron ... kron
    AN``, with ``right`` (``R x R'``) taken as the identity when omitted.
    The sketch comes merged, as :func:`_leverage_draws` returns it: the
    diagonal ``sdiag`` over the ``(nnz, N)`` multi-indices of its rows (a
    repeated row weighted by the root of its summed squared weights, which
    leaves ``D^T D`` and ``D^T S b`` unchanged), and ``b_drawn``, ``b``
    there, whose trailing axis holds more right-hand sides; ``D`` is
    :func:`_weighted_rows`.  One :func:`~kronsolve.tensor.compact_svd`,
    ``D = U diag(sigma) V^T``, gives every solution at once as
    ``V diag(sigma / (sigma^2 + lam)) (S U)^T b_drawn``, cut by the rank rule
    as :func:`_svd_ridge_solution` cuts the exact problem (so ``lam = 0``
    with a rank-deficient ``D`` does not raise): the drawn block is read by
    one GEMM, no ``R x R`` matrix is formed, and the solve loses
    ``cond(D)``, not the ``cond(D)^2`` of the normal equations.  ``factors``,
    ``right`` and ``lam`` are the caller's to validate; ``b_drawn`` is
    checked through ``(S U)^T b``.
    """
    svd = compact_svd(_weighted_rows(factors, sdiag, right))
    with np.errstate(invalid="ignore", over="ignore"):  # checked just below
        t = (svd.u * sdiag.values[:, None]).T @ b_drawn
    _check_finite_reads(t, "(S U)^T b")
    gain = ridge_filter(svd.sigma, svd.sigma**2 + lam)
    return svd.v @ (gain.reshape((-1,) + (1,) * (t.ndim - 1)) * t)


def sketch_and_solve_ridge(factors: Sequence[np.ndarray], b,
                           config: RegressionConfig) -> SolveReport:
    """Sketch-and-solve baseline: solve the sampled problem directly.

    Rows of ``K`` are drawn from the exact leverage-score product
    distribution (``ceil(alpha * 1680 R ln(40R) / eps)`` of them) and
    :func:`sketched_ridge_solve` returns ``((SK)^T SK + lam I)^+ (SK)^T S b``
    from one SVD of the sketched design ``SK``, one materialized row per
    distinct draw; the SVD costs ``O(nnz R min(nnz, R))``.  When the sample
    count reaches the row count the sketch is pointless, and the exact
    :func:`kronmatmul_svd_solve` runs instead, as in
    :func:`fast_kronecker_regression`.  Otherwise guarded: raises
    :class:`SizeGuardError` when the sketched design could hold more than
    :data:`DENSE_GUARD` entries (its SVD holds no more).  The loss is
    :func:`ridge_loss`'s, evaluated when it is first read, against ``b`` as
    it stands then.
    """
    factors, b, rows, cols = _validated_problem(factors, b)
    t0 = time.perf_counter()
    s = regression_sample_count(cols, config.eps, config.alpha)
    if s >= rows:
        exact = kronmatmul_svd_solve(factors, b, config.lam)
        return replace(exact, wall_time=time.perf_counter() - t0)
    if s * cols > DENSE_GUARD:
        raise SizeGuardError(
            f"sketched matrix would hold {s}x{cols} entries (guard: {DENSE_GUARD})")
    draws = _leverage_draws([compact_svd(a) for a in factors], s, config.seed,
                            b.reshape([a.shape[0] for a in factors]))
    x = sketched_ridge_solve(factors, *draws, config.lam)
    wall = time.perf_counter() - t0
    return SolveReport(solution=x, loss_fn=partial(ridge_loss, factors, x, b, config.lam),
                       iterations=0, sample_count=s, wall_time=wall,
                       distinct_rows=draws[0].nnz)


def _sketched_normal_system(factors: Sequence[np.ndarray], sdiag: SparseDiagonal,
                            sb: np.ndarray, lam: float):
    """The normal apply ``v -> K^T S^2 K v + lam v`` and the right-hand side
    ``K^T S^2 b`` (from ``sb``, ``S b`` at the draws) of
    :func:`fast_kronecker_regression`'s PCG solve.  A sketched design
    ``D = S K`` (``nnz x R``) of at most :data:`_DENSE_SKETCH_MAX_ENTRIES`
    entries is materialized (:func:`_weighted_rows`), so each apply is two
    dense matrix-vector products; a larger one stays implicit in a
    :class:`~kronsolve.kron.SketchedKron`."""
    if sdiag.nnz * kron_operator_shape(factors)[1] <= _DENSE_SKETCH_MAX_ENTRIES:
        design = _weighted_rows(factors, sdiag)
        return lambda u: design.T @ (design @ u) + lam * u, design.T @ sb
    op = SketchedKron(factors, sdiag)
    return lambda u: op.normal(u) + lam * u, op.transpose_apply(sb)


def fast_kronecker_regression(factors: Sequence[np.ndarray], b,
                              config: RegressionConfig) -> SolveReport:
    """(1+eps)-approximate Kronecker ridge regression in subquadratic time.

    Pipeline: one thin SVD per factor (O(n d^2) each), whose exact
    statistical leverage scores feed a product-distribution row sampler and
    whose right singular vectors and squared singular values, the eigenpairs
    of ``A^T A``, build the decomposed preconditioner; then
    ``ceil(alpha * 1680 R ln(40R) ln(1/delta) / eps)`` sampled rows solved by
    preconditioned conjugate gradients (:func:`pcg_solve`).  One size rule
    (:func:`_sketched_normal_system`) picks the form of PCG's normal apply:
    a small problem materializes its sketched design ``S K``; a larger one
    keeps it implicit in a :class:`~kronsolve.kron.SketchedKron`, whose
    applies touch only the drawn rows.  Both forms apply the one
    :class:`KronPreconditioner` by Kronecker multiplies, never a formed
    ``R x R`` matrix, and solve the same sketched problem; it drops the
    directions of ``K`` that :func:`kronmatmul_svd_solve` drops, so PCG does
    not break down at ``lam = 0`` on a numerically singular ``K``.  When the
    sample count reaches the row count, the exact :func:`kronmatmul_svd_solve`
    runs instead.  This is the regression route only: the fast Tucker block
    updates solve their small sketched problems directly.

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
    sdiag, b_drawn = _leverage_draws(svds, s, seed, b.reshape(row_shape))
    with np.errstate(invalid="ignore", over="ignore"):  # checked just below
        sb = sdiag.values * b_drawn
        sb_norm_sq = float(sb @ sb)
    _check_finite_reads(sb_norm_sq, "||S b||^2")
    apply_normal, rhs = _sketched_normal_system(factors, sdiag, sb, lam)
    x, iters, residual = pcg_solve(apply_normal, precond.apply, rhs, config, sb_norm_sq)
    wall = time.perf_counter() - t0
    return SolveReport(solution=x, loss_fn=partial(_loss_off_bases, svds, b, x, lam),
                       iterations=iters, sample_count=s, wall_time=wall,
                       converged=iters < config.effective_max_iters,
                       distinct_rows=sdiag.nnz, residual=residual)
