"""Benchmark harness: synthetic instances, solver comparisons, CSV results.

The synthetic regression task draws all factor entries i.i.d. from a normal
distribution with mean 1 and variance 0.001 and fits the all-ones response;
:func:`run_regression_experiment` draws one instance per seed, runs every
requested solver on it (picked from :data:`SOLVER_CALLS`) and emits one CSV
row per (solver, seed) cell with the fields of :class:`ResultRow`: loss,
ratio against OPT, sampled and distinct rows, wall time, iterations,
convergence and PCG's final relative residual.  :func:`run_tucker_experiment`
decomposes a given tensor (read from a file or made by
:func:`generate_synth_tucker`) and emits one CSV row per sweep.  Both take
the settings as the command line parsed them; the defaults are the parser's.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import astuple, dataclass, fields, replace
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError, KronsolveError
from .solvers import (
    RegressionConfig,
    SolveReport,
    fast_kronecker_regression,
    kronmatmul_svd_solve,
    naive_normal_solve,
    sketch_and_solve_ridge,
)
from .tensor import check_integer, multi_mode_product
from .tensor_io import write_results_csv
from .tucker import AlsReport, TuckerModel, tucker_als

SYNTH_MEAN = 1.0
SYNTH_VARIANCE = 0.001

# solver -> call(factors, b, config); each call looks its solver up when it runs
SOLVER_CALLS: dict[str, Callable[..., SolveReport]] = {
    "naive": lambda factors, b, config: naive_normal_solve(factors, b, config.lam),
    "kronmatmul": lambda factors, b, config: kronmatmul_svd_solve(factors, b, config.lam),
    "sketch-solve": lambda factors, b, config: sketch_and_solve_ridge(factors, b, config),
    "fast": lambda factors, b, config: fast_kronecker_regression(factors, b, config),
}
# the exact solvers in the order OPT is taken from them: kronmatmul is the
# reference, and naive's pinv of the densified Gram only stands in for it
EXACT_SOLVERS = ("kronmatmul", "naive")

TUCKER_HEADER = ("sweep", "loss", "rre", "sweep_seconds")


@dataclass(frozen=True)
class ResultRow:
    """One (solver, seed) cell; its fields, in order, are the CSV columns."""

    solver: str
    n: int
    d: int
    order: int
    seed: int
    loss: float
    ratio: float
    rows_sampled: int
    distinct_rows: int
    wall_time: float
    iterations: int = 0
    converged: bool = False
    residual: float = 0.0
    status: str = "ok"


def generate_synth_regression(n: int, d: int, order: int, seed,
                              ) -> tuple[list[np.ndarray], np.ndarray]:
    """Factors with i.i.d. Normal(1, 0.001) entries and the all-ones target."""
    d = check_integer(d, "d", 1)
    n, order = check_integer(n, "n", d), check_integer(order, "order", 1)
    rng = np.random.default_rng(seed)
    factors = [rng.normal(SYNTH_MEAN, math.sqrt(SYNTH_VARIANCE), (n, d))
               for _ in range(order)]
    b = np.ones(n**order)
    return factors, b


def generate_synth_tucker(shape: Sequence[int], rank: Sequence[int],
                          noise: float, seed) -> np.ndarray:
    """Noisy low-rank tensor: random model expansion plus relative noise."""
    if len(rank) != len(shape):
        raise InvalidInputError(f"--true-rank gives {len(rank)} ranks for {len(shape)} dims")
    shape = [check_integer(i, f"--synthetic entry {n}", 1) for n, i in enumerate(shape)]
    rank = [check_integer(r, f"--true-rank entry {n}", 1, i + 1)
            for n, (r, i) in enumerate(zip(rank, shape))]
    if not 0.0 <= noise < math.inf:
        raise InvalidInputError(f"--noise must be finite and >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    core = rng.standard_normal(tuple(rank))
    factors = []
    for i_n, r_n in zip(shape, rank):
        q, _ = np.linalg.qr(rng.standard_normal((i_n, r_n)))
        factors.append(q)
    x = multi_mode_product(core, factors)
    if noise > 0:
        scale = noise * float(np.linalg.norm(x)) / math.sqrt(x.size)
        x = x + rng.standard_normal(x.shape) * scale
    return x


def _median_run(fn: Callable[[], SolveReport], repeats: int) -> SolveReport:
    """Run ``fn`` repeatedly; keep the middle report, at the median wall time.

    No loss is read here, so only the kept report's is ever evaluated."""
    reports = sorted((fn() for _ in range(repeats)), key=lambda r: r.wall_time)
    return replace(reports[len(reports) // 2],
                   wall_time=statistics.median(r.wall_time for r in reports))


def _run_cell(solver: str, factors: Sequence[np.ndarray], b: np.ndarray,
              config: RegressionConfig, repeats: int) -> ResultRow:
    n, d = factors[0].shape
    cell = dict(solver=solver, n=n, d=d, order=len(factors), seed=config.seed)
    try:
        report = _median_run(lambda: SOLVER_CALLS[solver](factors, b, config), repeats)
        loss = report.loss  # evaluated here, so a failing loss is the cell's error
    except (KronsolveError, np.linalg.LinAlgError) as exc:
        return ResultRow(**cell, loss=math.nan, ratio=math.nan, rows_sampled=0,
                         distinct_rows=0, wall_time=math.nan, status=f"error: {exc}")
    return ResultRow(**cell, loss=loss, ratio=math.nan,
                     rows_sampled=report.sample_count,
                     distinct_rows=report.distinct_rows, wall_time=report.wall_time,
                     iterations=report.iterations, converged=report.converged,
                     residual=report.residual)


def run_regression_experiment(n: int, d: int, order: int, config: RegressionConfig,
                              seeds: Sequence[int], solvers: Sequence[str],
                              repeats: int = 1, out_path=None) -> list[ResultRow]:
    """Run every (solver, seed) cell on one synthetic instance per seed.

    Each seed runs under ``replace(config, seed=seed)``, and every seed is
    checked, as are the solver list and ``repeats``, before any instance is
    generated.  A solver that raises (naive and sketch-solve refuse a dense
    matrix above :data:`~kronsolve.solvers.DENSE_GUARD` entries) leaves an
    error row and the run goes on.  Ratios are filled in against the exact
    optimum for the same seed when an exact solver is part of the run: OPT
    is ``kronmatmul``'s loss when that cell ran ok, else ``naive``'s."""
    unknown = set(solvers) - set(SOLVER_CALLS)
    if unknown:
        raise InvalidInputError(f"unknown solvers: {sorted(unknown)}")
    if not solvers:
        raise InvalidInputError("need at least one solver")
    check_integer(repeats, "repeats", 1)
    if not seeds:
        raise InvalidInputError("need at least one seed")
    configs = [replace(config, seed=seed) for seed in seeds]

    rows = []
    for cfg in configs:
        factors, b = generate_synth_regression(n, d, order, cfg.seed)
        rows += [_run_cell(solver, factors, b, cfg, repeats) for solver in solvers]
        del factors, b  # let the instance go before the next seed's is drawn

    exact_ok = {(row.solver, row.seed): row.loss for row in rows
                if row.solver in EXACT_SOLVERS and row.status == "ok"}
    final = []
    for row in rows:
        opt = next((exact_ok[solver, row.seed] for solver in EXACT_SOLVERS
                    if (solver, row.seed) in exact_ok), None)
        ratio = row.loss / opt if (opt and row.status == "ok") else math.nan
        final.append(replace(row, ratio=ratio))
    if out_path is not None:
        write_results_csv(out_path, [f.name for f in fields(ResultRow)],
                          map(astuple, final))
    return final


def run_tucker_experiment(x, core_shape: Sequence[int], config: RegressionConfig,
                          sweeps: int, solver_mode: str, out_path=None,
                          ) -> tuple[TuckerModel, AlsReport]:
    """Decompose ``x`` at ``lam = config.lam`` and emit one CSV row per sweep."""
    model, report = tucker_als(x, core_shape, lam=config.lam, sweeps=sweeps,
                               solver_mode=solver_mode, config=config)
    if out_path is not None:
        rows = [(k + 1, loss, report.sweep_rres[k], report.sweep_seconds[k])
                for k, loss in enumerate(report.sweep_losses)]
        write_results_csv(out_path, TUCKER_HEADER, rows)
    return model, report
