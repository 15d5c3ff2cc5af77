"""Benchmark harness: synthetic instances, solver comparisons, CSV results.

The synthetic regression task draws all factor entries i.i.d. from a normal
distribution with mean 1 and variance 0.001 and fits the all-ones response;
the Tucker task decomposes either a tensor file or a generated noisy
low-rank tensor.  Each run emits one CSV row per (solver, seed) cell with
loss, ratio against OPT, sampled and distinct rows, wall time, iterations,
convergence and PCG's final relative residual.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, fields, replace
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError, KronsolveError
from .solvers import (
    DEFAULT_DENSE_GUARD,
    RegressionConfig,
    SolveReport,
    fast_kronecker_regression,
    kronmatmul_svd_solve,
    naive_normal_solve,
    sketch_and_solve_ridge,
)
from .tensor import multi_mode_product
from .tensor_io import write_results_csv
from .tucker import AlsReport, TuckerModel, tucker_als

SYNTH_MEAN = 1.0
SYNTH_VARIANCE = 0.001

REGRESSION_SOLVERS = ("naive", "kronmatmul", "sketch-solve", "fast")
# the exact solvers in the order OPT is taken from them: kronmatmul is the
# reference, and naive's pinv of the densified Gram only stands in for it
EXACT_SOLVERS = ("kronmatmul", "naive")

RESULT_HEADER = ("solver", "n", "d", "order", "seed", "loss", "ratio",
                 "rows_sampled", "distinct_rows", "wall_time", "iterations",
                 "converged", "residual", "status")

TUCKER_HEADER = ("sweep", "loss", "rre", "sweep_seconds")


@dataclass
class ExperimentSpec:
    """One benchmark request (either kind); defaults match the synthetic study."""

    kind: str = "synth-regression"
    n: int = 128
    d: int = 8
    order: int = 2
    lam: float = 1e-3
    eps: float = 0.1
    delta: float = 0.01
    alpha: float = 1e-5
    seeds: tuple[int, ...] = (0,)
    solvers: tuple[str, ...] = REGRESSION_SOLVERS
    repeats: int = 1
    force: bool = False
    # tucker-only fields
    tensor_path: str | None = None
    core_shape: tuple[int, ...] = ()
    sweeps: int = 5
    solver_mode: str = "exact"
    synth_shape: tuple[int, ...] = ()
    synth_rank: tuple[int, ...] = ()
    noise: float = 0.01

    def __post_init__(self):
        if self.kind not in ("synth-regression", "tucker"):
            raise InvalidInputError(f"unknown experiment kind {self.kind!r}")
        if self.kind == "synth-regression":
            if self.n < self.d or self.d < 1:
                raise InvalidInputError("need n >= d >= 1")
            if self.order < 1:
                raise InvalidInputError("order must be >= 1")
            unknown = set(self.solvers) - set(REGRESSION_SOLVERS)
            if unknown:
                raise InvalidInputError(f"unknown solvers: {sorted(unknown)}")
        if self.repeats < 1:
            raise InvalidInputError("repeats must be >= 1")
        if not self.seeds:
            raise InvalidInputError("need at least one seed")


@dataclass(frozen=True)
class ResultRow:
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

    def as_csv(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))


def generate_synth_regression(n: int, d: int, order: int, seed,
                              ) -> tuple[list[np.ndarray], np.ndarray]:
    """Factors with i.i.d. Normal(1, 0.001) entries and the all-ones target."""
    if n < d or d < 1:
        raise InvalidInputError("need n >= d >= 1")
    rng = np.random.default_rng(seed)
    factors = [rng.normal(SYNTH_MEAN, math.sqrt(SYNTH_VARIANCE), (n, d))
               for _ in range(order)]
    b = np.ones(n**order)
    return factors, b


def generate_synth_tucker(shape: Sequence[int], rank: Sequence[int],
                          noise: float, seed) -> np.ndarray:
    """Noisy low-rank tensor: random model expansion plus relative noise."""
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


def _run_cell(spec: ExperimentSpec, solver: str, seed: int) -> ResultRow:
    factors, b = generate_synth_regression(spec.n, spec.d, spec.order, seed)
    guard = None if spec.force else DEFAULT_DENSE_GUARD
    config = RegressionConfig(eps=spec.eps, delta=spec.delta, lam=spec.lam,
                              alpha=spec.alpha, seed=seed)
    try:
        if solver == "naive":
            report = _median_run(
                lambda: naive_normal_solve(factors, b, spec.lam,
                                           max_dense_entries=guard),
                spec.repeats)
        elif solver == "kronmatmul":
            report = _median_run(
                lambda: kronmatmul_svd_solve(factors, b, spec.lam), spec.repeats)
        elif solver == "sketch-solve":
            report = _median_run(
                lambda: sketch_and_solve_ridge(factors, b, config,
                                               max_dense_entries=guard),
                spec.repeats)
        elif solver == "fast":
            report = _median_run(
                lambda: fast_kronecker_regression(factors, b, config),
                spec.repeats)
        else:
            raise InvalidInputError(f"unknown solver {solver!r}")
        loss = report.loss  # evaluated here, so a failing loss is the cell's error
    except (KronsolveError, np.linalg.LinAlgError) as exc:
        return ResultRow(solver=solver, n=spec.n, d=spec.d, order=spec.order,
                         seed=seed, loss=math.nan, ratio=math.nan,
                         rows_sampled=0, distinct_rows=0, wall_time=math.nan,
                         status=f"error: {exc}")
    return ResultRow(solver=solver, n=spec.n, d=spec.d, order=spec.order,
                     seed=seed, loss=loss, ratio=math.nan,
                     rows_sampled=report.sample_count,
                     distinct_rows=report.distinct_rows, wall_time=report.wall_time,
                     iterations=report.iterations, converged=report.converged,
                     residual=report.residual)


def run_regression_experiment(spec: ExperimentSpec,
                              out_path=None) -> list[ResultRow]:
    """Run every (solver, seed) cell; ratios are filled in against the exact
    optimum for the same seed when an exact solver is part of the run.  OPT
    is ``kronmatmul``'s loss when that cell ran ok, else ``naive``'s."""
    if spec.kind != "synth-regression":
        raise InvalidInputError("spec is not a synth-regression experiment")
    rows = [_run_cell(spec, solver, seed)
            for seed in spec.seeds for solver in spec.solvers]

    exact_ok = {(row.solver, row.seed): row.loss for row in rows
                if row.solver in EXACT_SOLVERS and row.status == "ok"}
    final = []
    for row in rows:
        opt = next((exact_ok[solver, row.seed] for solver in EXACT_SOLVERS
                    if (solver, row.seed) in exact_ok), None)
        ratio = row.loss / opt if (opt and row.status == "ok") else math.nan
        final.append(replace(row, ratio=ratio))
    if out_path is not None:
        write_results_csv(out_path, RESULT_HEADER, [r.as_csv() for r in final])
    return final


def run_tucker_experiment(spec: ExperimentSpec, out_path=None,
                          ) -> tuple[TuckerModel, AlsReport]:
    """Decompose the requested tensor and emit one CSV row per sweep."""
    if spec.kind != "tucker":
        raise InvalidInputError("spec is not a tucker experiment")
    if spec.tensor_path is not None:
        from .tensor_io import read_tensor
        try:
            x = read_tensor(spec.tensor_path)
        except OSError as exc:
            raise InvalidInputError(
                f"cannot read tensor file {spec.tensor_path}: {exc}") from exc
    elif spec.synth_shape:
        if not spec.synth_rank:
            raise InvalidInputError("synthetic tensors need a true rank")
        x = generate_synth_tucker(spec.synth_shape, spec.synth_rank, spec.noise,
                                  spec.seeds[0])
    else:
        raise InvalidInputError("need either a tensor file or synthetic dims")
    if not spec.core_shape:
        raise InvalidInputError("core shape is required")
    config = RegressionConfig(eps=spec.eps, delta=spec.delta, lam=spec.lam,
                              alpha=spec.alpha, seed=spec.seeds[0])
    model, report = tucker_als(x, spec.core_shape, lam=spec.lam,
                               sweeps=spec.sweeps, solver_mode=spec.solver_mode,
                               config=config)
    if out_path is not None:
        rows = [(k + 1, loss, report.sweep_rres[k], report.sweep_seconds[k])
                for k, loss in enumerate(report.sweep_losses)]
        write_results_csv(out_path, TUCKER_HEADER, rows)
    return model, report
