"""Command-line harness.

Subcommands:

* ``synth-regression`` benchmarks the solver set on the synthetic Kronecker
  ridge task and writes one CSV row per (solver, seed) cell.
* ``tucker`` decomposes a tensor file (``--input``) or a generated noisy
  low-rank tensor (``--synthetic`` with ``--true-rank``), exactly one of the
  two, and writes one CSV row per sweep.
* ``check`` runs the built-in oracle-equivalence suite and exits nonzero on
  any failure.

Each command builds its :class:`~kronsolve.solvers.RegressionConfig` from
the parsed flags and calls the harness in :mod:`kronsolve.experiments`
with them; every default lives in the parser.  A bad setting (a negative
seed, a missing tensor file) raises
:class:`~kronsolve.errors.InvalidInputError` before any CSV is written.

The linear-algebra thread pools are sized when numpy loads, so cap them
by setting ``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS`` (or
``MKL_NUM_THREADS``) in the environment before launching, e.g.
``OPENBLAS_NUM_THREADS=1 kronsolve check``.
"""

from __future__ import annotations

import argparse
import sys


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kronsolve",
        description="Kronecker ridge regression and Tucker ALS benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    reg = sub.add_parser("synth-regression",
                         help="benchmark solvers on the synthetic ridge task")
    reg.add_argument("--n", type=int, default=128, help="rows per factor")
    reg.add_argument("--d", type=int, default=8, help="columns per factor")
    reg.add_argument("--order", type=int, default=2, help="number of factors")
    reg.add_argument("--eps", type=float, default=0.1)
    reg.add_argument("--delta", type=float, default=0.01)
    reg.add_argument("--lambda", dest="lam", type=float, default=1e-3)
    reg.add_argument("--alpha", type=float, default=1e-5,
                     help="sample-count scale for the sketching solvers")
    reg.add_argument("--seeds", type=_parse_int_tuple, default=(0,),
                     help="comma-separated seed list")
    reg.add_argument("--solvers", default="naive,kronmatmul,sketch-solve,fast",
                     help="comma-separated subset of "
                          "naive,kronmatmul,sketch-solve,fast")
    reg.add_argument("--repeats", type=int, default=1,
                     help="timing repetitions per cell (median reported)")
    reg.add_argument("--out", required=True, help="output CSV path")

    tuck = sub.add_parser("tucker", help="L2-regularized Tucker ALS")
    source = tuck.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="tensor file to decompose")
    source.add_argument("--synthetic", type=_parse_int_tuple, default=(),
                        help="generate a tensor of these dims instead of --input")
    tuck.add_argument("--true-rank", type=_parse_int_tuple, default=(),
                      help="multilinear rank of the generated tensor")
    tuck.add_argument("--noise", type=float, default=0.01,
                      help="relative noise level of the generated tensor")
    tuck.add_argument("--core", type=_parse_int_tuple, required=True,
                      help="core shape, e.g. 4,4,4")
    tuck.add_argument("--lambda", dest="lam", type=float, default=0.0)
    tuck.add_argument("--eps", type=float, default=0.1)
    tuck.add_argument("--delta", type=float, default=0.01)
    tuck.add_argument("--alpha", type=float, default=1.0,
                      help="sample-count scale for --mode fast; at 1.0 the "
                           "counts exceed the rows and every step runs exact")
    tuck.add_argument("--mode", choices=("exact", "fast"), default="exact")
    tuck.add_argument("--sweeps", type=int, default=5)
    tuck.add_argument("--seed", type=int, default=0)
    tuck.add_argument("--out", required=True, help="output CSV path")

    sub.add_parser("check", help="run the oracle-equivalence suite")
    return parser


def _cmd_synth_regression(args) -> int:
    from .experiments import run_regression_experiment
    from .solvers import RegressionConfig

    config = RegressionConfig(eps=args.eps, delta=args.delta, lam=args.lam,
                              alpha=args.alpha)
    rows = run_regression_experiment(
        args.n, args.d, args.order, config, args.seeds,
        [s for s in args.solvers.split(",") if s], repeats=args.repeats,
        out_path=args.out)
    failures = [r for r in rows if r.status != "ok"]
    print(f"wrote {len(rows)} rows to {args.out}"
          + (f" ({len(failures)} solver errors recorded)" if failures else ""))
    return 0


def _cmd_tucker(args) -> int:
    from .errors import InvalidInputError
    from .experiments import generate_synth_tucker, run_tucker_experiment
    from .solvers import RegressionConfig
    from .tensor_io import read_tensor

    config = RegressionConfig(eps=args.eps, delta=args.delta, lam=args.lam,
                              alpha=args.alpha, seed=args.seed)
    if args.input is not None:
        try:
            x = read_tensor(args.input)
        except OSError as exc:
            raise InvalidInputError(
                f"cannot read tensor file {args.input}: {exc}") from exc
    elif not args.true_rank:
        raise InvalidInputError("--synthetic needs --true-rank")
    else:
        x = generate_synth_tucker(args.synthetic, args.true_rank, args.noise, args.seed)
    _, report = run_tucker_experiment(x, args.core, config, args.sweeps, args.mode,
                                      out_path=args.out)
    print(f"final loss {report.sweep_losses[-1]:.6g}, RRE {report.rre:.6g}, "
          f"mean sweep {report.mean_sweep_seconds:.4f}s; wrote {args.out}")
    return 0


def _cmd_check(_args) -> int:
    from . import check

    return check.run_checks()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "synth-regression":
        return _cmd_synth_regression(args)
    if args.command == "tucker":
        return _cmd_tucker(args)
    if args.command == "check":
        return _cmd_check(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
