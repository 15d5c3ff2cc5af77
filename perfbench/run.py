"""kronsolve benchmark: sketched vs exact route, time and quality, per workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload reg-table --seed 1 --seconds 18 --trace 0

A run runs ``kronsolve check`` once, then WORKERS measuring processes
(``worker.py``) one after another, each for an equal share of ``--seconds``.
Each process sets itself up and times rounds of the sketched ("fast") and
the exact route on the same instance; every call is gated by
``workloads.py``, and a failing gate is printed by name and counted as a
failed call.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of ``spans.py`` with
``--trace 1`` (see ``NOTES.md``).
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads; the workers inherit it

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().with_name("worker.py")

# Timings differ from process to process by up to 1.5x on a shared machine
# (the same exact call settles near 0.039 s in one process and 0.057 s in the
# next), so a run measures in several processes and averages them.
WORKERS = 3


def import_program():
    """Import numpy and the checkout's kronsolve."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import kronsolve
    import kronsolve.check
    where = Path(kronsolve.__file__).resolve().parent
    if where != ROOT / "src" / "kronsolve":
        raise SystemExit(f"kronsolve was imported from {where}, not from this checkout")
    return numpy, kronsolve


def run_checks(ks) -> list[str]:
    """``kronsolve check`` once; returns the names of the checks that failed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        ks.check.run_checks()
    return [line[5:] for line in buf.getvalue().splitlines() if line.startswith("FAIL")]


def run_worker(workload: str, seed: int, worker: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), workload, str(seed), str(worker), repr(seconds),
         str(trace)], stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    np, ks = import_program()
    from spans import layer_metric_specs
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(OUT / "tmp")  # kronsolve check writes a temporary tensor file
    failures = [f"check: {name}" for name in run_checks(ks)]

    workers = [run_worker(args.workload, args.seed, k, args.seconds / WORKERS, args.trace)
               for k in range(WORKERS)]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(len(w["failures"]) for w in workers)
    failures += [f"{workload.name}.{name}" for w in workers for call in w["failures"]
                 for name in call]

    # The best exact result of the run stands in for OPT: on Tucker some
    # random starts leave exact ALS far from converged after three sweeps.
    exact_errors = [e for w in workers for e in w["exact_errors"] if e is not None]
    ratios = []
    fast_calls = [(e, s) for w in workers for e, s in zip(w["fast_errors"], w["fast_seeds"])]
    for error, call_seed in fast_calls:
        if error is None:
            continue
        problems = (workload.quality_failures(error / min(exact_errors)) if exact_errors
                    else ["fast.unchecked (no exact result)"])
        if problems:
            # The call is reproduced by the workload's inputs from --seed and config.seed.
            failed += 1
            failures += [f"{workload.name}.{p} call_seed={call_seed}" for p in problems]
        else:
            ratios.append(error / min(exact_errors))

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "blas": f"{blas.get('name')} {blas.get('version')}", "nproc": os.cpu_count(),
           "blas_threads": 1, "malloc_pinned": all(w["malloc_pinned"] for w in workers),
           "workload": workload.name, "seed": args.seed, "trace": args.trace,
           "workers": WORKERS, "fast_calls": [len(w["fast_s"]) for w in workers],
           "exact_calls": [len(w["exact_s"]) for w in workers],
           "setup_s": [w["setup_s"] for w in workers], "digests": workers[0]["digests"]}
    for line in failures:
        print(f"FAILED {line}")
    print(json.dumps({"env": env}))

    median = statistics.median
    if args.trace:
        pairs = [pair for w in workers for pair in w["layers"]]
        metrics = {k: median(p[k] for p in pairs) for k in pairs[0]}
        for k in workers[0]["io"]:
            metrics[k] = median(w["io"][k] for w in workers)
        metrics["trace.overhead_frac"] = (
            median(t for w in workers for t in w["traced_fast_s"])
            / median(t for w in workers for t in w["fast_s"]) - 1.0)
        result = {k: {"value": metrics.get(k, 0.0), "unit": unit}
                  for k, (unit, _) in layer_metric_specs().items()}
    else:
        def per_call(key: str) -> float:
            """Mean over the worker processes of each one's median call time."""
            return statistics.fmean(median(w[key]) for w in workers)

        result = {
            "setup_s": {"value": median(w["setup_s"] for w in workers), "unit": "s"},
            "fast_s": {"value": per_call("fast_s"), "unit": "s"},
            "exact_s": {"value": per_call("exact_s"), "unit": "s"},
            "quality_ratio": {"value": median(ratios) if ratios else 0.0, "unit": "ratio"},
            "peak_rss_mb": {"value": max(w["peak_rss_mb"] for w in workers), "unit": "MB"},
            "pass_frac": {"value": 1.0 - failed / attempted, "unit": "fraction"},
        }
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
