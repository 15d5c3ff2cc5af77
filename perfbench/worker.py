"""One measuring process of a benchmark run (started by ``run.py``).

    python3 perfbench/worker.py <workload> <seed> <worker> <seconds> <trace>

Sets the process up (import, inputs, warm-up), then runs rounds of one fast
call and enough exact calls to take EXACT_SHARE of the fast call's time
(at least EXACT_MIN_CALLS of them),
until ``seconds`` have passed (at least one round).  Every call is gated by
``workloads.py``.  With ``trace`` 1 each round is repeated under the tracer
of ``spans.py``.  The last line of standard output is a JSON object with the
raw samples; ``run.py`` turns the samples of all workers into metrics.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import ctypes  # noqa: E402
import ctypes.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

# OpenBLAS reads its thread count only when numpy loads it.  One thread is at
# or below nproc on any machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# Each round repeats the (often much cheaper) exact route until its calls add
# up to this share of the round's fast call.
EXACT_SHARE = 0.1
# ... and at least this many, so a worker's exact median rests on more than
# one or two calls where the exact route costs over a tenth of the fast one.
EXACT_MIN_CALLS = 3


def pin_malloc() -> bool:
    """Fix glibc's malloc thresholds at the top of their dynamic range.

    glibc raises its mmap and trim thresholds as the process frees large
    blocks, so how often an array allocation page-faults depends on what the
    process freed before.  On tucker-cube that made every exact call take
    17k page faults (about 0.10 s instead of 0.035 s) in some processes and
    none in others.  Returns False where mallopt is unavailable.
    """
    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c")).mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_mmap_threshold, 32 << 20) and mallopt(m_trim_threshold, 64 << 20))


def timed(fn):
    """(result, seconds, error) of one route call; an exception is a failed call."""
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception:  # noqa: BLE001 - a failing call is counted, the run goes on
        return None, time.perf_counter() - t0, traceback.format_exc(limit=2)
    return result, time.perf_counter() - t0, None


def main(workload_name: str, seed: int, worker: int, seconds: float, trace: bool) -> dict:
    malloc_pinned = pin_malloc()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import kronsolve as ks
    from spans import Tracer
    from workloads import WORKLOADS, warm_up

    workload = WORKLOADS[workload_name]()
    workdir = OUT / "tmp"
    workdir.mkdir(parents=True, exist_ok=True)
    io_times = workload.setup(ks, seed, workdir)
    warm_up(ks)
    setup_s = time.perf_counter() - START

    tracer = Tracer(ks) if trace else None
    if tracer:
        tracer.install()
    gate_cache: dict[tuple[str, str], tuple[float, list[str]]] = {}
    out = {"setup_s": setup_s, "io": io_times, "malloc_pinned": malloc_pinned,
           "fast_s": [], "exact_s": [], "traced_fast_s": [], "fast_errors": [],
           "fast_seeds": [], "exact_errors": [], "layers": [], "failures": [],
           "attempted": 0, "digests": {}}

    def call_seed(index: int) -> int:
        """This worker's ``index``-th call seed (the routes' ``config.seed``)."""
        return int(np.random.SeedSequence([seed, worker, index]).generate_state(1)[0])

    def call(route: str, index: int, span=None):
        """Time one call of ``route`` with this worker's ``index``-th seed."""
        workload.reseed(call_seed(index))
        fn = getattr(workload, route)
        with span(f"bench.{route}") if span else nullcontext():
            return timed(lambda: fn(ks))

    def gate(route: str, outcome) -> float | None:
        """Count one call and gate its result (once per distinct result).

        Returns the result's error, or None if the call failed."""
        result, _, exc = outcome
        out["attempted"] += 1
        if exc is not None:
            out["failures"].append([f"{route}.raised: {exc.strip().splitlines()[-1]}"])
            return None
        key = (route, workload.fingerprint(result))
        if key not in gate_cache:
            gate_cache[key] = getattr(workload, f"check_{route}")(result)
        error, gate_failures = gate_cache[key]
        if gate_failures:
            out["failures"].append(gate_failures)
            return None
        out["digests"].setdefault(route, key[1])
        return error

    def fingerprint(outcome):
        return None if outcome[0] is None else workload.fingerprint(outcome[0])

    exact_prints = []
    loop_start = time.perf_counter()
    while not out["fast_s"] or time.perf_counter() - loop_start < seconds:
        fast_seed, exact_seed = len(out["fast_s"]), len(exact_prints)
        fast = call("fast", fast_seed)
        out["fast_s"].append(fast[1])
        out["fast_errors"].append(gate("fast", fast))
        out["fast_seeds"].append(call_seed(fast_seed))
        spent, calls = 0.0, 0
        while calls < EXACT_MIN_CALLS or spent < EXACT_SHARE * fast[1]:
            calls += 1
            exact = call("exact", len(exact_prints))
            spent += exact[1]
            out["exact_s"].append(exact[1])
            exact_prints.append(fingerprint(exact))
            out["exact_errors"].append(gate("exact", exact))
        if tracer:
            # The same pair again, traced: it must compute bitwise the same results.
            mark = tracer.mark()
            traced_fast = call("fast", fast_seed, tracer.span)
            traced_exact = call("exact", exact_seed, tracer.span)
            out["layers"].append(tracer.layer_metrics(mark))
            out["traced_fast_s"].append(traced_fast[1])
            gate("fast", traced_fast)
            gate("exact", traced_exact)
            plain = [fingerprint(fast), exact_prints[exact_seed]]
            traced = [fingerprint(traced_fast), fingerprint(traced_exact)]
            if traced != plain:
                out["failures"].append([f"trace.transparent untraced={plain} traced={traced}"])
    if tracer:
        tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{workload_name}-seed{seed}-worker{worker}.npz",
                    {"workload": workload_name, "seed": seed, "worker": worker})
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


if __name__ == "__main__":
    name, seed_arg, worker_arg, seconds_arg, trace_arg = sys.argv[1:6]
    print(json.dumps(main(name, int(seed_arg), int(worker_arg), float(seconds_arg),
                          trace_arg == "1")))
