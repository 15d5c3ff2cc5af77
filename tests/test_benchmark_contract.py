"""What the benchmark in ``perfbench/`` relies on from the program.

``perfbench/spans.py`` wraps kronsolve functions by module path and its
hooks read some of their arguments by name; ``perfbench/workloads.py``
calls the public solvers and digests fields of their results.  These tests
run both against the current program, so deleting a traced name, renaming a
hooked argument or dropping a digested field fails here rather than in a
benchmark run.  ``perfbench/`` is only read.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kronsolve as ks

from conftest import load_perfbench

spans = load_perfbench("spans")
workloads = load_perfbench("workloads")


@pytest.fixture
def tracer():
    tr = spans.Tracer(ks)
    try:
        tr.install()
        yield tr
    finally:
        tr.uninstall()


def test_traced_names_and_hooks_resolve(tracer):
    since = tracer.mark()
    with tracer.span("warm-up"):
        workloads.warm_up(ks)
    metrics = tracer.layer_metrics(since)
    assert set(metrics) <= set(spans.layer_metric_specs())
    # every hooked function ran, so each hook read its arguments by name
    for name in ("kron.kron_mat_mul", "kron.sparse_diagonal_from_sketch",
                 "leverage.sample_rows", "solvers.richardson_solve"):
        assert metrics[f"{name}.calls"] > 0, name


def test_unreached_names_are_module_only():
    # no route reaches these five, so the package does not export them; each
    # stays defined at the module path under which the tracer wraps it
    modules = {}
    for _, path, _ in spans.TRACED:
        module, _, attr = path.partition(".")
        modules[attr.split(".")[0]] = module
    for name in ("kron_vec_square", "approx_leverage_scores_jl", "spectral_approx_rows",
                 "FactorUpdateWorkspace", "build_factor_workspace"):
        assert name not in dir(ks), name
        assert hasattr(getattr(ks, modules[name]), name), name


def test_regression_fingerprint():
    work = workloads.RegressionWorkload("contract-reg", n=64, d=4)
    work.setup(ks, 0, None)
    fast = work.fast(ks)
    assert fast.sample_count > 0  # the sketched route ran
    for report in (fast, work.exact(ks)):
        assert len(work.fingerprint(report)) == 16


def test_tucker_fingerprint():
    # alpha 1e-5 keeps the factor-row updates on the sketched route at 12^3
    x = np.random.default_rng(3).standard_normal((12, 12, 12))
    config = ks.solvers.RegressionConfig(
        seed=0, **dict(workloads.TUCKER_SETTINGS, alpha=1e-5))
    result = ks.tucker.tucker_als(x, (2, 2, 2), lam=config.lam, sweeps=1,
                                  solver_mode="fast", config=config)
    assert len(workloads.TuckerWorkload.fingerprint(result)) == 16


def test_fast_route_does_not_import_scipy():
    # importing scipy.sparse costs about 0.2 s of setup_s; numpy is the one
    # dependency
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import kronsolve as ks\n"
        "rs = np.random.default_rng(0)\n"
        "facs = [rs.normal(1.0, 0.03, (20, 3)) for _ in range(2)]\n"
        "cfg = ks.solvers.RegressionConfig(seed=0, alpha=1e-4)\n"
        "rep = ks.solvers.fast_kronecker_regression(facs, np.ones(400), cfg)\n"
        "assert rep.sample_count > 0\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, cwd=Path(__file__).resolve().parent.parent)
    assert result.returncode == 0, result.stderr
