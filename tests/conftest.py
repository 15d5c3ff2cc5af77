import importlib.util
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

# The property tests draw the same examples on every run, so tier-1 cannot
# fail at random on an unchanged tree.  To explore other examples, run with
# ``--hypothesis-profile default --hypothesis-seed N``.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """Import ``perfbench/<name>.py`` by path (the benchmark is only read)."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def dense_kron(factors):
    """Independent dense oracle for the Kronecker product."""
    return reduce(np.kron, [np.asarray(a, dtype=np.float64) for a in factors])


def factor_shaped(calls, shape, core_shape):
    """The recorded calls whose first argument has the shape of a factor of
    a Tucker model of ``shape`` and ``core_shape``; an exact factor step
    also decomposes its ``R_n x R_rest`` projected design, which is no
    factor decomposition."""
    shapes = set(zip(shape, core_shape))
    return [args for args in calls if args[0].shape in shapes]


def sketched_rows(factors, sketch):
    """``S K`` densely: one rescaled row of ``explicit_kron`` per draw."""
    from kronsolve.tensor import explicit_kron

    flat = np.ravel_multi_index(tuple(sketch.indices.T), tuple(a.shape[0] for a in factors))
    return sketch.weights[:, None] * explicit_kron(factors)[flat]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` wraps ``module.name`` for the test and
    returns the list that collects the positional arguments of every call."""

    def install(module, name):
        calls = []
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    return install


@pytest.fixture
def compact_svd_calls(count_calls):
    """Arguments of every ``solvers.compact_svd`` call."""
    import kronsolve.solvers as solvers

    return count_calls(solvers, "compact_svd")
