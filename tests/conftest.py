import importlib.util
from functools import reduce
from pathlib import Path

import numpy as np
import pytest


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


def sketched_rows(factors, sketch):
    """``S K`` densely: one rescaled row of ``explicit_kron`` per draw."""
    from kronsolve.tensor import explicit_kron

    flat = sketch.indices
    if flat.ndim == 2:
        flat = np.ravel_multi_index(tuple(flat.T), tuple(a.shape[0] for a in factors))
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
