from functools import reduce

import numpy as np
import pytest


def dense_kron(factors):
    """Independent dense oracle for the Kronecker product."""
    return reduce(np.kron, [np.asarray(a, dtype=np.float64) for a in factors])


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
