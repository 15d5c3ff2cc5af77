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
def compact_svd_calls(monkeypatch):
    """Shapes of the matrices every ``solvers.compact_svd`` call decomposes."""
    import kronsolve.solvers as solvers

    calls = []
    original = solvers.compact_svd

    def counting(a):
        calls.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(solvers, "compact_svd", counting)
    return calls
