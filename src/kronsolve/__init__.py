"""Subquadratic Kronecker ridge regression and sketched Tucker ALS.

The names below are the package's API and its one input boundary: each
function checks what it is given, by three rules.  An array must be real
(bool, integer or float dtype; ``tensor.as_real_array``), and is used as
float64; a count, size, rank, mode or seed must be a Python or numpy
integer, and a setting such as ``eps`` or ``lam`` a real number, neither a
``bool`` (``tensor.check_integer``, ``tensor.check_real``).  The
sketch kernels behind the solvers (``kron.SketchedKron``,
``leverage.sample_rows`` and the like) stay importable from their modules,
but they take the checked input of the entry that calls them.

``kron.kron_vec_square``, ``leverage.approx_leverage_scores_jl``,
``leverage.spectral_approx_rows``, ``tucker.FactorUpdateWorkspace`` and
``tucker.build_factor_workspace`` are not exported: no solver reaches
them.  They stay where the benchmark's tracer (``perfbench/spans.py``)
names them until they are deleted.
"""

from .errors import (
    InvalidInputError,
    KronsolveError,
    NumericalFailureError,
    SizeGuardError,
    TensorFormatError,
)
from .kron import kron_mat_mul
from .leverage import LeverageScores, ridge_leverage_scores, statistical_leverage_scores
from .solvers import (
    RegressionConfig,
    SolveReport,
    fast_kronecker_regression,
    kronmatmul_svd_solve,
    naive_normal_solve,
    ridge_loss,
    sketch_and_solve_ridge,
)
from .tensor import CompactSvd, compact_svd, multi_mode_product, unfold
from .tensor_io import read_tensor, write_results_csv, write_tensor
from .tucker import (
    AlsReport,
    TuckerModel,
    core_update,
    fast_factor_matrix_update,
    naive_factor_update,
    reconstruct,
    regularized_loss,
    relative_error,
    tucker_als,
)

__version__ = "0.1.0"
