"""Subquadratic Kronecker ridge regression and sketched Tucker ALS.

The names below are the package's API and its one input boundary: each
function checks what it is given.  The sketch kernels behind the solvers
(``kron.SketchedKron``, ``leverage.ProductSampler``, ``leverage.sample_rows``
and the like) stay importable from their modules, but they take the checked
input of the entry that calls them and check nothing again.
"""

from .errors import (
    InvalidInputError,
    KronsolveError,
    NumericalFailureError,
    SizeGuardError,
    TensorFormatError,
)
from .kron import kron_mat_mul, kron_vec_square
from .leverage import (
    LeverageScores,
    approx_leverage_scores_jl,
    ridge_leverage_scores,
    spectral_approx_rows,
    statistical_leverage_scores,
)
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
    FactorUpdateWorkspace,
    TuckerModel,
    build_factor_workspace,
    core_update,
    fast_factor_matrix_update,
    naive_factor_update,
    reconstruct,
    regularized_loss,
    relative_error,
    tucker_als,
)

__version__ = "0.1.0"
