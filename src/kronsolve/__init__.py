"""Subquadratic Kronecker ridge regression and sketched Tucker ALS."""

from .errors import (
    InvalidInputError,
    KronsolveError,
    NumericalFailureError,
    SizeGuardError,
    TensorFormatError,
)
from .kron import (
    SketchedKron,
    SparseDiagonal,
    balanced_partition,
    kron_mat_mul,
    kron_vec_square,
    sketched_kron_apply,
    sketched_kron_transpose_apply,
    sparse_diagonal_from_sketch,
)
from .leverage import (
    LeverageScores,
    ProductSampler,
    RowSketch,
    approx_leverage_scores_jl,
    build_product_sampler,
    ridge_leverage_scores,
    sample_rows,
    spectral_approx_rows,
    statistical_leverage_scores,
)
from .solvers import (
    KronPreconditioner,
    RegressionConfig,
    SolveReport,
    build_factor_cache,
    build_kron_preconditioner,
    fast_kronecker_regression,
    kronmatmul_svd_solve,
    naive_normal_solve,
    richardson_solve,
    ridge_loss,
    sketch_and_solve_ridge,
)
from .tensor import (
    CompactSvd,
    compact_svd,
    explicit_kron,
    fold,
    multi_mode_product,
    n_mode_product,
    pseudo_inverse,
    unfold,
    vectorize,
)
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
