"""Leverage scores, row-sampling sketches, and the Kronecker product sampler.

Row importance of a matrix ``A`` is measured by its ridge leverage scores
``l_i = a_i (A^T A + lam I)^+ a_i^T``; sampling rows proportionally to them
(with ``1/sqrt(p_j s)`` rescaling) yields spectral approximations and
approximate regression solutions.  For a Kronecker product the statistical
score of row ``(i_1, ..., i_N)`` factorizes as the product of per-factor
scores, so sampling reduces to one categorical draw per factor.
:func:`sample_rows` draws every sketch that way, the rows of a single
matrix through a one-factor :class:`ProductSampler`.

The score functions check their input.  :class:`ProductSampler`,
:func:`build_product_sampler` and :func:`sample_rows` are kernels that take
checked input: scores computed from factors a solver has validated (each
vector nonnegative, finite and not all zero) and a sample count of at
least one, and they check neither again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .tensor import CompactSvd, as_matrix, check_ridge_weight, compact_svd

# Sample-count constants from the two sampling guarantees: the spectral
# sandwich uses 144, the approximate-regression bound uses 1680.
SPECTRAL_SAMPLE_CONSTANT = 144
REGRESSION_SAMPLE_CONSTANT = 1680

# Rows of the Gaussian projection used by the fast score estimator are
# ceil(JL_LOG_FACTOR * ln(n)); only the log-order is dictated by theory.
JL_LOG_FACTOR = 8.0


@dataclass(frozen=True)
class LeverageScores:
    """Per-row (ridge) leverage scores plus their approximation quality.

    ``approx_factor`` is 1 for exact scores; estimated scores lie within
    ``[l_i, approx_factor * l_i]`` of the exact ones with high probability.
    """

    scores: np.ndarray
    lam: float
    approx_factor: float = 1.0

    def normalized(self) -> np.ndarray:
        total = float(self.scores.sum())
        if total <= 0.0:
            raise InvalidInputError("cannot normalize an all-zero score vector")
        return self.scores / total


def ridge_leverage_scores(svd: CompactSvd, lam: float) -> LeverageScores:
    """Exact ridge leverage scores from a compact SVD.

    ``l_i = sum_k sigma_k^2 / (sigma_k^2 + lam) * u_ik^2``; with ``lam = 0``
    these are the statistical leverage scores and sum to the rank.
    """
    check_ridge_weight(lam)
    s2 = svd.sigma**2
    weights = s2 / (s2 + lam)
    scores = (svd.u**2) @ weights
    return LeverageScores(scores, lam, 1.0)


def statistical_leverage_scores(a) -> LeverageScores:
    """Exact statistical leverage scores of ``a`` (ridge scores at lam = 0)."""
    return ridge_leverage_scores(compact_svd(a), 0.0)


def spectral_sample_count(d: int, eps: float, delta: float) -> int:
    """Rows needed for the (1 +/- eps) spectral sandwich at risk delta."""
    return math.ceil(SPECTRAL_SAMPLE_CONSTANT * d * math.log(2 * d / delta)
                     / eps**2)


def regression_sample_count(d: int, eps: float, alpha: float,
                            failure_log: float = 1.0) -> int:
    """Rows for (1+eps)-approximate regression; ``failure_log`` is e.g. ln(1/delta)."""
    return max(1, math.ceil(alpha * REGRESSION_SAMPLE_CONSTANT * d
                            * math.log(40 * d) * failure_log / eps))


def approx_leverage_scores_jl(a, a_tilde, gram_tilde, eps: float, seed,
                              log_factor: float = JL_LOG_FACTOR) -> LeverageScores:
    """Estimate all statistical leverage scores of ``a`` with one projection.

    Given ``a_tilde`` whose Gram matrix one-sidedly dominates ``a``'s
    (``A^T A <= At^T At <= (1 + eps/4) A^T A``) and ``gram_tilde = At^T At``,
    the score of row ``a_i`` is estimated by

        || G @ a_tilde @ M @ a_i ||^2 / ((1 + eps/4) (1 - eps/20)),

    where ``M = (1 + eps/4) (At^T At)^{-1}`` and ``G`` is a row-normalized
    Gaussian projection with ``ceil(log_factor * ln n)`` rows.  The estimates
    are a ``(1 + eps/2)``-approximation with high probability; the constant
    ``log_factor`` controls how high (see ``JL_LOG_FACTOR``).

    Raises
    ------
    NumericalFailureError
        If ``gram_tilde`` is singular.
    InvalidInputError
        If ``eps`` is outside (0, 1/4].
    """
    a = as_matrix(a, "a")
    a_tilde = as_matrix(a_tilde, "a_tilde")
    gram_tilde = as_matrix(gram_tilde, "gram_tilde")
    if not 0.0 < eps <= 0.25:
        raise InvalidInputError(f"eps must be in (0, 1/4], got {eps}")
    n, d = a.shape
    try:
        # p[:, i] = M @ a_i with M = (1+eps/4) inv(gram_tilde)
        p = (1.0 + eps / 4.0) * np.linalg.solve(gram_tilde, a.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            "approximate Gram matrix is singular; cannot estimate leverage "
            "scores", diagnostics={"shape": gram_tilde.shape}) from exc
    if not np.all(np.isfinite(p)):
        raise NumericalFailureError(
            "approximate Gram matrix is numerically singular",
            diagnostics={"shape": gram_tilde.shape})
    rng = np.random.default_rng(seed)
    r = max(1, math.ceil(log_factor * math.log(max(n, 2))))
    g = rng.standard_normal((r, a_tilde.shape[0])) / math.sqrt(r)
    projected = (g @ a_tilde) @ p  # r x n
    scores = np.einsum("ri,ri->i", projected, projected)
    scores /= (1.0 + eps / 4.0) * (1.0 - eps / 20.0)
    return LeverageScores(scores, 0.0, 1.0 + eps / 2.0)


@dataclass(frozen=True)
class RowSketch:
    """``s`` i.i.d. row draws with their rescaling weights ``1/sqrt(p_j s)``.

    ``indices`` has shape ``(s, N)``: one multi-index per draw from a
    :class:`ProductSampler` of ``N`` factors.
    """

    indices: np.ndarray
    weights: np.ndarray

    @property
    def sample_count(self) -> int:
        return self.weights.size


class ProductSampler:
    """Row sampler for a Kronecker product, one categorical draw per factor.

    Built from per-factor leverage scores; the probability of multi-index
    ``(i_1, ..., i_N)`` is the product of the per-factor normalized scores.
    """

    def __init__(self, per_factor_scores: Sequence[LeverageScores]):
        probs = [ls.scores / ls.scores.sum() for ls in per_factor_scores]
        self.per_factor_probabilities = probs
        self.per_factor_cdf = [np.cumsum(p) for p in probs]

    def sample(self, s: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``s`` multi-indices i.i.d. from the product distribution, and
        the joint probability of each.

        Each factor's uniforms are looked up in its CDF in sorted order,
        which ``np.searchsorted`` walks far faster than random order, and the
        indices go back to the draws' order through the sorting permutation;
        the draws are those of an unsorted lookup.  Each factor's probability
        at its draws multiplies into the joint ones in factor order.
        """
        draws = np.empty((s, len(self.per_factor_cdf)), dtype=np.intp)
        probs = np.ones(s)
        for n, cdf in enumerate(self.per_factor_cdf):
            u = rng.random(s)
            order = np.argsort(u)
            draws[order, n] = np.searchsorted(cdf, u[order], side="right")
            # guard against u landing exactly on the final cumulative 1.0
            np.minimum(draws[:, n], cdf.size - 1, out=draws[:, n])
            probs *= self.per_factor_probabilities[n][draws[:, n]]
        return draws, probs


def build_product_sampler(per_factor_scores: Sequence[LeverageScores]) -> ProductSampler:
    return ProductSampler(per_factor_scores)


def sample_rows(sampler: ProductSampler, s: int, seed) -> RowSketch:
    """Draw ``s`` rows i.i.d. with replacement and attach sketch weights.

    A row drawn with probability ``p_j`` gets weight ``1 / sqrt(p_j * s)``.
    One factor's sampler draws the rows of a single matrix.
    """
    rng = np.random.default_rng(seed)
    indices, probs = sampler.sample(s, rng)
    weights = 1.0 / np.sqrt(probs * s)
    return RowSketch(indices=indices, weights=weights)


def spectral_approx_rows(a, eps: float, delta: float, seed,
                         alpha: float = 1.0) -> np.ndarray:
    """Row-sampled spectral approximation ``S @ a`` of a tall matrix.

    Samples ``ceil(alpha * 144 d ln(2d/delta) / eps^2)`` rows by the exact
    statistical leverage scores of ``a``, through a one-factor
    :class:`ProductSampler`, and rescales them, so that
    ``(1-eps) A^T A <= (SA)^T SA <= (1+eps) A^T A`` holds with probability at
    least ``1 - delta`` (at ``alpha = 1``).
    """
    a = as_matrix(a)
    if not 0.0 < eps < 1.0:
        raise InvalidInputError(f"eps must be in (0, 1), got {eps}")
    if not 0.0 < delta < 1.0:
        raise InvalidInputError(f"delta must be in (0, 1), got {delta}")
    if not np.any(a):
        raise InvalidInputError("cannot sample the rows of a zero matrix")
    s = max(1, math.ceil(alpha * spectral_sample_count(a.shape[1], eps, delta)))
    sketch = sample_rows(ProductSampler([statistical_leverage_scores(a)]), s, seed)
    return sketch.weights[:, None] * a[sketch.indices[:, 0], :]
