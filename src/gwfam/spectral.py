"""Reproduction-matrix analysis: Perron root, size-biased limit law, variances.

Everything here is an exact finite computation over a model's support except
the eigenpair, which comes from plain power iteration (the matrices are tiny
and positively regular, so convergence is geometric).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, InvalidArgument, NotPositivelyRegular
from .models import BranchingModel, SupportLookup

POWER_TOL = 1e-13
POWER_MAX_ITER = 10_000
RESIDUAL_TOL = 1e-10
DEGENERATE_VARIANCE_TOL = 1e-14


def reproduction_matrix(model: BranchingModel) -> np.ndarray:
    """Matrix of mean child counts; row = parent type, column = child type."""
    return np.array([law.mean() for law in model.laws])


def is_positively_regular(m: np.ndarray) -> bool:
    """True iff some power of the nonnegative matrix is entrywise positive.

    Only the zero pattern matters, and the Wielandt bound caps the exponent
    that needs checking at (l-1)^2 + 1.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidArgument("need a square matrix")
    if np.any(m < 0):
        raise InvalidArgument("need a nonnegative matrix")
    n = m.shape[0]
    pattern = (m > 0).astype(np.int64)
    power = pattern
    for _ in range((n - 1) ** 2 + 1):
        if power.all():
            return True
        power = ((power @ pattern) > 0).astype(np.int64)
    return bool(power.all())


@dataclass(frozen=True)
class PerronPair:
    """Largest eigenvalue with its L1-normalized nonnegative left eigenvector."""

    rho: float
    b: np.ndarray
    residual: float
    iterations: int

    def __post_init__(self):
        self.b.setflags(write=False)


def perron(m: np.ndarray) -> PerronPair:
    """Dominant eigenpair of a positively regular nonnegative matrix.

    Power iteration runs on the transpose so the LEFT eigenvector of ``m`` is
    produced; iterates are L1-normalized, the eigenvalue is the Rayleigh
    ratio of the last iterate, and the result is rejected if the residual
    ||b^T m - rho b^T||_1 exceeds 1e-10 rho (the residual scales with the
    matrix, so the gate does too).

    The operator is squared (and rescaled) after every step, so the
    effective power doubles each iteration and convergence does not depend
    on the spectral gap -- plain iteration stalls on the nearly-degenerate
    matrices a likelihood optimizer probes at the edge of a parameter box.
    """
    m = np.asarray(m, dtype=float)
    if not is_positively_regular(m):
        raise NotPositivelyRegular("matrix has no strictly positive power")
    a = m.T
    n = m.shape[0]
    op = a / a.max()
    x = np.full(n, 1.0 / n)
    iterations = 0
    for iterations in range(1, POWER_MAX_ITER + 1):
        y = op @ x
        y /= y.sum()
        delta = float(np.abs(y - x).sum())
        x = y
        if delta < POWER_TOL:
            break
        op = op @ op
        op /= op.max()
    x = x / x.sum()
    ax = a @ x
    rho = float((x @ ax) / (x @ x))
    residual = float(np.abs(ax - rho * x).sum())
    if residual > RESIDUAL_TOL * rho:
        raise ConvergenceFailure(
            f"power iteration stalled after {iterations} iterations "
            f"(residual {residual:.3e}); matrix may be periodic"
        )
    return PerronPair(rho=rho, b=x, residual=residual, iterations=iterations)


@dataclass(frozen=True)
class SizeBiasedLaw(SupportLookup):
    """Limit law of a sampled family: each brood weighted by its size.

    The mass at u is (|u| / rho) * sum_i p_i(u) b_i over the union support.
    Summing to one is not imposed -- it is a consequence of b being the left
    eigenvector, and is checked by tests rather than renormalized away.
    """

    vectors: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        self.vectors.setflags(write=False)
        self.probs.setflags(write=False)

    def total_mass(self) -> float:
        return float(self.probs.sum())


def size_biased_pmf(model: BranchingModel, pair: PerronPair) -> SizeBiasedLaw:
    """Evaluate the size-biased mixture law on the union of the laws' supports."""
    vectors, probs = model.support_union
    sizes = vectors.sum(axis=1)
    mass = (sizes / pair.rho) * (pair.b @ probs)
    return SizeBiasedLaw(vectors=vectors, probs=mass)


def moment_identities(ps: SizeBiasedLaw) -> tuple[float, np.ndarray]:
    """E(1/|X|) and E(X_i/|X|) under the size-biased law.

    These equal (1/rho, b) exactly; evaluating them independently of the
    eigen-solver makes the identity a usable consistency check.
    """
    inv_mean = float((ps.probs / ps.sizes).sum())
    ratio_mean = (ps.probs / ps.sizes) @ ps.vectors
    return inv_mean, ratio_mean


@dataclass(frozen=True)
class AsymptoticVariances:
    """Limit variances for the moment estimators of (rho, b).

    ``inv_size_variance`` is the variance of 1/|X| under the size-biased law
    (zero when every family has the same size); ``ratio_covariance`` is the
    covariance matrix of X/|X|, singular along the all-ones direction because
    the ratios live on the simplex.
    """

    inv_size_variance: float
    ratio_covariance: np.ndarray

    def __post_init__(self):
        self.ratio_covariance.setflags(write=False)

    @property
    def degenerate(self) -> bool:
        return self.inv_size_variance < DEGENERATE_VARIANCE_TOL


def asymptotic_variances(model: BranchingModel, pair: PerronPair) -> AsymptoticVariances:
    """Exact finite-sum evaluation of the limit variances.

    inv_size_variance = rho^-1 (sum_v sum_k b_k p_k(v)/|v| - rho^-1)
    ratio_covariance[i,j] = rho^-1 sum_v sum_k b_k p_k(v) v_i v_j / |v| - b_i b_j
    """
    rho, b = pair.rho, pair.b
    inv_moments = np.array([law.inverse_moment() for law in model.laws])
    sigma_sq = (float(b @ inv_moments) - 1.0 / rho) / rho
    sigma_sq = max(sigma_sq, 0.0)
    l = model.n_types
    second = np.zeros((l, l))
    for b_k, law in zip(b, model.laws):
        weighted = law.vectors * (b_k * law.probs / law.sizes)[:, None]
        second += weighted.T @ law.vectors.astype(float)
    cov = second / rho - np.outer(b, b)
    cov = (cov + cov.T) / 2.0
    return AsymptoticVariances(inv_size_variance=sigma_sq, ratio_covariance=cov)
