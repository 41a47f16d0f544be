"""Parameter estimation from sampled family sizes.

Moment estimators invert the sample means of 1/|X| and X_i/|X| into the
growth rate and stable type proportions, with Wald intervals from either the
exact limit variances or their plug-in versions. Likelihood fitting treats
the sample as iid from the size-biased limit law of a parametric family and
maximizes numerically; for the mitosis family the stationary point is also
available in closed form and doubles as the optimizer's oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from statistics import NormalDist
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np
from scipy.optimize import minimize

from .errors import EmptySample, InvalidArgument, ModelConstructionFailed, OptimizerDiverged
from .spectral import AsymptoticVariances, perron, reproduction_matrix

if TYPE_CHECKING:
    from .models import BranchingModel

GRADIENT_REL_STEP = 1e-6
_PENALTY = -1e18  # objective value for impossible samples / invalid models


def _normal_quantile(level: float) -> float:
    # Two-sided: inv_cdf uses the Wichura AS241 rational approximation,
    # accurate far beyond the 1e-8 needed here.
    if not 0.0 < level < 1.0:
        raise InvalidArgument(f"confidence level must be in (0, 1), got {level}")
    return NormalDist().inv_cdf((1.0 + level) / 2.0)


def _as_brood_matrix(sample) -> np.ndarray:
    broods = np.asarray(getattr(sample, "broods", sample), dtype=np.int64)
    if broods.ndim != 2 or broods.shape[0] == 0:
        raise EmptySample("need a nonempty matrix of brood vectors")
    sizes = broods.sum(axis=1)
    if np.any(sizes < 1):
        raise ValueError("every sampled brood must have at least one member")
    return broods


@dataclass(frozen=True)
class MomentEstimates:
    """Moment estimates of the growth rate and stable type proportions."""

    inv_size_mean: float
    rho_hat: float
    ratio_means: np.ndarray
    r: int
    ci_level: float | None = None
    ci_rho: tuple[float, float] | None = None
    ci_b: np.ndarray | None = None
    rho_ci_degenerate: bool = False

    def __post_init__(self):
        self.ratio_means.setflags(write=False)
        if self.ci_b is not None:
            self.ci_b.setflags(write=False)


def mom_estimates(sample) -> MomentEstimates:
    """T = mean(1/|X_j|), U_i = mean(X_ji / |X_j|), rho_hat = 1/T."""
    broods = _as_brood_matrix(sample)
    sizes = broods.sum(axis=1).astype(float)
    t = float(np.mean(1.0 / sizes))
    u = (broods / sizes[:, None]).mean(axis=0)
    return MomentEstimates(
        inv_size_mean=t, rho_hat=1.0 / t, ratio_means=u, r=broods.shape[0]
    )


def mom_confidence(
    est: MomentEstimates, var: AsymptoticVariances, level: float = 0.95
) -> MomentEstimates:
    """Attach Wald intervals from limit variances (exact or plug-in).

    The growth-rate interval uses the delta-method variance sigma_T^2 rho^4
    with the estimate plugged in for rho. When sigma_T^2 is (numerically)
    zero the interval collapses to the point estimate and is flagged.
    """
    if est.r < 2:
        raise EmptySample("confidence intervals need at least two observations")
    z = _normal_quantile(level)
    degenerate = var.degenerate
    if degenerate:
        ci_rho = (est.rho_hat, est.rho_hat)
    else:
        half = z * math.sqrt(var.inv_size_variance * est.rho_hat**4 / est.r)
        ci_rho = (est.rho_hat - half, est.rho_hat + half)
    halves = z * np.sqrt(np.diag(var.ratio_covariance) / est.r)
    ci_b = np.column_stack((est.ratio_means - halves, est.ratio_means + halves))
    return replace(
        est,
        ci_level=level,
        ci_rho=ci_rho,
        ci_b=ci_b,
        rho_ci_degenerate=degenerate,
    )


def plugin_variances(sample) -> AsymptoticVariances:
    """Empirical counterparts of the limit variances (denominator r - 1)."""
    broods = _as_brood_matrix(sample)
    if broods.shape[0] < 2:
        raise EmptySample("plug-in variances need at least two observations")
    sizes = broods.sum(axis=1).astype(float)
    inv = 1.0 / sizes
    ratios = broods / sizes[:, None]
    cov = np.cov(ratios, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    return AsymptoticVariances(
        inv_size_variance=float(np.var(inv, ddof=1)), ratio_covariance=cov
    )


# ---------------------------------------------------------------------------
# Likelihood fitting against the size-biased limit law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MleFit:
    theta_hat: np.ndarray
    loglik: float
    converged: bool
    n_evaluations: int
    stationarity_residual: float | None

    def __post_init__(self):
        self.theta_hat.setflags(write=False)


def _start_points(theta0: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> list[np.ndarray]:
    # theta0 plus four deterministic starts: +/-25% of the box width in the
    # uniform directions and +/-45% in the alternating ones, covering all
    # sign quadrants in two dimensions.
    starts = [theta0]
    width = hi - lo
    alternating = np.array([1.0 if d % 2 == 0 else -1.0 for d in range(theta0.size)])
    ones = np.ones(theta0.size)
    for frac, direction in (
        (0.25, ones),
        (-0.25, ones),
        (0.45, alternating),
        (-0.45, alternating),
    ):
        starts.append(np.clip(theta0 + frac * width * direction, lo, hi))
    return starts


def amle_fit(
    family: Callable[[np.ndarray], "BranchingModel"],
    sample,
    theta0: Sequence[float],
    bounds: Sequence[tuple[float, float]],
) -> MleFit:
    """Fit a parametric family by maximizing the size-biased log likelihood.

    The objective per observation is log|X_j| - log rho(theta)
    + log sum_i b_i(theta) p_i(X_j; theta); rho and b are recomputed by power
    iteration at every evaluation. Box-constrained quasi-Newton (L-BFGS-B)
    with central-difference gradients, multi-started from theta0 plus four
    deterministic jittered points. The reported stationarity residual is the
    largest component of that gradient at the optimum, evaluated after the
    optimizer has finished, so ``n_evaluations`` does not count it (None when
    the optimum sits on the box boundary, where stationarity need not hold).
    """
    broods = _as_brood_matrix(sample)
    unique, counts = np.unique(broods, axis=0, return_counts=True)
    sizes = unique.sum(axis=1).astype(float)
    theta0 = np.asarray(theta0, dtype=float)
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    if theta0.shape != lo.shape or np.any(theta0 < lo) or np.any(theta0 > hi):
        raise ValueError("theta0 must lie inside the bounds box")
    log_size_term = float(counts @ np.log(sizes))
    r = int(counts.sum())
    evaluations = 0

    def loglik(theta: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        try:
            model = family(theta)
        except Exception as exc:
            raise ModelConstructionFailed(f"family failed at theta={theta}") from exc
        pair = perron(reproduction_matrix(model))
        pmat = np.array([[law.prob_of(u) for u in unique] for law in model.laws])
        mix = pair.b @ pmat
        if np.any(mix <= 0.0):
            return _PENALTY
        return log_size_term - r * math.log(pair.rho) + float(counts @ np.log(mix))

    def objective(theta: np.ndarray) -> float:
        return -loglik(theta)

    def gradient(theta: np.ndarray) -> np.ndarray:
        # central differences, stencil clipped into the box near its edges
        g = np.empty_like(theta)
        for d in range(theta.size):
            h = GRADIENT_REL_STEP * max(1.0, abs(theta[d]))
            up = theta.copy()
            dn = theta.copy()
            up[d] = min(theta[d] + h, hi[d])
            dn[d] = max(theta[d] - h, lo[d])
            g[d] = (objective(up) - objective(dn)) / (up[d] - dn[d])
        return g

    best = None
    for start in _start_points(theta0, lo, hi):
        res = minimize(
            objective,
            start,
            jac=gradient,
            method="L-BFGS-B",
            bounds=list(zip(lo, hi)),
            options={"ftol": 1e-13, "gtol": 1e-10, "maxiter": 500},
        )
        if best is None or res.fun < best.fun:
            best = res
    if best is None or not np.isfinite(best.fun) or -best.fun <= _PENALTY / 2:
        raise OptimizerDiverged("no start produced a finite likelihood")

    theta_hat = np.asarray(best.x, dtype=float)
    interior = np.all(theta_hat - lo > 1e-7 * (hi - lo)) and np.all(
        hi - theta_hat > 1e-7 * (hi - lo)
    )
    n_evaluations = evaluations  # the optimizer's only: read before the residual's
    residual = float(np.abs(gradient(theta_hat)).max()) if interior else None
    return MleFit(
        theta_hat=theta_hat,
        loglik=-float(best.fun),
        converged=bool(best.success),
        n_evaluations=n_evaluations,
        stationarity_residual=residual,
    )


# ---------------------------------------------------------------------------
# Mitosis family: closed-form estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MitosisEstimates:
    """Closed-form fit of the mitosis family from brood-type counts.

    ``degenerate`` flags samples with no marked or no unmarked children,
    where the formulas divide by zero and conventional boundary values are
    returned instead; ``in_range`` is False when a non-degenerate solution
    falls outside (0, 1).
    """

    alpha_hat: float
    theta_hat: float
    b1_hat: float
    degenerate: bool
    in_range: bool


def mitosis_counts(sample) -> tuple[int, int, int]:
    """Counts of (2,0), (1,1), (0,2) broods in a mitosis-model sample."""
    broods = _as_brood_matrix(sample)
    keys, counts = np.unique(broods, axis=0, return_counts=True)
    tally = {tuple(int(x) for x in k): int(c) for k, c in zip(keys, counts)}
    known = {(2, 0), (1, 1), (0, 2)}
    if set(tally) - known:
        raise ValueError(f"non-mitosis broods present: {sorted(set(tally) - known)}")
    return tally.get((2, 0), 0), tally.get((1, 1), 0), tally.get((0, 2), 0)


def mitosis_closed_form(n1: int, nb: int, n2: int, r: int) -> MitosisEstimates:
    """Exact stationary point of the mitosis likelihood from the three counts.

    n1, nb, n2 count the (2,0), (1,1), (0,2) broods; the sign s is +1 when
    4 n1 n2 >= nb^2 and -1 otherwise, applied both to the root and inside the
    radicand so the latter stays nonnegative. The proportion estimate is
    b1 = (2 n1 + nb) / (2r).
    """
    n1, nb, n2, r = int(n1), int(nb), int(n2), int(r)
    if min(n1, nb, n2) < 0 or r < 1 or n1 + nb + n2 != r:
        raise ValueError("counts must be nonnegative and sum to r >= 1")
    unmarked = 2 * n1 + nb  # unmarked children observed
    marked = 2 * n2 + nb
    b1 = unmarked / (2.0 * r)
    if marked == 0:
        # all broods (2,0): only theta -> 1, alpha -> 0 explains the sample
        return MitosisEstimates(0.0, 1.0, b1, degenerate=True, in_range=False)
    if unmarked == 0:
        return MitosisEstimates(1.0, 0.0, b1, degenerate=True, in_range=False)
    disc = 4 * n1 * n2 - nb * nb
    s = 1.0 if disc >= 0 else -1.0
    alpha = (marked + s * math.sqrt(unmarked / marked * s * disc)) / (2.0 * r)
    theta = (unmarked + s * math.sqrt(marked / unmarked * s * disc)) / (2.0 * r)
    in_range = 0.0 < alpha < 1.0 and 0.0 < theta < 1.0
    return MitosisEstimates(alpha, theta, b1, degenerate=False, in_range=in_range)


def mitosis_twin_root(n1: int, nb: int, n2: int, r: int) -> tuple[float, float] | None:
    """Second exact-matching parameter point for the same counts, if any.

    The mitosis family is two-to-one from its size-biased law: when
    4 n1 n2 >= nb^2, the frequency-matching equations are a quadratic whose
    other root, taken with the minus sign, reproduces the observed
    frequencies (and therefore the maximal likelihood) exactly as well.
    Returns it when it lies inside (0, 1)^2, else None.
    """
    n1, nb, n2, r = int(n1), int(nb), int(n2), int(r)
    unmarked = 2 * n1 + nb
    marked = 2 * n2 + nb
    disc = 4 * n1 * n2 - nb * nb
    if disc < 0 or unmarked == 0 or marked == 0:
        return None
    alpha = (marked - math.sqrt(unmarked / marked * disc)) / (2.0 * r)
    theta = (unmarked - math.sqrt(marked / unmarked * disc)) / (2.0 * r)
    if 0.0 < alpha < 1.0 and 0.0 < theta < 1.0:
        return alpha, theta
    return None
