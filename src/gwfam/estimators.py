"""Parameter estimation from sampled family sizes.

Moment estimators invert the sample means of 1/|X| and X_i/|X| into the
growth rate and stable type proportions, with Wald intervals from either the
exact limit variances or their plug-in versions. Likelihood fitting treats
the sample as iid from the size-biased limit law of a parametric family and
maximizes it by damped Fisher scoring; for the mitosis family that law is
available in closed form, and so is the stationary point, which doubles as
the fit's oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from .errors import (
    EmptySample,
    InvalidArgument,
    ModelConstructionFailed,
    OptimizerDiverged,
    ParameterOutOfRange,
)
from .spectral import AsymptoticVariances

_MAX_STEPS = 200  # scoring steps per climb, accepted or not


def _normal_quantile(level: float) -> float:
    # Two-sided: inv_cdf uses the Wichura AS241 rational approximation,
    # accurate far beyond the 1e-8 needed here.
    if not 0.0 < level < 1.0:
        raise InvalidArgument(f"confidence level must be in (0, 1), got {level}")
    return NormalDist().inv_cdf((1.0 + level) / 2.0)


def _as_brood_matrix(sample) -> np.ndarray:
    broods = np.asarray(getattr(sample, "broods", sample))
    if broods.dtype != np.int64:  # the samplers' dtype; any other must hold whole counts
        with np.errstate(invalid="ignore"):  # a NaN or out-of-range entry casts unequal
            whole = broods.astype(np.int64)
        if not np.array_equal(whole, broods):
            raise InvalidArgument("brood entries must be whole numbers")
        broods = whole
    if broods.ndim != 2 or broods.shape[0] == 0:
        raise EmptySample("need a nonempty matrix of brood vectors")
    if broods.sum(axis=1).min() < 1:
        raise InvalidArgument("every sampled brood must have at least one member")
    if broods.min() < 0:
        raise InvalidArgument("brood entries must be nonnegative")
    return broods


def _tally(broods: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(broods, axis=0, return_counts=True)`` from one lexsort of
    the columns, without sorting the rows as a void dtype."""
    ordered = broods.take(np.lexsort(broods.T[::-1]), axis=0)
    starts = np.ones(len(ordered) + 1, dtype=bool)  # where a run of equal rows starts
    np.logical_or.reduce(ordered[1:] != ordered[:-1], axis=1, out=starts[1:-1])
    starts = starts.nonzero()[0]
    return ordered[starts[:-1]], starts[1:] - starts[:-1]


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


def amle_fit(
    family: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    sample,
    theta0: Sequence[float],
    bounds: Sequence[tuple[float, float]],
) -> MleFit:
    """Fit a parametric family by maximizing the size-biased log likelihood.

    The sample is tallied once, by one lexsort of its columns, into its
    distinct broods u in lexicographic order and their counts c_u.
    ``family(theta, broods)`` returns ``(p, jac)``: p_S(u; theta) over the
    rows u of ``broods``, those distinct broods, and its Jacobian
    ``jac[u, d]`` = dp_S(u)/dtheta_d. The counts give the log likelihood
    sum_u c_u log p_S(u; theta). ``mitosis_size_biased_pmf`` is the mitosis
    family in closed form.

    Fisher scoring from theta0 (Osborne 1992), damped as Levenberg-Marquardt:
    with J the family's Jacobian, the score s = J^T (c / p), zeroed where it
    pushes out of the box at an active bound, and the information
    I = r J^T diag(1/p) J, the trial is theta + (I + mu r Id)^-1 s clipped
    into the box. It is kept, with its Jacobian, when the likelihood does not
    fall, and mu follows Nielsen's (1999) gain-ratio rule. The fit stops,
    ``converged``, once s^T (I + mu r Id)^-1 s <= 1e-16, the score in squared
    standard errors. Where I is singular at the end (the mitosis map folds
    along alpha + theta = 1, and on symmetric counts the fold point is a
    saddle) it probes 5% of the box width either way along I's null vector
    and climbs again from the first probe that gains. ``n_evaluations``
    counts family calls, one per point visited: the start, each trial and
    each probe. The stationarity residual is max |s| at the end (None on the
    box boundary).
    """
    unique, counts = _tally(_as_brood_matrix(sample))
    r = float(counts.sum())
    theta0 = np.asarray(theta0, dtype=float)
    lo, hi = np.array(bounds, dtype=float).T
    # a NaN start or bound fails the comparisons, an infinite bound the finite width
    if theta0.shape != lo.shape or not np.all(
        (lo <= theta0) & (theta0 <= hi) & np.isfinite(hi - lo)
    ):
        raise InvalidArgument("theta0 must lie inside a bounds box of finite width")
    eye, evaluations = np.eye(theta0.size), 0

    def evaluate(theta: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        nonlocal evaluations
        evaluations += 1
        try:
            p, jac = family(theta, unique)
            p = np.asarray(p, dtype=float)
            jac = np.asarray(jac, dtype=float).reshape(p.size, theta.size)
        except Exception as exc:
            raise ModelConstructionFailed(f"family failed at theta={theta}") from exc
        return (float(counts @ np.log(p)) if p.min() > 0.0 else -math.inf), p, jac

    def climb(theta: np.ndarray, ll: float, p: np.ndarray, jac: np.ndarray):
        mu, grow, stat, accepted = 1e-3, 2.0, math.inf, True
        for _ in range(_MAX_STEPS):
            if accepted:
                score = jac.T @ (counts / p)
                info = r * (jac.T / p) @ jac
                blocked = ((theta <= lo) & (score < 0)) | ((theta >= hi) & (score > 0))
                free = np.where(blocked, 0.0, score) if blocked.any() else score
            step = np.linalg.solve(info + mu * r * eye, free)
            stat = float(free @ step)
            if stat <= 1e-16:
                break
            trial = np.minimum(np.maximum(theta + step, lo), hi)
            trial_ll, trial_p, trial_jac = evaluate(trial)
            moved = trial - theta
            predicted = free @ moved - 0.5 * moved @ info @ moved  # the model's expected rise
            accepted = trial_ll >= ll and predicted > 0.0
            if accepted:
                gain = min((trial_ll - ll) / predicted, 1.0)
                theta, ll, p, jac = trial, trial_ll, trial_p, trial_jac
                mu, grow = max(mu * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), 1e-12), 2.0
            else:
                mu, grow = mu * grow, 2.0 * grow
        return theta, ll, stat <= 1e-16, score, info

    ll, p, jac = evaluate(theta0)
    if not math.isfinite(ll):
        raise OptimizerDiverged("the likelihood is zero at theta0")
    theta, ll, converged, score, info = climb(theta0, ll, p, jac)
    eigval, eigvec = np.linalg.eigh(info)
    if eigval[0] <= 1e-8 * eigval[-1]:
        for sign in (1.0, -1.0):
            probe = np.minimum(np.maximum(theta + sign * 0.05 * (hi - lo) * eigvec[:, 0], lo), hi)
            probe_ll, p, jac = evaluate(probe)
            if probe_ll > ll:
                theta, ll, converged, score, info = climb(probe, probe_ll, p, jac)
                break
    interior = np.all(theta - lo > 1e-7 * (hi - lo)) and np.all(hi - theta > 1e-7 * (hi - lo))
    return MleFit(
        theta_hat=theta,
        loglik=ll,
        converged=converged,
        n_evaluations=evaluations,
        stationarity_residual=float(np.abs(score).max()) if interior else None,
    )


# ---------------------------------------------------------------------------
# Mitosis family: closed-form estimators
# ---------------------------------------------------------------------------


def mitosis_size_biased_pmf(theta: Sequence[float], broods) -> tuple[np.ndarray, np.ndarray]:
    """p_S(u) of mitosis(alpha, theta) at each brood row u, with its Jacobian.

    The amle family: theta is (alpha, theta). In closed form rho = 2 and the
    stable type proportions are (b1, b2) = (1 - alpha, 1 - theta) / d with
    d = (1 - alpha) + (1 - theta), so p_S(u) = b1 B(u_1) + b2 R(u_1) when
    |u| = 2, and 0 for every other brood, where B = Bin(2, theta) and
    R = Bin(2, 1 - alpha) = Bin(2, alpha) reversed. With db1/dalpha =
    -(1 - theta)/d^2, db1/dtheta = (1 - alpha)/d^2 and db2 = -db1,

        dp/dalpha = db1/dalpha (B - R) + b2 (2 alpha, 2 - 4 alpha, -2 (1 - alpha))
        dp/dtheta = db1/dtheta (B - R) + b1 (-2 (1 - theta), 2 - 4 theta, 2 theta)

    at u_1 = 0, 1, 2. Returns p and ``jac[u] = (dp/dalpha, dp/dtheta)``,
    zero on off-support rows.
    """
    alpha, th = float(theta[0]), float(theta[1])
    if not (0.0 < alpha < 1.0 and 0.0 < th < 1.0):
        raise ParameterOutOfRange(
            f"mitosis parameters must lie strictly inside (0, 1), got ({alpha}, {th})"
        )
    broods = np.asarray(broods)
    # b2 is its own quotient and Bin(2, 1 - alpha) is Bin(2, alpha) reversed:
    # 1 - b1 and 1 - (1 - alpha) would cancel near the box edges
    d = (1.0 - alpha) + (1.0 - th)
    b1, b2 = (1.0 - alpha) / d, (1.0 - th) / d
    keep = ((1.0 - th) ** 2, 2.0 * th * (1.0 - th), th * th)
    swap = (alpha * alpha, 2.0 * alpha * (1.0 - alpha), (1.0 - alpha) ** 2)
    d_keep = (-2.0 * (1.0 - th), 2.0 - 4.0 * th, 2.0 * th)
    d_swap = (2.0 * alpha, 2.0 - 4.0 * alpha, -2.0 * (1.0 - alpha))
    # (p, dp/dalpha, dp/dtheta) at u_1 = 0, 1, 2 and a zero row for off-support
    # broods; db1/dalpha = -(1 - theta)/d^2 = -b2/d and db1/dtheta = (1 - alpha)/d^2 = b1/d
    table = [
        (b1 * k + b2 * w, b2 * (dw - (k - w) / d), b1 * (dk + (k - w) / d))
        for k, w, dk, dw in zip(keep, swap, d_keep, d_swap)
    ]
    on_support = (broods.shape[1] == 2) & (broods.min(axis=1) >= 0) & (broods.sum(axis=1) == 2)
    rows = np.array(table + [(0.0,) * 3]).take(np.where(on_support, broods[:, 0], 3), axis=0)
    return rows[:, 0], rows[:, 1:]


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
        raise InvalidArgument(f"non-mitosis broods present: {sorted(set(tally) - known)}")
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
        raise InvalidArgument("counts must be nonnegative and sum to r >= 1")
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
