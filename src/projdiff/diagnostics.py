"""Quantitative checks on traces: burn-in detection and rate fits.

This module reads traces only; the denoiser-vs-projection gap envelope sits
beside the denoiser, in ``lrgmm_prior``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .recovery_engine import RecoveryTrace

MSE_FLOOR = 1e-28

MIN_FIT_POINTS = 5


def detect_burn_in(trace: RecoveryTrace, true_component: int):
    """First row index from which the nearest component stays the true one.

    A row counts only when the true component is the strict minimiser:
    ``nearest == k`` and ``dist_nearest < dist_second``.  On an exact
    distance tie (the zero start point ties all components) there is no
    nearest component yet.  Returns None when the last row still disagrees,
    and so for a k that is no component's index.  Requires the trace to
    carry the nearest-component columns.
    """
    if trace.nearest is None:
        raise ValueError("trace has no nearest-component columns")
    pair = trace.subspace_distances
    aligned = (trace.nearest == int(true_component)) & (pair[:, 0] < pair[:, 1])
    misaligned = np.flatnonzero(~aligned)
    first_stable = int(misaligned[-1]) + 1 if misaligned.size else 0
    return first_stable if first_stable < trace.n_rows else None


@dataclass(frozen=True)
class RateFit:
    rate: float
    slope: float
    r2: float
    n_points: int


def _least_squares_line(xs: np.ndarray, ys: np.ndarray):
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def fit_linear_rate(trace: RecoveryTrace, from_n: int = 0) -> RateFit:
    """Per-iteration contraction factor of the root-mse, from a log-linear fit.

    Fits 0.5*log(mse_n) against n from ``from_n`` to the end of the trace,
    stopping before the first entry that is below the float floor of 1e-28
    or not finite.
    """
    mse = trace.mse
    from_n = int(from_n)
    if not 0 <= from_n < trace.n_rows:
        raise ValueError(f"from_n {from_n} outside trace rows")
    end = trace.n_rows
    for i in range(from_n, trace.n_rows):
        if not MSE_FLOOR <= mse[i] < math.inf:  # also stops on NaN
            end = i
            break
    ns = trace.n[from_n:end].astype(float)
    if ns.shape[0] < MIN_FIT_POINTS:
        raise InsufficientDataError(
            f"only {ns.shape[0]} usable mse points from n={from_n}; need {MIN_FIT_POINTS}"
        )
    ys = 0.5 * np.log(mse[from_n:end])
    slope, r2 = _least_squares_line(ns, ys)
    return RateFit(rate=math.exp(slope), slope=slope, r2=r2, n_points=int(ns.shape[0]))


def fit_convex_rate(curve) -> RateFit:
    """Slope of log(gap) against log(sigma * sqrt(log(1/sigma))).

    ``curve`` is a [(sigma, gap)] list as produced by convex_gap_curve.
    Zero gaps carry no information on a log scale and are dropped; at least
    5 positive-gap points must remain.
    """
    pts = [(float(s), float(g)) for s, g in curve if g > 0.0]
    if len(pts) < MIN_FIT_POINTS:
        raise InsufficientDataError(
            f"only {len(pts)} positive-gap points; need {MIN_FIT_POINTS}"
        )
    sigmas = np.array([s for s, _ in pts])
    gaps = np.array([g for _, g in pts])
    if np.any(sigmas >= 1.0):
        raise ValueError("sigmas must be < 1 so that log(1/sigma) is positive")
    xs = np.log(sigmas * np.sqrt(np.log(1.0 / sigmas)))
    ys = np.log(gaps)
    slope, r2 = _least_squares_line(xs, ys)
    return RateFit(rate=math.exp(slope), slope=slope, r2=r2, n_points=len(pts))
