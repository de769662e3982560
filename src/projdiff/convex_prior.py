"""Exact and Monte-Carlo denoisers for a uniform prior on a box.

With a uniform prior on B and Gaussian noise, the posterior factorises per
coordinate and the MMSE denoiser is the mean of a Gaussian truncated to
[lower_i, upper_i].  The textbook ratio phi/Phi cancels catastrophically when
the observation sits many sigmas outside the box, so same-sign cases are
evaluated through scaled complementary error functions (erfcx), which keeps
the tail behaviour accurate past |alpha|, |beta| = 6 and far beyond.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeightsError
from .model_sets import BoxSet, project_box, _check_block, _check_positive, _check_vector

SQRT_2 = math.sqrt(2.0)
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

MIN_EFFECTIVE_SAMPLES = 10.0


def _tail_ratio(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    # (phi(alpha) - phi(beta)) / (Phi(beta) - Phi(alpha)) for 0 <= alpha <= beta,
    # rescaled by exp(alpha^2/2) in numerator and denominator.
    from scipy.special import erfcx  # deferred: scipy.special dominates import time

    delta = 0.5 * (beta - alpha) * (beta + alpha)
    decay = np.exp(-delta)
    num = -np.expm1(-delta) * SQRT_2_OVER_PI
    den = erfcx(alpha / SQRT_2) - decay * erfcx(beta / SQRT_2)
    return num / den


def truncated_normal_mean(lower, upper, y, sigma) -> np.ndarray:
    """Mean of N(y, sigma^2) conditioned on [lower, upper], elementwise.

    ``sigma`` is a scalar or an array that broadcasts against ``y``.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    y = np.asarray(y, dtype=float)
    sigma = _check_positive(sigma, "sigma")
    alpha = (lower - y) / sigma
    beta = (upper - y) / sigma

    ratio = np.empty(np.broadcast(alpha, beta).shape)
    pos = alpha >= 0.0          # y at or below the box
    neg = beta <= 0.0           # y at or above the box
    mid = ~(pos | neg)
    if np.any(pos):
        ratio[pos] = _tail_ratio(alpha[pos], beta[pos])
    if np.any(neg):
        ratio[neg] = -_tail_ratio(-beta[neg], -alpha[neg])
    if np.any(mid):
        # Signs differ, so Phi(beta) - Phi(alpha) involves no cancellation.
        from scipy.special import ndtr

        a, b = alpha[mid], beta[mid]
        num = (np.exp(-0.5 * a * a) - np.exp(-0.5 * b * b)) / math.sqrt(2.0 * math.pi)
        ratio[mid] = num / (ndtr(b) - ndtr(a))
    return y + sigma * ratio


def box_denoiser(box: BoxSet, y: np.ndarray, sigma) -> np.ndarray:
    """Posterior mean under a uniform prior on the box, coordinatewise exact.

    ``y`` is one (d,) vector with a scalar sigma, or a (B, d) block of rows
    with one sigma per row.  Every entry is computed on its own, so a row's
    result is the same alone or in a block.
    """
    block, single = _check_block(y, box.ambient_dim, name="y")
    if not np.all(np.isfinite(block)):
        raise ValueError("y must be finite")
    sigma = np.broadcast_to(_check_positive(sigma, "sigma"), block.shape[:1])[:, None]
    out = np.zeros_like(block)
    active = box.active_mask
    lo, hi = box.lower[active], box.upper[active]
    mean = truncated_normal_mean(lo, hi, block[:, active], sigma)
    # The exact mean is strictly interior; keep it there if rounding lands
    # on a bound.
    mean = np.minimum(np.maximum(mean, np.nextafter(lo, hi)), np.nextafter(hi, lo))
    out[:, active] = mean
    return out[0] if single else out


def sample_box(box: BoxSet, rng: np.random.Generator, n: int = 1) -> np.ndarray:
    """n uniform draws on the box, shape (n, d); inactive coordinates are 0."""
    d = box.ambient_dim
    out = np.zeros((n, d))
    active = np.flatnonzero(box.active_mask)
    u = rng.random((n, active.size))
    out[:, active] = box.lower[active] + u * (box.upper[active] - box.lower[active])
    return out


@dataclass(frozen=True)
class McEstimate:
    value: np.ndarray
    stderr: np.ndarray
    effective_samples: float


def mc_denoiser(box: BoxSet, y: np.ndarray, sigma, n_samples: int, rng: np.random.Generator) -> McEstimate:
    """Self-normalised importance-sampling estimate of the box posterior mean.

    Uniform proposals on the box are reweighted by the Gaussian likelihood.
    Weights are normalised after a max-log shift; if the effective sample
    size sum(w)/max(w) drops below 10 the estimate is refused.
    """
    y = _check_vector(y, box.ambient_dim, name="y")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    sigma = _check_positive(sigma, "sigma")
    n_samples = int(n_samples)
    if n_samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {n_samples}")
    points = sample_box(box, rng, n_samples)
    sq = np.sum((points - y) ** 2, axis=1)
    log_w = -sq / (2.0 * sigma * sigma)
    log_w -= np.max(log_w)
    w = np.exp(log_w)
    total = float(np.sum(w))
    ess = total / float(np.max(w))
    if ess < MIN_EFFECTIVE_SAMPLES:
        raise DegenerateWeightsError(
            f"effective sample size {ess:.2f} < {MIN_EFFECTIVE_SAMPLES}; "
            "increase n_samples or sigma"
        )
    w_norm = w / total
    value = w_norm @ points
    centered = points - value
    stderr = np.sqrt((w_norm**2) @ (centered**2))
    return McEstimate(value=value, stderr=stderr, effective_samples=ess)


def convex_gap_curve(box: BoxSet, y: np.ndarray, sigmas) -> list:
    """[(sigma, ||box_denoiser - project_box||)] along a descending sigma grid."""
    y = _check_vector(y, box.ambient_dim, name="y")
    sigmas = [float(s) for s in sigmas]
    if any(not (0.0 < s < 1.0) for s in sigmas):
        raise ValueError("all sigmas must lie in (0, 1)")
    if any(a <= b for a, b in zip(sigmas, sigmas[1:])):
        raise ValueError("sigmas must be strictly descending")
    anchor = project_box(box, y)
    return [(s, float(np.linalg.norm(box_denoiser(box, y, s) - anchor))) for s in sigmas]
