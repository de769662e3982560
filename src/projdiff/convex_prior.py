"""A box model set, and exact and Monte-Carlo denoisers for a uniform prior on it.

With a uniform prior on B and Gaussian noise, the posterior factorises per
coordinate and the MMSE denoiser is the mean of a Gaussian truncated to
[lower_i, upper_i].  With alpha, beta the standardised bounds, that mean is
evaluated in one of three ways, each entry on its own:

- Narrow box: the log-density varies by at most NARROW_SPREAD over it.  Every
  closed form subtracts nearly equal masses here, so the mean is placed
  inside the box by 10-point Gauss-Legendre quadrature instead.
- Same signs (y outside the box): the textbook ratio phi/Phi cancels
  catastrophically many sigmas out, so the ratio is taken through the scaled
  complementary error function erfcx(x) = exp(x^2) erfc(x), which keeps the
  tail accurate past |alpha|, |beta| = 6 and far beyond.
- Signs differ: the mass is (erf(beta/sqrt2) - erf(alpha/sqrt2)) / 2, a sum
  of two terms of one sign.

erf and erfcx use numpy and the standard library only; scipy is not needed.
At and above ERF_CUT = 4, erfcx is Laplace's continued fraction

    erfcx(x) = 1 / (sqrt(pi) (x + (1/2)/(x + (2/2)/(x + (3/2)/(x + ...)))))

evaluated bottom-up to CF_TERMS = 40 terms, and erf(z) is
sign(z) (1 - exp(-z^2) erfcx(|z|)), which rounds to sign(z) from |z| = 6 on.
Below the cut, erf is ``math.erf`` and erfcx is exp(x^2) ``math.erfc(x)``,
with x^2 carried as hi + lo (a Veltkamp split) so that exp sees the exact
square.  ``math.erf`` and ``math.erfc`` come from the platform's libm, as
numpy's ``exp`` does.  tests/test_convex_prior.py checks them against
mpmath: erfcx to 1e-15 relative on [0, 1e8], on both sides of the cut; erf
to 2e-16 absolute; and the truncated mean to 5e-12 absolute for sigma in
[1e-8, 10], |y - centre| up to 1e3 and box widths down to 1e-3.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateWeightsError
from .model_sets import _check_block, _check_positive, _check_vector

SQRT_2 = math.sqrt(2.0)
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
SQRT_PI = math.sqrt(math.pi)

ERF_CUT = 4.0
ERF_ONE = 6.0  # erfc(6) = 2.2e-17 < 2**-54, so 1 - erfc(z) rounds to 1 from here on
CF_TERMS = 40
VELTKAMP = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
NARROW_SPREAD = 1.0
# The 10-point Gauss-Legendre rule, np.polynomial.legendre.leggauss(10)
# mapped from [-1, 1] to [0, 1], written out so that importing this module
# does not import numpy.polynomial.
GAUSS_NODES = (0.013046735741414128, 0.06746831665550773, 0.16029521585048778,
               0.2833023029353764, 0.4255628305091844, 0.5744371694908156,
               0.7166976970646236, 0.8397047841495122, 0.9325316833444923,
               0.9869532642585859)
GAUSS_WEIGHTS = (0.03333567215434407, 0.0747256745752902, 0.109543181257991,
                 0.13463335965499826, 0.1477621123573764, 0.1477621123573764,
                 0.13463335965499826, 0.109543181257991, 0.0747256745752902,
                 0.03333567215434407)

MIN_EFFECTIVE_SAMPLES = 10.0


@dataclass(frozen=True, eq=False)
class BoxSet:
    """An axis-aligned box containing the origin, with a uniform prior on it.

    Coordinates with lower == upper are inactive and pinned to zero; active
    coordinates must satisfy lower <= 0 <= upper with lower < upper, and
    upper - lower must be finite.  As a recovery model its step is
    ``box_denoiser`` with no trace columns, and a projection moves only the
    coordinates in ``active_mask``.
    """

    n_components = 0

    lower: np.ndarray
    upper: np.ndarray
    active_mask: np.ndarray = field(init=False)

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("box bounds must be finite")
        if np.any(lower > upper):
            raise ValueError("need lower <= upper in every coordinate")
        active = lower < upper
        if np.any(lower[~active] != 0.0):
            raise ValueError("inactive coordinates must be pinned to zero")
        if np.any(lower[active] > 0.0) or np.any(upper[active] < 0.0):
            raise ValueError("active coordinates must contain the origin")
        with np.errstate(over="ignore"):
            overflow = np.flatnonzero(~np.isfinite(upper - lower))
        if overflow.size:
            raise ValueError(f"box width upper - lower overflows at coordinate {overflow[0]}")
        for name, array in (("lower", lower.copy()), ("upper", upper.copy()),
                            ("active_mask", active)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def ambient_dim(self) -> int:
        return self.lower.shape[0]

    @property
    def intrinsic_dim(self) -> int:
        return int(np.count_nonzero(self.active_mask))

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))

    def step(self, x: np.ndarray, sigma):
        return box_denoiser(self, x, sigma), None

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return sample_box(self, rng)[0]

    def true_component(self, x: np.ndarray):
        return None


def project_box(box: BoxSet, x: np.ndarray) -> np.ndarray:
    """Clamp x to the box; inactive coordinates go to zero."""
    x = _check_vector(x, box.ambient_dim)
    out = np.clip(x, box.lower, box.upper)
    out[~box.active_mask] = 0.0
    return out


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """The scalar ``math`` function ``fn`` applied to each entry of 1-d ``x``."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _erfcx_cf(x: np.ndarray) -> np.ndarray:
    """erfcx(x) by Laplace's continued fraction, for x >= ERF_CUT."""
    f = x.copy()
    for k in range(CF_TERMS, 0, -1):
        np.divide(0.5 * k, f, out=f)
        f += x
    return 1.0 / (SQRT_PI * f)


def _exp_square(x: np.ndarray) -> np.ndarray:
    """exp(x^2) for |x| < ERF_CUT, with x^2 carried exactly as hi + lo."""
    c = VELTKAMP * x
    head = c - (c - x)
    tail = x - head
    hi = x * x
    lo = ((head * head - hi) + 2.0 * head * tail) + tail * tail
    e = np.exp(hi)
    return e + e * lo


def _erfcx(x: np.ndarray) -> np.ndarray:
    """exp(x^2) erfc(x) for x >= 0, elementwise."""
    out = np.empty_like(x)
    low = x < ERF_CUT
    near = x[low]
    out[low] = _exp_square(near) * _libm(math.erfc, near)
    out[~low] = _erfcx_cf(x[~low])
    return out


def _erf(z: np.ndarray) -> np.ndarray:
    """erf(z), elementwise."""
    az = np.abs(z)
    out = np.sign(z)  # erf(z) rounds to +-1 from |z| = ERF_ONE on
    near = az < ERF_CUT
    out[near] = _libm(math.erf, z[near])
    far = (az >= ERF_CUT) & (az < ERF_ONE)
    zf = az[far]
    out[far] = np.copysign(1.0 - np.exp(-zf * zf) * _erfcx_cf(zf), z[far])
    return out


def _tail_ratio(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    # (phi(alpha) - phi(beta)) / (Phi(beta) - Phi(alpha)) for 0 <= alpha <= beta,
    # rescaled by exp(alpha^2/2) in numerator and denominator.
    delta = 0.5 * (beta - alpha) * (beta + alpha)
    decay = np.exp(-delta)
    num = -np.expm1(-delta) * SQRT_2_OVER_PI
    den = _erfcx(alpha / SQRT_2) - decay * _erfcx(beta / SQRT_2)
    return num / den


def _narrow_fraction(alpha: np.ndarray, h: np.ndarray) -> np.ndarray:
    """E[s] for s on [0, 1] with density proportional to exp(-s h (alpha + s h / 2)).

    That is where the truncated mean sits in its box, as a fraction of the
    width: u = alpha + s h is the standardised coordinate.  Gauss-Legendre
    quadrature is exact to rounding while the log-density varies by at most
    NARROW_SPREAD over the box.
    """
    mass = np.zeros_like(alpha)
    moment = np.zeros_like(alpha)
    for s, w in zip(GAUSS_NODES, GAUSS_WEIGHTS):
        e = w * np.exp(-s * h * (alpha + 0.5 * s * h))
        mass += e
        moment += s * e
    return moment / mass


def truncated_normal_mean(lower, upper, y, sigma) -> np.ndarray:
    """Mean of N(y, sigma^2) conditioned on [lower, upper], elementwise.

    ``sigma`` is a scalar or an array that broadcasts against ``y``.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    y = np.asarray(y, dtype=float)
    sigma = _check_positive(sigma, "sigma")
    alpha, beta = np.broadcast_arrays((lower - y) / sigma, (upper - y) / sigma)
    h = beta - alpha
    narrow = h * np.maximum(-alpha, beta) + 0.5 * h * h <= NARROW_SPREAD

    ratio = np.zeros(alpha.shape)
    pos = (alpha >= 0.0) & ~narrow      # y at or below the box
    neg = (beta <= 0.0) & ~narrow       # y at or above the box
    mid = ~(pos | neg | narrow)
    if np.any(pos):
        ratio[pos] = _tail_ratio(alpha[pos], beta[pos])
    if np.any(neg):
        ratio[neg] = -_tail_ratio(-beta[neg], -alpha[neg])
    if np.any(mid):
        # Signs differ: the two erf terms add, nothing cancels.
        a, b = alpha[mid], beta[mid]
        num = (np.exp(-0.5 * a * a) - np.exp(-0.5 * b * b)) / math.sqrt(2.0 * math.pi)
        ratio[mid] = num / (0.5 * (_erf(b / SQRT_2) - _erf(a / SQRT_2)))
    mean = ratio  # y + sigma * ratio, in place so that narrow entries can be set
    mean *= sigma
    mean += y
    if np.any(narrow):
        lo = np.broadcast_to(lower, mean.shape)[narrow]
        hi = np.broadcast_to(upper, mean.shape)[narrow]
        mean[narrow] = lo + (hi - lo) * _narrow_fraction(alpha[narrow], h[narrow])
    return mean[()]


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
