"""Low-rank Gaussian mixture priors and their exact MMSE denoisers.

The prior is a mixture of degenerate Gaussians, one per subspace: component k
puts an isotropic unit Gaussian on E_k.  Blurring with N(0, t I) gives a
full-rank mixture whose covariances are U_k U_k^T + t I; all densities are
evaluated in the log domain through the bases alone, using

    det(U U^T + t I) = (1+t)^r * t^(d-r)
    x^T (U U^T + t I)^{-1} x = ||u||^2/(1+t) + ||x-u||^2/t,   u = U U^T x.

The posterior-mean denoiser is the component-weighted projection
(1/(1+sigma^2)) * sum_k w_k U_k U_k^T x, which equals x + sigma^2 times the
gradient of the blurred log density (Tweedie's identity).
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ResourceLimitError, UnsupportedCaseError
from .model_sets import (
    DEFAULT_TIE_TOL,
    UnionOfSubspaces,
    component_parts,
    coordinate_subspace,
    project_union,
    random_union,
    _check_positive,
    _check_vector,
)
from .randomness import categorical, normal_stream

LOG_2PI = math.log(2.0 * math.pi)

SPARSE_COMPONENT_CAP = 200_000


def _check_sums_to_one(log_pi: np.ndarray) -> None:
    total = float(np.sum(np.exp(log_pi)))
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"mixture weights must sum to 1, got {total!r}")


def log_mixture_weights(pi, n_components: int) -> np.ndarray:
    """log(pi) for mixture weights pi; raises ValueError unless LrGmmPrior accepts them."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (n_components,):
        raise ValueError(f"need {n_components} mixture weights, one per component, got {pi.size}")
    if not np.all(pi > 0.0):
        raise ValueError("mixture weights must be positive")
    log_pi = np.log(pi)
    _check_sums_to_one(log_pi)
    return log_pi


@dataclass(frozen=True, eq=False)
class LrGmmPrior:
    """Mixture of unit Gaussians supported on the components of a union."""

    union: UnionOfSubspaces
    log_pi: np.ndarray

    def __post_init__(self):
        log_pi = np.asarray(self.log_pi, dtype=float)
        if log_pi.shape != (self.union.n_components,):
            raise ValueError(
                f"log_pi must have shape ({self.union.n_components},), got {log_pi.shape}"
            )
        if not np.all(np.isfinite(log_pi)):
            raise ValueError("log_pi entries must be finite")
        _check_sums_to_one(log_pi)
        log_pi = log_pi.copy()
        log_pi.flags.writeable = False
        object.__setattr__(self, "log_pi", log_pi)

    @property
    def ambient_dim(self) -> int:
        return self.union.ambient_dim

    @property
    def n_components(self) -> int:
        return self.union.n_components

    @property
    def pi(self) -> np.ndarray:
        return np.exp(self.log_pi)


@dataclass(frozen=True)
class DenoiserEval:
    """One denoiser evaluation: value, posterior weights, blurred log density.

    ``sq_in`` and ``sq_out`` are the per-component norms ||P_k x||^2 and
    ||x - P_k x||^2 of the same pass, so distances and the frontier gap at
    (x, sigma) need no second walk over the union.  For a (B, d) block every
    field has a leading axis of B rows.
    """

    value: np.ndarray
    weights: np.ndarray
    log_density: object  # float, or (B,) for a block
    sigma: object
    sq_in: np.ndarray
    sq_out: np.ndarray


def uniform_lrgmm(union: UnionOfSubspaces) -> LrGmmPrior:
    k = union.n_components
    return LrGmmPrior(union, np.full(k, -math.log(k)))


def lrgmm_from_pi(union: UnionOfSubspaces, pi) -> LrGmmPrior:
    return LrGmmPrior(union, log_mixture_weights(pi, union.n_components))


def random_lrgmm(d: int, r: int, k: int, rng: np.random.Generator, pi=None) -> LrGmmPrior:
    union = random_union(d, [r] * k, rng)
    return uniform_lrgmm(union) if pi is None else lrgmm_from_pi(union, pi)


def _posterior(prior: LrGmmPrior, sq_in: np.ndarray, sq_out: np.ndarray, t: np.ndarray):
    """Posterior weights and blurred log density from one pass's (B, K) norms.

    Takes the rows of ||P_k x||^2 and ||x - P_k x||^2 with one variance t per
    row and returns (w, log nu(x)), one row of weights and one log density per
    row.  Each log nu_k is evaluated as c_k + shift with
    shift = -min_j ||x - P_j x||^2 / (2t) - (d/2) log(2pi).  The split matters
    numerically: the residual-over-t term dwarfs the informative differences
    for small t, and carrying it inside every log nu_k would round those
    differences away.
    """
    d = prior.ambient_dim
    ranks = prior.union.ranks
    t = t[:, None]
    log_det = ranks * np.log1p(t) + (d - ranks) * np.log(t)
    sq_out_min = np.min(sq_out, axis=1, keepdims=True)
    c = (
        prior.log_pi
        - 0.5 * log_det
        - sq_in / (2.0 * (1.0 + t))
        - (sq_out - sq_out_min) / (2.0 * t)
    )
    shift = -sq_out_min / (2.0 * t) - 0.5 * d * LOG_2PI
    c_max = np.max(c, axis=1, keepdims=True)
    w = np.exp(c - c_max)
    total = np.sum(w, axis=1, keepdims=True)
    return w / total, (c_max + np.log(total) + shift)[:, 0]


def _evaluate(prior: LrGmmPrior, x: np.ndarray, t):
    """One component_parts pass and the posterior, with x as a (B, d) block."""
    projections, sq_in, sq_out = component_parts(prior.union, x)
    if sq_in.ndim == 1:
        projections, sq_in, sq_out = projections[None], sq_in[None], sq_out[None]
    t = np.broadcast_to(_check_positive(t, "blur variance t"), sq_in.shape[:1])
    w, log_density = _posterior(prior, sq_in, sq_out, t)
    return projections, sq_in, sq_out, t, w, log_density


def weights(prior: LrGmmPrior, x: np.ndarray, t) -> np.ndarray:
    """Posterior component weights w_k(x, t); stable down to t ~ 1e-10.

    ``x`` is a (d,) vector with a scalar t, or a (B, d) block with one t per
    row (or one t for all rows).
    """
    w = _evaluate(prior, x, t)[4]
    return w[0] if np.ndim(x) == 1 else w


def denoiser(prior: LrGmmPrior, x: np.ndarray, sigma) -> DenoiserEval:
    """Exact posterior mean E[x0 | x0 + sigma z = x] for the mixture prior.

    ``x`` is one (d,) vector with a scalar sigma, or a (B, d) block of rows
    with one sigma per row (or one sigma for all rows); every field of the
    result then gains a leading row axis.  One ``component_parts`` pass
    serves the whole block, and a row's result does not depend on the rows
    beside it: the posterior mean is one gemv of the row's weights against
    its projections.
    """
    sigma = _check_positive(sigma, "sigma")
    projections, sq_in, sq_out, t, w, log_density = _evaluate(prior, x, sigma * sigma)
    value = np.matmul(w[:, None, :], projections)[:, 0, :] / (1.0 + t)[:, None]
    if np.ndim(x) == 1:
        return DenoiserEval(value=value[0], weights=w[0], log_density=float(log_density[0]),
                            sigma=float(sigma), sq_in=sq_in[0], sq_out=sq_out[0])
    return DenoiserEval(value=value, weights=w, log_density=log_density,
                        sigma=np.broadcast_to(sigma, t.shape), sq_in=sq_in, sq_out=sq_out)


def score(prior: LrGmmPrior, x: np.ndarray, sigma) -> np.ndarray:
    """Gradient of the blurred log density, via Tweedie's identity."""
    ev = denoiser(prior, x, sigma)
    return (ev.value - x) / (ev.sigma * ev.sigma)


def limiting_projection(prior: LrGmmPrior, x: np.ndarray, tie_tol: float = DEFAULT_TIE_TOL) -> np.ndarray:
    """Small-noise limit of the denoiser.

    Off the tie frontier this is the nearest-component projection.  On the
    frontier of an equal-rank union the weights converge to the renormalised
    mixture weights of the tied components, so the limit is their
    pi-weighted average of projections.  Frontier ties between components of
    different rank have no single limit and are rejected.
    """
    x = _check_vector(x, prior.ambient_dim)
    point, argmin_set = project_union(prior.union, x, tie_tol=tie_tol)
    if len(argmin_set) == 1:
        return point
    if len(set(prior.union.ranks[argmin_set])) != 1:
        raise UnsupportedCaseError(
            "limiting projection is multi-valued for a rank-mixed tie "
            f"(components {argmin_set})"
        )
    pi = np.exp(prior.log_pi[argmin_set])
    pi = pi / pi.sum()
    return pi @ component_parts(prior.union, x)[0][argmin_set]


def sample(prior: LrGmmPrior, rng: np.random.Generator) -> np.ndarray:
    """Draw x = U_k g with k ~ pi and g standard normal on the component."""
    k = categorical(rng, prior.pi)
    g = normal_stream(rng, prior.union.ranks[k])
    return prior.union.basis(k) @ g


def sparse_gmm(d: int, s: int, pi=None, component_cap: int = SPARSE_COMPONENT_CAP) -> LrGmmPrior:
    """Uniform mixture over all s-sparse coordinate subspaces of R^d.

    Components are ordered by lexicographic support.  The construction is
    refused when the component count C(d, s) exceeds ``component_cap``.
    """
    if not 1 <= s <= d:
        raise ValueError(f"need 1 <= s <= d, got s={s}, d={d}")
    n_components = math.comb(d, s)
    if n_components > component_cap:
        raise ResourceLimitError(
            f"C({d},{s}) = {n_components} components exceeds the cap of {component_cap}"
        )
    subspaces = tuple(
        coordinate_subspace(d, support) for support in combinations(range(d), s)
    )
    union = UnionOfSubspaces(subspaces)
    return uniform_lrgmm(union) if pi is None else lrgmm_from_pi(union, pi)
