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

The denoiser-vs-projection gap admits a computable envelope away from tie
frontiers (``projection_gap``): with t = sigma^2 and eta the
squared-projection margin of the winning component, the relative gap is at
most

    2 * sum_{l != k} (pi_l / pi_k) * exp(-eta / (2 t (1 + t))) + t.

The envelope is meaningful for equal-rank unions (rank-mixed unions add
rank-dependent prefactors it does not track).
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import FrontierError, ResourceLimitError
from .model_sets import (
    UnionOfSubspaces,
    component_parts,
    gap_from_norms,
    random_union,
    _check_positive,
    _check_vector,
)
from .randomness import categorical, normal_stream

LOG_2PI = math.log(2.0 * math.pi)

SPARSE_COMPONENT_CAP = 200_000


def log_mixture_weights(pi, n_components: int) -> np.ndarray:
    """Read-only log(pi), uniform when ``pi`` is None: the one weight rule.

    Explicit weights must be one positive weight per component, summing to 1.
    """
    if pi is None:
        log_pi = np.full(n_components, -math.log(n_components))
    else:
        pi = np.asarray(pi, dtype=float)
        if pi.shape != (n_components,):
            raise ValueError(f"need {n_components} mixture weights, one per component, "
                             f"got {pi.size}")
        if not np.all(pi > 0.0):
            raise ValueError("mixture weights must be positive")
        log_pi = np.log(pi)
        total = float(np.sum(np.exp(log_pi)))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1, got {total!r}")
    log_pi.flags.writeable = False
    return log_pi


@dataclass(frozen=True, eq=False, init=False)
class LrGmmPrior:
    """Mixture of unit Gaussians supported on the components of a union.

    ``LrGmmPrior(union, pi)`` takes one weight per component, or uniform
    weights when ``pi`` is None.  As a recovery model its step is
    ``denoiser``, and the same pass gives a trace row's frontier gap, weight
    entropy, nearest component and the distances to it and to the runner-up.
    """

    active_mask = None  # a projection may move every coordinate

    union: UnionOfSubspaces
    log_pi: np.ndarray

    def __init__(self, union: UnionOfSubspaces, pi=None):
        object.__setattr__(self, "union", union)
        object.__setattr__(self, "log_pi", log_mixture_weights(pi, union.n_components))

    @property
    def ambient_dim(self) -> int:
        return self.union.ambient_dim

    @property
    def n_components(self) -> int:
        return self.union.n_components

    @property
    def pi(self) -> np.ndarray:
        return np.exp(self.log_pi)

    def step(self, x: np.ndarray, sigma):
        ev = denoiser(self, x, sigma)
        return ev.value, (gap_from_norms(ev.sq_in), _entropy(ev.weights),
                          *_nearest(np.sqrt(ev.sq_out)))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw x = U_k g with k ~ pi and g standard normal on the component."""
        k = categorical(rng, self.pi)
        return self.union.basis(k) @ normal_stream(rng, self.union.ranks[k])

    def true_component(self, x: np.ndarray) -> int:
        """The component nearest x, the lowest index among ties."""
        return int(np.argmax(component_parts(self.union, x)[1]))


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
    sq_in: np.ndarray
    sq_out: np.ndarray


def random_lrgmm(d: int, r: int, k: int, rng: np.random.Generator, pi=None) -> LrGmmPrior:
    return LrGmmPrior(random_union(d, [r] * k, rng), pi)


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


def _nearest(dist: np.ndarray):
    """Each row's argmin in a (B, K) block of distances, the lowest index among
    ties, and the (B, 2) pair of distances to it and to the nearest other one
    (+inf for K = 1): k strictly minimises a row iff it is nearest and pair[0] < pair[1]."""
    nearest = np.argmin(dist, axis=1)
    pair = np.full((len(dist), 2), np.inf)
    pair[:, 0] = dist[np.arange(len(dist)), nearest]
    if dist.shape[1] > 1:
        pair[:, 1] = np.partition(dist, 1, axis=1)[:, 1]
    return nearest, pair


def _entropy(w: np.ndarray) -> np.ndarray:
    """-sum w log w over the positive weights of each row of a (B, K) block.

    Rows are grouped by their number of positive weights, so each row sums
    exactly its positive entries, in order, along a contiguous axis: the
    result is the one a single (K,) row gives, whatever B is.
    """
    positive = w > 0.0
    counts = positive.sum(axis=1)
    out = np.empty(w.shape[0])
    for count in set(counts.tolist()):
        rows = counts == count
        kept = w[rows][positive[rows]].reshape(np.count_nonzero(rows), count)
        out[rows] = -np.sum(kept * np.log(kept), axis=1)
    return out


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
                            sq_in=sq_in[0], sq_out=sq_out[0])
    return DenoiserEval(value=value, weights=w, log_density=log_density,
                        sq_in=sq_in, sq_out=sq_out)


@dataclass(frozen=True)
class ProjectionGap:
    """Measured relative denoiser-vs-projection gap and its envelope."""

    gap: float
    bound: float
    eta: float


def projection_gap(prior: LrGmmPrior, x: np.ndarray, sigma) -> ProjectionGap:
    """Relative gap ||D(x) - P(x)|| / ||x|| against its off-frontier envelope."""
    x = _check_vector(x, prior.ambient_dim)
    norm_x = float(np.linalg.norm(x))
    if norm_x == 0.0:
        raise ValueError("the gap envelope is undefined at x = 0")
    projections, norms2, _ = component_parts(prior.union, x)
    eta = gap_from_norms(norms2)
    if eta <= 0.0:
        raise FrontierError(f"x lies on a tie frontier (margin {eta!r})")
    k_star = int(np.argmax(norms2))
    ev = denoiser(prior, x, sigma)
    gap = float(np.linalg.norm(ev.value - projections[k_star])) / norm_x
    t = float(sigma) ** 2
    pi = prior.pi
    others = np.delete(pi, k_star)
    decay = math.exp(-eta / (2.0 * t * (1.0 + t))) if math.isfinite(eta) else 0.0
    bound = 2.0 * float(np.sum(others)) / float(pi[k_star]) * decay + t
    return ProjectionGap(gap=gap, bound=bound, eta=eta)


def score(prior: LrGmmPrior, x: np.ndarray, sigma) -> np.ndarray:
    """Gradient of the blurred log density, via Tweedie's identity.

    Takes ``x`` and ``sigma`` as ``denoiser`` does; each row is divided by
    its own sigma^2.
    """
    value = denoiser(prior, x, sigma).value
    return (value - x) / np.expand_dims(np.square(sigma), -1)


sample = LrGmmPrior.sample  # sample(prior, rng)


def sparse_component_count(d: int, s: int) -> int:
    """C(d, s) for 0 <= s <= d, the number of s-sparse coordinate subspaces of R^d.

    The count is built term by term, C(d, j + 1) = C(d, j) (d - j) / (j + 1),
    and grows with j up to min(s, d - s), so ResourceLimitError is raised as
    soon as it passes ``SPARSE_COMPONENT_CAP``, before the full count is known.
    """
    count = 1
    for j in range(min(s, d - s)):
        count = count * (d - j) // (j + 1)
        if count > SPARSE_COMPONENT_CAP:
            raise ResourceLimitError(
                f"C({d},{s}) components exceed the cap of {SPARSE_COMPONENT_CAP}"
            )
    return count


def sparse_gmm(d: int, s: int, pi=None) -> LrGmmPrior:
    """Mixture over all s-sparse coordinate subspaces of R^d, uniform unless ``pi`` is given.

    Components are ordered by lexicographic support.  The construction is
    refused when the component count C(d, s) exceeds ``SPARSE_COMPONENT_CAP``.
    """
    if not 1 <= s <= d:
        raise ValueError(f"need 1 <= s <= d, got s={s}, d={d}")
    n_components = sparse_component_count(d, s)
    supports = np.array(list(combinations(range(d), s)))
    bases = np.zeros((n_components, d, s))
    bases[np.arange(n_components)[:, None], supports, np.arange(s)] = 1.0
    return LrGmmPrior(UnionOfSubspaces(bases), pi)
