"""Measurement operators and the constants controlling recovery.

A run's measurements y = A x_true are ``recovery_engine``'s, not this module's.

Two numbers govern the projected-gradient iteration for a union of
subspaces: the restricted isometry constant of mu A^T A over secant
directions, and the restricted Lipschitz constant of the projection.  The
first is computed exactly here (secants of a union live in pairwise sums of
components, so a maximum over pairs suffices); the second can only be
estimated from below by sampling.
"""

import math
from itertools import combinations_with_replacement

import numpy as np

from .errors import NumericFailureError
from .model_sets import UnionOfSubspaces
from .randomness import normal_matrix, normal_stream
from .recovery_engine import _matvec, _one_blas_thread

POWER_ITERATION_TOL = 1e-10
POWER_ITERATION_MAX_ITER = 10_000

RANK_CUTOFF = 1e-10


def gaussian_operator(m: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """m x d matrix of iid N(0,1) entries, filled row-major from the stream."""
    if m < 1 or d < 1:
        raise ValueError(f"need m, d >= 1, got {m}, {d}")
    return normal_matrix(rng, m, d)


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value via power iteration on A^T A.

    The start vector is the normalised all-ones vector so runs are
    deterministic; if that vector happens to be annihilated, a fixed ramp
    vector is substituted.  Raises NumericFailureError when the estimate has
    not stabilised to relative tolerance POWER_ITERATION_TOL within
    POWER_ITERATION_MAX_ITER sweeps.
    The products go through ``_matvec``.  They, ``v @ w`` and the norms
    change with the BLAS thread count on long vectors, so the iteration runs
    at one OpenBLAS thread, whatever the caller's count.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("a must be a matrix")
    if not np.any(a):
        raise ValueError("a must be nonzero")
    d = a.shape[1]
    v = np.full(d, 1.0 / math.sqrt(d))
    estimate = 0.0
    gap = np.inf
    with _one_blas_thread():
        for _ in range(POWER_ITERATION_MAX_ITER):
            w = _matvec(a.T, _matvec(a, v))
            norm_w = np.linalg.norm(w)
            if norm_w == 0.0:
                # All-ones start sat in the null space; restart deterministically.
                v = np.arange(1.0, d + 1.0)
                v /= np.linalg.norm(v)
                continue
            new_estimate = math.sqrt(float(v @ w))
            gap = abs(new_estimate - estimate)
            estimate = new_estimate
            v = w / norm_w
            if gap <= POWER_ITERATION_TOL * max(estimate, 1e-300):
                return estimate
    raise NumericFailureError(
        f"power iteration did not reach tol={POWER_ITERATION_TOL} in "
        f"{POWER_ITERATION_MAX_ITER} iterations "
        f"(last gap {gap:.3e})",
        last_gap=gap,
    )


def _pair_basis(union: UnionOfSubspaces, k: int, ell: int) -> np.ndarray:
    # Orthonormal basis of E_k + E_ell via SVD with a fixed rank cutoff.
    if k == ell:
        return union.basis(k)
    stacked = np.hstack([union.basis(k), union.basis(ell)])
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    rank = int(np.sum(s > RANK_CUTOFF))
    return u[:, :rank]


def ric_union(a: np.ndarray, mu: float, union: UnionOfSubspaces) -> float:
    """Restricted isometry constant of mu A^T A over secants of the union.

    Every difference of two union points lies in some E_k + E_ell, so the
    smallest delta with ||(mu A^T A - I) v|| <= delta ||v|| on all secants is
    the max over component pairs of the spectral norm of (mu A^T A - I)
    restricted to the pair's sum, measured in the full ambient norm.
    """
    a = np.asarray(a, dtype=float)
    d = union.ambient_dim
    if a.ndim != 2 or a.shape[1] != d:
        raise ValueError(f"operator must have {d} columns, got shape {a.shape}")
    mu = float(mu)
    b_minus_i = mu * (a.T @ a) - np.eye(d)
    delta = 0.0
    for k, ell in combinations_with_replacement(range(union.n_components), 2):
        q = _pair_basis(union, k, ell)
        delta = max(delta, float(np.linalg.norm(b_minus_i @ q, 2)))
    return delta


def _component_sample_rows(union: UnionOfSubspaces, component_of_row: np.ndarray,
                           rng: np.random.Generator) -> np.ndarray:
    # One prior-style draw U_k g per row, with k given per row.
    n = component_of_row.shape[0]
    out = np.zeros((n, union.ambient_dim))
    for k, rank in enumerate(union.ranks):
        rows = np.flatnonzero(component_of_row == k)
        if rows.size:
            coeffs = normal_stream(rng, rows.size * rank)
            out[rows] = coeffs.reshape(rows.size, rank) @ union.basis(k).T
    return out


def _projection_coeffs(union: UnionOfSubspaces, points: np.ndarray) -> np.ndarray:
    # (n, K, r_max) coefficients B_k^T z for a batch of rows z, in one matmul
    # against the stacked bases.
    k, _, r = union.bases.shape
    return (points @ union.columns).reshape(points.shape[0], k, r)


def _project_rows(union: UnionOfSubspaces, coeffs: np.ndarray,
                  component_of_row: np.ndarray) -> np.ndarray:
    # P_k z for each row z, from its (n, K, r_max) coefficients, with k
    # given per row.
    rows = np.arange(coeffs.shape[0])
    return np.einsum("ndr,nr->nd", union.bases[component_of_row],
                     coeffs[rows, component_of_row])


def _frontier_points(union: UnionOfSubspaces, ks: np.ndarray, ells: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    # For each row, walk the segment between a point of E_k and a point of
    # E_ell until the two squared projections balance; the result sits on
    # the pair's tie surface (the imbalance is >= 0 at s=0 and <= 0 at s=1);
    # 60 halvings narrow s to 2^-60, below a double's resolution at 1.
    x0 = _component_sample_rows(union, ks, rng)
    x1 = _component_sample_rows(union, ells, rng)
    n = ks.shape[0]
    rows = np.arange(n)

    def imbalance(points):
        sq = np.sum(_projection_coeffs(union, points) ** 2, axis=2)
        return sq[rows, ks] - sq[rows, ells]

    lo = np.zeros(n)
    hi = np.ones(n)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        positive = imbalance((1.0 - mid[:, None]) * x0 + mid[:, None] * x1) >= 0.0
        lo = np.where(positive, mid, lo)
        hi = np.where(positive, hi, mid)
    mid = 0.5 * (lo + hi)
    return (1.0 - mid[:, None]) * x0 + mid[:, None] * x1


def restricted_lipschitz_estimate(union: UnionOfSubspaces, n_samples: int,
                                  rng: np.random.Generator) -> float:
    """Sampled lower bound on the restricted Lipschitz constant of P_Sigma.

    For each probe z the ratio ||P(z) - x|| / ||z - x|| is maximised over
    several anchors x in the union: a random prior-style sample, the
    runner-up component's projection of z (which drives the ratio towards 2
    near tie frontiers), and a far point inside the winning component (which
    drives it to 1 from below).  Half the probes are isotropic Gaussians;
    the other half sit near a tie frontier: a frontier point plus Gaussian
    jitter of scale 0.1.
    """
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    d = union.ambient_dim
    n_comp = union.n_components

    n_frontier = n_samples // 2 if n_comp >= 2 else 0
    n_iso = n_samples - n_frontier
    probes = [normal_matrix(rng, n_iso, d)]
    if n_frontier:
        ks = rng.integers(n_comp, size=n_frontier)
        ells = rng.integers(n_comp - 1, size=n_frontier)
        ells = ells + (ells >= ks)
        frontier = _frontier_points(union, ks, ells, rng)
        probes.append(frontier + 0.1 * normal_matrix(rng, n_frontier, d))
    z = np.vstack(probes)

    coeffs = _projection_coeffs(union, z)
    order = np.argsort(-np.sum(coeffs ** 2, axis=2), axis=1, kind="stable")
    winner = order[:, 0]
    proj = _project_rows(union, coeffs, winner)

    def ratios(anchors, keep=None):
        denom = np.linalg.norm(z - anchors, axis=1)
        numer = np.linalg.norm(proj - anchors, axis=1)
        ok = denom >= 1e-9
        if keep is not None:
            ok &= keep
        return float(np.max(numer[ok] / denom[ok])) if np.any(ok) else 0.0

    best = ratios(_component_sample_rows(union, rng.integers(n_comp, size=n_samples), rng))

    if n_comp >= 2:
        best = max(best, ratios(_project_rows(union, coeffs, order[:, 1])))

    out_of_set = np.linalg.norm(z - proj, axis=1)
    on_set = out_of_set < 1e-12
    if np.any(on_set):
        best = max(best, 1.0)
    directions = _component_sample_rows(union, winner, rng)
    dir_norms = np.linalg.norm(directions, axis=1)
    usable = (~on_set) & (dir_norms > 0.0)
    scale = np.zeros_like(dir_norms)
    scale[usable] = 1e6 * out_of_set[usable] / dir_norms[usable]
    best = max(best, ratios(proj + scale[:, None] * directions, keep=usable))
    return best
