"""Low-dimensional model sets: unions of subspaces and centered boxes.

A union of subspaces is a zero-padded (K, d, r_max) stack of orthonormal
bases plus their ranks, kept once more as the (d, K r_max) matrix of their
columns side by side, so per-component quantities are one stacked pass; zero
columns add nothing to a projection.  ``Subspace`` is only the validated
input a union is built from; the union's ``subspaces`` property is a view
rebuilt from the stack for readers outside the package.  No d-by-d matrix is
ever formed.
"""

from dataclasses import dataclass, field

import numpy as np

from .randomness import normal_matrix

ORTHONORMALITY_TOL = 1e-10

# Absolute tolerance on squared projection norms when deciding whether a
# point is equidistant from several subspaces.
DEFAULT_TIE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace of R^d given by an orthonormal basis (d x r)."""

    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 2:
            raise ValueError(f"basis must be 2-d, got shape {basis.shape}")
        d, r = basis.shape
        if not 1 <= r <= d:
            raise ValueError(f"need 1 <= rank <= ambient dim, got shape {basis.shape}")
        if not np.all(np.isfinite(basis)):
            raise ValueError("basis entries must be finite")
        gram_defect = basis.T @ basis - np.eye(r)
        worst = np.max(np.abs(gram_defect))
        if worst > ORTHONORMALITY_TOL:
            raise ValueError(
                f"basis columns not orthonormal: max |B^T B - I| = {worst:.3e}"
            )
        basis = basis.copy()
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True, eq=False, init=False)
class UnionOfSubspaces:
    """A finite union of subspaces, built from a sequence of ``Subspace``.

    ``bases`` stacks the components zero-padded to r_max: component k's
    basis is its first ``ranks[k]`` columns (``basis(k)``).  ``columns``
    holds the same numbers as one (d, K r_max) matrix, the columns of
    component k in positions k r_max ... (k + 1) r_max - 1.
    """

    bases: np.ndarray = field(repr=False)
    ranks: np.ndarray
    columns: np.ndarray = field(repr=False)

    def __init__(self, subspaces):
        subspaces = tuple(subspaces)
        if len(subspaces) < 1:
            raise ValueError("a union needs at least one subspace")
        dims = {s.ambient_dim for s in subspaces}
        if len(dims) != 1:
            raise ValueError(f"mixed ambient dimensions: {sorted(dims)}")
        ranks = np.array([s.rank for s in subspaces])
        bases = np.zeros((len(subspaces), dims.pop(), int(ranks.max())))
        for k, subspace in enumerate(subspaces):
            bases[k, :, : subspace.rank] = subspace.basis
        k, d, r_max = bases.shape
        columns = bases.transpose(1, 0, 2).reshape(d, k * r_max)
        for array in (bases, columns, ranks):
            array.flags.writeable = False
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "ranks", ranks)

    @property
    def ambient_dim(self) -> int:
        return self.bases.shape[1]

    @property
    def n_components(self) -> int:
        return self.bases.shape[0]

    def basis(self, k: int) -> np.ndarray:
        """Component k's (d, r_k) orthonormal basis, a read-only view of ``bases``."""
        return self.bases[k, :, : self.ranks[k]]

    @property
    def subspaces(self) -> tuple:
        """The components as ``Subspace`` objects, rebuilt from the stack on each call."""
        return tuple(Subspace(self.basis(k)) for k in range(self.n_components))


@dataclass(frozen=True, eq=False)
class BoxSet:
    """An axis-aligned box containing the origin.

    Coordinates with lower == upper are inactive and pinned to zero; active
    coordinates must satisfy lower <= 0 <= upper with lower < upper, and
    upper - lower must be finite.
    """

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
        lower = lower.copy()
        upper = upper.copy()
        lower.flags.writeable = False
        upper.flags.writeable = False
        active.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "active_mask", active)

    @property
    def ambient_dim(self) -> int:
        return self.lower.shape[0]

    @property
    def intrinsic_dim(self) -> int:
        return int(np.count_nonzero(self.active_mask))

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))


def _check_vector(x, d, name="x"):
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise ValueError(f"{name} must have shape ({d},), got {x.shape}")
    return x


def _check_positive(values, name):
    """``values`` as a float array whose entries are all positive and finite."""
    values = np.asarray(values, dtype=float)
    if not np.all((values > 0.0) & np.isfinite(values)):
        raise ValueError(f"{name} must be positive and finite, got {values}")
    return values


def _check_block(x, d, name="x"):
    """x as a (B, d) block of row vectors, and whether it was a single (d,) vector."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return _check_vector(x, d, name)[None, :], True
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"{name} must have shape ({d},) or (B, {d}), got {x.shape}")
    return x, False


def component_parts(union: UnionOfSubspaces, x: np.ndarray):
    """(P_k x, ||P_k x||^2, ||x - P_k x||^2) for every component, in one pass.

    ``x`` is one (d,) vector, giving shapes (K, d), (K,) and (K,), or a
    (B, d) block of rows, giving (B, K, d), (B, K) and (B, K).  A row's
    results do not depend on the rows beside it: the coefficients are one
    BLAS gemv per row against the (d, K r_max) stack of basis columns, each
    projection one gemv per row and component, and the squared norms sum
    along the row's own contiguous axis.  No gemm ever sees the block.
    """
    block, single = _check_block(x, union.ambient_dim)
    k, _, r_max = union.bases.shape
    coeffs = np.matmul(block[:, None, :], union.columns)[:, 0, :].reshape(-1, k, r_max)
    projections = np.matmul(union.bases, coeffs[..., None])[..., 0]
    squares = block[:, None, :] - projections
    squares *= squares  # in place: one (B, K, d) temporary fewer
    sq_in = np.sum(coeffs * coeffs, axis=-1)
    sq_out = np.sum(squares, axis=-1)
    if single:
        return projections[0], sq_in[0], sq_out[0]
    return projections, sq_in, sq_out


def squared_projection_norms(union: UnionOfSubspaces, x: np.ndarray) -> np.ndarray:
    """Vector of ||P_k x||^2 over components k."""
    return component_parts(union, x)[1]


def project_union(union: UnionOfSubspaces, x: np.ndarray, tie_tol: float = DEFAULT_TIE_TOL):
    """Nearest-point projection onto a union of subspaces.

    Returns ``(point, argmin_set)``.  The distance minimisers are the
    components maximising ||P_k x||^2; every component within ``tie_tol``
    (absolute, on the squared norms) of the maximum is reported, and the
    returned point uses the lowest-index member so selection stays auditable.
    """
    projections, norms2, _ = component_parts(union, _check_vector(x, union.ambient_dim))
    best = float(np.max(norms2))
    argmin_set = [int(k) for k in np.flatnonzero(norms2 >= best - tie_tol)]
    return projections[argmin_set[0]], argmin_set


def frontier_gap(union: UnionOfSubspaces, x: np.ndarray) -> float:
    """Margin by which the best component beats the runner-up.

    Defined as min over losers of ||P_best x||^2 - ||P_loser x||^2; zero on
    the tie frontier and +inf for single-component unions.
    """
    return gap_from_norms(squared_projection_norms(union, x))


def gap_from_norms(norms2: np.ndarray):
    """frontier_gap from ||P_k x||^2 along the last axis; +inf for one component.

    Takes a (K,) vector and returns a float, or a (B, K) block and returns
    one gap per row.
    """
    norms2 = np.asarray(norms2)
    if norms2.shape[-1] == 1:
        gap = np.full(norms2.shape[:-1], np.inf)
    else:
        top2 = np.partition(norms2, -2, axis=-1)[..., -2:]
        gap = top2[..., 1] - top2[..., 0]
    return float(gap) if norms2.ndim == 1 else gap


def hard_threshold(x: np.ndarray, s: int) -> np.ndarray:
    """Keep the s entries of largest magnitude, zeroing the rest.

    Magnitude ties are broken by keeping the lower index.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("x must be 1-d")
    if not 0 <= s <= x.shape[0]:
        raise ValueError(f"need 0 <= s <= {x.shape[0]}, got {s}")
    # Stable sort on descending magnitude leaves equal magnitudes in index order.
    order = np.argsort(-np.abs(x), kind="stable")
    out = np.zeros_like(x)
    keep = order[:s]
    out[keep] = x[keep]
    return out


def project_box(box: BoxSet, x: np.ndarray) -> np.ndarray:
    """Clamp x to the box; inactive coordinates go to zero."""
    x = _check_vector(x, box.ambient_dim)
    out = np.clip(x, box.lower, box.upper)
    out[~box.active_mask] = 0.0
    return out


def random_subspace(d: int, r: int, rng: np.random.Generator) -> Subspace:
    """Haar-ish random r-dimensional subspace of R^d via QR of a Gaussian."""
    if not 1 <= r <= d:
        raise ValueError(f"need 1 <= r <= d, got r={r}, d={d}")
    g = normal_matrix(rng, d, r)
    q, rr = np.linalg.qr(g)
    # Fix signs so the basis is a deterministic function of g.
    signs = np.sign(np.diag(rr))
    signs[signs == 0] = 1.0
    return Subspace(q * signs)


def random_union(d: int, ranks, rng: np.random.Generator) -> UnionOfSubspaces:
    """Union of independent random subspaces with the given ranks."""
    return UnionOfSubspaces(tuple(random_subspace(d, r, rng) for r in ranks))


def coordinate_subspace(d: int, support) -> Subspace:
    """Subspace spanned by the standard basis vectors in ``support``."""
    support = list(support)
    basis = np.zeros((d, len(support)))
    for j, i in enumerate(support):
        basis[i, j] = 1.0
    return Subspace(basis)
