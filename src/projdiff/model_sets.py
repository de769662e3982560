"""Low-dimensional model sets: unions of subspaces.

A union of subspaces is built from its orthonormal bases, given as arrays,
and is nothing more than them: a zero-padded (K, d, r_max) stack plus the
ranks, kept once more as the (d, K r_max) matrix of their columns side by
side.  Every component is validated in one stacked pass when the union is
built, and per-component quantities are one stacked pass too; zero columns
add nothing to a projection.  No d-by-d matrix is ever formed.
"""

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .randomness import normal_matrix

ORTHONORMALITY_TOL = 1e-10

# Absolute tolerance on squared projection norms when deciding whether a
# point is equidistant from several subspaces.
DEFAULT_TIE_TOL = 1e-9


_Component = namedtuple("_Component", "ambient_dim rank")


def _check_each(failed, problem):
    """Raise ValueError for the first component k where ``failed`` holds, with ``problem(k)``."""
    hits = np.flatnonzero(failed)
    if hits.size:
        k = int(hits[0])
        raise ValueError(f"component {k}: {problem(k)}")


def _stack_bases(bases):
    """The zero-padded (K, d, r_max) stack and the ranks of a sequence of (d, r_k) bases.

    A (K, d, r) array is such a sequence.  Each check covers every component
    at once and names the first that is not a finite orthonormal basis of
    rank 1 ... d in a common R^d.
    """
    bases = [np.asarray(basis, dtype=float) for basis in bases]
    if not bases:
        raise ValueError("a union needs at least one subspace")
    _check_each([basis.ndim != 2 for basis in bases],
                lambda k: f"basis must be 2-d, got shape {bases[k].shape}")
    dims, ranks = np.array([basis.shape for basis in bases]).T.copy()
    _check_each((ranks < 1) | (ranks > dims),
                lambda k: f"need 1 <= rank <= ambient dim, got shape {bases[k].shape}")
    _check_each(dims != dims[0], lambda k: f"mixed ambient dimensions: {sorted(set(dims.tolist()))}")
    stack = np.zeros((len(bases), dims[0], ranks.max()))
    for k, basis in enumerate(bases):
        stack[k, :, : ranks[k]] = basis
    _check_each(~np.isfinite(stack).all(axis=(1, 2)), lambda k: "basis entries must be finite")
    # Padding columns are zero, so masking the identity to each component's
    # rank leaves the padded Gram entries out of the defect.
    r_max = stack.shape[2]
    gram_defect = np.matmul(stack.transpose(0, 2, 1), stack)
    gram_defect -= np.eye(r_max) * (np.arange(r_max) < ranks[:, None])[:, None, :]
    worst = np.max(np.abs(gram_defect), axis=(1, 2))
    _check_each(worst > ORTHONORMALITY_TOL,
                lambda k: f"basis columns not orthonormal: max |B^T B - I| = {worst[k]:.3e}")
    return stack, ranks


@dataclass(frozen=True, eq=False, init=False)
class UnionOfSubspaces:
    """A finite union of subspaces, built from a sequence of (d, r_k) bases.

    ``bases`` stacks the components zero-padded to r_max: component k's
    basis is its first ``ranks[k]`` columns (``basis(k)``).  ``columns``
    holds the same numbers as one (d, K r_max) matrix, the columns of
    component k in positions k r_max ... (k + 1) r_max - 1.
    """

    bases: np.ndarray = field(repr=False)
    ranks: np.ndarray
    columns: np.ndarray = field(repr=False)

    def __init__(self, bases):
        bases, ranks = _stack_bases(bases)
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
        """Each component's (ambient_dim, rank), read from the stack.

        Only ``bench/probe.py`` still reads this; it is deleted when the
        benchmark counts flops from ``ranks`` (ROADMAP item 1).  Code in the
        package uses ``basis(k)`` and ``ranks``.
        """
        return tuple(_Component(self.ambient_dim, int(r)) for r in self.ranks)


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


def random_subspace(d: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """(d, r) orthonormal basis of a Haar-ish random subspace, via QR of a Gaussian."""
    if not 1 <= r <= d:
        raise ValueError(f"need 1 <= r <= d, got r={r}, d={d}")
    g = normal_matrix(rng, d, r)
    q, rr = np.linalg.qr(g)
    # Fix signs so the basis is a deterministic function of g.
    signs = np.sign(np.diag(rr))
    signs[signs == 0] = 1.0
    return q * signs


def random_union(d: int, ranks, rng: np.random.Generator) -> UnionOfSubspaces:
    """Union of independent random subspaces with the given ranks."""
    return UnionOfSubspaces([random_subspace(d, r, rng) for r in ranks])


def coordinate_subspace(d: int, support) -> np.ndarray:
    """(d, len(support)) basis of the standard basis vectors in ``support``, in order."""
    support = list(support)
    basis = np.zeros((d, len(support)))
    basis[support, np.arange(len(support))] = 1.0
    return basis
