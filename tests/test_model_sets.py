import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projdiff as pd
from conftest import log_component_density
from projdiff.convex_prior import BoxSet
from projdiff.model_sets import DEFAULT_TIE_TOL, UnionOfSubspaces, component_parts


def axes_union():
    return UnionOfSubspaces([pd.coordinate_subspace(2, [0]), pd.coordinate_subspace(2, [1])])


def project(basis, x):
    """P x through the stacked pass of a one-component union."""
    return component_parts(UnionOfSubspaces([basis]), x)[0][0]


# -------------------------------------------------------- union validation


E1 = np.eye(3)[:, :1]


@pytest.mark.parametrize("bases, message", [
    ([E1, np.ones(3)], r"component 1: basis must be 2-d, got shape \(3,\)"),
    ([E1, E1, np.zeros((2, 3))], r"component 2: need 1 <= rank <= ambient dim, got shape \(2, 3\)"),
    ([E1, np.empty((3, 0))], r"component 1: need 1 <= rank <= ambient dim, got shape \(3, 0\)"),
    ([E1, np.array([[1.0], [np.nan], [0.0]])], "component 1: basis entries must be finite"),
    ([np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])],
     r"component 1: basis columns not orthonormal: max \|B\^T B - I\| = 1\.000e\+00"),
    ([E1, np.eye(2)[:, :1]], r"component 1: mixed ambient dimensions: \[2, 3\]"),
    (np.stack([E1, E1, 2.0 * E1]),
     r"component 2: basis columns not orthonormal: max \|B\^T B - I\| = 3\.000e\+00"),
    (np.empty((2, 3, 0)), r"component 0: need 1 <= rank <= ambient dim, got shape \(3, 0\)"),
])
def test_union_names_the_component_it_rejects(bases, message):
    with pytest.raises(ValueError, match=message):
        UnionOfSubspaces(bases)


def test_union_validation():
    for empty in ((), np.empty((0, 3, 1))):
        with pytest.raises(ValueError, match="a union needs at least one subspace"):
            UnionOfSubspaces(empty)


def test_union_keeps_a_read_only_copy_of_its_bases():
    basis = pd.coordinate_subspace(3, [1])
    u = UnionOfSubspaces([basis])
    basis[0, 0] = 5.0
    assert np.array_equal(u.basis(0), pd.coordinate_subspace(3, [1]))
    with pytest.raises(ValueError):
        u.basis(0)[0, 0] = 5.0


def test_union_stores_only_the_padded_stack():
    given_bases = [pd.random_subspace(6, r, np.random.default_rng(r)) for r in (2, 3, 1)]
    u = UnionOfSubspaces(given_bases)
    assert sorted(vars(u)) == ["bases", "columns", "ranks"]
    assert (u.ambient_dim, u.n_components, u.bases.shape) == (6, 3, (3, 6, 3))
    assert list(u.ranks) == [2, 3, 1]
    for k, basis in enumerate(given_bases):
        assert np.array_equal(u.basis(k), basis)
        assert not u.basis(k).flags.writeable
        assert not np.any(u.bases[k, :, basis.shape[1]:])
        assert np.array_equal(u.columns[:, 3 * k: 3 * k + 3], u.bases[k])


def test_model_objects_compare_by_identity():
    def build():
        union = pd.random_union(6, [2, 3], np.random.default_rng(4))
        return (union, pd.LrGmmPrior(union),
                BoxSet([-1.0, 0.0], [1.0, 0.0]))

    for a, b in zip(build(), build()):
        assert a == a
        assert a != b
        assert len({a, b}) == 2


# ------------------------------------------- projection onto one subspace


def test_project_onto_first_axis():
    e1 = pd.coordinate_subspace(2, [0])
    assert np.array_equal(project(e1, np.array([3.0, 4.0])), [3.0, 0.0])


def test_project_rank_one_diagonal():
    diag = np.array([[1.0], [1.0]]) / math.sqrt(2.0)
    out = project(diag, np.array([1.0, 0.0]))
    assert out == pytest.approx([0.5, 0.5], abs=1e-15)


def test_project_is_idempotent_on_members():
    s = pd.random_subspace(6, 2, np.random.default_rng(3))
    x = s @ np.array([1.3, -0.7])
    assert project(s, x) == pytest.approx(x, abs=1e-12)


def test_project_dimension_mismatch():
    s = pd.coordinate_subspace(3, [0])
    with pytest.raises(ValueError, match="shape"):
        project(s, np.zeros(4))


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**10),
    coeffs=st.lists(st.floats(-50, 50), min_size=5, max_size=5),
    scale=st.floats(0.1, 10),
)
def test_projection_is_linear_selfadjoint_nonexpansive(seed, coeffs, scale):
    rng = np.random.default_rng(seed)
    s = pd.random_subspace(5, 2, rng)
    x = np.array(coeffs)
    y = rng.normal(size=5)
    px = project(s, x)
    py = project(s, y)
    # linearity
    assert project(s, scale * x + y) == pytest.approx(
        scale * px + py, abs=1e-9
    )
    # idempotence
    assert project(s, px) == pytest.approx(px, abs=1e-10)
    # self-adjointness
    assert float(px @ y) == pytest.approx(float(x @ py), abs=1e-8)
    # non-expansiveness
    assert np.linalg.norm(px) <= np.linalg.norm(x) * (1 + 1e-12)


# ---------------------------------------------------------- project_union


def test_union_projection_picks_closer_axis():
    point, ties = pd.project_union(axes_union(), np.array([2.0, 1.0]))
    assert np.array_equal(point, [2.0, 0.0])
    assert ties == [0]


def test_union_projection_reports_ties_lowest_index_first():
    point, ties = pd.project_union(axes_union(), np.array([1.0, 1.0]))
    assert ties == [0, 1]
    assert np.array_equal(point, [1.0, 0.0])


def test_union_projection_at_origin_ties_everything():
    u = pd.random_union(5, [1, 2, 2], np.random.default_rng(8))
    point, ties = pd.project_union(u, np.zeros(5))
    assert np.array_equal(point, np.zeros(5))
    assert ties == [0, 1, 2]


def test_union_projection_pythagoras_and_argmax():
    rng = np.random.default_rng(21)
    for _ in range(200):
        d = int(rng.integers(2, 12))
        k = int(rng.integers(1, 5))
        u = pd.random_union(d, [int(rng.integers(1, d)) for _ in range(k)], rng)
        x = rng.normal(size=d) * 3
        point, _ = pd.project_union(u, x)
        lhs = float(x @ x)
        rhs = float(point @ point) + float((x - point) @ (x - point))
        assert abs(lhs - rhs) <= 1e-9 * max(lhs, 1.0)
        norms2 = pd.squared_projection_norms(u, x)
        assert float(point @ point) >= np.max(norms2) - 1e-9


# ----------------------------------------------------------- frontier_gap


def test_frontier_gap_axes_examples():
    assert pd.frontier_gap(axes_union(), np.array([2.0, 1.0])) == pytest.approx(3.0)
    assert pd.frontier_gap(axes_union(), np.array([1.0, 1.0])) == 0.0


def test_frontier_gap_single_component_is_infinite():
    u = UnionOfSubspaces([pd.coordinate_subspace(3, [0, 1])])
    assert pd.frontier_gap(u, np.array([1.0, 2.0, 3.0])) == math.inf


def test_frontier_gap_matches_bruteforce_loop():
    rng = np.random.default_rng(606)
    u = pd.random_union(64, [5] * 8, rng)
    x = u.basis(0) @ rng.normal(size=5)
    got = pd.frontier_gap(u, x)
    norms2 = pd.squared_projection_norms(u, x)
    k_star = int(np.argmax(norms2))
    want = min(
        norms2[k_star] - norms2[ell] for ell in range(8) if ell != k_star
    )
    assert got == pytest.approx(want, rel=1e-12)
    assert got > 0.0

    # Rank-mixed unions run through the zero-padded stack; per-component
    # formulas on each basis(k) stay here as the reference.
    for _ in range(20):
        d = int(rng.integers(2, 12))
        ranks = [int(r) for r in rng.integers(1, d + 1, size=int(rng.integers(1, 6)))]
        prior = pd.LrGmmPrior(pd.random_union(d, ranks, rng))
        u = prior.union
        x = rng.normal(size=d)
        scale = float(x @ x)
        coeffs = [u.basis(k).T @ x for k in range(len(ranks))]
        want_norms = np.array([float(c @ c) for c in coeffs])
        assert np.allclose(pd.squared_projection_norms(u, x), want_norms,
                           rtol=1e-12, atol=1e-12 * scale)
        if len(ranks) == 1:
            assert pd.frontier_gap(u, x) == math.inf
        else:
            k_star = int(np.argmax(want_norms))
            want_gap = min(want_norms[k_star] - want_norms[ell]
                           for ell in range(len(ranks)) if ell != k_star)
            assert pd.frontier_gap(u, x) == pytest.approx(want_gap, rel=1e-12,
                                                          abs=1e-12 * scale)
        sigma = float(rng.uniform(0.05, 1.0))
        t = sigma * sigma
        log_nu = np.array([
            log_component_density(prior, k, x, t) for k in range(len(ranks))
        ])
        w = np.exp(log_nu - log_nu.max())
        w /= w.sum()
        want_value = sum(
            wk * (u.basis(k) @ c) for k, (wk, c) in enumerate(zip(w, coeffs))
        ) / (1.0 + t)
        assert np.allclose(pd.denoiser(prior, x, sigma).value, want_value,
                           rtol=1e-12, atol=1e-12 * math.sqrt(scale))


def test_frontier_gap_zero_iff_tied():
    rng = np.random.default_rng(17)
    u = pd.random_union(6, [2, 2, 2], rng)
    for _ in range(50):
        x = rng.normal(size=6)
        gap = pd.frontier_gap(u, x)
        _, ties = pd.project_union(u, x)
        assert (gap <= DEFAULT_TIE_TOL) == (len(ties) >= 2)
    # exact tie by construction: reflect a point across two components
    x0 = u.basis(0) @ np.array([1.0, 2.0])
    x1 = u.basis(1) @ np.array([1.0, 2.0])
    mid = x0 + x1
    n2 = pd.squared_projection_norms(u, mid)
    if abs(n2[0] - n2[1]) <= 1e-12 and n2[0] > n2[2]:
        assert pd.frontier_gap(u, mid) <= 1e-12


# ---------------------------------------------------------- hard_threshold


@pytest.mark.parametrize(
    "x, s, want",
    [
        ([3.0, -1.0, 2.0], 2, [3.0, 0.0, 2.0]),
        ([1.0, 1.0, 0.0], 1, [1.0, 0.0, 0.0]),
        ([0.5, -2.0, 0.1], 3, [0.5, -2.0, 0.1]),
        ([4.0, 5.0], 0, [0.0, 0.0]),
    ],
)
def test_hard_threshold_examples(x, s, want):
    assert np.array_equal(pd.hard_threshold(np.array(x), s), want)


def test_hard_threshold_range_checks():
    with pytest.raises(ValueError):
        pd.hard_threshold(np.ones(3), 4)
    with pytest.raises(ValueError):
        pd.hard_threshold(np.ones(3), -1)
    with pytest.raises(ValueError):
        pd.hard_threshold(np.ones((2, 2)), 1)


@settings(deadline=None, max_examples=80)
@given(
    xs=st.lists(st.floats(-100, 100), min_size=1, max_size=12),
    data=st.data(),
)
def test_hard_threshold_keeps_largest_magnitudes(xs, data):
    x = np.array(xs)
    s = data.draw(st.integers(0, len(xs)))
    out = pd.hard_threshold(x, s)
    kept = np.flatnonzero(out)
    assert len(kept) <= s
    dropped_mags = np.abs(x)[np.setdiff1d(np.arange(len(xs)), kept)]
    if kept.size and dropped_mags.size:
        assert np.min(np.abs(x[kept])) >= np.max(dropped_mags) - 1e-12


# --------------------------------------------------------------- BoxSet


def test_box_validation():
    with pytest.raises(ValueError, match="origin"):
        BoxSet([0.5], [1.0])
    with pytest.raises(ValueError, match="pinned"):
        BoxSet([2.0], [2.0])
    with pytest.raises(ValueError):
        BoxSet([1.0], [-1.0])
    with pytest.raises(ValueError, match="finite"):
        BoxSet([-np.inf], [1.0])


def test_box_rejects_a_width_that_overflows():
    # Each bound is finite, but sample_box used to return inf from it.
    with pytest.raises(ValueError, match="upper - lower overflows at coordinate 1"):
        BoxSet([-1.0, -1e308, 0.0], [1.0, 1e308, 0.0])
    wide = BoxSet([-1e308, 0.0], [7e307, 0.0])
    assert np.isfinite(pd.sample_box(wide, np.random.default_rng(0), 4)).all()


def test_box_dims_and_diameter():
    b = BoxSet([-1.0, 0.0, -2.0], [1.0, 0.0, 2.0])
    assert b.ambient_dim == 3
    assert np.array_equal(b.active_mask, [True, False, True])
    assert np.linalg.norm(b.upper - b.lower) == pytest.approx(math.sqrt(4.0 + 16.0))


def test_project_box_clamps():
    b = BoxSet([-1.0, -1.0], [1.0, 1.0])
    assert np.array_equal(pd.project_box(b, np.array([2.0, 0.5])), [1.0, 0.5])
    inside = np.array([0.25, -0.75])
    assert np.array_equal(pd.project_box(b, inside), inside)


def test_project_box_pins_inactive_coordinates():
    b = BoxSet([-1.0, 0.0], [1.0, 0.0])
    assert np.array_equal(pd.project_box(b, np.array([0.3, 7.0])), [0.3, 0.0])


# ------------------------------------------------------------ generators


def test_random_subspace_is_deterministic_and_orthonormal():
    a = pd.random_subspace(9, 4, np.random.default_rng(42))
    b = pd.random_subspace(9, 4, np.random.default_rng(42))
    assert a.shape == (9, 4)
    assert np.array_equal(a, b)
    gram = a.T @ a
    assert gram == pytest.approx(np.eye(4), abs=1e-12)


@pytest.mark.parametrize("r", [0, 9])
def test_random_subspace_rejects_rank_outside_one_to_d(r):
    # A QR of an 8 x 9 Gaussian would silently return rank 8.
    with pytest.raises(ValueError, match="1 <= r <= d"):
        pd.random_subspace(8, r, np.random.default_rng(0))


def test_coordinate_subspace_basis():
    s = pd.coordinate_subspace(4, [2, 0])
    want = np.zeros((4, 2))
    want[2, 0] = 1.0
    want[0, 1] = 1.0
    assert np.array_equal(s, want)
