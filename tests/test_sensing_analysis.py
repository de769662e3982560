import json
import math
from pathlib import Path

import numpy as np
import pytest

import projdiff as pd
from conftest import assert_pinned
from projdiff import sensing_analysis
from projdiff.model_sets import UnionOfSubspaces
from projdiff.randomness import normal_stream


# ------------------------------------------------------- gaussian_operator


def test_gaussian_operator_deterministic_row_major():
    a = pd.gaussian_operator(4, 6, np.random.default_rng(33))
    b = normal_stream(np.random.default_rng(33), 24).reshape(4, 6)
    assert np.array_equal(a, b)


def test_gaussian_operator_moments():
    a = pd.gaussian_operator(1000, 1000, np.random.default_rng(34))
    flat = a.ravel()
    assert abs(float(np.mean(flat))) <= 4.0 / math.sqrt(flat.size)
    assert float(np.var(flat)) == pytest.approx(1.0, abs=0.01)


def test_gaussian_operator_spectral_edge():
    # wide iid matrix: largest singular value near sqrt(d) + sqrt(m)
    a = pd.gaussian_operator(200, 800, np.random.default_rng(37))
    edge = math.sqrt(800) + math.sqrt(200)
    assert pd.spectral_norm(a) == pytest.approx(edge, rel=0.1)


def test_gaussian_operator_rejects_empty():
    with pytest.raises(ValueError):
        pd.gaussian_operator(0, 4, np.random.default_rng(1))
    with pytest.raises(ValueError):
        pd.gaussian_operator(4, 0, np.random.default_rng(1))


# ----------------------------------------------------------- spectral_norm


def test_spectral_norm_diagonal():
    assert pd.spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-10)
    assert pd.spectral_norm(np.eye(5)) == pytest.approx(1.0, rel=1e-12)


def test_spectral_norm_matches_svd():
    a = pd.gaussian_operator(20, 64, np.random.default_rng(31))
    want = float(np.linalg.svd(a, compute_uv=False)[0])
    assert pd.spectral_norm(a) == pytest.approx(want, rel=1e-8)


def test_spectral_norm_restarts_when_start_vector_is_annihilated():
    # the all-ones start lies in the null space of [1, -1]
    assert pd.spectral_norm(np.array([[1.0, -1.0]])) == pytest.approx(
        math.sqrt(2.0), rel=1e-10
    )


def test_spectral_norm_failure_carries_last_gap(monkeypatch):
    a = pd.gaussian_operator(5, 5, np.random.default_rng(2))
    monkeypatch.setattr(sensing_analysis, "POWER_ITERATION_MAX_ITER", 1)
    with pytest.raises(pd.NumericFailureError, match="tol=1e-10 in 1 iterations") as info:
        pd.spectral_norm(a)
    assert math.isfinite(info.value.last_gap)
    assert info.value.last_gap > 0.0


def test_spectral_norm_rejects_zero_matrix():
    with pytest.raises(ValueError, match="nonzero"):
        pd.spectral_norm(np.zeros((3, 3)))


# --------------------------------------------------------------- ric_union


def coord_union_8():
    return UnionOfSubspaces([pd.coordinate_subspace(8, sup) for sup in ([0, 1], [2, 3], [4, 5])])


def test_ric_zero_operator_is_exactly_one():
    assert pd.ric_union(np.zeros((4, 8)), 1.0, coord_union_8()) == 1.0
    rand_union = pd.random_union(8, [2, 2, 2], np.random.default_rng(43))
    assert abs(pd.ric_union(np.zeros((4, 8)), 1.0, rand_union) - 1.0) <= 1e-12


def test_ric_signed_permutation_is_exactly_zero():
    # mu A^T A = I exactly for a signed permutation at mu = 1
    perm = np.eye(8)[np.array([3, 1, 4, 0, 6, 2, 7, 5])]
    perm[0] *= -1
    assert pd.ric_union(perm, 1.0, coord_union_8()) == 0.0


def test_ric_matches_dense_pairwise_oracle():
    rng = np.random.default_rng(40)
    a = pd.gaussian_operator(12, 10, rng)
    union = pd.random_union(10, [2, 3, 2], rng)
    mu = 0.9 / pd.spectral_norm(a) ** 2
    got = pd.ric_union(a, mu, union)

    b_minus_i = mu * (a.T @ a) - np.eye(10)
    want = 0.0
    k = union.n_components
    for i in range(k):
        for j in range(i, k):
            if i == j:
                q = union.basis(i)
            else:
                stacked = np.hstack([union.basis(i), union.basis(j)])
                q, _ = np.linalg.qr(stacked)
            want = max(want, float(np.linalg.svd(b_minus_i @ q, compute_uv=False)[0]))
    assert got == pytest.approx(want, rel=1e-10)


def test_ric_invariant_under_component_relabeling():
    rng = np.random.default_rng(41)
    a = pd.gaussian_operator(9, 7, rng)
    union = pd.random_union(7, [1, 2, 3], rng)
    relabeled = UnionOfSubspaces([union.basis(k) for k in (2, 0, 1)])
    mu = 1.0 / pd.spectral_norm(a) ** 2
    assert pd.ric_union(a, mu, union) == pytest.approx(
        pd.ric_union(a, mu, relabeled), rel=1e-12
    )


def test_ric_bounds_sampled_secants():
    a = pd.gaussian_operator(20, 64, np.random.default_rng(47))
    union = pd.random_union(64, [5] * 8, np.random.default_rng(53))
    mu = 1.9 / pd.spectral_norm(a) ** 2
    delta = pd.ric_union(a, mu, union)
    b_minus_i = mu * (a.T @ a) - np.eye(64)
    r = np.random.default_rng(59)
    worst = 0.0
    for _ in range(20):
        ks = r.integers(8, size=1000)
        ls = r.integers(8, size=1000)
        v = np.zeros((1000, 64))
        for kk in range(8):
            u = union.basis(kk)
            m1 = ks == kk
            m2 = ls == kk
            if m1.any():
                v[m1] += r.normal(size=(int(m1.sum()), 5)) @ u.T
            if m2.any():
                v[m2] -= r.normal(size=(int(m2.sum()), 5)) @ u.T
        norms = np.linalg.norm(v, axis=1)
        ok = norms > 1e-12
        ratios = np.linalg.norm(v[ok] @ b_minus_i.T, axis=1) / norms[ok]
        worst = max(worst, float(ratios.max()))
    assert worst <= delta + 1e-9


def test_ric_rejects_mismatched_operator():
    with pytest.raises(ValueError):
        pd.ric_union(np.ones((3, 5)), 1.0, coord_union_8())


# ------------------------------------------- restricted_lipschitz_estimate


def test_lipschitz_single_component_is_one():
    union = UnionOfSubspaces([pd.random_subspace(6, 2, np.random.default_rng(25))])
    beta = pd.restricted_lipschitz_estimate(union, 2000, np.random.default_rng(26))
    assert 1.0 - 1e-9 <= beta <= 1.0 + 1e-9


def test_lipschitz_never_exceeds_two():
    rng = np.random.default_rng(27)
    for _ in range(5):
        d = int(rng.integers(3, 10))
        k = int(rng.integers(2, 5))
        union = pd.random_union(d, [int(rng.integers(1, d)) for _ in range(k)], rng)
        beta = pd.restricted_lipschitz_estimate(union, 3000, rng)
        assert beta <= 2.0 + 1e-9
        assert beta >= 1.0 - 1e-9


def test_lipschitz_near_parallel_lines_approach_two():
    # two lines at angle 1e-3: projections of points near the tie frontier
    # land on opposite sides, so the constant is essentially 2
    angle = 5e-4
    b0 = np.array([[math.cos(angle)], [math.sin(angle)]])
    b1 = np.array([[math.cos(angle)], [-math.sin(angle)]])
    union = UnionOfSubspaces([b0, b1])
    beta = pd.restricted_lipschitz_estimate(union, 1_000_000, np.random.default_rng(29))
    assert beta >= 1.9


def test_lipschitz_rejects_zero_samples():
    union = coord_union_8()
    with pytest.raises(ValueError):
        pd.restricted_lipschitz_estimate(union, 0, np.random.default_rng(1))


# delta and the seed-0 beta of the flagship, per BLAS core (see
# cli.blas_core).  The SkylakeX pair is bench/reference.json's.
FLAGSHIP_CONSTANTS = {
    "SkylakeX": (0.9913499581206303, 1.4292752057311193),
    "Haswell": (0.9913499581206304, 1.4292752057311193),
    "Sandybridge": (0.9913499581206302, 1.4292752057311182),
    "Katmai": (0.9913499581206302, 1.4292752057311182),
}


def test_flagship_constants_match_the_bench_reference_exactly(flagship_setup):
    # Recorded to the last bit, so any change in the union's storage, the
    # pair bases or the sampler's draw order shows here.
    reference_path = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
    reference = json.loads(reference_path.read_text())
    assert FLAGSHIP_CONSTANTS["SkylakeX"] == (reference["delta"]["flagship"],
                                              reference["beta"]["0"]["flagship"])
    s = flagship_setup
    delta = pd.ric_union(s.operator, s.mu, s.prior.union)
    beta = pd.restricted_lipschitz_estimate(s.prior.union, 20000, np.random.default_rng(0))
    assert_pinned(FLAGSHIP_CONSTANTS, (delta, beta))
