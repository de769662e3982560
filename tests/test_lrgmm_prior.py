import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projdiff as pd
from conftest import log_component_density
from projdiff.model_sets import UnionOfSubspaces


def axes_prior(pi=(0.5, 0.5)):
    union = UnionOfSubspaces([pd.coordinate_subspace(2, [0]), pd.coordinate_subspace(2, [1])])
    return pd.LrGmmPrior(union, pi)


def line_prior(d=6, support=(0, 1)):
    return pd.LrGmmPrior(UnionOfSubspaces([pd.coordinate_subspace(d, support)]))


# -------------------------------------------------------------- validation


def test_prior_rejects_bad_weights():
    union = axes_prior().union
    with pytest.raises(ValueError):
        pd.LrGmmPrior(union, [1.0, 0.0])
    with pytest.raises(ValueError):
        pd.LrGmmPrior(union, [0.5, -0.5])
    with pytest.raises(ValueError):
        pd.LrGmmPrior(union, [1.0])


def test_pi_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        pd.LrGmmPrior(axes_prior().union, [2.0, 6.0])
    prior = pd.LrGmmPrior(axes_prior().union, [0.25, 0.75])
    assert prior.pi == pytest.approx([0.25, 0.75], abs=1e-15)


def test_prior_weights_default_to_uniform():
    for k in (1, 2, 3, 7):
        union = pd.random_union(4, [1] * k, np.random.default_rng(k))
        log_pi = pd.LrGmmPrior(union).log_pi
        assert np.array_equal(log_pi, np.full(k, -math.log(k)))
        assert not log_pi.flags.writeable


def test_random_lrgmm_is_deterministic():
    a = pd.random_lrgmm(8, 2, 3, np.random.default_rng(5))
    b = pd.random_lrgmm(8, 2, 3, np.random.default_rng(5))
    assert np.array_equal(a.union.bases, b.union.bases)


# ------------------------------------------------------ component density


def test_log_component_density_known_values():
    prior = line_prior(d=2, support=(0,))
    # at the origin with unit blur the quadratic vanishes
    got = log_component_density(prior, 0, np.zeros(2), 1.0)
    assert got == pytest.approx(-math.log(2 * math.pi) - 0.5 * math.log(2.0), rel=1e-15)
    assert got == pytest.approx(-2.184450656689318, rel=1e-15)
    # unit step off the subspace at small blur: residual term dominates
    got = log_component_density(prior, 0, np.array([0.0, 1.0]), 0.01)
    assert got == pytest.approx(-49.540267138841884, rel=1e-15)


def test_log_component_density_matches_dense_covariance():
    # independent route: build the full d x d covariance and use slogdet/solve
    r = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        d = int(r.integers(2, 9))
        k = int(r.integers(1, 4))
        ranks = [int(r.integers(1, d)) for _ in range(k)]
        union = pd.random_union(d, ranks, r)
        pi = r.random(k) + 0.1
        pi /= pi.sum()
        prior = pd.LrGmmPrior(union, pi)
        x = r.normal(size=d) * 3
        t = float(10 ** r.uniform(-6, 0))
        for kk in range(k):
            u = union.basis(kk)
            cov = u @ u.T + t * np.eye(d)
            _, logdet = np.linalg.slogdet(cov)
            quad = float(x @ np.linalg.solve(cov, x))
            dense = math.log(pi[kk]) - 0.5 * (d * math.log(2 * math.pi) + logdet + quad)
            ours = log_component_density(prior, kk, x, t)
            worst = max(worst, abs(dense - ours) / max(1.0, abs(dense)))
    assert worst <= 1e-9


def test_weights_reject_bad_t():
    prior = axes_prior()
    with pytest.raises(ValueError, match="blur variance t"):
        pd.weights(prior, np.ones(2), 0.0)
    with pytest.raises(ValueError, match="blur variance t"):
        pd.weights(prior, np.ones(2), -1.0)


# ----------------------------------------------------------------- weights


def test_weights_symmetric_point():
    w = pd.weights(axes_prior(), np.array([1.0, 1.0]), 0.04)
    assert w == pytest.approx([0.5, 0.5], abs=1e-14)


def test_weights_concentrate_off_frontier():
    w = pd.weights(axes_prior(), np.array([1.0, 0.25]), 1e-8)
    assert w[0] == pytest.approx(1.0, abs=1e-12)
    assert w[1] == pytest.approx(0.0, abs=1e-12)


def test_weight_ratios_match_extended_precision_form():
    # closed-form ratio nu_l / nu_0 evaluated at 60 decimal digits
    r = np.random.default_rng(91)
    worst = 0.0
    for _ in range(60):
        d = int(r.integers(3, 9))
        k = int(r.integers(2, 5))
        ranks = [int(r.integers(1, d)) for _ in range(k)]
        union = pd.random_union(d, ranks, np.random.default_rng(int(r.integers(1 << 30))))
        prior = pd.LrGmmPrior(union, r.dirichlet(np.ones(k)))
        x = r.normal(size=d)
        t = float(10 ** r.uniform(-6, 0))
        w = pd.weights(prior, x, t)
        with mp.workdps(60):
            t_ = mp.mpf(t)
            norms2 = pd.squared_projection_norms(union, x)
            x2 = float(x @ x)
            for ell in range(1, k):
                if w[ell] == 0.0 or w[0] == 0.0:
                    continue
                got = w[ell] / w[0]
                pi = prior.pi
                r0, rl = union.ranks[0], union.ranks[ell]
                resid0 = mp.mpf(x2 - float(norms2[0]))
                residl = mp.mpf(x2 - float(norms2[ell]))
                pref = mp.mpf(float(pi[ell])) / mp.mpf(float(pi[0]))
                pref *= mp.sqrt(
                    (1 + t_) ** r0 * t_ ** (d - r0) / ((1 + t_) ** rl * t_ ** (d - rl))
                )
                want = pref * mp.exp(-(residl - resid0) / (2 * t_ * (1 + t_)))
                worst = max(worst, abs(got - float(want)) / float(want))
    assert worst <= 1e-9


@settings(deadline=None, max_examples=80)
@given(
    seed=st.integers(0, 2**16),
    log_t=st.floats(-10, 0),
    scale=st.floats(1e-3, 1e3),
)
def test_weights_sum_to_one_even_at_tiny_blur(seed, log_t, scale):
    r = np.random.default_rng(seed)
    d = int(r.integers(2, 9))
    k = int(r.integers(2, 5))
    union = pd.random_union(d, [int(r.integers(1, d)) for _ in range(k)], r)
    prior = pd.LrGmmPrior(union)
    x = r.normal(size=d) * scale
    w = pd.weights(prior, x, 10.0 ** log_t)
    assert np.all(w >= 0.0)
    assert np.all(np.isfinite(w))
    assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------- denoiser


def test_denoiser_single_component_closed_form():
    prior = line_prior()
    basis = prior.union.basis(0)
    r = np.random.default_rng(2)
    for sigma in (1e-3, 0.3, 2.0):
        t = sigma * sigma
        x = r.normal(size=6)
        ev = pd.denoiser(prior, x, sigma)
        want = basis @ (basis.T @ x) / (1.0 + t)
        assert ev.value == pytest.approx(want, abs=1e-14)
        assert ev.weights == pytest.approx([1.0])


def test_denoiser_frozen_two_axis_instance():
    # digits pinned from a brute-force 1-d quadrature of the posterior
    ev = pd.denoiser(axes_prior(), np.array([1.0, 0.5]), 0.3)
    assert ev.weights[0] == pytest.approx(0.97859786197695298, rel=1e-12)
    assert ev.weights[1] == pytest.approx(0.02140213802304709, rel=1e-12)
    assert ev.value[0] == pytest.approx(0.89779620364858059, rel=1e-12)
    assert ev.value[1] == pytest.approx(0.0098174945059849028, rel=1e-12)
    assert ev.log_density == pytest.approx(-3.1961102910762635, rel=1e-12)


def test_denoiser_fixes_origin():
    prior = pd.random_lrgmm(5, 2, 3, np.random.default_rng(9))
    ev = pd.denoiser(prior, np.zeros(5), 0.7)
    assert np.array_equal(ev.value, np.zeros(5))


def test_denoiser_rejects_bad_sigma_and_shape():
    prior = axes_prior()
    with pytest.raises(ValueError):
        pd.denoiser(prior, np.ones(2), 0.0)
    with pytest.raises(ValueError):
        pd.denoiser(prior, np.ones(2), math.inf)
    with pytest.raises(ValueError):
        pd.denoiser(prior, np.ones(3), 0.5)


def test_denoiser_block_rows_match_single_calls():
    # rank-mixed, so the stacked bases carry zero padding
    union = pd.random_union(7, [1, 3, 2], np.random.default_rng(16))
    prior = pd.LrGmmPrior(union, [0.2, 0.5, 0.3])
    block = np.random.default_rng(17).normal(size=(11, 7))
    sigmas = np.geomspace(2.0, 1e-5, 11)
    ev = pd.denoiser(prior, block, sigmas)
    for b in range(11):
        one = pd.denoiser(prior, block[b], sigmas[b])
        for name in ("value", "weights", "sq_in", "sq_out"):
            assert np.array_equal(getattr(ev, name)[b], getattr(one, name)), name
        assert ev.log_density[b] == one.log_density
        assert np.array_equal(pd.weights(prior, block, sigmas**2)[b],
                              pd.weights(prior, block[b], sigmas[b] ** 2))
    with pytest.raises(ValueError):
        pd.denoiser(prior, block, np.append(sigmas[:-1], 0.0))


def test_denoiser_shrinks_toward_union():
    prior = pd.random_lrgmm(10, 3, 4, np.random.default_rng(14))
    x = np.random.default_rng(15).normal(size=10)
    big = pd.denoiser(prior, x, 5.0).value
    small = pd.denoiser(prior, x, 1e-3).value
    point, _ = pd.project_union(prior.union, x)
    assert np.linalg.norm(small - point) < np.linalg.norm(big - point)


# ------------------------------------------------------------------- score


def test_score_single_component_closed_form():
    prior = line_prior()
    basis = prior.union.basis(0)
    x = np.random.default_rng(4).normal(size=6)
    sigma = 0.4
    t = sigma * sigma
    got = pd.score(prior, x, sigma)
    want = (basis @ (basis.T @ x) / (1.0 + t) - x) / t
    assert got == pytest.approx(want, rel=1e-12)


def test_score_matches_log_density_gradient():
    r = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        d = int(r.integers(2, 7))
        union = pd.random_union(d, [int(r.integers(1, d))] * int(r.integers(1, 4)), r)
        prior = pd.LrGmmPrior(union)
        x = r.normal(size=d)
        sigma = float(r.choice([0.1, 0.5, 1.0]))
        h = 1e-5
        g_fd = np.zeros(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            g_fd[i] = (
                pd.denoiser(prior, x + e, sigma).log_density
                - pd.denoiser(prior, x - e, sigma).log_density
            ) / (2 * h)
        got = pd.score(prior, x, sigma)
        worst = max(worst, np.linalg.norm(got - g_fd) / np.linalg.norm(g_fd))
    assert worst <= 1e-4


@pytest.mark.parametrize("shape", [(3, 3), (2, 3)])
def test_score_block_rows_match_single_calls(shape):
    """Each row of a (B, d) block is divided by its own sigma^2, bit for bit.

    score used to divide the block by the sigma vector along the last axis:
    the 3 x 3 block was off by up to 98 and the 2 x 3 block raised a
    broadcast error.
    """
    prior = pd.random_lrgmm(shape[1], 1, 2, np.random.default_rng(21))
    block = np.random.default_rng(22).normal(size=shape)
    sigmas = np.array([0.1, 0.5, 1.0])[:shape[0]]
    got = pd.score(prior, block, sigmas)
    assert got.shape == shape
    for b in range(shape[0]):
        assert np.array_equal(got[b], pd.score(prior, block[b], sigmas[b]))
    # one sigma for every row
    assert np.array_equal(pd.score(prior, block, 0.5)[1], pd.score(prior, block[1], 0.5))


# ------------------------------------------------------ small-noise limit


def test_denoiser_off_frontier_converges_to_the_nearest_projection():
    r = np.random.default_rng(303)
    union = pd.random_union(6, [2, 2, 2], np.random.default_rng(304))
    prior = pd.LrGmmPrior(union, [0.2, 0.5, 0.3])
    x = r.normal(size=6)
    point, ties = pd.project_union(union, x)
    assert ties == [int(np.argmax(pd.squared_projection_norms(union, x)))]
    last = math.inf
    for sigma in (1e-1, 1e-2, 1e-3, 1e-4):
        dist = float(np.linalg.norm(pd.denoiser(prior, x, sigma).value - point))
        assert dist < last
        last = dist
    assert last <= 1e-7


def test_denoiser_on_frontier_converges_to_the_pi_average():
    """On a tie of equal-rank components the weights tend to the tied pi, renormalised."""
    prior = axes_prior(pi=(0.3, 0.7))
    x = np.array([1.0, 1.0])
    assert pd.project_union(prior.union, x)[1] == [0, 1]
    dv = pd.denoiser(prior, x, 1e-5).value
    assert dv == pytest.approx([0.3, 0.7], abs=1e-9)


# ---------------------------------------------------------------- sampling


def test_sample_is_deterministic():
    prior = pd.random_lrgmm(8, 2, 3, np.random.default_rng(6))
    a = pd.sample(prior, np.random.default_rng(123))
    b = pd.sample(prior, np.random.default_rng(123))
    assert np.array_equal(a, b)


def test_samples_lie_in_the_union():
    prior = pd.random_lrgmm(7, 2, 4, np.random.default_rng(16))
    rng = np.random.default_rng(17)
    for _ in range(200):
        x = pd.sample(prior, rng)
        point, _ = pd.project_union(prior.union, x)
        assert np.linalg.norm(x - point) <= 1e-12 * max(1.0, np.linalg.norm(x))


def test_sample_second_moment_matches_mixture_covariance():
    prior = pd.random_lrgmm(6, 2, 3, np.random.default_rng(18))
    rng = np.random.default_rng(19)
    n = 100_000
    acc = np.zeros((6, 6))
    for _ in range(n):
        x = pd.sample(prior, rng)
        acc += np.outer(x, x)
    acc /= n
    want = np.zeros((6, 6))
    for k, pi_k in enumerate(prior.pi):
        want += pi_k * (prior.union.basis(k) @ prior.union.basis(k).T)
    assert np.linalg.norm(acc - want, 2) <= 5e-2


def test_sample_component_frequencies():
    union = UnionOfSubspaces([pd.coordinate_subspace(3, [i]) for i in range(3)])
    prior = pd.LrGmmPrior(union, [0.2, 0.5, 0.3])
    rng = np.random.default_rng(20)
    n = 20_000
    counts = np.zeros(3, dtype=int)
    for _ in range(n):
        x = pd.sample(prior, rng)
        counts[int(np.argmax(np.abs(x)))] += 1
    for k, pi_k in enumerate([0.2, 0.5, 0.3]):
        margin = 3.0 * math.sqrt(n * pi_k * (1 - pi_k))
        assert abs(counts[k] - n * pi_k) <= margin


# -------------------------------------------------------------- sparse_gmm


def test_sparse_gmm_enumerates_supports_lexicographically():
    prior = pd.sparse_gmm(4, 2)
    supports = [
        tuple(np.flatnonzero(np.abs(prior.union.basis(k)).sum(axis=1)))
        for k in range(prior.n_components)
    ]
    assert supports == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert prior.n_components == 6
    assert prior.pi == pytest.approx(np.full(6, 1 / 6))


def test_sparse_gmm_single_coordinate_case():
    prior = pd.sparse_gmm(3, 1)
    assert prior.n_components == 3
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        assert np.array_equal(prior.union.basis(i)[:, 0], e)


def test_sparse_gmm_refuses_huge_enumerations():
    with pytest.raises(pd.ResourceLimitError, match=r"C\(50,10\) components exceed the cap of 200000"):
        pd.sparse_gmm(50, 10)
    with pytest.raises(pd.ResourceLimitError):
        pd.sparse_gmm(21, 10)
    with pytest.raises(pd.ResourceLimitError, match=r"C\(100000,50000\) components exceed"):
        pd.sparse_gmm(100000, 50000)
    assert pd.sparse_gmm(20, 1).n_components == 20



def test_sparse_gmm_rejects_bad_sparsity():
    with pytest.raises(ValueError):
        pd.sparse_gmm(4, 0)
    with pytest.raises(ValueError):
        pd.sparse_gmm(4, 5)


def test_sparse_projection_equals_hard_threshold():
    prior = pd.sparse_gmm(8, 2)
    r = np.random.default_rng(77)
    checked = 0
    while checked < 200:
        x = r.normal(size=8)
        mags = np.sort(np.abs(x))[::-1]
        if mags[1] - mags[2] < 1e-6:
            continue
        point, _ = pd.project_union(prior.union, x)
        assert np.array_equal(point, pd.hard_threshold(x, 2))
        checked += 1


def test_sparse_denoiser_approaches_hard_threshold():
    prior = pd.sparse_gmm(8, 2)
    r = np.random.default_rng(77)
    worst = 0.0
    checked = 0
    while checked < 200:
        x = r.normal(size=8)
        mags = np.sort(np.abs(x))[::-1]
        if mags[1] - mags[2] < 1e-6:
            continue
        dv = pd.denoiser(prior, x, 1e-4).value
        worst = max(worst, float(np.linalg.norm(dv - pd.hard_threshold(x, 2))))
        checked += 1
    assert worst <= 1e-6
