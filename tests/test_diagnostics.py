import math

import numpy as np
import pytest

import projdiff as pd
from projdiff.model_sets import UnionOfSubspaces


def synthetic_trace(mse=None, distances=None):
    """RecoveryTrace with hand-picked columns, for the fit and burn-in tests."""
    if mse is None:
        mse = np.ones(8)
    mse = np.asarray(mse, dtype=float)
    rows = mse.shape[0]
    return pd.RecoveryTrace(
        n=np.arange(rows),
        sigma=np.geomspace(0.5, 1e-4, rows),
        mse=mse,
        residual=np.zeros(rows),
        frontier_gap=np.full(rows, np.nan),
        weight_entropy=np.full(rows, np.nan),
        subspace_distances=None if distances is None else np.asarray(distances, float),
    )


# ----------------------------------------------------------- projection_gap


def test_projection_gap_rejects_origin():
    prior = pd.random_lrgmm(4, 1, 2, np.random.default_rng(1))
    with pytest.raises(ValueError, match="x = 0"):
        pd.projection_gap(prior, np.zeros(4), 0.1)


def test_projection_gap_rejects_frontier_points():
    union = UnionOfSubspaces([pd.coordinate_subspace(2, [0]), pd.coordinate_subspace(2, [1])])
    prior = pd.LrGmmPrior(union)
    with pytest.raises(pd.FrontierError):
        pd.projection_gap(prior, np.array([1.0, 1.0]), 0.1)


def test_projection_gap_single_component_closed_form():
    basis = pd.random_subspace(6, 2, np.random.default_rng(2))
    prior = pd.LrGmmPrior(UnionOfSubspaces([basis]))
    x = np.random.default_rng(3).normal(size=6)
    sigma = 0.2
    t = sigma * sigma
    res = pd.projection_gap(prior, x, sigma)
    point = basis @ (basis.T @ x)
    want_gap = (t / (1.0 + t)) * float(np.linalg.norm(point)) / float(np.linalg.norm(x))
    assert res.gap == pytest.approx(want_gap, rel=1e-12)
    assert res.bound == pytest.approx(t, rel=1e-15)  # no competing components
    assert res.eta == math.inf
    assert res.gap <= res.bound


def test_projection_gap_envelope_holds_on_random_sweep():
    r = np.random.default_rng(13)
    violations = 0
    checked = 0
    for _ in range(500):
        d = int(r.integers(3, 17))
        k = int(r.integers(2, 6))
        rr = int(r.integers(1, min(4, d)))
        pi = r.random(k) + 0.1
        prior = pd.LrGmmPrior(pd.random_union(d, [rr] * k, r), pi / pi.sum())
        x = r.normal(size=d)
        sigma = float(10 ** r.uniform(-3, math.log10(0.5)))
        try:
            res = pd.projection_gap(prior, x, sigma)
        except pd.FrontierError:
            continue
        checked += 1
        if res.gap > res.bound + 1e-12:
            violations += 1
    assert checked > 400
    assert violations == 0


# ------------------------------------------------------------ detect_burn_in


def test_burn_in_zero_when_always_aligned():
    dists = np.column_stack([np.zeros(6), np.ones(6)])
    assert pd.detect_burn_in(synthetic_trace(np.ones(6), dists), 0) == 0


def test_burn_in_is_one_past_the_last_mismatch():
    # nearest component: 1, 1, 0, 0, 0  ->  stable from row 2
    d0 = np.array([2.0, 2.0, 0.1, 0.1, 0.1])
    d1 = np.array([1.0, 1.0, 1.0, 1.0, 1.0])
    trace = synthetic_trace(np.ones(5), np.column_stack([d0, d1]))
    assert pd.detect_burn_in(trace, 0) == 2


def test_burn_in_none_when_final_row_disagrees():
    d0 = np.array([0.1, 0.1, 2.0])
    d1 = np.array([1.0, 1.0, 1.0])
    trace = synthetic_trace(np.ones(3), np.column_stack([d0, d1]))
    assert pd.detect_burn_in(trace, 0) is None


def test_burn_in_alternating_tail_is_none():
    d0 = np.array([0.1, 2.0, 0.1, 2.0])
    d1 = np.ones(4)
    trace = synthetic_trace(np.ones(4), np.column_stack([d0, d1]))
    assert pd.detect_burn_in(trace, 0) is None


def test_burn_in_requires_distances_and_valid_component():
    with pytest.raises(ValueError, match="distances"):
        pd.detect_burn_in(synthetic_trace(np.ones(4)), 0)
    dists = np.ones((4, 2))
    with pytest.raises(ValueError, match="range"):
        pd.detect_burn_in(synthetic_trace(np.ones(4), dists), 2)
    with pytest.raises(ValueError, match="range"):
        pd.detect_burn_in(synthetic_trace(np.ones(4), dists), -1)


def test_burn_in_on_an_actual_run():
    union = UnionOfSubspaces([pd.coordinate_subspace(4, [0, 1]), pd.coordinate_subspace(4, [2, 3])])
    prior = pd.LrGmmPrior(union)
    x_true = union.basis(1) @ np.array([1.0, -0.5])
    problem = pd.SensingProblem(np.eye(4), 1.0, x_true, x_true=x_true)
    denoise = lambda z, sg: pd.denoiser(prior, z, sg).value
    trace = pd.run_recovery(
        problem, denoise, pd.NoiseSchedule("geometric", 0.5, 1e-6, 40), prior=prior
    )
    # x_0 = 0 ties both components, so the stable stretch starts at row 1
    n_star = pd.detect_burn_in(trace, 1)
    assert n_star == 1
    assert trace.final_mse < 1e-12


# ------------------------------------------------------------ fit_linear_rate


def test_linear_rate_recovers_exact_geometric_decay():
    mse = 1.0 * 0.25 ** np.arange(12)  # root-mse halves each step
    fit = pd.fit_linear_rate(synthetic_trace(mse))
    assert fit.rate == pytest.approx(0.5, rel=1e-12)
    assert fit.slope == pytest.approx(math.log(0.5), rel=1e-12)
    assert fit.r2 >= 1.0 - 1e-12
    assert fit.n_points == 12


def test_linear_rate_stops_at_the_float_floor():
    mse = np.array([1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-30, 1e-32])
    fit = pd.fit_linear_rate(synthetic_trace(mse))
    assert fit.n_points == 6
    assert fit.rate == pytest.approx(1e-1, rel=1e-10)


def test_linear_rate_stops_at_nan():
    mse = np.array([1.0, 0.5, 0.25, 0.125, 0.0625, np.nan, 17.0, 18.0])
    fit = pd.fit_linear_rate(synthetic_trace(mse))
    assert fit.n_points == 5


def test_linear_rate_respects_from_n():
    mse = np.concatenate([np.full(4, 1.0), 0.25 ** np.arange(10)])
    fit = pd.fit_linear_rate(synthetic_trace(mse), from_n=4)
    assert fit.rate == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError, match="from_n"):
        pd.fit_linear_rate(synthetic_trace(mse), from_n=14)
    with pytest.raises(ValueError, match="from_n"):
        pd.fit_linear_rate(synthetic_trace(mse), from_n=-1)


def test_linear_rate_needs_enough_points():
    with pytest.raises(pd.InsufficientDataError, match="need 5"):
        pd.fit_linear_rate(synthetic_trace(np.ones(4)))
    mse = np.array([1.0, 0.5, 1e-30, 1e-30, 1e-30, 1e-30, 1e-30])
    with pytest.raises(pd.InsufficientDataError):
        pd.fit_linear_rate(synthetic_trace(mse))


# ------------------------------------------------------------ fit_convex_rate


def test_convex_rate_recovers_planted_slope():
    sigmas = np.geomspace(0.3, 1e-3, 20)
    xs = sigmas * np.sqrt(np.log(1.0 / sigmas))
    curve = list(zip(sigmas, 2.0 * xs))  # slope exactly 1 in the fit variable
    fit = pd.fit_convex_rate(curve)
    assert fit.slope == pytest.approx(1.0, rel=1e-12)
    assert fit.r2 >= 1.0 - 1e-12
    assert fit.n_points == 20


def test_convex_rate_drops_zero_gaps():
    sigmas = np.geomspace(0.3, 1e-3, 10)
    xs = sigmas * np.sqrt(np.log(1.0 / sigmas))
    gaps = xs.copy()
    gaps[-3:] = 0.0
    fit = pd.fit_convex_rate(list(zip(sigmas, gaps)))
    assert fit.n_points == 7
    assert fit.slope == pytest.approx(1.0, rel=1e-12)


def test_convex_rate_needs_enough_positive_points():
    sigmas = np.geomspace(0.3, 1e-3, 6)
    gaps = [1.0, 0.5, 0.0, 0.0, 0.0, 0.0]
    with pytest.raises(pd.InsufficientDataError):
        pd.fit_convex_rate(list(zip(sigmas, gaps)))


def test_convex_rate_rejects_sigma_at_or_above_one():
    curve = [(1.5, 1.0), (0.5, 0.5), (0.25, 0.2), (0.1, 0.1), (0.05, 0.04)]
    with pytest.raises(ValueError, match="< 1"):
        pd.fit_convex_rate(curve)
