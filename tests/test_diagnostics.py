import math
import statistics
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projdiff as pd
from projdiff import recovery_engine
from projdiff.diagnostics import mean, median
from projdiff.model_sets import UnionOfSubspaces, component_parts


def synthetic_trace(mse=None, distances=None):
    """RecoveryTrace with hand-picked columns, for the fit and burn-in tests.

    ``distances`` holds one distance per component in each row; the trace
    keeps their argmin and their two smallest values.
    """
    if mse is None:
        mse = np.ones(8)
    mse = np.asarray(mse, dtype=float)
    rows = mse.shape[0]
    nearest = pair = None
    if distances is not None:
        distances = np.asarray(distances, float)
        nearest = np.argmin(distances, axis=1)
        pair = np.sort(np.hstack([distances, np.full((rows, 1), np.inf)]), axis=1)[:, :2]
    return pd.RecoveryTrace(
        sigma=np.geomspace(0.5, 1e-4, rows),
        mse=mse,
        residual=np.zeros(rows),
        frontier_gap=np.full(rows, np.nan),
        weight_entropy=np.full(rows, np.nan),
        nearest=nearest,
        subspace_distances=pair,
    )


def strict_minimiser_burn_in(distances: np.ndarray, k: int):
    """Burn-in from every component's distance: the first row from which
    component k stays strictly nearer than each other component."""
    if not 0 <= k < distances.shape[1]:
        return None
    aligned = np.all(distances[:, [k]] < np.delete(distances, k, axis=1), axis=1)
    misaligned = np.flatnonzero(~aligned)
    first_stable = int(misaligned[-1]) + 1 if misaligned.size else 0
    return None if first_stable == len(distances) else first_stable


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


def test_burn_in_requires_columns_and_is_none_off_the_components():
    with pytest.raises(ValueError, match="nearest-component columns"):
        pd.detect_burn_in(synthetic_trace(np.ones(4)), 0)
    dists = np.column_stack([np.zeros(4), np.ones(4)])
    assert pd.detect_burn_in(synthetic_trace(np.ones(4), dists), 0) == 0
    for k in (2, -1):  # no row's nearest component
        assert pd.detect_burn_in(synthetic_trace(np.ones(4), dists), k) is None


@pytest.mark.parametrize("supports, true_k, n_star", [
    # x_0 = 0 ties both components, so the stable stretch starts at row 1
    (([0, 1], [2, 3]), 1, 1),
    # one component is nearest even at x_0 = 0: its runner-up is at +inf
    (([2, 3],), 0, 0),
], ids=["two-components", "one-component"])
def test_burn_in_on_an_actual_run(supports, true_k, n_star):
    union = UnionOfSubspaces([pd.coordinate_subspace(4, support) for support in supports])
    prior = pd.LrGmmPrior(union)
    x_true = union.basis(true_k) @ np.array([1.0, -0.5])
    problem = pd.SensingProblem(np.eye(4), 1.0, x_true, x_true=x_true)
    trace = pd.run_recovery(
        problem, None, pd.NoiseSchedule("geometric", 0.5, 1e-6, 40), prior=prior
    )
    assert trace.subspace_distances[0, 0] == 0.0
    assert trace.subspace_distances[0, 1] == (0.0 if len(supports) > 1 else np.inf)
    if len(supports) == 1:
        assert not trace.nearest.any() and np.isinf(trace.subspace_distances[:, 1]).all()
    assert pd.detect_burn_in(trace, true_k) == n_star
    assert trace.final_mse < 1e-12


def test_burn_in_is_the_strict_minimiser_rule_on_recorded_iterates():
    """The nearest columns give the burn-in that every component's distance
    gives, for each k, on 12 runs of which some never settle."""
    prior = pd.random_lrgmm(6, 2, 3, np.random.default_rng(5))
    a = pd.gaussian_operator(3, 6, np.random.default_rng(6))
    mu = 1.0 / pd.spectral_norm(a) ** 2
    truths = [pd.sample(prior, np.random.default_rng(seed)) for seed in range(12)]
    schedule = pd.NoiseSchedule("geometric", 0.5, 1e-3, 30)
    traces = recovery_engine.run_recoveries(a, mu, [a @ x for x in truths], [schedule] * 12, 30,
                                            prior, x_true=truths, record_iterates=True)
    settled = []
    for trace, x_true in zip(traces, truths):
        distances = np.sqrt(component_parts(prior.union, trace.iterates)[2])
        for k in range(-1, 4):
            assert pd.detect_burn_in(trace, k) == strict_minimiser_burn_in(distances, k), k
        settled.append(pd.detect_burn_in(trace, prior.true_component(x_true)) is not None)
    assert 0 < sum(settled) < len(settled)


# ------------------------------------------------------------ fit_linear_rate


def test_linear_rate_recovers_exact_geometric_decay():
    mse = 1.0 * 0.25 ** np.arange(12)  # root-mse halves each step
    fit = pd.fit_linear_rate(synthetic_trace(mse))
    assert fit.rate == pytest.approx(0.5, rel=1e-12)
    assert fit.slope == pytest.approx(math.log(0.5), rel=1e-12)
    assert fit.r2 >= 1.0 - 1e-12
    assert fit.n_points == 12


@pytest.mark.parametrize("backing", [np.array, list])
def test_linear_rate_of_a_flat_trace_is_1_with_r2_1(backing):
    """A flat mse is fitted exactly by a flat line: rate 1 and r2 1.

    At mse = 0.03 over 12 rows the mean of the twelve equal log values
    misses them by an ulp, and r2 came out 0.0 (0.083 at mse = 0.1 with
    np.polyfit).
    """
    trace = synthetic_trace(np.full(12, 0.03))
    trace.mse = backing(trace.mse)
    fit = pd.fit_linear_rate(trace)
    assert (fit.rate, fit.slope, fit.r2, fit.n_points) == (1.0, 0.0, 1.0, 12)


def test_linear_rate_stops_at_the_float_floor():
    mse = np.array([1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-30, 1e-32])
    fit = pd.fit_linear_rate(synthetic_trace(mse))
    assert fit.n_points == 6
    assert fit.rate == pytest.approx(1e-1, rel=1e-10)


def test_linear_rate_stops_at_nan():
    mse = np.array([1.0, 0.5, 0.25, 0.125, 0.0625, np.nan, 17.0, 18.0])
    fit = pd.fit_linear_rate(synthetic_trace(mse))
    assert fit.n_points == 5


def test_linear_rate_stops_at_inf(recwarn):
    """An overflowed mse ends the fit as a NaN does, with no warning and a finite rate."""
    mse = 0.81 ** np.arange(62, dtype=float)
    mse[60:] = np.inf
    fit = pd.fit_linear_rate(synthetic_trace(mse))
    assert fit.n_points == 60
    assert fit.rate == pytest.approx(0.9, rel=1e-12) and fit.r2 >= 1.0 - 1e-12
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


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


# ------------------------------------------- summary.csv's mean and median

# Any float, subnormals, -0.0, inf and nan among them, with extra weight on
# the magnitudes whose exact sum needs a wide common denominator.
FLOATS = st.one_of(st.floats(), st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300),
                   st.sampled_from([0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan]))
# Burn-ins are row indices; wider ints check the exact sum too.
INTS = st.one_of(st.integers(0, 2**31 - 1), st.integers(-2**64, 2**64))


def _bits(value):
    """``value``'s type and, for a float, its IEEE bits, -0.0 included; every nan alike.

    summary.csv writes any nan as nan, and the sign of nan + nan in CPython
    3.11 changes once the interpreter specializes the addition (inf + -inf,
    then + nan: +nan on a loop's first pass, -nan on later ones).
    """
    if isinstance(value, float):
        return float, "nan" if math.isnan(value) else struct.pack("<d", value)
    return type(value), value


@settings(max_examples=400, deadline=None)
@given(st.lists(FLOATS, min_size=1, max_size=40))
def test_summary_mean_and_median_of_floats_are_statistics_bit_for_bit(values):
    assert _bits(mean(values)) == _bits(statistics.mean(values))
    assert _bits(median(values)) == _bits(statistics.median(values))


@settings(max_examples=200, deadline=None)
@given(st.lists(INTS, min_size=1, max_size=40))
def test_summary_mean_and_median_of_ints_are_statistics_bit_for_bit(values):
    """summary.csv writes a mean burn-in as a float, so ``mean`` always gives one."""
    assert _bits(mean(values)) == _bits(float(statistics.mean(values)))
    assert _bits(median(values)) == _bits(statistics.median(values))


def test_summary_mean_is_the_correctly_rounded_exact_mean():
    # fsum rounds the sum before the division, and ends one ulp higher.
    values = [3.9335362306983956e-20, 4.802269730176029e-09, 4.143139993007743e-16]
    assert mean(values) == statistics.mean(values) == 1.6007567148431212e-09
    assert math.fsum(values) / 3 == 1.6007567148431214e-09
    # Only the non-finite values are summed: a plain sum overflows to inf and gives nan.
    values = [1e308, 1e308, -math.inf]
    assert mean(values) == statistics.mean(values) == -math.inf
    assert math.isnan(sum(values) / 3)
    assert _bits(mean([-0.0, -0.0])) == _bits(statistics.mean([-0.0, -0.0])) == _bits(0.0)


def test_summary_mean_and_median_refuse_no_values():
    with pytest.raises(ValueError):
        mean([])
    with pytest.raises(ValueError):
        median([])
