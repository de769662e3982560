"""End-to-end gate: ten criteria, one test (and one report line) each.

These tests pin the contract of the whole package at once: denoiser
calculus, projection limits, recovery dynamics on the flagship experiment,
convex-prior behaviour, and the measurement-side constants.  Criteria
01-04, the Monte Carlo half of 08 and the exact-probe half of 10 call the
measurements in ``projdiff.checks`` at the sizes ``projdiff check --full``
uses, so the gate and the runtime suite share one implementation of each
invariant.  The bounds asserted here are this file's own: they are fixed
here and nowhere else, and a failure means the build does not meet the bar,
not that the bar moved.
"""

import math
import statistics
import time

import numpy as np

import projdiff as pd
from projdiff import checks

CONVERGED_MSE = 1e-6


def _finite_burn_ins(traces, schedule, fixture):
    out = {}
    for seed in fixture.trial_seeds:
        n_star = pd.detect_burn_in(traces[schedule, seed], fixture.true_component[seed])
        if n_star is not None:
            out[seed] = n_star
    return out


def test_criterion_01_tweedie_identity():
    """sigma^2 * grad log-density matches denoiser(x) - x to 1e-4, under 10 s."""
    start = time.monotonic()
    assert checks.tweedie_defect(200) <= 1e-4
    assert time.monotonic() - start < 10.0


def test_criterion_02_single_component_law():
    """With one subspace the sup-gap over basis vectors is sigma^2/(1+sigma^2)."""
    assert checks.k1_law_defect() <= 1e-12


def test_criterion_03_projection_gap_envelope():
    """Zero envelope violations over 10^4 off-frontier instances, under 60 s."""
    start = time.monotonic()
    assert checks.gap_envelope_violations(10_000) == 0
    assert time.monotonic() - start < 60.0


def test_criterion_04_step_form_equivalence():
    """The one-shot update equals the callback form with unit step, to 1e-10."""
    assert checks.step_form_defect(100) <= 1e-10


def test_criterion_05_schedule_comparison(flagship_traces):
    """Geometric schedule wins: high success rate, lowest median, early burn-in."""
    f = flagship_traces
    finals = {
        name: [f.traces[name, seed].final_mse for seed in f.trial_seeds]
        for name in f.schedules
    }
    n_converged = sum(1 for v in finals["geometric"] if v < CONVERGED_MSE)
    assert n_converged >= 0.7 * len(f.trial_seeds)

    medians = {name: statistics.median(v) for name, v in finals.items()}
    assert medians["geometric"] == min(medians.values())

    burn_geo = _finite_burn_ins(f.traces, "geometric", f)
    burn_cos = _finite_burn_ins(f.traces, "cosine", f)
    assert burn_geo and burn_cos
    assert statistics.mean(burn_geo.values()) <= statistics.mean(burn_cos.values())

    assert f.elapsed < 120.0


def test_criterion_06_frontier_escape(flagship_traces):
    """Converging trials stabilise at a component and stay off the frontier."""
    f = flagship_traces
    checked = 0
    for seed in f.trial_seeds:
        trace = f.traces["geometric", seed]
        if trace.final_mse >= CONVERGED_MSE:
            continue
        n_star = pd.detect_burn_in(trace, f.true_component[seed])
        assert n_star is not None, seed
        assert float(np.min(trace.frontier_gap[n_star:])) > 0.0, seed
        checked += 1
    assert checked > 0


def test_criterion_07_contraction_ceiling(flagship_traces):
    """Fitted post-burn-in rates sit under max(sqrt(delta*beta), q) * 1.1."""
    f = flagship_traces
    delta = pd.ric_union(f.operator, f.mu, f.prior.union)
    beta = pd.restricted_lipschitz_estimate(
        f.prior.union, 20_000, np.random.default_rng(606)
    )
    q = (1e-4 / 0.5) ** (1.0 / 150.0)
    ceiling = max(math.sqrt(delta * beta), q) * 1.1
    checked = 0
    for seed in f.trial_seeds:
        trace = f.traces["geometric", seed]
        if trace.final_mse >= CONVERGED_MSE:
            continue
        n_star = pd.detect_burn_in(trace, f.true_component[seed])
        fit = pd.fit_linear_rate(trace, from_n=n_star)
        assert fit.rate <= ceiling, (seed, fit.rate, ceiling)
        checked += 1
    assert checked > 0


def test_criterion_08_box_prior_rates():
    """Corner gap curves have log-log slope >= 0.9; MC agrees within 3 SE."""
    sigmas = np.geomspace(1e-1, 1e-4, 25)
    for s in (1, 2, 5):
        box = pd.BoxSet(lower=-np.ones(s), upper=np.ones(s))
        curve = pd.convex_gap_curve(box, np.ones(s), sigmas)
        fit = pd.fit_convex_rate(curve)
        assert fit.slope >= 0.9, (s, fit.slope)

    assert checks.box_mc_max_z(50, 150_000) <= 3.0


def test_criterion_09_sparse_threshold_equivalence():
    """The 2-sparse mixture reproduces hard thresholding away from ties."""
    prior = pd.sparse_gmm(8, 2)
    assert prior.n_components == math.comb(8, 2)
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 1000:
        x = rng.normal(size=8)
        mags = np.sort(np.abs(x))
        if mags[-2] - mags[-3] < 1e-6:  # too close to a support tie
            continue
        want = pd.hard_threshold(x, 2)
        point, _ = pd.project_union(prior.union, x)
        np.testing.assert_array_equal(point, want)
        got = pd.denoiser(prior, x, 1e-4).value
        assert float(np.max(np.abs(got - want))) <= 1e-3
        checked += 1


def test_criterion_10_isometry_constant_dominates(flagship_setup):
    """Exact pairwise constant bounds 10^5 sampled secants; trivial cases exact."""
    operator, mu = flagship_setup.operator, flagship_setup.mu
    union = flagship_setup.prior.union
    delta = pd.ric_union(operator, mu, union)

    contraction = mu * (operator.T @ operator) - np.eye(64)
    bases = np.stack([sub.basis for sub in union.subspaces])
    sampled_max = 0.0
    n_secants = 0
    for seed in (47, 53, 59):
        rng = np.random.default_rng(seed)
        for _ in range(34):
            k1 = rng.integers(0, union.n_components, size=1000)
            k2 = rng.integers(0, union.n_components, size=1000)
            c1 = rng.normal(size=(1000, 5))
            c2 = rng.normal(size=(1000, 5))
            diff = np.einsum("nij,nj->ni", bases[k1], c1)
            diff -= np.einsum("nij,nj->ni", bases[k2], c2)
            norms = np.linalg.norm(diff, axis=1)
            keep = norms > 1e-12
            ratios = np.linalg.norm(diff[keep] @ contraction.T, axis=1) / norms[keep]
            sampled_max = max(sampled_max, float(np.max(ratios)))
            n_secants += int(np.sum(keep))
    assert n_secants >= 100_000
    assert sampled_max <= delta + 1e-9

    assert checks.ric_probe_defect() == 0.0
