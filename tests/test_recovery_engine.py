import hashlib
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projdiff as pd
from projdiff import checks, cli, lrgmm_prior, recovery_engine, simulate
from projdiff.config import build
from projdiff.model_sets import UnionOfSubspaces, component_parts
from projdiff.traces import TRACE_COLUMNS, TRACE_FORMAT_LINE, parse_trace

V2_HEADER = "n,sigma,mse,residual,frontier_gap,weight_entropy,nearest,dist_nearest,dist_second"


def geometric(horizon=150):
    return pd.NoiseSchedule("geometric", 0.5, 1e-4, horizon)


# ------------------------------------------------------------ NoiseSchedule


def test_schedule_validation():
    with pytest.raises(ValueError, match="kind"):
        pd.NoiseSchedule("exponential", 0.5, 1e-4, 10)
    with pytest.raises(ValueError, match="sigma_max"):
        pd.NoiseSchedule("geometric", 0.0, 1e-4, 10)
    with pytest.raises(ValueError, match="sigma_min"):
        pd.NoiseSchedule("geometric", 0.5, 0.0, 10)
    with pytest.raises(ValueError, match="sigma_min"):
        pd.NoiseSchedule("geometric", 0.5, 0.7, 10)
    with pytest.raises(ValueError, match="horizon"):
        pd.NoiseSchedule("linear", 0.5, 1e-4, 0)
    with pytest.raises(ValueError, match="decay"):
        pd.NoiseSchedule("infinite_geometric", 0.5, a=1.0)
    with pytest.raises(ValueError, match="decay"):
        pd.NoiseSchedule("infinite_geometric", 0.5, a=0.0)


@pytest.mark.parametrize(
    "schedule",
    [
        pd.NoiseSchedule("geometric", 0.5, 1e-4, 150),
        pd.NoiseSchedule("linear", 0.3, 1e-3, 40),
        pd.NoiseSchedule("cosine", 1.0, 1e-2, 7),
        pd.NoiseSchedule("infinite_geometric", 0.5, a=0.96),
    ],
)
def test_schedule_dict_round_trip(schedule):
    assert pd.NoiseSchedule(**schedule.to_dict()) == schedule
    # the dict survives JSON, which is how it is stored in trace metadata
    assert pd.NoiseSchedule(**json.loads(json.dumps(schedule.to_dict()))) == schedule


def test_schedule_endpoints():
    sched = geometric()
    assert pd.schedule_sigma(sched, 0) == 0.5
    assert pd.schedule_sigma(sched, 150) == pytest.approx(1e-4, rel=1e-12)
    lin = pd.NoiseSchedule("linear", 0.5, 1e-4, 20)
    assert pd.schedule_sigma(lin, 0) == pytest.approx(0.5, rel=1e-15)
    assert pd.schedule_sigma(lin, 20) == pytest.approx(1e-4, rel=1e-12)
    cos = pd.NoiseSchedule("cosine", 0.5, 1e-4, 20)
    assert pd.schedule_sigma(cos, 0) == pytest.approx(0.5, rel=1e-15)
    assert pd.schedule_sigma(cos, 20) == pytest.approx(1e-4, rel=1e-12)


def test_schedule_midpoints():
    assert pd.schedule_sigma(geometric(), 75) == pytest.approx(
        math.sqrt(0.5 * 1e-4), rel=1e-12
    )
    lin = pd.NoiseSchedule("linear", 0.5, 1e-4, 150)
    assert pd.schedule_sigma(lin, 75) == pytest.approx(
        math.sqrt((0.25 + 1e-8) / 2.0), rel=1e-12
    )
    cos = pd.NoiseSchedule("cosine", 0.5, 1e-4, 150)
    assert pd.schedule_sigma(cos, 75) == pytest.approx(
        (0.5 + 1e-4) / 2.0, abs=1e-12
    )


def test_schedule_infinite_geometric_closed_form():
    sched = pd.NoiseSchedule("infinite_geometric", 0.5, a=0.96)
    for n in (0, 1, 3, 10, 500):
        assert pd.schedule_sigma(sched, n) == 0.5 * 0.96**n


def test_schedule_domain_errors():
    sched = geometric(horizon=10)
    with pytest.raises(ValueError):
        pd.schedule_sigma(sched, -1)
    with pytest.raises(ValueError, match="horizon"):
        pd.schedule_sigma(sched, 11)
    inf = pd.NoiseSchedule("infinite_geometric", 0.5, a=0.9)
    assert pd.schedule_sigma(inf, 10_000) >= 0.0


@settings(deadline=None, max_examples=40)
@given(
    kind=st.sampled_from(["geometric", "linear", "cosine"]),
    sigma_max=st.floats(1e-2, 10),
    ratio=st.floats(1e-6, 1.0),
    horizon=st.integers(1, 60),
)
def test_schedule_is_nonincreasing(kind, sigma_max, ratio, horizon):
    sched = pd.NoiseSchedule(kind, sigma_max, sigma_max * ratio, horizon)
    values = [pd.schedule_sigma(sched, n) for n in range(horizon + 1)]
    for a, b in zip(values, values[1:]):
        assert b <= a * (1 + 1e-12)


@settings(deadline=None, max_examples=20)
@given(a=st.floats(0.5, 0.99), n=st.integers(0, 200))
def test_infinite_schedule_is_decreasing(a, n):
    sched = pd.NoiseSchedule("infinite_geometric", 1.0, a=a)
    assert pd.schedule_sigma(sched, n + 1) < pd.schedule_sigma(sched, n)


def test_linear_schedule_ends_exactly_at_sigma_min():
    """sigma_max^2 + (sigma_min^2 - sigma_max^2) lost sigma_min^2 to rounding: it gave 0.0
    and 1.19e-7 here, and parse_config refused the first as an underflow."""
    assert pd.schedule_sigma(pd.NoiseSchedule("linear", 1.0, 1e-9, 10), 10) == 1e-9
    assert pd.schedule_sigma(pd.NoiseSchedule("linear", 10.0, 1e-7, 150), 150) == 1e-7
    cfg = pd.parse_config("[prior]\nkind = lrgmm\nd = 4\nr = 1\nk = 1\n[sensing]\nm = 2\n"
                          "[schedule.linear]\nsigma_max = 1\nsigma_min = 1e-9\nhorizon = 10\n"
                          "[run]\ntrials = 1\n")
    assert cfg.n_iters == 10


# -------------------------------------------------------------- single step


def _one_step(denoise, a, mu, y, x, sigma):
    """The iterate after x of a one-step ``run_recovery`` at sigma_0 = sigma."""
    trace = pd.run_recovery(pd.SensingProblem(a, mu, y), denoise,
                            pd.NoiseSchedule("infinite_geometric", sigma, a=0.5), x0=x,
                            n_iters=1, record_iterates=True)
    return trace.iterates[1]


def _pgd_step(p, a, mu, y):
    """p - mu A^T (A p - y), the engine's step from the projection p, at one OpenBLAS thread."""
    with recovery_engine._one_blas_thread():
        return p - mu * recovery_engine._matvec(a.T, recovery_engine._matvec(a, p) - y)


def test_pgd_step_identity_operator_unit_mu_lands_on_y():
    y = np.array([2.0, -1.0])
    denoise = lambda z, sg: z
    out = _one_step(denoise, np.eye(2), 1.0, y, np.array([5.0, 5.0]), 0.1)
    assert np.array_equal(out, y)


def test_pgd_step_identity_callback_is_gradient_step():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 5))
    x = rng.normal(size=5)
    y = rng.normal(size=3)
    mu = 0.05
    out = _one_step(lambda z, sg: z, a, mu, y, x, 0.2)
    want = x - mu * (a.T @ (a @ x - y))
    assert np.array_equal(out, want)


def test_kadkhodaie_step_identity_operator_moves_toward_y():
    prior = pd.random_lrgmm(4, 1, 2, np.random.default_rng(5))
    y = np.array([1.0, 0.0, -2.0, 0.5])
    x = np.zeros(4)
    out = pd.kadkhodaie_step(prior, np.eye(4), y, x, 0.3)
    # with A = I the null-space prior direction vanishes
    assert out == pytest.approx(y, abs=1e-12)


def test_step_forms_agree_at_unit_mu():
    assert checks.step_form_defect(100) <= 1e-10


def test_step_form_check_catches_a_wrong_engine_step(monkeypatch):
    """The check measures run_recoveries' own step, so an A p off by 1e-6 relative trips it."""
    forward = recovery_engine._forward
    monkeypatch.setattr(recovery_engine, "_forward",
                        lambda a, model: lambda p: forward(a, model)(p) * (1.0 + 1e-6))
    assert checks.step_form_defect(5) > 1e-10


def test_union_points_are_fixed_points_of_the_oracle_step():
    union = UnionOfSubspaces([pd.coordinate_subspace(6, [0, 1]), pd.coordinate_subspace(6, [3, 4])])
    prior = pd.LrGmmPrior(union)
    x_hat = pd.sample(prior, np.random.default_rng(81))
    a = pd.gaussian_operator(4, 6, np.random.default_rng(82))
    y = a @ x_hat
    denoise = lambda z, sg: pd.project_union(union, z)[0]
    out = _one_step(denoise, a, 0.01, y, x_hat, 1e-3)
    assert np.array_equal(out, x_hat)


# ---------------------------------------------------------- SensingProblem


def test_problem_stores_fields_and_dims():
    a = pd.gaussian_operator(3, 5, np.random.default_rng(0))
    y = np.ones(3)
    problem = pd.SensingProblem(a, 0.1, y, seed=7)
    assert problem.operator.shape == (3, 5)
    assert problem.seed == 7
    assert problem.x_true is None


def test_problem_validates_shapes_and_mu():
    a = np.eye(3)
    with pytest.raises(ValueError):
        pd.SensingProblem(a, 0.0, np.ones(3))
    with pytest.raises(ValueError):
        pd.SensingProblem(a, -1.0, np.ones(3))
    with pytest.raises(ValueError):
        pd.SensingProblem(a, math.inf, np.ones(3))
    with pytest.raises(ValueError):
        pd.SensingProblem(a, 1.0, np.ones(4))
    with pytest.raises(ValueError):
        pd.SensingProblem(np.ones(3), 1.0, np.ones(3))
    with pytest.raises(ValueError):
        pd.SensingProblem(a, 1.0, np.ones(3), x_true=np.ones(4))


def test_problem_checks_x_true_consistency():
    a = np.eye(2)
    x = np.array([1.0, 2.0])
    problem = pd.SensingProblem(a, 0.5, a @ x, x_true=x)
    assert np.array_equal(problem.x_true, x)
    with pytest.raises(ValueError, match="reproduce"):
        pd.SensingProblem(a, 0.5, a @ x + 0.01, x_true=x)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_problem_rejects_non_finite_y_and_x_true(bad):
    # NaN slipped past the misfit test before: nan > tol is False.
    a = np.eye(2)
    with pytest.raises(ValueError, match="^y entries must be finite"):
        pd.SensingProblem(a, 1.0, [bad, 1.0])
    with pytest.raises(ValueError, match="^y entries must be finite"):
        pd.SensingProblem(a, 1.0, [bad, 1.0], x_true=[bad, 1.0])
    with pytest.raises(ValueError, match="^x_true entries must be finite"):
        pd.SensingProblem(a, 1.0, [1.0, 1.0], x_true=[1.0, bad])


# ------------------------------------------------------------- run_recovery


def tiny_problem():
    prior = pd.random_lrgmm(6, 1, 2, np.random.default_rng(90))
    a = pd.gaussian_operator(4, 6, np.random.default_rng(91))
    x_true = pd.sample(prior, np.random.default_rng(92))
    mu = 1.0 / pd.spectral_norm(a) ** 2
    problem = pd.SensingProblem(a, mu, a @ x_true, x_true=x_true, seed=92)
    denoise = lambda z, sg: pd.denoiser(prior, z, sg).value
    return prior, problem, denoise


def test_run_recovery_rows_and_sigma_column():
    prior, problem, denoise = tiny_problem()
    sched = geometric(horizon=30)
    trace = pd.run_recovery(problem, denoise, sched, prior=prior)
    assert trace.n_rows == 31
    assert np.array_equal(trace.n, np.arange(31))
    want = [pd.schedule_sigma(sched, n) for n in range(31)]
    assert np.array_equal(trace.sigma, want)
    assert trace.metadata["mu"] == problem.mu
    assert trace.metadata["seed"] == 92
    assert trace.metadata["schedule"] == sched.to_dict()
    assert trace.metadata["format"] == "projdiff-trace"


def test_run_recovery_starts_at_zero_by_default():
    prior, problem, denoise = tiny_problem()
    trace = pd.run_recovery(problem, denoise, geometric(10), prior=prior, record_iterates=True)
    assert np.array_equal(trace.iterates[0], np.zeros(6))
    assert trace.mse[0] == pytest.approx(
        float(problem.x_true @ problem.x_true) / 6.0, rel=1e-15
    )


def test_run_recovery_accepts_custom_start():
    prior, problem, denoise = tiny_problem()
    trace = pd.run_recovery(problem, denoise, geometric(5), x0=problem.x_true, prior=prior,
                            record_iterates=True)
    assert np.array_equal(trace.iterates[0], problem.x_true)
    assert trace.mse[0] == 0.0
    with pytest.raises(ValueError, match="x0"):
        pd.run_recovery(problem, denoise, geometric(5), x0=np.zeros(7))


def test_run_recovery_horizon_checks():
    prior, problem, denoise = tiny_problem()
    with pytest.raises(ValueError, match="exceeds"):
        pd.run_recovery(problem, denoise, geometric(10), n_iters=11)
    with pytest.raises(ValueError, match="n_iters"):
        pd.run_recovery(problem, denoise, geometric(10), n_iters=0)
    inf = pd.NoiseSchedule("infinite_geometric", 0.5, a=0.9)
    with pytest.raises(ValueError, match="n_iters"):
        pd.run_recovery(problem, denoise, inf)
    trace = pd.run_recovery(problem, denoise, inf, n_iters=7)
    assert trace.n_rows == 8


def test_run_recovery_records_iterates_only_when_asked():
    prior, problem, denoise = tiny_problem()
    assert pd.run_recovery(problem, denoise, geometric(3), prior=prior).iterates is None
    (batched,) = recovery_engine.run_recoveries(problem.operator, problem.mu, problem.y[None],
                                                [geometric(3)], 3, prior)
    assert batched.iterates is None
    forced = pd.run_recovery(problem, denoise, geometric(3), prior=prior, record_iterates=True)
    assert forced.iterates.shape == (4, 6)


def test_run_recovery_nan_columns_without_context():
    _, problem, denoise = tiny_problem()
    a = problem.operator
    plain = pd.SensingProblem(a, problem.mu, problem.y)  # no x_true
    trace = pd.run_recovery(plain, denoise, geometric(4))
    assert np.all(np.isnan(trace.mse))
    assert np.all(np.isnan(trace.weight_entropy))
    assert np.all(np.isnan(trace.frontier_gap))
    assert trace.subspace_distances is None
    assert np.all(np.isfinite(trace.residual))


def test_run_recovery_trace_rows_recompute_from_iterates():
    prior, problem, denoise = tiny_problem()
    sched = geometric(20)
    trace = pd.run_recovery(problem, denoise, sched, prior=prior, record_iterates=True)
    union = prior.union
    for n in range(20):
        step = _pgd_step(denoise(trace.iterates[n], trace.sigma[n]), problem.operator,
                         problem.mu, problem.y)
        assert np.array_equal(trace.iterates[n + 1], step)
    for i in (0, 7, 20):
        x = trace.iterates[i]
        diff = x - problem.x_true
        assert trace.mse[i] == float(diff @ diff) / 6.0
        # The engine carries the residual through G = A A^T (see
        # test_the_residual_column_is_the_recomputed_residual).
        recomputed = np.linalg.norm(problem.operator @ x - problem.y)
        assert abs(trace.residual[i] - recomputed) <= RESIDUAL_ULPS * np.linalg.norm(problem.y)
        assert trace.frontier_gap[i] == pd.frontier_gap(union, x)
        w = pd.weights(prior, x, trace.sigma[i] ** 2)
        positive = w[w > 0.0]
        assert trace.weight_entropy[i] == float(-np.sum(positive * np.log(positive)))
        # Exact: the argmin and the two smallest of the engine's own stacked
        # pass.  A per-component recomputation sums in another order, so it
        # agrees only to rounding, and on some BLAS kernels differs in the
        # last bit.
        dists = np.sqrt(component_parts(union, x)[2])
        assert trace.nearest[i] == np.argmin(dists)
        assert np.array_equal(trace.subspace_distances[i], np.sort(dists)[:2])
        for k in range(union.n_components):
            basis = union.basis(k)
            dist = float(np.linalg.norm(x - basis @ (basis.T @ x)))
            assert dists[k] == pytest.approx(dist, rel=1e-15)
    # The zero start ties every component, so row 0 has no strict minimiser.
    assert trace.nearest[0] == 0
    assert trace.subspace_distances[0, 0] == trace.subspace_distances[0, 1] == 0.0

    def refuse(z, sg):
        raise AssertionError("denoise must not be called when prior is given")

    for other in (None, refuse):
        again = pd.run_recovery(problem, other, sched, prior=prior, record_iterates=True)
        for col in ("sigma", "mse", "residual", "frontier_gap", "weight_entropy",
                    "nearest", "subspace_distances", "iterates"):
            assert np.array_equal(getattr(again, col), getattr(trace, col)), col


def test_run_recovery_makes_one_union_pass_per_row(monkeypatch):
    prior, problem, _ = tiny_problem()
    passes = []
    original = lrgmm_prior.component_parts

    def counted(union, x):
        passes.append(1)
        return original(union, x)

    monkeypatch.setattr(lrgmm_prior, "component_parts", counted)
    pd.run_recovery(problem, None, geometric(20), prior=prior)
    assert len(passes) == 21
    for name in ("component_parts", "_posterior", "BoxSet", "box_denoiser"):
        assert not hasattr(recovery_engine, name), name


# How far a trace's residual, carried from step to step as r - mu G r, may lie
# from ||A x_n - y|| recomputed from the iterate, in units of ||y||: four unit
# roundoffs of double precision.
RESIDUAL_ULPS = 4 * 2.0**-52
BOX_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads", "box.cfg")


@pytest.mark.parametrize("workload", ["box", "flagship"])
def test_the_residual_column_is_the_recomputed_residual(workload, flagship_setup):
    """residual[n] is ||A x_n - y|| to within RESIDUAL_ULPS ||y||, on the benchmark's box
    (256 x 1024, the first 128 coordinates free) and on the flagship, in rows near ||y||
    and in rows below 1e-8 ||y||: a third run starts 1e-9 off its truth at a small sigma."""
    if workload == "box":
        model, a, mu = build(pd.load_config(BOX_CFG))
    else:
        model, a, mu = flagship_setup.prior, flagship_setup.operator, flagship_setup.mu
    rng = np.random.default_rng(3)
    truths = np.array([model.sample(rng) for _ in range(3)])
    y = truths @ a.T
    free = np.ones(a.shape[1], dtype=bool) if model.active_mask is None else model.active_mask
    x0 = np.zeros_like(truths)
    x0[2] = truths[2] + 1e-9 * np.where(free, rng.standard_normal(a.shape[1]), 0.0)
    schedules = [geometric(60), pd.NoiseSchedule("infinite_geometric", 0.5, a=0.8),
                 pd.NoiseSchedule("infinite_geometric", 1e-9, a=0.8)]
    traces = recovery_engine.run_recoveries(a, mu, y, schedules, 60, model, x_true=truths,
                                            x0=x0, record_iterates=True)
    small = 0
    for trace, y_b in zip(traces, y):
        norm_y = np.linalg.norm(y_b)
        recomputed = np.linalg.norm(trace.iterates @ a.T - y_b, axis=1)
        assert np.all(np.abs(trace.residual - recomputed) <= RESIDUAL_ULPS * norm_y)
        small += np.count_nonzero(recomputed < 1e-8 * norm_y)
    assert small >= 30


def _written(trace, tmp_path, name):
    path = tmp_path / name
    trace.write_csv(path)
    return path.read_bytes()


def test_trace_bytes_do_not_depend_on_the_batch(flagship_setup, tmp_path):
    s = flagship_setup
    runs = []
    for seed in s.trial_seeds:
        x_true = pd.sample(s.prior, np.random.default_rng(seed))
        problem = pd.SensingProblem(s.operator, s.mu, s.operator @ x_true, x_true=x_true,
                                    seed=seed)
        runs += [(problem, schedule) for schedule in s.schedules.values()]
    target = 4 * 5 + 2  # one seed's cosine run
    problem, schedule = runs[target]
    alone = _written(pd.run_recovery(problem, None, schedule, n_iters=150, prior=s.prior),
                     tmp_path, "alone.csv")
    for width, start in ((7, target - 3), (len(runs), 0)):
        batch = runs[start:start + width]
        traces = recovery_engine.run_recoveries(
            s.operator, s.mu, [p.y for p, _ in batch], [sch for _, sch in batch], 150, s.prior,
            x_true=[p.x_true for p, _ in batch], seeds=[p.seed for p, _ in batch])
        assert _written(traces[target - start], tmp_path, f"w{width}.csv") == alone, width


def _box_mask(d, kind):
    """Free coordinates of a test box: which FREE_BLOCK-column blocks of A survive varies."""
    mask = np.zeros(d, dtype=bool)
    if kind == "scattered":
        mask[np.random.default_rng(d).choice(d, size=max(1, d // 40), replace=False)] = True
    elif kind == "ragged":
        mask[[3, d // 2 - 1, d // 2, d - 1]] = True
    elif kind == "trailing":
        mask[-5:] = True
    elif kind == "leading":  # the benchmark's box: the first 128 coordinates
        mask[:128] = True
    elif kind == "all-free":
        mask[:] = True
    return mask


def _box(mask):
    return pd.BoxSet(np.where(mask, -1.0, 0.0), np.where(mask, 1.0, 0.0))


def test_box_trace_bytes_do_not_depend_on_the_batch_or_the_denoise_path(tmp_path):
    """A box run writes the same bytes in any batch and with ``box_denoiser`` as a bare
    ``denoise`` callable, whose model has no ``active_mask`` and so multiplies A whole.

    ``bench/probe.py replay`` times the box workload through that bare callable and
    requires its traces to equal ``simulate``'s byte for byte, so a change that lets the
    free-column product or the residual differ between the two paths fails here first.
    Two operators: the benchmark box's shape, 256 x 1024 with the first 128 coordinates
    free, and one of m > MATVEC_BLOCK and d no multiple of FREE_BLOCK whose blocks 1 and
    3 are pinned.  Each step is also p - mu A^T (A p - y) on a one-row block, A whole.
    """
    scattered = np.zeros(300, dtype=bool)
    scattered[[5, 17, 40, 130, 131, 150, 190, 260, 281, 299]] = True
    cases = [(np.arange(1024) < 128, pd.gaussian_operator(256, 1024, np.random.default_rng(6)),
              4, 12),
             (scattered, pd.gaussian_operator(160, 300, np.random.default_rng(5)), 8, 30)]
    for mask, a, n_seeds, n_iters in cases:
        box = _box(mask)
        mu = 1.9 / pd.spectral_norm(a) ** 2
        schedules = [geometric(30), pd.NoiseSchedule("infinite_geometric", 0.5, a=0.8)]
        runs = []
        for seed in range(n_seeds):
            x_true = pd.sample_box(box, np.random.default_rng(seed))[0]
            problem = pd.SensingProblem(a, mu, a @ x_true, x_true=x_true, seed=seed)
            runs += [(problem, schedule) for schedule in schedules]
        target = len(runs) // 2 + 1
        problem, schedule = runs[target]
        alone = _written(pd.run_recovery(problem, None, schedule, n_iters=n_iters, prior=box),
                         tmp_path, "alone.csv")
        for width, start in ((7, target - 3), (len(runs), 0)):
            batch = runs[start:start + width]
            traces = recovery_engine.run_recoveries(
                a, mu, [p.y for p, _ in batch], [sch for _, sch in batch], n_iters, box,
                x_true=[p.x_true for p, _ in batch], seeds=[p.seed for p, _ in batch])
            assert _written(traces[target - start], tmp_path, f"w{width}.csv") == alone, width
        denoise = lambda z, sg: pd.box_denoiser(box, z, sg)  # noqa: E731
        via_denoise = pd.run_recovery(problem, denoise, schedule, n_iters=n_iters)
        assert _written(via_denoise, tmp_path, "denoise.csv") == alone, a.shape
        trace = pd.run_recovery(problem, None, schedule, n_iters=n_iters, prior=box,
                                record_iterates=True)
        for n in range(n_iters):
            step = _pgd_step(denoise(trace.iterates[n][None], trace.sigma[n]), a, mu,
                             problem.y)
            assert np.array_equal(trace.iterates[n + 1], step[0]), (a.shape, n)


@pytest.mark.parametrize("d", [200, 1000, 1024, 2112])
@pytest.mark.parametrize("m", [12, 130, 256])
def test_box_free_column_product_equals_the_full_product(d, m):
    """Exactly, for every placement of the free blocks.  2112 is past
    FREE_COLUMNS_MAX_DIM, where dropped blocks would move the gemv kernel's chunk bounds,
    so A must be used whole there."""
    rng = np.random.default_rng(d + m)
    a = pd.gaussian_operator(m, d, rng)
    for kind in ("scattered", "ragged", "trailing", "leading", "all-pinned", "all-free"):
        mask = _box_mask(d, kind)
        p = np.where(mask, rng.standard_normal((9, d)), 0.0)  # a box projection block
        product = recovery_engine._forward(a, _box(mask))(p)
        assert np.array_equal(product, recovery_engine._matvec(a, p)), kind


@pytest.mark.parametrize("m", [129, 135, 136, 256, 300])
def test_row_slices_round_like_the_whole_matrix(m):
    """Row slices (and a short last slice joined to the one before) change no gemv bit,
    and a (d,) vector takes the gemv path."""
    rng = np.random.default_rng(m)
    a = pd.gaussian_operator(m, 1024, rng)
    v, w = rng.standard_normal((5, 1024)), rng.standard_normal((5, m))
    matvec = recovery_engine._matvec
    assert np.array_equal(matvec(a, v), np.matmul(a, v[..., None])[..., 0])
    assert np.array_equal(matvec(a.T, w), np.matmul(a.T, w[..., None])[..., 0])
    assert np.array_equal(matvec(a, v[2]), matvec(a, v)[2])


def _matvec_128(a, v):
    """_matvec as it sliced before MATVEC_BYTES: always 128 rows a slice."""
    starts = range(0, a.shape[0] - 7, 128)
    if len(starts) < 2:
        return np.matmul(a, v[..., None])[..., 0]
    out = np.empty(v.shape[:-1] + a.shape[:1])
    for lo, hi in zip(starts, [*starts[1:], a.shape[0]]):
        out[..., lo:hi] = np.matmul(a[lo:hi], v[..., None])[..., 0]
    return out


# The operator products of every workload (flagship 20 x 64, sparse 12 x 16,
# box 256 x 1024 and its 128 free columns), each with its transpose, and
# wide, tall and odd-sized ones: 1000 rows leave a 104-row tail, 300 rows a
# 44-row tail and 166 rows a 38-row one, and 4096 columns are past
# FREE_COLUMNS_MAX_DIM.
PRODUCT_SHAPES = [(256, 1024), (20, 64), (12, 16), (256, 128), (301, 2048), (1000, 300),
                  (77, 513), (135, 1024), (1000, 1024), (256, 4096), (300, 128), (166, 1024)]


@pytest.mark.parametrize("m,d", PRODUCT_SHAPES)
def test_byte_sized_slices_round_like_128_row_slices(m, d):
    """Slices of whole 128-row blocks keep every row's gemv kernel path: the box and
    flagship operators, wide and tall ones, and odd row counts, for A and A^T."""
    rng = np.random.default_rng(m * d)
    a = pd.gaussian_operator(m, d, rng)
    for matrix in (a, a.T):
        v = rng.standard_normal((20, matrix.shape[1]))
        assert np.array_equal(recovery_engine._matvec(matrix, v), _matvec_128(matrix, v))
        assert np.array_equal(recovery_engine._matvec(matrix, v[3]), _matvec_128(matrix, v[3]))


@pytest.mark.parametrize("m,d", PRODUCT_SHAPES)
def test_a_rows_product_does_not_depend_on_its_block(m, d):
    """A row's bytes alone are its bytes at every position of a block and last in a
    block of any size, among zero or random rows: each row is its own gemv.  A (d,)
    vector has the same bytes."""
    rng = np.random.default_rng(m + d)
    a = pd.gaussian_operator(m, d, rng)
    places = np.arange(33) * 34  # a block of 33 * 34 rows holds the row 33 times
    for matrix in (a, a.T):
        row = rng.standard_normal(matrix.shape[1])
        with recovery_engine._one_blas_thread():
            alone = recovery_engine._matvec(matrix, row[None])[0]
            for companions in (np.zeros, rng.standard_normal):
                block = companions((33 * 34, matrix.shape[1]))
                block[places] = row
                for got in recovery_engine._matvec(matrix, block)[places]:
                    assert np.array_equal(got, alone), matrix.shape
                for b in range(2, 66):
                    block = companions((b, matrix.shape[1]))
                    block[-1] = row
                    assert np.array_equal(recovery_engine._matvec(matrix, block)[-1], alone), b
        assert np.array_equal(recovery_engine._matvec(matrix, row), _matvec_128(matrix, row))


def test_the_engine_multiplies_at_one_blas_thread(monkeypatch):
    """run_recoveries, G = A A^T included, with a model or a bare denoise callable, whatever
    the caller's OpenBLAS thread count, which it gets back: a simulate worker's own BLAS
    threads would oversubscribe the CPUs that the workers split."""
    get = recovery_engine._openblas_function("get_num_threads")
    set_ = recovery_engine._openblas_function("set_num_threads")
    if get is None or set_ is None:
        pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
    box = _box(np.arange(256) < 32)
    a = pd.gaussian_operator(128, 256, np.random.default_rng(0))
    x = pd.sample_box(box, np.random.default_rng(1), 3)
    matmul, seen = np.matmul, []

    def counting_matmul(*args, **kwargs):
        seen.append(get())
        return matmul(*args, **kwargs)

    before = get()
    try:
        set_(3)
        monkeypatch.setattr(np, "matmul", counting_matmul)
        recovery_engine.run_recoveries(a, 0.01, x @ a.T, [geometric(5)] * len(x), 5, box)
        _one_step(lambda z, sigma: z, a, 0.01, a @ x[0], x[0], 0.1)
        monkeypatch.undo()
        assert seen and set(seen) == {1}
        assert get() == 3
    finally:
        set_(before)


def test_one_blas_thread_leaves_a_single_thread_alone(monkeypatch):
    """In a forked child, setting the count restarts OpenBLAS's threads, which then spin."""
    calls = []
    counts = {"get_num_threads": lambda: 1, "set_num_threads": calls.append}
    monkeypatch.setattr(recovery_engine, "_openblas_function", counts.get)
    with recovery_engine._one_blas_thread():
        pass
    assert calls == []
    counts["get_num_threads"] = lambda: 2
    with recovery_engine._one_blas_thread():
        assert calls == [1]
    assert calls == [1, 2]


def test_an_all_pinned_box_runs_to_finite_traces():
    box = _box(np.zeros(70, dtype=bool))
    a = pd.gaussian_operator(140, 70, np.random.default_rng(3))
    x_true = pd.sample_box(box, np.random.default_rng(4))[0]
    mu = 1.0 / pd.spectral_norm(a) ** 2
    traces = recovery_engine.run_recoveries(a, mu, [a @ x_true] * 3, [geometric(10)] * 3, 10,
                                            box, x_true=[x_true] * 3, record_iterates=True)
    for trace in traces:
        assert isinstance(trace, pd.RecoveryTrace)
        assert np.isfinite(trace.mse).all() and np.isfinite(trace.residual).all()
        assert not trace.iterates.any()


class _CoordinateProjection:
    """A model the engine does not name: it zeroes the coordinates off a mask."""

    n_components = 0

    def __init__(self, mask):
        self.active_mask = mask

    def step(self, x, sigma):
        return np.where(self.active_mask, x, 0.0), None


def test_a_third_model_needs_no_engine_edit(tmp_path):
    """Any object with the model members runs, and its bytes match the same denoise callable."""
    d, m = 300, 40
    mask = np.zeros(d, dtype=bool)
    mask[[5, 17, 40, 130, 131, 150, 190, 260, 281, 299]] = True  # blocks 1 and 3 are pinned
    model = _CoordinateProjection(mask)
    a = pd.gaussian_operator(m, d, np.random.default_rng(6))
    rng = np.random.default_rng(7)
    p = np.where(mask, rng.standard_normal((4, d)), 0.0)
    assert np.array_equal(recovery_engine._forward(a, model)(p), recovery_engine._matvec(a, p))
    assert recovery_engine.batch_width(model, d, 30) == recovery_engine.batch_width(_box(mask),
                                                                                    d, 30)
    mu = 1.9 / pd.spectral_norm(a) ** 2
    problems = []
    for seed in range(3):
        x_true = np.where(mask, rng.standard_normal(d), 0.0)
        problems.append(pd.SensingProblem(a, mu, a @ x_true, x_true=x_true, seed=seed))
    traces = recovery_engine.run_recoveries(
        a, mu, [p.y for p in problems], [geometric(30)] * 3, 30, model,
        x_true=[p.x_true for p in problems], seeds=[p.seed for p in problems])
    denoise = lambda z, sg: np.where(mask, z, 0.0)  # noqa: E731
    for problem, trace in zip(problems, traces):
        assert trace.subspace_distances is None and np.isnan(trace.frontier_gap).all()
        assert trace.mse[-1] < trace.mse[0]
        alone = pd.run_recovery(problem, denoise, geometric(30))
        assert _written(trace, tmp_path, "model.csv") == _written(alone, tmp_path, "call.csv")


def test_simulate_trace_bytes_do_not_depend_on_the_other_seeds(tmp_path):
    """Two --seed-override subsets that share seeds write those seeds' traces identically."""
    cfg = tmp_path / "flagship.cfg"
    cfg.write_text(
        "[prior]\nkind = lrgmm\nd = 64\nr = 5\nk = 8\nseed = 101\n"
        "[sensing]\nm = 20\nseed = 202\n"
        + "".join(f"[schedule.{kind}]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 150\n"
                  for kind in ("geometric", "linear", "cosine"))
        + "[schedule.infinite_geometric]\nsigma_max = 0.5\na = 0.96\n"
        "[run]\nn_iters = 150\ntrials = 4\n"
    )
    outs = []
    for first in (7000, 7002):
        out = tmp_path / str(first)
        assert cli.main(["simulate", str(cfg), "--seed-override", str(first),
                         "--out", str(out)]) == 0
        outs.append(out)
    shared = sorted(p.name for p in outs[0].glob("trace_*_0700[23].csv"))
    assert len(shared) == 8
    for name in shared:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_simulate_trace_bytes_do_not_depend_on_its_batches(tmp_path, monkeypatch):
    """simulate in one batch, in batches of 3 and one run at a time writes the same bytes."""
    cfg = tmp_path / "small.cfg"
    cfg.write_text(
        "[prior]\nkind = lrgmm\nd = 16\nr = 2\nk = 4\nseed = 11\n"
        "[sensing]\nm = 8\nseed = 12\n"
        "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 40\n"
        "[schedule.infinite_geometric]\nsigma_max = 0.5\na = 0.9\n"
        "[run]\nn_iters = 40\ntrials = 4\n"
    )
    widths = []
    real = recovery_engine.run_recoveries

    def counted(a, mu, y, *args, **kwargs):
        widths.append(len(y))
        return real(a, mu, y, *args, **kwargs)

    monkeypatch.setattr(recovery_engine, "run_recoveries", counted)
    # One worker, so every run_recoveries call is made, and counted, here.
    monkeypatch.setattr(simulate, "_worker_count", lambda n_runs: 1)
    outs = {}
    with monkeypatch.context() as patch:
        outs["one batch"] = tmp_path / "one"
        assert cli.main(["simulate", str(cfg), "--out", str(outs["one batch"])]) == 0
        assert widths == [8]
        patch.setattr(recovery_engine, "batch_width", lambda prior, d, n_iters: 3)
        outs["batches of 3"] = tmp_path / "three"
        assert cli.main(["simulate", str(cfg), "--out", str(outs["batches of 3"])]) == 0
        assert widths[1:] == [3, 3, 2]
    monkeypatch.setattr(recovery_engine, "BATCH_BYTES", 1)
    outs["single runs"] = tmp_path / "single"
    assert cli.main(["simulate", str(cfg), "--out", str(outs["single runs"])]) == 0
    assert widths[4:] == [1] * 8
    names = sorted(p.name for p in outs["one batch"].iterdir())
    assert len(names) == 10  # 8 traces, resolved.cfg and manifest.json
    for label, out in outs.items():
        assert sorted(p.name for p in out.iterdir()) == names, label
        for name in names:
            if name != "resolved.cfg":  # it names its out_dir
                assert (out / name).read_bytes() == (outs["one batch"] / name).read_bytes(), \
                    (label, name)


def test_batch_width_keeps_a_batch_within_its_byte_budget():
    flagship = pd.random_lrgmm(64, 5, 8, np.random.default_rng(0))
    assert recovery_engine.batch_width(flagship, 64, 150) >= 80  # one batch
    box = pd.BoxSet(-np.ones(1024), np.ones(1024))
    assert recovery_engine.batch_width(box, 1024, 150) >= 40
    sparse = pd.sparse_gmm(16, 3)
    width = recovery_engine.batch_width(sparse, 16, 1000)
    # Each run holds 8 trace values per row and, in flight, (560, 16)
    # projections and squared residuals: 0.21 MB.
    assert 1 < width and width * 8 * (1001 * 8 + 2 * 560 * 16) <= recovery_engine.BATCH_BYTES
    many = pd.sparse_gmm(24, 4)  # K = 10626: 4.1 MB in flight per run
    width = recovery_engine.batch_width(many, 24, 2000)
    assert 1 <= width and width * 8 * 2 * 10626 * 24 <= recovery_engine.BATCH_BYTES


def test_run_recoveries_leaves_a_diverged_run_out_and_goes_on():
    """The other runs go on, and each keeps its own y's problem_hash, not a left-over row's."""
    prior, problem, _ = tiny_problem()
    a, mu = problem.operator, problem.mu
    truths = np.array([problem.x_true * scale for scale in (1.0, 2.0, 3.0)])
    y = truths @ a.T
    x0 = np.zeros((3, 6))
    x0[0] = 1e308  # this row overflows in its first step
    with np.errstate(over="ignore", invalid="ignore"):
        results = recovery_engine.run_recoveries(a, mu, y, [geometric(20)] * 3, 20, prior,
                                                 x_true=truths, seeds=[0, 1, 2], x0=x0,
                                                 record_iterates=True)
    assert isinstance(results[0], pd.DivergenceError) and results[0].iteration == 1
    for b in (1, 2):
        alone = pd.run_recovery(pd.SensingProblem(a, mu, y[b], x_true=truths[b], seed=b), None,
                                geometric(20), prior=prior, record_iterates=True)
        assert np.array_equal(results[b].mse, alone.mse)
        assert np.array_equal(results[b].iterates, alone.iterates)
        assert results[b].metadata == alone.metadata
    assert results[1].metadata["problem_hash"] != results[2].metadata["problem_hash"]


@pytest.mark.parametrize("name,shape", [("y", (3, 4)), ("y", (2, 5)), ("x_true", (2, 5)),
                                        ("x_true", (6,))])
def test_run_recoveries_rejects_a_block_of_the_wrong_shape(name, shape):
    prior, problem, _ = tiny_problem()
    blocks = {"y": np.tile(problem.y, (2, 1)), "x_true": np.tile(problem.x_true, (2, 1))}
    blocks[name] = np.zeros(shape)
    want = (2, 4) if name == "y" else (2, 6)
    with pytest.raises(ValueError, match=re.escape(f"{name} must have shape {want}")):
        recovery_engine.run_recoveries(problem.operator, problem.mu, blocks["y"],
                                       [geometric(5)] * 2, 5, prior, x_true=blocks["x_true"])


def test_run_recovery_needs_a_prior_or_a_denoiser():
    _, problem, _ = tiny_problem()
    with pytest.raises(ValueError, match="prior or a denoise"):
        pd.run_recovery(problem, None, geometric(5))


def test_run_recovery_divergence_reports_iteration():
    y = np.ones(2)
    problem = pd.SensingProblem(np.eye(2), 1e6, y)
    with np.errstate(over="ignore"), pytest.raises(pd.DivergenceError) as info:
        pd.run_recovery(problem, lambda z, sg: z, geometric(150))
    assert 1 <= info.value.iteration <= 150


# ------------------------------------------------------------- trace files


def test_trace_csv_round_trip_is_exact(tmp_path):
    prior, problem, denoise = tiny_problem()
    trace = pd.run_recovery(problem, denoise, geometric(12), prior=prior,
                            metadata={"label": "round-trip"})
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    back = pd.RecoveryTrace.read_csv(path)
    assert np.array_equal(back.n, trace.n)
    for col in ("sigma", "mse", "residual", "frontier_gap", "weight_entropy"):
        a, b = getattr(trace, col), getattr(back, col)
        assert np.array_equal(np.nan_to_num(a, nan=-1), np.nan_to_num(b, nan=-1))
    assert np.array_equal(back.nearest, trace.nearest)
    assert np.array_equal(back.subspace_distances, trace.subspace_distances)
    assert back.metadata == trace.metadata
    assert back.iterates is None


def test_trace_rows_match_per_element_formatting(tmp_path):
    rows = 6
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.2250738585072014e-308])
    trace = pd.RecoveryTrace(
        sigma=np.geomspace(0.5, 1e-4, rows),
        mse=special,
        residual=special[::-1].copy(),
        frontier_gap=np.array([0.0, -0.0, np.inf, 1e300, -1e-300, np.nan]),
        weight_entropy=np.full(rows, np.nan),
        nearest=np.array([0, 1, 2, 0, 559, 3]),
        subspace_distances=np.column_stack([special, np.full(rows, 1.0 / 3.0)]),
        metadata={"label": "special values"},
    )
    path = tmp_path / "t.csv"
    trace.write_csv(path)
    cols = [getattr(trace, name) for name in TRACE_COLUMNS[1:]]
    lines = [TRACE_FORMAT_LINE, "# " + json.dumps(trace.metadata, sort_keys=True),
             V2_HEADER]
    lines += [",".join([str(i)] + [format(c[i], ".17g") for c in cols] + [str(trace.nearest[i])]
                       + [format(v, ".17g") for v in trace.subspace_distances[i]])
              for i in range(rows)]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert b",nan," in path.read_bytes() and b",-0," in path.read_bytes()


def test_trace_reader_parses_values_as_float_does(tmp_path):
    texts = ["nan", "inf", "-inf", "-0", "5e-324", "2.2250738585072009e-308",
             "0.10000000000000001", "-1.2345678901234567e-05", "1.7976931348623157e+308",
             "3", "-nan", "0"]
    rows = [texts[i:i + 6] for i in range(0, len(texts), 6)]
    lines = [TRACE_FORMAT_LINE, "# {}", ",".join(TRACE_COLUMNS)]
    lines += [",".join([str(n), *row[1:]]) for n, row in enumerate(rows)]
    path = tmp_path / "t.csv"
    path.write_text("\n".join(lines) + "\n")
    trace = pd.RecoveryTrace.read_csv(path)
    for i, name in enumerate(TRACE_COLUMNS[1:], start=1):
        expected = np.array([float(row[i]) for row in rows])
        assert np.array(getattr(trace, name)).tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("text", [
    "1_0", " 1.5", "1.5 ", "nan", "+inf", "-Infinity", "0x10", "1e5", "",
    "\x1f1.5", "1.5\u3000", "\u0661", "1e400", "-0",
])
def test_trace_reader_accepts_a_field_as_loadtxt_does(tmp_path, text):
    """numpy.loadtxt, which read traces before, is the oracle for each field.

    float() reads 1_0 as 10.0 and the Arabic-Indic digit one as 1.0, and
    does not strip \x1f; loadtxt refuses the first two and strips the last.
    The parser must accept what loadtxt accepts, to the same bits, and
    refuse what it refuses; so must ``RecoveryTrace.read_csv``.
    """
    try:
        want = np.loadtxt([f"0,{text}"], delimiter=",", comments=None, ndmin=2)[0, 1]
    except ValueError:
        want = None
    path = tmp_path / "t.csv"
    path.write_text("\n".join([TRACE_FORMAT_LINE, "# {}", ",".join(TRACE_COLUMNS),
                               f"0,{text},1,0,0,0"]) + "\n", encoding="utf-8")
    for read in (parse_trace, pd.RecoveryTrace.read_csv):
        if want is None:
            with pytest.raises(ValueError, match="malformed data rows$"):
                read(path)
        else:
            assert np.float64(read(path).sigma[0]).tobytes() == want.tobytes(), read


def test_trace_file_starts_with_format_line(tmp_path):
    prior, problem, denoise = tiny_problem()
    trace = pd.run_recovery(problem, denoise, geometric(2), prior=prior)
    path = tmp_path / "t.csv"
    trace.write_csv(path)
    first, _, header = path.read_text().splitlines()[:3]
    assert first == TRACE_FORMAT_LINE == "# projdiff-trace v2"
    assert header == V2_HEADER


@pytest.mark.parametrize("value", ["1.7", "nan", "inf", "1e300"])
def test_trace_reader_rejects_a_non_integer_n(tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([TRACE_FORMAT_LINE, "# {}", ",".join(TRACE_COLUMNS),
                               "0,0.5,1,0,0,0", f"{value},0.5,1,0,0,0"]) + "\n")
    message = f"malformed data rows: column n holds {float(value)!r}, not an iteration number"
    with pytest.raises(ValueError, match=re.escape(message)):
        pd.RecoveryTrace.read_csv(path)


@pytest.mark.parametrize("ns,row,value", [
    ((5, 3, 3, 1, 0, -2), 0, 5),
    ((0, 1, 1, 2), 2, 1),
    ((0, 2, 1), 1, 2),
    ((0, -1), 1, -1),
    ((1, 2, 3), 0, 1),
])
def test_trace_reader_requires_n_to_count_from_0(tmp_path, ns, row, value):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([TRACE_FORMAT_LINE, "# {}", ",".join(TRACE_COLUMNS)]
                              + [f"{n},0.5,{0.25 ** n!r},0,0,0" for n in ns]) + "\n")
    message = (f"malformed data rows: column n holds {float(value)!r}, not an iteration "
               f"number: data row {row} must hold n = {row}")
    with pytest.raises(ValueError, match=re.escape(message)):
        pd.RecoveryTrace.read_csv(path)


@pytest.mark.parametrize(
    "lines, message",
    [
        (["n,sigma", "0,1"], "format line"),
        ([TRACE_FORMAT_LINE, "n,sigma,mse", "0,1,2"], "metadata"),
        ([TRACE_FORMAT_LINE, "# [1]", "n,sigma,mse,residual,frontier_gap,weight_entropy",
          "0,0,0,0,0,0"], "metadata line is not a JSON object"),
        ([TRACE_FORMAT_LINE, "# {}", "a,b,c,d,e,f", "0,0,0,0,0,0"], "columns"),
        (
            [
                TRACE_FORMAT_LINE,
                "# {}",
                "n,sigma,mse,residual,frontier_gap,weight_entropy,dist_0,dist_1",
                "0,0,0,0,0,0,0,0",
            ],
            "unexpected columns",
        ),
        (
            [
                TRACE_FORMAT_LINE,
                "# {}",
                "n,sigma,mse,residual,frontier_gap,weight_entropy",
                "0,0,0",
            ],
            "malformed",
        ),
        (
            [TRACE_FORMAT_LINE, "# {}", "n,sigma,mse,residual,frontier_gap,weight_entropy"],
            "malformed",
        ),
        (
            [TRACE_FORMAT_LINE, "# {}", "n,sigma,mse,residual,frontier_gap,weight_entropy",
             "0,0,0,0,0,0", "1,0,0,0,0"],
            "malformed",
        ),
        (
            [TRACE_FORMAT_LINE, "# {}", "n,sigma,mse,residual,frontier_gap,weight_entropy",
             "0,0,zero,0,0,0"],
            "malformed",
        ),
        (
            [
                "# projdiff-trace v1",
                "# {}",
                "n,sigma,mse,residual,frontier_gap,weight_entropy,dist_0,dist_1",
                "0,0,0,0,0,0,0,0",
            ],
            "a v1 trace, no longer read; rerun simulate to write v2",
        ),
        (
            [
                TRACE_FORMAT_LINE,
                "# {}",
                V2_HEADER,
                "0,0,0,0,0,0,1.5,0,1",
            ],
            "column nearest holds a non-index",
        ),
        (
            [
                TRACE_FORMAT_LINE,
                "# {}",
                V2_HEADER,
                "0,0,0,0,0,0,-1,0,1",
            ],
            "column nearest holds a non-index",
        ),
        ([TRACE_FORMAT_LINE, "# " + "[" * 200_000 + "]" * 200_000,
          "n,sigma,mse,residual,frontier_gap,weight_entropy", "0,0,0,0,0,0"],
         "bad.csv: metadata line is not JSON: maximum recursion depth exceeded"),
        ([TRACE_FORMAT_LINE, "# {bad", "n,sigma,mse,residual,frontier_gap,weight_entropy",
          "0,0,0,0,0,0"], "bad.csv: metadata line is not JSON: Expecting property name"),
    ],
)
def test_trace_reader_rejects_malformed_files(tmp_path, lines, message):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message):
        pd.RecoveryTrace.read_csv(path)


def _problem_hash(problem):
    """The problem_hash that a one-step run of ``problem`` records."""
    return pd.run_recovery(problem, lambda z, sg: z, geometric(1)).metadata["problem_hash"]


@pytest.mark.parametrize("order", ["C", "F"])
def test_problem_hash_hashes_the_operator_in_c_order(order):
    a = np.asarray(pd.gaussian_operator(64, 128, np.random.default_rng(8)), order=order)
    problem = pd.SensingProblem(a, 0.01, np.ones(64))
    digest = hashlib.sha256(a.tobytes())
    digest.update(problem.y.tobytes())
    digest.update(format(problem.mu, ".17g").encode())
    assert _problem_hash(problem) == digest.hexdigest()[:16]
    tracemalloc.start()
    try:
        recovery_engine._operator_digest(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A C-ordered operator is hashed from its own buffer; an F-ordered one is copied.
    assert (peak < a.nbytes // 8) if order == "C" else (peak >= a.nbytes), peak


def test_problem_hash_is_stable_and_sensitive():
    _, problem, _ = tiny_problem()
    h = _problem_hash(problem)
    assert len(h) == 16
    assert h == _problem_hash(problem)
    bumped = pd.SensingProblem(problem.operator, problem.mu * 2, problem.y)
    assert _problem_hash(bumped) != h
    shifted = pd.SensingProblem(problem.operator, problem.mu, problem.y + 1.0)
    assert _problem_hash(shifted) != h
