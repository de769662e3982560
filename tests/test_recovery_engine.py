import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projdiff as pd
from projdiff import checks, lrgmm_prior, recovery_engine
from projdiff.model_sets import UnionOfSubspaces
from projdiff.recovery_engine import TRACE_FORMAT_LINE


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
    assert pd.NoiseSchedule.from_dict(schedule.to_dict()) == schedule
    # the dict survives JSON, which is how it is stored in trace metadata
    assert pd.NoiseSchedule.from_dict(json.loads(json.dumps(schedule.to_dict()))) == schedule


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


# -------------------------------------------------------------- single step


def test_gpgd_step_identity_operator_unit_mu_lands_on_y():
    y = np.array([2.0, -1.0])
    denoise = lambda z, sg: z
    out = pd.gpgd_step(denoise, np.eye(2), 1.0, y, np.array([5.0, 5.0]), 0.1)
    assert np.array_equal(out, y)


def test_gpgd_step_identity_callback_is_gradient_step():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 5))
    x = rng.normal(size=5)
    y = rng.normal(size=3)
    mu = 0.05
    out = pd.gpgd_step(lambda z, sg: z, a, mu, y, x, 0.2)
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


def test_union_points_are_fixed_points_of_the_oracle_step():
    union = UnionOfSubspaces(
        (pd.coordinate_subspace(6, [0, 1]), pd.coordinate_subspace(6, [3, 4]))
    )
    prior = pd.uniform_lrgmm(union)
    x_hat = pd.sample(prior, np.random.default_rng(81))
    a = pd.gaussian_operator(4, 6, np.random.default_rng(82))
    y = a @ x_hat
    denoise = lambda z, sg: pd.project_union(union, z)[0]
    out = pd.gpgd_step(denoise, a, 0.01, y, x_hat, 1e-3)
    assert np.array_equal(out, x_hat)


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
    trace = pd.run_recovery(problem, denoise, geometric(10), prior=prior)
    assert np.array_equal(trace.iterates[0], np.zeros(6))
    assert trace.mse[0] == pytest.approx(
        float(problem.x_true @ problem.x_true) / 6.0, rel=1e-15
    )


def test_run_recovery_accepts_custom_start():
    prior, problem, denoise = tiny_problem()
    trace = pd.run_recovery(problem, denoise, geometric(5), x0=problem.x_true, prior=prior)
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


def test_run_recovery_iterate_recording_follows_dimension():
    prior, problem, denoise = tiny_problem()
    trace = pd.run_recovery(problem, denoise, geometric(3), prior=prior)
    assert trace.iterates is not None  # d = 6 is small
    big_a = np.ones((1, 300))
    big = pd.SensingProblem(big_a, 0.001, np.zeros(1))
    tr_big = pd.run_recovery(big, lambda z, sg: z, geometric(3))
    assert tr_big.iterates is None
    tr_forced = pd.run_recovery(big, lambda z, sg: z, geometric(3), record_iterates=True)
    assert tr_forced.iterates.shape == (4, 300)


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
    trace = pd.run_recovery(problem, denoise, sched, prior=prior)
    union = prior.union
    for n in range(20):
        step = pd.gpgd_step(denoise, problem.operator, problem.mu, problem.y,
                            trace.iterates[n], trace.sigma[n])
        assert np.array_equal(trace.iterates[n + 1], step)
    for i in (0, 7, 20):
        x = trace.iterates[i]
        diff = x - problem.x_true
        assert trace.mse[i] == float(diff @ diff) / 6.0
        assert trace.residual[i] == float(
            np.linalg.norm(problem.operator @ x - problem.y)
        )
        assert trace.frontier_gap[i] == pd.frontier_gap(union, x)
        w = pd.weights(prior, x, trace.sigma[i] ** 2)
        positive = w[w > 0.0]
        assert trace.weight_entropy[i] == float(-np.sum(positive * np.log(positive)))
        for k, sub in enumerate(union.subspaces):
            dist = float(np.linalg.norm(x - sub.basis @ (sub.basis.T @ x)))
            assert trace.subspace_distances[i, k] == dist

    def refuse(z, sg):
        raise AssertionError("denoise must not be called when prior is given")

    for other in (None, refuse):
        again = pd.run_recovery(problem, other, sched, prior=prior)
        for col in ("sigma", "mse", "residual", "frontier_gap", "weight_entropy",
                    "subspace_distances", "iterates"):
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
    assert not hasattr(recovery_engine, "component_parts")
    assert not hasattr(recovery_engine, "_posterior")


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
    assert np.array_equal(back.subspace_distances, trace.subspace_distances)
    assert back.metadata == trace.metadata
    assert back.iterates is None


def test_trace_file_starts_with_format_line(tmp_path):
    prior, problem, denoise = tiny_problem()
    trace = pd.run_recovery(problem, denoise, geometric(2), prior=prior)
    path = tmp_path / "t.csv"
    trace.write_csv(path)
    first = path.read_text().splitlines()[0]
    assert first == TRACE_FORMAT_LINE == "# projdiff-trace v1"


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
                "n,sigma,mse,residual,frontier_gap,weight_entropy,dist_1",
                "0,0,0,0,0,0,0",
            ],
            "distance columns",
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
    ],
)
def test_trace_reader_rejects_malformed_files(tmp_path, lines, message):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message):
        pd.RecoveryTrace.read_csv(path)


def test_problem_hash_is_stable_and_sensitive():
    _, problem, _ = tiny_problem()
    h = pd.problem_hash(problem)
    assert len(h) == 16
    assert h == pd.problem_hash(problem)
    bumped = pd.SensingProblem(problem.operator, problem.mu * 2, problem.y)
    assert pd.problem_hash(bumped) != h
    shifted = pd.SensingProblem(problem.operator, problem.mu, problem.y + 1.0)
    assert pd.problem_hash(shifted) != h
