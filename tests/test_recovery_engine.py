import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projdiff as pd
from projdiff import checks, cli, lrgmm_prior, recovery_engine
from projdiff.model_sets import UnionOfSubspaces, component_parts
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
    union = UnionOfSubspaces([pd.coordinate_subspace(6, [0, 1]), pd.coordinate_subspace(6, [3, 4])])
    prior = pd.LrGmmPrior(union)
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
    (batched,) = recovery_engine.run_recoveries([problem], [geometric(3)], 3, prior=prior)
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
        # Exact: the engine's own stacked pass.  A per-component recomputation
        # sums in another order, so it agrees only to rounding, and on some
        # BLAS kernels differs in the last bit.
        assert np.array_equal(trace.subspace_distances[i],
                              np.sqrt(component_parts(union, x)[2]))
        for k in range(union.n_components):
            basis = union.basis(k)
            dist = float(np.linalg.norm(x - basis @ (basis.T @ x)))
            assert trace.subspace_distances[i, k] == pytest.approx(dist, rel=1e-15)

    def refuse(z, sg):
        raise AssertionError("denoise must not be called when prior is given")

    for other in (None, refuse):
        again = pd.run_recovery(problem, other, sched, prior=prior, record_iterates=True)
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
    for name in ("component_parts", "_posterior", "BoxSet", "box_denoiser"):
        assert not hasattr(recovery_engine, name), name


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
            [p for p, _ in batch], [sch for _, sch in batch], 150, prior=s.prior)
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
    elif kind == "all-free":
        mask[:] = True
    return mask


def _box(mask):
    return pd.BoxSet(np.where(mask, -1.0, 0.0), np.where(mask, 1.0, 0.0))


def test_box_trace_bytes_do_not_depend_on_the_batch_or_the_denoise_path(tmp_path):
    """m > MATVEC_ROWS and blocks of pinned columns: both cut-down products stay exact."""
    d, m = 300, 160  # d is no multiple of FREE_BLOCK; A is taken in two row slices
    mask = np.zeros(d, dtype=bool)
    mask[[5, 17, 40, 130, 131, 150, 190, 260, 281, 299]] = True  # blocks 1 and 3 are pinned
    box = _box(mask)
    a = pd.gaussian_operator(m, d, np.random.default_rng(5))
    mu = 1.9 / pd.spectral_norm(a) ** 2
    schedules = [geometric(30), pd.NoiseSchedule("infinite_geometric", 0.5, a=0.8)]
    runs = []
    for seed in range(8):
        x_true = pd.sample_box(box, np.random.default_rng(seed))[0]
        problem = pd.SensingProblem(a, mu, a @ x_true, x_true=x_true, seed=seed)
        runs += [(problem, schedule) for schedule in schedules]
    target = 9
    problem, schedule = runs[target]
    alone = _written(pd.run_recovery(problem, None, schedule, n_iters=30, prior=box),
                     tmp_path, "alone.csv")
    for width, start in ((7, target - 3), (len(runs), 0)):
        batch = runs[start:start + width]
        traces = recovery_engine.run_recoveries(
            [p for p, _ in batch], [sch for _, sch in batch], 30, prior=box)
        assert _written(traces[target - start], tmp_path, f"w{width}.csv") == alone, width
    denoise = lambda z, sg: pd.box_denoiser(box, z, sg)  # noqa: E731
    via_denoise = pd.run_recovery(problem, denoise, schedule, n_iters=30)
    assert _written(via_denoise, tmp_path, "denoise.csv") == alone
    trace = pd.run_recovery(problem, None, schedule, n_iters=30, prior=box,
                            record_iterates=True)
    for n in range(30):
        step = pd.gpgd_step(denoise, a, mu, problem.y, trace.iterates[n], trace.sigma[n])
        assert np.array_equal(trace.iterates[n + 1], step), n


@pytest.mark.parametrize("d", [200, 1000, 1024, 2112])
@pytest.mark.parametrize("m", [12, 130, 256])
def test_box_free_column_product_equals_the_full_product(d, m):
    # 2112 is past FREE_COLUMNS_MAX_DIM, where dropped blocks would move the
    # gemv kernel's chunk bounds, so A must be used whole there.
    rng = np.random.default_rng(d + m)
    a = pd.gaussian_operator(m, d, rng)
    for kind in ("scattered", "ragged", "trailing", "all-pinned", "all-free"):
        mask = _box_mask(d, kind)
        p = np.where(mask, rng.standard_normal((9, d)), 0.0)  # a box projection block
        product = recovery_engine._forward(a, _box(mask))(p)
        assert np.array_equal(product, recovery_engine._matvec(a, p)), kind


@pytest.mark.parametrize("m", [129, 135, 136, 256, 300])
def test_row_slices_round_like_the_whole_matrix(m):
    """Row slices (and a short last slice joined to the one before) change no bit."""
    rng = np.random.default_rng(m)
    a = pd.gaussian_operator(m, 1024, rng)
    v, w = rng.standard_normal((5, 1024)), rng.standard_normal((5, m))
    assert np.array_equal(recovery_engine._matvec(a, v), np.matmul(a, v[..., None])[..., 0])
    assert np.array_equal(recovery_engine._matvec(a.T, w),
                          np.matmul(a.T, w[..., None])[..., 0])
    assert np.array_equal(recovery_engine._matvec(a, v[2]), recovery_engine._matvec(a, v)[2])


def test_an_all_pinned_box_runs_to_finite_traces():
    box = _box(np.zeros(70, dtype=bool))
    a = pd.gaussian_operator(140, 70, np.random.default_rng(3))
    x_true = pd.sample_box(box, np.random.default_rng(4))[0]
    problem = pd.SensingProblem(a, 1.0 / pd.spectral_norm(a) ** 2, a @ x_true, x_true=x_true)
    traces = recovery_engine.run_recoveries([problem] * 3, [geometric(10)] * 3, 10, prior=box,
                                            record_iterates=True)
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
    traces = recovery_engine.run_recoveries(problems, [geometric(30)] * 3, 30, model)
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

    def counted(problems, *args, **kwargs):
        widths.append(len(problems))
        return recovery_engine.run_recoveries(problems, *args, **kwargs)

    monkeypatch.setattr(cli, "run_recoveries", counted)
    # One worker, so every run_recoveries call is made, and counted, here.
    monkeypatch.setattr(cli, "_worker_count", lambda n_runs: 1)
    outs = {}
    with monkeypatch.context() as patch:
        outs["one batch"] = tmp_path / "one"
        assert cli.main(["simulate", str(cfg), "--out", str(outs["one batch"])]) == 0
        assert widths == [8]
        patch.setattr(cli, "batch_width", lambda prior, d, n_iters: 3)
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
    # Each run holds (1001, 560) distance columns: 4.5 MB.
    assert 1 < width and width * 1001 * 560 * 8 <= recovery_engine.BATCH_BYTES
    many = pd.sparse_gmm(24, 4)  # K = 10626
    assert recovery_engine.batch_width(many, 24, 2000) == 1


def test_run_recoveries_leaves_a_diverged_run_out_and_goes_on():
    prior, problem, _ = tiny_problem()
    x0 = np.zeros((3, 6))
    x0[1] = 1e308  # this row overflows in its first step
    with np.errstate(over="ignore", invalid="ignore"):
        results = recovery_engine.run_recoveries([problem] * 3, [geometric(20)] * 3, 20,
                                                 prior=prior, x0=x0, record_iterates=True)
    assert isinstance(results[1], pd.DivergenceError) and results[1].iteration == 1
    alone = pd.run_recovery(problem, None, geometric(20), prior=prior, record_iterates=True)
    for trace in (results[0], results[2]):
        assert np.array_equal(trace.mse, alone.mse)
        assert np.array_equal(trace.iterates, alone.iterates)


def test_run_recoveries_needs_one_operator():
    prior, problem, _ = tiny_problem()
    other = pd.SensingProblem(problem.operator * 2.0, problem.mu, problem.y * 2.0)
    with pytest.raises(ValueError, match="share the operator and mu"):
        recovery_engine.run_recoveries([problem, other], [geometric(5)] * 2, 5, prior=prior)


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


def test_trace_rows_match_per_element_formatting(tmp_path):
    rows = 6
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.2250738585072014e-308])
    trace = pd.RecoveryTrace(
        n=np.arange(rows),
        sigma=np.geomspace(0.5, 1e-4, rows),
        mse=special,
        residual=special[::-1].copy(),
        frontier_gap=np.array([0.0, -0.0, np.inf, 1e300, -1e-300, np.nan]),
        weight_entropy=np.full(rows, np.nan),
        subspace_distances=np.column_stack([special, np.full(rows, 1.0 / 3.0)]),
        metadata={"label": "special values"},
    )
    path = tmp_path / "t.csv"
    trace.write_csv(path)
    cols = [getattr(trace, name) for name in recovery_engine.TRACE_COLUMNS[1:]]
    cols += [trace.subspace_distances[:, k] for k in range(2)]
    lines = [TRACE_FORMAT_LINE, "# " + json.dumps(trace.metadata, sort_keys=True),
             ",".join(trace.column_names())]
    lines += [",".join([str(i)] + [format(c[i], ".17g") for c in cols]) for i in range(rows)]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert b",nan," in path.read_bytes() and b",-0," in path.read_bytes()


def test_trace_reader_parses_values_as_float_does(tmp_path):
    texts = ["nan", "inf", "-inf", "-0", "5e-324", "2.2250738585072009e-308",
             "0.10000000000000001", "-1.2345678901234567e-05", "1.7976931348623157e+308",
             "3", "-nan", "0"]
    rows = [texts[i:i + 6] for i in range(0, len(texts), 6)]
    lines = [TRACE_FORMAT_LINE, "# {}", ",".join(recovery_engine.TRACE_COLUMNS)]
    lines += [",".join([str(n), *row[1:]]) for n, row in enumerate(rows)]
    path = tmp_path / "t.csv"
    path.write_text("\n".join(lines) + "\n")
    trace = pd.RecoveryTrace.read_csv(path)
    for i, name in enumerate(recovery_engine.TRACE_COLUMNS[1:], start=1):
        expected = np.array([float(row[i]) for row in rows])
        assert getattr(trace, name).tobytes() == expected.tobytes(), name


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
