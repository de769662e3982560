"""Executable invariant suite behind the ``check`` subcommand.

Each invariant is one measurement function that returns one number; this
module is its only implementation.  ``run_checks`` compares each number with
the bound in ``CHECKS`` and reports a flat CSV, and ``tests/test_acceptance.py``
calls the same functions at the ``--full`` sizes against its own fixed
bounds.  The two measurements most likely to catch a silent regression
(the posterior-mean identity and weight normalisation at tiny noise) take
the implementation they measure as a parameter, the library's by default:
that is how the tests confirm that a broken build actually trips them.
``run_checks`` always measures the library's own.
"""

import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import convex_prior, lrgmm_prior
from .diagnostics import fit_linear_rate, projection_gap
from .errors import FrontierError
from .convex_prior import BoxSet, project_box
from .model_sets import UnionOfSubspaces, coordinate_subspace, project_union, random_union
from .recovery_engine import TRACE_COLUMNS, NoiseSchedule, RecoveryTrace, gpgd_step, \
    kadkhodaie_step, run_recovery, schedule_sigma
from .sensing_analysis import SensingProblem, gaussian_operator, ric_union

CHECK_LEVELS = ("fast", "full")


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    bound: float
    passed: bool


def worst_case(values) -> float:
    """Largest of ``values`` (0.0 for none), or inf if any is not finite.

    Every maximum below goes through here: ``max(0.0, nan)`` would drop a NaN.
    """
    values = [float(v) for v in values]
    return max(values, default=0.0) if all(map(math.isfinite, values)) else math.inf


def tweedie_defect(n_instances, denoiser_fn=lrgmm_prior.denoiser) -> float:
    """Worst relative gap between sigma^2 * grad log-density and D(x) - x."""
    r = np.random.default_rng(31337)
    defects = []
    for trial in range(n_instances):
        d = int(r.integers(2, 9))
        k = int(r.integers(1, 5))
        ranks = [int(r.integers(1, max(2, d // 2 + 1))) for _ in range(k)]
        prior = lrgmm_prior.LrGmmPrior(
            random_union(d, ranks, np.random.default_rng(int(r.integers(1 << 30)))),
            r.dirichlet(np.ones(k)),
        )
        x = r.normal(size=d) * float(10 ** r.uniform(-0.5, 0.5))
        sigma = [0.1, 0.5, 1.0][trial % 3]
        ev = denoiser_fn(prior, x, sigma)
        h = 1e-5
        grad = np.empty(d)
        for i, e in enumerate(np.eye(d) * h):
            grad[i] = (
                denoiser_fn(prior, x + e, sigma).log_density
                - denoiser_fn(prior, x - e, sigma).log_density
            ) / (2 * h)
        lhs = sigma * sigma * grad
        rhs = ev.value - x
        defects.append(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
    return worst_case(defects)


def weight_sum_defect(weights_fn=lrgmm_prior.weights) -> float:
    """Worst |sum of posterior weights - 1| at t = 1e-8 and 1e-10."""
    r = np.random.default_rng(808)
    defects = []
    for _ in range(6):
        d = int(r.integers(3, 9))
        k = int(r.integers(2, 5))
        prior = lrgmm_prior.LrGmmPrior(
            random_union(d, [int(r.integers(1, d)) for _ in range(k)], r)
        )
        for scale in (1.0, 1e3):
            x = r.normal(size=d) * scale
            for t in (1e-8, 1e-10):
                # A non-finite weight makes the sum, hence the defect, non-finite.
                w = np.asarray(weights_fn(prior, x, t), dtype=float)
                defects.append(abs(float(np.sum(w)) - 1.0))
    return worst_case(defects)


def k1_law_defect() -> float:
    """Worst distance of the one-subspace sup-gap from sigma^2 / (1 + sigma^2)."""
    basis = coordinate_subspace(6, [0, 1])
    prior = lrgmm_prior.LrGmmPrior(UnionOfSubspaces([basis]))
    defects = []
    for sigma in (1e-4, 1e-2, 0.5):
        t = sigma * sigma
        gaps = []
        for e in np.eye(6):
            ev = lrgmm_prior.denoiser(prior, e, sigma)
            gaps.append(np.linalg.norm(ev.value - basis @ (basis.T @ e)))
        defects.append(abs(worst_case(gaps) - t / (1.0 + t)))
    return worst_case(defects)


def gap_envelope_violations(n_instances) -> int:
    """Off-frontier instances whose denoiser-vs-projection gap exceeds its envelope."""
    r = np.random.default_rng(4242)
    violations = 0
    n_checked = 0
    while n_checked < n_instances:
        d = int(r.integers(4, 17))
        k = int(r.integers(2, 5))
        rank = int(r.integers(1, d // 2 + 1))
        prior = lrgmm_prior.LrGmmPrior(
            random_union(d, [rank] * k, np.random.default_rng(int(r.integers(1 << 30)))),
            r.dirichlet(np.ones(k)),
        )
        x = r.normal(size=d)
        sigma = float(10 ** r.uniform(-3, math.log10(0.5)))
        try:
            res = projection_gap(prior, x, sigma)
        except FrontierError:
            continue
        if not res.gap <= res.bound + 1e-12:  # a NaN gap is a violation
            violations += 1
        n_checked += 1
    return violations


def pythagoras_defect() -> float:
    """Worst relative defect of |x|^2 = |P(x)|^2 + |x - P(x)|^2 on random unions."""
    r = np.random.default_rng(909)
    defects = []
    for _ in range(200):
        d = int(r.integers(2, 12))
        k = int(r.integers(1, 5))
        union = random_union(d, [int(r.integers(1, d)) for _ in range(k)], r)
        x = r.normal(size=d) * 3
        point, _ = project_union(union, x)
        lhs = float(x @ x)
        rhs = float(point @ point) + float((x - point) @ (x - point))
        defects.append(abs(lhs - rhs) / max(lhs, 1.0))
    return worst_case(defects)


def schedule_increases() -> int:
    """Steps at which some schedule's sigma rises over 150 iterations."""
    schedules = [
        NoiseSchedule("geometric", 0.5, 1e-4, 150),
        NoiseSchedule("linear", 0.5, 1e-4, 150),
        NoiseSchedule("cosine", 0.5, 1e-4, 150),
        NoiseSchedule("infinite_geometric", 0.5, a=0.96),
    ]
    increases = 0
    for sched in schedules:
        values = [schedule_sigma(sched, n) for n in range(151)]
        # Written so that a NaN sigma counts as an increase.
        increases += sum(1 for a, b in zip(values, values[1:]) if not b <= a * (1 + 1e-12))
    return increases


def step_form_defect(n_states) -> float:
    """Worst gap between the one-shot step and the callback step at mu = 1."""
    prior = lrgmm_prior.random_lrgmm(16, 2, 3, np.random.default_rng(61))
    a = gaussian_operator(8, 16, np.random.default_rng(67))
    xs = np.random.default_rng(71).normal(size=(n_states, 16))
    y = a @ lrgmm_prior.sample(prior, np.random.default_rng(73))
    denoise = lambda z, sg: lrgmm_prior.denoiser(prior, z, sg).value
    defects = []
    for x in xs:
        lhs = kadkhodaie_step(prior, a, y, x, 0.25)
        rhs = gpgd_step(denoise, a, 1.0, y, x, 0.25)
        defects.append(float(np.max(np.abs(lhs - rhs))) / (1.0 + float(np.linalg.norm(x))))
    return worst_case(defects)


def box_tail_defect() -> float:
    """Error of a far-tail truncated-normal mean against its exact value."""
    got = float(convex_prior.truncated_normal_mean(-1.0, 1.0, 5.0, 1e-3))
    # The exact mean is below 1; reaching 1 (or NaN) means the tail was lost.
    return abs(got - 0.99999975000003125) if got < 1.0 else math.inf


def box_mc_max_z(n_configs, n_samples) -> float:
    """Largest z-score of the exact box denoiser against a Monte Carlo estimate."""
    r = np.random.default_rng(5150)
    z_scores = []
    for cfg in range(n_configs):
        s_dim = int(r.integers(1, 4))
        lo = -(0.3 + 1.2 * r.random(s_dim))
        hi = 0.3 + 1.2 * r.random(s_dim)
        box = BoxSet(lower=lo, upper=hi)
        sigma = float(r.uniform(0.25, 1.0))
        y = project_box(box, r.normal(size=s_dim)) + sigma * 0.5 * r.normal(size=s_dim)
        exact = convex_prior.box_denoiser(box, y, sigma)
        est = convex_prior.mc_denoiser(
            box, y, sigma, n_samples, np.random.default_rng(9000 + cfg)
        )
        z_scores.extend(np.abs(exact - est.value) / est.stderr)
    return worst_case(z_scores)


def ric_probe_defect() -> float:
    """Error of ric_union on two probes with known answers: zero map 1, isometry 0."""
    union = UnionOfSubspaces([coordinate_subspace(8, sup) for sup in ([0, 1], [2, 3], [4, 5])])
    perm = np.eye(8)[np.array([3, 1, 4, 0, 6, 2, 7, 5])]
    perm[0] *= -1
    return worst_case([abs(ric_union(np.zeros((4, 8)), 1.0, union) - 1.0),
                       abs(ric_union(perm, 1.0, union))])


def rate_fit_defect() -> float:
    """Error of fit_linear_rate on an exact 0.5-per-step decay."""
    trace = RecoveryTrace(
        n=np.arange(12),
        sigma=np.geomspace(0.5, 1e-4, 12),
        mse=0.25 ** np.arange(12),
        residual=np.zeros(12),
        frontier_gap=np.full(12, np.nan),
        weight_entropy=np.full(12, np.nan),
    )
    return abs(fit_linear_rate(trace).rate - 0.5)


def trace_roundtrip_mismatches() -> int:
    """Trace fields that differ after a CSV write and read."""
    prior = lrgmm_prior.random_lrgmm(5, 1, 2, np.random.default_rng(303))
    a = gaussian_operator(3, 5, np.random.default_rng(304))
    x_true = lrgmm_prior.sample(prior, np.random.default_rng(305))
    problem = SensingProblem(a, 1.0 / 50.0, a @ x_true, x_true=x_true, seed=305)
    trace = run_recovery(problem, None, NoiseSchedule("geometric", 0.5, 1e-3, 10), prior=prior)
    fd, path = tempfile.mkstemp(suffix=".csv")
    os.close(fd)
    try:
        trace.write_csv(path)
        back = RecoveryTrace.read_csv(path)
    finally:
        os.unlink(path)
    columns = TRACE_COLUMNS + ("subspace_distances",)
    mismatches = sum(
        not np.array_equal(getattr(trace, col), getattr(back, col), equal_nan=True)
        for col in columns
    )
    return mismatches + (trace.metadata != back.metadata)


# (name, measurement, fast-level arguments, full-level arguments, bound)
CHECKS = (
    ("tweedie_identity", tweedie_defect, (40,), (200,), 1e-4),
    ("weight_stability", weight_sum_defect, (), (), 1e-10),
    ("k1_operator_law", k1_law_defect, (), (), 1e-12),
    ("gap_envelope", gap_envelope_violations, (300,), (10_000,), 0),
    ("union_pythagoras", pythagoras_defect, (), (), 1e-9),
    ("schedule_monotone", schedule_increases, (), (), 0),
    ("form_equivalence", step_form_defect, (20,), (100,), 1e-10),
    ("box_tail_value", box_tail_defect, (), (), 1e-12),
    ("box_mc_agreement", box_mc_max_z, (5, 30_000), (50, 150_000), 4.0),
    ("ric_exact_probes", ric_probe_defect, (), (), 1e-12),
    ("rate_fit_exact", rate_fit_defect, (), (), 1e-12),
    ("trace_roundtrip", trace_roundtrip_mismatches, (), (), 0),
)


def run_checks(level: str = "fast") -> list:
    """Run the invariant suite; returns a list of CheckResult."""
    if level not in CHECK_LEVELS:
        raise ValueError(f"level must be one of {CHECK_LEVELS}, got {level!r}")
    results = []
    for name, measure, fast_args, full_args, bound in CHECKS:
        args = full_args if level == "full" else fast_args
        value = float(measure(*args))
        results.append(CheckResult(name, value, float(bound), value <= bound))
    return results


def report_csv(results) -> str:
    lines = ["name,value,bound,pass"]
    for res in results:
        lines.append(
            f"{res.name},{format(res.value, '.17g')},{format(res.bound, '.17g')},"
            f"{'true' if res.passed else 'false'}"
        )
    return "\n".join(lines) + "\n"


def report_table(results) -> str:
    width = max(len(res.name) for res in results)
    lines = []
    for res in results:
        status = "ok  " if res.passed else "FAIL"
        lines.append(
            f"{status} {res.name.ljust(width)}  value={res.value:.3e}  bound={res.bound:.3e}"
        )
    n_failed = sum(1 for res in results if not res.passed)
    lines.append(f"{len(results) - n_failed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
