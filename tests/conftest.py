"""Shared fixtures.

The flagship recovery experiment (d=64, r=5, K=8, m=20, four schedules,
20 trials) is expensive enough that it is run once per session and shared
by every test that inspects its traces.

``log_component_density`` is a one-component oracle for the library's
stacked posterior; tests import it with ``from conftest import ...``.
"""

import math
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

import projdiff as pd

FLAGSHIP_TRIAL_SEEDS = tuple(range(7000, 7020))


def log_component_density(prior, k, x, t):
    """log of pi_k N(x; 0, U_k U_k^T + t I), evaluated without d x d matrices.

    Uses det(U U^T + t I) = (1+t)^r t^(d-r) and
    x^T (U U^T + t I)^{-1} x = ||U^T x||^2/(1+t) + ||x - U U^T x||^2/t.
    """
    basis = prior.union.basis(k)
    d, r = basis.shape
    coeffs = basis.T @ x
    residual = x - basis @ coeffs
    log_det = r * math.log1p(t) + (d - r) * math.log(t)
    quad = float(coeffs @ coeffs) / (1.0 + t) + float(residual @ residual) / t
    return float(prior.log_pi[k]) - 0.5 * (d * math.log(2.0 * math.pi) + log_det + quad)


@pytest.fixture
def package_env():
    """Environment in which a child Python imports this checkout's projdiff."""
    src = os.path.dirname(os.path.dirname(pd.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture(scope="session")
def flagship_setup():
    prior = pd.random_lrgmm(64, 5, 8, np.random.default_rng(101))
    operator = pd.gaussian_operator(20, 64, np.random.default_rng(202))
    mu = 1.9 / pd.spectral_norm(operator) ** 2
    schedules = {
        "geometric": pd.NoiseSchedule("geometric", 0.5, 1e-4, 150),
        "linear": pd.NoiseSchedule("linear", 0.5, 1e-4, 150),
        "cosine": pd.NoiseSchedule("cosine", 0.5, 1e-4, 150),
        "infinite_geometric": pd.NoiseSchedule("infinite_geometric", 0.5, a=0.96),
    }
    return SimpleNamespace(
        prior=prior,
        operator=operator,
        mu=mu,
        schedules=schedules,
        trial_seeds=FLAGSHIP_TRIAL_SEEDS,
    )


@pytest.fixture(scope="session")
def flagship_traces(flagship_setup):
    """All 80 recovery traces of the flagship experiment, plus wall time."""
    s = flagship_setup
    traces = {}
    true_component = {}
    start = time.monotonic()
    for seed in s.trial_seeds:
        x_true = pd.sample(s.prior, np.random.default_rng(seed))
        norms2 = pd.squared_projection_norms(s.prior.union, x_true)
        true_component[seed] = int(np.argmax(norms2))
        y = s.operator @ x_true
        problem = pd.SensingProblem(s.operator, s.mu, y, x_true=x_true, seed=seed)
        for name, schedule in s.schedules.items():
            traces[name, seed] = pd.run_recovery(
                problem, None, schedule, n_iters=150, prior=s.prior,
                record_iterates=False,
            )
    elapsed = time.monotonic() - start
    return SimpleNamespace(
        **vars(s), traces=traces, true_component=true_component, elapsed=elapsed
    )
