"""Shared fixtures.

The flagship recovery experiment (d=64, r=5, K=8, m=20, four schedules,
20 trials) is checked in once, as ``experiments/flagship.cfg``.  Its data
is what ``projdiff simulate`` writes for that config: one simulate per
session, whose traces every test that inspects them reads back.

``log_component_density`` is a one-component oracle for the library's
stacked posterior, and ``assert_pinned`` checks an exact value recorded per
BLAS core (``cli.blas_core``, which simulate's manifest records); tests
import them with ``from conftest import ...``.
"""

import math
import os
import time
from types import SimpleNamespace

import pytest

import projdiff as pd
from projdiff import cli
from projdiff.cli import blas_core
from projdiff.config import build

FLAGSHIP_CFG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "experiments", "flagship.cfg")


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


def assert_pinned(pins, got):
    """Assert that ``got`` is the value ``pins`` records for the active BLAS core.

    On a core with no recorded value the test fails, naming the core and
    the value it computes there.
    """
    core = blas_core()
    if core not in pins:
        pytest.fail(f"no value is recorded for the BLAS core {core!r}, which gives {got!r}. "
                    f"Run the test under OPENBLAS_CORETYPE set to each recorded core, check "
                    f"that this value differs from theirs by rounding only, and record it "
                    f"under {core!r}.", pytrace=False)
    assert got == pins[core], core


@pytest.fixture
def package_env():
    """Environment in which a child Python imports this checkout's projdiff."""
    src = os.path.dirname(os.path.dirname(pd.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture(scope="session")
def flagship_setup():
    """The flagship's prior, operator and mu, built from its config as ``simulate`` builds them."""
    cfg = pd.load_config(FLAGSHIP_CFG)
    prior, operator, mu = build(cfg)
    return SimpleNamespace(
        prior=prior,
        operator=operator,
        mu=mu,
        schedules=dict(cfg.schedules),
        trial_seeds=cfg.trial_seeds,
    )


@pytest.fixture(scope="session")
def flagship_traces(flagship_setup, tmp_path_factory):
    """The 80 traces one ``projdiff simulate`` of the flagship config writes into ``out``.

    ``elapsed`` is the wall time of that simulate.
    """
    s = flagship_setup
    out = str(tmp_path_factory.mktemp("flagship"))
    start = time.monotonic()
    assert cli.main(["simulate", FLAGSHIP_CFG, "--out", out]) == 0
    elapsed = time.monotonic() - start
    traces = {
        (name, seed): pd.RecoveryTrace.read_csv(os.path.join(out, cli._trace_name(name, seed)))
        for seed in s.trial_seeds
        for name in s.schedules
    }
    first = next(iter(s.schedules))
    true_component = {seed: traces[first, seed].metadata["true_component"]
                      for seed in s.trial_seeds}
    return SimpleNamespace(
        **vars(s), out=out, traces=traces, true_component=true_component, elapsed=elapsed
    )
