"""Config dialect, check-suite hooks, and the command line surface."""

import csv
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projdiff as pd
from conftest import assert_pinned, log_component_density
from projdiff import checks, cli, config, lrgmm_prior, model_sets, modelio, recovery_engine, \
    sensing_analysis
from projdiff.checks import run_checks
from projdiff.config import (
    _PRIOR_KEYS,
    DEFAULT_BASE_SEED,
    DEFAULT_PRIOR_SEED,
    DEFAULT_SENSING_SEED,
    MU_AUTO,
    _parse_prior,
)


SMALL_CONFIG = """\
[prior]
kind = lrgmm
d = 16
r = 2
k = 4
seed = 11

[sensing]
m = 16
seed = 12

[schedule.geometric]
sigma_max = 0.5
sigma_min = 1e-7
horizon = 120

[run]
trial_seeds = 13
"""

TWO_SCHEDULE_CONFIG = """\
[prior]
kind = lrgmm
d = 8
r = 1
k = 2
seed = 41

[sensing]
m = 8
seed = 42

[schedule.geometric]
sigma_max = 0.5
sigma_min = 1e-6
horizon = 60

[schedule.lin]
kind = linear
sigma_max = 0.5
sigma_min = 1e-6
horizon = 60

[run]
trial_seeds = 43 44
"""


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


# ----------------------------------------------------------------- config


def test_parse_resolves_every_default():
    cfg = pd.parse_config(
        "[prior]\nkind = lrgmm\nd = 8\nr = 1\nk = 2\n"
        "[sensing]\nm = 8\n"
        "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 30\n"
        "[run]\ntrials = 3\n"
    )
    assert cfg.prior.seed == DEFAULT_PRIOR_SEED
    assert cfg.prior.pi is None
    assert cfg.sensing.seed == DEFAULT_SENSING_SEED
    assert cfg.sensing.mu == MU_AUTO
    assert cfg.trial_seeds == tuple(DEFAULT_BASE_SEED + i for i in range(3))
    assert cfg.n_iters == 30  # shortest finite horizon
    assert cfg.out_dir == "out"


def test_serialize_parse_is_a_fixed_point():
    texts = [
        SMALL_CONFIG,
        TWO_SCHEDULE_CONFIG,
        # sparse prior, explicit pi, explicit mu, an infinite schedule
        "[prior]\nkind = sparse\nd = 5\ns = 2\npi = "
        + " ".join(["0.1"] * 10)
        + "\n[sensing]\nm = 4\nseed = 9\nmu = 0.125\n"
        "[schedule.slow]\nkind = infinite_geometric\nsigma_max = 0.5\na = 0.96\n"
        "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 40\n"
        "[run]\ntrials = 2\nbase_seed = 7\nn_iters = 40\nout_dir = elsewhere\n",
        "[prior]\nkind = box\nlower = -1 -2\nupper = 1 0.5\n"
        "[sensing]\nm = 2\n"
        "[schedule.cosine]\nsigma_max = 0.3\nsigma_min = 1e-3\nhorizon = 25\n"
        "[run]\ntrial_seeds = 5\n",
        "[prior]\nkind = file\npath = some/model.txt\n"
        "[sensing]\nm = 6\n"
        "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 20\n"
        "[run]\ntrial_seeds = 1 2 3\n",
    ]
    for text in texts:
        cfg = pd.parse_config(text)
        canonical = pd.serialize_config(cfg)
        again = pd.parse_config(canonical)
        assert again == cfg
        assert pd.serialize_config(again) == canonical


@pytest.mark.parametrize(
    "text,match",
    [
        ("[prior]\nkind = lrgmm\nd = 4\nr = 1\nk = 1\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n",
         r"\[run\]: required section"),
        ("[prior]\nkind = lrgmm\nd = 4\nr = 1\nk = 1\nzzz = 1\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         r"\[prior\] zzz: unknown key"),
        ("[prior]\nkind = pyramid\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         r"\[prior\] kind"),
        ("[prior]\nkind = lrgmm\nd = 4\nr = 1\nk = 1\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\nn_iters = 200\n",
         r"\[schedule\.geometric\] horizon: n_iters=200 exceeds the horizon 10"),
        ("[prior]\nkind = lrgmm\nd = 4\nr = 1\nk = 1\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 2\ntrial_seeds = 1 2\n",
         "either trials or trial_seeds"),
        ("[prior]\nkind = lrgmm\nd = 4\nr = 1\nk = 1\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrial_seeds = 3 3\n",
         "must be distinct"),
        ("[prior]\nkind = lrgmm\nd = 4\nr = 1\nk = 1\n[sensing]\nm = 2\nmu = -1\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         r"\[sensing\] mu"),
        ("[prior]\nkind = lrgmm\nd = 4\nr = 1\nk = 1\n[sensing]\nm = 2\nmu = nan\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         r"\[sensing\] mu: must be positive and finite, got nan"),
        ("[prior]\nkind = lrgmm\nd = 4\nr = 1\nk = 1\n[sensing]\nm = 2\nmu = inf\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         r"\[sensing\] mu: must be positive and finite, got inf"),
        ("[prior]\nkind = lrgmm\nd = 4\nr = 1\nk = 1\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[bogus]\nx = 1\n[run]\ntrials = 1\n",
         r"\[bogus\]: unknown section"),
        ("[prior]\nkind = lrgmm\nd = 4\nr = 1\nk = 1\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 1e-4\nsigma_min = 0.5\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         "sigma_max"),
        ("[prior]\nkind = lrgmm\nd = 4\nr = 1\nk = 1\n[sensing]\nm = 2\n"
         "[run]\ntrials = 1\n",
         "at least one"),
        ("[prior]\nkind = lrgmm\nd = four\nr = 1\nk = 1\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         r"\[prior\] d: expected an integer"),
        ("[prior]\nkind = lrgmm\nd = 4\nr = 1\nk = 1\n[sensing]\nm = 2\n"
         "[schedule.fast]\nkind = infinite_geometric\nsigma_max = 0.5\na = 0.5\n"
         "[run]\ntrials = 1\nn_iters = 600\n",
         r"\[schedule\.fast\] a: sigma\^2 at n_iters=600 underflows"),
        ("[prior]\nkind = lrgmm\nd = 4\nr = 1\nk = 1\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-200\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         r"\[schedule\.geometric\] sigma_min: sigma\^2 at n_iters=10 underflows"),
        ("[prior]\nkind = lrgmm\nd = 4\nr = 1\nk = 1\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\nthreads = 2\n",
         r"\[run\] threads: unknown key"),
        ("[prior]\nkind = lrgmm\nd = 4\nr = 1\nk = 1\n[sensing]\nm = 0\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         r"\[sensing\] m: must be >= 1"),
        ("[prior]\nkind = lrgmm\nd = 8\nr = 9\nk = 3\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         r"\[prior\] r: must be between 1 and d = 8, got 9"),
        ("[prior]\nkind = lrgmm\nd = 8\nr = 1\nk = 0\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         r"\[prior\] k: must be >= 1, got 0"),
        ("[prior]\nkind = sparse\nd = 4\ns = 6\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         r"\[prior\] s: must be between 1 and d = 4, got 6"),
        ("[prior]\nkind = sparse\nd = 4\ns = 0\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         r"\[prior\] s: must be between 1 and d = 4, got 0"),
        ("[prior]\nkind = lrgmm\nd = 8\nr = 1\nk = 3\npi = 0.5 0.5\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         r"\[prior\] pi: need 3 mixture weights, one per component, got 2"),
        ("[prior]\nkind = sparse\nd = 4\ns = 2\npi = 0.5 0.5\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         r"\[prior\] pi: need 6 mixture weights, one per component, got 2"),
        ("[prior]\nkind = lrgmm\nd = 8\nr = 1\nk = 3\npi = 0.2 0.2 0.2\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         r"\[prior\] pi: mixture weights must sum to 1"),
        ("[prior]\nkind = lrgmm\nd = 8\nr = 1\nk = 3\npi = 0.5 0.6 -0.1\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         r"\[prior\] pi: mixture weights must be positive"),
        ("[prior]\nkind = lrgmm\nd = 8\nr = 1\nk = 2\npi = 1 0\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         r"\[prior\] pi: mixture weights must be positive"),
        ("[prior]\nkind = box\nlower = 1 -1\nupper = 2 1\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         r"\[prior\] lower: active coordinates must contain the origin"),
        ("[prior]\nkind = box\nlower = -1 -1\nupper = 1 -0.5\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         r"\[prior\] upper: active coordinates must contain the origin"),
        ("[prior]\nkind = box\nlower = -1 2\nupper = 1 2\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         r"\[prior\] lower: inactive coordinates must be pinned to zero"),
        ("[prior]\nkind = box\nlower = -1 nan\nupper = 1 1\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         r"\[prior\] lower: expected finite numbers"),
        ("[prior]\nkind = box\nlower = -1 -1\nupper = 1 inf\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         r"\[prior\] upper: expected finite numbers"),
        ("[prior]\nkind = box\nlower =\nupper =\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         r"\[prior\] lower: at least one coordinate is required"),
        ("[prior]\nkind = sparse\nd = 40\ns = 8\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         r"\[prior\] s: C\(40,8\) components exceed the cap of 200000"),
        ("[prior]\nkind = lrgmm\nd = 4\nr = 1\nk = 1\nseed = -2\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         r"\[prior\] seed: seeds must be >= 0, got -2"),
        ("[prior]\nkind = lrgmm\nd = 4\nr = 1\nk = 1\n[sensing]\nm = 2\nseed = -5\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         r"\[sensing\] seed: seeds must be >= 0, got -5"),
        ("[prior]\nkind = lrgmm\nd = 4\nr = 1\nk = 1\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrial_seeds = 4 -1 2\n",
         r"\[run\] trial_seeds: seeds must be >= 0, got -1"),
        ("[prior]\nkind = lrgmm\nd = 4\nr = 1\nk = 1\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 3\nbase_seed = -1\n",
         r"\[run\] base_seed: seeds must be >= 0, got -1"),
        ("[prior]\nkind = lrgmm\nd = 4\nr = 1\nk = 1\n[sensing]\nm = 2\n"
         "[schedule.a,b]\nkind = geometric\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         r"\[schedule\.a,b\]: a schedule name may use only letters, digits, '_' and '-'"),
        ("[prior]\nkind = lrgmm\nd = 4\nr = 1\nk = 1\n[sensing]\nm = 2\n"
         "[schedule.a/b]\nkind = geometric\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrials = 1\n",
         r"\[schedule\.a/b\]: a schedule name may use only letters, digits, '_' and '-'"),
        # A present n_iters = 0 is refused, not read as "absent".
        ("[prior]\nkind = lrgmm\nd = 4\nr = 1\nk = 1\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 12\n"
         "[run]\ntrials = 1\nn_iters = 0\n",
         r"^\[run\] n_iters: must be >= 1, got 0$"),
        ("[prior]\nkind = lrgmm\nd = 4\nr = 1\nk = 1\n[sensing]\nm = 2\n"
         "[schedule.slow]\nkind = infinite_geometric\nsigma_max = 0.5\na = 0.9\n"
         "[run]\ntrials = 1\nn_iters = 0\n",
         r"^\[run\] n_iters: must be >= 1, got 0$"),
        # Listed seeds count against the cap on trials (patched to 4 here).
        ("[prior]\nkind = lrgmm\nd = 4\nr = 1\nk = 1\n[sensing]\nm = 2\n"
         "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 10\n"
         "[run]\ntrial_seeds = 1 2 3 4 5\n",
         r"^\[run\] trial_seeds: 5 seeds exceed the cap of 4$"),
    ],
)
def test_config_errors_name_the_offender(text, match, monkeypatch):
    monkeypatch.setattr(config, "MAX_TRIALS", 4)
    with pytest.raises(pd.ConfigError, match=match):
        pd.parse_config(text)


LIST_CONFIG = """\
[prior]
kind = box
lower = {lower}
upper = {upper}
[sensing]
m = 3
[schedule.geometric]
sigma_max = 0.5
sigma_min = 1e-4
horizon = 10
[run]
trial_seeds = {seeds}
"""


def test_list_keys_take_the_repeat_form():
    repeated = pd.parse_config(LIST_CONFIG.format(lower="-1*3 -1e-3 0*2",
                                                  upper="1*3 1e-3 0 0*1", seeds="7*1 8"))
    written = pd.parse_config(LIST_CONFIG.format(lower="-1 -1 -1 -1e-3 0 0",
                                                 upper="1 1 1 1e-3 0 0", seeds="7 8"))
    assert repeated == written
    assert repeated.prior.lower == (-1.0, -1.0, -1.0, -1e-3, 0.0, 0.0)
    # resolved.cfg writes the expanded list, as it did before the repeat form.
    assert pd.serialize_config(repeated) == pd.serialize_config(written)
    assert "lower = -1 -1 -1 -0.001 0 0\n" in pd.serialize_config(repeated)
    weights = _parse_prior({"kind": "lrgmm", "d": "4", "r": "1", "k": "4", "pi": "0.25*4"})
    assert weights.pi == (0.25,) * 4


@pytest.mark.parametrize("word", ["1*0", "1*-3", "1*2.5", "*4", "1*", "1**2", "-1*100000001"])
def test_a_malformed_repeat_is_refused_naming_the_key(tmp_path, capsys, word):
    # The over-cap count is refused before its 10^8 floats are made.
    path = write_config(tmp_path, LIST_CONFIG.format(lower=f"-1 {word}", upper="1 1", seeds="7"))
    assert cli.main(["simulate", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [prior] lower: "), err
    if word == "-1*100000001":
        assert "expands to 100000002 entries, over the cap of 100000000" in err
    elif word != "*4":
        assert f"the repeat count in {word!r} must be a positive integer" in err
    assert not os.path.exists(tmp_path / "out")


def test_readme_config_example_is_a_valid_config():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = pd.parse_config(text)
    assert (cfg.prior.kind, cfg.prior.k, cfg.sensing.mu) == ("lrgmm", 8, MU_AUTO)


def test_load_config_reports_missing_file(tmp_path):
    with pytest.raises(pd.ConfigError, match="cannot read"):
        pd.load_config(str(tmp_path / "nope.cfg"))


def test_n_iters_required_when_all_schedules_infinite():
    text = (
        "[prior]\nkind = lrgmm\nd = 4\nr = 1\nk = 1\n[sensing]\nm = 2\n"
        "[schedule.slow]\nkind = infinite_geometric\nsigma_max = 0.5\na = 0.9\n"
        "[run]\ntrials = 1\n"
    )
    with pytest.raises(pd.ConfigError, match="n_iters"):
        pd.parse_config(text)
    cfg = pd.parse_config(text.replace("trials = 1", "trials = 1\nn_iters = 25"))
    assert cfg.n_iters == 25


@pytest.mark.parametrize("schedule,run,key", [
    ("[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 30\n",
     "trials = 1000000000000", r"\[run\] trials: 1000000000000 trials"),
    ("[schedule.slow]\nkind = infinite_geometric\nsigma_max = 0.5\na = 0.9999999999\n",
     "trials = 1\nn_iters = 1000000000000", r"\[run\] n_iters: 1000000000000 iterations"),
    ("[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 1000000000000\n",
     "trials = 1", r"\[schedule\.geometric\] horizon: 1000000000000 iterations"),
], ids=["trials", "n_iters", "defaulted-n_iters"])
def test_oversize_trials_and_n_iters_exit_2_before_allocating(tmp_path, capsys,
                                                              schedule, run, key):
    """10^12 trials or iterations are refused by value, naming the key they came from."""
    text = ("[prior]\nkind = lrgmm\nd = 4\nr = 1\nk = 1\n[sensing]\nm = 2\n"
            + schedule + "[run]\n" + run + "\n")
    tracemalloc.start()
    try:
        with pytest.raises(pd.ConfigError, match=key + " exceed the cap of 1000000$"):
            pd.parse_config(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    out = tmp_path / "o"
    assert cli.main(["simulate", write_config(tmp_path, text), "--out", str(out)]) == 2
    assert "config error: " + key.replace("\\", "") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("prior,message", [
    ("kind = lrgmm\nd = 64\nr = 5\nk = 1000000000",
     "[prior] k: 1000000000 components exceed the cap of 200000"),
    ("kind = lrgmm\nd = 1000\nr = 5\nk = 200000",
     "[prior] d: K*d*r = 200000*1000*5 = 1000000000 basis entries exceed the cap of 100000000"),
    ("kind = sparse\nd = 200000\ns = 1",
     "[prior] d: K*d*r = 200000*200000*1 = 40000000000 basis entries exceed the cap of "
     "100000000"),
    # C(100000, 50000) has about 30,100 digits: counting stops at the cap.
    ("kind = sparse\nd = 100000\ns = 50000",
     "[prior] s: C(100000,50000) components exceed the cap of 200000"),
], ids=["lrgmm-k", "lrgmm-entries", "sparse-entries", "sparse-count"])
def test_oversize_priors_exit_2_before_allocating(tmp_path, capsys, prior, message):
    """Too many components, or stacked bases too large, are refused before any is built."""
    text = SMALL_CONFIG.replace("kind = lrgmm\nd = 16\nr = 2\nk = 4\nseed = 11", prior)
    tracemalloc.start()
    try:
        with pytest.raises(pd.ConfigError) as exc:
            pd.parse_config(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == message
    assert peak < 2**20
    out = tmp_path / "o"
    assert cli.main(["simulate", write_config(tmp_path, text), "--out", str(out)]) == 2
    assert "config error: " + message in capsys.readouterr().err
    assert not out.exists()


def test_an_oversize_sensing_m_exits_2_before_anything_is_built(tmp_path, capsys):
    """Every simulate worker holds G = A A^T, m x m: m*m is capped as a prior's bases are."""
    assert pd.parse_config(SMALL_CONFIG.replace("m = 16", "m = 10000")).sensing.m == 10000
    text = SMALL_CONFIG.replace("m = 16", "m = 10001")
    message = ("[sensing] m: m*m = 10001*10001 = 100020001 entries of G = A A^T exceed the cap "
               "of 100000000")
    with pytest.raises(pd.ConfigError) as exc:
        pd.parse_config(text)
    assert str(exc.value) == message
    out = tmp_path / "o"
    assert cli.main(["simulate", write_config(tmp_path, text), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def _bound():
    return st.one_of(st.just(math.nan), st.floats(-2.0, 2.0))


@st.composite
def prior_sections(draw):
    """Small [prior] sections of the three built-in kinds, valid or not."""
    kind = draw(st.sampled_from(("lrgmm", "sparse", "box")))
    d = draw(st.integers(0, 6))
    count = st.integers(-1, 7)
    if kind == "box":
        return {
            "kind": kind,
            "lower": " ".join(str(v) for v in draw(st.lists(_bound(), min_size=d, max_size=d))),
            "upper": " ".join(str(v) for v in draw(st.lists(_bound(), min_size=d, max_size=d))),
        }
    section = {"kind": kind, "d": str(d), "pi": draw(st.sampled_from(("uniform", "1", "0.5 0.5")))}
    if kind == "lrgmm":
        section.update(r=str(draw(count)), k=str(draw(count)), seed=str(draw(st.integers(-2, 9))))
    else:
        section["s"] = str(draw(count))
    return section


@settings(deadline=None, max_examples=60)
@given(
    prior=prior_sections(),
    m=st.integers(0, 6),
    mu=st.one_of(
        st.sampled_from((MU_AUTO, "0", "-0.5", "nan", "inf")),
        st.floats(1e-3, 1e3).map(str),
    ),
    horizon=st.integers(1, 5),
    sensing_seed=st.integers(-2, 5),
    base_seed=st.integers(-2, 5),
)
def test_generated_configs_exit_0_2_or_3(prior, m, mu, horizon, sensing_seed, base_seed):
    try:
        _parse_prior(prior)
        prior_ok = True
    except pd.ConfigError:
        prior_ok = False
    text = "".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in body.items())
        for section, body in (
            ("prior", prior),
            ("sensing", {"m": m, "seed": sensing_seed, "mu": mu}),
            ("schedule.geometric", {"sigma_max": 0.5, "sigma_min": 1e-3, "horizon": horizon}),
            ("run", {"trials": 1, "base_seed": base_seed}),
        )
    )
    spec = prior["kind"] + ":" + ",".join(
        f"{key}={value.replace(' ', '|')}" for key, value in prior.items() if key != "kind"
    )
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "gen.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(text)
        code = cli.main(["simulate", cfg_path, "--out", os.path.join(tmp, "out")])
        assert code in (0, 2, 3)
        assert (prior_ok and min(sensing_seed, base_seed) >= 0) or code == 2
        # gen-model reads the same grammar: it accepts exactly the priors the config does.
        code = cli.main(["gen-model", spec, "-o", os.path.join(tmp, "prior.model")])
        assert code == (0 if prior_ok else 2)


# ------------------------------------------------------------------ checks


def test_fast_checks_all_pass():
    results = run_checks("fast")
    assert len(results) == 12
    assert all(res.passed for res in results)
    assert all(res.value <= res.bound for res in results)


def test_checks_reject_unknown_level():
    with pytest.raises(ValueError, match="level"):
        run_checks("exhaustive")


def test_check_full_hands_each_measurement_its_full_arguments(tmp_path, monkeypatch):
    """``check --full`` hands each measurement its full-level arguments, ``check`` its fast ones."""
    original = checks.CHECKS
    assert any(fast != full for _, _, fast, full, _ in original)
    calls = []

    def recorder(name):
        def measure(*args):
            calls.append((name, args))
            return 0.0
        return measure

    monkeypatch.setattr(checks, "CHECKS", tuple((name, recorder(name), fast, full, bound)
                                                for name, _, fast, full, bound in original))
    for flags, level in (([], 2), (["--full"], 3)):
        calls.clear()
        assert cli.main(["check", "--out", str(tmp_path), *flags]) == 0
        assert calls == [(check[0], check[level]) for check in original]
        with open(tmp_path / cli.REPORT_NAME) as fh:
            assert len(fh.read().splitlines()) == 1 + len(original)


def _measure(name, **implementation):
    """The fast-level value of check ``name`` on ``implementation``, and whether it passes."""
    ((measure, args, bound),) = [(measure, fast, bound)
                                 for check, measure, fast, _, bound in checks.CHECKS
                                 if check == name]
    value = float(measure(*args, **implementation))
    return value, value <= bound


def test_checks_catch_a_denoiser_without_shrinkage():
    def shrinkless(prior, x, sigma):
        ev = pd.denoiser(prior, x, sigma)

        class Ev:
            value = ev.value * (1.0 + sigma * sigma)
            log_density = ev.log_density

        return Ev

    def all_nan(prior, x, sigma):
        class Ev:
            value = np.full(x.shape, np.nan)
            log_density = np.nan

        return Ev

    for broken in (shrinkless, all_nan):
        value, passed = _measure("tweedie_identity", denoiser_fn=broken)
        assert not passed, broken.__name__
    assert value == math.inf


def test_check_maxima_do_not_drop_nan(monkeypatch):
    assert checks.worst_case([]) == 0.0
    assert checks.worst_case([1.0, 3.0, 2.0]) == 3.0
    assert checks.worst_case([1.0, float("nan"), 2.0]) == math.inf
    assert checks.worst_case([1.0, -math.inf]) == math.inf

    nan_gap = pd.ProjectionGap(gap=float("nan"), bound=1.0, eta=1.0)
    monkeypatch.setattr(checks, "projection_gap", lambda prior, x, sigma: nan_gap)
    assert checks.gap_envelope_violations(5) == 5


def test_checks_catch_weights_computed_without_log_stabilisation():
    def naive(prior, x, t):
        logs = np.array(
            [log_component_density(prior, k, x, t) for k in range(prior.n_components)]
        )
        with np.errstate(under="ignore", over="ignore", invalid="ignore"):
            w = np.exp(logs)
            return w / w.sum()

    assert not _measure("weight_stability", weights_fn=naive)[1]


def test_check_report_formats():
    results = run_checks("fast")
    csv_text = pd.report_csv(results)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "name,value,bound,pass"
    assert len(lines) == 13
    assert all(line.endswith(",true") for line in lines[1:])
    table = pd.report_table(results)
    assert "12/12 checks passed" in table


# ---------------------------------------------------------------- simulate


def test_simulate_recovers_and_reports_metadata(tmp_path):
    cfg_path = write_config(tmp_path, SMALL_CONFIG)
    out = str(tmp_path / "out")
    assert cli.main(["simulate", cfg_path, "--out", out]) == 0
    trace = pd.RecoveryTrace.read_csv(os.path.join(out, "trace_geometric_00013.csv"))
    assert trace.final_mse < 1e-20
    assert trace.metadata["schedule_name"] == "geometric"
    assert trace.metadata["trial_seed"] == 13
    assert trace.metadata["schedule"]["kind"] == "geometric"
    assert 0 <= trace.metadata["true_component"] < 4
    assert np.shape(trace.nearest) == (121,) and np.shape(trace.subspace_distances) == (121, 2)
    assert trace.nearest[-1] == trace.metadata["true_component"]


def test_simulate_is_byte_identical_across_reruns(tmp_path):
    cfg_path = write_config(tmp_path, TWO_SCHEDULE_CONFIG)
    out = str(tmp_path / "a")
    assert cli.main(["simulate", cfg_path, "--out", out]) == 0
    first = read_files(out)
    assert cli.main(["simulate", cfg_path, "--out", out]) == 0
    second = read_files(out)
    assert set(first) == set(second)
    for name in first:
        assert first[name] == second[name], name


def test_simulate_manifest_lists_every_output(tmp_path):
    cfg_path = write_config(tmp_path, TWO_SCHEDULE_CONFIG)
    out = str(tmp_path / "out")
    assert cli.main(["simulate", cfg_path, "--out", out]) == 0
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert sorted(manifest["files"]) == sorted(os.listdir(out))
    assert manifest["trial_seeds"] == [43, 44]
    names = {f for f in manifest["files"] if f.startswith("trace_")}
    assert names == {
        "trace_geometric_00043.csv",
        "trace_geometric_00044.csv",
        "trace_lin_00043.csv",
        "trace_lin_00044.csv",
    }
    # It names what the bytes depend on besides the config.
    versions, core = manifest["versions"], cli.blas_core()
    assert versions == {"projdiff": pd.__version__, "python": platform.python_version(),
                        "numpy": np.__version__, "openblas_config": versions["openblas_config"],
                        "openblas_core": core}
    # The configuration string names the kernel set it runs, or both are null.
    if core is None:
        assert versions["openblas_config"] is None
    else:
        assert versions["openblas_config"].startswith("OpenBLAS ")
        assert f" {core} " in versions["openblas_config"]


def test_simulate_resolved_config_reparses_to_the_same_plan(tmp_path):
    cfg_path = write_config(tmp_path, TWO_SCHEDULE_CONFIG)
    out = str(tmp_path / "out")
    assert cli.main(["simulate", cfg_path, "--out", out]) == 0
    resolved = pd.load_config(os.path.join(out, "resolved.cfg"))
    assert resolved.trial_seeds == (43, 44)
    assert resolved.out_dir == out
    assert [name for name, _ in resolved.schedules] == ["geometric", "lin"]


def test_simulate_writes_back_auto_seeds(tmp_path):
    text = (
        "[prior]\nkind = lrgmm\nd = 8\nr = 1\nk = 2\n"
        "[sensing]\nm = 8\n"
        "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 30\n"
        "[run]\ntrials = 2\n"
    )
    out = _simulated(tmp_path, text, name="auto")
    with open(os.path.join(out, "resolved.cfg")) as fh:
        resolved = fh.read()
    assert f"seed = {DEFAULT_PRIOR_SEED}" in resolved
    assert f"seed = {DEFAULT_SENSING_SEED}" in resolved
    assert f"trial_seeds = {DEFAULT_BASE_SEED} {DEFAULT_BASE_SEED + 1}" in resolved
    assert pd.parse_config(resolved).trial_seeds == (1000, 1001)


def test_simulate_help_documents_the_config_format(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for token in ("[prior]", "[sensing]", "[schedule.<name>]", "[run]", "auto_1.9"):
        assert token in out
    for kind, keys in _PRIOR_KEYS.items():
        assert f"{kind}: {', '.join(keys)}" in out


def test_simulate_seed_override_renames_and_changes_trials(tmp_path):
    cfg_path = write_config(tmp_path, SMALL_CONFIG)
    out = str(tmp_path / "out")
    assert cli.main(["simulate", cfg_path, "--out", out, "--seed-override", "500"]) == 0
    trace = pd.RecoveryTrace.read_csv(os.path.join(out, "trace_geometric_00500.csv"))
    assert trace.metadata["trial_seed"] == 500
    base = pd.RecoveryTrace.read_csv(
        os.path.join(_simulated(tmp_path, SMALL_CONFIG), "trace_geometric_00013.csv")
    )
    assert not np.array_equal(trace.mse, base.mse)


def _simulated(tmp_path, text, name="base"):
    cfg_path = write_config(tmp_path, text, name=f"{name}.cfg")
    out = str(tmp_path / name)
    assert cli.main(["simulate", cfg_path, "--out", out]) == 0
    return out


def test_simulate_rejects_bad_config_with_exit_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, SMALL_CONFIG.replace("lrgmm", "pyramid"))
    assert cli.main(["simulate", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "kind" in err


def test_simulate_rejects_a_box_whose_width_overflows(tmp_path, capsys):
    # Each bound is finite; before, the run diverged at iteration 1 (exit 3).
    text = (
        "[prior]\nkind = box\nlower = -1 -1e308\nupper = 1 1e308\n"
        "[sensing]\nm = 2\nseed = 4\n"
        "[schedule.cosine]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 50\n"
        "[run]\ntrial_seeds = 31\n"
    )
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["simulate", write_config(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: [prior] upper: box width upper - lower overflows at coordinate 1" in err
    assert not out.exists()


def test_simulate_missing_config_file_exits_2(tmp_path, capsys):
    assert cli.main(["simulate", str(tmp_path / "ghost.cfg")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_simulate_rejects_a_negative_seed_override(tmp_path, capsys):
    cfg_path = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "o"
    assert cli.main(["simulate", cfg_path, "--out", str(out), "--seed-override", "-3"]) == 2
    assert "config error: --seed-override: seeds must be >= 0, got -3" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_maps_an_unresolvable_auto_mu_to_exit_2(tmp_path, monkeypatch, capsys):
    def stalled(a):
        raise pd.NumericFailureError("power iteration did not converge")

    monkeypatch.setattr(sensing_analysis, "spectral_norm", stalled)
    cfg_path = write_config(tmp_path, SMALL_CONFIG)
    assert cli.main(["simulate", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: [sensing] mu: auto_1.9 needs the operator norm" in err
    assert "did not converge" in err and "Traceback" not in err


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 7.28 TiB for an array")


@pytest.mark.parametrize("module,name,key,edit", [
    (lrgmm_prior, "random_lrgmm", "[prior] d", ("d = 16", "d = 4096")),
    (sensing_analysis, "gaussian_operator", "[sensing] m", ("m = 16", "m = 10000")),
    (modelio, "union_from_text", "[prior] path", None),
])
def test_simulate_reports_an_oversize_build_as_exit_2(tmp_path, monkeypatch, capsys,
                                                      module, name, key, edit):
    """A size that cannot be allocated is a config error naming its key, not a traceback.

    The allocation fails in the function patched here, so nothing is allocated.
    """
    if edit is None:
        model_path = tmp_path / "union.model"
        model_path.write_text("union d=1000000000000 K=1\nsubspace r=1\n1\n")
        text = SMALL_CONFIG.replace("kind = lrgmm\nd = 16\nr = 2\nk = 4\nseed = 11",
                                    f"kind = file\npath = {model_path}")
    else:
        text = SMALL_CONFIG.replace(*edit)
    monkeypatch.setattr(module, name, _out_of_memory)
    out = tmp_path / "o"
    assert cli.main(["simulate", write_config(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {key}: too large: not enough memory" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("content,message", [
    (None, "No such file or directory"),
    (b"union d=4 K=0\n", "a union needs at least one subspace"),
    (b"union d=2 K=1\nsubspace r=1\nnan 0\n", "basis entries must be finite"),
    (b"union d=x K=1\n", "invalid literal for int() with base 10: 'x'"),
    (b"\xff union d=1 K=1\n", "codec can't decode byte 0xff in position 0"),
], ids=["missing", "no-subspace", "nan-basis", "bad-int", "not-utf-8"])
def test_simulate_names_prior_path_for_a_bad_model_file(tmp_path, capsys, content, message):
    path = tmp_path / "prior.model"
    if content is not None:
        path.write_bytes(content)
    text = SMALL_CONFIG.replace("kind = lrgmm\nd = 16\nr = 2\nk = 4\nseed = 11",
                                f"kind = file\npath = {path}")
    out = tmp_path / "o"
    assert cli.main(["simulate", write_config(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: [prior] path: {path}: " in err and message in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("command,source", [
    ("simulate", "--out"),
    ("simulate", "[run] out_dir"),
    ("analyze", "--out"),
    ("check", "--out"),
])
def test_an_output_path_naming_a_file_exits_2(tmp_path, command, source, capsys):
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    if command == "simulate":
        text = SMALL_CONFIG + (f"out_dir = {afile}\n" if source == "[run] out_dir" else "")
        args = [write_config(tmp_path, text)]
    else:
        args = [str(tmp_path)] if command == "analyze" else []
    if source == "--out":
        args += ["--out", str(afile)]
    assert cli.main([command, *args]) == 2
    err = capsys.readouterr().err
    assert f"{source}: cannot create output directory" in err and "Traceback" not in err
    assert afile.read_text() == "not a directory\n"
    assert {p.name for p in tmp_path.iterdir()} <= {"afile", "exp.cfg"}


def test_simulate_divergence_exits_3_and_names_the_run(tmp_path, capsys):
    cfg_path = write_config(tmp_path, SMALL_CONFIG.replace("seed = 12", "seed = 12\nmu = 1e9"))
    assert cli.main(["simulate", cfg_path, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "divergence" in err and "trace_geometric_00013" in err
    with open(tmp_path / "o" / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["files"] == ["manifest.json", "resolved.cfg"]
    [entry] = manifest["diverged"]
    assert entry["file"] == "trace_geometric_00013.csv"
    assert 1 <= entry["iteration"] <= 120


def test_simulate_divergence_replaces_an_earlier_runs_manifest(tmp_path, capsys):
    out = str(tmp_path / "o")
    good = write_config(tmp_path, TWO_SCHEDULE_CONFIG)
    assert cli.main(["simulate", good, "--out", out]) == 0
    bad = write_config(
        tmp_path, TWO_SCHEDULE_CONFIG.replace("seed = 42", "seed = 42\nmu = 1e6"), "bad.cfg"
    )
    assert cli.main(["simulate", bad, "--out", out]) == 3
    assert pd.load_config(os.path.join(out, "resolved.cfg")).sensing.mu == 1e6
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["mu"] == 1e6
    assert not [f for f in manifest["files"] if f.startswith("trace_")]
    assert [entry["file"] for entry in manifest["diverged"]] == [
        "trace_geometric_00043.csv",
        "trace_geometric_00044.csv",
        "trace_lin_00043.csv",
        "trace_lin_00044.csv",
    ]
    # The good run's traces had the diverged runs' names: they are gone, not stale.
    assert not [f for f in os.listdir(out) if f.startswith("trace_")]
    capsys.readouterr()
    assert cli.main(["analyze", out]) == 2
    err = capsys.readouterr().err
    assert "skipping" not in err and "no readable traces" in err
    assert not os.path.exists(os.path.join(out, "rates.csv"))


@pytest.mark.parametrize("side", ["parent", "child"])
def test_an_unwritable_trace_exits_2_and_marks_the_run_incomplete(tmp_path, monkeypatch, capsys,
                                                                  side):
    """A directory at a trace's path: exit 2 naming it, in this process's share or a child's."""
    cfg_path = write_config(tmp_path, TWO_SCHEDULE_CONFIG)
    out = tmp_path / "o"
    assert cli.main(["simulate", cfg_path, "--out", str(out)]) == 0
    # Of two shares, this process runs the first (seed 43) and a child the second.
    name = "trace_geometric_00043.csv" if side == "parent" else "trace_lin_00044.csv"
    (out / name).unlink()
    (out / name).mkdir()
    monkeypatch.setattr(cli, "_worker_count", lambda n_runs: 2)
    capsys.readouterr()
    assert cli.main(["simulate", cfg_path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"cannot write {out / name}: Is a directory\n"
    # The earlier run's manifest would list traces this run did not write.
    with open(out / "manifest.json") as fh:
        assert json.load(fh) == {"incomplete": "simulate did not finish"}


def test_analyze_refuses_the_traces_of_a_run_that_stopped_early(tmp_path, capsys):
    """A run that exits 2 on an unwritable trace: analyze must not mix in an earlier run's."""
    cfg_path = write_config(tmp_path, TWO_SCHEDULE_CONFIG)  # seeds 43 and 44
    out = tmp_path / "o"
    assert cli.main(["simulate", cfg_path, "--out", str(out)]) == 0
    (out / "trace_lin_00051.csv").mkdir()
    assert cli.main(["simulate", cfg_path, "--out", str(out), "--seed-override", "50"]) == 2
    assert "trial_seeds = 50 51\n" in (out / "resolved.cfg").read_text()
    capsys.readouterr()
    assert cli.main(["analyze", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"{out / 'manifest.json'}: the last simulate into {out} did not finish; "
                   f"rerun it\n")
    assert not (out / "rates.csv").exists()
    # A finished rerun into the same directory is analyzed as usual.
    os.rmdir(out / "trace_lin_00051.csv")
    assert cli.main(["simulate", cfg_path, "--out", str(out), "--seed-override", "50"]) == 0
    assert cli.main(["analyze", str(out)]) == 0
    with open(out / "rates.csv") as fh:
        assert sorted(row["seed"] for row in csv.DictReader(fh)) == ["50", "50", "51", "51"]


def test_simulate_builds_no_sensing_problem(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("simulate built a SensingProblem")

    monkeypatch.setattr(pd.SensingProblem, "__post_init__", refuse)
    _simulated(tmp_path, TWO_SCHEDULE_CONFIG)


FLAGSHIP_SHAPED_CONFIG = """\
[prior]
kind = lrgmm
d = 64
r = 5
k = 8
seed = 101

[sensing]
m = 20
seed = 202

[schedule.geometric]
sigma_max = 0.5
sigma_min = 1e-4
horizon = 40

[schedule.linear]
sigma_max = 0.5
sigma_min = 1e-4
horizon = 40

[schedule.cosine]
sigma_max = 0.5
sigma_min = 1e-4
horizon = 40

[schedule.infinite_geometric]
sigma_max = 0.5
a = 0.9

[run]
n_iters = 40
trials = 2
"""


def _engine_calling(action, in_parent):
    """A run_recoveries that calls ``action(metadata, results)`` here or in children only."""
    parent = os.getpid()
    real = recovery_engine.run_recoveries

    def patched(*args, **kwargs):
        results = real(*args, **kwargs)
        if (os.getpid() == parent) == in_parent:
            action(kwargs["metadata"], results)
        return results
    return patched


# An operator of 300 x 128, multiplied by gemv in 128-row slices with a 44-row
# tail: the 15- or 10-run shares of 2 or 3 workers must write the bytes that one
# worker's 30 runs do.
TILED_TAIL_CONFIG = """\
[prior]
kind = lrgmm
d = 128
r = 4
k = 3
seed = 101

[sensing]
m = 300
seed = 202

[schedule.geometric]
sigma_max = 0.5
sigma_min = 1e-4
horizon = 12

[run]
n_iters = 12
trials = 30
"""


@pytest.mark.parametrize("config,n_files", [(FLAGSHIP_SHAPED_CONFIG, 9), (TILED_TAIL_CONFIG, 31)],
                         ids=["flagship-shaped", "tiled-tail"])
def test_simulate_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, config,
                                                          n_files):
    cfg_path = write_config(tmp_path, config)
    real_fork = os.fork
    forks = []

    def counted_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    outs = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(cli, "_worker_count", lambda n_runs: workers)
        forks.clear()
        out = str(tmp_path / f"w{workers}")
        assert cli.main(["simulate", cfg_path, "--out", out]) == 0
        assert len(forks) == workers - 1
        outs[workers] = {name: data for name, data in read_files(out).items()
                         if name != "resolved.cfg"}  # it names its out_dir
    assert len(outs[1]) == n_files  # the traces and manifest.json
    assert outs[2] == outs[1]
    assert outs[3] == outs[1]


def test_simulate_draws_the_truths_of_one_batch_at_a_time(tmp_path, monkeypatch):
    """Memory at the first batch does not grow with the runs: the truths of 4,000 trials
    of a d = 1024 box take 32 MB, and a batch draws only its own."""
    text = ("[prior]\nkind = box\nlower = -1*128 0*896\nupper = 1*128 0*896\n"
            "[sensing]\nm = 8\nseed = 4\n"
            "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 1\n"
            "[run]\nn_iters = 1\ntrials = 4000\n")

    class FirstBatch(Exception):
        pass

    def first_batch(*args, **kwargs):
        raise FirstBatch(tracemalloc.get_traced_memory()[0])

    monkeypatch.setattr(cli, "_worker_count", lambda n_runs: 1)
    monkeypatch.setattr(recovery_engine, "run_recoveries", first_batch)
    tracemalloc.start()
    try:
        with pytest.raises(FirstBatch) as info:
            cli.main(["simulate", write_config(tmp_path, text), "--out", str(tmp_path / "o")])
    finally:
        tracemalloc.stop()
    truths = 4000 * 1024 * 8
    assert info.value.args[0] < truths / 4


def test_simulate_merges_a_divergence_from_a_childs_share(tmp_path, monkeypatch, capsys):
    cfg_path = write_config(tmp_path, TWO_SCHEDULE_CONFIG)
    out = str(tmp_path / "o")
    assert cli.main(["simulate", cfg_path, "--out", out]) == 0
    stale = "trace_lin_00044.csv"  # the last run: always in the last worker's share

    def diverge(metadata, results):
        for i, meta in enumerate(metadata):
            if (meta["schedule_name"], meta["trial_seed"]) == ("lin", 44):
                results[i] = pd.DivergenceError("iterate left the finite range", 7)

    monkeypatch.setattr(cli, "_worker_count", lambda n_runs: 2)
    monkeypatch.setattr(recovery_engine, "run_recoveries",
                        _engine_calling(diverge, in_parent=False))
    capsys.readouterr()
    assert cli.main(["simulate", cfg_path, "--out", out]) == 3
    assert f"divergence in run {stale}: iterate left the finite range" in capsys.readouterr().err
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["diverged"] == [{"file": stale, "iteration": 7}]
    assert manifest["files"] == ["manifest.json", "resolved.cfg", "trace_geometric_00043.csv",
                                 "trace_geometric_00044.csv", "trace_lin_00043.csv"]
    assert sorted(os.listdir(out)) == manifest["files"]


@pytest.mark.parametrize("side", ["child", "parent"])
def test_a_failing_worker_fails_simulate_and_leaves_no_child(tmp_path, monkeypatch, side):
    def boom(metadata, results):
        raise ValueError(f"boom in the {side}")

    monkeypatch.setattr(cli, "_worker_count", lambda n_runs: 3)
    monkeypatch.setattr(recovery_engine, "run_recoveries", _engine_calling(boom, side == "parent"))
    cfg_path = write_config(tmp_path, FLAGSHIP_SHAPED_CONFIG)
    with pytest.raises((RuntimeError, ValueError), match=f"boom in the {side}") as info:
        cli.main(["simulate", cfg_path, "--out", str(tmp_path / "o")])
    if side == "child":
        # The child's own traceback travels with the error.
        assert isinstance(info.value, RuntimeError)
        assert "Traceback" in str(info.value) and "in boom" in str(info.value)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failing_child_makes_the_command_exit_1_with_its_traceback(tmp_path, package_env):
    code = (
        "import os, sys\n"
        "from projdiff import cli, recovery_engine\n"
        "parent = os.getpid()\n"
        "def broken(*args, **kwargs):\n"
        "    if os.getpid() != parent:\n"
        "        raise KeyError('no such run')\n"
        "    return real(*args, **kwargs)\n"
        "real, recovery_engine.run_recoveries = recovery_engine.run_recoveries, broken\n"
        "cli._worker_count = lambda n_runs: 2\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    cfg_path = write_config(tmp_path, TWO_SCHEDULE_CONFIG)
    proc = subprocess.run([sys.executable, "-c", code, "simulate", cfg_path,
                           "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, env=package_env, timeout=120)
    assert proc.returncode == 1
    assert "simulate worker" in proc.stderr and "KeyError: 'no such run'" in proc.stderr
    assert "in broken" in proc.stderr


def test_simulate_on_one_cpu_does_not_fork(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("simulate forked on one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    assert cli._worker_count(8) == 1
    out = _simulated(tmp_path, TWO_SCHEDULE_CONFIG)
    assert len([f for f in os.listdir(out) if f.startswith("trace_")]) == 4


def test_run_forked_runs_workers_at_one_blas_thread_and_restores_the_count():
    get = recovery_engine._openblas_function("get_num_threads")
    set_ = recovery_engine._openblas_function("set_num_threads")
    if get is None or set_ is None:
        pytest.skip("numpy's BLAS is not its bundled OpenBLAS")

    def fail():
        raise ValueError("boom")

    before = get()
    try:
        set_(2)
        # Several workers, in this process and in forked children, each at one thread.
        assert cli._run_forked([get, get, get]) == [1, 1, 1]
        assert get() == 2
        with pytest.raises(ValueError, match="boom"):
            cli._run_forked([fail, get])
        assert get() == 2
        # A lone worker runs at one thread too.
        assert cli._run_forked([get]) == [1]
        assert get() == 2
    finally:
        set_(before)


def test_worker_count_follows_the_affinity_mask_and_the_runs(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert [cli._worker_count(n) for n in (1, 3, 4, 80)] == [1, 3, 4, 4]
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._worker_count(80) == 1


def test_simulate_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, package_env):
    """y and mu at m = 301, d = 2048 used to change with OPENBLAS_NUM_THREADS."""
    d = 2048
    free = [i % 7 == 0 for i in range(d)]
    text = (
        "[prior]\nkind = box\n"
        f"lower = {' '.join('-1' if f else '0' for f in free)}\n"
        f"upper = {' '.join('1' if f else '0' for f in free)}\n"
        "[sensing]\nm = 301\nseed = 5\n"
        "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 30\n"
        "[run]\nn_iters = 30\ntrials = 4\nbase_seed = 9\n"
    )
    cfg_path = write_config(tmp_path, text)
    outs = {}
    for threads in ("1", "2"):
        out = str(tmp_path / f"t{threads}")
        subprocess.run([sys.executable, "-m", "projdiff", "simulate", cfg_path, "--out", out],
                       env=dict(package_env, OPENBLAS_NUM_THREADS=threads), check=True,
                       capture_output=True, timeout=300)
        outs[threads] = {name: data for name, data in read_files(out).items()
                         if name != "resolved.cfg"}
    assert len(outs["1"]) == 5  # 4 traces and manifest.json
    assert outs["2"] == outs["1"]


def test_simulate_box_prior_runs_without_union_columns(tmp_path):
    text = (
        "[prior]\nkind = box\nlower = -1 -1 -1\nupper = 1 2 1\n"
        "[sensing]\nm = 3\nseed = 4\n"
        "[schedule.cosine]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 50\n"
        "[run]\ntrial_seeds = 31\n"
    )
    out = _simulated(tmp_path, text, name="box")
    trace = pd.RecoveryTrace.read_csv(os.path.join(out, "trace_cosine_00031.csv"))
    assert trace.subspace_distances is None
    assert np.isnan(trace.frontier_gap).all()
    assert "true_component" not in trace.metadata
    assert np.isfinite(trace.final_mse)


@pytest.mark.parametrize("config", [
    FLAGSHIP_SHAPED_CONFIG,
    "[prior]\nkind = box\nlower = -1*12 0*4\nupper = 1*12 0*4\n[sensing]\nm = 10\nseed = 4\n"
    "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 30\n"
    "[run]\nn_iters = 30\ntrials = 4\n",
], ids=["flagship-shaped", "box"])
def test_a_simulate_trace_read_and_written_back_keeps_its_bytes(tmp_path, config):
    """``read_csv`` gives lists where ``simulate`` wrote arrays; ``write_csv`` takes either."""
    box = "kind = box" in config
    out = _simulated(tmp_path, config)
    traces = {name: data for name, data in read_files(out).items() if name.startswith("trace_")}
    assert len(traces) == (4 if box else 8)
    for name, data in traces.items():
        trace = pd.RecoveryTrace.read_csv(os.path.join(out, name))
        assert isinstance(trace.sigma, list) and (trace.nearest is None) == box
        trace.write_csv(tmp_path / name)
        assert (tmp_path / name).read_bytes() == data, name


# The sha256 of that shortened box workload's trace_geometric_07000.csv and
# trace_geometric_07001.csv, per BLAS core (see cli.blas_core).
BOX_TRACE_SHA256 = {
    "SkylakeX": ("6e2d4495d648c82511fee744db18c33d76af3afaac3ac7109138d9aac46c0565",
                 "75c6201f3191f5ae92c63bc7059025eda6d95e7cae96e2ee7661e5a24b83b4bd"),
    "Haswell": ("dc95255340b8cc6a915cceb24b61d41ffd2201c505b95b4725fb5232dacc627b",
                "dff40193355f57436bbf30a13fe6b5eb2a7c52e142418c67edbb57d6666087b3"),
    "Sandybridge": ("c73cef924e0430a1af75e526709ef197932e240e18e168b5bb5ba9b021f38a20",
                    "95c8fe8e79927d24b5592a23248376a54cea94f683e30893b23333c5c04f5980"),
    "Katmai": ("bcef89f83c85913b345080899c7842b7a5a098e2c8f98d19ffaf8fd5d1665baa",
               "bbe4460bda4b33bc3411b6b8f97dcf043bdf80b5c20aa4125bd4f21b4f89bc75"),
}


def test_simulate_box_workload_trace_bytes_are_pinned(tmp_path):
    """The benchmark's box workload, shortened only in trials and n_iters, writes fixed bytes."""
    workload = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads", "box.cfg")
    with open(workload) as fh:
        text = fh.read()
    assert "\ntrials = 40\n" in text and "\nn_iters = 150\n" in text
    text = text.replace("\ntrials = 40\n", "\ntrials = 2\n")
    text = text.replace("\nn_iters = 150\n", "\nn_iters = 20\n")
    out = _simulated(tmp_path, text, name="box")
    traces = {name: data for name, data in read_files(out).items() if name.startswith("trace_")}
    assert list(traces) == ["trace_geometric_07000.csv", "trace_geometric_07001.csv"]
    assert_pinned(BOX_TRACE_SHA256, tuple(hashlib.sha256(data).hexdigest()
                                          for data in traces.values()))


def test_simulate_file_prior_wraps_a_saved_union(tmp_path):
    model_path = str(tmp_path / "union.model")
    assert cli.main(["gen-model", "union:d=8,ranks=2|2,seed=5", "-o", model_path]) == 0
    text = (
        f"[prior]\nkind = file\npath = {model_path}\n"
        "[sensing]\nm = 8\nseed = 3\n"
        "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-6\nhorizon = 60\n"
        "[run]\ntrial_seeds = 21\n"
    )
    out = _simulated(tmp_path, text, name="filep")
    trace = pd.RecoveryTrace.read_csv(os.path.join(out, "trace_geometric_00021.csv"))
    assert set(trace.nearest) <= {0, 1}
    assert trace.final_mse < 1e-12


# ------------------------------------------------------------------- check


def test_check_command_writes_report_and_exits_0(tmp_path, capsys):
    out = str(tmp_path / "rep")
    assert cli.main(["check", "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "12/12 checks passed" in stdout
    with open(os.path.join(out, "check_report.csv")) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "name,value,bound,pass"
    assert len(lines) == 13


def test_check_command_exits_4_when_a_check_fails(tmp_path, monkeypatch, capsys):
    from projdiff.checks import CheckResult

    def broken(level):
        return [CheckResult(name="synthetic", value=1.0, bound=0.5, passed=False)]

    monkeypatch.setattr(checks, "run_checks", broken)
    assert cli.main(["check", "--out", str(tmp_path)]) == 4
    assert "FAIL" in capsys.readouterr().out


def test_check_exits_2_when_its_report_is_unwritable(tmp_path, monkeypatch, capsys):
    from projdiff.checks import CheckResult

    def passing(level):
        return [CheckResult(name="synthetic", value=0.0, bound=0.5, passed=True)]

    monkeypatch.setattr(checks, "run_checks", passing)
    (tmp_path / "check_report.csv").mkdir()
    assert cli.main(["check", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"cannot write {tmp_path / 'check_report.csv'}: Is a directory\n"


@pytest.mark.parametrize("prior", ["kind = lrgmm\nd = 4\nr = 1\nk = 2\n",
                                   "kind = box\nlower = -1 -1\nupper = 1 1\n"],
                         ids=["lrgmm", "box"])
@pytest.mark.parametrize("kind", recovery_engine.SCHEDULE_KINDS)
def test_simulate_rejects_a_sigma_max_whose_square_overflows(tmp_path, capsys, prior, kind):
    """sigma_max = 1e200 used to end in a traceback, or to run on a box.

    linear and infinite_geometric raised OverflowError while the config was
    parsed; geometric and cosine raised ValueError at an lrgmm run's first step.
    """
    fields = "a = 0.9\n" if kind == "infinite_geometric" else "sigma_min = 1e-4\nhorizon = 5\n"
    text = (f"[prior]\n{prior}[sensing]\nm = 2\n"
            f"[schedule.s]\nkind = {kind}\nsigma_max = 1e200\n{fields}"
            "[run]\ntrials = 1\nn_iters = 5\n")
    out = tmp_path / "o"
    assert cli.main(["simulate", write_config(tmp_path, text), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: [schedule.s]: sigma_max must be positive with a finite square, "
        "got 1e+200\n")
    assert not out.exists()


# ----------------------------------------------------------------- analyze


def test_analyze_writes_rates_and_summary(tmp_path):
    out = _simulated(tmp_path, TWO_SCHEDULE_CONFIG, name="two")
    assert cli.main(["analyze", out]) == 0
    with open(os.path.join(out, "rates.csv")) as fh:
        rates = fh.read().strip().split("\n")
    assert rates[0] == "file,schedule,seed,burn_in,rate,r2,final_mse"
    assert len(rates) == 5
    schedules = sorted(line.split(",")[1] for line in rates[1:])
    assert schedules == ["geometric", "geometric", "lin", "lin"]
    with open(os.path.join(out, "summary.csv")) as fh:
        summary = fh.read().strip().split("\n")
    assert summary[0] == ("schedule,n_traces,mean_final_mse,median_final_mse,mean_burn_in,"
                          "n_converged")
    assert len(summary) == 3
    first = summary[1].split(",")
    assert first[0] == "geometric" and first[1] == "2"
    assert float(first[2]) >= 0.0


def test_analyze_exits_2_when_a_report_is_unwritable(tmp_path, capsys):
    out = _simulated(tmp_path, TWO_SCHEDULE_CONFIG, name="two")
    os.mkdir(os.path.join(out, "rates.csv"))
    capsys.readouterr()
    assert cli.main(["analyze", out]) == 2
    err = capsys.readouterr().err
    assert err == f"cannot write {os.path.join(out, 'rates.csv')}: Is a directory\n"


def test_analyze_quotes_a_comma_in_a_file_or_schedule_name(tmp_path):
    """A comma in a trace's name or its metadata stays inside its field.

    Both come from untrusted files; written unquoted, such a row shifted
    every later column, and final_mse read back as another column's value.
    """
    for name, schedule in (("trace_a,b.csv", "plain"), ("trace_plain_00001.csv", "a,b")):
        pd.RecoveryTrace(
            sigma=np.full(3, 0.5), mse=0.25 ** np.arange(3.0),
            residual=np.zeros(3), frontier_gap=np.full(3, np.nan),
            weight_entropy=np.full(3, np.nan), metadata={"schedule_name": schedule},
        ).write_csv(str(tmp_path / name))
    assert cli.main(["analyze", str(tmp_path)]) == 0
    with open(tmp_path / "rates.csv", newline="") as fh:
        rates = [(row["file"], row["schedule"], row["final_mse"]) for row in csv.DictReader(fh)]
    assert rates == [("trace_a,b.csv", "plain", "0.0625"),
                     ("trace_plain_00001.csv", "a,b", "0.0625")]
    with open(tmp_path / "summary.csv", newline="") as fh:
        summary = [(row["schedule"], row["mean_final_mse"]) for row in csv.DictReader(fh)]
    assert summary == [("a,b", "0.0625"), ("plain", "0.0625")]


def test_analyze_counts_the_converged_flagship_traces(flagship_traces, tmp_path):
    f = flagship_traces
    assert cli.main(["analyze", f.out, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "summary.csv") as fh:
        got = {row["schedule"]: int(row["n_converged"]) for row in csv.DictReader(fh)}
    want = {name: sum(f.traces[name, seed].final_mse < cli.CONVERGED_MSE
                      for seed in f.trial_seeds)
            for name in f.schedules}
    assert got == want
    assert len(set(want.values())) > 1


def test_analyze_reads_only_the_traces_in_the_manifest(tmp_path, capsys):
    cfg_path = write_config(tmp_path, TWO_SCHEDULE_CONFIG)
    out = str(tmp_path / "out")
    assert cli.main(["simulate", cfg_path, "--out", out]) == 0
    cfg_path = write_config(
        tmp_path, TWO_SCHEDULE_CONFIG.replace("43 44", "43"), name="one.cfg"
    )
    assert cli.main(["simulate", cfg_path, "--out", out]) == 0
    capsys.readouterr()
    assert cli.main(["analyze", out]) == 0
    assert "skipping trace_geometric_00044.csv" in capsys.readouterr().err
    with open(os.path.join(out, "rates.csv")) as fh:
        rows = [line.split(",") for line in fh.read().strip().split("\n")[1:]]
    assert sorted((row[1], row[2]) for row in rows) == [("geometric", "43"), ("lin", "43")]


def test_analyze_names_each_listed_trace_that_is_missing(tmp_path, capsys):
    out = _simulated(tmp_path, TWO_SCHEDULE_CONFIG, name="gone")
    kept = "trace_lin_00043.csv"
    gone = ["trace_geometric_00043.csv", "trace_geometric_00044.csv", "trace_lin_00044.csv"]
    for name in gone:
        os.remove(os.path.join(out, name))
    capsys.readouterr()
    assert cli.main(["analyze", out]) == 0
    err = capsys.readouterr().err
    assert err.splitlines() == [f"missing {name}: listed in manifest.json" for name in gone]
    with open(os.path.join(out, "rates.csv")) as fh:
        assert [line.split(",")[0] for line in fh.read().splitlines()[1:]] == [kept]


@pytest.mark.parametrize("manifest", [
    json.dumps({"files": "trace_lin_00043.csv"}),
    json.dumps({"files": ["trace_lin_00043.csv", 7]}),
    json.dumps({"files": {"trace_lin_00043.csv": 1}}),
    json.dumps(["trace_lin_00043.csv"]),
    json.dumps({}),
    "[" * 200_000 + "]" * 200_000,
], ids=["string", "non-string-entry", "object", "list", "no-files", "deeply-nested"])
def test_analyze_rejects_a_malformed_manifest(tmp_path, capsys, manifest):
    """``files`` must be a list of names: a string is not read as its set of characters.

    JSON nested too deeply for the decoder is unreadable too, not a traceback.
    """
    out = _simulated(tmp_path, TWO_SCHEDULE_CONFIG, name="bad")
    (tmp_path / "bad" / "manifest.json").write_text(manifest)
    capsys.readouterr()
    assert cli.main(["analyze", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("unreadable manifest.json: ") and "skipping" not in err
    assert not os.path.exists(os.path.join(out, "rates.csv"))


def test_analyze_skips_a_trace_whose_n_does_not_count_up(tmp_path, capsys):
    """n = 5, 3, 3, 1, 0, -2 used to give rate 0.5 and r2 = 1 for mse = 0.25**n."""
    header = ["# projdiff-trace v2", "# {}", "n,sigma,mse,residual,frontier_gap,weight_entropy"]
    for name, ns in (("trace_bad_00001.csv", (5, 3, 3, 1, 0, -2)),
                     ("trace_good_00001.csv", range(6))):
        rows = [f"{n},0.5,{0.25 ** n!r},0,nan,nan" for n in ns]
        (tmp_path / name).write_text("\n".join(header + rows) + "\n")
    assert cli.main(["analyze", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("skipping trace_bad_00001.csv: ")
    assert "malformed data rows: column n holds 5.0, not an iteration number" in err
    with open(tmp_path / "rates.csv") as fh:
        assert [line.split(",")[0] for line in fh.read().splitlines()[1:]] == [
            "trace_good_00001.csv"]


def test_analyze_recovers_a_planted_linear_rate(tmp_path):
    rows = 14
    trace = pd.RecoveryTrace(
        sigma=np.geomspace(0.5, 1e-4, rows),
        mse=0.25 ** np.arange(rows, dtype=float),
        residual=np.zeros(rows),
        frontier_gap=np.full(rows, np.nan),
        weight_entropy=np.full(rows, np.nan),
        metadata={"schedule_name": "geometric", "trial_seed": 7},
    )
    trace.write_csv(str(tmp_path / "trace_geometric_00007.csv"))
    assert cli.main(["analyze", str(tmp_path)]) == 0
    with open(tmp_path / "rates.csv") as fh:
        row = fh.read().strip().split("\n")[1].split(",")
    assert float(row[4]) == pytest.approx(0.5, rel=1e-12)
    assert row[3] == ""  # no distance columns so no burn-in estimate


# A trace as versions before the nearest-component columns wrote it.
V1_TRACE = "\n".join(["# projdiff-trace v1", '# {"true_component": 0}',
                      "n,sigma,mse,residual,frontier_gap,weight_entropy,dist_0,dist_1"]
                     + [f"{n},0.5,{0.25 ** n!r},0,nan,nan,0,1" for n in range(8)]) + "\n"


def test_analyze_skips_malformed_files_with_a_warning(tmp_path, capsys):
    out = _simulated(tmp_path, SMALL_CONFIG, name="ok")
    os.remove(os.path.join(out, "manifest.json"))  # so analyze opens every .csv
    (tmp_path / "ok" / "garbage.csv").write_text("n,sigma\n0,0.5\n")
    (tmp_path / "ok" / "bin.csv").write_bytes(b"\xff\xfe")
    (tmp_path / "ok" / "x.csv").mkdir()
    (tmp_path / "ok" / "old.csv").write_text(V1_TRACE)
    assert cli.main(["analyze", out]) == 0
    err = capsys.readouterr().err
    assert "skipping garbage.csv: " in err and "not a trace file" in err
    assert "skipping old.csv: " in err and "a v1 trace" in err and "rerun simulate" in err
    assert "skipping bin.csv: " in err
    assert "skipping x.csv: " in err
    with open(os.path.join(out, "rates.csv")) as fh:
        assert len(fh.read().strip().split("\n")) == 2


@pytest.mark.parametrize(
    "metadata",
    [
        {"schedule": 5},
        {"schedule": {"kind": 3}, "trial_seed": [1]},
        {"true_component": "x"},
        {"true_component": 9, "schedule_name": 4},
        {"true_component": True, "seed": "s"},
    ],
)
def test_analyze_treats_mistyped_metadata_as_absent(tmp_path, metadata, capsys):
    rows = 14
    lines = ["# projdiff-trace v2", "# " + json.dumps(metadata),
             "n,sigma,mse,residual,frontier_gap,weight_entropy,nearest,dist_nearest,dist_second"]
    lines += [f"{n},0.5,{0.25 ** n!r},0,nan,nan,0,{0.5 ** n!r},1" for n in range(rows)]
    (tmp_path / "trace_hand_00001.csv").write_text("\n".join(lines) + "\n")
    assert cli.main(["analyze", str(tmp_path)]) == 0
    assert "skipping" not in capsys.readouterr().err
    with open(tmp_path / "rates.csv") as fh:
        row = fh.read().strip().split("\n")[1].split(",")
    assert row[:4] == ["trace_hand_00001.csv", "", "", ""]
    assert float(row[4]) == pytest.approx(0.5, rel=1e-12)


def test_analyze_exits_2_when_nothing_is_readable(tmp_path, capsys):
    (tmp_path / "garbage.csv").write_text("not a trace\n")
    assert cli.main(["analyze", str(tmp_path)]) == 2
    assert "no readable traces" in capsys.readouterr().err
    (tmp_path / "v1").mkdir()
    (tmp_path / "v1" / "trace_geometric_00001.csv").write_text(V1_TRACE)
    assert cli.main(["analyze", str(tmp_path / "v1")]) == 2
    err = capsys.readouterr().err
    assert "rerun simulate" in err and "no readable traces" in err
    assert cli.main(["analyze", str(tmp_path / "missing")]) == 2


def test_analyze_out_flag_redirects_reports(tmp_path):
    out = _simulated(tmp_path, SMALL_CONFIG, name="src")
    reports = str(tmp_path / "reports")
    assert cli.main(["analyze", out, "--out", reports]) == 0
    assert os.path.exists(os.path.join(reports, "rates.csv"))
    assert os.path.exists(os.path.join(reports, "summary.csv"))
    assert not os.path.exists(os.path.join(out, "rates.csv"))


def test_analyze_reruns_do_not_warn_about_their_own_reports(tmp_path, capsys):
    out = _simulated(tmp_path, SMALL_CONFIG, name="re")
    assert cli.main(["analyze", out]) == 0
    capsys.readouterr()
    assert cli.main(["analyze", out]) == 0
    assert "skipping" not in capsys.readouterr().err


# --------------------------------------------------------------- gen-model


def test_gen_model_union_round_trip(tmp_path):
    path = str(tmp_path / "u.model")
    assert cli.main(["gen-model", "union:d=8,ranks=2|3,seed=5", "-o", path]) == 0
    loaded = pd.load_model(path)
    direct = pd.random_union(8, [2, 3], np.random.default_rng(5))
    assert list(loaded.ranks) == [2, 3]
    for k in range(2):
        np.testing.assert_allclose(loaded.basis(k), direct.basis(k), atol=1e-15)


def test_gen_model_lrgmm_and_box(tmp_path):
    lp = str(tmp_path / "p.model")
    assert cli.main(["gen-model", "lrgmm:d=6,r=2,k=3,seed=9,pi=0.2|0.5|0.3", "-o", lp]) == 0
    prior = pd.load_model(lp)
    np.testing.assert_allclose(prior.pi, [0.2, 0.5, 0.3], atol=1e-15)
    assert prior.ambient_dim == 6

    bp = str(tmp_path / "b.model")
    assert cli.main(["gen-model", "box:lower=-1|-2,upper=1|0.5", "-o", bp]) == 0
    box = pd.load_model(bp)
    np.testing.assert_array_equal(box.lower, [-1.0, -2.0])
    np.testing.assert_array_equal(box.upper, [1.0, 0.5])


# Other runs read these files back, so their bytes are pinned.  The
# rank-mixed union writes each component's own columns of the zero-padded
# stack, not its padding.  Its bases come from a LAPACK QR, so its bytes are
# recorded per BLAS core (see cli.blas_core); the sparse file makes no
# BLAS call.
GEN_MODEL_SHA256 = {
    "union:d=8,ranks=2|3,seed=5": {
        "SkylakeX": "2166e15220eadaa96da703c7380df9662bad704aebfdbec90d16afb116222c75",
        "Haswell": "194d58e7ca04f564c005a20abd446fdb848ba3b90e8cf1f6fc157a8bf912db62",
        "Sandybridge": "194d58e7ca04f564c005a20abd446fdb848ba3b90e8cf1f6fc157a8bf912db62",
        "Katmai": "194d58e7ca04f564c005a20abd446fdb848ba3b90e8cf1f6fc157a8bf912db62",
    },
    "sparse:d=4,s=2": "b5e0f517037459026d49e38e8998040253e1dca2c6b55ff86748b959f79481b0",
}


@pytest.mark.parametrize("spec", GEN_MODEL_SHA256)
def test_gen_model_file_bytes_are_pinned(tmp_path, spec):
    path = tmp_path / "m.model"
    assert cli.main(["gen-model", spec, "-o", str(path)]) == 0
    sha256, pins = hashlib.sha256(path.read_bytes()).hexdigest(), GEN_MODEL_SHA256[spec]
    if isinstance(pins, dict):
        assert_pinned(pins, sha256)
    else:
        assert sha256 == pins


def test_gen_model_sparse_spec(tmp_path):
    path = str(tmp_path / "s.model")
    assert cli.main(["gen-model", "sparse:d=4,s=2", "-o", path]) == 0
    prior = pd.load_model(path)
    assert prior.n_components == 6


def test_gen_model_lists_take_the_repeat_form(tmp_path):
    for spec in ("union:d=6,ranks=2*3|1,seed=5", "union:d=6,ranks=2|2|2|1,seed=5",
                 "box:lower=-1*2|0,upper=1|1|0", "box:lower=-1|-1|0,upper=1|1|0"):
        assert cli.main(["gen-model", spec, "-o", str(tmp_path / spec.replace("|", "_"))]) == 0
    files = read_files(tmp_path)
    assert files["union:d=6,ranks=2*3_1,seed=5"] == files["union:d=6,ranks=2_2_2_1,seed=5"]
    assert files["box:lower=-1*2_0,upper=1_1_0"] == files["box:lower=-1_-1_0,upper=1_1_0"]


def test_gen_model_seed_override_wins(tmp_path):
    a, b = str(tmp_path / "a.model"), str(tmp_path / "b.model")
    assert cli.main(["gen-model", "union:d=4,ranks=1,seed=1", "-o", a,
                     "--seed-override", "9"]) == 0
    assert cli.main(["gen-model", "union:d=4,ranks=1,seed=9", "-o", b]) == 0
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_gen_model_prior_kinds_take_the_config_keys(tmp_path):
    explicit, default = str(tmp_path / "a.model"), str(tmp_path / "b.model")
    assert cli.main(["gen-model", f"lrgmm:d=6,r=2,k=3,seed={DEFAULT_PRIOR_SEED},pi=uniform",
                     "-o", explicit]) == 0
    assert cli.main(["gen-model", "lrgmm:d=6,r=2,k=3", "-o", default]) == 0
    with open(explicit, "rb") as fa, open(default, "rb") as fb:
        assert fa.read() == fb.read()
    overridden = str(tmp_path / "c.model")
    assert cli.main(["gen-model", "lrgmm:d=6,r=2,k=3,seed=4", "-o", overridden,
                     "--seed-override", str(DEFAULT_PRIOR_SEED)]) == 0
    with open(explicit, "rb") as fa, open(overridden, "rb") as fc:
        assert fa.read() == fc.read()


@pytest.mark.parametrize(
    "spec,message",
    [
        ("union:d=8,ranks=2|3", "[union] seed: required key is missing"),
        ("nope:d=3", "unknown model kind 'nope'"),
        ("file:path=x.model", "unknown model kind 'file'"),
        ("lrgmm:d=x,r=1,k=1,seed=1", "[prior] d: expected an integer"),
        ("lrgmm:d=4,r=9,k=2,seed=1", "[prior] r: must be between 1 and d = 4, got 9"),
        ("lrgmm:d=4,r=1,k=2,pi=0.5|0.6", "[prior] pi: mixture weights must sum to 1"),
        ("box:lower=-1|-1", "[prior] upper: required key is missing"),
        ("box:lower=1|-1,upper=2|1", "[prior] lower: active coordinates must contain the origin"),
        ("box:lower=-1e308|-1,upper=1e308|1",
         "[prior] upper: box width upper - lower overflows at coordinate 0"),
        ("sparse:d=4,s=2,seed=3", "[prior] seed: unknown key"),
        ("sparse:d=100000,s=50000",
         "[prior] s: C(100000,50000) components exceed the cap of 200000"),
        ("justakind", "model spec needs kind:key=value"),
        ("union:d=8,ranks", "is not key=value"),
        ("union:d=8,ranks=2.5|3,seed=5", "[union] ranks: expected integers"),
        ("union:d=8,ranks=2*0,seed=5",
         "[union] ranks: the repeat count in '2*0' must be a positive integer"),
        ("union:d=8,ranks=2|3,seed=5,bogus=1", "[union] bogus: unknown key"),
        ("union:d=4,ranks=2|9,seed=5", "[union] ranks: need ranks between 1 and d = 4"),
        ("union:d=100000,ranks=1001,seed=1",
         "[union] d: K*d*r = 1*100000*1001 = 100100000 basis entries exceed the cap of "
         "100000000"),
        pytest.param("union:d=1,ranks=" + "|".join(["1"] * 200001) + ",seed=1",
                     "[union] ranks: 200001 components exceed the cap of 200000",
                     id="union-component-cap"),
        ("matrix:m=2,d=3", "unknown model kind 'matrix'"),
        ("lrgmm:d=4,r=1,k=2,seed=-1", "[prior] seed: seeds must be >= 0, got -1"),
        ("union:d=8,ranks=2|3,seed=-1", "[union] seed: seeds must be >= 0, got -1"),
        ("lrgmm:d=4,r=2,k=2,seed=1,seed=2", "model spec gives 'seed' twice"),
        ("lrgmm:kind=box,d=4,r=2,k=2,seed=1", "model spec gives 'kind' twice"),
    ],
)
def test_gen_model_rejects_bad_specs(tmp_path, spec, message, capsys, monkeypatch):
    # A rejected spec builds nothing, so an over-cap union fails here without allocating.
    monkeypatch.setattr(model_sets, "random_union", _out_of_memory)
    monkeypatch.setattr(lrgmm_prior, "random_lrgmm", _out_of_memory)
    assert cli.main(["gen-model", spec, "-o", str(tmp_path / "x.model")]) == 2
    err = capsys.readouterr().err
    assert "gen-model error" in err and message in err
    assert not os.path.exists(tmp_path / "x.model")


@pytest.mark.parametrize("spec,name", [
    ("union:d=4096,ranks=1,seed=5", "random_union"),
    ("lrgmm:d=4096,r=1,k=1,seed=5", "random_lrgmm"),
])
def test_gen_model_reports_an_oversize_model_as_exit_2(tmp_path, monkeypatch, capsys,
                                                       spec, name):
    monkeypatch.setattr(model_sets if name == "random_union" else lrgmm_prior, name,
                        _out_of_memory)
    assert cli.main(["gen-model", spec, "-o", str(tmp_path / "x.model")]) == 2
    err = capsys.readouterr().err
    # A prior kind's keys are [prior] keys, as in every other message for its spec.
    section = "union" if spec.startswith("union:") else "prior"
    assert f"gen-model error: [{section}] d: too large: not enough memory" in err
    assert not os.path.exists(tmp_path / "x.model")


# ------------------------------------------------------------- entry point


@pytest.mark.parametrize("argv", [
    ["check", "--seed-override", "1"],
    ["analyze", "{tmp}", "--seed-override", "1"],
    ["gen-model", "union:d=4,ranks=1,seed=1", "-o", "{tmp}/model", "--out", "{tmp}/out"],
], ids=["check", "analyze", "gen-model"])
def test_a_subcommand_refuses_a_flag_it_does_not_read(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([arg.format(tmp=tmp_path) for arg in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "projdiff", "--help"],
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0
    for word in (b"simulate", b"check", b"analyze", b"gen-model"):
        assert word in proc.stdout
