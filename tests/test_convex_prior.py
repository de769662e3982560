import math
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

import projdiff as pd
from projdiff import checks
from projdiff.model_sets import BoxSet


def unit_box(d):
    return BoxSet(lower=-np.ones(d), upper=np.ones(d))


def mp_truncated_mean(lo, hi, y, s, dps=30):
    """Quadrature of the truncated Gaussian, rescaled by its in-interval peak."""
    with mp.workdps(dps):
        lo_, hi_, y_, s_ = map(mp.mpf, map(float, (lo, hi, y, s)))
        c = min(max(y_, lo_), hi_)
        peak = (c - y_) ** 2
        dens = lambda v: mp.exp(-((v - y_) ** 2 - peak) / (2 * s_ * s_))
        pts = [lo_, c, hi_] if lo_ < c < hi_ else [lo_, hi_]
        den = mp.quad(dens, pts)
        num = mp.quad(lambda v: v * dens(v), pts)
        return float(num / den)


# ------------------------------------------------- truncated_normal_mean


def test_truncated_mean_matches_quadrature():
    r = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        lo = -float(r.random() * 2 + 0.05)
        hi = float(r.random() * 2 + 0.05)
        y = float(r.normal() * 3)
        s = float(10 ** r.uniform(-2, 0))
        oracle = mp_truncated_mean(lo, hi, y, s)
        got = float(pd.truncated_normal_mean(lo, hi, y, s))
        worst = max(worst, abs(got - oracle))
    assert worst <= 1e-9


def test_truncated_mean_deep_tail():
    # y far above the box at tiny sigma: mass piles onto the upper bound but
    # the mean must stay strictly below it
    got = float(pd.truncated_normal_mean(-1.0, 1.0, 5.0, 1e-3))
    assert got == pytest.approx(0.99999975000003125, rel=1e-12)
    assert got < 1.0


def test_truncated_mean_symmetric_point_is_exact_zero():
    assert float(pd.truncated_normal_mean(-1.0, 1.0, 0.0, 0.3)) == 0.0


def test_truncated_mean_is_elementwise():
    lo = np.array([-1.0, -2.0])
    hi = np.array([1.0, 0.5])
    y = np.array([0.2, 3.0])
    got = pd.truncated_normal_mean(lo, hi, y, 0.4)
    for i in range(2):
        want = float(pd.truncated_normal_mean(lo[i], hi[i], y[i], 0.4))
        assert got[i] == pytest.approx(want, rel=1e-15)


def test_truncated_mean_monotone_in_y():
    ys = np.linspace(-6, 6, 41)
    means = [float(pd.truncated_normal_mean(-1.0, 1.0, y, 0.2)) for y in ys]
    assert all(b >= a for a, b in zip(means, means[1:]))
    assert all(-1.0 < m < 1.0 for m in means)


# ------------------------------------------------------------ box_denoiser


def test_box_denoiser_strictly_interior():
    box = unit_box(1)
    for y in np.linspace(-3.0, 3.0, 25):
        for sigma in (1e-3, 0.1, 1.0, 10.0):
            out = pd.box_denoiser(box, np.array([y]), sigma)
            assert -1.0 < out[0] < 1.0


def test_box_denoiser_pins_inactive_coordinates():
    box = BoxSet(lower=[-1.0, 0.0], upper=[1.0, 0.0])
    out = pd.box_denoiser(box, np.array([0.4, 9.0]), 0.5)
    assert out[1] == 0.0
    assert -1.0 < out[0] < 1.0


def test_box_denoiser_input_checks():
    box = unit_box(2)
    with pytest.raises(ValueError):
        pd.box_denoiser(box, np.array([1.0, np.nan]), 0.5)
    with pytest.raises(ValueError):
        pd.box_denoiser(box, np.array([1.0, np.inf]), 0.5)
    with pytest.raises(ValueError):
        pd.box_denoiser(box, np.ones(2), 0.0)
    with pytest.raises(ValueError):
        pd.box_denoiser(box, np.ones(3), 0.5)


def test_box_denoiser_approaches_projection():
    box = unit_box(2)
    y = np.array([1.7, -0.4])
    anchor = pd.project_box(box, y)
    gaps = [
        float(np.linalg.norm(pd.box_denoiser(box, y, s) - anchor))
        for s in (0.3, 0.1, 0.03, 0.01)
    ]
    assert all(b <= a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-3


# ------------------------------------------------------------- sample_box


def test_sample_box_shape_and_support():
    box = BoxSet(lower=[-1.0, 0.0, -2.0], upper=[1.0, 0.0, 3.0])
    pts = pd.sample_box(box, np.random.default_rng(3), n=500)
    assert pts.shape == (500, 3)
    assert np.all(pts[:, 1] == 0.0)
    assert np.all(pts[:, 0] >= -1.0) and np.all(pts[:, 0] <= 1.0)
    assert np.all(pts[:, 2] >= -2.0) and np.all(pts[:, 2] <= 3.0)


def test_sample_box_is_deterministic():
    box = unit_box(2)
    a = pd.sample_box(box, np.random.default_rng(8), n=10)
    b = pd.sample_box(box, np.random.default_rng(8), n=10)
    assert np.array_equal(a, b)


# ------------------------------------------------------------ mc_denoiser


def test_mc_denoiser_flat_likelihood_recovers_box_center():
    box = BoxSet(lower=[-1.0], upper=[3.0])
    est = pd.mc_denoiser(box, np.array([0.0]), 100.0, 50_000, np.random.default_rng(1))
    assert abs(est.value[0] - 1.0) <= 3.0 * est.stderr[0]
    assert est.effective_samples > 49_000


def test_mc_denoiser_agrees_with_exact_mean():
    box = unit_box(3)
    y = np.array([0.3, -2.0, 0.9])
    exact = pd.box_denoiser(box, y, 0.25)
    est = pd.mc_denoiser(box, y, 0.25, 2_000_000, np.random.default_rng(23))
    z = np.abs(exact - est.value) / est.stderr
    assert float(np.max(z)) <= 3.0


def test_mc_denoiser_config_sweep_against_exact():
    # mc_denoiser raises DegenerateWeightsError below 10 effective samples.
    assert checks.box_mc_max_z(10, 150_000) <= 4.0


def test_import_defers_scipy_special_until_the_box_denoiser_runs(package_env):
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import projdiff as pd\n"
        "assert 'scipy.special' not in sys.modules, 'imported eagerly'\n"
        "box = pd.BoxSet(lower=[-1.0, -1.0], upper=[1.0, 1.0])\n"
        "print(repr(pd.box_denoiser(box, np.array([5.0, 0.0]), 1e-3).tolist()))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=package_env, timeout=120, check=True).stdout
    box = pd.BoxSet(lower=[-1.0, -1.0], upper=[1.0, 1.0])
    assert out.strip() == repr(pd.box_denoiser(box, np.array([5.0, 0.0]), 1e-3).tolist())


def test_mc_denoiser_refuses_degenerate_weights():
    box = BoxSet(lower=[-0.1], upper=[0.1])
    with pytest.raises(pd.DegenerateWeightsError, match="effective sample size"):
        pd.mc_denoiser(box, np.array([5.0]), 1e-3, 2000, np.random.default_rng(2))


def test_mc_denoiser_minimum_sample_count():
    box = unit_box(1)
    with pytest.raises(ValueError, match="1000"):
        pd.mc_denoiser(box, np.array([0.0]), 1.0, 999, np.random.default_rng(4))


# -------------------------------------------------------- convex_gap_curve


def test_gap_curve_validations():
    box = unit_box(2)
    y = np.ones(2)
    with pytest.raises(ValueError, match="descending"):
        pd.convex_gap_curve(box, y, [1e-4, 1e-1])
    with pytest.raises(ValueError, match="descending"):
        pd.convex_gap_curve(box, y, [0.1, 0.1])
    with pytest.raises(ValueError):
        pd.convex_gap_curve(box, y, [1.0, 0.1])
    with pytest.raises(ValueError):
        pd.convex_gap_curve(box, y, [0.1, -0.1])


@pytest.mark.parametrize("s_dim", [1, 2, 5])
def test_gap_curve_vanishes_with_sigma(s_dim):
    box = unit_box(s_dim)
    corner = np.ones(s_dim)
    sigmas = list(np.geomspace(1e-1, 1e-4, 25))
    curve = pd.convex_gap_curve(box, corner, sigmas)
    gaps = [g for _, g in curve]
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= gaps[0]
    assert gaps[-1] <= 1e-2 * box.diameter


def test_gap_curve_corner_scales_linearly_in_sigma():
    box = unit_box(2)
    corner = np.ones(2)
    for sg in (0.2, 0.1, 0.05, 0.02):
        g1 = pd.convex_gap_curve(box, corner, [sg])[0][1]
        g2 = pd.convex_gap_curve(box, corner, [sg / 2])[0][1]
        assert 0.3 <= g2 / g1 <= 0.7


def test_gap_curve_interior_point_decays_fast():
    box = unit_box(2)
    interior = np.array([0.2, -0.35])
    curve = pd.convex_gap_curve(box, interior, list(np.geomspace(0.5, 0.05, 12)))
    fit = pd.fit_convex_rate(curve)
    assert fit.slope >= 2.0


def test_box_denoiser_rows_match_single_calls():
    box = pd.BoxSet(lower=[-1.0, -2.0, 0.0, -0.5], upper=[1.0, 0.5, 0.0, 3.0])
    rng = np.random.default_rng(5)
    block = rng.normal(scale=3.0, size=(9, 4))
    sigmas = np.geomspace(2.0, 1e-6, 9)
    out = pd.box_denoiser(box, block, sigmas)
    for row, sigma, got in zip(block, sigmas, out):
        assert np.array_equal(got, pd.box_denoiser(box, row, float(sigma)))
