import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

import projdiff as pd
from projdiff import checks, convex_prior
from projdiff.convex_prior import BoxSet


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


def mp_truncated_mean_closed(lo, hi, y, s, dps=60):
    """y + s (phi(a) - phi(b)) / (Phi(b) - Phi(a)) at 60 digits, with the mass
    taken from whichever tail or erf difference loses the fewest digits."""
    with mp.workdps(dps):
        lo_, hi_, y_, s_ = (mp.mpf(float(v)) for v in (lo, hi, y, s))
        a, b = (lo_ - y_) / s_, (hi_ - y_) / s_
        r2 = mp.sqrt(2)
        if a >= 0:
            mass = mp.erfc(a / r2) - mp.erfc(b / r2)
        elif b <= 0:
            mass = mp.erfc(-b / r2) - mp.erfc(-a / r2)
        else:
            mass = mp.erf(b / r2) - mp.erf(a / r2)
        return float(y_ + s_ * (mp.npdf(a) - mp.npdf(b)) / (mass / 2))


# ------------------------------------------------------ erfcx and erf


def test_erfcx_matches_mpmath_on_zero_to_1e8():
    cut = convex_prior.ERF_CUT
    x = np.unique(np.concatenate([
        np.linspace(0.0, 8.0, 801),
        np.geomspace(1e-12, 1e8, 400),
        [np.nextafter(cut, 0.0), cut, np.nextafter(cut, np.inf)],
    ]))
    with mp.workdps(40):
        want = np.array([float(mp.exp(mp.mpf(v) ** 2) * mp.erfc(mp.mpf(v))) for v in x])
    rel = np.abs(convex_prior._erfcx(x) - want) / want
    # 5.5e-16 with the exact square below the cut; exp(x * x) alone gives 1.2e-15.
    assert float(np.max(rel)) <= 1e-15


def test_erf_matches_mpmath():
    edges = [convex_prior.ERF_CUT, convex_prior.ERF_ONE]
    z = np.concatenate([np.linspace(-30.0, 30.0, 1201), np.geomspace(1e-300, 30.0, 300)])
    z = np.concatenate([z, [np.nextafter(e, t) for e in edges for t in (0.0, np.inf)], edges])
    z = np.unique(np.concatenate([z, -z]))
    with mp.workdps(40):
        want = np.array([float(mp.erf(mp.mpf(v))) for v in z])
    assert float(np.max(np.abs(convex_prior._erf(z) - want))) <= 2e-16


def test_gauss_legendre_table_is_numpys_rule_on_zero_to_one():
    nodes, weights = np.polynomial.legendre.leggauss(10)
    assert np.array_equal(convex_prior.GAUSS_NODES, 0.5 * (nodes + 1.0))
    assert np.array_equal(convex_prior.GAUSS_WEIGHTS, 0.5 * weights)


def test_truncated_mean_matches_mpmath_on_an_extreme_grid():
    # Offsets from the centre reach the box's edge, a few sigmas past it and
    # 1e3 away; at sigma = 10 a 1e-3 box is narrow, at sigma = 1e-8 every
    # offset beyond the edge is a deep tail.
    centre = 0.25
    rows = []
    for s in np.geomspace(1e-8, 10.0, 10):
        for w in (1e-3, 0.1, 2.0):
            for off in (0.0, 0.3 * w, 0.5 * w, 0.5 * w + s, 0.5 * w + 3 * s, 2 * w, 1.0, 30.0, 1e3):
                for sign in (1.0, -1.0):
                    rows.append((centre - w / 2, centre + w / 2, centre + sign * off, s))
    lo, hi, y, s = np.array(rows).T
    want = np.array([mp_truncated_mean_closed(*row) for row in rows])
    got = pd.truncated_normal_mean(lo, hi, y, s)
    assert float(np.max(np.abs(got - want))) <= 5e-12


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


def test_the_package_runs_without_scipy(tmp_path, package_env):
    """With every scipy import made to fail, the box denoiser, simulate and check run."""
    cfg = tmp_path / "box.cfg"
    cfg.write_text(
        "[prior]\nkind = box\nlower = -1 -1 -1e-3 0\nupper = 1 1 1e-3 0\n"
        "[sensing]\nm = 3\nseed = 4\n"
        "[schedule.geometric]\nsigma_max = 0.5\nsigma_min = 1e-4\nhorizon = 20\n"
        "[run]\nn_iters = 20\ntrials = 2\nbase_seed = 31\n"
    )
    # Rows reach every branch: tails, the erf terms on both sides of
    # ERF_CUT and a narrow box (the third coordinate).
    y = [[5.0, 0.5, 0.0, 0.0], [-1.0, 0.5, 2.0, 0.0], [0.0, 0.0, 0.0, 0.0]]
    sigma = [1e-3, 2.0, 0.15]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
        "import numpy as np\n"
        "import projdiff as pd\n"
        "from projdiff import cli\n"
        "box = pd.BoxSet(lower=[-1.0, -1.0, -1e-3, 0.0], upper=[1.0, 1.0, 1e-3, 0.0])\n"
        f"print(repr(pd.box_denoiser(box, np.array({y!r}), np.array({sigma!r})).tolist()))\n"
        f"assert cli.main(['simulate', {str(cfg)!r}, '--out', {str(tmp_path / 'sim')!r}]) == 0\n"
        f"assert cli.main(['check', '--out', {str(tmp_path / 'check')!r}]) == 0\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=package_env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    box = pd.BoxSet(lower=[-1.0, -1.0, -1e-3, 0.0], upper=[1.0, 1.0, 1e-3, 0.0])
    want = pd.box_denoiser(box, np.array(y), np.array(sigma))
    assert proc.stdout.splitlines()[0] == repr(want.tolist())
    assert sorted(os.listdir(tmp_path / "sim")) == [
        "manifest.json", "resolved.cfg", "trace_geometric_00031.csv", "trace_geometric_00032.csv"]


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
