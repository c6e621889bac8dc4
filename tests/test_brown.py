import numpy as np
import pytest

from brownlab.brown import (
    BrownEstimate,
    LogPotentialField,
    brown_estimate,
    compare_esd_brown,
    default_floor,
    log_potential,
    stieltjes,
)
from brownlab.ncpoly import parse
from brownlab.pseudospec import GridSpec
from brownlab.rmtcore import SpectrumSample

ANTI = parse("x1*x2 + x2*x1")


def _flat_field(grid, h, floor=1e-12):
    return LogPotentialField(
        grid=grid, h=h, truncated_fraction=np.zeros_like(h), floor=floor
    )


# ----------------------------------------------------------- log potential

def test_zero_polynomial_gives_exact_log_modulus():
    g = GridSpec(0.5, 2.0, 0.25, 1.0, 4, 3)
    fld = log_potential(parse("0"), 10, g, trials=1, seed=1)
    assert np.allclose(fld.h, np.log(np.abs(g.nodes())), atol=1e-14)
    assert np.all(fld.truncated_fraction == 0)


def test_far_shift_matches_log_z_within_one_percent():
    g = GridSpec(1000.0, 1001.0, 0.0, 1.0, 1, 1)
    fld = log_potential(ANTI, 30, g, trials=1, seed=2)
    assert abs(fld.h[0, 0] - np.log(1000.0)) <= 0.01 * np.log(1000.0)


def test_eigen_and_svd_routes_agree():
    g = GridSpec(-1.5, 1.5, -1.2, 1.2, 6, 5)
    a = log_potential(ANTI, 24, g, trials=2, seed=3, method="auto")
    b = log_potential(ANTI, 24, g, trials=2, seed=3, method="svd")
    assert np.allclose(a.h, b.h, atol=1e-12)
    assert np.array_equal(a.truncated_fraction, b.truncated_fraction)


def test_monotone_in_floor_shared_samples():
    g = GridSpec(-1.5, 1.5, -1.2, 1.2, 5, 5)
    lo = log_potential(ANTI, 16, g, trials=2, seed=4, floor=1e-12)
    hi = log_potential(ANTI, 16, g, trials=2, seed=4, floor=0.5)
    assert np.all(hi.h >= lo.h - 1e-13)
    assert np.all(hi.truncated_fraction >= lo.truncated_fraction)
    assert hi.truncated_fraction.max() > 0  # the large floor actually bites


def test_default_floor_and_validation():
    assert default_floor(400) == 400.0**-6
    g = GridSpec(-1, 1, -1, 1, 3, 3)
    with pytest.raises(ValueError):
        log_potential(ANTI, 8, g, trials=0, seed=0)
    with pytest.raises(ValueError):
        log_potential(ANTI, 8, g, trials=1, seed=0, floor=-1.0)
    with pytest.raises(ValueError):
        log_potential(ANTI, 8, g, trials=1, seed=0, method="magic")


def test_log_potential_deterministic_across_threads():
    g = GridSpec(-1, 1, -1, 1, 4, 4)
    a = log_potential(ANTI, 12, g, trials=3, seed=5, threads=1)
    b = log_potential(ANTI, 12, g, trials=3, seed=5, threads=3)
    assert np.array_equal(a.h, b.h)


def test_seed_stability_of_h_at_origin():
    # anti-commutator at z = 0, N = 400: h varies little from seed to seed
    g = GridSpec(0.0, 1.0, 0.0, 1.0, 1, 1)
    vals = [
        log_potential(ANTI, 400, g, trials=1, seed=s).h[0, 0] for s in range(10)
    ]
    assert np.std(vals) <= 0.02


# ----------------------------------------------------------- brown density

def test_constant_h_gives_zero_density():
    g = GridSpec(-1, 1, -1, 1, 9, 9)
    est = brown_estimate(_flat_field(g, np.ones((9, 9))))
    assert np.abs(est.density).max() <= 1e-10
    assert abs(est.total_mass) <= 1e-10


def test_harmonic_h_gives_zero_density():
    g = GridSpec(0.5, 1.5, -0.5, 0.5, 11, 11)
    zz = g.nodes()
    est = brown_estimate(_flat_field(g, np.log(np.abs(zz + 2))))
    # log|z + 2| is harmonic away from -2, outside the grid
    assert np.abs(est.density).max() <= 1e-3


def test_fundamental_solution_total_mass():
    g = GridSpec(-1, 1, -1, 1, 41, 41)
    a = 0.05 + 0.03j
    est = brown_estimate(_flat_field(g, np.log(np.abs(g.nodes() - a))))
    assert abs(est.total_mass - 1.0) <= 0.05


def test_circular_law_potential_recovers_uniform_density():
    g = GridSpec(-2, 2, -2, 2, 41, 41)
    az = np.abs(g.nodes())
    h = np.where(az <= 1, (az**2 - 1) / 2, np.log(np.maximum(az, 1e-300)))
    est = brown_estimate(_flat_field(g, h))
    inner = np.abs(est.interior_nodes()) <= 0.8
    assert np.abs(est.density[inner] - 1 / np.pi).max() <= 0.05 / np.pi


def test_brown_estimate_validation():
    g = GridSpec(-1, 1, -1, 1, 3, 3)
    bad = _flat_field(g, np.full((3, 3), np.nan))
    with pytest.raises(ValueError):
        brown_estimate(bad)
    tiny = GridSpec(-1, 1, -1, 1, 2, 3)
    with pytest.raises(ValueError):
        brown_estimate(_flat_field(tiny, np.zeros((2, 3))))


def test_translation_covariance():
    c = 0.5 + 0.25j
    g1 = GridSpec(-1.0, 1.0, -1.0, 1.0, 7, 7)
    g2 = GridSpec(-1.0 + c.real, 1.0 + c.real, -1.0 + c.imag, 1.0 + c.imag, 7, 7)
    p_shift = ANTI + c
    f1 = log_potential(ANTI, 14, g1, trials=2, seed=6)
    f2 = log_potential(p_shift, 14, g2, trials=2, seed=6)
    # identical samples: h2(z) = h1(z - c) exactly, so densities match
    assert np.allclose(f1.h, f2.h, atol=1e-12)
    d1 = brown_estimate(f1).density
    d2 = brown_estimate(f2).density
    assert np.allclose(d1, d2, atol=1e-10)


def test_clipping_policy_recorded():
    g = GridSpec(-1, 1, -1, 1, 5, 5)
    est = brown_estimate(_flat_field(g, np.zeros((5, 5))))
    assert "clip" in est.meta["clipping"]


# -------------------------------------------------------------- stieltjes

def test_stieltjes_point_mass_exact():
    z = 1.5 - 0.5j
    eta = np.array([0.01, 0.1, 1.0])
    g = stieltjes(parse("0"), 8, z, eta, trials=1, seed=7)
    expected = 1.0 / (1j * eta - abs(z) ** 2)
    assert np.allclose(g, expected, atol=1e-14)


def test_stieltjes_normalization_at_large_eta():
    g = stieltjes(ANTI, 30, 0.0, np.array([1e3]), trials=2, seed=8)
    assert abs(g[0] * 1e3 * 1j - 1.0) <= 0.01


def test_stieltjes_herglotz_sign():
    eta = np.logspace(-2, 0, 6)
    g = stieltjes(ANTI, 20, 0.3 + 0.1j, eta, trials=3, seed=9)
    assert np.all(g.imag < 0)


def test_stieltjes_fitted_exponent_below_one():
    # |Im g(i eta)| <= C eta^{-c2} with c2 < 1; fit, do not assert constants
    eta = np.logspace(-2, 0, 8)
    g = stieltjes(ANTI, 300, 0.0, eta, trials=3, seed=10)
    y = np.log(np.abs(g.imag))
    A = np.vstack([np.log(eta), np.ones(len(eta))]).T
    slope = np.linalg.lstsq(A, y, rcond=None)[0][0]
    c2 = -slope
    assert c2 < 1.0


def test_stieltjes_rejects_nonpositive_eta():
    with pytest.raises(ValueError):
        stieltjes(ANTI, 8, 0.0, np.array([0.0, 1.0]), trials=1, seed=11)


# ------------------------------------------------------------- comparison

def _brown_from_histogram(grid, hist):
    dx, dy = grid.dx, grid.dy
    density = hist / hist.sum() / (dx * dy)
    return BrownEstimate(grid=grid, density=density, total_mass=1.0)


def test_compare_identical_binned_inputs_is_zero():
    g = GridSpec(-2, 2, -2, 2, 9, 9)
    rng = np.random.default_rng(12)
    lam = (rng.normal(size=400) + 1j * rng.normal(size=400)) * 0.5
    lam = lam[np.abs(lam.real) < 1.4]
    lam = lam[np.abs(lam.imag) < 1.4]
    re_edges = g.re_min + g.dx * (np.arange(g.nx - 1) + 0.5)
    im_edges = g.im_min + g.dy * (np.arange(g.ny - 1) + 0.5)
    hist, _, _ = np.histogram2d(lam.real, lam.imag, bins=[re_edges, im_edges])
    est = _brown_from_histogram(g, hist)
    tv = compare_esd_brown(SpectrumSample(eigenvalues=lam), est, g)
    assert tv <= 1e-12


def test_compare_disjoint_supports_is_one():
    g = GridSpec(-2, 2, -2, 2, 9, 9)
    hist = np.zeros((7, 7))
    hist[0, 0] = 1.0
    est = _brown_from_histogram(g, hist)
    far = SpectrumSample(eigenvalues=np.full(50, 10 + 10j))
    assert compare_esd_brown(far, est, g) == 1.0


def test_compare_rejects_empty_spectrum_and_bad_bins():
    g = GridSpec(-2, 2, -2, 2, 9, 9)
    hist = np.ones((7, 7))
    est = _brown_from_histogram(g, hist)
    with pytest.raises(ValueError):
        compare_esd_brown(SpectrumSample(eigenvalues=np.array([])), est, g)
    other = GridSpec(-2, 2, -2, 2, 5, 5)
    with pytest.raises(ValueError):
        compare_esd_brown(SpectrumSample(eigenvalues=np.array([0j])), est, other)


def test_compare_clips_negative_density():
    g = GridSpec(-2, 2, -2, 2, 9, 9)
    density = np.full((7, 7), 1.0)
    density[3, 3] = -5.0  # diagnostic negative cell must not poison the TV
    est = BrownEstimate(grid=g, density=density, total_mass=1.0)
    lam = np.zeros(10, dtype=complex)
    tv = compare_esd_brown(SpectrumSample(eigenvalues=lam), est, g)
    assert 0.0 <= tv <= 1.0


def test_density_field_sits_on_the_interior_nodes():
    g = GridSpec(-1, 1, -2, 2, 6, 5)
    est = brown_estimate(_flat_field(g, np.zeros((6, 5))))
    fld = est.density_field()
    assert fld.values.shape == (4, 3)
    assert np.allclose(fld.spec.nodes(), est.interior_nodes())
