import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import brownlab.brown as brown
import brownlab.pseudospec as pseudospec
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
from brownlab.pseudospec import GridSpec, pseudospectrum_area, smin_map_full, trial_matrix

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


_ROUTE_GRID = GridSpec(-2, 2, -2, 2, 5, 5)  # nodes at 0, +-1, +-2 on each axis


@pytest.mark.parametrize("P, floor, fallbacks, floored", [
    # defective: the eigenvector matrix is singular, so no node is certified
    (0.3 * np.eye(6) + np.diag(np.ones(5), 1), None, 25, 0),
    # the eigenvalue 0 sits on a node: that node alone falls back and floors it
    (np.diag([0.0, 0.3 + 0.2j, -0.7 + 0.4j, 0.5j, -1.3, 1.6 - 0.1j]), 1e-12, 1, 1),
    (trial_matrix(ANTI, 20, 0, 0), None, 0, 0),
    # kappa_F(V) = 6 and no residual: at z = 0 the bound 6e-5 / 6 clears the
    # floor by 10x, inside the guard margin, so that node alone falls back
    (np.diag([6e-5, 0.3 + 0.2j, -0.7 + 0.4j, 0.5j, -1.3, 1.6 - 0.1j]), 1e-6, 1, 0),
], ids=["jordan", "eigenvalue_on_node", "generic_anti", "inside_guard_margin"])
def test_auto_route_certifies_only_what_it_can_prove(P, floor, fallbacks, floored,
                                                     monkeypatch):
    monkeypatch.setattr(pseudospec, "trial_matrix", lambda p, N, seed, trial: P)
    svd_calls = []
    svd = brown.shifted_svals

    def counting_svd(*a, **k):
        svd_calls.append(1)
        return svd(*a, **k)

    monkeypatch.setattr(brown, "shifted_svals", counting_svd)
    N = P.shape[0]
    auto = log_potential(ANTI, N, _ROUTE_GRID, trials=1, floor=floor, method="auto")
    assert len(svd_calls) == fallbacks
    exact = log_potential(ANTI, N, _ROUTE_GRID, trials=1, floor=floor, method="svd")
    assert np.array_equal(auto.truncated_fraction, exact.truncated_fraction)
    assert auto.truncated_fraction.sum() == floored / N
    if fallbacks == _ROUTE_GRID.nx * _ROUTE_GRID.ny:
        assert np.array_equal(auto.h, exact.h)
    assert np.allclose(auto.h, exact.h, rtol=0, atol=1e-12)


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
        log_potential(ANTI, 8, g, trials=1, seed=0, floor=-1.0)
    with pytest.raises(ValueError):
        log_potential(ANTI, 8, g, trials=1, seed=0, method="magic")


def test_log_potential_deterministic_across_threads():
    g = GridSpec(-1, 1, -1, 1, 4, 4)
    a = log_potential(ANTI, 12, g, trials=3, seed=5, threads=1)
    b = log_potential(ANTI, 12, g, trials=3, seed=5, threads=3)
    assert np.array_equal(a.h, b.h)


_H_DIGEST = """
import hashlib
from brownlab.brown import log_potential
from brownlab.ncpoly import parse
from brownlab.pseudospec import GridSpec
g = GridSpec(-2.5, 2.5, -2.5, 2.5, 9, 9)
fld = log_potential(parse("x1*x2 + x2*x1"), 100, g, trials=1, seed=1)
print(hashlib.sha256(fld.h.tobytes()).hexdigest())
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs")
def test_log_potential_bytes_do_not_depend_on_blas_threads():
    # eig at N=100 rounds differently on 1 and 2 OpenBLAS threads; the
    # trial pool runs it on one, whatever the environment asks for
    src = str(Path(brown.__file__).resolve().parents[1])
    digests = set()
    for blas_threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _H_DIGEST], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        digests.add(out.stdout.strip())
    assert len(digests) == 1


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
    inner = np.abs(g.nodes()[1:-1, 1:-1]) <= 0.8
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
    p_shift = parse("x1*x2 + x2*x1 + (0.5+0.25i)")
    assert p_shift.terms[()] == c
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


_GRID_3X3 = GridSpec(-1, 1, -1, 1, 3, 3)


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize("run", [
    lambda trials: smin_map_full(ANTI, 8, _GRID_3X3, trials, seed=11),
    lambda trials: pseudospectrum_area(ANTI, 8, 0.1, _GRID_3X3, trials, seed=11),
    lambda trials: log_potential(ANTI, 8, _GRID_3X3, trials, seed=11),
    lambda trials: stieltjes(ANTI, 8, 0.0, np.array([0.1, 1.0]), trials, seed=11),
], ids=["smin_map_full", "pseudospectrum_area", "log_potential", "stieltjes"])
def test_every_trial_loop_rejects_nonpositive_trials(run, trials):
    # one check, in pseudospec.trial_map, guards every loop
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run(trials)


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
    tv = compare_esd_brown(lam, est)
    assert tv <= 1e-12


def test_compare_disjoint_supports_is_one():
    g = GridSpec(-2, 2, -2, 2, 9, 9)
    hist = np.zeros((7, 7))
    hist[0, 0] = 1.0
    est = _brown_from_histogram(g, hist)
    far = np.full(50, 10 + 10j)
    assert compare_esd_brown(far, est) == 1.0


def test_compare_rejects_empty_spectrum():
    g = GridSpec(-2, 2, -2, 2, 9, 9)
    hist = np.ones((7, 7))
    est = _brown_from_histogram(g, hist)
    with pytest.raises(ValueError):
        compare_esd_brown(np.array([]), est)


def test_compare_clips_negative_density():
    g = GridSpec(-2, 2, -2, 2, 9, 9)
    density = np.full((7, 7), 1.0)
    density[3, 3] = -5.0  # diagnostic negative cell must not poison the TV
    est = BrownEstimate(grid=g, density=density, total_mass=1.0)
    lam = np.zeros(10, dtype=complex)
    tv = compare_esd_brown(lam, est)
    assert 0.0 <= tv <= 1.0


def test_density_field_sits_on_the_interior_nodes():
    g = GridSpec(-1, 1, -2, 2, 6, 5)
    est = brown_estimate(_flat_field(g, np.zeros((6, 5))))
    fld = est.density_field()
    assert fld.values.shape == (4, 3)
    assert np.allclose(fld.spec.nodes(), g.nodes()[1:-1, 1:-1])
