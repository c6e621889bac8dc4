import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from brownlab.linearize import build_linearization
from brownlab.ncpoly import parse
from brownlab.pseudospec import GridSpec, pseudospectrum_area, smin_map_full, trial_matrix
from brownlab.rmtcore import shifted_svals
from brownlab.walks import WalkBasis, delta_report

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
    svd_shifts = []
    svd = brown.shifted_svals

    def counting_svd(P, shifts):
        svd_shifts.append(len(shifts))
        return svd(P, shifts)

    monkeypatch.setattr(brown, "shifted_svals", counting_svd)
    N = P.shape[0]
    auto = log_potential(ANTI, N, _ROUTE_GRID, trials=1, floor=floor, method="auto")
    assert sum(svd_shifts) == auto.meta["exact_nodes"] == fallbacks
    exact = log_potential(ANTI, N, _ROUTE_GRID, trials=1, floor=floor, method="svd")
    assert np.array_equal(auto.truncated_fraction, exact.truncated_fraction)
    assert auto.truncated_fraction.sum() == floored / N
    if fallbacks == _ROUTE_GRID.nx * _ROUTE_GRID.ny:
        assert np.array_equal(auto.h, exact.h)
    assert np.allclose(auto.h, exact.h, rtol=0, atol=1e-12)


def _per_node_h(P, nodes_flat, floor, method):
    """The per-node sweep the chunked one replaced: the reference it must equal."""
    N = P.shape[0]
    h = np.empty(len(nodes_flat))
    trunc = np.zeros(len(nodes_flat))
    exact_nodes = 0
    if method == "auto":
        lam, V = np.linalg.eig(P)
        kappa = np.linalg.cond(V, "fro")
        slack = np.sqrt(N) * np.linalg.norm(P @ V - V * lam) / np.linalg.norm(V)
    for k, z in enumerate(nodes_flat):
        if method == "auto":
            dist = np.abs(lam - z)
            if dist.min() / kappa - slack > brown._GUARD_MARGIN * floor:
                h[k] = np.mean(np.log(dist))
                continue
        sv = shifted_svals(P, [z])[0]
        h[k] = np.mean(np.log(np.maximum(sv, floor)))
        trunc[k] = np.mean(sv <= floor)
        exact_nodes += 1
    return h, trunc, exact_nodes


_BOX = (-2.5, 2.5, -2.5, 2.5)


@pytest.mark.parametrize("N, n, trials, seed, floor, method", [
    (5, 9, 2, 3, None, "auto"),      # 33 of 162 node-samples take the exact route
    (12, 9, 2, 4, 1e-2, "auto"),     # the floor bites: every node is exact
    (5, 9, 2, 3, None, "svd"),
    (200, 41, 1, 1, None, "auto"),   # 11 chunks of 163 nodes, the last one short
], ids=["mixed_routes", "floor_heavy", "svd", "brown_sweep"])
def test_chunked_sweep_equals_per_node_loop(N, n, trials, seed, floor, method):
    nodes = GridSpec(*_BOX, n, n).nodes().ravel()
    floor = default_floor(N) if floor is None else floor
    for t in range(trials):
        P = trial_matrix(ANTI, N, seed, t)
        h, trunc, exact = brown._h_one_sample(P, nodes, floor, method)
        h_ref, trunc_ref, exact_ref = _per_node_h(P, nodes, floor, method)
        assert np.array_equal(h, h_ref)
        assert np.array_equal(trunc, trunc_ref)
        assert exact == exact_ref


@pytest.mark.parametrize("N, n, seed, exact_nodes", [
    (5, 9, 3, 33),
    (200, 41, 1, 0),  # the brown-sweep benchmark's config
], ids=["mixed_routes", "brown_sweep"])
def test_exact_nodes_counts_the_svd_route(N, n, seed, exact_nodes, monkeypatch):
    # a chunk whose nodes are all certified makes no SVD call at all
    svd_shifts = []
    svd = brown.shifted_svals

    def counting_svd(P, shifts):
        svd_shifts.append(len(shifts))
        return svd(P, shifts)

    monkeypatch.setattr(brown, "shifted_svals", counting_svd)
    fld = log_potential(ANTI, N, GridSpec(*_BOX, n, n), trials=2, seed=seed)
    assert fld.meta["exact_nodes"] == sum(svd_shifts) == exact_nodes
    assert 0 not in svd_shifts


def test_one_sample_sweep_memory_is_bounded():
    # an unchunked N=200, 41x41 sweep holds 5.4 MB in |lambda - z| alone
    P = trial_matrix(ANTI, 200, 1, 0)
    nodes = GridSpec(*_BOX, 41, 41).nodes().ravel()
    tracemalloc.start()
    try:
        brown._h_one_sample(P, nodes, default_floor(200), "auto")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


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
    g = GridSpec(-1, 1, -1, 1, 4, 4)
    bad = _flat_field(g, np.full((4, 4), np.nan))
    with pytest.raises(ValueError, match="non-finite"):
        brown_estimate(bad)


@pytest.mark.parametrize("nx, ny", [(2, 3), (3, 3), (3, 5), (5, 3)])
def test_brown_estimate_refuses_a_grid_without_interior_rectangle(nx, ny):
    # a 3-node side leaves one interior node, which spans no rectangle
    g = GridSpec(-1, 1, -1, 1, nx, ny)
    with pytest.raises(ValueError, match="at least a 4 x 4 grid"):
        brown_estimate(_flat_field(g, np.zeros((nx, ny))))


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


_WALK_BASIS = WalkBasis(N=2, r=1, U=np.eye(4, 2, dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("run", [
    lambda v: pseudospectrum_area(ANTI, 8, v, _GRID_3X3, 1, seed=11),
    lambda v: log_potential(ANTI, 8, _GRID_3X3, 1, floor=v, seed=11),
    lambda v: delta_report(_WALK_BASIS, build_linearization(ANTI).s_matrix(), v),
    lambda v: stieltjes(ANTI, 8, 0.0, np.array([v]), 1, seed=11),
], ids=["area_eps", "log_potential_floor", "delta_report_threshold", "stieltjes_eta"])
def test_scale_parameters_must_be_positive_and_finite(run, bad):
    with pytest.raises(ValueError, match="must be positive and finite"):
        run(bad)


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


@given(st.integers(4, 40), st.integers(4, 40))
def test_density_sits_on_the_interior_grid(nx, ny):
    g = GridSpec(-1, 1, -2, 2, nx, ny)
    est = brown_estimate(_flat_field(g, np.zeros((nx, ny))))
    inner = est.grid.interior()
    assert est.density.shape == (inner.nx, inner.ny) == (nx - 2, ny - 2)
    rows = inner.to_csv(est.density).splitlines()[1:]
    assert len(rows) == (nx - 2) * (ny - 2)
