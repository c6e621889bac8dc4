import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from brownlab.ncpoly import parse
from brownlab.pseudospec import (
    GridSpec,
    TailEstimate,
    fit_tail_slope,
    pseudospectrum_area,
    smin_map_full,
    tail_estimate,
    trial_tuple,
    wilson_interval,
)
from brownlab.rmtcore import STREAM_GINIBRE, ginibre_matrix, ginibre_tuple, stream

ANTI = parse("x1*x2 + x2*x1")
PRODUCT = parse("x1*x2")


# ------------------------------------------------------------------ grids

def test_grid_nodes_formula():
    g = GridSpec(-1, 1, 0, 4, 3, 5)
    nodes = g.nodes()
    assert nodes.shape == (3, 5)
    assert nodes[0, 0] == -1 + 0j
    assert nodes[2, 4] == 1 + 4j
    assert np.isclose(nodes[1, 2], 0 + 2j)
    assert np.isclose(g.area, 8)


def test_grid_single_node_collapses_to_corner():
    g = GridSpec(1000, 1001, 0, 1, 1, 1)
    assert g.nodes().shape == (1, 1)
    assert g.nodes()[0, 0] == 1000 + 0j


def test_grid_rejects_degenerate_rectangle():
    with pytest.raises(ValueError):
        GridSpec(1, 1, 0, 1, 4, 4)
    with pytest.raises(ValueError):
        GridSpec(0, 1, 2, 1, 4, 4)
    with pytest.raises(ValueError):
        GridSpec(0, 1, 0, 1, 0, 4)


# grids of 4 x 4 to 40 x 40 nodes with finite sides
_grids = st.builds(
    lambda re_min, width, im_min, height, nx, ny:
        GridSpec(re_min, re_min + width, im_min, im_min + height, nx, ny),
    st.floats(-1e6, 1e6), st.floats(1e-6, 1e6), st.floats(-1e6, 1e6), st.floats(1e-6, 1e6),
    st.integers(4, 40), st.integers(4, 40))


def _values(grid, seed):
    return np.random.default_rng(seed).standard_normal((grid.nx, grid.ny))


@given(_grids)
def test_interior_nodes_are_the_nodes_off_the_boundary_ring(grid):
    inner = grid.interior()
    assert (inner.nx, inner.ny) == (grid.nx - 2, grid.ny - 2)
    extent = max(abs(grid.re_min), abs(grid.re_max), abs(grid.im_min), abs(grid.im_max))
    err = np.abs(inner.nodes() - grid.nodes()[1:-1, 1:-1]).max()
    assert err <= 1e-12 * extent


@given(_grids, st.integers(0, 2**32 - 1))
def test_to_csv_parses_back_to_the_nodes_and_values(grid, seed):
    values, extra = _values(grid, seed), _values(grid, seed + 1)
    text = grid.to_csv(values, {"min": extra})
    assert text.splitlines()[0] == "re,im,value,min"
    rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    nodes = grid.nodes().ravel()  # row-major: im varies fastest
    assert np.array_equal(rows[:, 0], nodes.real)
    assert np.array_equal(rows[:, 1], nodes.imag)
    assert np.array_equal(rows[:, 2], values.ravel())
    assert np.array_equal(rows[:, 3], extra.ravel())


@given(_grids, st.integers(0, 2**32 - 1))
def test_to_csv_refuses_values_off_the_grid_shape(grid, seed):
    assume(grid.nx != grid.ny)
    values = _values(grid, seed)
    for bad in (values.ravel(), values.T):
        with pytest.raises(ValueError, match="values shape must match the grid"):
            grid.to_csv(bad)
    with pytest.raises(ValueError):
        grid.to_csv(values, {"min": np.zeros(3)})


# --------------------------------------------------------------- smin map

def test_smin_map_deterministic():
    g = GridSpec(-1, 1, -1, 1, 3, 3)
    a = smin_map_full(PRODUCT, 12, g, trials=2, seed=5)[0]
    b = smin_map_full(PRODUCT, 12, g, trials=2, seed=5)[0]
    assert np.array_equal(a, b)


def test_smin_map_thread_count_invariance():
    g = GridSpec(-1, 1, -1, 1, 3, 3)
    a = smin_map_full(PRODUCT, 10, g, trials=3, seed=6, threads=1)[0]
    b = smin_map_full(PRODUCT, 10, g, trials=3, seed=6, threads=3)[0]
    assert np.array_equal(a, b)


def test_smin_map_far_shift_dominates():
    g = GridSpec(1000, 1001, 0, 1, 1, 1)
    med = smin_map_full(PRODUCT, 30, g, trials=1, seed=7)[0]
    assert abs(med[0, 0] - 1000) <= 50  # within 5%


def test_smin_map_product_disk_profile():
    g = GridSpec(-2, 2, -2, 2, 9, 9)
    med = smin_map_full(PRODUCT, 100, g, trials=1, seed=11)[0]
    zz = g.nodes()
    inside = np.abs(zz) <= 0.6
    boundary = (np.abs(zz.real) > 1.99) | (np.abs(zz.imag) > 1.99)
    assert np.all(med[inside] <= 0.1)
    frac = np.mean(med[boundary] >= 0.1)
    assert frac >= 0.95


def test_smin_map_full_statistics_are_consistent():
    g = GridSpec(-1, 1, -1, 1, 3, 3)
    med, mean, mn = smin_map_full(PRODUCT, 8, g, trials=5, seed=8)
    assert med.shape == mean.shape == mn.shape == (3, 3)
    assert np.all(mn <= med + 1e-15)
    assert np.all(mn <= mean + 1e-15)


def test_smin_map_memory_holds_one_shifted_matrix_at_a_time():
    # one shifted copy of P is 0.6 MB at N = 200; a stack of 64 shifts and
    # its temporary take about 80 MB
    g = GridSpec(-1, 1, -1, 1, 9, 9)
    tracemalloc.start()
    try:
        smin_map_full(ANTI, 200, g, trials=1, seed=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


# ------------------------------------------------------------------ tails

def test_tail_estimate_saturated_ladder():
    est = tail_estimate(ANTI, 10, 0.1, np.array([50.0, 100.0]), 100, seed=1)
    assert np.all(est.hits == est.trials)


def test_tail_estimate_deterministic():
    ladder = np.logspace(-4, -1, 5)
    a = tail_estimate(ANTI, 12, 0.0, ladder, 100, seed=2)
    b = tail_estimate(ANTI, 12, 0.0, ladder, 100, seed=2)
    assert np.array_equal(a.hits, b.hits)
    assert a.slope == b.slope


def test_tail_estimate_requires_trials_and_increasing_ladder():
    with pytest.raises(ValueError):
        tail_estimate(ANTI, 8, 0.0, np.array([1e-3, 1e-2]), 50, seed=1)
    with pytest.raises(ValueError):
        tail_estimate(ANTI, 8, 0.0, np.array([1e-2, 1e-3]), 100, seed=1)


def test_tail_all_zero_hits_flags_undefined_slope():
    est = tail_estimate(ANTI, 10, 0.0, np.array([1e-300, 1e-299]), 100, seed=3)
    assert np.all(est.hits == 0)
    assert est.slope is None


def test_tail_hits_monotone_in_eps():
    ladder = np.logspace(-5, 0, 8)
    est = tail_estimate(ANTI, 15, 0.0, ladder, 120, seed=4)
    assert np.all(np.diff(est.hits) >= 0)
    assert np.all(est.hits <= est.trials)


def test_tail_theorem_bound_never_violated_light():
    # the finite-N bound N^{13/3} eps^{1/3} + e^-N is extremely loose here;
    # assert non-violation only
    N = 50
    ladder = np.logspace(-6, -1, 8)
    est = tail_estimate(ANTI, N, 0.0, ladder, 200, seed=5)
    bound = np.minimum(1.0, N ** (13 / 3) * ladder ** (1 / 3) + np.exp(-N))
    assert np.all(est.hits / est.trials <= 10 * bound)


def test_tail_json_round_trippable_fields():
    import json

    ladder = np.logspace(-3, -1, 4)
    est = tail_estimate(ANTI, 10, 0.5, ladder, 100, seed=6)
    data = json.loads(est.to_json())
    assert data["N"] == 10
    assert data["trials"] == 100
    assert data["z"] == [0.5, 0.0]
    assert len(data["ladder"]) == 4
    rung = data["ladder"][0]
    assert set(rung) == {"eps", "hits", "rate", "ci_lo", "ci_hi"}


# ---------------------------------------------------------- shifted tails

def test_shifted_tail_huge_ladder_saturates():
    est = tail_estimate(parse("x1"), 20, 0, np.array([15.0, 20.0]), 100, seed=7)
    assert np.all(est.hits == est.trials)


# ------------------------------------------------------------------ area

def test_area_zero_at_underflow_eps():
    g = GridSpec(-2, 2, -2, 2, 5, 5)
    area = pseudospectrum_area(PRODUCT, 10, 1e-320, g, trials=1, seed=10)
    assert area == 0.0


def test_area_monotone_in_eps_shared_seed():
    g = GridSpec(-2, 2, -2, 2, 7, 7)
    a1 = pseudospectrum_area(PRODUCT, 20, 1e-3, g, trials=2, seed=11)
    a2 = pseudospectrum_area(PRODUCT, 20, 1e-1, g, trials=2, seed=11)
    assert a1 <= a2


def test_area_rejects_bad_eps():
    g = GridSpec(-1, 1, -1, 1, 3, 3)
    with pytest.raises(ValueError):
        pseudospectrum_area(PRODUCT, 10, 0.0, g, trials=1, seed=12)


def test_area_tiny_eps_is_small_fraction_of_box():
    # at eps = 1e-8 and N = 100 the pseudospectrum occupies a negligible
    # share of the box
    g = GridSpec(-2, 2, -2, 2, 9, 9)
    area = pseudospectrum_area(ANTI, 100, 1e-8, g, trials=1, seed=13)
    assert area <= 1e-2 * g.area


# ------------------------------------------------------- slope machinery

def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo <= 1e-12 and hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo, hi = wilson_interval(100, 100)
    assert lo > 0.95 and hi >= 1 - 1e-12


def test_fit_tail_slope_recovers_power_law():
    eps = np.logspace(-4, -1, 8)
    trials = 10_000
    hits = np.round(trials * np.minimum(1.0, 30 * eps**2)).astype(int)
    slope = fit_tail_slope(eps, hits, trials)
    assert abs(slope - 2.0) < 0.05


def test_fit_tail_slope_discards_sparse_rungs():
    eps = np.array([1e-4, 1e-3, 1e-2])
    assert fit_tail_slope(eps, np.array([1, 2, 3]), 100) is None
    assert fit_tail_slope(eps, np.array([0, 0, 0]), 100) is None


def test_tail_estimate_from_samples_counts():
    samples = np.array([0.5, 1.5, 2.5, 3.5])
    est = TailEstimate.from_samples(samples, np.array([1.0, 2.0, 4.0]), 0j, 4)
    assert est.hits.tolist() == [1, 2, 4]


@pytest.mark.parametrize("ladder", [[np.nan], [0.1, np.nan], [np.nan, 0.1], [0.1, np.inf]],
                         ids=["nan", "rung-nan", "nan-rung", "rung-inf"])
def test_tail_estimate_from_samples_rejects_non_finite_ladder(ladder):
    # a comparison with nan is false, so an ordering check alone lets it through
    samples = np.linspace(0.01, 1.0, 100)
    with pytest.raises(ValueError, match="eps ladder must be finite"):
        TailEstimate.from_samples(samples, np.array(ladder), 0j, 4)


def test_tail_estimate_from_samples_rejects_non_finite():
    # 100 hits and 100 failed trials: counting the failures as misses
    # would report rate 0.5 where the rate over real trials is 1.
    samples = np.concatenate([np.full(100, 1e-3), np.full(100, np.nan)])
    with pytest.raises(ValueError, match="100 of 200"):
        TailEstimate.from_samples(samples, np.array([1e-2, 1e-1]), 0j, 4)


def test_tail_estimate_from_samples_rejects_no_samples():
    # zero trials would write rate = 0/0 into tail.json
    with pytest.raises(ValueError, match="no samples"):
        TailEstimate.from_samples([], np.array([1e-2, 1e-1]), None, 5)


# --------------------------------------------------------- trial addressing

def test_trial_tuple_reads_the_trials_ginibre_substream():
    X = trial_tuple(2, 6, 17, 3)
    Y = ginibre_tuple(2, 6, stream(17, STREAM_GINIBRE, 3))
    assert all(np.array_equal(a, b) for a, b in zip(X, Y))
    # a one-matrix tuple draws the same bytes as ginibre_matrix
    assert np.array_equal(trial_tuple(1, 6, 17, 3)[0],
                          ginibre_matrix(6, stream(17, STREAM_GINIBRE, 3)))
