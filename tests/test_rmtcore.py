import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from brownlab.rmtcore import (
    esd,
    ginibre_matrix,
    ginibre_tuple,
    haar_unitary,
    shifted_svals,
    stream,
    csv_text,
)


# -------------------------------------------------------------- streams

def test_stream_determinism_and_independence():
    a = stream(42, 1, 0).standard_normal(4)
    b = stream(42, 1, 0).standard_normal(4)
    c = stream(42, 1, 1).standard_normal(4)
    d = stream(43, 1, 0).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# -------------------------------------------------------------- sampling

def test_ginibre_same_seed_identical():
    A = ginibre_matrix(2, stream(9, 1, 0))
    B = ginibre_matrix(2, stream(9, 1, 0))
    assert np.array_equal(A, B)


def test_ginibre_scalar_moments():
    # N=1: the entry is standard complex Gaussian; law of large numbers
    # at 1e5 draws pins the mean and the variance of |x|^2.
    rng = stream(1, 1, 0)
    draws = np.array([ginibre_matrix(1, rng)[0, 0] for _ in range(100_000)])
    assert abs(draws.mean()) <= 0.02
    mod2 = np.abs(draws) ** 2
    assert abs(mod2.var() - 1.0) <= 0.05


def test_ginibre_entry_variance_at_256():
    X = ginibre_matrix(256, stream(2, 1, 0))
    var = np.mean(np.abs(X) ** 2)
    assert 0.8 / 256 <= var <= 1.2 / 256


def test_ginibre_sample_invariants():
    X = ginibre_matrix(64, stream(3, 1, 0))
    assert X.shape == (64, 64)
    assert abs(X.mean()) <= 5 / 64
    assert abs(np.mean(np.abs(X) ** 2) - 1 / 64) <= 0.2 / 64


def test_ginibre_tuple_independent_matrices():
    X = ginibre_tuple(3, 8, stream(4, 1, 0))
    assert len(X) == 3
    assert not np.array_equal(X[0], X[1])


def test_haar_unitary_is_unitary():
    for d in (1, 2, 5):
        Q = haar_unitary(d, stream(5, 2, d))
        assert np.allclose(Q @ Q.conj().T, np.eye(d), atol=1e-12)


# ------------------------------------------------------------------- esd

def test_esd_identity():
    lam = esd(np.eye(3))
    assert np.allclose(sorted(lam.real), [1, 1, 1])
    assert np.allclose(lam.imag, 0)


def test_esd_diagonal():
    lam = esd(np.diag([1.0, 2.0j]))
    assert np.isclose(sorted(lam, key=abs)[0], 1)
    assert np.isclose(sorted(lam, key=abs)[1], 2j)


def test_esd_nilpotent():
    lam = esd(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(lam, 0)


def test_esd_validation():
    with pytest.raises(ValueError):
        esd(np.ones((2, 3)))
    with pytest.raises(ValueError):
        esd(np.array([[np.nan, 0], [0, 1]]))


def test_esd_trace_identity():
    rng = np.random.default_rng(0)
    for N in (3, 8, 16):
        M = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        lam = esd(M)
        norm = np.linalg.norm(M, ord=2)
        assert abs(lam.sum() - np.trace(M)) <= 1e-6 * N * norm


def _match_multisets(a, b):
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].max()


def test_esd_similarity_invariance():
    rng = np.random.default_rng(1)
    for N in (4, 10, 16):
        M = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        Q = haar_unitary(N, stream(6, 2, N))
        lam1 = esd(M)
        lam2 = esd(Q @ M @ Q.conj().T)
        assert _match_multisets(lam1, lam2) <= 1e-6


# ------------------------------------------------- smallest singular value

def test_singular_values_identity():
    assert shifted_svals(np.eye(4), [0])[0, -1] == 1


def test_singular_values_singular_matrix():
    assert shifted_svals(np.diag([3.0, 0.0]), [0])[0, -1] == 0


def test_singular_values_hand_svd():
    # [[0,2],[0,0]] has singular values (2, 0)
    assert np.isclose(shifted_svals(np.array([[0.0, 2.0], [0.0, 0.0]]), [0])[0, -1], 0)
    assert np.isclose(shifted_svals(np.array([[0.0, 2.0], [-0.5, 0.0]]), [0])[0, -1], 0.5)


def test_smin_lower_bounds_matrix_vector_products():
    rng = np.random.default_rng(4)
    M = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    smin = shifted_svals(M, [0])[0, -1]
    for _ in range(100):
        v = rng.normal(size=12) + 1j * rng.normal(size=12)
        v /= np.linalg.norm(v)
        assert smin <= np.linalg.norm(M @ v) + 1e-12


def test_singular_values_stack_matches_loop():
    rng = np.random.default_rng(5)
    P = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    shifts = rng.normal(size=7) + 1j * rng.normal(size=7)
    svals = shifted_svals(P, shifts)
    assert svals.shape == (7, 5)
    for k, z in enumerate(shifts):
        assert np.array_equal(svals[k], np.linalg.svd(P - z * np.eye(5), compute_uv=False))


# ---------------------------------------------------------- serialization

def _spectrum_csv_round_trip(lam, path):
    path.write_text(csv_text({"re": lam.real, "im": lam.imag}))
    assert path.read_text().splitlines()[0] == "re,im"
    back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return back[:, 0] + 1j * back[:, 1]


def test_spectrum_csv_round_trip(tmp_path):
    lam = np.array([1.5 + 0.25j, -2.0 - 1.0j, 0.0 + 0.0j])
    assert np.array_equal(_spectrum_csv_round_trip(lam, tmp_path / "spectrum.csv"), lam)


@given(st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False), min_size=1,
                max_size=20))
def test_spectrum_csv_round_trip_property(tmp_path_factory, values):
    lam = np.array(values, dtype=complex)
    path = tmp_path_factory.mktemp("csv") / "spectrum.csv"
    assert np.array_equal(_spectrum_csv_round_trip(lam, path), lam)
