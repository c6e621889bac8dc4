import io

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from brownlab.rmtcore import (
    SpectrumSample,
    esd,
    ginibre_matrix,
    ginibre_tuple,
    haar_unitary,
    singular_values,
    singular_values_stack,
    stream,
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
    lam = esd(np.eye(3)).eigenvalues
    assert np.allclose(sorted(lam.real), [1, 1, 1])
    assert np.allclose(lam.imag, 0)


def test_esd_diagonal():
    lam = esd(np.diag([1.0, 2.0j])).eigenvalues
    assert np.isclose(sorted(lam, key=abs)[0], 1)
    assert np.isclose(sorted(lam, key=abs)[1], 2j)


def test_esd_nilpotent():
    lam = esd(np.array([[0.0, 1.0], [0.0, 0.0]])).eigenvalues
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
        lam = esd(M).eigenvalues
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
        lam1 = esd(M).eigenvalues
        lam2 = esd(Q @ M @ Q.conj().T).eigenvalues
        assert _match_multisets(lam1, lam2) <= 1e-6


# -------------------------------------------------------- singular values

def test_singular_values_identity():
    sv = singular_values(np.eye(4))
    assert np.allclose(sv.values, 1)
    assert sv.smin == 1


def test_singular_values_singular_matrix():
    sv = singular_values(np.diag([3.0, 0.0]))
    assert np.allclose(sv.values, [3, 0])
    assert sv.smin == 0


def test_singular_values_hand_svd():
    # [[0,2],[0,0]] has singular values (2, 0)
    sv = singular_values(np.array([[0.0, 2.0], [0.0, 0.0]]))
    assert np.allclose(sv.values, [2, 0])


def test_singular_values_sorted_and_gram():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    sv = singular_values(M).values
    assert np.all(np.diff(sv) <= 0)
    gram_eigs = np.sort(np.linalg.eigvalsh(M @ M.conj().T))[::-1]
    assert np.allclose(sv**2, gram_eigs, rtol=1e-10)


def test_singular_value_product_is_abs_det():
    rng = np.random.default_rng(3)
    for N in (2, 5, 16):
        M = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        prod = np.prod(singular_values(M).values)
        assert np.isclose(prod, abs(np.linalg.det(M)), rtol=1e-8)


def test_smin_lower_bounds_matrix_vector_products():
    rng = np.random.default_rng(4)
    M = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    smin = singular_values(M).smin
    for _ in range(100):
        v = rng.normal(size=12) + 1j * rng.normal(size=12)
        v /= np.linalg.norm(v)
        assert smin <= np.linalg.norm(M @ v) + 1e-12


def test_singular_values_stack_matches_loop():
    rng = np.random.default_rng(5)
    stack = rng.normal(size=(7, 5, 5)) + 1j * rng.normal(size=(7, 5, 5))
    batched = singular_values_stack(stack)
    for k in range(7):
        assert np.allclose(batched[k], singular_values(stack[k]).values)


# ---------------------------------------------------------- serialization

def test_spectrum_csv_round_trip():
    lam = np.array([1.5 + 0.25j, -2.0 - 1.0j, 0.0 + 0.0j])
    buf = io.StringIO()
    SpectrumSample(eigenvalues=lam).to_csv(buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "re,im"
    back = SpectrumSample.from_csv(io.StringIO(text))
    assert np.array_equal(back.eigenvalues, lam)
