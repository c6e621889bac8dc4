"""The LAPACK kernels: numpy's SVD bytes from zgesdd, and an LU inverse from
zgetrf + zgetri, both without the GIL."""

import ctypes

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brownlab import _openblas
from brownlab._openblas import inv, svdvals
from brownlab._pool import _BLAS
from brownlab.rmtcore import shifted_svals


def _numpy_loop(P, shifts):
    eye = np.eye(P.shape[0])
    return np.array([np.linalg.svd(P - z * eye, compute_uv=False) for z in shifts])


_complex = st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.lists(_complex, min_size=1, max_size=3),
       st.booleans())
def test_shifted_svals_equals_numpys_svd(N, seed, shifts, pinned):
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    if pinned:
        with _BLAS.one_thread():
            got, want = shifted_svals(P, shifts), _numpy_loop(P, shifts)
    else:
        got, want = shifted_svals(P, shifts), _numpy_loop(P, shifts)
    assert np.array_equal(got, want)


def test_kernel_is_found_with_numpys_openblas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas:
        pytest.skip(f"numpy is built against {blas}")
    assert _openblas._zgesdd() is not None
    assert _openblas._zgetrf_zgetri() is not None


def test_kernel_releases_the_gil():
    zgesdd = _openblas._zgesdd()
    if zgesdd is None:
        pytest.skip("no OpenBLAS found in numpy.libs")
    assert not zgesdd._flags_ & ctypes._FUNCFLAG_PYTHONAPI


def test_nan_entry_raises_like_numpy():
    A = np.eye(5, dtype=complex)
    A[2, 3] = np.nan
    with pytest.raises(np.linalg.LinAlgError) as numpys:
        np.linalg.svd(A, compute_uv=False)
    with pytest.raises(np.linalg.LinAlgError) as ours:
        svdvals(A)
    assert str(ours.value) == str(numpys.value) == "SVD did not converge"


def test_input_is_left_alone():
    A = np.arange(12.0).reshape(3, 4) + 1j
    before = A.copy()
    assert np.array_equal(svdvals(A), np.linalg.svd(A, compute_uv=False))
    assert np.array_equal(A, before)


def test_fallback_returns_the_same_bytes(monkeypatch):
    rng = np.random.default_rng(11)
    A = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    kernel = svdvals(A)
    monkeypatch.setattr(_openblas, "_zgesdd", lambda: None)
    assert np.array_equal(svdvals(A), kernel)


# ------------------------------------------------------------ inverse


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.booleans())
def test_inverse_agrees_with_numpys(N, seed, real):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((N, N))
    if not real:
        A = A + 1j * rng.standard_normal((N, N))
    # both inverses are backward stable, so they agree to about cond(A) eps
    assume(np.linalg.cond(A) < 1e3)
    got, want = inv(A), np.linalg.inv(A)
    assert got.dtype == np.complex128
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_inverse_of_a_singular_matrix_raises():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    A[:, 3] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        inv(A)


def test_inverse_leaves_its_input_alone():
    rng = np.random.default_rng(13)
    A = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    before = A.copy()
    assert np.abs(inv(A) @ A - np.eye(9)).max() <= 1e-12
    assert np.array_equal(A, before)


def test_inverse_falls_back_to_numpy(monkeypatch):
    rng = np.random.default_rng(14)
    A = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    monkeypatch.setattr(_openblas, "_zgetrf_zgetri", lambda: None)
    assert np.array_equal(inv(A), np.linalg.inv(A))


def test_inverse_kernels_release_the_gil():
    kernels = _openblas._zgetrf_zgetri()
    if kernels is None:
        pytest.skip("no OpenBLAS found in numpy.libs")
    assert not any(k._flags_ & ctypes._FUNCFLAG_PYTHONAPI for k in kernels)
