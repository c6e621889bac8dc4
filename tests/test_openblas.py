"""The LAPACK kernel: numpy's SVD bytes from zgesdd, without the GIL."""

import ctypes

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brownlab import _openblas
from brownlab._openblas import svdvals
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

