"""numpy's bundled OpenBLAS, called through ctypes.

numpy's wheels ship OpenBLAS, LAPACK included, as
``numpy.libs/libscipy_openblas64_*.so``. Its symbols are named
``scipy_<name>64_``, where a Fortran name keeps its trailing underscore
(``scipy_zgesdd_64_``), and take 64-bit integers. brownlab uses three
things from it: the BLAS thread count, which `_pool` pins while a map
runs; LAPACK's values-only complex SVD ``zgesdd``, which `svdvals` calls;
and the complex LU pair ``zgetrf`` + ``zgetri``, which `inv` calls.

ctypes releases the GIL for the length of a foreign call, and
`np.linalg.svd` holds it for the whole LAPACK call, so only `svdvals` lets
pool threads run their SVDs at the same time. `inv` inverts in place in
its one copy of the input, where `np.linalg.inv` solves against a
separate identity and copies the result out, holding three more buffers
the size of the input. Without numpy's OpenBLAS (a numpy built against
another BLAS), `symbol` returns None, the thread pin does nothing, and
`svdvals` and `inv` call `np.linalg.svd` and `np.linalg.inv` on the same
copy.
"""

from __future__ import annotations

import ctypes
import glob
from functools import cache
from pathlib import Path

import numpy as np

__all__ = ["symbol", "svdvals", "inv"]

_INT = ctypes.c_int64


def _ref(value):
    """A pointer to a fresh 64-bit integer, which the pointer keeps alive."""
    return ctypes.byref(_INT(value))


@cache
def _libraries():
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    dlls = []
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        try:
            dlls.append(ctypes.CDLL(lib))
        except OSError:
            continue
    return tuple(dlls)


def symbol(name, restype, *argtypes):
    """``scipy_<name>64_`` as a GIL-releasing ctypes function, or None if no library has it."""
    proto = ctypes.CFUNCTYPE(restype, *argtypes)
    for dll in _libraries():
        try:
            return proto((f"scipy_{name}64_", dll))
        except AttributeError:
            continue
    return None


@cache
def _zgesdd():
    ptr, ref = ctypes.c_void_p, ctypes.POINTER(_INT)
    # jobz, m, n, a, lda, s, u, ldu, vt, ldvt, work, lwork, rwork, iwork, info
    return symbol("zgesdd_", None, ctypes.c_char_p, ref, ref, ptr, ref, ptr, ptr, ref,
                  ptr, ref, ptr, ref, ptr, ptr, ref)


def svdvals(A):
    """Singular values of A, descending, from a complex128 copy of it.

    Calls LAPACK's ``zgesdd`` with JOBZ='N' exactly as `np.linalg.svd`
    does (a Fortran-order copy, the workspace from an lwork = -1 query,
    rwork of 7 min(m, n) and iwork of 8 min(m, n)), so the values are
    equal byte for byte to ``np.linalg.svd(A.astype(complex),
    compute_uv=False)``; a LAPACK failure (info != 0, also for a NaN
    entry) raises LinAlgError("SVD did not converge").
    """
    a = np.array(A, dtype=np.complex128, order="F")
    zgesdd = _zgesdd()
    if zgesdd is None:
        return np.linalg.svd(a, compute_uv=False)
    m, n = a.shape
    k = min(m, n)
    s = np.empty(k)
    rwork = np.empty(max(7 * k, 1))
    iwork = np.empty(max(8 * k, 1), dtype=np.int64)

    def call(work, lwork):
        info = _INT(0)
        zgesdd(b"N", _ref(m), _ref(n), a.ctypes.data, _ref(max(m, 1)), s.ctypes.data,
               None, _ref(1), None, _ref(1), work.ctypes.data, _ref(lwork),
               rwork.ctypes.data, iwork.ctypes.data, ctypes.byref(info))
        return info.value

    query = np.empty(1, dtype=np.complex128)
    if call(query, -1) == 0:  # the query writes the optimal lwork to query[0]
        lwork = max(int(query[0].real), 1)
        if call(np.empty(lwork, dtype=np.complex128), lwork) == 0:
            return s
    raise np.linalg.LinAlgError("SVD did not converge")


@cache
def _zgetrf_zgetri():
    ptr, ref = ctypes.c_void_p, ctypes.POINTER(_INT)
    # zgetrf: m, n, a, lda, ipiv, info; zgetri: n, a, lda, ipiv, work, lwork, info
    getrf = symbol("zgetrf_", None, ref, ref, ptr, ref, ptr, ref)
    getri = symbol("zgetri_", None, ref, ptr, ref, ptr, ptr, ref, ref)
    return None if getrf is None or getri is None else (getrf, getri)


def inv(A):
    """Inverse of the square matrix A, as complex128, from one copy of it.

    The Fortran-order complex128 copy is LU-factored in place by LAPACK's
    ``zgetrf`` and then overwritten with the inverse by ``zgetri``, whose
    workspace comes from an lwork = -1 query; beside the copy only the
    pivots and that n x nb workspace are held. A zero pivot (info != 0)
    raises LinAlgError("Singular matrix"), as `np.linalg.inv` does.
    """
    a = np.array(A, dtype=np.complex128, order="F")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise np.linalg.LinAlgError("inv needs a square matrix")
    kernels = _zgetrf_zgetri()
    if kernels is None:
        return np.linalg.inv(a)
    getrf, getri = kernels
    n = a.shape[0]
    lda = max(n, 1)
    ipiv = np.empty(lda, dtype=np.int64)
    info = _INT(0)
    getrf(_ref(n), _ref(n), a.ctypes.data, _ref(lda), ipiv.ctypes.data, ctypes.byref(info))
    if info.value == 0:
        def call(work, lwork):
            getri(_ref(n), a.ctypes.data, _ref(lda), ipiv.ctypes.data, work.ctypes.data,
                  _ref(lwork), ctypes.byref(info))
            return info.value

        query = np.empty(1, dtype=np.complex128)
        if call(query, -1) == 0:  # the query writes the optimal lwork to query[0]
            lwork = max(int(query[0].real), 1)
            if call(np.empty(lwork, dtype=np.complex128), lwork) == 0:
                return a
    raise np.linalg.LinAlgError("Singular matrix")
