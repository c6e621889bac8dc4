"""numpy's bundled OpenBLAS, called through ctypes.

numpy's wheels ship OpenBLAS, LAPACK included, as
``numpy.libs/libscipy_openblas64_*.so``. Its symbols are named
``scipy_<name>64_``, where a Fortran name keeps its trailing underscore
(``scipy_zgesdd_64_``), and take 64-bit integers. brownlab uses two
things from it: the BLAS thread count, which `_pool` pins while a map
runs, and LAPACK's values-only complex SVD ``zgesdd``, which `svdvals`
calls.

ctypes releases the GIL for the length of a foreign call, and
`np.linalg.svd` holds it for the whole LAPACK call, so only `svdvals` lets
pool threads run their SVDs at the same time. Without numpy's OpenBLAS (a
numpy built against another BLAS), `symbol` returns None, the thread pin
does nothing, and `svdvals` calls `np.linalg.svd` on the same copy.
"""

from __future__ import annotations

import ctypes
import glob
from functools import cache
from pathlib import Path

import numpy as np

__all__ = ["symbol", "svdvals"]

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
