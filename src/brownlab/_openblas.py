"""numpy's bundled OpenBLAS, called through ctypes; the one module that binds it.

numpy's wheels ship OpenBLAS, LAPACK included, as
``numpy.libs/libscipy_openblas64_*.so``. Its symbols are named
``scipy_<name>64_``, where a Fortran name keeps its trailing underscore
(``scipy_zgesdd_64_``), and take 64-bit integers. brownlab uses three
things from it: the BLAS thread count, which `one_blas_thread` pins, the
build string, which `blas_record` puts in every manifest, and LAPACK's
values-only complex SVD ``zgesdd``, which `svdvals` calls.

Pool threads gain because a trial's largest cost, its SVD, runs without
the GIL: ctypes releases the GIL for the length of a foreign call, while
`np.linalg.svd` holds it for the whole LAPACK call. On two cores, 600
values-only SVDs at N=100 take 1.62 ms per task on one pool thread and
1.94 ms on two with `np.linalg.svd`, and 1.61 and 0.90 ms through
`svdvals`. Without numpy's OpenBLAS (a numpy built against another
BLAS), `symbol` returns None, the pin does nothing, the record's vendor
is None, and `svdvals` calls `np.linalg.svd` on the same copy.
"""

from __future__ import annotations

import ctypes
import glob
import threading
from contextlib import contextmanager
from functools import cache
from pathlib import Path

import numpy as np

__all__ = ["blas_record", "one_blas_thread", "symbol", "svdvals"]

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


def blas_record():
    """numpy's OpenBLAS build string, None without numpy's bundled OpenBLAS.

    A manifest keeps this record, outside its digests, to explain a replay
    mismatch on a host with another BLAS build.
    """
    config = symbol("openblas_get_config", ctypes.c_char_p)
    vendor = None if config is None else config().decode(errors="replace").strip()
    return {"vendor": vendor}


@cache
def _thread_calls():
    """(get, set) of the BLAS thread count, or None without numpy's OpenBLAS."""
    get = symbol("openblas_get_num_threads", ctypes.c_int)
    set_ = symbol("openblas_set_num_threads", None, ctypes.c_int)
    return None if get is None or set_ is None else (get, set_)


_pin_lock = threading.Lock()
_pins = 0
_saved_threads = None


@contextmanager
def one_blas_thread():
    """Hold numpy's OpenBLAS at one thread for the length of the block.

    `cli.dispatch` enters it around every command body and
    `_pool.parallel_map` around every map, so the trial pool is the
    program's one source of parallelism. A trial's products, SVD and eig
    are too small for OpenBLAS's second thread to pay its hand-off (in
    `tail` at N=100 with two pool threads on two cores, `evaluate` takes
    2.5 ms of thread time per trial on 2 BLAS threads and 1.0 ms on 1),
    and the last bits of `eig`, `eigvals` and the walk basis depend on the
    BLAS thread count, so the pin also makes every output independent of
    the host's core count.

    The count is process-wide: the first pin to start saves it and sets it
    to 1, and the last to end restores it, also when the block raises;
    pins nest and may run in several threads at once. A map keeps the pin
    through its tail, even when fewer tasks are left than pool threads and
    a core idles: handing that core back to BLAS would make the last
    tasks' `eig` and `eigvals` bytes depend on the schedule, since they
    differ on 1 and 2 BLAS threads at N=100 and above.
    """
    global _pins, _saved_threads
    with _pin_lock:
        calls = _thread_calls()
        if calls and _pins == 0:
            _saved_threads = calls[0]()
            calls[1](1)
        _pins += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pins -= 1
            if calls and _pins == 0:
                calls[1](_saved_threads)


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
