"""Order-preserving worker pool over trials and grid chunks.

Results are reduced by index, and every task draws from its own Philox
substream, so outputs are identical for any thread count or schedule.

Every map runs on one BLAS thread, and `cli.dispatch` holds the same pin
around every command, so the pool is the program's one source of
parallelism. A trial's products, SVD and eig are too small for
OpenBLAS's second thread to pay its hand-off (in `tail` at N=100 with two
pool threads on two cores, `evaluate` takes 2.5 ms of thread time per
trial on 2 BLAS threads and 1.0 ms on 1), and the last bits of `eig`,
`eigvals` and the walk basis depend on the BLAS thread count, so the pin
also makes every output independent of the host's core count. The count
is process-wide: the first pin to start sets it to 1, and the last to end
restores what it was, also when a task raises. Without numpy's bundled
OpenBLAS the pin does nothing.

Pool threads gain because a trial's largest cost, its SVD, runs without
the GIL: `rmtcore.shifted_svals` calls LAPACK through `_openblas.svdvals`,
and ctypes releases the GIL for the call, while `np.linalg.svd` holds it
for the whole call. On two cores, 600 values-only SVDs at N=100 take
1.62 ms per task on one pool thread and 1.94 ms on two with
`np.linalg.svd`, and 1.61 and 0.90 ms through `svdvals`.
"""

from __future__ import annotations

import ctypes
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

from ._openblas import symbol

__all__ = ["blas_record", "default_threads", "parallel_map"]


class _BlasPin:
    """numpy's bundled OpenBLAS thread count, held at 1 while a map runs."""

    def __init__(self):
        self._lock = threading.Lock()
        self._calls = None  # (get, set), () when no OpenBLAS; found on first use
        self._depth = 0
        self._saved = None

    def _lookup(self):
        get = symbol("openblas_get_num_threads", ctypes.c_int)
        set_ = symbol("openblas_set_num_threads", None, ctypes.c_int)
        return () if get is None or set_ is None else (get, set_)

    def _found(self):
        if self._calls is None:
            self._calls = self._lookup()
        return self._calls

    def threads(self):
        """The BLAS thread count now, or None without numpy's OpenBLAS."""
        with self._lock:
            calls = self._found()
            return calls[0]() if calls else None

    @contextmanager
    def one_thread(self):
        with self._lock:
            calls = self._found()
            if calls and self._depth == 0:
                self._saved = calls[0]()
                calls[1](1)
            self._depth += 1
        try:
            yield
        finally:
            with self._lock:
                self._depth -= 1
                if calls and self._depth == 0:
                    calls[1](self._saved)


_BLAS = _BlasPin()


def blas_record():
    """numpy's OpenBLAS build string, None without numpy's bundled OpenBLAS.

    A manifest keeps this record, outside its digests, to explain a replay
    mismatch on a host with another BLAS build.
    """
    config = symbol("openblas_get_config", ctypes.c_char_p)
    vendor = None if config is None else config().decode(errors="replace").strip()
    return {"vendor": vendor}


def default_threads():
    """The pool size when a caller names none."""
    return 1


def parallel_map(fn, items, threads=None):
    """Map fn over items on one BLAS thread, preserving order; threads<=1 runs inline."""
    items = list(items)
    threads = default_threads() if threads is None else int(threads)
    with _BLAS.one_thread():
        if threads <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
