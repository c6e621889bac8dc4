"""Order-preserving worker pool over trials and grid chunks.

Results are reduced by index, and every task draws from its own Philox
substream, so outputs are identical for any thread count or schedule.
Every map runs inside `_openblas.one_blas_thread`, which also says why
the pool, not BLAS, is the program's one source of parallelism.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from ._openblas import one_blas_thread

__all__ = ["default_threads", "parallel_map"]


def default_threads():
    """The pool size when a caller names none."""
    return 1


def parallel_map(fn, items, threads=None):
    """Map fn over items on one BLAS thread, preserving order; threads<=1 runs inline."""
    items = list(items)
    threads = default_threads() if threads is None else int(threads)
    with one_blas_thread():
        if threads <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
