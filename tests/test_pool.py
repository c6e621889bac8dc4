"""parallel_map and every CLI command run on one BLAS thread and restore the count after it."""

import sys
import threading

import numpy as np
import pytest

from brownlab import _pool
from brownlab._pool import parallel_map

_BLAS = _pool._BLAS


def test_numpys_openblas_is_found():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas:
        pytest.skip(f"numpy is built against {blas}")
    assert isinstance(_BLAS.threads(), int)


@pytest.fixture
def two_blas_threads():
    """The BLAS count set to 2 for the test, so a pin to 1 shows."""
    before = _BLAS.threads()
    if before is None:
        pytest.skip("no OpenBLAS found in numpy.libs")
    set_ = _BLAS._calls[1]
    set_(2)
    try:
        yield
    finally:
        set_(before)


def _blas_count(_):
    return _BLAS.threads()


@pytest.mark.parametrize("threads", [1, 2])
def test_map_pins_one_blas_thread_and_restores(two_blas_threads, threads):
    assert parallel_map(_blas_count, range(6), threads) == [1] * 6
    assert _BLAS.threads() == 2
    assert parallel_map(_blas_count, [0], threads) == [1]
    assert _BLAS.threads() == 2


@pytest.mark.parametrize("threads", [1, 2])
def test_count_restored_after_a_task_raises(two_blas_threads, threads):
    seen = []

    def fail_on_three(i):
        if i == 3:
            raise np.linalg.LinAlgError("injected")
        seen.append(_BLAS.threads())

    with pytest.raises(np.linalg.LinAlgError, match="injected"):
        parallel_map(fail_on_three, range(6), threads)
    assert seen and set(seen) == {1}
    assert _BLAS.threads() == 2


@pytest.mark.parametrize("threads", [1, 2])
def test_count_restored_after_a_nested_map(two_blas_threads, threads):
    def inner(i):
        counts = parallel_map(_blas_count, range(3), threads)
        return counts + [_BLAS.threads()]

    assert parallel_map(inner, range(4), threads) == [[1, 1, 1, 1]] * 4
    assert _BLAS.threads() == 2


def test_concurrent_maps_restore_only_when_the_last_ends(two_blas_threads):
    # more map-running threads than cores, switching often: a lost update
    # of the depth counter would restore 2 while a map is still running
    # or leave the count at 1 after the last one ends
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def run():
            for _ in range(20):
                seen.extend(parallel_map(_blas_count, range(4), 2))

        workers = [threading.Thread(target=run) for _ in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(interval)
    assert seen == [1] * (6 * 20 * 4)
    assert _BLAS.threads() == 2


def test_dispatch_pins_a_body_without_a_pool(two_blas_threads, tmp_path, capsys, monkeypatch):
    # walks-delta maps nothing through the pool; dispatch pins it all the same
    from brownlab import cli

    seen = []
    scan = cli.delta_report

    def traced(*args):
        seen.append(_BLAS.threads())
        return scan(*args)

    monkeypatch.setattr(cli, "delta_report", traced)
    assert cli.dispatch(["walks-delta", "--poly", "x1*x2+x2*x1", "--N", "6",
                         "-o", str(tmp_path)]) == 0
    assert seen == [1]
    assert _BLAS.threads() == 2
