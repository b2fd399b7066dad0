import sys
import threading
import time

import numpy as np
import pytest

from edgecache import rowsplit
from edgecache.projection import project_bounded_simplex
from edgecache.sampler import rng_stream


def _ranges(n_rows, row_size):
    seen = []
    rowsplit.split_rows(lambda a, b: seen.append((a, b, threading.current_thread())),
                        n_rows, row_size)
    return sorted(seen, key=lambda r: r[0])


@pytest.mark.parametrize("cores", [2, 3, 8])
def test_chunks_cover_every_row_once(monkeypatch, cores):
    monkeypatch.setattr(rowsplit, "_cores", lambda: cores)
    n_rows, row_size = 301, 1000   # 301,000 elements: at most 4 chunks
    got = _ranges(n_rows, row_size)
    assert len(got) == min(cores, n_rows * row_size // rowsplit.SPLIT_SIZE)
    assert [a for a, _, _ in got] == [0] + [b for _, b, _ in got[:-1]]
    assert got[-1][1] == n_rows
    assert all(b - a >= rowsplit.SPLIT_SIZE // row_size for a, b, _ in got)
    assert got[0][2] is threading.current_thread()


def test_small_blocks_and_single_rows_stay_whole(monkeypatch):
    monkeypatch.setattr(rowsplit, "_cores", lambda: 8)
    me = threading.current_thread()
    below = 2 * rowsplit.SPLIT_SIZE - 1        # two chunks would each hold less
    assert _ranges(below, 1) == [(0, below, me)]
    assert _ranges(1, 10 * rowsplit.SPLIT_SIZE) == [(0, 1, me)]
    monkeypatch.setattr(rowsplit, "_cores", lambda: 1)
    assert _ranges(300, 1000) == [(0, 300, me)]


def test_a_failing_chunk_raises_once_every_chunk_is_done(monkeypatch):
    monkeypatch.setattr(rowsplit, "_cores", lambda: 3)
    finished = []

    def fn(a, b):
        if a == 0:
            raise ValueError("chunk 0 fails")
        time.sleep(0.05)
        finished.append(a)

    with pytest.raises(ValueError, match="chunk 0 fails"):
        rowsplit.split_rows(fn, 3, rowsplit.SPLIT_SIZE)
    assert sorted(finished) == [1, 2]

    def worker_fails(a, b):
        if a > 0:
            raise KeyError(a)

    with pytest.raises(KeyError):
        rowsplit.split_rows(worker_fails, 3, rowsplit.SPLIT_SIZE)


def test_concurrent_callers_get_the_serial_bits(monkeypatch):
    """More callers than cores project large batches at once through the
    shared pool, with a short switch interval; each gets the bits of the
    unsplit projection."""
    rng = rng_stream(3, "test:rowsplit-callers")
    batches = [rng.normal(size=(140, 1000)) + rng.uniform(-3, 1, (140, 1)) for _ in range(4)]
    monkeypatch.setattr(rowsplit, "_cores", lambda: 1)
    expected = [project_bounded_simplex(z, 10) for z in batches]
    monkeypatch.setattr(rowsplit, "_cores", lambda: 2)
    got = [[] for _ in batches]

    def caller(i):
        for _ in range(3):
            got[i].append(project_bounded_simplex(batches[i], 10))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(batches))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for want, runs in zip(expected, got):
        assert len(runs) == 3
        for y in runs:
            np.testing.assert_array_equal(y, want)
