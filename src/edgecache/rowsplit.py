"""Large blocks of rows, split over the host's cores.

A synchronous PGD sweep and the batched projection treat every row on its
own, and numpy releases the interpreter lock inside large ufuncs and sorts,
so a block of rows can be cut into chunks that run at the same time: the
calling thread takes the first chunk and a thread pool the others.  Each
operation stays inside its own rows, so the result is the same bit for bit
whatever the number of chunks, hence whatever the number of cores.

A block is cut only when every chunk holds at least ``SPLIT_SIZE`` elements;
smaller blocks, and single rows, run on the calling thread.  The pool is made
on the first split, with one worker per further core this process may use.
A forked child drops its parent's pool, whose threads do not survive a fork,
and makes its own if it needs one.
"""

from __future__ import annotations

import os
import threading

SPLIT_SIZE = 65536  # fewest elements a chunk may hold

_pool = None  # the ThreadPoolExecutor, made on the first split
_lock = threading.Lock()


def _cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _get_pool():
    global _pool
    with _lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor  # only a split needs it
            _pool = ThreadPoolExecutor(max(1, _cores() - 1),
                                       thread_name_prefix="edgecache-rows")
        return _pool


def _forget_pool() -> None:
    # a fork copies neither the pool's threads nor the owner of a held lock
    global _pool, _lock
    _pool, _lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def split_rows(fn, n_rows: int, row_size: int) -> None:
    """Call ``fn(start, stop)`` on consecutive row ranges that together cover
    ``range(n_rows)``, some of them on other threads.  ``fn`` must write only
    its own rows and read nothing another range writes."""
    chunks = min(n_rows, n_rows * row_size // SPLIT_SIZE)
    if chunks > 1:
        chunks = min(chunks, _cores())
    if chunks <= 1:
        fn(0, n_rows)
        return
    pool = _get_pool()
    bounds = [n_rows * i // chunks for i in range(chunks + 1)]
    futures = [pool.submit(fn, a, b) for a, b in zip(bounds[1:-1], bounds[2:])]
    try:
        fn(0, bounds[1])
    finally:
        for future in futures:
            future.exception()  # wait: no chunk may still be writing on return
    for future in futures:
        future.result()
