"""Lanes: the blocks of one loop run on the calling thread and reused helper threads.

lane_count decides how many lanes every loop of the package runs and
run_lanes runs them.  A loop writes each of its slots from exactly one lane
and reduces them in index order afterwards, so its result has the same bits at
any lane count.  numpy releases the interpreter lock in the stream words, the
inverse normal and the GEMM, which is where the time goes.  Lanes own the
cores: run_lanes holds numpy's BLAS at one thread while any of its lanes runs.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor, wait

_LANE_FLOATS = 1 << 22  # bound on the scratch of 2+ lanes together, in float64s (32 MiB)

# Helper threads for lanes 1.., made once at import and reused: a pool made per
# call raised the peak RSS of the gaussian benchmark by up to 8%.  It is sized
# from os.cpu_count(), which no affinity mask exceeds, and starts a thread only
# when work is submitted and it has no idle one, so importing it starts none.
_helpers = ThreadPoolExecutor(os.cpu_count(), thread_name_prefix="polyradii-lane")


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _openblas() -> tuple:
    """The get and set functions of the thread count of the OpenBLAS numpy
    links, or () where numpy links no such library."""
    try:
        from numpy._core import _multiarray_umath

        # a handle on numpy's own module finds the symbols in the libraries it links
        blas = ctypes.CDLL(_multiarray_umath.__file__)
        return (blas.scipy_openblas_get_num_threads64_,
                blas.scipy_openblas_set_num_threads64_)
    except (ImportError, OSError, AttributeError):
        return ()


# looked up once at import; where it is (), the thread count is left as it is
_blas = _openblas()


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Hold numpy's BLAS at one thread and restore its thread count on exit,
    also after an error.  OpenBLAS's bits can depend on its thread count (a
    260 x 260 QR differs at 1 and 2 threads), so an operation whose bits must
    not runs here.  No other thread may use BLAS meanwhile at more threads,
    which lanes never do; a scope entered inside a lane finds one thread and
    changes nothing.  The count is the process's: two threads that call
    polyradii at once are not supported, since one can reset it mid-call."""
    threads = _blas[0]() if _blas else 1
    if threads > 1:
        _blas[1](1)
    try:
        yield
    finally:
        if threads > 1:
            _blas[1](threads)


def lane_count(most: int, lane_floats: int) -> int:
    """The lanes for a loop that can use at most ``most``, each holding
    ``lane_floats`` floats of scratch: one per usable CPU, but only as many as
    keep their scratch within _LANE_FLOATS together, and one when a single lane
    needs more or the loop is empty."""
    return max(1, min(most, _usable_cpus(), _LANE_FLOATS // lane_floats))


def run_lanes(block: Callable[[int, int, int], Iterator[None]], count: int, lanes: int) -> None:
    """Run block(lane, start, stop) over blocks that together cover range(count).

    The calling thread runs lane 0 and helper threads lanes 1 to lanes - 1.
    A lane that comes free takes the next block not yet taken, 1 / (2 lanes)
    of the indexes left, rounded up, so the blocks shrink towards the end and
    a lane on a busy CPU takes fewer of them instead of holding up the call.
    ``block`` is a generator that yields before each step of its work; once
    any lane has raised, the others stop at their next step or block.  When
    every lane has stopped, the calling thread's error is raised, else the
    first helper's in the order they were started.

    ``lane`` indexes the caller's scratch for that lane: a large array that a
    helper frees stays resident in its thread's malloc arena.
    A block calls nothing that runs lanes: a helper that waited on helpers
    could wait on itself once the pool is busy.  Every lane runs numpy's BLAS
    at one thread (one_blas_thread), whatever thread count the caller set.
    """
    failed = threading.Event()
    taken = 0
    take = threading.Lock()

    def next_block() -> tuple[int, int]:
        nonlocal taken
        with take:
            start = taken
            taken += -(-(count - taken) // (2 * lanes))
            return start, taken

    def run(lane: int) -> None:
        try:
            while not failed.is_set():
                start, stop = next_block()
                if start == stop:
                    return
                for _ in block(lane, start, stop):
                    if failed.is_set():
                        return
        except BaseException:
            failed.set()
            raise

    with one_blas_thread():
        helpers = [_helpers.submit(run, lane) for lane in range(1, lanes)]
        try:
            run(0)
        finally:
            wait(helpers)
    for helper in helpers:
        helper.result()
