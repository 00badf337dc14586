"""Where the package's work runs: the CPU count, the BLAS pin and the fork map.

`fork_map` runs jobs on this process and on workers forked from it, which
the kernel kills if it dies (Linux).  The function and the jobs reach the
workers by fork inheritance: only a job's index and its result cross the
pipe.  Python 3.12 and later emit a DeprecationWarning when a process holding
OpenBLAS threads forks.
"""

from __future__ import annotations

import ctypes
import os
import sys
from concurrent.futures import Future
from contextlib import contextmanager

import numpy as np

_PR_SET_PDEATHSIG = 1  # linux/prctl.h


def cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one (Linux), else every CPU of the host; at least 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def one_blas_thread():
    """The OpenBLAS behind `np.linalg` on one thread inside the block, its
    earlier count restored after; nothing changes where numpy links another
    BLAS.  Workers forked inside the block inherit the pin."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)  # lookups search its BLAS too
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    if get is None:
        yield
        return
    before = get()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


_inherited = None  # (fn, jobs), set only in a forked worker, by _start_worker


def _start_worker(parent: int, fn, jobs) -> None:
    """Pool initializer: keep `fn` and `jobs`, leave Ctrl-C to the parent, and
    die by SIGKILL when the thread that forked this worker exits (Linux)."""
    import signal  # here, not at the top: 1 ms of every CLI start

    global _inherited
    _inherited = fn, jobs
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if sys.platform == "linux":
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:  # the parent died before the prctl
            os._exit(1)


def _run_inherited(index: int):
    fn, jobs = _inherited
    return fn(jobs[index])


def fork_map(fn, jobs, workers: int) -> list:
    """`[fn(job) for job in jobs]` on up to `workers` processes in all: this
    one and workers forked from its calling thread.  The workers take jobs
    from the front; this process takes, from the back, each job no worker
    has started.  Results come in input order, and the first failing job's
    error in input order is raised.  With one process or one job, or where
    the platform cannot fork, every job runs here.
    """
    jobs = list(jobs)
    forks = min(workers, len(jobs)) - 1
    if forks >= 1:
        import multiprocessing  # here, not at the top: most runs never fork

        # fork, not spawn: a spawned worker pays a fresh numpy import
        if "fork" in multiprocessing.get_all_start_methods():
            return _on_pool(fn, jobs, forks, multiprocessing.get_context("fork"))
    return [fn(job) for job in jobs]


def _on_pool(fn, jobs: list, forks: int, context) -> list:
    from concurrent.futures.process import ProcessPoolExecutor

    # the workers start in this thread, on the first submit
    pool = ProcessPoolExecutor(
        forks, mp_context=context, initializer=_start_worker,
        initargs=(os.getpid(), fn, jobs),
    )
    try:
        futures = [pool.submit(_run_inherited, index) for index in range(len(jobs))]
        for index in reversed(range(len(jobs))):
            if not futures[index].cancel():  # a worker took it, and every earlier job
                break
            futures[index] = here = Future()
            try:
                here.set_result(fn(jobs[index]))
            except Exception as exc:  # raised in input order below
                here.set_exception(exc)
        return [future.result() for future in futures]
    except BaseException:
        # no later result is needed, and Ctrl-C should not wait for a long
        # job; concurrent.futures has no public kill before Python 3.14
        for process in list(pool._processes.values()):
            process.kill()
        raise
    finally:
        pool.shutdown(cancel_futures=True)
