"""Where the package's work runs: the CPU count, the BLAS pin and the fork map.

`fork_map` runs jobs on this process and on workers forked from it, which
the kernel kills if it dies (Linux).  The jobs schedule themselves, with no
broker (the self-scheduling loop; Polychronopoulos & Kuck, IEEE Trans.
Computers 1987): each process takes its next job through two counters in a
shared memfd, under a POSIX record lock that the kernel drops if its holder
dies.  The function and the jobs reach the workers by fork inheritance; each
worker sends its results back as one pickle through its own pipe and exits.
Python 3.12 and later emit a DeprecationWarning when a process holding
OpenBLAS threads forks."""

from __future__ import annotations

import ctypes
import os
import pickle
import sys
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


class WorkerDied(RuntimeError):
    """A forked worker ended without sending its results, for example killed
    by the kernel's out-of-memory killer."""


_in_worker = False  # True in a forked worker, where fork_map forks no further


def fork_map(fn, jobs, workers: int) -> list:
    """`[fn(job) for job in jobs]` on up to `workers` processes in all: this
    one and workers forked from its calling thread.  The workers take jobs
    from the front; this process takes, from the back, each job no worker
    has started.  Results come in input order, and the first failing job's
    error in input order is raised; a result or error that does not survive
    pickling becomes a `pickle.PicklingError` naming its job, and a worker
    that dies raises `WorkerDied`.  With one process or one job, inside a
    worker, or where the platform cannot fork or has no memfd (off Linux),
    every job runs here.
    """
    jobs = list(jobs)
    forks = min(workers, len(jobs)) - 1
    if forks < 1 or _in_worker or not (hasattr(os, "fork") and hasattr(os, "memfd_create")):
        return [fn(job) for job in jobs]
    import fcntl  # here, not at the top: most runs never fork
    import mmap
    import signal

    shared = os.memfd_create("fork_map")
    os.ftruncate(shared, 16)
    counters = mmap.mmap(shared, 16)
    ends = memoryview(counters).cast("q")  # the next job, the end of the unstarted ones
    ends[1] = len(jobs)

    def take(back: bool):
        """The index of the next unstarted job from the back or the front, or None."""
        fcntl.lockf(shared, fcntl.LOCK_EX)  # the kernel drops it if its holder dies
        front, end = ends
        if front == end:
            index = None
        elif back:
            index = ends[1] = end - 1
        else:
            index, ends[0] = front, front + 1
        fcntl.lockf(shared, fcntl.LOCK_UN)
        return index

    parent, children = os.getpid(), []  # (pid, its result pipe) of each unreaped worker
    try:
        for _ in range(forks):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process or memory to spare: fewer workers
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                _serve(parent, fn, jobs, take, write)
            os.close(write)
            children.append((pid, open(read, "rb")))
        results = {}
        while (index := take(back=True)) is not None:
            results[index] = _run(fn, jobs[index])
        while children:
            pid, pipe = children[0]
            with pipe:
                sent = pipe.read()
            children.pop(0)  # at EOF its worker is exiting: reap it, never kill it
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                how = (f"exited with status {code}" if code > 0
                       else f"was killed by {signal.Signals(-code).name}")
                raise WorkerDied(f"a worker process {how} before it sent its results")
            results.update(pickle.loads(sent))
    except BaseException:
        # no later result is needed, and Ctrl-C should not wait for a long job
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    finally:
        ends.release()
        counters.close()
        os.close(shared)
    entries = [results[index] for index in range(len(jobs))]
    for ok, value in entries:
        if not ok:
            raise value
    return [value for _, value in entries]


def _run(fn, job) -> tuple:
    """(True, fn(job)), or (False, the exception it raised)."""
    try:
        return True, fn(job)
    except Exception as exc:  # raised in input order by fork_map
        return False, exc


def _serve(parent: int, fn, jobs: list, take, pipe: int) -> None:
    """A forked worker's whole life: leave Ctrl-C to the parent, die by
    SIGKILL when the thread that forked it exits (Linux), run jobs from the
    front until none is left, send {index: (ok, result or exception)} as one
    pickle through `pipe`, and exit without returning."""
    global _in_worker
    code = 1
    try:
        import signal  # imported already, by fork_map

        _in_worker = True
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        if sys.platform == "linux":
            ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
            if os.getppid() != parent:  # the parent died before the prctl
                return
        results = {}
        while (index := take(back=False)) is not None:
            results[index] = _sendable(index, _run(fn, jobs[index]))
        with open(pipe, "wb") as out:
            out.write(pickle.dumps(results, pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)


def _sendable(index: int, entry: tuple) -> tuple:
    """`entry`, or an error naming job `index` if it does not survive pickling."""
    try:
        pickle.loads(pickle.dumps(entry, pickle.HIGHEST_PROTOCOL))
    except Exception as exc:
        what = "result" if entry[0] else type(entry[1]).__name__
        return False, pickle.PicklingError(
            f"fork_map job {index}: its {what} does not survive pickling: {exc}")
    return entry
