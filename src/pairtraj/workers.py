"""Where the package's work runs: the CPU count, the BLAS pin and the fork map.

`fork_map` runs jobs on this process and on workers forked from it, which
the kernel kills if it dies (Linux), and yields their results in input
order.  The jobs schedule themselves, with no broker (the self-scheduling
loop; Polychronopoulos & Kuck, IEEE Trans. Computers 1987): each worker
takes the next job through a counter in a shared memfd, under a POSIX record
lock that the kernel drops if its holder dies, and writes its number into the
job's taker slot beside the counter.  The function and the jobs reach the
workers by fork inheritance; each worker sends one pickle per job through
its own pipe, so it blocks once it is a pipe buffer ahead of the reader, and
this process reads each result from the pipe of the job's taker.  Python
3.12 and later emit a DeprecationWarning when a process holding OpenBLAS
threads forks."""

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


def fork_map(fn, jobs):
    """`fn(job)` for each job, yielded in input order; once there are two jobs
    and two CPUs, up to one worker per CPU (`cpu_count`), and one per job
    after the first, is forked from the calling thread.  This process runs
    the first job, and after it a job only when that job is the next to yield
    and no worker has started it.  The first failing job's error in input
    order is raised; a result or error that does not survive pickling
    becomes a `pickle.PicklingError` naming its job, and a worker that dies
    raises `WorkerDied`.  Closing the generator early, or an error, kills and
    reaps every worker.  With one job or one CPU, inside a worker, or where
    the platform cannot fork or has no memfd (off Linux), every job runs here.
    """
    jobs = list(jobs)
    cpus = cpu_count()
    forks = min(cpus, len(jobs) - 1) if cpus > 1 else 0
    if forks < 1 or _in_worker or not (hasattr(os, "fork") and hasattr(os, "memfd_create")):
        yield from map(fn, jobs)
        return
    import fcntl  # here, not at the top: most runs never fork
    import mmap
    import signal

    shared = os.memfd_create("fork_map")
    os.ftruncate(shared, 8 * (1 + len(jobs)))
    counters = mmap.mmap(shared, 8 * (1 + len(jobs)))
    slots = memoryview(counters).cast("q")  # the next unstarted job, then each job's taker
    slots[0] = 1  # job 0 is this process's, so the workers start from job 1

    def take(who: int, wanted: int | None = None):
        """Start the next unstarted job as `who`'s and return its index; None
        when every job has started, or when the next one is not `wanted`."""
        fcntl.lockf(shared, fcntl.LOCK_EX)  # the kernel drops it if its holder dies
        index = slots[0]
        if index == len(jobs) or wanted not in (None, index):
            index = None
        else:
            slots[0], slots[1 + index] = index + 1, who
        fcntl.lockf(shared, fcntl.LOCK_UN)
        return index

    parent, children = os.getpid(), {}  # number -> (pid, result pipe) of each unreaped worker
    try:
        for who in range(forks):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process or memory to spare: fewer workers
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                _serve(parent, who, fn, jobs, take, write)
            os.close(write)
            children[who] = pid, open(read, "rb")
        for index, job in enumerate(jobs):
            if not index or take(-1, index) is not None:  # this process's job
                yield fn(job)
                continue
            who = slots[1 + index]
            pid, pipe = children[who]
            try:
                ok, what, body = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # a short frame: its worker is ending
                del children[who]
                pipe.close()
                _reap(pid)
                raise
            try:
                value = pickle.loads(body)
            except Exception as exc:
                raise _unpicklable(index, what, exc) from exc
            if not ok:
                raise value
            yield value
        for who in list(children):  # past its last job a worker exits: reap it, never kill it
            pid, pipe = children.pop(who)
            pipe.close()
            _reap(pid)
    except BaseException:
        # no later result is needed, and Ctrl-C should not wait for a long job
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    finally:
        slots.release()
        counters.close()
        os.close(shared)


def _reap(pid: int) -> None:
    """Wait for worker `pid` to exit; WorkerDied unless it exited with status 0."""
    import signal  # imported already, by fork_map

    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code:
        how = (f"exited with status {code}" if code > 0
               else f"was killed by {signal.Signals(-code).name}")
        raise WorkerDied(f"a worker process {how} before it sent its results")


def _unpicklable(index: int, what: str, exc: Exception) -> pickle.PicklingError:
    return pickle.PicklingError(f"fork_map job {index}: its {what} does not survive pickling: {exc}")


def _serve(parent: int, who: int, fn, jobs: list, take, pipe: int) -> None:
    """A forked worker's whole life: leave Ctrl-C to the parent, die by
    SIGKILL when the thread that forked it exits (Linux), and run jobs from
    the front until none is left, sending each as one pickle through `pipe`:
    (ok, "result" or the exception's type name, the pickled result or
    exception).  It exits without returning."""
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
        with open(pipe, "wb") as out:
            while (index := take(who)) is not None:
                try:
                    ok, value = True, fn(jobs[index])
                except BaseException as exc:  # raised in input order by fork_map, as here
                    ok, value = False, exc
                what = "result" if ok else type(value).__name__
                try:
                    body = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
                except Exception as exc:
                    ok, body = False, pickle.dumps(_unpicklable(index, what, exc))
                pickle.dump((ok, what, body), out, pickle.HIGHEST_PROTOCOL)
                out.flush()
        code = 0
    finally:
        os._exit(code)
