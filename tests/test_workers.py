"""The fork map: order, errors, who runs which job, and the in-process paths;
and `embed` on the map, the same bytes as the oracle at any CPU count."""

import errno
import multiprocessing
import os
import pickle
import signal
import time

import numpy as np
import pytest

from pairtraj import mds, workers
from pairtraj.mds import embed
from pairtraj.procrustes import DistanceMatrix, distance_matrix

from oracles import planted, reference_embed


def pid_after(delay):
    """A job function: sleeps `delay` s, then returns (job, the pid that ran it)."""

    def job(value):
        time.sleep(delay)
        return value, os.getpid()

    return job


def open_fds():
    return len(os.listdir("/proc/self/fd"))


def no_fork():
    raise AssertionError("forked where no worker was wanted")


class TwoArgumentError(Exception):
    def __init__(self, value, where):
        super().__init__(f"job {value} failed on the {where}")


class TestForkMap:
    def test_results_in_input_order(self):
        jobs = list(range(40))
        results = workers.fork_map(pid_after(0.002), jobs, 3)
        assert [value for value, _ in results] == jobs
        assert len({pid for _, pid in results}) > 1
        assert multiprocessing.active_children() == []

    def test_the_caller_takes_jobs_from_the_back(self):
        results = workers.fork_map(pid_after(0.02), range(12), 2)
        here = [pid == os.getpid() for _, pid in results]
        # a prefix ran on the worker, a nonempty suffix here
        assert here[-1] and not here[0]
        assert here == sorted(here)

    def test_first_error_in_input_order(self):
        def job(value):
            time.sleep(0.01)
            if value in (3, 11):  # 3 on the worker, 11 here
                raise ValueError(f"job {value}")
            return value

        with pytest.raises(ValueError, match="job 3"):
            workers.fork_map(job, range(12), 2)
        assert multiprocessing.active_children() == []

    def test_an_error_in_this_process_is_raised_in_order(self):
        def job(value):
            time.sleep(0.01)
            if value == 11:  # the last job: this process runs it
                raise KeyError(value)
            return value

        with pytest.raises(KeyError):
            workers.fork_map(job, range(12), 2)

    def test_interrupt_here_does_not_wait_for_a_worker(self):
        def job(value):
            if value == 0:
                time.sleep(30)  # the worker's job, killed when this one stops
            raise KeyboardInterrupt

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            workers.fork_map(job, range(2), 2)
        assert time.monotonic() - start < 10
        assert multiprocessing.active_children() == []

    def test_in_process_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        results = workers.fork_map(pid_after(0.0), range(5), 4)
        assert results == [(value, os.getpid()) for value in range(5)]

    def test_no_descriptor_leaks_and_no_child_is_left(self):
        def job(value):
            if value == 3:
                raise ValueError(value)
            return value

        workers.fork_map(job, range(2), 2)  # any first-use allocation
        before = open_fds()
        for call in range(100):
            if call % 2:
                with pytest.raises(ValueError):
                    workers.fork_map(job, range(6), 3)
            else:
                assert workers.fork_map(job, range(3), 2) == [0, 1, 2]
        assert open_fds() == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_each_job_runs_once_with_more_workers_than_cpus(self, tmp_path):
        # a lost update of the shared counters would run a job twice or never
        log = os.open(tmp_path / "ran", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

        def job(value):
            os.write(log, b"%d\n" % value)  # one atomic append per run
            return value

        try:
            for _ in range(20):
                assert workers.fork_map(job, range(300), 8) == list(range(300))
        finally:
            os.close(log)
        ran = sorted(map(int, (tmp_path / "ran").read_text().split()))
        assert ran == sorted(list(range(300)) * 20)

    def test_a_worker_killed_holding_the_lock_does_not_hang_this_process(self, monkeypatch):
        import fcntl

        parent, real_lockf = os.getpid(), fcntl.lockf

        def lockf(fd, operation):
            real_lockf(fd, operation)
            if operation == fcntl.LOCK_EX and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)

        def expire(signum, frame):
            raise TimeoutError("this process waited on a dead worker's lock")

        monkeypatch.setattr(fcntl, "lockf", lockf)
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(10)
        try:
            with pytest.raises(workers.WorkerDied, match="killed by SIGKILL"):
                workers.fork_map(pid_after(0.01), range(6), 2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_jobs_stay_here_when_fork_fails(self, monkeypatch):
        def fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        before = open_fds()
        results = workers.fork_map(pid_after(0.0), range(5), 4)
        assert results == [(value, os.getpid()) for value in range(5)]
        assert open_fds() == before

    def test_a_result_that_does_not_pickle_names_its_job(self):
        parent = os.getpid()

        def job(value):
            time.sleep(0.02)
            return (lambda: value) if os.getpid() != parent else value

        with pytest.raises(pickle.PicklingError, match=r"job 0: its result does not survive"):
            workers.fork_map(job, range(6), 2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_an_error_that_does_not_unpickle_names_its_job(self):
        parent = os.getpid()

        def job(value):
            time.sleep(0.02)
            if os.getpid() != parent:
                raise TwoArgumentError(value, "worker")  # pickles, but cannot be rebuilt
            return value

        with pytest.raises(pickle.PicklingError, match=r"job 0: its TwoArgumentError does not"):
            workers.fork_map(job, range(6), 2)

    def test_a_fork_map_inside_a_worker_forks_no_grandchildren(self):
        parent = os.getpid()

        def job(value):
            time.sleep(0.01)
            if os.getpid() != parent:
                os.fork = no_fork  # in this worker only, which exits after
            return os.getpid(), workers.fork_map(pid_after(0.0), range(3), 4)

        results = workers.fork_map(job, range(8), 2)
        in_workers = [(pid, inner) for pid, inner in results if pid != os.getpid()]
        assert in_workers, "no job ran on a worker"
        for pid, inner in in_workers:
            assert inner == [(value, pid) for value in range(3)]

    def test_a_killed_worker_raises_worker_died(self):
        parent = os.getpid()

        def job(value):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(0.01)
            return value

        with pytest.raises(workers.WorkerDied, match="killed by SIGKILL"):
            workers.fork_map(job, range(6), 3)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("processes, jobs", [(1, 5), (4, 1), (3, 0)])
    def test_in_process_on_one_cpu_or_one_job(self, monkeypatch, processes, jobs):
        monkeypatch.setattr(os, "fork", no_fork)
        results = workers.fork_map(pid_after(0.0), range(jobs), processes)
        assert results == [(value, os.getpid()) for value in range(jobs)]


def planted_matrix(n):
    data, _ = planted(np.random.default_rng(8), per_family=(n + 2) // 3)
    return distance_matrix(data[:n])


def duplicated_matrix():
    # every object twice: coincident points, so zero distances off the
    # diagonal, in the spectral start and along the runs
    entries = planted_matrix(60).entries
    return DistanceMatrix(np.block([[entries, entries], [entries, entries]]))


CASES = {
    "n99": lambda: planted_matrix(99),
    "n100": lambda: planted_matrix(100),
    "n150": lambda: planted_matrix(150),
    "duplicated": duplicated_matrix,
    "all_zero": lambda: DistanceMatrix(np.zeros((150, 150))),
}


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_embed_matches_the_oracle_at_any_cpu_count(monkeypatch, case, beta):
    dm = CASES[case]()
    points, stress = reference_embed(dm.entries, beta, seed=3, max_iter=25)
    results = set()
    for cpus in (1, 2, 4):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, k=cpus: set(range(k)))
        emb = embed(dm, beta, seed=3, max_iter=25)
        assert emb.points.tobytes() == points.tobytes()
        assert emb.stress == stress
        results.add((emb.iterations, emb.best_run))
    assert len(results) == 1
    if case == "all_zero":
        assert results == {((0,), 0)}
    else:
        assert len(emb.iterations) == 1 + mds._N_RESTARTS
