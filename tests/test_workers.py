"""The fork map: order, errors, dying workers, early exits and the
in-process paths, at any CPU count; and `embed` on the map, the same bytes as
the oracle at any CPU count."""

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


def cpus(monkeypatch, count):
    """Make `workers.cpu_count` report `count` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def open_fds():
    return len(os.listdir("/proc/self/fd"))


def no_fork():
    raise AssertionError("forked where no worker was wanted")


def no_child_is_left():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TwoArgumentError(Exception):
    def __init__(self, value, where):
        super().__init__(f"job {value} failed on the {where}")


@pytest.fixture
def worker_jobs(tmp_path):
    """`record(value)` notes that a worker ran job `value`; `ran()` lists
    them, in the order they ran."""
    log = os.open(tmp_path / "ran", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def record(value):
        os.write(log, b"%d %d\n" % (value, os.getpid()))  # one atomic append per run

    def ran():
        return [tuple(map(int, line.split())) for line in (tmp_path / "ran").read_text().splitlines()]

    yield record, ran
    os.close(log)


# each count of CPUs a fork map may see, and None: a platform without fork
PLATFORMS = [1, 2, 4, None]


def on_platform(monkeypatch, platform):
    if platform is None:
        monkeypatch.delattr(os, "fork")
    else:
        cpus(monkeypatch, platform)


class TestForkMap:
    def test_results_in_input_order(self, monkeypatch):
        jobs = list(range(40))
        for platform in PLATFORMS:
            with monkeypatch.context() as patch:
                on_platform(patch, platform)
                results = list(workers.fork_map(pid_after(0.002), jobs))
            assert [value for value, _ in results] == jobs
            pids = {pid for _, pid in results}
            assert len(pids) > 1 if platform and platform > 1 else pids == {os.getpid()}
            no_child_is_left()

    def test_first_error_in_input_order(self, monkeypatch):
        def job(value):
            time.sleep(0.01)
            if value in (3, 11):
                raise ValueError(f"job {value}")
            return value

        for platform in PLATFORMS:
            with monkeypatch.context() as patch:
                on_platform(patch, platform)
                with pytest.raises(ValueError, match="job 3"):
                    list(workers.fork_map(job, range(12)))
            no_child_is_left()

    def test_an_error_in_this_process_is_raised_in_order(self, monkeypatch):
        # workers slow to take a job leave the first jobs to this process
        import fcntl

        cpus(monkeypatch, 2)
        parent, real_lockf = os.getpid(), fcntl.lockf

        def lockf(fd, operation):
            if os.getpid() != parent:
                time.sleep(0.2)
            real_lockf(fd, operation)

        def job(value):
            if value in (2, 30):
                raise KeyError(value, os.getpid() == parent)
            return value

        monkeypatch.setattr(fcntl, "lockf", lockf)
        with pytest.raises(KeyError) as raised:
            list(workers.fork_map(job, range(40)))
        assert raised.value.args == (2, True)
        no_child_is_left()

    def test_interrupt_here_does_not_wait_for_a_worker(self, monkeypatch):
        cpus(monkeypatch, 2)
        parent = os.getpid()

        def job(value):
            # a job this process runs is quick, a worker's job outlasts the
            # test: it is killed when this process stops
            time.sleep(0.001 if os.getpid() == parent else 30)
            return value

        def interrupt(signum, frame):
            raise KeyboardInterrupt  # as Ctrl-C would, in this process only

        previous = signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, 0.3)
        start = time.monotonic()
        try:
            with pytest.raises(KeyboardInterrupt):
                list(workers.fork_map(job, range(1000)))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 10
        no_child_is_left()

    def test_in_process_without_fork(self, monkeypatch):
        cpus(monkeypatch, 4)
        monkeypatch.delattr(os, "fork")
        results = list(workers.fork_map(pid_after(0.0), range(5)))
        assert results == [(value, os.getpid()) for value in range(5)]

    def test_no_descriptor_leaks_and_no_child_is_left(self, monkeypatch):
        # every way a consumer can leave: to the end, by an error of a job,
        # by closing the generator early, or by raising itself
        cpus(monkeypatch, 3)

        def job(value):
            if value == 3:
                raise ValueError(value)
            time.sleep(0.001)
            return value

        list(workers.fork_map(job, range(2)))  # any first-use allocation
        before = open_fds()
        for call in range(100):
            if call % 4 == 0:
                assert list(workers.fork_map(job, range(3))) == [0, 1, 2]
            elif call % 4 == 1:
                with pytest.raises(ValueError):
                    list(workers.fork_map(job, range(6)))
            elif call % 4 == 2:
                results = workers.fork_map(job, range(100, 200))
                assert next(results) == 100
                results.close()
            else:
                with pytest.raises(LookupError):
                    for _ in workers.fork_map(job, range(100, 200)):
                        raise LookupError("the consumer failed")
            assert open_fds() == before
            no_child_is_left()

    def test_each_job_runs_once_with_more_workers_than_cpus(self, tmp_path, monkeypatch):
        # a lost update of the shared counter would run a job twice or never
        cpus(monkeypatch, 8)
        log = os.open(tmp_path / "ran", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

        def job(value):
            os.write(log, b"%d\n" % value)  # one atomic append per run
            return value

        try:
            for _ in range(20):
                assert list(workers.fork_map(job, range(300))) == list(range(300))
        finally:
            os.close(log)
        ran = sorted(map(int, (tmp_path / "ran").read_text().split()))
        assert ran == sorted(list(range(300)) * 20)

    def test_a_worker_killed_holding_the_lock_does_not_hang_this_process(self, monkeypatch):
        import fcntl

        cpus(monkeypatch, 2)
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
                list(workers.fork_map(pid_after(0.01), range(6)))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        no_child_is_left()

    def test_jobs_stay_here_when_fork_fails(self, monkeypatch):
        def fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        cpus(monkeypatch, 4)
        monkeypatch.setattr(os, "fork", fork)
        before = open_fds()
        results = list(workers.fork_map(pid_after(0.0), range(5)))
        assert results == [(value, os.getpid()) for value in range(5)]
        assert open_fds() == before

    def test_a_result_that_does_not_pickle_names_its_job(self, monkeypatch, worker_jobs):
        record, ran = worker_jobs
        cpus(monkeypatch, 2)
        parent = os.getpid()

        def job(value):
            time.sleep(0.02)
            if os.getpid() == parent:
                return value
            record(value)
            return lambda: value

        with pytest.raises(pickle.PicklingError) as raised:
            list(workers.fork_map(job, range(6)))
        # the first job in input order that a worker ran
        first = min(value for value, _ in ran())
        assert f"job {first}: its result does not survive pickling" in str(raised.value)
        no_child_is_left()

    def test_an_error_that_does_not_unpickle_names_its_job(self, monkeypatch, worker_jobs):
        record, ran = worker_jobs
        cpus(monkeypatch, 2)
        parent = os.getpid()

        def job(value):
            time.sleep(0.02)
            if os.getpid() == parent:
                return value
            record(value)
            raise TwoArgumentError(value, "worker")  # pickles, but cannot be rebuilt

        with pytest.raises(pickle.PicklingError) as raised:
            list(workers.fork_map(job, range(6)))
        first = min(value for value, _ in ran())
        assert f"job {first}: its TwoArgumentError does not" in str(raised.value)
        no_child_is_left()

    def test_a_fork_map_inside_a_worker_forks_no_grandchildren(self, monkeypatch):
        cpus(monkeypatch, 2)
        parent = os.getpid()

        def job(value):
            time.sleep(0.01)
            if os.getpid() != parent:
                os.fork = no_fork  # in this worker only, which exits after
            return os.getpid(), list(workers.fork_map(pid_after(0.0), range(3)))

        results = list(workers.fork_map(job, range(8)))
        in_workers = [(pid, inner) for pid, inner in results if pid != os.getpid()]
        assert in_workers, "no job ran on a worker"
        for pid, inner in in_workers:
            assert inner == [(value, pid) for value in range(3)]

    def test_a_killed_worker_raises_worker_died(self, monkeypatch):
        cpus(monkeypatch, 3)
        parent = os.getpid()

        def job(value):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(0.01)
            return value

        with pytest.raises(workers.WorkerDied, match="killed by SIGKILL"):
            list(workers.fork_map(job, range(6)))
        no_child_is_left()

    def test_a_worker_killed_while_writing_a_result_raises_worker_died(
        self, monkeypatch, worker_jobs
    ):
        # a result past the pipe buffer blocks its worker mid-pickle until it
        # is read; killed there, the worker leaves a truncated pickle
        record, ran = worker_jobs
        cpus(monkeypatch, 2)
        parent = os.getpid()

        def job(value):
            if os.getpid() != parent:
                record(value)
            return bytes(1 << 20)

        results = workers.fork_map(job, range(6))
        next(results)
        deadline = time.monotonic() + 10
        while 1 not in dict(ran()) and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)  # until its result fills the pipe
        os.kill(dict(ran())[1], signal.SIGKILL)
        with pytest.raises(workers.WorkerDied, match="killed by SIGKILL"):
            next(results)
        no_child_is_left()

    @pytest.mark.parametrize("processes, jobs", [(1, 5), (4, 1), (3, 0)])
    def test_in_process_on_one_cpu_or_one_job(self, monkeypatch, processes, jobs):
        cpus(monkeypatch, processes)
        monkeypatch.setattr(os, "fork", no_fork)
        results = list(workers.fork_map(pid_after(0.0), range(jobs)))
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
