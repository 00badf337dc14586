"""The fork map: order, errors, who runs which job, and the in-process paths;
and `embed` on the map, the same bytes as the oracle at any CPU count."""

import multiprocessing
import os
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


def no_fork():
    raise AssertionError("forked where no worker was wanted")


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
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(os, "fork", no_fork)
        results = workers.fork_map(pid_after(0.0), range(5), 4)
        assert results == [(value, os.getpid()) for value in range(5)]

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
