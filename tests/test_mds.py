import logging
import os
import subprocess
import sys

import numpy as np
import pytest

import pairtraj
from pairtraj import workers
from pairtraj.errors import DataError, InvalidInputError
from pairtraj.mds import Embedding, embed, read_embedding_binary, write_embedding_binary
from pairtraj.procrustes import DistanceMatrix, distance_matrix

from oracles import planted, random_interaction, reference_embed

# frozen unit-square oracle: direct BFGS minimization of the raw stress over
# R^4, 200 random restarts (see test_matches_direct_minimization, which
# re-derives it with a smaller restart budget)
SQUARE_BETA1_STRESS = 2.3431457505076194


def euclidean_matrix(points):
    diff = points[:, None, :] - points[None, :, :]
    return DistanceMatrix(np.sqrt((diff**2).sum(-1)))


def square_matrix():
    return euclidean_matrix(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float))


def frozen_non_euclidean():
    # quotient distances of 30 seeded random interactions; the double-centered
    # Gram matrix has eigenvalue -0.33, so no Euclidean configuration is exact
    rng = np.random.default_rng(2)
    return distance_matrix([random_interaction(rng, 9) for _ in range(30)])


class TestEmbed:
    def test_exact_recovery_of_planar_points(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(12, 2)) * 3
        dm = euclidean_matrix(pts)
        emb = embed(dm, beta=2, seed=0)
        realized = euclidean_matrix(emb.points).entries
        assert np.max(np.abs(realized - dm.entries)) <= 1e-8
        assert emb.stress <= 1e-12

    def test_all_zero_matrix(self):
        dm = DistanceMatrix(np.zeros((5, 5)))
        emb = embed(dm, beta=2, seed=0)
        assert np.max(np.abs(emb.points - emb.points[0])) <= 1e-12
        assert emb.stress == 0.0

    def test_unit_square_beta1_matches_direct_minimization(self):
        from scipy.optimize import minimize

        dm = square_matrix()
        deltas = dm.entries

        def stress(y):
            d = np.abs(y[:, None] - y[None, :])
            return ((d - deltas) ** 2).sum()

        rng = np.random.default_rng(0)
        oracle = min(
            minimize(lambda v: stress(v), rng.normal(size=4) * 2, method="BFGS").fun
            for _ in range(40)
        )
        assert oracle == pytest.approx(SQUARE_BETA1_STRESS, abs=1e-6)
        emb = embed(dm, beta=1, seed=0)
        assert emb.stress == pytest.approx(oracle, abs=1e-4)

    def test_beta_bounds(self):
        dm = square_matrix()
        with pytest.raises(InvalidInputError):
            embed(dm, beta=0)
        with pytest.raises(InvalidInputError):
            embed(dm, beta=4)
        emb = embed(dm, beta=3, seed=0)
        assert emb.beta == 3

    @pytest.mark.parametrize("beta", [2.5, 2.0, float("nan"), "2", None])
    def test_non_integer_beta_rejected(self, beta):
        with pytest.raises(InvalidInputError):
            embed(square_matrix(), beta=beta)

    def test_numpy_integer_beta_accepted(self):
        dm = square_matrix()
        emb = embed(dm, beta=np.int64(2), seed=0)
        assert np.array_equal(emb.points, embed(dm, beta=2, seed=0).points)

    def test_stress_non_increasing_in_beta(self):
        dm = frozen_non_euclidean()
        prev_refined = prev_spectral = np.inf
        for beta in range(1, 5):
            refined = embed(dm, beta, seed=0).stress
            spectral = embed(dm, beta, seed=0, max_iter=0).stress
            assert refined <= prev_refined + 1e-9
            assert spectral <= prev_spectral + 1e-9
            prev_refined, prev_spectral = refined, spectral

    def test_majorization_never_increases_stress(self):
        dm = frozen_non_euclidean()
        history = [
            embed(dm, 2, seed=0, max_iter=m, n_restarts=0).stress
            for m in (0, 1, 2, 5, 20, 100)
        ]
        for earlier, later in zip(history, history[1:]):
            assert later <= earlier + 1e-9

    def test_refinement_beats_spectral_start(self):
        dm = frozen_non_euclidean()
        assert embed(dm, 3, seed=0).stress <= embed(dm, 3, seed=0, max_iter=0).stress

    def test_permutation_equivariance_of_spectral_geometry(self):
        dm = frozen_non_euclidean()
        rng = np.random.default_rng(4)
        perm = rng.permutation(dm.n)
        permuted = DistanceMatrix(dm.entries[np.ix_(perm, perm)])
        base = embed(dm, 3, seed=0, max_iter=0).points
        other = embed(permuted, 3, seed=0, max_iter=0).points
        pd_base = euclidean_matrix(base).entries
        pd_other = euclidean_matrix(other).entries
        assert np.max(np.abs(pd_other - pd_base[np.ix_(perm, perm)])) <= 1e-8

    def test_deterministic_given_seed(self):
        dm = frozen_non_euclidean()
        a = embed(dm, 2, seed=9)
        b = embed(dm, 2, seed=9)
        assert a.points.tobytes() == b.points.tobytes()
        assert a.stress == b.stress

    def test_iterations_report_the_cap(self):
        emb = embed(frozen_non_euclidean(), 2, seed=0, max_iter=5)
        assert emb.iterations == (5,) * 9  # spectral run, then 8 restarts
        assert 0 <= emb.best_run < 9

    def test_capped_runs_logged_once(self, caplog):
        with caplog.at_level(logging.WARNING, logger="pairtraj.mds"):
            embed(frozen_non_euclidean(), 2, seed=0, max_iter=5)
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert "[0, 1, 2, 3, 4, 5, 6, 7, 8] of 9" in record.getMessage()

    def test_no_cap_warning_when_converged_or_spectral_only(self, caplog):
        planar = euclidean_matrix(np.random.default_rng(0).normal(size=(12, 2)))
        with caplog.at_level(logging.WARNING, logger="pairtraj.mds"):
            converged = embed(planar, 2, seed=0)
            embed(frozen_non_euclidean(), 2, seed=0, max_iter=0)
        assert max(converged.iterations) < 500
        assert caplog.records == []

    def test_tolerance_met_on_the_last_allowed_step_is_no_cap(self, caplog):
        rng = np.random.default_rng(0)
        planar = euclidean_matrix(rng.normal(size=(12, 2))).entries
        noise = rng.uniform(-0.02, 0.02, size=(12, 12))
        near = DistanceMatrix(planar + (noise + noise.T) / 2 * (planar > 0))
        free = embed(near, 2, n_restarts=0)
        (steps,) = free.iterations
        with caplog.at_level(logging.WARNING, logger="pairtraj.mds"):
            last_step = embed(near, 2, max_iter=steps, n_restarts=0)
            assert caplog.records == []
            embed(near, 2, max_iter=steps - 1, n_restarts=0)
        assert last_step.iterations == (steps,) and steps < 500
        assert last_step.points.tobytes() == free.points.tobytes()
        [record] = caplog.records
        assert f"of 1 stopped at the {steps - 1}-step cap" in record.getMessage()

    def test_blas_thread_count_does_not_change_output(self):
        # at n=300 a threaded LAPACK eigh rounds the spectral start differently;
        # at n=600 and 1200 a threaded B @ points rounds the Guttman steps, and
        # at n=600 restarts on the thread pool call BLAS at the same time
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from pairtraj.mds import embed\n"
            "from pairtraj.procrustes import DistanceMatrix, distance_matrix\n"
            "from pairtraj.synthetic import make_labeled_dataset\n"
            "def emit(emb):\n"
            "    sys.stdout.buffer.write(emb.points.tobytes() + repr(emb.stress).encode())\n"
            "encounters, _ = make_labeled_dataset(0, 100, num_samples=101)\n"
            "matrix = distance_matrix([inter for _, inter in encounters])\n"
            "for beta in (2, 3):\n"
            "    emit(embed(matrix, beta, 0, max_iter=20))\n"
            "for n, restarts in ((600, 3), (1200, 1)):\n"
            "    points = np.random.default_rng(n).normal(size=(n, 6))\n"
            "    sq = sum(np.subtract.outer(c, c) ** 2 for c in points.T)\n"
            "    emit(embed(DistanceMatrix(np.sqrt(sq)), 3, 0, max_iter=2, n_restarts=restarts))\n"
        )
        src = os.path.dirname(os.path.dirname(pairtraj.__file__))
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, check=True
            )
            outputs.append(done.stdout)
        assert len(outputs[0]) > 8 * (300 * 5 + 1800 * 3)
        assert outputs[0] == outputs[1]


def planted_sixty():
    data, _ = planted(np.random.default_rng(21), per_family=20)
    return distance_matrix(data)


def planted_150():
    data, _ = planted(np.random.default_rng(22), per_family=50)
    return distance_matrix(data)


def simplex_150():
    # all distances equal: the spectral start is degenerate and a random
    # restart wins, so the winner is picked from the pool's results
    return DistanceMatrix(1.0 - np.eye(150))


class TestMatchesFrozenReference:
    @pytest.mark.parametrize("make", [frozen_non_euclidean, planted_sixty])
    def test_beta2_byte_identical(self, make):
        dm = make()
        emb = embed(dm, 2, seed=0)
        points, stress = reference_embed(dm.entries, 2, seed=0)
        assert emb.points.tobytes() == points.tobytes()
        assert emb.stress == stress

    @pytest.mark.parametrize("make", [frozen_non_euclidean, planted_sixty])
    def test_beta3_agrees_to_rounding(self, make):
        # with three coordinates the squares may be summed in another order
        dm = make()
        emb = embed(dm, 3, seed=0)
        points, stress = reference_embed(dm.entries, 3, seed=0)
        assert emb.stress == pytest.approx(stress, rel=1e-12)
        realized = euclidean_matrix(emb.points).entries
        reference = euclidean_matrix(points).entries
        assert np.max(np.abs(realized - reference)) <= 1e-10

    @pytest.mark.parametrize("make", [planted_150, simplex_150])
    def test_beta2_byte_identical_on_the_thread_pool(self, make):
        dm = make()
        assert dm.n == 150
        emb = embed(dm, 2, seed=0, max_iter=40)
        points, stress = reference_embed(dm.entries, 2, seed=0, max_iter=40)
        assert emb.points.tobytes() == points.tobytes()
        assert emb.stress == stress


class TestRestartPool:
    @pytest.mark.parametrize("make", [planted_150, simplex_150])
    def test_worker_count_does_not_change_output(self, monkeypatch, make):
        dm = make()
        real_fork, forks = os.fork, []

        def counting_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(workers.os, "fork", counting_fork)
        results, forked = [], []
        for cpus in (1, 4):
            monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid, k=cpus: set(range(k)))
            forks.clear()
            emb = embed(dm, 3, seed=5, max_iter=30)
            results.append((emb.points.tobytes(), emb.stress, emb.iterations, emb.best_run))
            forked.append(len(forks))
        assert forked == [0, 4]  # nine runs: one worker per CPU
        assert results[0] == results[1]

    def test_no_affinity_mask_same_bytes(self, monkeypatch):
        # os.sched_getaffinity is Linux-only; elsewhere the fork map is sized
        # by os.cpu_count
        dm = planted_150()
        results = []
        for patch in (False, True):
            if patch:
                monkeypatch.delattr(workers.os, "sched_getaffinity")
            emb = embed(dm, 2, seed=0, max_iter=30)
            results.append((emb.points.tobytes(), emb.stress, emb.iterations, emb.best_run))
        assert results[0] == results[1]

    def test_a_pooled_restart_can_win(self):
        emb = embed(simplex_150(), 3, seed=5, max_iter=30)
        assert emb.best_run == 4

    def test_iterations_in_run_order_above_the_gate(self):
        emb = embed(planted_150(), 2, seed=0, max_iter=5)
        assert emb.iterations == (5,) * 9
        assert 0 <= emb.best_run < 9

    def test_all_zero_matrix_runs_once_above_the_gate(self):
        emb = embed(DistanceMatrix(np.zeros((100, 100))), 2, seed=0)
        assert emb.iterations == (0,) and emb.best_run == 0
        assert emb.stress == 0.0


class TestSerialization:
    def test_round_trip(self, tmp_path):
        data, _ = planted(np.random.default_rng(3), per_family=4)
        emb = embed(distance_matrix(data), beta=3, seed=0)
        assert emb.best_run > 0 and len(set(emb.iterations)) > 1  # fields worth checking
        path = tmp_path / "emb.bin"
        write_embedding_binary(path, emb)
        back = read_embedding_binary(path)
        assert back.points.tobytes() == emb.points.tobytes()
        assert back.stress == emb.stress
        assert back.iterations == emb.iterations
        assert back.best_run == emb.best_run

    @pytest.mark.parametrize("cut", [0, 3, 20, -8, -1])
    def test_truncated_file_rejected(self, tmp_path, cut):
        path = tmp_path / "emb.bin"
        write_embedding_binary(path, embed(square_matrix(), beta=2, seed=0))
        blob = path.read_bytes()
        path.write_bytes(blob[:cut] if cut else b"garbage" * 10)
        with pytest.raises(DataError):
            read_embedding_binary(path)

    def test_rejects_negative_stress(self):
        with pytest.raises(InvalidInputError):
            Embedding(np.zeros((3, 2)), -1.0)
