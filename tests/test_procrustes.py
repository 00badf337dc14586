import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import pairtraj
from pairtraj import procrustes, workers
from pairtraj.artifacts import read_rows
from pairtraj.errors import InvalidInputError
from pairtraj.procrustes import (
    Alignment,
    DistanceMatrix,
    align,
    cross_distance_matrix,
    distance,
    distance_matrix,
    distance_with_alignment,
    read_matrix_binary,
    write_matrix_binary,
    write_matrix_csv,
    _BLOCK,
    _both_orders,
    _pack,
)
from pairtraj.synthetic import family_interaction
from pairtraj.trajectory import Interaction, Trajectory

from oracles import (
    random_interaction,
    random_rotation,
    reference_distance,
    rho_sq,
    rigid_copy,
    theta_grid_distance,
    theta_grid_residual_sq,
)


def csv_entries(path):
    """The entries of a matrix CSV, read back through the rows layout: its
    header line holds n, then come n rows of n numbers."""
    _, ((_, (n,)), *rows) = read_rows(path, None)
    assert len(rows) == int(n)
    return np.array([[float(v) for v in fields] for _, fields in rows])


def rot(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def cpus(monkeypatch, count):
    """Make `workers.cpu_count` report `count` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture
def pools(monkeypatch):
    """The thread count of each pool the distance kernel starts, in order."""
    started = []

    class Counted(ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(procrustes, "ThreadPoolExecutor", Counted)
    return started


@pytest.fixture
def forks(monkeypatch):
    """A list that grows by one on each fork."""
    real_fork, made = os.fork, []

    def counting_fork():
        made.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return made


class TestAlign:
    def test_identity_when_source_equals_target(self):
        rng = np.random.default_rng(0)
        inter = random_interaction(rng, 21)
        fit, aligned = align(inter, inter)
        assert np.max(np.abs(fit.rotation - np.eye(2))) <= 1e-10
        assert np.max(np.abs(fit.translation)) <= 1e-10
        assert not fit.swapped
        assert np.max(np.abs(aligned.first.samples - inter.first.samples)) <= 1e-10

    def test_recovers_known_rotation(self):
        rng = np.random.default_rng(1)
        target = random_interaction(rng, 31)
        theta = 0.81
        source = rigid_copy(target, rot(theta), np.array([2.0, -1.0]))
        fit, aligned = align(target, source)
        # undoing the motion: recovered rotation is the inverse of rot(theta)
        assert np.max(np.abs(fit.rotation @ rot(theta) - np.eye(2))) <= 1e-9
        recovered_angle = np.arctan2(fit.rotation[1, 0], fit.rotation[0, 0])
        assert abs(recovered_angle + theta) <= 1e-9
        assert np.max(np.abs(aligned.first.samples - target.first.samples)) <= 1e-9
        assert np.max(np.abs(aligned.second.samples - target.second.samples)) <= 1e-9

    def test_shear_pair_matches_fine_theta_grid(self):
        # closed form vs. a one-million-step rotation grid with exact
        # per-theta translation
        T = 11
        grid = np.linspace(0.0, 1.0, T)
        t = grid
        target = Interaction(
            Trajectory(np.column_stack([t, np.zeros(T)]), grid),
            Trajectory(np.column_stack([np.zeros(T), t]), grid),
        )
        source = Interaction(
            Trajectory(np.column_stack([t, 0.1 * t]), grid),
            Trajectory(np.column_stack([np.zeros(T), t]), grid),
        )
        w = np.full(T, 1.0 / T)
        fit, aligned = align(target, source)
        realized = rho_sq(target, aligned, w)
        brute = theta_grid_residual_sq(target, source, w, swap=False, n_grid=1_000_000)
        assert realized == pytest.approx(brute, rel=1e-5, abs=1e-12)
        assert realized <= brute + 1e-12  # the closed form can only do better

    def test_no_theta_beats_the_closed_form(self):
        rng = np.random.default_rng(2)
        w = np.full(21, 1.0 / 21)
        for _ in range(5):
            a, b = random_interaction(rng, 21), random_interaction(rng, 21)
            _, aligned = align(a, b)
            realized = rho_sq(a, aligned, w)
            brute = theta_grid_residual_sq(a, b, w, swap=False, n_grid=20_000)
            assert realized <= brute + 1e-9

    def test_degenerate_source_gets_identity_rotation(self):
        grid = np.linspace(0, 1, 5)
        point = np.tile([3.0, 4.0], (5, 1))
        blob = Interaction(Trajectory(point, grid), Trajectory(point, grid))
        rng = np.random.default_rng(3)
        target = random_interaction(rng, 5)
        fit, _ = align(target, blob)
        assert np.array_equal(fit.rotation, np.eye(2))

    def test_grid_length_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(InvalidInputError):
            align(random_interaction(rng, 10), random_interaction(rng, 11))


class TestDistance:
    def test_zero_on_identical(self):
        rng = np.random.default_rng(6)
        inter = random_interaction(rng, 21)
        assert distance(inter, inter) <= 1e-10

    def test_rigid_motion_and_swap_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            inter = random_interaction(rng, 17)
            moved = rigid_copy(inter, random_rotation(rng), rng.uniform(-5, 5, 2))
            assert distance(inter, moved) <= 1e-9
            assert distance(inter, moved.swapped()) <= 1e-9
            other = random_interaction(rng, 17)
            d = distance(inter, other)
            assert abs(distance(inter, other.swapped()) - d) <= 1e-9
            moved_other = rigid_copy(other, random_rotation(rng), rng.uniform(-5, 5, 2))
            assert abs(distance(inter, moved_other) - d) <= 1e-9

    def test_symmetry_identity_triangle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = random_interaction(rng, 17)
            b = random_interaction(rng, 17)
            c = random_interaction(rng, 17)
            dab, dba = distance(a, b), distance(b, a)
            assert abs(dab - dba) <= 1e-9
            assert distance(a, a) <= 1e-10
            assert dab <= distance(a, c) + distance(c, b) + 1e-8

    def test_matches_theta_grid_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(4):
            a, b = random_interaction(rng, 13), random_interaction(rng, 13)
            d = distance(a, b)
            brute = theta_grid_distance(a, b, np.full(13, 1.0 / 13), n_grid=100_000)
            assert d == pytest.approx(brute, rel=1e-4, abs=1e-6)
            assert d <= brute + 1e-12

    def test_swap_flag_reported(self):
        rng = np.random.default_rng(10)
        inter = random_interaction(rng, 15)
        moved = rigid_copy(inter, random_rotation(rng), rng.uniform(-2, 2, 2))
        d, fit = distance_with_alignment(inter, moved.swapped())
        assert d <= 1e-9
        assert fit.swapped
        d2, fit2 = distance_with_alignment(inter, moved)
        assert d2 <= 1e-9
        assert not fit2.swapped

    def test_tie_prefers_unswapped(self):
        # symmetric pair: swapping changes nothing, flag must stay False
        grid = np.linspace(0, 1, 9)
        curve = np.column_stack([grid, grid**2])
        sym = Interaction(Trajectory(curve, grid), Trajectory(curve, grid))
        rng = np.random.default_rng(11)
        _, fit = distance_with_alignment(random_interaction(rng, 9), sym)
        assert not fit.swapped

    def test_one_pair_has_one_value(self):
        # generic pairs, and rigid copies perturbed by 1e-10, where the
        # near-pair recompute runs and its rounding depends on the direction
        rng = np.random.default_rng(16)
        pairs = [(random_interaction(rng, 17), random_interaction(rng, 17)) for _ in range(150)]
        for _ in range(150):
            a = random_interaction(rng, 17)
            noisy = Interaction(
                *(Trajectory(c.samples + 1e-10 * rng.normal(size=(17, 2)), c.grid)
                  for c in (a.first, a.second))
            )
            pairs.append((a, rigid_copy(noisy, random_rotation(rng), rng.uniform(-2, 2, 2))))
        for a, b in pairs:
            d = distance(a, b)
            assert d == distance_matrix([a, b]).entries[0, 1]
            assert d == cross_distance_matrix([a], [b])[0, 0]
            assert distance_with_alignment(a, b)[0] == distance(b, a)

    def test_realized_alignment_achieves_distance(self):
        rng = np.random.default_rng(12)
        w = np.full(19, 1.0 / 19)
        for _ in range(6):
            a, b = random_interaction(rng, 19), random_interaction(rng, 19)
            d, fit = distance_with_alignment(a, b)
            moved = fit.apply(b.swapped() if fit.swapped else b)
            assert np.sqrt(rho_sq(a, moved, w)) == pytest.approx(d, abs=1e-9)


class TestAlignmentType:
    def test_rejects_improper_rotation(self):
        with pytest.raises(InvalidInputError):
            Alignment(np.diag([1.0, -1.0]), np.zeros(2), False)

    def test_rejects_non_orthogonal(self):
        with pytest.raises(InvalidInputError):
            Alignment(np.array([[1.0, 0.1], [0.0, 1.0]]), np.zeros(2), False)


class TestDistanceMatrix:
    def build(self, n=8, T=13, seed=13):
        rng = np.random.default_rng(seed)
        return [random_interaction(rng, T) for _ in range(n)]

    def test_matches_scalar_distance(self):
        data = self.build()
        mat = distance_matrix(data)
        for i in range(len(data)):
            for j in range(len(data)):
                assert mat.entries[i, j] == pytest.approx(distance(data[i], data[j]), abs=1e-12)

    def test_invariants_and_triangle(self):
        data = self.build(n=9)
        mat = distance_matrix(data)
        ent = mat.entries
        assert np.max(np.abs(ent - ent.T)) <= 1e-10
        assert np.max(np.abs(np.diag(ent))) <= 1e-10
        rng = np.random.default_rng(14)
        for _ in range(60):
            i, j, k = rng.integers(0, len(data), 3)
            assert ent[i, j] <= ent[i, k] + ent[k, j] + 1e-8

    def test_normalization(self):
        mat = distance_matrix(self.build(), normalize=True)
        assert mat.entries.max() == pytest.approx(1.0, abs=1e-15)
        # all-zero matrix is left alone: coincident-point blobs have exact
        # zero mismatch (T=8 so the uniform weights are dyadic and the joint
        # mean is exact)
        grid = np.linspace(0, 1, 8)
        blob = Interaction(
            Trajectory(np.tile([1.0, 2.0], (8, 1)), grid),
            Trajectory(np.tile([1.0, 2.0], (8, 1)), grid),
        )
        zero = distance_matrix([blob, blob, blob], normalize=True)
        assert zero.entries.max() == 0.0

    def test_clone_distances_vanish(self):
        x = self.build(n=1)[0]
        mat = distance_matrix([x, x, x])
        assert mat.entries.max() <= 1e-10

    def test_blas_thread_count_does_not_change_output(self):
        script = (
            "import sys\n"
            "from pairtraj.procrustes import distance_matrix\n"
            "from pairtraj.synthetic import make_family_dataset\n"
            "data, _ = make_family_dataset(0, per_family=50, num_samples=101, families=("
            "'parallel', 'opposing', 'crossing', 'parallel'))\n"
            "sys.stdout.buffer.write(distance_matrix(data).entries.tobytes())\n"
        )
        src = os.path.dirname(os.path.dirname(pairtraj.__file__))
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, check=True
            )
            outputs.append(done.stdout)
        assert len(outputs[0]) == 8 * 200 * 200
        assert outputs[0] == outputs[1]

    def test_single_interaction(self):
        mat = distance_matrix(self.build(n=1))
        assert mat.n == 1 and mat.entries[0, 0] == 0.0

    def test_mixed_grid_lengths_rejected(self):
        rng = np.random.default_rng(15)
        data = [random_interaction(rng, 10), random_interaction(rng, 12)]
        with pytest.raises(InvalidInputError):
            distance_matrix(data)

    def test_rejects_asymmetric_entries(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InvalidInputError):
            DistanceMatrix(bad)

    # entries in the fifth row block and in the fifth column block
    @pytest.mark.parametrize(
        "i, j", [(0, 4 * _BLOCK + 2), (4 * _BLOCK, 4 * _BLOCK + 2), (4 * _BLOCK + 2, 1)]
    )
    def test_symmetry_checked_across_row_blocks(self, i, j):
        # the check compares row blocks against column blocks; a mismatch
        # outside the first block, or in a block's far columns, still fails
        n = 4 * _BLOCK + 3
        entries = np.ones((n, n)) - np.eye(n)
        entries[i, j] = 1 + 5e-11  # within the 1e-10 bound
        assert DistanceMatrix(entries).n == n
        entries[i, j] = 1 + 2e-10
        with pytest.raises(InvalidInputError, match="symmetric"):
            DistanceMatrix(entries)

    def test_csv_round_trip_exact(self, tmp_path):
        mat = distance_matrix(self.build())
        path = tmp_path / "d.csv"
        write_matrix_csv(path, mat, meta={"k": 1})
        assert csv_entries(path).tobytes() == mat.entries.tobytes()

    def test_csv_bytes_match_per_field_format(self, tmp_path):
        # one format per job writes what `format(v, ".17g")` writes field by field
        entries = np.zeros((4, 4))
        entries[np.triu_indices(4, 1)] = [5e-324, 1e-300, 1 / 3, 1e16, 2.5, 7.0]
        mat = DistanceMatrix(entries + entries.T)
        path = tmp_path / "d.csv"
        write_matrix_csv(path, mat, meta={"k": 1})
        rows = (",".join(format(v, ".17g") for v in row) for row in mat.entries)
        assert path.read_text() == '# {"k": 1}\n4\n' + "".join(r + "\n" for r in rows)
        assert csv_entries(path).tobytes() == mat.entries.tobytes()

    @staticmethod
    def per_field_text(mat, meta):
        rows = (",".join(format(v, ".17g") for v in row) for row in mat.entries)
        return f"# {meta}\n{mat.n}\n" + "".join(r + "\n" for r in rows)

    @staticmethod
    def random_matrix(n):
        half = np.random.default_rng(n).exponential(size=(n, n))
        entries = np.triu(half, 1) + np.triu(half, 1).T
        return DistanceMatrix(entries)

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_csv_bytes_do_not_depend_on_processes(self, tmp_path, monkeypatch, forks, count):
        # jobs of 2 rows: 41 rows make 21 jobs, the last of them one row
        monkeypatch.setattr(procrustes, "_CSV_JOB", 100)
        cpus(monkeypatch, count)
        mat = self.random_matrix(41)
        write_matrix_csv(tmp_path / "d.csv", mat, meta={"k": 1})
        assert (tmp_path / "d.csv").read_text() == self.per_field_text(mat, '{"k": 1}')
        assert len(forks) == (count if count > 1 else 0)

    # from n=182 up a matrix is two _CSV_JOB jobs or more: this process
    # formats the first and one forked worker the second
    @pytest.mark.parametrize("n", [181, 182, 255, 256])
    def test_csv_rows_fork_from_the_gate_up(self, tmp_path, monkeypatch, forks, n):
        cpus(monkeypatch, 2)
        mat = self.random_matrix(n)
        write_matrix_csv(tmp_path / "d.csv", mat, meta={"k": 1})
        assert (tmp_path / "d.csv").read_text() == self.per_field_text(mat, '{"k": 1}')
        assert len(forks) == (1 if n >= 182 else 0)

    def test_binary_round_trip_bit_exact(self, tmp_path):
        mat = distance_matrix(self.build())
        path = tmp_path / "d.bin"
        write_matrix_binary(path, mat)
        back = read_matrix_binary(path)
        assert back.entries.tobytes() == mat.entries.tobytes()


class TestFrozenReference:
    """The complex kernel against the original per-pair SVD alignment."""

    T = 17

    def build(self):
        rng = np.random.default_rng(40)
        base = [random_interaction(rng, self.T) for _ in range(30)]
        swapped = [inter.swapped() for inter in base[:5]]
        moved = [
            rigid_copy(inter, random_rotation(rng), rng.uniform(-3, 3, 2)).swapped()
            for inter in base[5:9]
        ]
        point = np.tile([0.5, -1.5], (self.T, 1))
        grid = base[0].grid
        blob = Interaction(Trajectory(point, grid), Trajectory(point, grid))
        return base + swapped + moved + [blob]

    def reference(self, left, right):
        w = np.full(self.T, 1.0 / self.T)
        return np.array([[reference_distance(a, b, w) for b in right] for a in left])

    # Copies sit at distance 0, where only an absolute floor is meaningful; it
    # is far below every nonzero entry, which must agree to rel 1e-12.
    def check(self, got, ref):
        assert np.min(ref[ref > 1e-10]) > 1e-3
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-13)

    def test_matrix(self):
        data = self.build()
        assert len(data) == 40
        self.check(distance_matrix(data).entries, self.reference(data, data))

    def test_cross_matrix(self):
        data = self.build()
        left, right = data[::2], data[1::2]
        self.check(cross_distance_matrix(left, right), self.reference(left, right))

    def test_distance_with_alignment(self):
        data = self.build()
        ref = self.reference(data[:1] + data[30:], data)
        got = [
            [distance_with_alignment(a, b)[0] for b in data] for a in data[:1] + data[30:]
        ]
        self.check(np.array(got), ref)

    def test_near_identical_pair_keeps_its_distance(self):
        rng = np.random.default_rng(41)
        a = random_interaction(rng, 21)
        grid = a.grid
        noisy = Interaction(
            Trajectory(a.first.samples + 1e-9 * rng.normal(size=(21, 2)), grid),
            Trajectory(a.second.samples + 1e-9 * rng.normal(size=(21, 2)), grid),
        )
        b = rigid_copy(noisy, random_rotation(rng), rng.uniform(-2, 2, 2))
        ref = reference_distance(a, b, np.full(21, 1.0 / 21))
        assert 1e-10 < ref < 1e-8
        for got in (
            distance(a, b),
            distance_with_alignment(a, b)[0],
            distance_matrix([a, b]).entries[0, 1],
            cross_distance_matrix([a], [b])[0, 0],
        ):
            assert got == pytest.approx(ref, rel=1e-6)


class TestRowBlocks:
    """The blocked matrices against one kernel call over every row, byte for byte."""

    T = 9
    # each later index holds a rigid copy, perturbed by 1e-9, of the earlier
    # one: pairs inside one block and across each block edge, so the
    # near-identical recompute runs in diagonal and off-diagonal blocks
    NEAR = ((0, 1), (_BLOCK - 1, _BLOCK), (_BLOCK, _BLOCK + 1), (1, 2 * _BLOCK))

    def build(self, n):
        rng = np.random.default_rng(n)
        near = family_interaction("stationary-near", self.T)
        data = [near if i % 3 == 0 else random_interaction(rng, self.T) for i in range(n)]
        for src, dst in self.NEAR:
            if dst < n:
                noisy = Interaction(
                    *(
                        Trajectory(c.samples + 1e-9 * rng.normal(size=(self.T, 2)), c.grid)
                        for c in (data[src].first, data[src].second)
                    )
                )
                data[dst] = rigid_copy(noisy, random_rotation(rng), rng.uniform(-2, 2, 2))
        return data

    def unblocked(self, source, target):
        (zs, _, ns), (zt, _, nt) = _pack(source, target)
        (keep, _), (swap, _) = _both_orders(zs, ns, zt, nt)
        return np.sqrt(np.minimum(keep, swap))

    def check_matrix(self, data, threads):
        upper = np.triu(self.unblocked(data, data), 1)
        got = distance_matrix(data, workers=threads).entries
        assert got.tobytes() == (upper + upper.T).tobytes()
        w = np.full(self.T, 1.0 / self.T)
        for i, j in self.NEAR:
            if j < len(data):
                ref = reference_distance(data[i], data[j], w)
                assert 1e-11 < ref < 1e-7
                assert got[i, j] == pytest.approx(ref, rel=1e-6)

    # 256 is the size gate's n, and a whole number of blocks
    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 513])
    def test_matrix_matches_unblocked_upper_triangle(self, monkeypatch, pools, n):
        cpus(monkeypatch, 2)
        self.check_matrix(self.build(n), None)
        assert pools == ([2] if n * n >= procrustes._POOL_MIN_PAIRS else [])

    # with the size gate lowered, every matrix of two or more blocks takes the
    # thread pool
    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("n", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
    def test_blocks_on_threads_match_unblocked(self, monkeypatch, pools, n, threads):
        monkeypatch.setattr(procrustes, "_POOL_MIN_PAIRS", 1)
        self.check_matrix(self.build(n), threads)
        blocks = -(-n // _BLOCK)
        assert pools == ([min(threads, blocks)] if threads > 1 and blocks > 1 else [])

    def test_a_fork_map_worker_runs_the_blocks_itself(self, monkeypatch, pools):
        monkeypatch.setattr(procrustes, "_POOL_MIN_PAIRS", 1)
        monkeypatch.setattr(workers, "_in_worker", True)
        self.check_matrix(self.build(2 * _BLOCK + 1), 4)
        assert pools == []

    def test_cross_matrix_matches_one_kernel_call(self, monkeypatch, pools):
        monkeypatch.setattr(procrustes, "_POOL_MIN_PAIRS", 1)
        data = self.build(2 * _BLOCK + 3)
        left, right = data, data[_BLOCK - 3 : _BLOCK + 4]
        want = self.unblocked(left, right).tobytes()
        for count in (1, 2, 4):
            cpus(monkeypatch, count)
            pools.clear()
            got = cross_distance_matrix(left, right)
            assert got.shape == (2 * _BLOCK + 3, 7)
            assert got.tobytes() == want
            assert pools == ([min(count, 3)] if count > 1 else [])
