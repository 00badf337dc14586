import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import pairtraj
from pairtraj.clustering import ClusterModel, cluster_mds
from pairtraj.errors import InvalidInputError, NumericalError
from pairtraj.procrustes import distance, distance_matrix
from pairtraj.trajectory import Interaction, Trajectory
from pairtraj.transport import (
    _OWN_ASSIGNMENT_MAX,
    _assignment,
    DiscreteMeasure,
    empirical_measure,
    ground_cost,
    model_measure,
    wasserstein,
)

from oracles import dense_transport_lp, enumerate_uniform_wasserstein, planted, random_interaction


def atoms(seed, count, T=9):
    rng = np.random.default_rng(seed)
    return tuple(random_interaction(rng, T) for _ in range(count))


def random_measure(seed, count, T=9):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(count))
    return DiscreteMeasure(atoms(seed + 1000, count, T), weights)


class TestDiscreteMeasure:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidInputError, match="sum"):
            DiscreteMeasure(atoms(0, 2), np.array([0.5, 0.4]))

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(InvalidInputError, match="nonnegative"):
            DiscreteMeasure(atoms(1, 2), np.array([1.5, -0.5]))

    def test_lengths_must_match(self):
        with pytest.raises(InvalidInputError, match="weights"):
            DiscreteMeasure(atoms(2, 3), np.array([0.5, 0.5]))

    def test_no_atoms_rejected(self):
        with pytest.raises(InvalidInputError, match="atom"):
            DiscreteMeasure((), np.array([]))

    def test_weights_frozen(self):
        measure = DiscreteMeasure(atoms(3, 2), np.array([0.25, 0.75]))
        with pytest.raises(ValueError):
            measure.weights[0] = 1.0


class TestConstructors:
    def test_empirical_single(self):
        measure = empirical_measure(list(atoms(4, 1)))
        assert measure.weights.tolist() == [1.0]

    def test_empirical_quarter_weights(self):
        measure = empirical_measure(list(atoms(5, 4)))
        assert measure.weights.tolist() == [0.25] * 4

    def test_empirical_sum_near_one(self):
        measure = empirical_measure(list(atoms(6, 7)))
        assert abs(measure.weights.sum() - 1.0) <= 1e-12

    def test_empirical_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            empirical_measure([])

    def test_model_measure_proportions(self):
        reps = atoms(7, 3)
        model = ClusterModel(
            "geo2", 3, 0, [0] * 7 + [1] * 2 + [2], reps, 0.0
        )
        measure = model_measure(model)
        assert measure.weights.tolist() == [0.7, 0.2, 0.1]
        assert measure.atoms == reps


class TestWasserstein:
    def test_identical_measures_vanish(self):
        F = random_measure(9, 3)
        assert wasserstein(F, F) <= 1e-10

    def test_single_atom_equals_metric_for_any_order(self):
        a, b = atoms(10, 2, T=13)
        F = DiscreteMeasure((a,), np.array([1.0]))
        G = DiscreteMeasure((b,), np.array([1.0]))
        d = distance(a, b)
        for r in (1.0, 2.0, 4.0):
            assert wasserstein(F, G, r) == pytest.approx(d, abs=1e-12)

    def test_uniform_three_atoms_match_enumeration(self):
        for seed in (11, 12, 13):
            F = DiscreteMeasure(atoms(seed, 3), np.full(3, 1 / 3))
            G = DiscreteMeasure(atoms(seed + 50, 3), np.full(3, 1 / 3))
            dists = np.array(
                [[distance(a, b) for b in G.atoms] for a in F.atoms]
            )
            for r in (1.0, 2.0):
                oracle = enumerate_uniform_wasserstein(dists, r)
                assert wasserstein(F, G, r) == pytest.approx(oracle, abs=1e-9)

    def test_uniform_equal_size_assignment_matches_enumeration(self):
        # uniform measures of equal size are solved as an assignment problem:
        # enumeration bounds the small sizes, and at every size, on both
        # sides of the size gate, scipy's solver gives the same permutation,
        # so the value has the same bits
        for m in (1, 2, 3, 6, 17, 150, _OWN_ASSIGNMENT_MAX, _OWN_ASSIGNMENT_MAX + 1):
            F = empirical_measure(list(atoms(m, m)))
            G = empirical_measure(list(atoms(m + 50, m)))
            random_cost = np.random.default_rng(m).random((m, m))
            assert np.array_equal(_assignment(random_cost), linear_sum_assignment(random_cost)[1])
            # a solve at the largest sizes takes 0.2-0.3 s
            for r in (1.0, 2.0, 3.0) if m <= 150 else (2.0,):
                cost = ground_cost(F, G, r)
                rows, cols = linear_sum_assignment(cost)
                assert np.array_equal(_assignment(cost), cols)
                assert wasserstein(F, G, r) == float((cost[rows, cols].sum() / m) ** (1 / r))
                if m <= 6:
                    dists = np.array([[distance(a, b) for b in G.atoms] for a in F.atoms])
                    oracle = enumerate_uniform_wasserstein(dists, r)
                    assert wasserstein(F, G, r) == pytest.approx(oracle, rel=1e-12)

    def test_symmetry_and_triangle(self):
        F = random_measure(14, 2)
        G = random_measure(15, 3)
        H = random_measure(16, 2)
        for r in (1.0, 2.0):
            fg, gf = wasserstein(F, G, r), wasserstein(G, F, r)
            assert abs(fg - gf) <= 1e-9
            fh = wasserstein(F, H, r)
            gh = wasserstein(G, H, r)
            assert fh <= fg + gh + 1e-8

    def test_model_vs_empirical_bounded_by_objective(self):
        data, _ = planted(np.random.default_rng(17), per_family=4)
        D = distance_matrix(data)
        model = cluster_mds(data, D, beta=3, k=3, seed=0)
        w2 = wasserstein(model_measure(model), empirical_measure(data), r=2.0)
        assert w2**2 <= model.objective / len(data) + 1e-8

    def test_order_below_one_rejected(self):
        F = random_measure(18, 2)
        with pytest.raises(InvalidInputError, match="order"):
            wasserstein(F, F, r=0.5)

    def test_ground_cost_powers_distances(self):
        F, G = random_measure(19, 2), random_measure(20, 2)
        cost = ground_cost(F, G, 2.0)
        for i, a in enumerate(F.atoms):
            for j, b in enumerate(G.atoms):
                assert cost[i, j] == pytest.approx(distance(a, b) ** 2, rel=1e-12)

    @pytest.mark.parametrize("uniform", [True, False])
    def test_overflowing_ground_cost_raises_before_a_solver(self, uniform):
        # distances near 1e150 to the power 3.5 overflow a double
        def scaled(measure):
            huge = [
                Interaction(*(Trajectory(c.samples * 1e150, c.grid) for c in (a.first, a.second)))
                for a in measure.atoms
            ]
            return DiscreteMeasure(tuple(huge), measure.weights)

        F = scaled(empirical_measure(list(atoms(33, 4))) if uniform else random_measure(33, 4))
        G = scaled(empirical_measure(list(atoms(34, 4))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for solve in (lambda: ground_cost(F, G, 3.5), lambda: wasserstein(F, G, 3.5)):
                with pytest.raises(NumericalError, match="not finite"):
                    solve()
            assert np.isfinite(ground_cost(F, G, 2.0)).all()

    @pytest.mark.parametrize("m", [150, 3])
    def test_lp_matches_dense_reference(self, m):
        F = random_measure(31, m)
        G = empirical_measure(list(atoms(32, 149)))
        cost = ground_cost(F, G, 2.0)
        reference = dense_transport_lp(cost, F.weights, G.weights) ** 0.5
        assert wasserstein(F, G, 2.0) == pytest.approx(reference, rel=1e-12)

    def test_large_unequal_uniform_lp_fits_in_memory(self):
        # a dense equality matrix alone is (m + n) * m * n * 8 bytes = 1.02 GB here
        script = (
            "import resource\n"
            "import numpy as np\n"
            "from pairtraj.trajectory import Interaction, Trajectory\n"
            "from pairtraj.transport import empirical_measure, wasserstein\n"
            "rng = np.random.default_rng(0)\n"
            "grid = np.linspace(0.0, 1.0, 5)\n"
            "def sample(count):\n"
            "    return empirical_measure([Interaction(Trajectory(rng.normal(size=(5, 2)), grid),"
            " Trajectory(rng.normal(size=(5, 2)), grid)) for _ in range(count)])\n"
            "print(wasserstein(sample(400), sample(399)))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        src = os.path.dirname(os.path.dirname(pairtraj.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            check=True, timeout=300,
        )
        value, peak_kib = done.stdout.split()
        assert float(value) > 0
        assert int(peak_kib) < 1024 * 1024  # ru_maxrss is in KiB on Linux


class _RowReads(np.ndarray):
    """A cost matrix that counts its reads: `_assignment` reads one row of
    it per scan."""

    reads = 0

    def __getitem__(self, key):
        _RowReads.reads += 1
        return np.asarray(super().__getitem__(key))


class TestAssignment:
    @pytest.mark.parametrize(
        "cost",
        [
            np.ones((150, 150)),
            np.random.default_rng(40).integers(0, 3, (150, 150)).astype(float),
            np.repeat(np.random.default_rng(41).integers(0, 3, (30, 150)), 5, axis=0) * 1.0,
            np.repeat(np.random.default_rng(42).random((30, 150)), 5, axis=0),
        ],
        ids=["all-equal", "integers-0-2", "duplicated-integer-rows", "duplicated-rows"],
    )
    def test_ties_give_a_permutation_of_least_cost(self, cost):
        cols = _assignment(cost)
        assert sorted(cols.tolist()) == list(range(len(cost)))
        rows = np.arange(len(cost))
        best = cost[linear_sum_assignment(cost)].sum()
        if np.array_equal(cost, np.round(cost)):
            assert cost[rows, cols].sum() == best
        else:
            assert cost[rows, cols].sum() == pytest.approx(best, rel=1e-12)

    def test_all_equal_costs_take_one_scan_per_row(self):
        # the tie rule ends each path at its first scan; without it an
        # all-equal matrix takes O(n^3) scans
        cost = np.ones((150, 150)).view(_RowReads)
        _RowReads.reads = 0
        _assignment(cost)
        assert _RowReads.reads == 150

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cost_raises(self, bad):
        cost = np.ones((3, 3))
        cost[1, 2] = bad
        with pytest.raises(NumericalError, match="NaN or infinite"):
            _assignment(cost)
