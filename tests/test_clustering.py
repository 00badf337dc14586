import itertools
import json
import logging

import numpy as np
import pytest

from pairtraj.clustering import (
    ClusterModel,
    _cubic_features,
    _kmeans,
    _repair_empty,
    _snap_to_points,
    align_to_anchor,
    cluster_geo1,
    cluster_geo2,
    cluster_mds,
    cluster_spline_coef,
    fit,
    read_model_json,
    write_model_json,
)
from pairtraj import mds
from pairtraj.errors import InvalidInputError
from pairtraj.procrustes import distance, distance_matrix
from pairtraj.trajectory import Interaction, Trajectory

from oracles import (
    match_rate,
    normal_equation_cubic,
    planted,
    random_interaction,
    random_rotation,
    rho_sq,
    rigid_copy,
    stack_rows,
)


class TestModel:
    def make(self, n=4):
        rng = np.random.default_rng(0)
        return [random_interaction(rng, 7) for _ in range(n)]

    def test_rejects_unknown_method(self):
        data = self.make()
        with pytest.raises(InvalidInputError, match="method"):
            ClusterModel("pam", 2, 0, [0, 1, 0, 1], tuple(data[:2]), 1.0)

    def test_rejects_out_of_range_assignment(self):
        data = self.make()
        with pytest.raises(InvalidInputError, match=r"\[0, k\)"):
            ClusterModel("mds", 2, 0, [0, 2, 0, 1], tuple(data[:2]), 1.0)

    def test_rejects_wrong_representative_count(self):
        data = self.make()
        with pytest.raises(InvalidInputError, match="representatives"):
            ClusterModel("mds", 2, 0, [0, 1, 0, 1], tuple(data[:3]), 1.0)

    def test_rejects_negative_objective(self):
        data = self.make()
        with pytest.raises(InvalidInputError, match="objective"):
            ClusterModel("mds", 2, 0, [0, 1, 0, 1], tuple(data[:2]), -1.0)

    def test_cluster_sizes(self):
        data = self.make()
        model = ClusterModel("geo2", 2, 0, [0, 1, 0, 0], tuple(data[:2]), 1.0)
        assert model.n == 4
        assert model.cluster_sizes().tolist() == [3, 1]


class TestKmeansCore:
    def blobs(self, seed=0, per=10, spread=0.05):
        rng = np.random.default_rng(seed)
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        X = np.concatenate([c + rng.normal(0, spread, (per, 2)) for c in centers])
        truth = np.repeat(np.arange(3), per)
        return X, truth

    def test_recovers_planted_blobs(self):
        X, truth = self.blobs()
        labels, centers, history = _kmeans(X, 3, seed=1, n_init=8, max_iter=300)
        assert match_rate(labels, truth, 3) == 1.0

    def test_history_non_increasing(self):
        X, _ = self.blobs(seed=3)
        _, _, history = _kmeans(X, 3, seed=1, n_init=8, max_iter=300)
        diffs = np.diff(history)
        assert np.all(diffs <= 1e-9)

    def test_deterministic(self):
        X, _ = self.blobs(seed=5)
        a = _kmeans(X, 3, seed=7, n_init=8, max_iter=300)
        b = _kmeans(X, 3, seed=7, n_init=8, max_iter=300)
        assert np.array_equal(a[0], b[0])
        assert a[1].tobytes() == b[1].tobytes()

    def test_no_empty_clusters_with_duplicates(self):
        X = np.zeros((6, 2))
        X[5] = [1.0, 0.0]
        labels, _, _ = _kmeans(X, 4, seed=0, n_init=4, max_iter=50)
        assert len(np.unique(labels)) == 4

    def test_repair_never_takes_a_clusters_only_member(self):
        # point 3 is farthest but alone in cluster 1; taking it would empty 1
        labels = np.array([0, 0, 0, 1])
        _repair_empty(labels, np.array([0.1, 0.2, 0.3, 5.0]), 3)
        assert labels.tolist() == [0, 0, 2, 1]
        # after the first refill cluster 0 keeps point 1 alone, so the second
        # refill passes over it although it is farther than point 4
        labels = np.array([0, 0, 1, 1, 1])
        _repair_empty(labels, np.array([9.0, 8.0, 2.0, 3.0, 4.0]), 4)
        assert labels.tolist() == [2, 0, 1, 1, 3]

    def test_k_bounds(self):
        X = np.zeros((3, 2))
        with pytest.raises(InvalidInputError, match="k must lie"):
            _kmeans(X, 4, seed=0, n_init=1, max_iter=10)
        with pytest.raises(InvalidInputError, match="k must lie"):
            _kmeans(X, 0, seed=0, n_init=1, max_iter=10)

    def test_snap_is_distinct_under_collisions(self):
        X = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
        centers = np.zeros((2, 2))  # both centroids nearest to point 0
        picks = _snap_to_points(centers, X)
        assert sorted(picks) == [0, 1]


class TestClusterMds:
    def test_matches_exhaustive_medoid_search(self):
        data, _ = planted(np.random.default_rng(0), per_family=4)
        D = distance_matrix(data)
        model = cluster_mds(data, D, beta=4, k=3, seed=0)
        best = min(
            float((D.entries[:, trip].min(axis=1) ** 2).sum())
            for trip in itertools.combinations(range(12), 3)
        )
        assert abs(model.objective - best) <= 1e-9

    def test_assignments_follow_matrix_columns(self):
        data, _ = planted(np.random.default_rng(1), per_family=4)
        D = distance_matrix(data)
        model = cluster_mds(data, D, beta=3, k=3, seed=2)
        medoids = [next(i for i, x in enumerate(data) if x is rep)
                   for rep in model.representatives]
        cols = D.entries[:, medoids]
        assert np.array_equal(model.assignments, cols.argmin(axis=1))
        assert model.objective == pytest.approx(float((cols.min(axis=1) ** 2).sum()), abs=1e-12)

    def test_k_equals_n(self):
        data, _ = planted(np.random.default_rng(2), per_family=2)
        D = distance_matrix(data)
        model = cluster_mds(data, D, beta=3, k=6, seed=0)
        assert model.objective <= 1e-12
        assert sorted(id(r) for r in model.representatives) == sorted(id(x) for x in data)

    def test_rigid_copy_groups_separate_exactly(self):
        rng = np.random.default_rng(3)
        a = random_interaction(rng, 15)
        b = random_interaction(rng, 15, scale=4.0)
        data = [
            rigid_copy(x, random_rotation(rng), rng.uniform(-9, 9, 2))
            for x in [a] * 4 + [b] * 4
        ]
        D = distance_matrix(data)
        model = cluster_mds(data, D, beta=2, k=2, seed=1)
        assert model.objective <= 1e-12
        assert match_rate(model.assignments, np.repeat([0, 1], 4), 2) == 1.0

    def test_size_mismatch_rejected(self):
        data, _ = planted(np.random.default_rng(4), per_family=2)
        D = distance_matrix(data[:5])
        with pytest.raises(InvalidInputError, match="matrix"):
            cluster_mds(data, D, beta=2, k=2, seed=0)

    def test_k_above_n_rejected(self):
        data, _ = planted(np.random.default_rng(5), per_family=1)
        D = distance_matrix(data)
        with pytest.raises(InvalidInputError, match="k must lie"):
            cluster_mds(data, D, beta=2, k=4, seed=0)


    # 10**30 restarts overflow `Generator.spawn`'s C long
    @pytest.mark.parametrize("k, n_init", [(7, 1), (2, 0), (2, 10**30)])
    def test_bad_parameters_rejected_before_embedding(self, k, n_init):
        data, _ = planted(np.random.default_rng(5), per_family=2)
        D = distance_matrix(data)
        calls = []

        def counting_embed(matrix, beta, seed):
            calls.append(beta)
            return mds.embed(matrix, beta, seed)

        with pytest.raises(InvalidInputError):
            cluster_mds(data, D, beta=2, k=k, seed=0, n_init=n_init, embed=counting_embed)
        assert calls == []


class TestFit:
    def test_each_route_matches_its_direct_call(self):
        data, _ = planted(np.random.default_rng(22), per_family=3)
        D = distance_matrix(data)
        for method, direct, kwargs in [
            ("mds", cluster_mds(data, D, beta=2, k=3, seed=1, n_init=2), {"beta": 2}),
            ("geo1", cluster_geo1(data, k=3, seed=1, anchor=2, n_init=2), {"anchor": 2}),
            ("geo2", cluster_geo2(data, k=3, seed=1, n_init=2), {}),
            ("spline-coef", cluster_spline_coef(data, k=3, seed=1, n_init=2), {}),
        ]:
            model = fit(method, data, D, seed=1, k=3, n_init=2, **kwargs)
            assert model.method == method
            assert np.array_equal(model.assignments, direct.assignments)
            assert model.objective == direct.objective

    @pytest.mark.parametrize("method", ["geo1", "geo2", "spline-coef"])
    def test_restarts_beyond_spawn_rejected(self, method):
        data, _ = planted(np.random.default_rng(23), per_family=2)
        with pytest.raises(InvalidInputError, match="n_init must be at most"):
            fit(method, data, k=2, n_init=10**30)

    @pytest.mark.parametrize("method, kwargs", [
        ("mds", {"beta": 2}), ("geo1", {}), ("geo2", {}), ("spline-coef", {}),
    ], ids=["mds", "geo1", "geo2", "spline-coef"])
    def test_each_restart_spawns_its_own_child_when_it_starts(self, monkeypatch, method, kwargs):
        # no list of every restart's generator up front, so n_init bounds
        # only the work, never the memory
        data, _ = planted(np.random.default_rng(24), per_family=3)
        D = distance_matrix(data)
        expected = fit(method, data, D, seed=2, k=3, n_init=5, **kwargs)
        asked, default_rng = [], np.random.default_rng

        class Recording:
            def __init__(self, rng):
                self._rng = rng

            def __getattr__(self, attr):
                return getattr(self._rng, attr)

            def spawn(self, n_children):
                asked.append(n_children)
                return self._rng.spawn(n_children)

        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: Recording(default_rng(seed)))
        model = fit(method, data, D, seed=2, k=3, n_init=5, **kwargs)
        assert asked == [1] * 5
        assert np.array_equal(model.assignments, expected.assignments)
        assert model.objective_history == expected.objective_history

    def test_unknown_method_rejected(self):
        data, _ = planted(np.random.default_rng(23), per_family=2)
        with pytest.raises(InvalidInputError, match="unknown method"):
            fit("pam", data, k=2)

    def test_mds_without_matrix_rejected(self):
        data, _ = planted(np.random.default_rng(23), per_family=2)
        with pytest.raises(InvalidInputError, match="distance matrix"):
            fit("mds", data, beta=2, k=2)


class TestClusterGeo1:
    def test_matches_direct_kmeans_on_aligned_coordinates(self):
        data, truth = planted(np.random.default_rng(6), per_family=5)
        model = cluster_geo1(data, k=3, seed=5)
        aligned = align_to_anchor(data)
        X = np.stack([stack_rows(inter).ravel() for inter in aligned])
        direct, _, _ = _kmeans(X, 3, seed=5, n_init=8, max_iter=300)
        assert np.array_equal(model.assignments, direct)
        assert match_rate(model.assignments, truth, 3) == 1.0
        assert np.all(np.diff(model.objective_history) <= 1e-9)

    def test_rigid_copies_collapse(self):
        rng = np.random.default_rng(7)
        base = random_interaction(rng, 11)
        data = [
            rigid_copy(base, random_rotation(rng), rng.uniform(-9, 9, 2))
            for _ in range(6)
        ]
        for k in (1, 2):
            model = cluster_geo1(data, k=k, seed=0)
            assert model.objective <= 1e-10

    def test_k1_centroid_is_aligned_mean(self):
        data, _ = planted(np.random.default_rng(8), per_family=2)
        model = cluster_geo1(data, k=1, seed=0)
        aligned = align_to_anchor(data)
        mean_rows = np.mean([stack_rows(a) for a in aligned], axis=0)
        assert np.allclose(stack_rows(model.representatives[0]), mean_rows, atol=1e-10)
        assert np.array_equal(model.representatives[0].grid, data[0].grid)

    def test_objective_equals_weighted_wcss(self):
        data, _ = planted(np.random.default_rng(9), per_family=3)
        T = len(data[0])
        model = cluster_geo1(data, k=3, seed=1)
        aligned = align_to_anchor(data)
        total = 0.0
        for i, inter in enumerate(aligned):
            rep = model.representatives[model.assignments[i]]
            total += rho_sq(inter, rep, np.full(T, 1.0 / T))
        assert model.objective == pytest.approx(total, rel=1e-10)

    def test_aligned_distance_upper_bounds_metric(self):
        rng = np.random.default_rng(10)
        data = [random_interaction(rng, 13) for _ in range(8)]
        aligned = align_to_anchor(data)
        for i in range(len(data)):
            for j in range(i + 1, len(data)):
                upper = np.sqrt(rho_sq(aligned[i], aligned[j], np.full(13, 1.0 / 13)))
                assert upper >= distance(data[i], data[j]) - 1e-8

    def test_anchor_out_of_range(self):
        data, _ = planted(np.random.default_rng(11), per_family=1)
        with pytest.raises(InvalidInputError, match="anchor"):
            cluster_geo1(data, k=2, seed=0, anchor=3)


class TestClusterGeo2:
    def test_planted_recovery_and_monotone_history(self, caplog):
        data, truth = planted(np.random.default_rng(12), per_family=5)
        with caplog.at_level(logging.WARNING, logger="pairtraj.clustering"):
            model = cluster_geo2(data, k=3, seed=0)
        assert match_rate(model.assignments, truth, 3) >= 0.95
        assert np.all(np.diff(model.objective_history) <= 1e-9)
        assert caplog.records == []  # every restart converged

    def test_identical_inputs_zero_objective(self):
        rng = np.random.default_rng(13)
        base = random_interaction(rng, 9)
        data = [base] * 8
        model = cluster_geo2(data, k=3, seed=4)
        assert model.objective <= 1e-12

    def test_k1_converges_in_one_pass(self):
        data, _ = planted(np.random.default_rng(14), per_family=2)
        model = cluster_geo2(data, k=1, seed=0)
        assert len(model.objective_history) == 1
        aligned = align_to_anchor(data)
        mean_rows = np.mean([stack_rows(a) for a in aligned], axis=0)
        assert np.allclose(stack_rows(model.representatives[0]), mean_rows, atol=1e-10)

    def test_objective_is_realized_distance_sum(self):
        data, _ = planted(np.random.default_rng(15), per_family=3)
        model = cluster_geo2(data, k=3, seed=1)
        total = 0.0
        for i, inter in enumerate(data):
            rep = model.representatives[model.assignments[i]]
            total += distance(rep, inter) ** 2
        # distance() also minimizes over the pair swap, so it lower-bounds the
        # no-swap objective; on planted data the swap never wins
        assert model.objective == pytest.approx(total, rel=1e-8)

    def test_deterministic(self):
        data, _ = planted(np.random.default_rng(16), per_family=3)
        a = cluster_geo2(data, k=3, seed=9)
        b = cluster_geo2(data, k=3, seed=9)
        assert np.array_equal(a.assignments, b.assignments)
        for ra, rb in zip(a.representatives, b.representatives):
            assert stack_rows(ra).tobytes() == stack_rows(rb).tobytes()

    def test_emptied_cluster_refill_keeps_every_cluster(self):
        # three tight families and k=4: a refill used to empty a singleton
        data, _ = planted(np.random.default_rng(1), per_family=4)
        model = cluster_geo2(data, k=4, n_init=4, seed=0)
        assert sorted(set(model.assignments.tolist())) == [0, 1, 2, 3]
        assert np.isfinite(model.objective)

    def test_k_above_n_rejected(self):
        data, _ = planted(np.random.default_rng(17), per_family=1)
        with pytest.raises(InvalidInputError, match="k must lie"):
            cluster_geo2(data, k=4, seed=0)

    @pytest.mark.parametrize(
        "route, params",
        [
            (cluster_geo2, {"k": 2.5}),
            (cluster_geo2, {"max_iter": 3.5}),
            (cluster_geo2, {"n_init": 2.5}),
            (cluster_geo2, {"k": 2.0}),
            (cluster_geo1, {"anchor": 0.5}),
            (cluster_geo1, {"n_init": 1.5}),
            (cluster_spline_coef, {"k": 2.5}),
        ],
    )
    def test_fractional_integer_parameters_rejected(self, route, params):
        data, _ = planted(np.random.default_rng(17), per_family=2)
        with pytest.raises(InvalidInputError, match="must be an integer"):
            route(data, **{"k": 2, "seed": 0, **params})

    def test_numpy_integer_parameters_accepted(self):
        data, _ = planted(np.random.default_rng(17), per_family=2)
        a = cluster_geo1(data, k=np.int64(2), seed=0, anchor=np.int32(1), n_init=np.int64(2))
        b = cluster_geo1(data, k=2, seed=0, anchor=1, n_init=2)
        assert np.array_equal(a.assignments, b.assignments)

    def test_capped_restarts_logged_once(self, caplog):
        data, _ = planted(np.random.default_rng(12), per_family=5)
        with caplog.at_level(logging.WARNING, logger="pairtraj.clustering"):
            cluster_geo2(data, k=3, seed=0, n_init=3, max_iter=1)
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert "restart(s) [0, 1, 2] of 3 stopped at the 1-iteration cap" in record.getMessage()


@pytest.mark.parametrize(
    "method, name, params",
    [
        ("mds", "cluster_mds", {"beta": 2}),
        ("geo1", "cluster_geo1", {}),
        ("spline-coef", "cluster_spline_coef", {}),
    ],
)
class TestKmeansCapWarning:
    def cap_records(self, caplog, method, params):
        data, _ = planted(np.random.default_rng(12), per_family=5)
        matrix = distance_matrix(data) if method == "mds" else None
        with caplog.at_level(logging.WARNING, logger="pairtraj.clustering"):
            fit(method, data, matrix, seed=0, k=3, **params)
        return [r for r in caplog.records if r.name == "pairtraj.clustering"]

    def test_capped_restarts_logged_once(self, caplog, method, name, params):
        [record] = self.cap_records(caplog, method, {**params, "n_init": 3, "max_iter": 1})
        assert record.levelno == logging.WARNING
        assert record.getMessage() == (
            f"{name}: restart(s) [0, 1, 2] of 3 stopped at the 1-iteration cap"
        )

    def test_silent_when_restarts_converge(self, caplog, method, name, params):
        assert self.cap_records(caplog, method, params) == []


class TestRigidEquivariance:
    def test_assignments_survive_global_rigid_motion(self):
        rng = np.random.default_rng(18)
        data, _ = planted(rng, per_family=4)
        rot = random_rotation(rng)
        shift = rng.uniform(-30.0, 30.0, size=2)
        moved = []
        for inter in data:
            curves = [inter.first.samples @ rot.T + shift,
                      inter.second.samples @ rot.T + shift]
            moved.append(
                Interaction(Trajectory(curves[0], inter.grid), Trajectory(curves[1], inter.grid))
            )
        D, Dm = distance_matrix(data), distance_matrix(moved)
        assert np.array_equal(
            cluster_mds(data, D, beta=3, k=3, seed=0).assignments,
            cluster_mds(moved, Dm, beta=3, k=3, seed=0).assignments,
        )
        assert np.array_equal(
            cluster_geo1(data, k=3, seed=0).assignments,
            cluster_geo1(moved, k=3, seed=0).assignments,
        )
        assert np.array_equal(
            cluster_geo2(data, k=3, seed=0).assignments,
            cluster_geo2(moved, k=3, seed=0).assignments,
        )


class TestSplineCoef:
    def cubic_interaction(self, coef, T=21, grid_span=(3.0, 9.0)):
        """coef is (4 series, 4 coefficients) in normalized time."""
        grid = np.linspace(*grid_span, T)
        t = (grid - grid[0]) / (grid[-1] - grid[0])
        design = np.vander(t, 4, increasing=True)
        series = design @ np.asarray(coef).T  # (T, 4): x1 y1 x2 y2
        return Interaction(
            Trajectory(series[:, :2], grid), Trajectory(series[:, 2:], grid)
        )

    def test_features_recover_generating_coefficients(self):
        rng = np.random.default_rng(19)
        coef = rng.normal(size=(4, 4))
        inter = self.cubic_interaction(coef)
        feats = _cubic_features(inter)
        assert np.allclose(feats, coef.ravel(), atol=1e-8)

    def test_features_match_normal_equations(self):
        rng = np.random.default_rng(20)
        inter = random_interaction(rng, 17)
        feats = _cubic_features(inter).reshape(4, 4)
        grid = inter.grid
        t = (grid - grid[0]) / (grid[-1] - grid[0])
        series = np.column_stack([inter.first.samples, inter.second.samples])
        for s in range(4):
            oracle_coef, _ = normal_equation_cubic(t, series[:, s])
            assert np.allclose(feats[s], oracle_coef, atol=1e-8)

    def test_two_coefficient_groups_separate(self):
        rng = np.random.default_rng(21)
        ca, cb = rng.normal(size=(4, 4)), rng.normal(size=(4, 4)) + 8.0
        data, truth = [], []
        for base, label in ((ca, 0), (cb, 1)):
            for _ in range(5):
                data.append(self.cubic_interaction(base + rng.normal(0, 0.01, (4, 4))))
                truth.append(label)
        model = cluster_spline_coef(data, k=2, seed=0)
        assert match_rate(model.assignments, np.array(truth), 2) == 1.0
        assert all(any(rep is x for x in data) for rep in model.representatives)

    def test_k_equals_n_zero_objective(self):
        rng = np.random.default_rng(22)
        data = [random_interaction(rng, 12) for _ in range(5)]
        model = cluster_spline_coef(data, k=5, seed=0)
        assert model.objective <= 1e-12

    def test_short_grid_rejected(self):
        rng = np.random.default_rng(23)
        data = [random_interaction(rng, 3) for _ in range(4)]
        with pytest.raises(InvalidInputError, match="at least 4"):
            cluster_spline_coef(data, k=2, seed=0)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        data, _ = planted(np.random.default_rng(24), per_family=2)
        model = cluster_geo2(data, k=2, seed=3)
        path = tmp_path / "model.json"
        write_model_json(path, model, meta={"tool": "test"})
        loaded = read_model_json(path)
        assert loaded.method == model.method
        assert loaded.k == model.k and loaded.seed == model.seed
        assert loaded.objective == model.objective
        assert np.array_equal(loaded.assignments, model.assignments)
        for ra, rb in zip(loaded.representatives, model.representatives):
            assert np.array_equal(stack_rows(ra), stack_rows(rb))
            assert np.array_equal(ra.grid, rb.grid)
        payload = json.loads(path.read_text())
        assert payload["meta"] == {"tool": "test"}

    def test_read_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"method": "mds", "k": 2}')
        from pairtraj.errors import DataError

        with pytest.raises(DataError, match="malformed"):
            read_model_json(path)
