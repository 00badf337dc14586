import json
import logging
import os
from dataclasses import fields

import numpy as np
import pytest

from pairtraj import mds
from pairtraj.artifacts import read_json, rows
from pairtraj.clustering import ClusterModel, cluster_geo2, cluster_mds
from pairtraj.errors import InvalidInputError
from pairtraj.evaluation import (
    SILHOUETTE_HEADER,
    STABILITY_HEADER,
    QualityReport,
    StabilityGrid,
    quality,
    silhouette,
    stability_statistic,
    stability_sweep,
    transfer_primitives,
    write_quality_json,
    write_silhouette_csv,
    write_stability_csv,
)
from pairtraj.procrustes import DistanceMatrix, distance, distance_matrix
from pairtraj.trajectory import Interaction, Trajectory

from oracles import family_curves, match_rate, planted, random_interaction

# 6-point case worked by hand before coding: within-A distances
# d(0,1)=1, d(0,2)=3, d(1,2)=2; within-B d(3,4)=2, d(3,5)=2, d(4,5)=4;
# every cross distance 8.  a = (2, 1.5, 2.5, 2, 3, 3), b = 8 each, so
# s = (b - a)/8 exactly:
HAND_SILHOUETTES = [0.75, 0.8125, 0.6875, 0.75, 0.625, 0.625]


def hand_matrix():
    D = np.full((6, 6), 8.0)
    D[:3, :3] = [[0, 1, 3], [1, 0, 2], [3, 2, 0]]
    D[3:, 3:] = [[0, 2, 2], [2, 0, 4], [2, 4, 0]]
    return DistanceMatrix(D)


def euclidean_matrix(points):
    diff = points[:, None, :] - points[None, :, :]
    return DistanceMatrix(np.sqrt((diff**2).sum(axis=2)))


class TestSilhouette:
    def test_hand_computed_case(self):
        scores = silhouette(hand_matrix(), [0, 0, 0, 1, 1, 1])
        assert scores.tolist() == HAND_SILHOUETTES

    def test_zero_diameter_separated_clusters_score_one(self):
        D = np.full((6, 6), 5.0)
        D[:3, :3] = 0.0
        D[3:, 3:] = 0.0
        scores = silhouette(DistanceMatrix(D), [0, 0, 0, 1, 1, 1])
        assert scores.tolist() == [1.0] * 6

    def test_equidistant_point_scores_zero(self):
        D = np.full((4, 4), 2.0)
        np.fill_diagonal(D, 0.0)
        scores = silhouette(DistanceMatrix(D), [0, 0, 1, 1])
        assert scores.tolist() == [0.0] * 4

    def test_all_zero_matrix_scores_zero(self):
        scores = silhouette(DistanceMatrix(np.zeros((4, 4))), [0, 0, 1, 1])
        assert scores.tolist() == [0.0] * 4

    def test_singleton_scores_zero(self):
        scores = silhouette(hand_matrix(), [0, 1, 1, 1, 1, 1])
        assert scores[0] == 0.0
        assert np.all(np.abs(scores[1:]) <= 1.0)

    def test_bounds_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            data = [random_interaction(rng, 9) for _ in range(10)]
            D = distance_matrix(data)
            z = rng.integers(0, 3, size=10)
            if len(np.unique(z)) < 2:
                continue
            scores = silhouette(D, z)
            assert np.all(scores >= -1.0) and np.all(scores <= 1.0)

    def test_single_cluster_rejected(self):
        with pytest.raises(InvalidInputError, match="2 nonempty"):
            silhouette(hand_matrix(), [0] * 6)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError, match="assignments"):
            silhouette(hand_matrix(), [0, 0, 1])


class TestQuality:
    def test_identical_points_zero_within(self):
        rng = np.random.default_rng(1)
        base = random_interaction(rng, 9)
        data = [base] * 4
        model = ClusterModel("geo2", 2, 0, [0, 0, 1, 1], (base, base), 0.0)
        report = quality(data, model, distance_matrix(data))
        assert report.total_within <= 1e-12
        assert np.all(report.per_cluster_within <= 1e-12)
        assert report.silhouettes.tolist() == [0.0] * 4

    def test_k_equals_n_medoid_model(self):
        data, _ = planted(np.random.default_rng(2), per_family=2)
        D = distance_matrix(data)
        model = cluster_mds(data, D, beta=3, k=6, seed=0)
        report = quality(data, model, D)
        assert report.total_within <= 1e-12

    def test_total_within_matches_matrix_column_minima(self):
        data, _ = planted(np.random.default_rng(3), per_family=4)
        D = distance_matrix(data)
        model = cluster_mds(data, D, beta=4, k=3, seed=0)
        medoids = [next(i for i, x in enumerate(data) if x is rep)
                   for rep in model.representatives]
        oracle = float((D.entries[:, medoids].min(axis=1) ** 2).sum())
        report = quality(data, model, D)
        assert report.total_within == pytest.approx(oracle, abs=1e-9)
        assert report.total_within == pytest.approx(model.objective, abs=1e-9)
        assert np.all(report.per_cluster_between > report.per_cluster_within)
        assert report.cluster_sizes.sum() == len(data)

    def test_variances_are_sample_variances(self):
        data, _ = planted(np.random.default_rng(4), per_family=4)
        D = distance_matrix(data)
        model = cluster_mds(data, D, beta=3, k=3, seed=1)
        report = quality(data, model, D)
        for j in range(3):
            rep = model.representatives[j]
            mask = model.assignments == j
            inside = np.array([distance(x, rep) ** 2 for i, x in enumerate(data) if mask[i]])
            outside = np.array([distance(x, rep) ** 2 for i, x in enumerate(data) if not mask[i]])
            assert report.per_cluster_within[j] == pytest.approx(inside.mean(), rel=1e-9)
            assert report.within_variance[j] == pytest.approx(inside.var(ddof=1), rel=1e-9)
            assert report.between_variance[j] == pytest.approx(outside.var(ddof=1), rel=1e-9)

    def test_singleton_cluster_has_zero_variance(self):
        data, _ = planted(np.random.default_rng(5), per_family=2)
        model = ClusterModel(
            "mds", 2, 0, [0] + [1] * 5, (data[0], data[1]), 1.0
        )
        report = quality(data, model, distance_matrix(data))
        assert report.within_variance[0] == 0.0

    def test_size_mismatch_rejected(self):
        data, _ = planted(np.random.default_rng(8), per_family=2)
        D = distance_matrix(data)
        model = cluster_mds(data, D, beta=2, k=2, seed=0)
        with pytest.raises(InvalidInputError, match="disagree"):
            quality(data[:-1], model, D)


class TestStabilityStatistic:
    def test_hand_computed_four_point_case(self):
        D = DistanceMatrix(np.ones((4, 4)) - np.eye(4))
        assert stability_statistic(D, [0, 0, 0, 0]) == 1.5

    def test_singletons_vanish(self):
        data, _ = planted(np.random.default_rng(9), per_family=2)
        D = distance_matrix(data)
        assert stability_statistic(D, np.arange(6)) == 0.0

    def test_relabeling_is_exact(self):
        rng = np.random.default_rng(10)
        data = [random_interaction(rng, 9) for _ in range(9)]
        D = distance_matrix(data)
        z = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2])
        relabeled = np.array([2, 0, 1, 2, 0, 1, 2, 0, 1])
        assert stability_statistic(D, z) == stability_statistic(D, relabeled)

    def test_point_reordering_invariance(self):
        rng = np.random.default_rng(11)
        data = [random_interaction(rng, 9) for _ in range(8)]
        D = distance_matrix(data)
        z = np.array([0, 0, 1, 1, 2, 2, 0, 1])
        perm = rng.permutation(8)
        Dp = DistanceMatrix(D.entries[np.ix_(perm, perm)])
        assert stability_statistic(Dp, z[perm]) == pytest.approx(
            stability_statistic(D, z), rel=1e-12
        )

    def test_matches_euclidean_kmeans_decomposition(self):
        rng = np.random.default_rng(12)
        points = rng.normal(size=(10, 2))
        D = euclidean_matrix(points)
        # one cluster: statistic == within sum of squares to the mean
        wcss = float(((points - points.mean(axis=0)) ** 2).sum())
        assert stability_statistic(D, np.zeros(10, dtype=int)) == pytest.approx(
            wcss, abs=1e-9
        )
        # several clusters: the identity holds per cluster with its own size
        z = np.array([0, 0, 0, 1, 1, 1, 1, 2, 2, 2])
        expected = 0.0
        for label in range(3):
            sub = points[z == label]
            w = float(((sub - sub.mean(axis=0)) ** 2).sum())
            block = D.entries[np.ix_(np.flatnonzero(z == label), np.flatnonzero(z == label))]
            assert (block**2).sum() / (2 * len(sub)) == pytest.approx(w, abs=1e-9)
            expected += len(sub) * w
        assert stability_statistic(D, z) == pytest.approx(expected / 10, abs=1e-9)


class TestStabilitySweep:
    def test_single_cell_equals_direct_call(self):
        data, _ = planted(np.random.default_rng(13), per_family=4)
        D = distance_matrix(data)
        grid = stability_sweep(data, D, "mds", "beta", [3], "k", [3], seed=0)
        model = cluster_mds(data, D, beta=3, k=3, seed=0)
        assert grid.values[0, 0] == stability_statistic(D, model.assignments)
        assert not grid.missing.any()

    def test_k_equals_n_cell_is_zero(self):
        data, _ = planted(np.random.default_rng(14), per_family=4)
        D = distance_matrix(data)
        grid = stability_sweep(data, D, "mds", "beta", [2, 3], "k", [3, 12], seed=0)
        assert np.all(grid.values[:, 1] == 0.0)

    def test_planted_monotone_in_k_within_replication_band(self):
        data, _ = planted(np.random.default_rng(15), per_family=4)
        D = distance_matrix(data)

        def max_jump(seed):
            grid = stability_sweep(
                data, D, "mds", "beta", [2, 3, 4], "k", [2, 3, 4], seed=seed
            )
            return float(np.nanmax(grid.delta2))  # increase along the k axis

        band = max(max_jump(seed) for seed in range(1, 11))
        assert max_jump(0) <= max(band, 0.0) + 1e-9

    def test_failed_cells_marked_missing(self):
        data, _ = planted(np.random.default_rng(16), per_family=4)
        D = distance_matrix(data)
        grid = stability_sweep(data, D, "mds", "beta", [3], "k", [3, 50], seed=0)
        assert not grid.missing[0, 0] and grid.missing[0, 1]
        assert np.isnan(grid.values[0, 1])
        assert np.isnan(grid.delta2[0, 1])

    def sweep_records(self, caplog, data, D):
        with caplog.at_level(logging.WARNING, logger="pairtraj.evaluation"):
            grid = stability_sweep(data, D, "mds", "k", [2, 3], "beta", [2], seed=0)
        return grid, [r for r in caplog.records if r.name == "pairtraj.evaluation"]

    def test_missing_cells_logged_once(self, monkeypatch, caplog):
        data, _ = planted(np.random.default_rng(16), per_family=4)
        D = distance_matrix(data)

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("eigh did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        grid, [record] = self.sweep_records(caplog, data, D)
        assert grid.missing.all() and np.isnan(grid.values).all()
        assert record.levelno == logging.WARNING
        message = record.getMessage()
        assert "2 of 2 cell(s) missing (k=2 beta=2, k=3 beta=2)" in message
        assert "eigh did not converge" in message

    def test_silent_when_every_cell_is_present(self, caplog):
        data, _ = planted(np.random.default_rng(16), per_family=4)
        grid, records = self.sweep_records(caplog, data, distance_matrix(data))
        assert not grid.missing.any() and records == []

    def test_mds_embeds_once_per_beta(self, monkeypatch):
        data, _ = planted(np.random.default_rng(20), per_family=4)
        D = distance_matrix(data)
        betas = []
        real_embed = mds.embed

        def counting_embed(matrix, beta, *args, **kwargs):
            betas.append(beta)
            return real_embed(matrix, beta, *args, **kwargs)

        monkeypatch.setattr(mds, "embed", counting_embed)
        ks = (2, 3, 4)
        stability_sweep(data, D, "mds", "k", ks, "beta", (2,), seed=0)
        assert betas == [2]
        betas.clear()
        grid = stability_sweep(data, D, "mds", "k", ks, "beta", (2, 3), seed=0)
        assert betas == [2, 3]
        for i, k in enumerate(ks):
            for j, beta in enumerate((2, 3)):
                model = cluster_mds(data, D, beta=beta, k=k, seed=0)
                assert grid.values[i, j] == stability_statistic(D, model.assignments)
        assert not grid.missing.any()

    def test_failed_beta_marks_its_cells_missing(self):
        data, _ = planted(np.random.default_rng(16), per_family=4)
        D = distance_matrix(data)
        betas = []

        def counting_embed(matrix, beta, seed):
            betas.append(beta)
            return mds.embed(matrix, beta, seed)

        grid = stability_sweep(
            data, D, "mds", "k", [2, 3], "beta", [2, 12, 2.5], seed=0,
            embed=counting_embed,
        )
        assert not grid.missing[:, 0].any() and grid.missing[:, 1:].all()
        assert betas == [2, 12, 2.5]  # a failed beta is not embedded again

    def test_geo_methods_sweepable(self):
        data, _ = planted(np.random.default_rng(18), per_family=3)
        D = distance_matrix(data)
        grid = stability_sweep(data, D, "geo1", "anchor", [0, 1], "k", [2, 3], seed=0)
        assert grid.values.shape == (2, 2) and not grid.missing.any()

    @pytest.mark.parametrize("method, axis1, values1, axis2, values2", [
        ("geo1", "anchor", (0, 1), "k", (2, 3, 13)),
        ("geo2", "k", (2, 3, 13), "n_init", (2, 4)),
        ("spline-coef", "k", (2, 13, 3), "max_iter", (5, 50)),
    ])
    def test_geo_cells_fork_and_give_the_same_bytes_at_any_cpu_count(
        self, monkeypatch, caplog, method, axis1, values1, axis2, values2
    ):
        # k=13 > n=12 leaves a column or row of cells missing
        data, _ = planted(np.random.default_rng(21), per_family=4)
        D = distance_matrix(data)
        real_fork, forks = os.fork, []

        def counting_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        results = set()
        for cpus in (1, 2, 4):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, k=cpus: set(range(k)))
            forks.clear()
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="pairtraj.evaluation"):
                grid = stability_sweep(data, D, method, axis1, values1, axis2, values2, seed=0)
            [record] = [r for r in caplog.records if r.name == "pairtraj.evaluation"]
            assert len(forks) == (cpus if cpus > 1 else 0)
            results.add((grid.values.tobytes(), grid.missing.tobytes(), record.getMessage()))
        [(_, missing, message)] = results
        assert np.frombuffer(missing, dtype=bool).sum() == 2
        assert "2 of 6 cell(s) missing" in message and "k must lie in [1, 12], got 13" in message
        assert not np.isnan(grid.values[~grid.missing]).any()

    def test_mds_cells_never_fork_and_embed_each_beta_once(self, monkeypatch):
        data, _ = planted(np.random.default_rng(20), per_family=4)
        D = distance_matrix(data)
        betas, embedding, real_fork = [], [], os.fork

        def counting_embed(matrix, beta, seed):
            betas.append(beta)
            embedding.append(beta)
            try:
                return mds.embed(matrix, beta, seed)
            finally:
                embedding.pop()

        def fork_inside_embed():
            # embed forks its own SMACOF runs; the cells around it never fork
            if not embedding:
                raise AssertionError("an mds cell forked")
            return real_fork()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(os, "fork", fork_inside_embed)
        grid = stability_sweep(
            data, D, "mds", "k", (2, 3, 4), "beta", (2, 3), seed=0, embed=counting_embed
        )
        assert betas == [2, 3] and not grid.missing.any()

    def test_bad_axis_rejected_upfront(self):
        data, _ = planted(np.random.default_rng(19), per_family=2)
        D = distance_matrix(data)
        with pytest.raises(InvalidInputError, match="sweepable"):
            stability_sweep(data, D, "mds", "gamma", [1], "k", [2], seed=0)
        with pytest.raises(InvalidInputError, match="different"):
            stability_sweep(data, D, "mds", "k", [2], "k", [3], seed=0)
        with pytest.raises(InvalidInputError, match="beta"):
            stability_sweep(data, D, "mds", "k", [2], "n_init", [1], seed=0)


class TestTransferPrimitives:
    def test_identity_on_own_primitives(self):
        data, _ = planted(np.random.default_rng(20), per_family=3)
        assert transfer_primitives(data, data).tolist() == list(range(9))

    def test_single_primitive_takes_all(self):
        data, _ = planted(np.random.default_rng(21), per_family=2)
        assert transfer_primitives(data, [data[0]]).tolist() == [0] * 6

    def test_matches_geo2_assignments_on_planted_data(self):
        mismatches, total = 0, 0
        for seed in range(10):
            data, _ = planted(np.random.default_rng(100 + seed), per_family=5)
            model = cluster_geo2(data, k=3, seed=seed)
            moved = transfer_primitives(data, list(model.representatives))
            mismatches += int((moved != model.assignments).sum())
            total += len(data)
        assert mismatches / total <= 0.01

    def test_primitives_resampled_to_data_grid(self):
        data, truth = planted(np.random.default_rng(22), per_family=4)
        grid41 = np.linspace(0.0, 2.0, 41)
        prims = []
        for fam in range(3):
            first, second = family_curves(fam, 41)
            prims.append(Interaction(Trajectory(first, grid41), Trajectory(second, grid41)))
        moved = transfer_primitives(data, prims)
        assert match_rate(moved, truth, 3) == 1.0


class TestSerialization:
    def test_quality_json_round_trip(self, tmp_path):
        data, _ = planted(np.random.default_rng(23), per_family=3)
        D = distance_matrix(data)
        model = cluster_mds(data, D, beta=3, k=3, seed=0)
        report = quality(data, model, D)
        path = tmp_path / "quality.json"
        write_quality_json(path, report, meta={"method": "mds"})
        payload = read_json(path)
        # every field under its own name, bit for bit
        for field in fields(QualityReport):
            assert payload.pop(field.name) == np.asarray(getattr(report, field.name)).tolist()
        assert payload == {"variance_convention": "sample (ddof=1)", "meta": {"method": "mds"}}

    def test_silhouette_csv_ordering_and_round_trip(self, tmp_path):
        path = tmp_path / "sil.csv"
        write_silhouette_csv(
            path,
            ["e3", "e1", "e2", "e4"],
            [1, 0, 0, 1],
            [0.5, 0.25, 0.75, -0.5],
            meta={"k": 2},
        )
        assert json.loads(path.read_text().split("\n", 1)[0][1:]) == {"k": 2}
        assert [fields for _, fields in rows(path, SILHOUETTE_HEADER)] == [
            ["e2", "0", "0.75"], ["e1", "0", "0.25"], ["e3", "1", "0.5"], ["e4", "1", "-0.5"],
        ]
        assert path.read_text().startswith('# {"k": 2}')

    def test_stability_csv_round_trip(self, tmp_path):
        data, _ = planted(np.random.default_rng(24), per_family=4)
        D = distance_matrix(data)
        grid = stability_sweep(data, D, "mds", "beta", [2, 3], "k", [3, 50], seed=0)
        path = tmp_path / "stability.csv"
        write_stability_csv(path, grid, meta={"seed": 0})
        meta = json.loads(path.read_text().split("\n", 1)[0][1:])
        assert meta == {"seed": 0, "axis1_name": "beta", "axis2_name": "k"}
        table = [fields for _, fields in rows(path, STABILITY_HEADER)]
        assert [fields[:2] for fields in table] == [
            ["2", "3"], ["2", "50"], ["3", "3"], ["3", "50"],
        ]
        values = np.array([float(fields[2]) for fields in table]).reshape(2, 2)
        assert np.array_equal(values, grid.values, equal_nan=True)
        # a missing cell is written as NaN
        assert grid.missing.any() and np.array_equal(np.isnan(values), grid.missing)

    def test_grid_validation(self):
        with pytest.raises(InvalidInputError, match="NaN"):
            StabilityGrid(
                "a", "b", (1,), (1,),
                np.array([[2.0]]), np.array([[True]]),
            )
        with pytest.raises(InvalidInputError, match="finite"):
            StabilityGrid(
                "a", "b", (1,), (1,),
                np.array([[-1.0]]), np.array([[False]]),
            )
