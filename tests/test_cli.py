"""End-to-end command-line runs: artifacts, exit codes, determinism."""

import json
import os

import numpy as np
import pytest

from pairtraj.cli import _build_parser, _resolve_config, main, read_transfer_csv
from pairtraj.clustering import read_model_json
from pairtraj.procrustes import read_matrix_csv
from pairtraj.trajectory import read_encounters_csv


def run(*argv):
    return main(list(argv))


GEN_ARGS = (
    "generate",
    "--set", "kind=families",
    "--set", "per_family=4",
    "--set", "num_samples=31",
    "--seed", "3",
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One shared dataset + fitted model for the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    out = str(root / "run")
    assert run(*GEN_ARGS, "--output-dir", out) == 0
    dataset = os.path.join(out, "dataset.csv")
    assert run(
        "cluster", "--method", "mds", "--input", dataset, "--output-dir", out,
        "--set", "k=3", "--set", "n_init=4", "--set", "num_samples=31",
        "--seed", "3",
    ) == 0
    return out


def body_lines(path):
    """File content with the created timestamp stripped, for byte comparisons."""
    with open(path) as handle:
        return [ln for ln in handle if "created" not in ln]


class TestGenerate:
    def test_writes_dataset_and_manifest(self, workdir):
        dataset = os.path.join(workdir, "dataset.csv")
        encounters = read_encounters_csv(dataset)
        assert len(encounters) == 12
        with open(os.path.join(workdir, "manifest.json")) as handle:
            manifest = json.load(handle)
        assert manifest["within_between_ratio"] <= 0.1
        assert set(manifest["meta"]) >= {"tool_version", "seed", "config_sha256", "created"}
        assert len(manifest["encounters"]) == 12

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run(*GEN_ARGS, "--output-dir", a) == 0
        assert run(*GEN_ARGS, "--output-dir", b) == 0
        for name in ("dataset.csv", "manifest.json"):
            assert body_lines(os.path.join(a, name)) == body_lines(os.path.join(b, name))

    def test_inseparable_families_exit_4(self, tmp_path):
        code = run(
            *GEN_ARGS, "--set", "noise=5.0", "--output-dir", str(tmp_path / "bad")
        )
        assert code == 4


class TestClusterEvaluate:
    def test_model_roundtrip(self, workdir):
        model = read_model_json(os.path.join(workdir, "model.json"))
        assert model.method == "mds"
        assert model.k == 3
        assert model.n == 12
        assert len(set(model.assignments.tolist())) == 3

    def test_evaluate_artifacts(self, workdir):
        dataset = os.path.join(workdir, "dataset.csv")
        assert run(
            "evaluate", "--model", os.path.join(workdir, "model.json"),
            "--input", dataset, "--output-dir", workdir, "--seed", "3",
            "--set", "num_samples=31",
        ) == 0
        with open(os.path.join(workdir, "quality.json")) as handle:
            report = json.load(handle)
        assert len(report["cluster_sizes"]) == 3
        assert report["total_within"] >= 0.0
        rows = [
            ln for ln in open(os.path.join(workdir, "silhouette.csv"))
            if ln.strip() and not ln.startswith("#")
        ]
        assert rows[0].strip() == "id,cluster,silhouette"
        assert len(rows) == 13

    def test_one_cluster_per_point_has_zero_within(self, workdir, tmp_path):
        dataset = os.path.join(workdir, "dataset.csv")
        out = str(tmp_path / "kn")
        assert run(
            "cluster", "--method", "mds", "--input", dataset, "--output-dir", out,
            "--set", "k=12", "--set", "n_init=2", "--set", "num_samples=31",
            "--seed", "3",
        ) == 0
        assert run(
            "evaluate", "--model", os.path.join(out, "model.json"),
            "--input", dataset, "--output-dir", out, "--seed", "3",
            "--set", "num_samples=31",
        ) == 0
        with open(os.path.join(out, "quality.json")) as handle:
            report = json.load(handle)
        assert report["total_within"] <= 1e-12


class TestDistances:
    def test_matrix_and_cache(self, workdir, tmp_path):
        dataset = os.path.join(workdir, "dataset.csv")
        out = str(tmp_path / "d")
        args = (
            "distances", "--input", dataset, "--output-dir", out,
            "--set", "num_samples=31", "--seed", "3",
        )
        assert run(*args) == 0
        path = os.path.join(out, "distances.csv")
        matrix = read_matrix_csv(path)
        assert matrix.n == 12
        cache = os.listdir(os.path.join(out, "cache"))
        assert len(cache) == 1 and cache[0].endswith(".bin")
        first = body_lines(path)
        assert run(*args) == 0  # served from cache
        assert body_lines(path) == first
        assert os.listdir(os.path.join(out, "cache")) == cache

    def test_truncated_cache_is_rebuilt(self, workdir, tmp_path):
        dataset = os.path.join(workdir, "dataset.csv")
        out = str(tmp_path / "d")
        args = (
            "distances", "--input", dataset, "--output-dir", out,
            "--set", "num_samples=31", "--seed", "3",
        )
        assert run(*args) == 0
        path = os.path.join(out, "distances.csv")
        first = body_lines(path)
        (cache,) = os.listdir(os.path.join(out, "cache"))
        cache_path = os.path.join(out, "cache", cache)
        size = os.path.getsize(cache_path)
        with open(cache_path, "r+b") as handle:
            handle.truncate(size // 2)
        assert run(*args) == 0
        assert body_lines(path) == first
        assert os.listdir(os.path.join(out, "cache")) == [cache]
        assert os.path.getsize(cache_path) == size

    def test_normalize_changes_values(self, workdir, tmp_path):
        dataset = os.path.join(workdir, "dataset.csv")
        raw, unit = str(tmp_path / "raw"), str(tmp_path / "unit")
        common = ("--input", dataset, "--set", "num_samples=31", "--seed", "3")
        assert run("distances", *common, "--output-dir", raw) == 0
        assert run(
            "distances", *common, "--set", "normalize=true", "--output-dir", unit
        ) == 0
        a = read_matrix_csv(os.path.join(raw, "distances.csv"))
        b = read_matrix_csv(os.path.join(unit, "distances.csv"))
        assert not np.allclose(a.entries, b.entries)


class TestStability:
    def test_grid_sweep(self, workdir, tmp_path):
        dataset = os.path.join(workdir, "dataset.csv")
        out = str(tmp_path / "s")
        assert run(
            "stability", "--method", "mds", "--input", dataset, "--output-dir", out,
            "--grid", "k=2,3;beta=2,3", "--set", "num_samples=31",
            "--set", "n_init=2", "--seed", "3",
        ) == 0
        lines = [ln.strip() for ln in open(os.path.join(out, "stability.csv")) if ln.strip()]
        meta = json.loads(lines[0][2:])
        assert meta["axis1_name"] == "k" and meta["axis2_name"] == "beta"
        assert lines[1] == "axis1,axis2,value,delta1,delta2"
        assert len(lines) == 6  # 2x2 grid
        for row in lines[2:]:
            assert float(row.split(",")[2]) >= 0.0

    def test_malformed_grid_exit_2(self, workdir, tmp_path):
        dataset = os.path.join(workdir, "dataset.csv")
        code = run(
            "stability", "--method", "mds", "--input", dataset,
            "--output-dir", str(tmp_path / "s"), "--grid", "k=2,3",
        )
        assert code == 2


class TestWassersteinTransfer:
    def test_model_vs_itself_is_zero(self, workdir, tmp_path):
        model = os.path.join(workdir, "model.json")
        out = str(tmp_path / "w")
        assert run(
            "wasserstein", "--a", model, "--b", model, "--output-dir", out,
            "--seed", "3",
        ) == 0
        with open(os.path.join(out, "wasserstein.json")) as handle:
            payload = json.load(handle)
        assert payload["value"] <= 1e-9
        assert payload["r"] == 2.0

    def test_model_vs_dataset(self, workdir, tmp_path):
        dataset = os.path.join(workdir, "dataset.csv")
        out = str(tmp_path / "w")
        assert run(
            "wasserstein", "--a", os.path.join(workdir, "model.json"),
            "--b", dataset, "--input", dataset, "--output-dir", out,
            "--set", "num_samples=31", "--seed", "3",
        ) == 0
        with open(os.path.join(out, "wasserstein.json")) as handle:
            assert json.load(handle)["value"] > 0.0

    def test_transfer_recovers_training_labels(self, workdir, tmp_path):
        dataset = os.path.join(workdir, "dataset.csv")
        out = str(tmp_path / "t")
        assert run(
            "transfer", "--primitives", os.path.join(workdir, "model.json"),
            "--input", dataset, "--output-dir", out,
            "--set", "num_samples=31", "--seed", "3",
        ) == 0
        rows = read_transfer_csv(os.path.join(out, "transfer.csv"))
        model = read_model_json(os.path.join(workdir, "model.json"))
        # training points sit nearest their own cluster's representative here
        assert [label for _, label in rows] == model.assignments.tolist()
        ids = read_encounters_csv(dataset)
        assert [enc_id for enc_id, _ in rows] == [enc_id for enc_id, _ in ids]


class TestSegmentCommand:
    def test_recovers_planted_knots(self, tmp_path):
        out = str(tmp_path / "seg")
        assert run(
            "generate", "--set", "kind=encounters", "--set", "count=2",
            "--set", "knots=40,80", "--set", "num_samples=121",
            "--seed", "11", "--output-dir", out,
        ) == 0
        assert run(
            "segment", "--input", os.path.join(out, "dataset.csv"),
            "--output-dir", out, "--seed", "11",
        ) == 0
        with open(os.path.join(out, "knots.json")) as handle:
            payload = json.load(handle)
        assert len(payload["encounters"]) == 2
        for entry in payload["encounters"].values():
            assert len(entry["knots"]) == 2
            for got, planted in zip(entry["knots"], (40, 80)):
                assert abs(got - planted) <= 2
        assert os.path.exists(os.path.join(out, "segments.csv"))


class TestResolution:
    def test_file_then_set_then_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 2\nmethod = geo2\nseed = 1\n")
        parser = _build_parser()
        args = parser.parse_args([
            "cluster", "--config", str(cfg), "--set", "k=4",
            "--method", "geo1", "--seed", "9",
        ])
        config = _resolve_config(args)
        assert config.k == 4          # --set beats the file
        assert config.method == "geo1"  # dedicated flag beats both
        assert config.seed == 9


class TestExitCodes:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "pairtraj" in capsys.readouterr().out

    def test_unknown_flag_is_argparse_error(self):
        with pytest.raises(SystemExit) as info:
            main(["cluster", "--granularity", "3"])
        assert info.value.code == 2

    def test_unknown_config_key(self, tmp_path):
        assert run(
            "generate", "--set", "mystery=1", "--output-dir", str(tmp_path)
        ) == 2

    def test_set_without_equals(self, tmp_path):
        assert run("generate", "--set", "k", "--output-dir", str(tmp_path)) == 2

    def test_missing_input_is_config_error(self, tmp_path):
        assert run("cluster", "--method", "mds", "--output-dir", str(tmp_path)) == 2

    def test_unreadable_input_is_data_error(self, tmp_path):
        assert run(
            "cluster", "--method", "mds", "--input", str(tmp_path / "nope.csv"),
            "--output-dir", str(tmp_path),
        ) == 3

    def test_k_beyond_dataset_rejected(self, workdir, tmp_path):
        dataset = os.path.join(workdir, "dataset.csv")
        code = run(
            "cluster", "--method", "mds", "--input", dataset,
            "--output-dir", str(tmp_path), "--set", "k=50",
            "--set", "num_samples=31",
        )
        assert code == 2

    def test_missing_model_is_data_error(self, workdir, tmp_path):
        dataset = os.path.join(workdir, "dataset.csv")
        code = run(
            "evaluate", "--model", str(tmp_path / "ghost.json"),
            "--input", dataset, "--output-dir", str(tmp_path),
        )
        assert code == 3
