"""End-to-end command-line runs: artifacts, exit codes, determinism."""

import contextlib
import gc
import hashlib
import json
import logging
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import pairtraj
from pairtraj import __version__, artifacts, cli, mds, procrustes, segmentation, workers
from pairtraj.cli import _build_parser, _resolve_config, main
from pairtraj.clustering import read_model_json
from pairtraj.config import RunConfig
from pairtraj.evaluation import TRANSFER_HEADER
from pairtraj.procrustes import DistanceMatrix, read_matrix_binary
from pairtraj.segmentation import SEGMENT_HEADER
from pairtraj.synthetic import make_encounter_dataset
from pairtraj.trajectory import (
    Interaction,
    Trajectory,
    read_encounters_binary,
    read_encounters_csv,
    resample,
    to_table,
    write_encounters_csv,
)
from pairtraj.transport import DiscreteMeasure, empirical_measure, model_measure, wasserstein

from oracles import planted, random_interaction


def run(*argv):
    return main(list(argv))


# no --input: generate reads none
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


def csv_entries(path):
    """The entries of a distances.csv, split by hand: after its `#` line, its
    header line holds n, then come n rows of n numbers."""
    with open(path) as handle:
        n, *rows = [line for line in handle.read().splitlines() if not line.startswith("#")]
    assert len(rows) == int(n)
    return np.array([[float(v) for v in line.split(",")] for line in rows])


def sans_created(path):
    """File bytes with only the created timestamp's value blanked out."""
    with open(path, "rb") as handle:
        return re.sub(rb'"created": "[^"]*"', b'"created": "-"', handle.read())


def cache_files(out, kind):
    """Names of the `kind` entries in the output directory's cache, sorted."""
    cache = os.path.join(out, "cache")
    names = os.listdir(cache) if os.path.isdir(cache) else []
    return sorted(name for name in names if name.startswith(f"{kind}-"))


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

    def test_misspelt_kind_is_config_error(self, tmp_path):
        assert run("generate", "--set", "kind=familes", "--output-dir", str(tmp_path)) == 2
        assert not os.path.exists(tmp_path / "dataset.csv")

    @pytest.mark.parametrize(
        "settings, line",
        [
            (("kind=encounters", "box=nan"), "box must be finite and nonnegative, got nan"),
            (("kind=encounters", "box=inf"), "box must be finite and nonnegative, got inf"),
            (("kind=encounters", "box=-1"), "box must be finite and nonnegative, got -1.0"),
            (("per_family=1",), "need a family of at least two interactions"),
            (("families=",), "families must not be empty"),
        ],
        ids=["box-nan", "box-inf", "box-negative", "one-per-family", "no-families"],
    )
    def test_unusable_parameters_exit_2(self, tmp_path, capsys, settings, line):
        argv = [arg for setting in settings for arg in ("--set", setting)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("generate", *argv, "--output-dir", str(tmp_path))
        assert code == 2
        assert capsys.readouterr().err == f"pairtraj: {line}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "settings", [("kind=encounters", "box=0", "count=2"), ("families=parallel", "per_family=1")]
    )
    def test_degenerate_parameters_are_accepted(self, tmp_path, settings):
        argv = [arg for setting in settings for arg in ("--set", setting)]
        assert run("generate", *argv, "--output-dir", str(tmp_path)) == 0
        assert sorted(os.listdir(tmp_path)) == ["dataset.csv", "manifest.json"]

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
        with open(os.path.join(workdir, "silhouette.csv")) as handle:
            rows = [ln for ln in handle if ln.strip() and not ln.startswith("#")]
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
        assert csv_entries(path).shape == (12, 12)
        (cache,) = cache_files(out, "distances")
        (parsed,) = cache_files(out, "encounters")
        with open(dataset, "rb") as handle:
            data = handle.read()
        for name, kind, suffix in (
            (cache, "distances", f";T=31;normalize=0;version={__version__}"),
            (parsed, "encounters", f";version={__version__}"),
        ):
            digest = hashlib.sha256(data + suffix.encode()).hexdigest()
            assert name == f"{kind}-{digest[:16]}.bin"
        first = body_lines(path)
        assert run(*args) == 0  # served from cache
        assert body_lines(path) == first
        assert cache_files(out, "distances") == [cache]
        assert cache_files(out, "encounters") == [parsed]

    @pytest.mark.parametrize("damage", ["truncate", "nan"])
    def test_truncated_cache_is_rebuilt(self, workdir, tmp_path, damage):
        dataset = os.path.join(workdir, "dataset.csv")
        out = str(tmp_path / "d")
        args = (
            "distances", "--input", dataset, "--output-dir", out,
            "--set", "num_samples=31", "--seed", "3",
        )
        assert run(*args) == 0
        path = os.path.join(out, "distances.csv")
        first = body_lines(path)
        (cache,) = cache_files(out, "distances")
        (parsed,) = cache_files(out, "encounters")
        cache_path = os.path.join(out, "cache", cache)
        with open(cache_path, "rb") as handle:
            blob = handle.read()
        with open(cache_path, "r+b") as handle:
            if damage == "truncate":
                handle.truncate(len(blob) // 2)
            else:  # full size, entry [0, 1] NaN: the matrix type rejects it
                handle.seek(4 + 8 + 8)  # past the magic, the one count and entry [0, 0]
                handle.write(np.array([np.nan], dtype="<f8").tobytes())
        assert run(*args) == 0
        assert body_lines(path) == first
        assert cache_files(out, "distances") == [cache]
        assert cache_files(out, "encounters") == [parsed]
        with open(cache_path, "rb") as handle:
            assert handle.read() == blob

    def test_normalize_changes_values(self, workdir, tmp_path):
        dataset = os.path.join(workdir, "dataset.csv")
        raw, unit = str(tmp_path / "raw"), str(tmp_path / "unit")
        common = ("--input", dataset, "--set", "num_samples=31", "--seed", "3")
        assert run("distances", *common, "--output-dir", raw) == 0
        assert run(
            "distances", *common, "--set", "normalize=true", "--output-dir", unit
        ) == 0
        a = csv_entries(os.path.join(raw, "distances.csv"))
        b = csv_entries(os.path.join(unit, "distances.csv"))
        assert not np.allclose(a, b)


class TestEncounterCache:
    @pytest.fixture
    def parses(self, monkeypatch):
        """Every CSV parse the CLI makes, by path."""
        calls = []
        real = cli.read_encounters_csv

        def counting(path):
            calls.append(path)
            return real(path)

        monkeypatch.setattr(cli, "read_encounters_csv", counting)
        return calls

    @staticmethod
    def cluster(workdir, out):
        return run(
            "cluster", "--method", "geo2", "--input", os.path.join(workdir, "dataset.csv"),
            "--output-dir", out, "--set", "k=3", "--set", "n_init=2",
            "--set", "num_samples=31", "--seed", "3",
        )

    def test_warm_cache_writes_cold_bytes(self, workdir, tmp_path, parses):
        cold, warm = str(tmp_path / "cold"), str(tmp_path / "warm")
        assert self.cluster(workdir, cold) == 0
        assert self.cluster(workdir, warm) == 0
        assert self.cluster(workdir, warm) == 0  # a cache hit
        assert len(parses) == 2
        assert sans_created(os.path.join(warm, "model.json")) == sans_created(
            os.path.join(cold, "model.json")
        )
        (name,) = cache_files(cold, "encounters")
        assert cache_files(warm, "encounters") == [name]
        blob = (tmp_path / "cold" / "cache" / name).read_bytes()
        assert (tmp_path / "warm" / "cache" / name).read_bytes() == blob

    def test_segment_shares_the_parse(self, tmp_path, parses):
        out = str(tmp_path / "seg")
        assert run(
            "generate", "--set", "kind=encounters", "--set", "count=2",
            "--set", "num_samples=121", "--seed", "4", "--output-dir", out,
        ) == 0
        common = ("--input", os.path.join(out, "dataset.csv"), "--output-dir", out,
                  "--set", "num_samples=121", "--seed", "4")
        assert run("segment", *common) == 0
        assert run("distances", *common) == 0
        assert len(parses) == 1

    @pytest.mark.parametrize("damage", ["truncate", "nan"])
    def test_bad_cache_is_rebuilt(self, workdir, tmp_path, parses, damage):
        out = str(tmp_path / "b")
        assert self.cluster(workdir, out) == 0
        model = sans_created(os.path.join(out, "model.json"))
        (name,) = cache_files(out, "encounters")
        path = os.path.join(out, "cache", name)
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "r+b") as handle:
            if damage == "truncate":
                handle.truncate(len(blob) // 2)
            else:  # full size, the last y2 NaN: the trajectory type rejects it
                handle.seek(len(blob) - 8)
                handle.write(np.array([np.nan], dtype="<f8").tobytes())
        assert self.cluster(workdir, out) == 0
        assert len(parses) == 2
        assert sans_created(os.path.join(out, "model.json")) == model
        assert cache_files(out, "encounters") == [name]
        with open(path, "rb") as handle:
            assert handle.read() == blob

    def test_failed_parse_is_not_cached(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("encounter_id,t,x1,y1,x2,y2\na,0,1,2,3,4\na,0,1,2,3,4\n")
        out = str(tmp_path / "f")
        assert run("distances", "--input", str(path), "--output-dir", out) == 3
        assert run("segment", "--input", str(path), "--output-dir", out) == 3
        assert cache_files(out, "encounters") == []


class TestStability:
    def test_grid_sweep(self, workdir, tmp_path):
        dataset = os.path.join(workdir, "dataset.csv")
        out = str(tmp_path / "s")
        assert run(
            "stability", "--method", "mds", "--input", dataset, "--output-dir", out,
            "--grid", "k=2,3;beta=2,3", "--set", "num_samples=31",
            "--set", "n_init=2", "--seed", "3",
        ) == 0
        with open(os.path.join(out, "stability.csv")) as handle:
            lines = [ln.strip() for ln in handle if ln.strip()]
        meta = json.loads(lines[0][2:])
        assert meta["axis1_name"] == "k" and meta["axis2_name"] == "beta"
        assert lines[1] == "axis1,axis2,value,delta1,delta2"
        assert len(lines) == 6  # 2x2 grid
        for row in lines[2:]:
            assert float(row.split(",")[2]) >= 0.0

    def test_non_integer_beta_cells_missing(self, workdir, tmp_path):
        dataset = os.path.join(workdir, "dataset.csv")
        out = str(tmp_path / "s")
        assert run(
            "stability", "--method", "mds", "--input", dataset, "--output-dir", out,
            "--grid", "k=2,3;beta=2.5", "--set", "num_samples=31", "--seed", "3",
        ) == 0
        with open(os.path.join(out, "stability.csv")) as handle:
            lines = [ln.strip() for ln in handle if ln.strip()]
        assert [row.split(",")[:3] for row in lines[2:]] == [
            ["2", "2.5", "nan"], ["3", "2.5", "nan"]
        ]

    def test_fractional_k_cells_missing(self, workdir, tmp_path, caplog):
        dataset = os.path.join(workdir, "dataset.csv")
        out = str(tmp_path / "s")
        with caplog.at_level(logging.WARNING):
            assert run(
                "stability", "--method", "geo2", "--input", dataset, "--output-dir", out,
                "--grid", "k=2.5,3;n_init=2", "--set", "num_samples=31", "--seed", "3",
            ) == 0
        [record] = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert "1 of 2 cell(s) missing (k=2.5 n_init=2)" in record.getMessage()
        assert "k must be an integer, got 2.5" in record.getMessage()
        with open(os.path.join(out, "stability.csv")) as handle:
            lines = [ln.strip() for ln in handle if ln.strip()]
        rows = [row.split(",")[:3] for row in lines[2:]]
        assert [row[:2] for row in rows] == [["2.5", "2"], ["3", "2"]]
        assert rows[0][2] == "nan" and float(rows[1][2]) >= 0.0

    def test_huge_n_init_cells_named_in_bounded_width(self, workdir, tmp_path, caplog):
        dataset = os.path.join(workdir, "dataset.csv")
        with caplog.at_level(logging.WARNING):
            assert run(
                "stability", "--method", "geo2", "--input", dataset, "--output-dir",
                str(tmp_path), "--grid", "k=2,3;n_init=2,1e300", "--set", "num_samples=31",
            ) == 0
        [record] = [r for r in caplog.records if r.levelno >= logging.WARNING]
        message = record.getMessage()
        # int(1e300) has 301 digits; each label elides its middle
        assert "2 of 4 cell(s) missing (k=2 n_init=10000000...400540160, k=3 n_init=" in message
        assert "n_init must be at most" in message and len(message) < 200

    def test_geo2_with_more_clusters_than_families(self, tmp_path):
        # three tight families and k=4 make geo2 refill emptied clusters
        data, _ = planted(np.random.default_rng(1), per_family=4)
        dataset = str(tmp_path / "enc.csv")
        write_encounters_csv(dataset, [(f"e{i}", inter) for i, inter in enumerate(data)])
        out = str(tmp_path / "s")
        common = ("--method", "geo2", "--input", dataset, "--output-dir", out,
                  "--set", "n_init=4", "--set", "num_samples=21")
        assert run("cluster", *common, "--set", "k=4") == 0
        assert read_model_json(os.path.join(out, "model.json")).k == 4
        assert run("stability", *common, "--grid", "k=3,4;n_init=4") == 0
        with open(os.path.join(out, "stability.csv")) as handle:
            lines = [ln.strip() for ln in handle if ln.strip()]
        rows = [row.split(",")[:3] for row in lines[2:]]
        assert [row[:2] for row in rows] == [["3", "4"], ["4", "4"]]
        assert all(float(row[2]) >= 0.0 for row in rows)

    def test_malformed_grid_exit_2(self, workdir, tmp_path):
        dataset = os.path.join(workdir, "dataset.csv")
        code = run(
            "stability", "--method", "mds", "--input", dataset,
            "--output-dir", str(tmp_path / "s"), "--grid", "k=2,3",
        )
        assert code == 2


class TestEmbeddingCache:
    @pytest.fixture
    def counted(self, monkeypatch):
        """Every `mds.embed` call, as (beta, seed)."""
        calls = []
        real = mds.embed

        def counting(matrix, beta, seed=0, *args, **kwargs):
            calls.append((beta, seed))
            return real(matrix, beta, seed, *args, **kwargs)

        monkeypatch.setattr(mds, "embed", counting)
        return calls

    @staticmethod
    def common(workdir, out, *extra):
        return (
            "--input", os.path.join(workdir, "dataset.csv"), "--output-dir", out,
            "--set", "num_samples=31", "--set", "n_init=2", "--seed", "3", *extra,
        )

    def cluster(self, workdir, out, *extra):
        return run("cluster", "--method", "mds", "--set", "k=3", *self.common(workdir, out, *extra))

    def stability(self, workdir, out, *extra):
        return run(
            "stability", "--method", "mds", "--grid", "k=2,3;beta=2",
            *self.common(workdir, out, *extra),
        )

    @staticmethod
    def embeddings(out):
        return cache_files(out, "embedding")

    def test_cluster_and_stability_share_one_embedding(self, workdir, tmp_path, counted):
        shared = str(tmp_path / "shared")
        assert self.cluster(workdir, shared) == 0
        assert self.stability(workdir, shared) == 0
        assert len(counted) == 1
        (name,) = self.embeddings(shared)
        model = sans_created(os.path.join(shared, "model.json"))
        assert self.cluster(workdir, shared) == 0  # a cache hit
        assert len(counted) == 1
        assert sans_created(os.path.join(shared, "model.json")) == model

        cold_fit, cold_sweep = str(tmp_path / "cold-fit"), str(tmp_path / "cold-sweep")
        assert self.cluster(workdir, cold_fit) == 0
        assert self.stability(workdir, cold_sweep) == 0
        assert len(counted) == 3
        assert sans_created(os.path.join(cold_fit, "model.json")) == model
        assert sans_created(os.path.join(cold_sweep, "stability.csv")) == sans_created(
            os.path.join(shared, "stability.csv")
        )
        blob = (tmp_path / "shared" / "cache" / name).read_bytes()
        for cold in (cold_fit, cold_sweep):
            assert self.embeddings(cold) == [name]
            with open(os.path.join(cold, "cache", name), "rb") as handle:
                assert handle.read() == blob

    def test_key_covers_seed_and_beta(self, workdir, tmp_path, counted):
        out = str(tmp_path / "k")
        assert self.cluster(workdir, out) == 0
        assert self.cluster(workdir, out, "--seed", "4") == 0
        assert self.cluster(workdir, out, "--set", "beta=3") == 0
        assert counted == [(2, 3), (2, 4), (3, 3)]
        assert len(self.embeddings(out)) == 3

    @pytest.mark.parametrize("damage", ["truncate", "garbage"])
    def test_bad_cache_is_rebuilt(self, workdir, tmp_path, counted, damage):
        out = str(tmp_path / "b")
        assert self.cluster(workdir, out) == 0
        model = sans_created(os.path.join(out, "model.json"))
        (name,) = self.embeddings(out)
        path = os.path.join(out, "cache", name)
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2] if damage == "truncate" else b"\x00garbage" * 9)
        assert self.cluster(workdir, out) == 0
        assert len(counted) == 2
        assert sans_created(os.path.join(out, "model.json")) == model
        assert self.embeddings(out) == [name]
        with open(path, "rb") as handle:
            assert handle.read() == blob

    def test_key_covers_the_stopping_tolerance(self, workdir, tmp_path, counted, monkeypatch):
        out = str(tmp_path / "t")
        assert self.cluster(workdir, out) == 0
        monkeypatch.setattr(mds, "_REL_TOL", mds._REL_TOL / 10)
        assert self.cluster(workdir, out) == 0
        assert len(counted) == 2
        assert len(self.embeddings(out)) == 2

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_key_of_a_fixed_matrix(self, tmp_path, order):
        # the name the key had when it hashed a copy of the entries in C
        # order; it moves only with the tool version or `mds.cache_tag()`
        points = np.array([(0, 0), (1, 0), (0, 2), (3, 1), (2, 3), (4, 4)], float)
        entries = np.sqrt(((points[:, None] - points[None]) ** 2).sum(-1))
        config = RunConfig(output_dir=str(tmp_path))
        cli._embedder(config)(DistanceMatrix(np.asarray(entries, order=order)), 2, 0)
        assert self.embeddings(str(tmp_path)) == ["embedding-2f9646f853857fe6.bin"]

    def test_failed_beta_is_not_cached(self, workdir, tmp_path):
        out = str(tmp_path / "f")
        assert self.cluster(workdir, out, "--set", "beta=12") == 2  # n = 12
        assert self.cluster(workdir, out, "--set", "beta=12") == 2
        assert self.embeddings(out) == []
        assert run(
            "stability", "--method", "mds", "--grid", "k=2,3;beta=12,13",
            *self.common(workdir, out),
        ) == 0
        assert self.embeddings(out) == []


def test_kept_matrices_give_the_copied_bytes(workdir, tmp_path, monkeypatch):
    """`distances` builds the matrix, `evaluate` and `stability` read it from
    the cache; each artifact is the same bytes as when every matrix is copied."""
    def chain(out):
        common = (
            "--input", os.path.join(workdir, "dataset.csv"), "--output-dir", out,
            "--set", "num_samples=31", "--seed", "3",
        )
        assert run("distances", *common) == 0
        assert run("evaluate", "--model", os.path.join(workdir, "model.json"), *common) == 0
        assert run("stability", "--method", "geo2", "--grid", "k=2,3;n_init=2", *common) == 0
        names = ["distances.csv", "quality.json", "silhouette.csv", "stability.csv"]
        names += [os.path.join("cache", name) for name in cache_files(out, "distances")]
        return {name: sans_created(os.path.join(out, name)) for name in names}

    kept = chain(str(tmp_path / "kept"))
    monkeypatch.setattr(procrustes, "_unwritable", lambda array: False)
    assert chain(str(tmp_path / "copied")) == kept


def earlier_layout(kind, path) -> bytes:
    """The cache file at `path` packed by hand in the layout of the tool
    before its arrays container: each kind its own magic and header."""
    if kind == "distances":
        entries = read_matrix_binary(path).entries
        return b"PTDM" + np.array([len(entries)], "<i8").tobytes() + entries.tobytes()
    if kind == "embedding":
        emb = mds.read_embedding_binary(path)
        header = np.array(
            [(emb.n, emb.beta, emb.stress, emb.best_run, len(emb.iterations))],
            dtype=[("n", "<i8"), ("beta", "<i8"), ("stress", "<f8"), ("best_run", "<i8"),
                   ("runs", "<i8")],
        )
        return (b"PTEM" + header.tobytes() + np.array(emb.iterations, "<i8").tobytes()
                + emb.points.tobytes())
    encounters = read_encounters_binary(path)
    ids = [enc_id.encode() for enc_id, _ in encounters]
    head = [len(ids), *(len(inter) for _, inter in encounters), *map(len, ids)]
    tables = [to_table(inter).tobytes() for _, inter in encounters]
    return b"PTEC" + np.array(head, "<i8").tobytes() + b"".join(ids) + b"".join(tables)


def test_earlier_layout_caches_are_rebuilt(workdir, tmp_path):
    out = str(tmp_path / "p")
    argv = (
        "cluster", "--method", "mds", "--input", os.path.join(workdir, "dataset.csv"),
        "--output-dir", out, "--set", "k=3", "--set", "n_init=2", "--set", "num_samples=31",
        "--seed", "3",
    )
    assert run(*argv) == 0
    model = sans_created(os.path.join(out, "model.json"))
    kinds = ("encounters", "distances", "embedding")
    paths = {kind: os.path.join(out, "cache", *cache_files(out, kind)) for kind in kinds}
    blobs = {}
    for kind, path in paths.items():
        with open(path, "rb") as handle:
            blobs[kind] = handle.read()
        old = earlier_layout(kind, path)
        assert old[:4] != blobs[kind][:4]
        with open(path, "wb") as handle:
            handle.write(old)
    assert run(*argv) == 0
    assert sans_created(os.path.join(out, "model.json")) == model
    for kind, path in paths.items():
        assert cache_files(out, kind) == [os.path.basename(path)]
        with open(path, "rb") as handle:
            assert handle.read() == blobs[kind]


def half_then_fail(path, *args, **kwargs):
    """A schema writer that fails inside the rows layout after one row."""

    def rows():
        yield "half\n"
        raise OSError("disk full")

    artifacts.write_rows(path, ("a",), rows())


class TestAtomicArtifacts:
    @pytest.mark.parametrize(
        "writer, command, artifact",
        [
            ("write_model_json", ("cluster", "--method", "mds", "--set", "k=3"), "model.json"),
            ("write_stability_csv", ("stability", "--method", "mds", "--grid", "k=2,3;beta=2"),
             "stability.csv"),
        ],
    )
    def test_failed_write_keeps_earlier_artifact(
        self, workdir, tmp_path, monkeypatch, writer, command, artifact
    ):
        out = str(tmp_path / "a")
        argv = (*command, "--input", os.path.join(workdir, "dataset.csv"),
                "--output-dir", out, "--set", "num_samples=31", "--seed", "3")
        assert run(*argv) == 0
        path = os.path.join(out, artifact)
        with open(path, "rb") as handle:
            before = handle.read()

        monkeypatch.setattr(cli, writer, half_then_fail)
        assert run(*argv) == 3
        with open(path, "rb") as handle:
            assert handle.read() == before
        assert not [name for name in os.listdir(out) if name.endswith(".tmp")]


class TestWassersteinTransfer:
    def test_model_vs_itself_is_zero(self, workdir, tmp_path):
        # no --input: wasserstein reads only --a and --b
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

    def test_model_at_another_num_samples_is_resampled(self, workdir, tmp_path):
        # the model was fitted at num_samples=31; the data is read at the default 101
        model_path = os.path.join(workdir, "model.json")
        dataset = os.path.join(workdir, "dataset.csv")
        out = str(tmp_path / "w")
        assert run(
            "wasserstein", "--a", model_path, "--b", dataset, "--output-dir", out, "--seed", "3",
        ) == 0
        with open(os.path.join(out, "wasserstein.json")) as handle:
            value = json.load(handle)["value"]
        model = read_model_json(model_path)
        reps = tuple(resample(rep, 101) for rep in model.representatives)
        data = [resample(inter, 101) for _, inter in read_encounters_csv(dataset)]
        expected = wasserstein(
            DiscreteMeasure(reps, model_measure(model).weights), empirical_measure(data)
        )
        assert value == expected

    def test_only_the_lp_imports_scipy_optimize(self, workdir, tmp_path):
        # two equal-size samples are matched without scipy.optimize, whose
        # import costs about half a second; a model-vs-data run still uses it
        other = str(tmp_path / "other")
        # GEN_ARGS ends with its seed, 3; this dataset is drawn with seed 4
        assert run(*GEN_ARGS[:-1], "4", "--output-dir", other) == 0
        dataset = os.path.join(workdir, "dataset.csv")
        common = f"'--output-dir', {str(tmp_path / 'w')!r}, '--set', 'num_samples=31'"
        script = (
            "import sys\n"
            "from pairtraj.cli import main\n"
            f"assert main(['wasserstein', '--a', {dataset!r},"
            f" '--b', {os.path.join(other, 'dataset.csv')!r}, {common}]) == 0\n"
            "print('scipy.optimize' in sys.modules)\n"
            f"assert main(['wasserstein', '--a', {os.path.join(workdir, 'model.json')!r},"
            f" '--b', {dataset!r}, {common}]) == 0\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(pairtraj.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        # each run also prints the path of its artifact
        assert [word for word in done.stdout.split() if word in ("False", "True")] == [
            "False", "True",
        ]

    def test_data_vs_data_above_600_atoms_leaves_scipy_optimize_out(self, tmp_path):
        # 601 atoms a side: from 601 up, scipy.optimize was imported to match them
        rng = np.random.default_rng(5)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for path in (a, b):
            write_encounters_csv(path, [(f"e{i}", random_interaction(rng, 9)) for i in range(601)])
        script = (
            "import sys\n"
            "from pairtraj.cli import main\n"
            f"assert main(['wasserstein', '--a', {a!r}, '--b', {b!r},"
            f" '--output-dir', {str(tmp_path / 'w')!r}, '--set', 'num_samples=9']) == 0\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(pairtraj.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=120,
        )
        assert done.stdout.split()[-1] == "False"
        with open(tmp_path / "w" / "wasserstein.json") as handle:
            assert json.load(handle)["value"] > 0

    def test_overflowing_ground_cost_exits_4(self, workdir, tmp_path, capsys):
        # distances near 1e150 to the power 3.5 overflow a double
        dataset = os.path.join(workdir, "dataset.csv")
        huge = [
            (enc_id, Interaction(*(Trajectory(c.samples * 1e150, c.grid) for c in (x.first, x.second))))
            for enc_id, x in read_encounters_csv(dataset)
        ]
        big = str(tmp_path / "big.csv")
        write_encounters_csv(big, huge)
        model = os.path.join(workdir, "model.json")
        for a in (model, dataset):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run(
                    "wasserstein", "--a", a, "--b", big, "--set", "r=3.5",
                    "--set", "num_samples=31", "--output-dir", str(tmp_path / "out"),
                )
            assert code == 4, a
            [line] = capsys.readouterr().err.splitlines()
            assert "ground cost" in line and "not finite" in line
        assert not os.path.exists(tmp_path / "out" / "wasserstein.json")

    @pytest.mark.parametrize("r", ["inf", "nan", "0.5"])
    def test_order_outside_one_to_inf_is_config_error(self, workdir, tmp_path, capsys, r):
        # r=inf made every cost x ** (1/inf) = 1, so a sample against itself read 1.0
        dataset = os.path.join(workdir, "dataset.csv")
        out = tmp_path / "out"
        code = run(
            "wasserstein", "--a", dataset, "--b", dataset, "--set", f"r={r}",
            "--set", "num_samples=31", "--output-dir", str(out),
        )
        assert code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"pairtraj: r must be finite and at least 1, got {float(r)}"
        assert not os.path.exists(out / "wasserstein.json")

    def test_underflowing_ground_cost_exits_4(self, tmp_path, capsys):
        # every distance below 1 to the power 400 is 0, which read 0.0 for two
        # different samples where r=2 reads 0.0274
        paths = []
        for seed in (1, 2):
            out = str(tmp_path / str(seed))
            assert run("generate", "--set", "per_family=4", "--seed", str(seed),
                       "--output-dir", out) == 0
            paths.append(os.path.join(out, "dataset.csv"))
        capsys.readouterr()
        code = run("wasserstein", "--a", paths[0], "--b", paths[1], "--set", "r=400",
                   "--output-dir", str(tmp_path / "out"))
        assert code == 4
        [line] = capsys.readouterr().err.splitlines()
        assert line == "pairtraj: ground cost: a positive distance to the power r=400.0 is 0"
        assert not os.path.exists(tmp_path / "out" / "wasserstein.json")

    def test_transfer_recovers_training_labels(self, workdir, tmp_path):
        dataset = os.path.join(workdir, "dataset.csv")
        out = str(tmp_path / "t")
        assert run(
            "transfer", "--primitives", os.path.join(workdir, "model.json"),
            "--input", dataset, "--output-dir", out,
            "--set", "num_samples=31", "--seed", "3",
        ) == 0
        rows = list(artifacts.rows(os.path.join(out, "transfer.csv"), TRANSFER_HEADER))
        model = read_model_json(os.path.join(workdir, "model.json"))
        # training points sit nearest their own cluster's representative here
        assert [int(label) for _, (_, label) in rows] == model.assignments.tolist()
        ids = read_encounters_csv(dataset)
        assert [enc_id for _, (enc_id, _) in rows] == [enc_id for enc_id, _ in ids]


def _segment_ids(path):
    """The encounter ids of segments.csv, in file order."""
    return list(dict.fromkeys(fields[0] for _, fields in artifacts.rows(path, SEGMENT_HEADER)))


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

    @pytest.mark.parametrize("epsilons", ["inf", "1,nan", "0"])
    def test_tolerances_must_be_finite_and_positive(self, tmp_path, capsys, epsilons):
        # inf pruned every cut and wrote "epsilon": Infinity, which is not JSON
        encounters, _ = make_encounter_dataset(4, count=2)
        dataset = str(tmp_path / "dataset.csv")
        write_encounters_csv(dataset, encounters)
        out = tmp_path / "seg"
        capsys.readouterr()
        code = run("segment", "--input", dataset, "--output-dir", str(out), "--set", f"epsilons={epsilons}")
        assert code == 2
        assert capsys.readouterr().err == "pairtraj: candidate tolerances must be finite and positive\n"
        assert not os.path.exists(out / "knots.json")

    def test_quoted_ids_round_trip(self, tmp_path):
        encounters, _ = make_encounter_dataset(4, count=2)
        ids = ["b,c", 'e"f']
        dataset = str(tmp_path / "dataset.csv")
        write_encounters_csv(dataset, [(i, inter) for i, (_, inter) in zip(ids, encounters)])
        assert [enc_id for enc_id, _ in read_encounters_csv(dataset)] == ids
        out = str(tmp_path / "seg")
        assert run("segment", "--input", dataset, "--output-dir", out, "--seed", "4") == 0
        assert _segment_ids(os.path.join(out, "segments.csv")) == ids

    def test_failed_write_keeps_earlier_artifact(self, tmp_path, monkeypatch):
        out = str(tmp_path / "seg")
        assert run(
            "generate", "--set", "kind=encounters", "--set", "count=1",
            "--set", "num_samples=121", "--seed", "4", "--output-dir", out,
        ) == 0
        argv = ("segment", "--input", os.path.join(out, "dataset.csv"),
                "--output-dir", out, "--seed", "4")
        assert run(*argv) == 0
        knots_path = os.path.join(out, "knots.json")
        with open(knots_path, "rb") as handle:
            before = handle.read()

        monkeypatch.setattr(cli, "write_knots_json", half_then_fail)
        assert run(*argv) == 3
        with open(knots_path, "rb") as handle:
            assert handle.read() == before
        assert not [name for name in os.listdir(out) if name.endswith(".tmp")]

    def test_non_ascii_ids_under_the_c_locale(self, tmp_path):
        # files are UTF-8 whatever the locale: a run under the plain C locale,
        # with Python's UTF-8 mode and locale coercion off, writes the same
        # bytes as one under C.UTF-8
        encounters, _ = make_encounter_dataset(4, count=2)
        dataset = str(tmp_path / "dataset.csv")
        write_encounters_csv(dataset, [(f"caf\u00e9-{i}", inter) for i, inter in encounters])
        src = os.path.dirname(os.path.dirname(pairtraj.__file__))
        files = {}
        for name, env in [
            ("c", {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}),
            ("utf8", {"LC_ALL": "C.UTF-8"}),
        ]:
            out = str(tmp_path / name)
            done = subprocess.run(
                [sys.executable, "-m", "pairtraj.cli", "segment", "--input", dataset,
                 "--output-dir", out, "--seed", "4"],
                env={**os.environ, **env, "PYTHONPATH": src}, capture_output=True,
            )
            assert done.returncode == 0, done.stderr
            files[name] = {
                os.path.relpath(os.path.join(root, leaf), out):
                    sans_created(os.path.join(root, leaf))
                for root, _, leaves in os.walk(out) for leaf in leaves
            }
        assert files["c"] == files["utf8"]
        assert len(files["c"]) == 3  # segments, knots and the encounter cache
        assert _segment_ids(tmp_path / "c" / "segments.csv") == [
            "caf\u00e9-enc-000", "caf\u00e9-enc-001"
        ]


def _pooled_input(path, count=20, num_samples=121, short=()):
    """An encounter CSV of `count` encounters, enough jobs for every worker;
    the encounters at the indices in `short` have 3 samples, too few to
    segment."""
    encounters, _ = make_encounter_dataset(5, count=count, num_samples=num_samples)
    encounters = [
        (enc_id, resample(inter, 3) if i in short else inter)
        for i, (enc_id, inter) in enumerate(encounters)
    ]
    write_encounters_csv(path, encounters)
    return str(path)


def _live(pid):
    """Whether `pid` runs and is no zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] not in "ZX"
    except OSError:
        return False


class TestSegmentPool:
    def test_segment_forks_from_the_main_thread_and_reaps(self, tmp_path, monkeypatch):
        # PR_SET_PDEATHSIG fires when the forking thread exits, so the workers
        # must come from the calling thread, not the executor's manager thread;
        # two CPUs seen make two workers whatever the host has
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        real_fork, forks = os.fork, []

        def fork():
            forks.append(threading.current_thread() is threading.main_thread())
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        dataset = _pooled_input(tmp_path / "enc.csv")
        assert run("segment", "--input", dataset, "--output-dir", str(tmp_path / "a")) == 0
        assert forks == [True, True]
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(os, "fork", real_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert run("segment", "--input", dataset, "--output-dir", str(tmp_path / "b")) == 0
        for name in ("segments.csv", "knots.json"):
            assert sans_created(tmp_path / "a" / name) == sans_created(tmp_path / "b" / name)

    def test_segment_without_an_affinity_mask_or_fork(self, tmp_path, monkeypatch):
        # os.sched_getaffinity is Linux-only, and some platforms cannot fork:
        # without the one the CPU count comes from os.cpu_count, without the
        # other every encounter is cut in this process, and the bytes hold
        dataset = _pooled_input(tmp_path / "enc.csv")
        assert run("segment", "--input", dataset, "--output-dir", str(tmp_path / "a")) == 0
        monkeypatch.delattr(os, "sched_getaffinity")
        assert run("segment", "--input", dataset, "--output-dir", str(tmp_path / "b")) == 0
        monkeypatch.delattr(os, "fork")
        assert run("segment", "--input", dataset, "--output-dir", str(tmp_path / "c")) == 0
        for name in ("segments.csv", "knots.json"):
            first = sans_created(tmp_path / "a" / name)
            assert sans_created(tmp_path / "b" / name) == first
            assert sans_created(tmp_path / "c" / name) == first

    def test_a_killed_worker_is_one_line_and_exit_4(self, tmp_path, capsys, monkeypatch):
        # as the kernel's out-of-memory killer would end it: no traceback,
        # and the artifacts of the earlier run stay as they were
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        dataset = _pooled_input(tmp_path / "enc.csv")
        out = tmp_path / "out"
        assert run("segment", "--input", dataset, "--output-dir", str(out)) == 0
        before = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
        capsys.readouterr()
        parent, real_segment_one = os.getpid(), cli._segment_one

        def killed_in_a_worker(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_segment_one(*args)

        monkeypatch.setattr(cli, "_segment_one", killed_in_a_worker)
        assert run("segment", "--input", dataset, "--output-dir", str(out)) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "pairtraj segment: a worker process was killed by SIGKILL"
            " before it sent its results\n"
        )
        assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_segment_names_the_first_short_encounter(self, tmp_path, capsys, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        dataset = _pooled_input(tmp_path / "enc.csv", short=(7, 13))
        assert run("segment", "--input", dataset, "--output-dir", str(tmp_path)) == 3
        err = capsys.readouterr().err
        assert dataset in err and "'enc-007'" in err and "at least 5 samples" in err
        assert "enc-013" not in err
        assert not os.path.exists(tmp_path / "segments.csv")
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or workers.cpu_count() < 2,
        reason="needs two CPUs in an affinity mask",
    )
    def test_segment_bytes_do_not_depend_on_processes_or_blas_threads(self, tmp_path):
        dataset = _pooled_input(tmp_path / "enc.csv")
        src = os.path.dirname(os.path.dirname(pairtraj.__file__))
        first_two = sorted(os.sched_getaffinity(0))[:2]
        files = {}
        for cpus in (first_two[:1], first_two):
            for blas in ("1", "2"):
                out = str(tmp_path / f"cpus{len(cpus)}-blas{blas}")
                launcher = (
                    f"import os, sys; os.sched_setaffinity(0, {cpus}); "
                    "from pairtraj.cli import main; sys.exit(main(sys.argv[1:]))"
                )
                done = subprocess.run(
                    [sys.executable, "-c", launcher, "segment", "--input", dataset,
                     "--output-dir", out, "--seed", "5"],
                    env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": blas},
                    capture_output=True,
                )
                assert done.returncode == 0, done.stderr
                files[out] = [sans_created(os.path.join(out, name))
                              for name in ("segments.csv", "knots.json")]
        first, *rest = files.values()
        assert all(other == first for other in rest)

    @pytest.mark.skipif(
        workers.cpu_count() < 2 or not os.path.exists(f"/proc/{os.getpid()}/task"),
        reason="needs two CPUs and Linux /proc",
    )
    def test_segment_workers_die_with_a_killed_cli(self, tmp_path):
        dataset = _pooled_input(tmp_path / "enc.csv", count=40, num_samples=501)
        src = os.path.dirname(os.path.dirname(pairtraj.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "pairtraj.cli", "segment", "--input", dataset,
             "--output-dir", str(tmp_path)],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        workers = []
        try:
            # the main thread's own children: the workers it forked
            children = f"/proc/{proc.pid}/task/{proc.pid}/children"
            deadline = time.monotonic() + 20
            while not workers and proc.poll() is None and time.monotonic() < deadline:
                with contextlib.suppress(OSError), open(children) as handle:
                    workers = [int(pid) for pid in handle.read().split()]
                time.sleep(0.005)
            assert workers, "no worker was forked before the run ended"
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 2
            while any(map(_live, workers)) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not any(map(_live, workers))
        finally:
            proc.kill()
            proc.wait()
            for pid in workers:
                with contextlib.suppress(OSError):
                    os.kill(pid, signal.SIGKILL)


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


# `--help` of the top level and of each subcommand at COLUMNS=80
HELP = {
    "": """\
usage: pairtraj [-h] [--version]
                {generate,segment,distances,cluster,evaluate,stability,wasserstein,transfer}
                ...

cluster paired-trajectory interactions and score the results

positional arguments:
  {generate,segment,distances,cluster,evaluate,stability,wasserstein,transfer}
    generate            write a synthetic dataset and its ground-truth
                        manifest
    segment             cut raw encounters at fitted change points
    distances           pairwise distance matrix with a binary cache
    cluster             fit one clustering method
    evaluate            quality report and silhouettes for a fitted model
    stability           stability statistic over a 2-axis parameter grid
    wasserstein         distance between two interaction distributions
    transfer            assign new interactions to existing primitives

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""",
    "generate": """\
usage: pairtraj generate [-h] [--config CONFIG] [--set KEY=VALUE]
                         [--input INPUT] [--output-dir OUTPUT_DIR]
                         [--seed SEED]

options:
  -h, --help            show this help message and exit
  --config CONFIG       key=value configuration file
  --set KEY=VALUE       override one config key (repeatable)
  --input INPUT         encounter CSV
  --output-dir OUTPUT_DIR
                        artifact directory
  --seed SEED           seed for all randomness
""",
    "segment": """\
usage: pairtraj segment [-h] [--config CONFIG] [--set KEY=VALUE]
                        [--input INPUT] [--output-dir OUTPUT_DIR]
                        [--seed SEED]

options:
  -h, --help            show this help message and exit
  --config CONFIG       key=value configuration file
  --set KEY=VALUE       override one config key (repeatable)
  --input INPUT         encounter CSV
  --output-dir OUTPUT_DIR
                        artifact directory
  --seed SEED           seed for all randomness
""",
    "distances": """\
usage: pairtraj distances [-h] [--config CONFIG] [--set KEY=VALUE]
                          [--input INPUT] [--output-dir OUTPUT_DIR]
                          [--seed SEED]

options:
  -h, --help            show this help message and exit
  --config CONFIG       key=value configuration file
  --set KEY=VALUE       override one config key (repeatable)
  --input INPUT         encounter CSV
  --output-dir OUTPUT_DIR
                        artifact directory
  --seed SEED           seed for all randomness
""",
    "cluster": """\
usage: pairtraj cluster [-h] [--config CONFIG] [--set KEY=VALUE]
                        [--input INPUT] [--output-dir OUTPUT_DIR]
                        [--seed SEED] [--method {mds,geo1,geo2,spline-coef}]

options:
  -h, --help            show this help message and exit
  --config CONFIG       key=value configuration file
  --set KEY=VALUE       override one config key (repeatable)
  --input INPUT         encounter CSV
  --output-dir OUTPUT_DIR
                        artifact directory
  --seed SEED           seed for all randomness
  --method {mds,geo1,geo2,spline-coef}
""",
    "evaluate": """\
usage: pairtraj evaluate [-h] [--config CONFIG] [--set KEY=VALUE]
                         [--input INPUT] [--output-dir OUTPUT_DIR]
                         [--seed SEED] --model MODEL

options:
  -h, --help            show this help message and exit
  --config CONFIG       key=value configuration file
  --set KEY=VALUE       override one config key (repeatable)
  --input INPUT         encounter CSV
  --output-dir OUTPUT_DIR
                        artifact directory
  --seed SEED           seed for all randomness
  --model MODEL         model.json path
""",
    "stability": """\
usage: pairtraj stability [-h] [--config CONFIG] [--set KEY=VALUE]
                          [--input INPUT] [--output-dir OUTPUT_DIR]
                          [--seed SEED] [--method {mds,geo1,geo2,spline-coef}]
                          [--grid GRID]

options:
  -h, --help            show this help message and exit
  --config CONFIG       key=value configuration file
  --set KEY=VALUE       override one config key (repeatable)
  --input INPUT         encounter CSV
  --output-dir OUTPUT_DIR
                        artifact directory
  --seed SEED           seed for all randomness
  --method {mds,geo1,geo2,spline-coef}
  --grid GRID           two sweep axes, like k=2,3,4;beta=2,3
""",
    "wasserstein": """\
usage: pairtraj wasserstein [-h] [--config CONFIG] [--set KEY=VALUE]
                            [--input INPUT] [--output-dir OUTPUT_DIR]
                            [--seed SEED] --a A --b B

options:
  -h, --help            show this help message and exit
  --config CONFIG       key=value configuration file
  --set KEY=VALUE       override one config key (repeatable)
  --input INPUT         encounter CSV
  --output-dir OUTPUT_DIR
                        artifact directory
  --seed SEED           seed for all randomness
  --a A                 model.json or encounter CSV
  --b B                 model.json or encounter CSV
""",
    "transfer": """\
usage: pairtraj transfer [-h] [--config CONFIG] [--set KEY=VALUE]
                         [--input INPUT] [--output-dir OUTPUT_DIR]
                         [--seed SEED] --primitives PRIMITIVES

options:
  -h, --help            show this help message and exit
  --config CONFIG       key=value configuration file
  --set KEY=VALUE       override one config key (repeatable)
  --input INPUT         encounter CSV
  --output-dir OUTPUT_DIR
                        artifact directory
  --seed SEED           seed for all randomness
  --primitives PRIMITIVES
                        model.json path
""",
}


class TestHelp:
    @pytest.mark.parametrize("command", sorted(HELP))
    def test_help_text(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as info:
            main([command, "--help"] if command else ["--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out == HELP[command]


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

    def test_workers_knob_is_gone(self, workdir, tmp_path):
        common = (
            "stability", "--input", os.path.join(workdir, "dataset.csv"),
            "--output-dir", str(tmp_path),
        )
        with pytest.raises(SystemExit) as info:
            main([*common, "--workers", "2"])
        assert info.value.code == 2
        assert run(*common, "--set", "workers=2") == 2
        assert not os.path.exists(tmp_path / "stability.csv")

    def test_unknown_config_key(self, tmp_path):
        assert run(
            "generate", "--set", "mystery=1", "--output-dir", str(tmp_path)
        ) == 2

    def test_set_without_equals(self, tmp_path):
        assert run("generate", "--set", "k", "--output-dir", str(tmp_path)) == 2

    def test_missing_input_is_config_error(self, tmp_path, capsys):
        for argv in (
            ("segment",), ("distances",), ("cluster", "--method", "mds"),
            ("evaluate", "--model", "model.json"), ("stability",),
            ("transfer", "--primitives", "model.json"),
        ):
            assert run(*argv, "--output-dir", str(tmp_path)) == 2, argv
            assert "no input file" in capsys.readouterr().err

    def test_unreadable_input_is_data_error(self, tmp_path):
        assert run(
            "cluster", "--method", "mds", "--input", str(tmp_path / "nope.csv"),
            "--output-dir", str(tmp_path),
        ) == 3

    def test_non_finite_input_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "inf.csv"
        path.write_text("encounter_id,t,x1,y1,x2,y2\na,0,1,2,3,4\na,1,inf,2,3,4\n")
        assert run("distances", "--input", str(path), "--output-dir", str(tmp_path)) == 3
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e-170, 1e155])
    @pytest.mark.parametrize(
        "argv, artifact",
        [(("distances",), "distances.csv"), (("cluster", "--method", "geo2", "--set", "k=3"), "model.json")],
        ids=["distances", "cluster-geo2"],
    )
    def test_coordinates_that_cannot_be_squared_exit_4(
        self, workdir, tmp_path, capsys, scale, argv, artifact
    ):
        # at 1e-170 every distance read 0.0 and the run exited 0; at 1e155
        # numpy warned four times before the run exited 2
        scaled = [
            (enc_id, Interaction(*(Trajectory(c.samples * scale, c.grid) for c in (x.first, x.second))))
            for enc_id, x in read_encounters_csv(os.path.join(workdir, "dataset.csv"))
        ]
        path, out = str(tmp_path / "scaled.csv"), tmp_path / "out"
        write_encounters_csv(path, scaled)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(*argv, "--input", path, "--output-dir", str(out), "--set", "num_samples=31")
        assert code == 4
        [line] = capsys.readouterr().err.splitlines()
        size = "small" if scale < 1 else "large"
        assert line.startswith(f"pairtraj: interaction 0: coordinates too {size} to square")
        assert not os.path.exists(out / artifact)

    def test_short_encounter_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        rows = [f"long,{t},{t},2,3,4" for t in range(8)] + [f"tiny,{t},1,2,3,4" for t in range(3)]
        path.write_text("encounter_id,t,x1,y1,x2,y2\n" + "\n".join(rows) + "\n")
        assert run("segment", "--input", str(path), "--output-dir", str(tmp_path)) == 3
        err = capsys.readouterr().err
        assert str(path) in err and "'tiny'" in err and "at least 5 samples" in err
        assert not os.path.exists(tmp_path / "segments.csv")

    def test_config_not_utf8_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfek = 3\n")
        assert run("cluster", "--config", str(cfg), "--output-dir", str(tmp_path)) == 2
        assert str(cfg) in capsys.readouterr().err

    def test_negative_seed_is_config_error(self, workdir, tmp_path, capsys):
        dataset = os.path.join(workdir, "dataset.csv")
        for argv in (
            ("generate", "--seed", "-1"),
            ("cluster", "--method", "geo2", "--input", dataset, "--seed", "-1"),
            ("stability", "--method", "geo2", "--input", dataset, "--set", "seed=-1"),
        ):
            assert run(*argv, "--output-dir", str(tmp_path)) == 2, argv
            assert capsys.readouterr().err == "pairtraj: seed must be nonnegative, got -1\n"
        assert os.listdir(tmp_path) == []

    def test_restarts_beyond_spawn_rejected(self, workdir, tmp_path, capsys):
        # never a count that could run: 10**30 is far past the bound
        code = run(
            "cluster", "--method", "geo2", "--input", os.path.join(workdir, "dataset.csv"),
            "--output-dir", str(tmp_path), "--set", f"n_init={10**30}",
        )
        assert code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert "n_init must be at most" in line
        assert not os.path.exists(tmp_path / "model.json")

    def test_restarts_past_the_bound_rejected(self, workdir, tmp_path, capsys, caplog):
        dataset = os.path.join(workdir, "dataset.csv")
        code = run(
            "cluster", "--method", "geo2", "--input", dataset,
            "--output-dir", str(tmp_path), "--set", "n_init=10001",
        )
        assert code == 2
        assert capsys.readouterr().err == "pairtraj: n_init must be at most 10000\n"
        assert not os.path.exists(tmp_path / "model.json")
        with caplog.at_level(logging.WARNING):
            assert run(
                "stability", "--method", "geo2", "--input", dataset, "--output-dir",
                str(tmp_path), "--grid", "k=2,3;n_init=2,10001", "--set", "num_samples=31",
            ) == 0
        [record] = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert "2 of 4 cell(s) missing (k=2 n_init=10001, k=3 n_init=10001)" in (
            record.getMessage()
        )

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


def launch(*args, cwd=None):
    """`python *args` on this package's source, its output captured."""
    src = os.path.dirname(os.path.dirname(pairtraj.__file__))
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": src}, cwd=cwd,
        capture_output=True, text=True, timeout=120,
    )


class TestProcessEntry:
    """`python -m pairtraj.cli` goes through `cli.run`, as the script does."""

    def test_version(self, tmp_path):
        done = launch("-m", "pairtraj.cli", "--version", cwd=tmp_path)
        assert (done.returncode, done.stdout, done.stderr) == (0, f"pairtraj {__version__}\n", "")

    def test_module_runs_the_entry(self):
        # what `-m pairtraj.cli` runs, with a hook that reports after it
        script = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
            "sys.argv = ['pairtraj', '--version']\n"
            "runpy.run_module('pairtraj.cli', run_name='__main__')\n"
        )
        done = launch("-c", script)
        assert (done.returncode, done.stdout.split()) == (0, ["pairtraj", __version__, "True"])

    @pytest.mark.parametrize("argv, code, err", [
        pytest.param((), 2, "pairtraj: error: the following arguments are required: command\n",
                     id="no-subcommand"),
        pytest.param(("cluster", "--method", "geo2"), 2,
                     "pairtraj: no input file; set input= in the config or pass --input\n",
                     id="no-input"),
        pytest.param(("cluster", "--method", "geo2", "--input", "missing.csv"), 3,
                     "pairtraj: cannot read missing.csv: [Errno 2] No such file or directory: "
                     "'missing.csv'\n",
                     id="missing-input"),
    ])
    def test_failures(self, tmp_path, argv, code, err):
        done = launch("-m", "pairtraj.cli", *argv, cwd=tmp_path)
        assert done.returncode == code
        # argparse prints its usage lines before the error line
        if argv:
            assert done.stderr == err
        else:
            assert done.stderr.startswith("usage: pairtraj") and done.stderr.endswith(err)
        assert "Traceback" not in done.stderr
        assert os.listdir(tmp_path) == []

    def test_run_freezes_after_import_and_on_exit(self):
        # main drops the first freeze and exits as argparse does; the atexit
        # hook runs after run's `finally`
        script = (
            "import atexit, gc, sys\n"
            "from pairtraj import cli\n"
            "print(gc.get_freeze_count())\n"
            "def main():\n"
            "    print(gc.get_freeze_count() > 0)\n"
            "    gc.unfreeze()\n"
            "    sys.exit(2)\n"
            "cli.main = main\n"
            "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
            "sys.exit(cli.run())\n"
        )
        done = launch("-c", script)
        assert (done.returncode, done.stdout.split(), done.stderr) == (2, ["0", "True", "True"], "")

    def test_main_leaves_the_collector_alone(self, workdir, tmp_path):
        frozen = gc.get_freeze_count()
        assert run(
            "distances", "--input", os.path.join(workdir, "dataset.csv"),
            "--output-dir", str(tmp_path), "--set", "num_samples=31",
        ) == 0
        with pytest.raises(SystemExit):
            main(["--version"])
        assert gc.get_freeze_count() == frozen and gc.isenabled()


# one layer per subcommand that every run of it reaches, cache hits included
FAULT_LAYERS = {
    "generate": "make_labeled_dataset",
    "segment": "segment_with_knots",
    "distances": "resample",
    "cluster": "fit",
    "evaluate": "quality",
    "stability": "stability_sweep",
    "wasserstein": "wasserstein",
    "transfer": "transfer_primitives",
}


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """An output directory holding every artifact and cache file of the whole
    chain, and each subcommand's argv into it."""
    out = str(tmp_path_factory.mktemp("faults") / "run")
    dataset, model = os.path.join(out, "dataset.csv"), os.path.join(out, "model.json")
    data = ("--input", dataset, "--output-dir", out, "--set", "num_samples=31")
    argvs = {
        "generate": (*GEN_ARGS, "--output-dir", out),
        "segment": ("segment", *data),
        "distances": ("distances", *data),
        "cluster": ("cluster", "--method", "mds", "--set", "k=3", *data),
        "evaluate": ("evaluate", "--model", model, *data),
        "stability": ("stability", "--method", "mds", "--grid", "k=2,3;beta=2", *data),
        "wasserstein": ("wasserstein", "--a", model, "--b", dataset, "--output-dir", out),
        "transfer": ("transfer", "--primitives", model, *data),
        "spline": ("cluster", "--method", "spline-coef", "--set", "k=3", *data),
    }
    for argv in argvs.values():
        assert run(*argv) == 0
    return out, argvs


def snapshot(out):
    """Every file under `out`, by relative path, with its bytes."""
    files = {}
    for root, _, leaves in os.walk(out):
        for leaf in leaves:
            with open(os.path.join(root, leaf), "rb") as handle:
                files[os.path.relpath(os.path.join(root, leaf), out)] = handle.read()
    return files


class TestFaultMatrix:
    @pytest.mark.parametrize("fault, code, line", [
        (MemoryError, 4, "out of memory"),
        (KeyboardInterrupt, 130, "interrupted"),
    ])
    @pytest.mark.parametrize("command", sorted(FAULT_LAYERS))
    def test_one_line_and_no_file_touched(
        self, chain, monkeypatch, capsys, command, fault, code, line
    ):
        out, argvs = chain
        before = snapshot(out)

        def fail(*args, **kwargs):
            raise fault

        monkeypatch.setattr(cli, FAULT_LAYERS[command], fail)
        capsys.readouterr()
        assert run(*argvs[command]) == code
        assert capsys.readouterr().err == f"pairtraj {command}: {line}\n"
        assert snapshot(out) == before

    def test_memory_error_detail_is_kept(self, chain, monkeypatch, capsys):
        out, argvs = chain

        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 72 MiB")

        monkeypatch.setattr(cli, "fit", fail)
        capsys.readouterr()
        assert run(*argvs["cluster"]) == 4
        assert capsys.readouterr().err == "pairtraj cluster: out of memory: Unable to allocate 72 MiB\n"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_a_real_allocation_failure_exits_4(self, tmp_path):
        # the CLI process caps its own address space 4 MiB above what it holds
        # once imported; `distances` at n=300 needs 12 MiB or more on top
        gen, out = str(tmp_path / "gen"), str(tmp_path / "out")
        assert run("generate", "--set", "per_family=100", "--seed", "2", "--output-dir", gen) == 0
        launcher = (
            "import resource, sys\n"
            "from pairtraj.cli import main\n"
            "with open('/proc/self/status') as status:\n"
            "    size = next(int(ln.split()[1]) * 1024 for ln in status if ln.startswith('VmSize:'))\n"
            "resource.setrlimit(resource.RLIMIT_AS, (size + 4 * 2**20, resource.RLIM_INFINITY))\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = os.path.dirname(os.path.dirname(pairtraj.__file__))
        done = subprocess.run(
            [sys.executable, "-c", launcher, "distances", "--input", f"{gen}/dataset.csv",
             "--output-dir", out],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 4, done.stderr
        assert re.fullmatch(r"pairtraj distances: out of memory(: [^\n]*)?\n", done.stderr)
        assert not os.path.exists(os.path.join(out, "distances.csv"))
        assert not [leaf for _, _, leaves in os.walk(out) for leaf in leaves if leaf.endswith(".tmp")]

    # a new seed misses the embedding cache, so the spectral start is computed;
    # every cubic fit solves through numpy's lstsq gufunc, held by segmentation
    @pytest.mark.parametrize("command, owner, solver", [
        pytest.param("cluster", np.linalg, "eigh", id="cluster-eigh"),
        pytest.param("segment", segmentation, "_gelsd", id="segment-lstsq"),
        pytest.param("spline", segmentation, "_gelsd", id="spline-lstsq"),
    ])
    def test_solver_failure_is_a_numerical_error(
        self, chain, monkeypatch, capsys, command, owner, solver
    ):
        out, argvs = chain
        before = snapshot(out)

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError(f"{solver} did not converge")

        monkeypatch.setattr(owner, solver, fail)
        capsys.readouterr()
        assert run(*argvs[command], "--seed", "11") == 4
        err = capsys.readouterr().err
        assert err.startswith("pairtraj: ") and err.count("\n") == 1
        assert f"{solver} did not converge" in err
        assert snapshot(out) == before
