"""Pipeline driver.

Subcommands: generate, segment, distances, cluster, evaluate, stability,
wasserstein, transfer.  Configuration comes from a flat key=value file
(--config) overridden by repeated --set key=value flags and the dedicated
flags; all randomness flows from the single seed.  Every artifact carries a
metadata header (tool version, seed, config hash, creation time) and lands in
the configured output directory.  Exit codes: 0 success, 2 configuration or
parameter error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .clustering import (
    METHODS,
    cluster_geo1,
    cluster_geo2,
    cluster_mds,
    cluster_spline_coef,
    read_model_json,
    write_model_json,
)
from .config import RunConfig, load_config
from .errors import (
    ConfigError,
    DataError,
    DegenerateFitError,
    InvalidInputError,
    NumericalError,
    PairtrajError,
)
from .evaluation import (
    quality,
    silhouette,
    stability_sweep,
    transfer_primitives,
    write_quality_json,
    write_silhouette_csv,
    write_stability_csv,
)
from .procrustes import (
    distance_matrix,
    read_matrix_binary,
    write_matrix_binary,
    write_matrix_csv,
)
from .segmentation import (
    Encounter,
    segment_with_knots,
    write_knots_json,
    write_segments_csv,
)
from .synthetic import make_encounter_dataset, make_labeled_dataset, within_between_ratio
from .trajectory import read_encounters_csv, resample, write_encounters_csv
from .transport import empirical_measure, model_measure, wasserstein


def _meta(config: RunConfig) -> dict:
    return {
        "tool_version": __version__,
        "seed": config.seed,
        "config_sha256": config.sha256(),
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _resolve_workers(config: RunConfig) -> int:
    return config.workers if config.workers > 0 else (os.cpu_count() or 1)


def _out_path(config: RunConfig, name: str) -> str:
    os.makedirs(config.output_dir, exist_ok=True)
    return os.path.join(config.output_dir, name)


def _require_input(config: RunConfig) -> None:
    if not config.input:
        raise ConfigError("no input file; set input= in the config or pass --input")


def _load_interactions(config: RunConfig, path=None):
    """Encounters resampled onto the common uniform grid, with their ids."""
    encounters = read_encounters_csv(path if path is not None else config.input)
    ids = [enc_id for enc_id, _ in encounters]
    data = [resample(inter, config.num_samples) for _, inter in encounters]
    return ids, data


def _matrix_for(config: RunConfig, data, normalize: bool):
    """Distance matrix, cached in binary form.

    The key covers the input bytes, T, `normalize` and the tool version, so a
    matrix from another kernel is never served.  The file is written under a
    temporary name and moved into place; an unreadable one is rebuilt.
    """
    digest = hashlib.sha256()
    with open(config.input, "rb") as handle:
        digest.update(handle.read())
    digest.update(
        f";T={config.num_samples};normalize={int(normalize)};version={__version__}".encode()
    )
    cache_dir = os.path.join(config.output_dir, "cache")
    os.makedirs(cache_dir, exist_ok=True)
    cache = os.path.join(cache_dir, f"distances-{digest.hexdigest()[:16]}.bin")
    if os.path.exists(cache):
        try:
            return read_matrix_binary(cache)
        except DataError:
            pass  # truncated or foreign: rebuild it below
    matrix = distance_matrix(data, normalize=normalize)
    partial = f"{cache}.{os.getpid()}.tmp"
    write_matrix_binary(partial, matrix)
    os.replace(partial, cache)
    return matrix


def _emit(path: str) -> None:
    print(path)


def cmd_generate(config: RunConfig, args) -> None:
    if config.kind == "families":
        encounters, manifest = make_labeled_dataset(
            config.seed,
            config.per_family,
            config.families,
            config.num_samples,
            config.noise,
        )
        labels = [
            list(config.families).index(entry["family"])
            for entry in manifest["encounters"].values()
        ]
        if len(config.families) > 1:
            ratio = within_between_ratio([inter for _, inter in encounters], labels)
            manifest["within_between_ratio"] = ratio
            if ratio > 0.1:
                raise NumericalError(
                    f"family separation check failed: within/between ratio {ratio:.3g}"
                )
    else:
        encounters, manifest = make_encounter_dataset(
            config.seed, config.count, config.knots, config.num_samples, config.box
        )
    csv_path = _out_path(config, "dataset.csv")
    write_encounters_csv(csv_path, encounters, meta=_meta(config))
    manifest_path = _out_path(config, "manifest.json")
    with open(manifest_path, "w") as handle:
        json.dump({"meta": _meta(config), **manifest}, handle, sort_keys=True, indent=2)
        handle.write("\n")
    _emit(csv_path)
    _emit(manifest_path)


def cmd_segment(config: RunConfig, args) -> None:
    _require_input(config)
    encounters = read_encounters_csv(config.input)
    epsilons = config.epsilons if config.epsilons else None
    segmented = []
    knot_entries = []
    for enc_id, inter in encounters:
        segments, knots = segment_with_knots(
            Encounter(enc_id, inter), epsilons, config.num_samples
        )
        segmented.append((enc_id, segments))
        knot_entries.append((enc_id, knots))
    seg_path = _out_path(config, "segments.csv")
    write_segments_csv(seg_path, segmented, meta=_meta(config))
    knots_path = _out_path(config, "knots.json")
    write_knots_json(knots_path, knot_entries, meta=_meta(config))
    _emit(seg_path)
    _emit(knots_path)


def cmd_distances(config: RunConfig, args) -> None:
    _require_input(config)
    ids, data = _load_interactions(config)
    matrix = _matrix_for(config, data, config.normalize)
    path = _out_path(config, "distances.csv")
    write_matrix_csv(path, matrix, meta={**_meta(config), "ids": ids})
    _emit(path)


def _fit_model(config: RunConfig, data, matrix):
    if config.method == "mds":
        return cluster_mds(
            data, matrix, config.beta, config.k, config.seed,
            config.n_init, config.max_iter,
        )
    if config.method == "geo1":
        return cluster_geo1(
            data, None, config.k, config.seed, config.anchor,
            config.n_init, config.max_iter,
        )
    if config.method == "geo2":
        return cluster_geo2(
            data, None, config.k, config.seed, config.n_init, config.max_iter
        )
    return cluster_spline_coef(
        data, config.k, config.seed, config.n_init, config.max_iter
    )


def cmd_cluster(config: RunConfig, args) -> None:
    _require_input(config)
    config.validate()
    ids, data = _load_interactions(config)
    # the objective contract needs raw distances, so the matrix for mds is
    # always unnormalized regardless of the distances-artifact flag
    matrix = _matrix_for(config, data, False) if config.method == "mds" else None
    model = _fit_model(config, data, matrix)
    path = _out_path(config, "model.json")
    write_model_json(path, model, meta={**_meta(config), "ids": ids})
    _emit(path)


def cmd_evaluate(config: RunConfig, args) -> None:
    _require_input(config)
    model = read_model_json(args.model)
    ids, data = _load_interactions(config)
    matrix = _matrix_for(config, data, False)
    report = quality(data, model, matrix)
    quality_path = _out_path(config, "quality.json")
    write_quality_json(quality_path, report, meta=_meta(config))
    sil = silhouette(matrix, model.assignments)
    sil_path = _out_path(config, "silhouette.csv")
    write_silhouette_csv(sil_path, ids, model.assignments, sil, meta=_meta(config))
    _emit(quality_path)
    _emit(sil_path)


def _sweep_values(values) -> tuple:
    # grid axes are mostly integer parameters (k, beta, anchor, ...)
    return tuple(int(v) if float(v).is_integer() else float(v) for v in values)


def cmd_stability(config: RunConfig, args) -> None:
    _require_input(config)
    config.validate()
    if args.grid:
        axes = args.grid.split(";")
        if len(axes) != 2:
            raise ConfigError("--grid needs two axes, like k=2,3,4;beta=2,3")
        for slot, axis in zip(("axis1", "axis2"), axes):
            name, _, values = axis.partition("=")
            if not name or not values:
                raise ConfigError(f"bad grid axis {axis!r}")
            config.set(slot, name)
            config.set(f"{slot}_values", values)
    ids, data = _load_interactions(config)
    matrix = _matrix_for(config, data, False)
    base = {"k": config.k, "n_init": config.n_init, "max_iter": config.max_iter}
    if config.method == "mds":
        base["beta"] = config.beta
    elif config.method == "geo1":
        base["anchor"] = config.anchor
    base.pop(config.axis1, None)
    base.pop(config.axis2, None)
    grid = stability_sweep(
        data,
        matrix,
        config.method,
        config.axis1,
        _sweep_values(config.axis1_values),
        config.axis2,
        _sweep_values(config.axis2_values),
        seed=config.seed,
        base=base,
        workers=_resolve_workers(config),
    )
    path = _out_path(config, "stability.csv")
    write_stability_csv(path, grid, meta={**_meta(config), "method": config.method})
    _emit(path)


def _measure_from(path, config: RunConfig):
    if str(path).endswith(".json"):
        return model_measure(read_model_json(path))
    _, data = _load_interactions(config, path)
    return empirical_measure(data)


def cmd_wasserstein(config: RunConfig, args) -> None:
    first = _measure_from(args.a, config)
    second = _measure_from(args.b, config)
    value = wasserstein(first, second, config.r)
    path = _out_path(config, "wasserstein.json")
    payload = {
        "meta": _meta(config),
        "a": str(args.a),
        "b": str(args.b),
        "r": config.r,
        "value": value,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")
    _emit(path)


TRANSFER_HEADER = ("id", "cluster")


def cmd_transfer(config: RunConfig, args) -> None:
    _require_input(config)
    model = read_model_json(args.primitives)
    ids, data = _load_interactions(config)
    assignments = transfer_primitives(data, list(model.representatives))
    path = _out_path(config, "transfer.csv")
    with open(path, "w", newline="") as handle:
        handle.write("# " + json.dumps(_meta(config), sort_keys=True) + "\n")
        handle.write(",".join(TRANSFER_HEADER) + "\n")
        for enc_id, label in zip(ids, assignments):
            handle.write(f"{enc_id},{int(label)}\n")
    _emit(path)


def read_transfer_csv(path) -> list[tuple[str, int]]:
    try:
        handle = open(path)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with handle:
        lines = [ln.rstrip("\n") for ln in handle if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0] != ",".join(TRANSFER_HEADER):
        raise DataError(f"{path}: bad transfer header")
    out = []
    for line in lines[1:]:
        enc_id, _, label = line.partition(",")
        try:
            out.append((enc_id, int(label)))
        except ValueError as exc:
            raise DataError(f"{path}: bad row {line!r}") from exc
    return out


_COMMANDS = {
    "generate": cmd_generate,
    "segment": cmd_segment,
    "distances": cmd_distances,
    "cluster": cmd_cluster,
    "evaluate": cmd_evaluate,
    "stability": cmd_stability,
    "wasserstein": cmd_wasserstein,
    "transfer": cmd_transfer,
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value configuration file")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override one config key (repeatable)")
    sub.add_argument("--input", help="encounter CSV")
    sub.add_argument("--output-dir", help="artifact directory")
    sub.add_argument("--seed", type=int, help="seed for all randomness")
    sub.add_argument("--workers", type=int,
                     help="threads for the stability cells (0 = all cores)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairtraj",
        description="cluster paired-trajectory interactions and score the results",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, text in [
        ("generate", "write a synthetic dataset and its ground-truth manifest"),
        ("segment", "cut raw encounters at fitted change points"),
        ("distances", "pairwise distance matrix with a binary cache"),
        ("cluster", "fit one clustering method"),
        ("evaluate", "quality report and silhouettes for a fitted model"),
        ("stability", "stability statistic over a 2-axis parameter grid"),
        ("wasserstein", "distance between two interaction distributions"),
        ("transfer", "assign new interactions to existing primitives"),
    ]:
        sub = subs.add_parser(name, help=text)
        _add_common(sub)
        if name == "cluster":
            sub.add_argument("--method", choices=METHODS)
        if name == "stability":
            sub.add_argument("--method", choices=METHODS)
            sub.add_argument("--grid", help="two sweep axes, like k=2,3,4;beta=2,3")
        if name == "evaluate":
            sub.add_argument("--model", required=True, help="model.json path")
        if name == "wasserstein":
            sub.add_argument("--a", required=True, help="model.json or encounter CSV")
            sub.add_argument("--b", required=True, help="model.json or encounter CSV")
        if name == "transfer":
            sub.add_argument("--primitives", required=True, help="model.json path")
    return parser


def _resolve_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    for pair in args.set:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ConfigError(f"--set needs KEY=VALUE, got {pair!r}")
        config.set(key.strip(), value)
    if args.input is not None:
        config.input = args.input
    if args.output_dir is not None:
        config.output_dir = args.output_dir
    if args.seed is not None:
        config.seed = args.seed
    if args.workers is not None:
        config.workers = args.workers
    if getattr(args, "method", None):
        config.method = args.method
    return config


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        _COMMANDS[args.command](config, args)
        return 0
    except ConfigError as exc:
        print(f"pairtraj: {exc}", file=sys.stderr)
        return 2
    except InvalidInputError as exc:
        print(f"pairtraj: {exc}", file=sys.stderr)
        return 2
    except (DegenerateFitError, NumericalError) as exc:
        print(f"pairtraj: {exc}", file=sys.stderr)
        return 4
    except DataError as exc:
        print(f"pairtraj: {exc}", file=sys.stderr)
        return 3
    except PairtrajError as exc:
        print(f"pairtraj: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"pairtraj: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
