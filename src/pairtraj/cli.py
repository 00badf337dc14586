"""Pipeline driver: one subcommand per entry of `_COMMANDS`.

Configuration comes from a flat key=value file (--config) overridden by
repeated --set key=value flags and the dedicated flags; all randomness flows
from the single seed.  Every artifact carries a metadata header (tool
version, seed, config hash, creation time) and lands in the configured output
directory through `pairtraj.artifacts`: UTF-8 whatever the locale, written
under a temporary name and moved into place, so a failed write leaves the
earlier file intact.

The output directory's `cache/` holds parsed encounter CSVs, keyed by the
file's bytes and the tool version, so each input is parsed once per output
directory; distance matrices, keyed by the input bytes, T, `normalize` and
the tool version; and MDS embeddings, keyed by the matrix entries, beta,
seed, the SMACOF constants and the tool version, so `cluster` and
`stability` share one embedding per (matrix, beta, seed).  Cache files are
written atomically and rebuilt when unreadable.

Four subcommands map jobs over `workers.fork_map`, which forks up to one
worker per CPU in the affinity mask (`workers.cpu_count`) once it has two
jobs: `distances` formats its distances.csv lines that way; `segment` cuts
its encounters and formats their segments.csv lines that way, streaming
them to the file in input order; `cluster --method mds` and `stability
--method mds` run the SMACOF runs of each embedding that way; and
`stability` with any other method fits its grid cells that way.  An mds
stability grid's cells stay in this process.  From 2^16 pairs up, every
distance matrix computed runs its row blocks on one thread per CPU.  Each
job's result is deterministic, so every artifact is the same bytes at any
CPU count.  Python 3.12 and later emit a DeprecationWarning when a process
holding OpenBLAS threads forks.

Exit codes: 0 success, 2 configuration or parameter error, 3 data error,
4 numerical failure, out of memory or a killed worker process, 130
interrupted (Ctrl-C).  Each failure prints one line on stderr and no
traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from contextlib import suppress
from datetime import datetime, timezone

from . import __version__, mds
from .artifacts import file_sha256, malformed, write_json, write_rows
from .clustering import METHODS, fit, read_model_json, tuning_parameters, write_model_json
# not used here; bench/layers.py patches these names when it traces a run
from .clustering import cluster_geo1, cluster_geo2, cluster_mds  # noqa: F401
from .clustering import cluster_spline_coef  # noqa: F401
from .evaluation import silhouette  # noqa: F401
from .config import RunConfig, load_config
from .errors import ConfigError, DataError, NumericalError, PairtrajError
from .evaluation import (
    quality,
    stability_sweep,
    transfer_primitives,
    write_quality_json,
    write_silhouette_csv,
    write_stability_csv,
    write_transfer_csv,
)
from .mds import read_embedding_binary, write_embedding_binary
from .procrustes import (
    distance_matrix,
    read_matrix_binary,
    write_matrix_binary,
    write_matrix_csv,
)
from .segmentation import (
    SEGMENT_HEADER,
    Encounter,
    segment_rows,
    segment_with_knots,
    write_knots_json,
)
from .synthetic import make_encounter_dataset, make_labeled_dataset, within_between_ratio
from .trajectory import (
    read_encounters_binary,
    read_encounters_csv,
    resample,
    write_encounters_binary,
    write_encounters_csv,
)
from .transport import DiscreteMeasure, empirical_measure, model_measure, wasserstein
from .workers import WorkerDied, fork_map


def _meta(config: RunConfig) -> dict:
    return {
        "tool_version": __version__,
        "seed": config.seed,
        "config_sha256": config.sha256(),
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _load_interactions(config: RunConfig, path=None):
    """Encounters resampled onto the common uniform grid, their ids, and the
    sha256 of the input's bytes."""
    encounters, digest = _read_input(config, path if path is not None else config.input)
    ids = [enc_id for enc_id, _ in encounters]
    data = [resample(inter, config.num_samples) for _, inter in encounters]
    return ids, data, digest


def _out(config: RunConfig, name: str) -> str:
    """The path of `name` under the output directory, its directory created."""
    path = os.path.join(config.output_dir, name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def _cached(config: RunConfig, kind: str, digest, read, build, write):
    """`read` the file `cache/<kind>-<key>.bin`, or `build()` and store it.

    The key is `digest` (left as it is) with the tool version appended.  A
    file that `read` rejects with DataError (missing, truncated or foreign)
    is rebuilt and written with `write(path, value)`; a `build` that raises
    writes nothing.
    """
    key = digest.copy()
    key.update(f";version={__version__}".encode())
    path = _out(config, os.path.join("cache", f"{kind}-{key.hexdigest()[:16]}.bin"))
    with suppress(DataError):  # rebuilt and overwritten below
        return read(path)
    value = build()
    write(path, value)
    return value


def _read_input(config: RunConfig, path):
    """The encounters of the CSV at `path`, cached, and the sha256 of its bytes.

    The key covers the bytes and the tool version, so each input is parsed
    once per output directory; a hit still runs every constructor check.
    """
    digest = file_sha256(path)
    encounters = _cached(
        config, "encounters", digest, read_encounters_binary,
        lambda: read_encounters_csv(path), write_encounters_binary,
    )
    return encounters, digest


def _matrix_for(config: RunConfig, input_digest, data, normalize: bool):
    """Distance matrix, cached; the key covers the input bytes (`input_digest`,
    from `_read_input`), T, `normalize` and the tool version, so a matrix from
    another kernel is never served."""
    digest = input_digest.copy()
    digest.update(f";T={config.num_samples};normalize={int(normalize)}".encode())
    return _cached(
        config, "distances", digest, read_matrix_binary,
        lambda: distance_matrix(data, normalize=normalize), write_matrix_binary,
    )


def _embedder(config: RunConfig):
    """`mds.embed` behind the cache, keyed by the matrix entries, beta, seed,
    `mds.cache_tag()` and the tool version, so `cluster` and `stability`
    share one embedding per (matrix, beta, seed)."""

    def embed(matrix, beta, seed):
        digest = hashlib.sha256(matrix.entries.astype("<f8").tobytes())
        digest.update(f";beta={beta};seed={seed}{mds.cache_tag()}".encode())
        return _cached(
            config, "embedding", digest, read_embedding_binary,
            lambda: mds.embed(matrix, beta, seed), write_embedding_binary,
        )

    return embed


def cmd_generate(config: RunConfig, args) -> None:
    if config.kind == "families":
        encounters, manifest = make_labeled_dataset(
            config.seed, config.per_family, config.families, config.num_samples, config.noise
        )
        families = list(config.families)
        labels = [families.index(entry["family"]) for entry in manifest["encounters"].values()]
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
    meta = _meta(config)
    csv_path = _out(config, "dataset.csv")
    write_encounters_csv(csv_path, encounters, meta=meta)
    manifest_path = _out(config, "manifest.json")
    write_json(manifest_path, manifest, meta)
    print(csv_path, manifest_path, sep="\n")


def _segment_one(where, enc_id, inter, epsilons, num_samples):
    """The segments.csv lines and the knots of one raw encounter of the input
    `where`."""
    with malformed(f"{where}: encounter {enc_id!r}"):
        encounter = Encounter(enc_id, inter)
    segments, knots = segment_with_knots(encounter, epsilons, num_samples)
    return segment_rows(enc_id, segments), knots


def cmd_segment(config: RunConfig, args) -> None:
    encounters, _ = _read_input(config, config.input)
    epsilons = config.epsilons if config.epsilons else None
    knots = []  # (id, knots) of each encounter cut so far

    def lines():
        """The segments.csv lines of every encounter, cut on `workers.fork_map`
        so the workers format them too, in input order; the error of the
        first failing encounter is raised."""
        results = fork_map(
            lambda encounter: _segment_one(config.input, *encounter, epsilons, config.num_samples),
            encounters,
        )
        for (enc_id, _), (rows, enc_knots) in zip(encounters, results):
            knots.append((enc_id, enc_knots))
            yield from rows

    meta = _meta(config)
    seg_path = _out(config, "segments.csv")
    write_rows(seg_path, SEGMENT_HEADER, lines(), meta)
    knots_path = _out(config, "knots.json")
    write_knots_json(knots_path, knots, meta=meta)
    print(seg_path, knots_path, sep="\n")


def cmd_distances(config: RunConfig, args) -> None:
    ids, data, digest = _load_interactions(config)
    matrix = _matrix_for(config, digest, data, config.normalize)
    path = _out(config, "distances.csv")
    write_matrix_csv(path, matrix, meta={**_meta(config), "ids": ids})
    print(path)


def _route_params(config: RunConfig) -> dict:
    """The RunConfig values of the tuning parameters of `config.method`'s route."""
    values = vars(config)
    return {name: values[name] for name in tuning_parameters(config.method) if name in values}


def cmd_cluster(config: RunConfig, args) -> None:
    ids, data, digest = _load_interactions(config)
    # the objective contract needs raw distances, so the matrix for mds is
    # always unnormalized regardless of the distances-artifact flag
    matrix = _matrix_for(config, digest, data, False) if config.method == "mds" else None
    model = fit(
        config.method, data, matrix, seed=config.seed, embed=_embedder(config),
        **_route_params(config),
    )
    path = _out(config, "model.json")
    write_model_json(path, model, meta={**_meta(config), "ids": ids})
    print(path)


def cmd_evaluate(config: RunConfig, args) -> None:
    model = read_model_json(args.model)
    ids, data, digest = _load_interactions(config)
    matrix = _matrix_for(config, digest, data, False)
    report = quality(data, model, matrix)
    meta = _meta(config)
    quality_path = _out(config, "quality.json")
    write_quality_json(quality_path, report, meta=meta)
    sil_path = _out(config, "silhouette.csv")
    write_silhouette_csv(sil_path, ids, model.assignments, report.silhouettes, meta)
    print(quality_path, sil_path, sep="\n")


def _sweep_values(values) -> tuple:
    # grid axes are mostly integer parameters (k, beta, anchor, ...)
    return tuple(int(v) if float(v).is_integer() else float(v) for v in values)


def cmd_stability(config: RunConfig, args) -> None:
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
    _, data, digest = _load_interactions(config)
    matrix = _matrix_for(config, digest, data, False)
    grid = stability_sweep(
        data, matrix, config.method,
        config.axis1, _sweep_values(config.axis1_values),
        config.axis2, _sweep_values(config.axis2_values),
        seed=config.seed, base=_route_params(config), embed=_embedder(config),
    )
    path = _out(config, "stability.csv")
    write_stability_csv(path, grid, {**_meta(config), "method": config.method})
    print(path)


def _measure_from(path, config: RunConfig):
    if str(path).endswith(".json"):
        return model_measure(read_model_json(path))
    _, data, _ = _load_interactions(config, path)
    return empirical_measure(data)


def cmd_wasserstein(config: RunConfig, args) -> None:
    sides = [_measure_from(path, config) for path in (args.a, args.b)]
    T = config.num_samples
    if len({len(side.atoms[0]) for side in sides}) > 1:
        # a model fitted at another num_samples is resampled onto this one
        sides = [
            DiscreteMeasure([a if len(a) == T else resample(a, T) for a in s.atoms], s.weights)
            for s in sides
        ]
    value = wasserstein(*sides, config.r)
    payload = {"a": str(args.a), "b": str(args.b), "r": config.r, "value": value}
    path = _out(config, "wasserstein.json")
    write_json(path, payload, _meta(config))
    print(path)


def cmd_transfer(config: RunConfig, args) -> None:
    model = read_model_json(args.primitives)
    ids, data, _ = _load_interactions(config)
    assignments = transfer_primitives(data, list(model.representatives))
    path = _out(config, "transfer.csv")
    write_transfer_csv(path, ids, assignments, meta=_meta(config))
    print(path)


_COMMON_FLAGS = {
    "--config": {"help": "key=value configuration file"},
    "--set": {"action": "append", "default": [], "metavar": "KEY=VALUE",
              "help": "override one config key (repeatable)"},
    "--input": {"help": "encounter CSV"},
    "--output-dir": {"help": "artifact directory"},
    "--seed": {"type": int, "help": "seed for all randomness"},
}
_METHOD = {"choices": METHODS}
_MODEL = {"required": True, "help": "model.json path"}
_MEASURE = {"required": True, "help": "model.json or encounter CSV"}

# each subcommand: its function, its help line, whether it needs an input
# file, and its flags beside _COMMON_FLAGS
_COMMANDS = {
    "generate": (cmd_generate, "write a synthetic dataset and its ground-truth manifest",
                 False, {}),
    "segment": (cmd_segment, "cut raw encounters at fitted change points", True, {}),
    "distances": (cmd_distances, "pairwise distance matrix with a binary cache", True, {}),
    "cluster": (cmd_cluster, "fit one clustering method", True, {"--method": _METHOD}),
    "evaluate": (cmd_evaluate, "quality report and silhouettes for a fitted model", True,
                 {"--model": _MODEL}),
    "stability": (cmd_stability, "stability statistic over a 2-axis parameter grid", True,
                  {"--method": _METHOD,
                   "--grid": {"help": "two sweep axes, like k=2,3,4;beta=2,3"}}),
    "wasserstein": (cmd_wasserstein, "distance between two interaction distributions", False,
                    {"--a": _MEASURE, "--b": _MEASURE}),
    "transfer": (cmd_transfer, "assign new interactions to existing primitives", True,
                 {"--primitives": _MODEL}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairtraj",
        description="cluster paired-trajectory interactions and score the results",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, _, flags) in _COMMANDS.items():
        sub = subs.add_parser(name, help=text)
        for flag, options in {**_COMMON_FLAGS, **flags}.items():
            sub.add_argument(flag, **options)
    return parser


def _resolve_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    for pair in args.set:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ConfigError(f"--set needs KEY=VALUE, got {pair!r}")
        config.set(key.strip(), value)
    for key in ("input", "output_dir", "seed", "method"):
        if getattr(args, key, None) is not None:
            setattr(config, key, getattr(args, key))
    return config


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command, _, needs_input, _ = _COMMANDS[args.command]
    try:
        config = _resolve_config(args)
        config.validate()
        if needs_input and not config.input:
            raise ConfigError("no input file; set input= in the config or pass --input")
        command(config, args)
        return 0
    except PairtrajError as exc:
        print(f"pairtraj: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"pairtraj: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"pairtraj {args.command}: out of memory{detail}", file=sys.stderr)
        return 4
    except WorkerDied as exc:
        print(f"pairtraj {args.command}: {exc}", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        print(f"pairtraj {args.command}: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
