"""The benchmark's workloads: seeded inputs, CLI chains and output checks.

Every workload builds its input CSVs from the seed with the package's own
synthetic generators, then runs a chain of `pairtraj` subcommands on them.
Each step runs from the run directory with relative paths, so two runs of a
chain in different directories must write byte-identical artifacts.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

import checks

FAMILIES = ("parallel", "opposing", "crossing")
T_FAMILY = 101
INPUTS = "../inputs"


@dataclass(frozen=True)
class Step:
    """One CLI launch; `role` names the end-to-end step metric it counts in."""

    role: str
    argv: tuple[str, ...]
    keep_model_as: str | None = None


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded beside its name in BENCHMARK.json."""

    # heavy step roles summed into core_s; the short steps count only in pipeline_s
    core_roles: tuple[str, ...]
    # wrapped functions that must fire at least once on this workload
    must_fire: tuple[str, ...]


def _write(path: str, encounters, seed: int) -> None:
    from pairtraj.trajectory import write_encounters_csv

    write_encounters_csv(path, encounters, meta={"seed": seed})


def _families(directory: str, name: str, seed: int, per_family: int) -> np.ndarray:
    from pairtraj.synthetic import make_labeled_dataset

    encounters, manifest = make_labeled_dataset(
        seed, per_family, FAMILIES, T_FAMILY, 0.01
    )
    _write(os.path.join(directory, name), encounters, seed)
    return np.array(
        [FAMILIES.index(manifest["encounters"][enc_id]["family"]) for enc_id, _ in encounters]
    )


# interactions per family in data.csv, and the stability grid of each fit
# workload; both are sized so that one run of a workload fits the
# benchmark's run length on a 2-core host
PER_FAMILY = {"fit-mds": 50, "fit-geo": 160}
GRIDS = {
    "fit-mds": ("mds", "k=2,3,4;beta=2"),
    "fit-geo": ("geo2", "k=2,3,4;n_init=4,8"),
}


def grid_cells(workload: str) -> int:
    """Number of cells in the workload's stability grid."""
    return math.prod(len(axis.split(",")) for axis in GRIDS[workload][1].split(";"))


SHORT_KNOTS = (40, 80)
LONG_KNOTS = (120, 260, 380)


def _encounters(directory: str, seed: int) -> None:
    from pairtraj.synthetic import make_encounter_dataset

    short, _ = make_encounter_dataset(seed, 64, SHORT_KNOTS, 121)
    long, _ = make_encounter_dataset(seed + 1, 8, LONG_KNOTS, 501)
    long = [(f"long-{i:03d}", inter) for i, (_, inter) in enumerate(long)]
    _write(os.path.join(directory, "encounters.csv"), short + long, seed)


def setup(workload: str, directory: str, seed: int) -> dict:
    """Write the workload's inputs into `directory`; returns the planted truth."""
    os.makedirs(directory, exist_ok=True)
    if workload == "segment-compare":
        _encounters(directory, seed)
        _families(directory, "a.csv", seed + 2, 50)
        _families(directory, "b.csv", seed + 3, 50)
        return {}
    labels = _families(directory, "data.csv", seed, PER_FAMILY[workload])
    _families(directory, "heldout.csv", seed + 1, 20)
    return {"labels": labels}


def steps(workload: str, seed: int) -> list[Step]:
    common = ("--output-dir", "out", "--seed", str(seed))
    data = ("--input", f"{INPUTS}/data.csv")
    k3 = ("--set", "k=3")
    if workload == "segment-compare":
        return [
            Step("segment", ("segment", "--input", f"{INPUTS}/encounters.csv", *common)),
            Step(
                "wasserstein",
                ("wasserstein", "--a", f"{INPUTS}/a.csv", "--b", f"{INPUTS}/b.csv", *common),
            ),
        ]
    if workload == "fit-mds":
        fits = [Step("cluster", ("cluster", "--method", "mds", *k3, *data, *common), "model-mds.json")]
    else:
        fits = [
            Step("cluster", ("cluster", "--method", m, *k3, *data, *common), f"model-{m}.json")
            for m in ("geo1", "spline-coef", "geo2")
        ]
    method, grid = GRIDS[workload]
    return [
        Step("distances", ("distances", *data, *common)),
        *fits,
        Step("short", ("evaluate", "--model", "out/model.json", *data, *common)),
        Step("stability", ("stability", "--method", method, "--grid", grid, *data, *common)),
        Step(
            "short",
            ("wasserstein", "--a", "out/model.json", "--b", f"{INPUTS}/data.csv", *common),
        ),
        Step(
            "short",
            ("transfer", "--primitives", "out/model.json", "--input",
             f"{INPUTS}/heldout.csv", *common),
        ),
    ]


_FIT_FIRES = (
    "trajectory.read_encounters_csv",
    "trajectory.resample",
    "procrustes.distance_matrix",
    "procrustes.cross_distance_matrix",
    "evaluation.stability_sweep",
    "evaluation.quality",
    "evaluation.silhouette",
    "evaluation.transfer_primitives",
    "transport.ground_cost",
    "transport.wasserstein",
    "cli.read_matrix_binary",
    "cli.write_matrix_binary",
)

WORKLOADS = {
    "fit-mds": Workload(
        core_roles=("cluster", "stability"),
        must_fire=_FIT_FIRES + ("mds.embed", "clustering.cluster_mds"),
    ),
    "fit-geo": Workload(
        core_roles=("distances", "cluster", "stability"),
        must_fire=_FIT_FIRES
        + (
            "procrustes.align",
            "clustering.cluster_geo1",
            "clustering.cluster_geo2",
            "clustering.cluster_spline_coef",
        ),
    ),
    "segment-compare": Workload(
        core_roles=("segment",),
        must_fire=(
            "trajectory.read_encounters_csv",
            "trajectory.resample",
            "procrustes.cross_distance_matrix",
            "transport.ground_cost",
            "transport.wasserstein",
            "segmentation.combined_candidates",
            "segmentation.select_tolerance",
            "segmentation.prune_change_points",
        ),
    ),
}


# spline-coef clusters raw cubic coefficients without rigid alignment, so it
# cannot recover families from randomly rotated copies; criterion 7 of the
# acceptance suite holds only these three routes to planted recovery
RECOVERING = ("mds", "geo1", "geo2")


class Tally:
    """Counts output checks; failures are named on stderr by the caller."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _check_distances(tally: Tally, run_dir: str, seed: int) -> None:
    ids, matrix = checks.read_matrix_csv(os.path.join(run_dir, "out", "distances.csv"))
    ref_ids, curves = checks.read_csv_curves(
        os.path.join(run_dir, INPUTS, "data.csv"), T_FAMILY
    )
    tally.check(ids == ref_ids, "distances.csv ids follow the input order")
    z, w = checks.complex_centred(curves)
    rng = np.random.default_rng(seed)
    n = len(ids)
    for _ in range(64):
        i, j = rng.choice(n, size=2, replace=False)
        ref = checks.reference_distances(z[i], z[j : j + 1], w)[0]
        tally.check(
            checks.rel_close(matrix[i, j], ref, 1e-9),
            f"distances.csv[{i},{j}]={matrix[i, j]!r} vs reference {ref!r}",
        )


def _check_fit(tally: Tally, run_dir: str, truth: dict, seed: int, cells: int, models) -> None:
    out = os.path.join(run_dir, "out")
    _check_distances(tally, run_dir, seed)
    for name in models:
        with open(os.path.join(out, name)) as handle:
            model = json.load(handle)
        rate = checks.best_match_rate(model["assignments"], truth["labels"], model["k"])
        tally.check(rate == 1.0, f"{name} recovers the planted labels (match {rate:.4f})")
    values = [float(v) for v in checks.read_csv_column(os.path.join(out, "stability.csv"), "value")]
    tally.check(
        len(values) == cells and not any(np.isnan(values)), "stability.csv has no NaN cells"
    )
    sil = [float(v) for v in checks.read_csv_column(os.path.join(out, "silhouette.csv"), "silhouette")]
    tally.check(
        len(sil) == len(truth["labels"]) and all(-1.0 <= s <= 1.0 for s in sil),
        "silhouettes lie in [-1, 1]",
    )
    with open(os.path.join(out, "wasserstein.json")) as handle:
        value = json.load(handle)["value"]
    tally.check(
        isinstance(value, float) and np.isfinite(value) and value >= 0.0,
        f"model-vs-data wasserstein is finite and >= 0 ({value!r})",
    )
    transfer = checks.read_csv_column(os.path.join(out, "transfer.csv"), "cluster")
    tally.check(
        len(transfer) == 3 * 20 and all(v in {"0", "1", "2"} for v in transfer),
        "transfer.csv labels every held-out interaction",
    )


def _check_segment_compare(tally: Tally, run_dir: str) -> None:
    out = os.path.join(run_dir, "out")
    with open(os.path.join(out, "knots.json")) as handle:
        found = {k: v["knots"] for k, v in json.load(handle)["encounters"].items()}
    short = [k for k in found if k.startswith("enc-")]
    hits = sum(checks.knots_match(found[k], SHORT_KNOTS) for k in short)
    tally.check(
        len(short) == 64 and hits >= 0.9 * len(short),
        f"planted knots recovered within +-2 on {hits}/{len(short)} T=121 encounters",
    )
    long = [k for k in found if k.startswith("long-")]
    tally.check(len(long) == 8, "knots.json covers the 8 T=501 encounters")
    for k in long:
        knots = found[k]
        tally.check(
            all(0 < p < 500 for p in knots) and all(a < b for a, b in zip(knots, knots[1:])),
            f"{k}: interior knots strictly increasing ({knots})",
        )

    from scipy.optimize import linear_sum_assignment

    _, left = checks.read_csv_curves(os.path.join(run_dir, INPUTS, "a.csv"), T_FAMILY)
    _, right = checks.read_csv_curves(os.path.join(run_dir, INPUTS, "b.csv"), T_FAMILY)
    zl, w = checks.complex_centred(left)
    zr, _ = checks.complex_centred(right)
    cost = checks.reference_cross(zl, zr, w) ** 2
    rows, cols = linear_sum_assignment(cost)
    ref = float(np.sqrt(cost[rows, cols].mean()))
    with open(os.path.join(out, "wasserstein.json")) as handle:
        value = json.load(handle)["value"]
    tally.check(
        checks.rel_close(value, ref, 1e-9),
        f"data-vs-data wasserstein {value!r} vs assignment optimum {ref!r}",
    )


def check_outputs(workload: str, tally: Tally, run_dir: str, truth: dict, seed: int) -> None:
    """Run every output check of the workload on the artifacts under run_dir/out."""
    try:
        if workload == "segment-compare":
            _check_segment_compare(tally, run_dir)
        else:
            models = [
                s.keep_model_as
                for s in steps(workload, seed)
                if s.keep_model_as and s.argv[2] in RECOVERING
            ]
            _check_fit(tally, run_dir, truth, seed, grid_cells(workload), models)
    except (OSError, ValueError, KeyError) as exc:
        tally.check(False, f"artifacts unreadable: {exc!r}")
