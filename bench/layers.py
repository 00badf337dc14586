"""Which program functions the traced run wraps, and the per-layer metrics.

Layers are the modules of `src/pairtraj/`.  Each function is wrapped at the
module attribute where its caller looks it up: `cli` imports most public
functions by name, `cluster_mds` imports `mds.embed` at call time, and
`evaluation._RUNNERS` binds the clustering routes when it is imported, so the
stability cells are reached only through that dict.

Which end-to-end metric each layer should move, and where it works most:

    trajectory    pipeline_s               fit-geo (8 reads of 48 480 rows)
    procrustes    core_s via distances     fit-geo; cross matrices in segment-compare
    mds           core_s via cluster and stability                  fit-mds
    clustering    core_s via cluster       geo routes in fit-geo, mds in fit-mds
    evaluation    core_s via stability; pipeline_s via evaluate and transfer
    transport     pipeline_s, peak_rss_mb  segment-compare (150x150 LP)
    segmentation  core_s via segment       segment-compare
    cli           import_x, pipeline_s     fit-geo (8 launches)
"""

from __future__ import annotations

import spans


def instrument(recorder: spans.Recorder, patches: spans.Patches) -> None:
    """Wrap every traced boundary of the imported package."""
    from pairtraj import cli, clustering, evaluation, mds, procrustes, segmentation, transport

    def wrap(owner, attr: str, name: str, on_result=None) -> None:
        patches.attr(owner, attr, recorder.wrap(name, getattr(owner, attr), on_result))

    def rows(args, kwargs, result):
        recorder.count("trajectory.read_encounters_csv.rows", sum(len(i) for _, i in result))

    def full_pairs(args, kwargs, result):
        recorder.count("procrustes.distance_matrix.pairs", result.n * (result.n - 1) / 2)

    def cross_pairs(args, kwargs, result):
        recorder.count("procrustes.cross_distance_matrix.pairs", result.size)

    def stress(args, kwargs, result):
        total = float((args[0].entries ** 2).sum())
        recorder.record_max("mds.embed.stress_rel", result.stress / total if total else 0.0)

    def geo2_iterations(args, kwargs, result):
        recorder.count("clustering.cluster_geo2.iterations", len(result.objective_history))

    def cells(args, kwargs, result):
        recorder.count("evaluation.stability_sweep.cells", result.values.size)
        recorder.count("evaluation.stability_sweep.cells_missing", int(result.missing.sum()))

    def lp_size(args, kwargs, result):
        m, n = len(args[0]), len(args[1])
        recorder.record_max("transport.lp.vars", m * n)
        recorder.record_max("transport.lp.eq_bytes_computed", 8 * (m + n - 1) * m * n)

    def candidates(args, kwargs, result):
        recorder.count("segmentation.candidates", len(result))

    def knots(args, kwargs, result):
        recorder.count("segmentation.knots", len(result[1]))

    wrap(cli, "read_encounters_csv", "trajectory.read_encounters_csv", rows)
    for owner in (cli, segmentation, evaluation):
        wrap(owner, "resample", "trajectory.resample")

    wrap(cli, "distance_matrix", "procrustes.distance_matrix", full_pairs)
    for owner in (evaluation, transport):
        wrap(owner, "cross_distance_matrix", "procrustes.cross_distance_matrix", cross_pairs)
    wrap(clustering, "align", "procrustes.align")

    wrap(mds, "embed", "mds.embed", stress)

    for method, attr in (
        ("mds", "cluster_mds"),
        ("geo1", "cluster_geo1"),
        ("geo2", "cluster_geo2"),
        ("spline-coef", "cluster_spline_coef"),
    ):
        on_result = geo2_iterations if method == "geo2" else None
        traced = recorder.wrap(f"clustering.{attr}", getattr(clustering, attr), on_result)
        patches.attr(cli, attr, traced)
        patches.item(evaluation._RUNNERS, method, traced)

    wrap(cli, "stability_sweep", "evaluation.stability_sweep", cells)
    wrap(cli, "quality", "evaluation.quality")
    for owner in (cli, evaluation):
        wrap(owner, "silhouette", "evaluation.silhouette")
    wrap(cli, "transfer_primitives", "evaluation.transfer_primitives")

    wrap(transport, "ground_cost", "transport.ground_cost")
    wrap(cli, "wasserstein", "transport.wasserstein", lp_size)

    wrap(segmentation, "combined_candidates", "segmentation.combined_candidates", candidates)
    wrap(segmentation, "select_tolerance", "segmentation.select_tolerance")
    wrap(segmentation, "prune_change_points", "segmentation.prune_change_points")
    wrap(cli, "segment_with_knots", "segmentation.segment_with_knots", knots)

    wrap(cli, "read_matrix_binary", "cli.read_matrix_binary")
    wrap(cli, "write_matrix_binary", "cli.write_matrix_binary")

    pool = recorder.pool_class()
    for owner in (procrustes, evaluation):
        patches.attr(owner, "ThreadPoolExecutor", pool)


def layer_metrics(summary: dict, recorder: spans.Recorder, extra: dict) -> dict:
    """Every per-layer metric; `extra` holds those measured outside the spans."""
    by_name = summary["by_name"]
    counts, maxima = recorder.counts, recorder.maxima

    def field(name: str, key: str) -> float:
        return float(by_name.get(name, {}).get(key, 0.0))

    dm_s = field("procrustes.distance_matrix", "s")
    w1_s = extra["procrustes.distance_matrix.w1_s"]
    out = {
        "trajectory.read_encounters_csv.s": field("trajectory.read_encounters_csv", "s"),
        "trajectory.read_encounters_csv.rows": counts["trajectory.read_encounters_csv.rows"],
        "trajectory.resample.s": field("trajectory.resample", "s"),
        "procrustes.distance_matrix.s": dm_s,
        "procrustes.distance_matrix.w1_s": w1_s,
        "procrustes.distance_matrix.pairs_per_s": (
            counts["procrustes.distance_matrix.pairs"] / dm_s if dm_s else 0.0
        ),
        "procrustes.distance_matrix.scaling_eff": (
            w1_s / (extra["nproc"] * dm_s) if dm_s else 0.0
        ),
        "procrustes.cross_distance_matrix.s": field("procrustes.cross_distance_matrix", "s"),
        "procrustes.cross_distance_matrix.calls": field("procrustes.cross_distance_matrix", "calls"),
        "procrustes.cross_distance_matrix.pairs": counts["procrustes.cross_distance_matrix.pairs"],
        "procrustes.align.calls": field("procrustes.align", "calls"),
        "procrustes.align.s": field("procrustes.align", "s"),
        "mds.embed.s": field("mds.embed", "s"),
        "mds.embed.calls": field("mds.embed", "calls"),
        "mds.embed.stress_rel": maxima.get("mds.embed.stress_rel", 0.0),
        "clustering.cluster_mds.self_s": field("clustering.cluster_mds", "self_s"),
        "clustering.cluster_geo1.self_s": field("clustering.cluster_geo1", "self_s"),
        "clustering.cluster_geo2.s": field("clustering.cluster_geo2", "s"),
        "clustering.cluster_geo2.iterations": counts["clustering.cluster_geo2.iterations"],
        "clustering.cluster_spline_coef.s": field("clustering.cluster_spline_coef", "s"),
        "evaluation.stability_sweep.self_s": field("evaluation.stability_sweep", "self_s"),
        "evaluation.stability_sweep.cells": counts["evaluation.stability_sweep.cells"],
        "evaluation.stability_sweep.cells_missing": counts["evaluation.stability_sweep.cells_missing"],
        "evaluation.quality.self_s": field("evaluation.quality", "self_s"),
        "evaluation.silhouette.s": field("evaluation.silhouette", "s"),
        "evaluation.transfer_primitives.self_s": field("evaluation.transfer_primitives", "self_s"),
        "transport.ground_cost.s": field("transport.ground_cost", "s"),
        "transport.wasserstein.self_s": field("transport.wasserstein", "self_s"),
        "transport.lp.vars": maxima.get("transport.lp.vars", 0.0),
        "transport.lp.eq_bytes_computed": maxima.get("transport.lp.eq_bytes_computed", 0.0),
        "segmentation.combined_candidates.s": field("segmentation.combined_candidates", "s"),
        "segmentation.select_tolerance.self_s": field("segmentation.select_tolerance", "self_s"),
        "segmentation.prune_change_points.calls": field("segmentation.prune_change_points", "calls"),
        "segmentation.candidates": counts["segmentation.candidates"],
        "segmentation.knots": counts["segmentation.knots"],
        "segmentation.knot_recovery": extra["segmentation.knot_recovery"],
        "cli.import.scipy_s": extra["cli.import.scipy_s"],
        "cli.read_matrix_binary.s": field("cli.read_matrix_binary", "s"),
        "cli.write_matrix_binary.s": field("cli.write_matrix_binary", "s"),
        "cli.step_overhead_s": extra["cli.step_overhead_s"],
        "trace.overhead_s": extra["trace.overhead_s"],
    }
    return {name: float(value) for name, value in out.items()}
