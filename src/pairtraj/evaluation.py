"""Clustering diagnostics: silhouettes, within/between statistics, stability.

The stability statistic is the pairwise form of the k-means cost,

    (1/2n) * sum_k sum_{i,j: z_i = z_j = k} d^2(x_i, x_j),

summed over ordered pairs (the i = j terms are zero).  For Euclidean data the
inner sum equals 2 * n_k * (within-cluster sum of squares to the mean), so the
statistic matches the k-means objective exactly per cluster; sweeping it over
tuning-parameter grids gives the stability heatmaps and their first
differences.
"""

from __future__ import annotations

import logging
# not used here; bench/layers.py patches this name when it traces a run
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, fields

import numpy as np

from . import clustering, mds
from .artifacts import fmt, write_json, write_rows
from .clustering import ClusterModel
from .errors import InvalidInputError, PairtrajError
from .procrustes import DistanceMatrix, cross_distance_matrix
from .trajectory import _store, Interaction, resample
from .workers import fork_map

_log = logging.getLogger(__name__)


def silhouette(matrix: DistanceMatrix, assignments) -> np.ndarray:
    """s(i) = (b(i) - a(i)) / max(a(i), b(i)) from the given distance matrix.

    a(i) is the mean distance to same-cluster others, b(i) the smallest mean
    distance to another cluster.  Members of singleton clusters score 0, as
    does any point with max(a, b) = 0.
    """
    z = np.asarray(assignments, dtype=int)
    n = matrix.n
    if z.shape != (n,):
        raise InvalidInputError(f"need {n} assignments, got shape {z.shape}")
    labels = np.unique(z)
    if labels.size < 2:
        raise InvalidInputError("silhouette needs at least 2 nonempty clusters")
    members = {int(label): np.flatnonzero(z == label) for label in labels}
    out = np.zeros(n)
    for i in range(n):
        own = members[int(z[i])]
        if own.size < 2:
            continue  # singleton convention: s(i) = 0
        a = matrix.entries[i, own].sum() / (own.size - 1)
        b = min(
            matrix.entries[i, members[int(label)]].mean()
            for label in labels
            if label != z[i]
        )
        top = max(a, b)
        if top > 0:
            out[i] = (b - a) / top
    return out


@dataclass(frozen=True, eq=False)
class QualityReport:
    """Within/between squared-distance statistics plus silhouettes."""

    total_within: float
    per_cluster_within: np.ndarray
    per_cluster_between: np.ndarray
    within_variance: np.ndarray
    between_variance: np.ndarray
    silhouettes: np.ndarray
    cluster_sizes: np.ndarray

    def __post_init__(self) -> None:
        per = {name: np.array(getattr(self, name), dtype=float) for name in (
            "per_cluster_within", "per_cluster_between", "within_variance", "between_variance")}
        k = per["per_cluster_within"].size
        if any(arr.shape != (k,) for arr in per.values()):
            raise InvalidInputError("per-cluster arrays must share length k")
        sil = np.array(self.silhouettes, dtype=float)
        if np.any(sil < -1 - 1e-12) or np.any(sil > 1 + 1e-12):
            raise InvalidInputError("silhouettes must lie in [-1, 1]")
        sizes = np.array(self.cluster_sizes, dtype=int)
        if sizes.shape != (k,):
            raise InvalidInputError("cluster_sizes must have length k")
        _store(
            self, **per, silhouettes=sil, cluster_sizes=sizes,
            total_within=float(self.total_within),
        )

    @property
    def k(self) -> int:
        return int(self.per_cluster_within.size)


def quality(data: list[Interaction], model: ClusterModel, matrix: DistanceMatrix) -> QualityReport:
    """Within/between statistics of a model against its own data.

    Every statistic is a squared distance from an interaction to a stored
    representative: a medoid for mds and spline-coef, a mean curve for geo1
    and geo2.  Variances are sample variances (ddof=1) of the squared
    distances, 0 for clusters with fewer than two contributing points.
    """
    n = len(data)
    if model.n != n or matrix.n != n:
        raise InvalidInputError(
            f"sizes disagree: {n} interactions, model n={model.n}, matrix n={matrix.n}"
        )
    sq = cross_distance_matrix(data, list(model.representatives)) ** 2
    total_within = float(sq[np.arange(n), model.assignments].sum())
    k = model.k
    within = np.zeros(k)
    between = np.zeros(k)
    within_var = np.zeros(k)
    between_var = np.zeros(k)
    for j in range(k):
        mask = model.assignments == j
        for stat_i, values in enumerate((sq[mask, j], sq[~mask, j])):
            if values.size:
                (within, between)[stat_i][j] = values.mean()
            if values.size >= 2:
                (within_var, between_var)[stat_i][j] = values.var(ddof=1)
    return QualityReport(
        total_within=total_within,
        per_cluster_within=within,
        per_cluster_between=between,
        within_variance=within_var,
        between_variance=between_var,
        silhouettes=silhouette(matrix, model.assignments),
        cluster_sizes=model.cluster_sizes(),
    )


def stability_statistic(matrix: DistanceMatrix, assignments) -> float:
    """(1/2n) * sum over ordered same-cluster pairs of squared distance."""
    z = np.asarray(assignments, dtype=int)
    if z.shape != (matrix.n,):
        raise InvalidInputError(f"need {matrix.n} assignments, got shape {z.shape}")
    blocks = []
    for label in np.unique(z):
        idx = np.flatnonzero(z == label)
        block = matrix.entries[np.ix_(idx, idx)]
        blocks.append(float((block**2).sum()))
    # summing the per-cluster totals in sorted order makes the result exactly
    # invariant under relabeling
    return float(np.sum(np.sort(blocks))) / (2.0 * matrix.n)


@dataclass(frozen=True, eq=False)
class StabilityGrid:
    """Stability statistic over a two-axis tuning grid, plus first differences.

    Cells whose clustering run failed are flagged in `missing` and carry NaN;
    deltas are derived from values (NaN next to a missing or leading cell).
    """

    axis1_name: str
    axis2_name: str
    axis1_values: tuple
    axis2_values: tuple
    values: np.ndarray
    missing: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        miss = np.array(self.missing, dtype=bool)
        shape = (len(self.axis1_values), len(self.axis2_values))
        if vals.shape != shape or miss.shape != shape:
            raise InvalidInputError(f"grid arrays must have shape {shape}")
        ok = vals[~miss]
        if not (np.all(np.isfinite(ok)) and np.all(ok >= 0)):
            raise InvalidInputError("present cells must be finite and nonnegative")
        if not np.all(np.isnan(vals[miss])):
            raise InvalidInputError("missing cells must carry NaN")
        _store(
            self, values=vals, missing=miss,
            axis1_values=tuple(self.axis1_values), axis2_values=tuple(self.axis2_values),
        )

    @property
    def delta1(self) -> np.ndarray:
        return np.diff(self.values, axis=0, prepend=np.nan)

    @property
    def delta2(self) -> np.ndarray:
        return np.diff(self.values, axis=1, prepend=np.nan)


# the same dict object as clustering.ROUTES; bench/layers.py patches its items
_RUNNERS = clustering.ROUTES


def _short(value) -> str:
    """str(value), its middle elided past the 24 characters of the longest
    float, as for the 301 digits of a grid's n_init=1e300."""
    text = str(value)
    return text if len(text) <= 24 else f"{text[:8]}...{text[-9:]}"


def stability_sweep(
    data: list[Interaction],
    matrix: DistanceMatrix,
    method: str,
    axis1_name: str,
    axis1_values,
    axis2_name: str,
    axis2_values,
    seed: int = 0,
    base: dict | None = None,
    embed=None,
) -> StabilityGrid:
    """Rerun one clustering method across a 2-axis grid of tuning parameters.

    Every cell is one `clustering.fit` with the parameters in `base`, the
    cell's axis values overriding them, and the same seed; the statistic is
    always evaluated on the supplied true distance matrix.  The cells go on
    `workers.fork_map`, which forks up to one worker per CPU in the affinity
    mask (`workers.cpu_count`) once it has two jobs, and their results come
    in row-major order; cells that raise a package error are reported as
    missing, not fatal, and one warning names them and the first error.  For
    mds the embedding depends only on (matrix, beta, seed), so a memo embeds
    each distinct beta once, on first use, and keeps the error of a beta
    whose embedding fails, which marks all of its cells missing; an mds
    grid's cells stay in this process, beside the memo.
    `embed(matrix, beta, seed)` supplies it; `mds.embed` when None.
    """
    params = clustering.tuning_parameters(method)
    axis1_values, axis2_values = tuple(axis1_values), tuple(axis2_values)
    if not axis1_values or not axis2_values:
        raise InvalidInputError("axis value grids must be nonempty")
    if axis1_name == axis2_name:
        raise InvalidInputError("axes must sweep different parameters")
    for name in (axis1_name, axis2_name):
        if name not in params:
            raise InvalidInputError(
                f"{name!r} is not a sweepable parameter of method {method!r}"
            )
    base = base or {}
    for name, required in params.items():
        if required and name not in (*base, axis1_name, axis2_name):
            raise InvalidInputError(f"method {method!r} needs {name!r} on an axis or in base")

    embeddings = {}  # beta -> its embedding, or the PairtrajError embedding it raised

    def embed_once(matrix, beta, seed):
        if beta not in embeddings:
            try:
                embeddings[beta] = (embed or mds.embed)(matrix, beta, seed)
            except PairtrajError as exc:
                embeddings[beta] = exc
        if isinstance(embeddings[beta], PairtrajError):
            raise embeddings[beta]
        return embeddings[beta]

    def run_cell(cell):
        """The statistic of the cell with axis values `cell`, or the package
        error that marks it missing."""
        v1, v2 = cell
        try:
            model = clustering.fit(method, data, matrix, seed, embed_once,
                                   **{**base, axis1_name: v1, axis2_name: v2})
            return stability_statistic(matrix, model.assignments)
        except PairtrajError as exc:
            return exc

    cells = [(v1, v2) for v1 in axis1_values for v2 in axis2_values]
    # an mds cell only runs k-means on an embedding computed once per beta
    # here, so it stays in this process
    outcomes = list((map if method == "mds" else fork_map)(run_cell, cells))
    values = np.full((len(axis1_values), len(axis2_values)), np.nan)
    missing = np.ones_like(values, dtype=bool)
    failed = []  # (cell, error) of each missing cell, in row-major order
    for flat, ((v1, v2), outcome) in enumerate(zip(cells, outcomes)):
        if isinstance(outcome, PairtrajError):
            failed.append((f"{axis1_name}={_short(v1)} {axis2_name}={_short(v2)}", outcome))
        else:
            values.flat[flat], missing.flat[flat] = outcome, False
    if failed:
        _log.warning("stability: %d of %d cell(s) missing (%s); the first failed: %s",
                     len(failed), values.size, ", ".join(cell for cell, _ in failed),
                     failed[0][1])
    return StabilityGrid(
        axis1_name, axis2_name, axis1_values, axis2_values, values, missing
    )


def transfer_primitives(data: list[Interaction], primitives: list[Interaction]) -> np.ndarray:
    """Assign every interaction to its nearest primitive (lowest index on ties).

    Primitives on a different grid length are resampled onto the data's length
    first.
    """
    if not data or not primitives:
        raise InvalidInputError("need data and at least one primitive")
    T = len(data[0])
    prims = [p if len(p) == T else resample(p, T) for p in primitives]
    return cross_distance_matrix(data, prims).argmin(axis=1)


# ---------------------------------------------------------------------------
# serialization

_VARIANCE_CONVENTION = "sample (ddof=1)"


def write_quality_json(path, report: QualityReport, meta: dict | None = None) -> None:
    """Every QualityReport field under its own name, plus the variance convention."""
    payload = {f.name: np.asarray(getattr(report, f.name)).tolist() for f in fields(report)}
    payload["variance_convention"] = _VARIANCE_CONVENTION
    write_json(path, payload, meta)


SILHOUETTE_HEADER = ("id", "cluster", "silhouette")


def write_silhouette_csv(
    path, ids, assignments, silhouettes, meta: dict | None = None
) -> None:
    """Plot-ready rows `id,cluster,silhouette`, by cluster then score (desc)."""
    ids = list(ids)
    z = np.asarray(assignments, dtype=int)
    sil = np.asarray(silhouettes, dtype=float)
    if not (len(ids) == z.size == sil.size):
        raise InvalidInputError("ids, assignments, silhouettes must align")
    order = sorted(range(len(ids)), key=lambda i: (z[i], -sil[i], str(ids[i])))
    rows = ([str(ids[i]), str(z[i]), fmt(sil[i])] for i in order)
    write_rows(path, SILHOUETTE_HEADER, rows, meta)


STABILITY_HEADER = ("axis1", "axis2", "value", "delta1", "delta2")


def write_stability_csv(path, grid: StabilityGrid, meta: dict | None = None) -> None:
    """Long form `axis1,axis2,value,delta1,delta2`; axis names ride in metadata."""
    meta = {**(meta or {}), "axis1_name": grid.axis1_name, "axis2_name": grid.axis2_name}
    d1, d2 = grid.delta1, grid.delta2
    rows = (
        [str(v1), str(v2), fmt(grid.values[i, j]), fmt(d1[i, j]), fmt(d2[i, j])]
        for i, v1 in enumerate(grid.axis1_values)
        for j, v2 in enumerate(grid.axis2_values)
    )
    write_rows(path, STABILITY_HEADER, rows, meta)


TRANSFER_HEADER = ("id", "cluster")


def write_transfer_csv(path, ids, assignments, meta: dict | None = None) -> None:
    """Rows `id,cluster`, one per encounter in input order."""
    rows = ([str(enc_id), str(int(label))] for enc_id, label in zip(ids, assignments))
    write_rows(path, TRANSFER_HEADER, rows, meta)
