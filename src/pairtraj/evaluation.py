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

import inspect
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import clustering, mds
from .clustering import ClusterModel
from .errors import DataError, InvalidInputError, PairtrajError
from .procrustes import DistanceMatrix, cross_distance_matrix
from .trajectory import Interaction, TimeMeasure, _fmt, resample


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
        per = [
            np.array(self.per_cluster_within, dtype=float),
            np.array(self.per_cluster_between, dtype=float),
            np.array(self.within_variance, dtype=float),
            np.array(self.between_variance, dtype=float),
        ]
        k = per[0].size
        if any(arr.shape != (k,) for arr in per):
            raise InvalidInputError("per-cluster arrays must share length k")
        sil = np.array(self.silhouettes, dtype=float)
        if np.any(sil < -1 - 1e-12) or np.any(sil > 1 + 1e-12):
            raise InvalidInputError("silhouettes must lie in [-1, 1]")
        sizes = np.array(self.cluster_sizes, dtype=int)
        if sizes.shape != (k,):
            raise InvalidInputError("cluster_sizes must have length k")
        for name, arr in zip(
            (
                "per_cluster_within",
                "per_cluster_between",
                "within_variance",
                "between_variance",
            ),
            per,
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        sil.setflags(write=False)
        sizes.setflags(write=False)
        object.__setattr__(self, "silhouettes", sil)
        object.__setattr__(self, "cluster_sizes", sizes)
        object.__setattr__(self, "total_within", float(self.total_within))

    @property
    def k(self) -> int:
        return int(self.per_cluster_within.size)


_MEDOID_ONLY = ("mds", "spline-coef")


def quality(
    data: list[Interaction],
    model: ClusterModel,
    matrix: DistanceMatrix,
    mu: TimeMeasure | None = None,
    use_medoid: bool = True,
) -> QualityReport:
    """Within/between statistics of a model against its own data.

    use_medoid=True scores distances to the stored representatives; False is
    reserved for methods whose representatives are mean curves (geo1/geo2) and
    is rejected for medoid methods, where means are not defined.  Variances
    are sample variances (ddof=1) of the squared distances, 0 for clusters
    with fewer than two contributing points.
    """
    n = len(data)
    if model.n != n or matrix.n != n:
        raise InvalidInputError(
            f"sizes disagree: {n} interactions, model n={model.n}, matrix n={matrix.n}"
        )
    if not use_medoid and model.method in _MEDOID_ONLY:
        raise InvalidInputError(
            f"mean interactions are not defined for method {model.method!r}"
        )
    sq = cross_distance_matrix(data, list(model.representatives), mu) ** 2
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
        vals.setflags(write=False)
        miss.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "missing", miss)
        object.__setattr__(self, "axis1_values", tuple(self.axis1_values))
        object.__setattr__(self, "axis2_values", tuple(self.axis2_values))

    @property
    def delta1(self) -> np.ndarray:
        out = np.full_like(self.values, np.nan)
        out[1:, :] = self.values[1:, :] - self.values[:-1, :]
        return out

    @property
    def delta2(self) -> np.ndarray:
        out = np.full_like(self.values, np.nan)
        out[:, 1:] = self.values[:, 1:] - self.values[:, :-1]
        return out


_RUNNERS = {
    "mds": clustering.cluster_mds,
    "geo1": clustering.cluster_geo1,
    "geo2": clustering.cluster_geo2,
    "spline-coef": clustering.cluster_spline_coef,
}


def _sweep_cell(method, data, matrix, mu, seed, kwargs, embeddings):
    if method == "mds":
        kwargs = dict(kwargs)
        embedding = embeddings[kwargs.pop("beta")]
        if embedding is None:
            return None
        model = clustering._mds_partition(data, matrix, embedding, seed=seed, **kwargs)
    elif method == "spline-coef":
        model = _RUNNERS[method](data, seed=seed, **kwargs)
    else:
        model = _RUNNERS[method](data, mu, seed=seed, **kwargs)
    return stability_statistic(matrix, model.assignments)


def stability_sweep(
    data: list[Interaction],
    matrix: DistanceMatrix,
    method: str,
    axis1_name: str,
    axis1_values,
    axis2_name: str,
    axis2_values,
    seed: int = 0,
    mu: TimeMeasure | None = None,
    base: dict | None = None,
    workers: int | None = None,
    embed=None,
) -> StabilityGrid:
    """Rerun one clustering method across a 2-axis grid of tuning parameters.

    Every cell uses the same seed; the statistic is always evaluated on the
    supplied true distance matrix.  Cells that raise a package error are
    reported as missing, not fatal.  For mds the embedding depends only on
    (matrix, beta, seed), so it is computed once per distinct beta before the
    cells run, and each cell only partitions its shared embedding.
    `embed(matrix, beta, seed)` supplies it; `mds.embed` when None.
    """
    if method not in _RUNNERS:
        raise InvalidInputError(f"unknown method {method!r}")
    axis1_values, axis2_values = tuple(axis1_values), tuple(axis2_values)
    if not axis1_values or not axis2_values:
        raise InvalidInputError("axis value grids must be nonempty")
    if axis1_name == axis2_name:
        raise InvalidInputError("axes must sweep different parameters")
    params = set(inspect.signature(_RUNNERS[method]).parameters)
    for name in (axis1_name, axis2_name):
        if name not in params or name in ("data", "matrix", "mu", "seed", "embed"):
            raise InvalidInputError(
                f"{name!r} is not a sweepable parameter of method {method!r}"
            )
    base = dict(base or {})

    cells = [
        (i, j, {**base, axis1_name: v1, axis2_name: v2})
        for i, v1 in enumerate(axis1_values)
        for j, v2 in enumerate(axis2_values)
    ]
    values = np.full((len(axis1_values), len(axis2_values)), np.nan)
    missing = np.ones_like(values, dtype=bool)

    def each(fn, items):
        if workers is not None and workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(fn, items))
        return [fn(item) for item in items]

    def embed_one(beta):
        try:
            return (embed or mds.embed)(matrix, beta, seed)
        except PairtrajError:
            return None  # every cell with this beta is reported missing

    embeddings = {}
    if method == "mds":
        if "beta" not in cells[0][2]:
            raise InvalidInputError("an mds sweep needs beta on an axis or in base")
        betas = list(dict.fromkeys(kwargs["beta"] for _, _, kwargs in cells))
        embeddings = dict(zip(betas, each(embed_one, betas)))

    def run(cell):
        i, j, kwargs = cell
        try:
            return i, j, _sweep_cell(method, data, matrix, mu, seed, kwargs, embeddings)
        except PairtrajError:
            return i, j, None

    for i, j, value in each(run, cells):
        if value is not None:
            values[i, j] = value
            missing[i, j] = False
    return StabilityGrid(
        axis1_name, axis2_name, axis1_values, axis2_values, values, missing
    )


def transfer_primitives(
    data: list[Interaction],
    primitives: list[Interaction],
    mu: TimeMeasure | None = None,
) -> np.ndarray:
    """Assign every interaction to its nearest primitive (lowest index on ties).

    Primitives on a different grid length are resampled onto the data's length
    first.
    """
    if not data or not primitives:
        raise InvalidInputError("need data and at least one primitive")
    T = len(data[0])
    prims = [p if len(p) == T else resample(p, T) for p in primitives]
    return cross_distance_matrix(data, prims, mu).argmin(axis=1)


# ---------------------------------------------------------------------------
# serialization

_VARIANCE_CONVENTION = "sample (ddof=1)"


def write_quality_json(path, report: QualityReport, meta: dict | None = None) -> None:
    payload: dict = {
        "total_within": report.total_within,
        "per_cluster_within": report.per_cluster_within.tolist(),
        "per_cluster_between": report.per_cluster_between.tolist(),
        "within_variance": report.within_variance.tolist(),
        "between_variance": report.between_variance.tolist(),
        "silhouettes": report.silhouettes.tolist(),
        "cluster_sizes": report.cluster_sizes.tolist(),
        "variance_convention": _VARIANCE_CONVENTION,
    }
    if meta is not None:
        payload["meta"] = meta
    with open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def read_quality_json(path) -> QualityReport:
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return QualityReport(
            total_within=payload["total_within"],
            per_cluster_within=payload["per_cluster_within"],
            per_cluster_between=payload["per_cluster_between"],
            within_variance=payload["within_variance"],
            between_variance=payload["between_variance"],
            silhouettes=payload["silhouettes"],
            cluster_sizes=payload["cluster_sizes"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed quality report: {exc}") from exc


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
    with open(path, "w", newline="") as handle:
        if meta is not None:
            handle.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        handle.write("id,cluster,silhouette\n")
        for i in order:
            handle.write(f"{ids[i]},{z[i]},{_fmt(sil[i])}\n")


def read_silhouette_csv(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    try:
        handle = open(path)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with handle:
        lines = [ln.rstrip("\n") for ln in handle if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0] != "id,cluster,silhouette":
        raise DataError(f"{path}: bad silhouette header")
    ids, clusters, scores = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 fields")
        try:
            ids.append(parts[0])
            clusters.append(int(parts[1]))
            scores.append(float(parts[2]))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad field: {exc}") from exc
    return ids, np.array(clusters), np.array(scores)


def write_stability_csv(path, grid: StabilityGrid, meta: dict | None = None) -> None:
    """Long form `axis1,axis2,value,delta1,delta2`; axis names ride in metadata."""
    header = dict(meta or {})
    header["axis1_name"] = grid.axis1_name
    header["axis2_name"] = grid.axis2_name
    d1, d2 = grid.delta1, grid.delta2
    with open(path, "w", newline="") as handle:
        handle.write("# " + json.dumps(header, sort_keys=True) + "\n")
        handle.write("axis1,axis2,value,delta1,delta2\n")
        for i, v1 in enumerate(grid.axis1_values):
            for j, v2 in enumerate(grid.axis2_values):
                handle.write(
                    f"{v1},{v2},{_fmt(grid.values[i, j])},"
                    f"{_fmt(d1[i, j])},{_fmt(d2[i, j])}\n"
                )


def read_stability_csv(path) -> StabilityGrid:
    try:
        handle = open(path)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with handle:
        lines = [ln.rstrip("\n") for ln in handle if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise DataError(f"{path}: missing metadata line")
    try:
        header = json.loads(lines[0][1:])
        axis1_name, axis2_name = header["axis1_name"], header["axis2_name"]
    except (json.JSONDecodeError, KeyError) as exc:
        raise DataError(f"{path}: bad metadata line: {exc}") from exc
    if len(lines) < 2 or lines[1] != "axis1,axis2,value,delta1,delta2":
        raise DataError(f"{path}: bad stability header")
    rows = []
    for lineno, line in enumerate(lines[2:], start=3):
        parts = line.split(",")
        if len(parts) != 5:
            raise DataError(f"{path}:{lineno}: expected 5 fields")
        try:
            rows.append((parts[0], parts[1], float(parts[2])))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad value: {exc}") from exc
    axis1 = list(dict.fromkeys(r[0] for r in rows))
    axis2 = list(dict.fromkeys(r[1] for r in rows))
    if len(rows) != len(axis1) * len(axis2):
        raise DataError(f"{path}: incomplete grid")
    values = np.array([r[2] for r in rows]).reshape(len(axis1), len(axis2))
    return StabilityGrid(
        axis1_name, axis2_name, tuple(axis1), tuple(axis2), values, np.isnan(values)
    )
