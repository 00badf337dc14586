"""Clustering schemes over interactions.

Four methods share one model type:

- mds: embed the distance matrix, Euclidean k-means there, snap centroids to
  embedded points (medoids); objective in the true quotient metric.
- geo1: align everything to one anchor interaction, Euclidean k-means on the
  flattened aligned curves; centroids reshape back into interactions.
- geo2: alternate centroid updates (members aligned to the cluster's first
  member, then averaged pointwise) with align-then-L2 reassignment.
- spline-coef: cubic polynomial coefficients per coordinate series (16 values)
  as features for Euclidean k-means; representatives snap to data points.

All Euclidean k-means stages use k-means++ seeding, Lloyd iteration, and a
handful of seeded restarts keeping the best objective, so every run is
deterministic given its seed.  Every route logs one warning naming the
restarts that ran out of `max_iter` steps before they converged.

`ROUTES` maps each method to its function.  Only this module reads a route's
signature: `fit`, the one entry point for the CLI and the stability sweep,
passes a route the inputs it takes, and `tuning_parameters` lists the rest.
"""

from __future__ import annotations

import inspect
import logging
from dataclasses import dataclass, field

import numpy as np

from . import mds
from .artifacts import malformed, read_json, write_json
from .errors import InvalidInputError
from .procrustes import (
    _pack,
    _residual_sq,
    _rows_to_interaction,
    _shared_length,
    _stack_rows,
    DistanceMatrix,
    align,
)
from .segmentation import _cubic_design, _cubic_lstsq
from .trajectory import (
    _store,
    Interaction,
    interaction_from_dict,
    interaction_to_dict,
    to_table,
)

_log = logging.getLogger(__name__)
_DEFAULT_MAX_ITER = 300
_DEFAULT_N_INIT = 8
# a bound on the work: a restart takes milliseconds at a few hundred
# encounters, so more than this many would run for hours
_MAX_RESTARTS = 10_000
_REL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ClusterModel:
    """Assignments, k representative interactions, and the method's objective."""

    method: str
    k: int
    seed: int
    assignments: np.ndarray
    representatives: tuple[Interaction, ...]
    objective: float
    objective_history: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise InvalidInputError(f"unknown method {self.method!r}")
        labels = np.array(self.assignments, dtype=int)
        if labels.ndim != 1 or labels.size < 1:
            raise InvalidInputError("assignments must be a nonempty 1-d array")
        if labels.min() < 0 or labels.max() >= self.k:
            raise InvalidInputError("assignments must lie in [0, k)")
        if len(self.representatives) != self.k:
            raise InvalidInputError("need exactly k representatives")
        if not (np.isfinite(self.objective) and self.objective >= 0):
            raise InvalidInputError("objective must be finite and nonnegative")
        _store(
            self, assignments=labels, representatives=tuple(self.representatives),
            objective=float(self.objective),
            objective_history=tuple(float(v) for v in self.objective_history),
        )

    @property
    def n(self) -> int:
        return int(self.assignments.size)

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.k)


# ---------------------------------------------------------------------------
# Euclidean k-means core


def _kmeans_pp(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))  # everything coincides with a center
        centers[j] = X[idx]
        d2 = np.minimum(d2, ((X - centers[j]) ** 2).sum(axis=1))
    return centers


def _repair_empty(labels: np.ndarray, point_d2: np.ndarray, k: int) -> None:
    """Give each empty cluster the point farthest from its current centroid."""
    counts = np.bincount(labels, minlength=k)
    for j in np.flatnonzero(counts == 0):
        # never a cluster's only member, which would empty that cluster in turn
        steal = int(np.argmax(np.where(counts[labels] > 1, point_d2, -np.inf)))
        counts[labels[steal]] -= 1
        counts[j] = 1
        labels[steal] = j


def _lloyd(
    X: np.ndarray, centers: np.ndarray, max_iter: int
) -> tuple[np.ndarray, np.ndarray, bool, list[float]]:
    """Labels, centers, whether it converged within `max_iter` steps, and the history."""
    n, k = X.shape[0], centers.shape[0]
    labels = None
    history: list[float] = []
    for _ in range(max_iter):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        _repair_empty(new_labels, d2[np.arange(n), new_labels], k)
        obj = float(d2[np.arange(n), new_labels].sum())
        history.append(obj)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = X[labels == j]
            if members.size:
                centers[j] = members.mean(axis=0)
        if len(history) >= 2 and abs(history[-2] - history[-1]) <= _REL_TOL * max(
            history[-2], 1e-300
        ):
            break
    else:  # max_iter steps ran out before either stopping rule held
        return labels, centers, False, history
    return labels, centers, True, history


def _check_restarts(n: int, k: int, n_init: int, max_iter: int) -> None:
    for name, value in (("k", k), ("n_init", n_init), ("max_iter", max_iter)):
        if not isinstance(value, (int, np.integer)):
            raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if not 1 <= k <= n:
        raise InvalidInputError(f"k must lie in [1, {n}], got {k}")
    if n_init < 1 or max_iter < 1:
        raise InvalidInputError("n_init and max_iter must be positive")
    if n_init > _MAX_RESTARTS:
        raise InvalidInputError(f"n_init must be at most {_MAX_RESTARTS}")


def _best_of(run, seed: int, n_init: int, max_iter: int, name: str) -> tuple:
    """The result of `run(rng)` with the lowest final objective over n_init restarts.

    Each restart draws from its own child of the seed, spawned as it starts;
    results are tuples ending in the converged flag and the objective
    history, and only a strictly lower final objective replaces the best so
    far, so the earliest restart wins ties.  One warning, prefixed with
    `name`, lists the restarts that did not converge within `max_iter` steps.
    """
    rng = np.random.default_rng(seed)
    best, capped = None, []
    for restart in range(n_init):
        result = run(rng.spawn(1)[0])
        if not result[-2]:
            capped.append(restart)
        if best is None or result[-1][-1] < best[-1][-1]:
            best = result
    if capped:
        _log.warning("%s: restart(s) %s of %d stopped at the %d-iteration cap",
                     name, capped, n_init, max_iter)
    return best


def _kmeans(
    X: np.ndarray, k: int, seed: int, n_init: int, max_iter: int, name: str = "k-means"
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    _check_restarts(X.shape[0], k, n_init, max_iter)
    labels, centers, _, history = _best_of(
        lambda rng: _lloyd(X, _kmeans_pp(X, k, rng), max_iter), seed, n_init, max_iter, name
    )
    return labels, centers, history


def _snap_to_points(centers: np.ndarray, X: np.ndarray) -> list[int]:
    """Nearest data point per centroid; collisions take the next nearest."""
    chosen: list[int] = []
    taken: set[int] = set()
    for center in centers:
        order = np.argsort(((X - center) ** 2).sum(axis=1), kind="stable")
        pick = next(int(i) for i in order if int(i) not in taken)
        chosen.append(pick)
        taken.add(pick)
    return chosen


# ---------------------------------------------------------------------------
# mds


def cluster_mds(
    data: list[Interaction],
    matrix: DistanceMatrix,
    beta: int,
    k: int,
    seed: int = 0,
    n_init: int = _DEFAULT_N_INIT,
    max_iter: int = _DEFAULT_MAX_ITER,
    embed=None,
) -> ClusterModel:
    """Embed, k-means in R^beta, then take each cluster's medoid as its rep.

    The partition comes from Euclidean k-means on the embedded coordinates;
    the representative of each cluster is its medoid in the true quotient
    metric (the member minimizing the within-cluster sum of squared
    distances), so embedding distortion cannot push the reported objective
    off the best medoid choice.  Assignments and the objective
    sum_i min_j d^2(data[i], rep[j]) are taken through the supplied matrix,
    which must be unnormalized for the objective to be meaningful.
    `embed(matrix, beta, seed)` supplies the embedding; `mds.embed` when None.
    The inputs are checked before the embedding is paid for.
    """
    _shared_length(data)
    n = len(data)
    if matrix is None or matrix.n != n:
        raise InvalidInputError(f"mds needs the {n}x{n} distance matrix of its data")
    _check_restarts(n, k, n_init, max_iter)
    embedding = (embed or mds.embed)(matrix, beta, seed)
    labels, _, history = _kmeans(embedding.points, k, seed, n_init, max_iter, "cluster_mds")
    medoids = []
    for j in range(k):
        members = np.flatnonzero(labels == j)
        block = matrix.entries[np.ix_(members, members)]
        within = np.square(block, out=block).sum(axis=1)
        medoids.append(int(members[within.argmin()]))
    to_reps = matrix.entries[:, medoids]
    assignments = to_reps.argmin(axis=1)
    objective = float((to_reps.min(axis=1) ** 2).sum())
    return ClusterModel(
        method="mds",
        k=k,
        seed=seed,
        assignments=assignments,
        representatives=tuple(data[m] for m in medoids),
        objective=objective,
        objective_history=tuple(history),
    )


# ---------------------------------------------------------------------------
# geo1


def align_to_anchor(data: list[Interaction], anchor: int = 0) -> list[Interaction]:
    """Rigidly align every interaction onto data[anchor] (no pair-order swap)."""
    _shared_length(data)
    if not isinstance(anchor, (int, np.integer)) or not 0 <= anchor < len(data):
        raise InvalidInputError(f"anchor must be an integer in [0, {len(data) - 1}]")
    target = data[anchor]
    return [x if i == anchor else align(target, x)[1] for i, x in enumerate(data)]


def cluster_geo1(
    data: list[Interaction],
    k: int = 2,
    seed: int = 0,
    anchor: int = 0,
    n_init: int = _DEFAULT_N_INIT,
    max_iter: int = _DEFAULT_MAX_ITER,
) -> ClusterModel:
    """Common alignment to one anchor, then Euclidean k-means on the curves.

    Features are the flattened aligned curves with each sample row scaled by
    sqrt(1/T), so feature-space Euclidean distance equals the mismatch rho of
    the aligned pair; centroid curves are reported as interactions on the
    anchor's grid, and the objective is the within-cluster sum of squares in
    that space.
    """
    root = np.sqrt(1.0 / _shared_length(data))
    aligned = align_to_anchor(data, anchor)
    X = np.stack([(_stack_rows(inter) * root).ravel() for inter in aligned])
    labels, centers, history = _kmeans(X, k, seed, n_init, max_iter, "cluster_geo1")

    grid = data[anchor].grid
    reps = [_rows_to_interaction(centers[j].reshape(-1, 2) / root, grid) for j in range(k)]
    return ClusterModel(
        method="geo1",
        k=k,
        seed=seed,
        assignments=labels,
        representatives=tuple(reps),
        objective=history[-1],
        objective_history=tuple(history),
    )


# ---------------------------------------------------------------------------
# geo2


def _geo2_run(
    data: list[Interaction],
    packed: tuple[np.ndarray, np.ndarray, np.ndarray],
    k: int,
    rng: np.random.Generator,
    max_iter: int,
) -> tuple[np.ndarray, list[Interaction], bool, list[float]]:
    """Labels, centroids, whether the run stopped before `max_iter` steps
    ran out, and the objective history."""
    z, mean, norm = packed
    n = len(data)
    labels = rng.integers(0, k, size=n)
    history: list[float] = []
    centroids: list[Interaction] = []
    dist2 = None
    for _ in range(max_iter):
        if dist2 is not None:
            _repair_empty(labels, dist2[np.arange(n), labels], k)
        elif len(np.unique(labels)) < k:
            # first pass has no distances yet: seed missing clusters with the
            # points farthest from the joint mean of everything
            _repair_empty(labels, (z.real**2 + z.imag**2).sum(axis=1), k)
        centroids = []
        for j in range(k):
            members = np.flatnonzero(labels == j)
            ref = members[:1]
            _, phase = _residual_sq(z[members], norm[members], z[ref], norm[ref])
            rows = (phase * z[members]).sum(axis=0) / members.size + mean[ref[0]]
            centroids.append(
                _rows_to_interaction(np.column_stack([rows.real, rows.imag]), data[ref[0]].grid)
            )
        [(zc, _, nc)] = _pack(centroids)
        dist2, _ = _residual_sq(z, norm, zc, nc)
        new_labels = dist2.argmin(axis=1)
        obj = float(dist2[np.arange(n), new_labels].sum())
        history.append(obj)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        if len(history) >= 2 and abs(history[-2] - history[-1]) <= _REL_TOL * max(
            history[-2], 1e-300
        ):
            break
    else:  # max_iter steps ran out before either stopping rule held
        return labels, centroids, False, history
    return labels, centroids, True, history


def cluster_geo2(
    data: list[Interaction],
    k: int = 2,
    seed: int = 0,
    n_init: int = _DEFAULT_N_INIT,
    max_iter: int = _DEFAULT_MAX_ITER,
) -> ClusterModel:
    """Alternating pointwise-mean centroids and align-then-L2 reassignment.

    Starts from a seeded random assignment.  Cluster centroids average the
    members after aligning them to the cluster's lowest-index member; each
    interaction then moves to the centroid with the smallest aligned mismatch
    (no pair-order swap).  Emptied clusters are re-seeded with the point
    farthest from its current centroid.  Restarts keep the best objective.
    """
    [packed] = _pack(data)
    _check_restarts(len(data), k, n_init, max_iter)
    labels, centroids, _, history = _best_of(
        lambda rng: _geo2_run(data, packed, k, rng, max_iter),
        seed, n_init, max_iter, "cluster_geo2",
    )
    return ClusterModel(
        method="geo2",
        k=k,
        seed=seed,
        assignments=labels,
        representatives=tuple(centroids),
        objective=history[-1],
        objective_history=tuple(history),
    )


# ---------------------------------------------------------------------------
# spline-coef


def _cubic_features(interaction: Interaction) -> np.ndarray:
    table = to_table(interaction)
    t = (table[:, 0] - table[0, 0]) / (table[-1, 0] - table[0, 0])
    coef, _ = _cubic_lstsq(_cubic_design(t), table[:, 1:])  # series x1, y1, x2, y2
    return coef.T.ravel()  # series-major: 4 coefficients per coordinate series


def cluster_spline_coef(
    data: list[Interaction],
    k: int = 2,
    seed: int = 0,
    n_init: int = _DEFAULT_N_INIT,
    max_iter: int = _DEFAULT_MAX_ITER,
) -> ClusterModel:
    """Euclidean k-means on per-series cubic coefficients (16 per interaction).

    Coefficients are taken over the grid normalized to [0, 1].  Representatives
    are the interactions whose features sit nearest the centroids; the
    objective is the k-means within-cluster sum of squares in feature space.
    """
    T = _shared_length(data)
    if T < 4:
        raise InvalidInputError("cubic features need grids of at least 4 samples")
    X = np.stack([_cubic_features(inter) for inter in data])
    labels, centers, history = _kmeans(X, k, seed, n_init, max_iter, "cluster_spline_coef")
    reps = [data[i] for i in _snap_to_points(centers, X)]
    return ClusterModel(
        method="spline-coef",
        k=k,
        seed=seed,
        assignments=labels,
        representatives=tuple(reps),
        objective=history[-1],
        objective_history=tuple(history),
    )


# ---------------------------------------------------------------------------
# the one entry point

ROUTES = {
    "mds": cluster_mds,
    "geo1": cluster_geo1,
    "geo2": cluster_geo2,
    "spline-coef": cluster_spline_coef,
}
METHODS = tuple(ROUTES)
# what `fit` supplies to a route; every other parameter is a tuning parameter
_INPUTS = ("data", "matrix", "seed", "embed")


def route(method: str):
    """The function in ROUTES that fits `method`, looked up at call time."""
    if method not in ROUTES:
        raise InvalidInputError(f"unknown method {method!r}")
    return ROUTES[method]


def tuning_parameters(method: str) -> dict[str, bool]:
    """Each tuning parameter of `method`'s route, mapped to whether it is required."""
    params = inspect.signature(route(method)).parameters
    return {name: p.default is p.empty for name, p in params.items() if name not in _INPUTS}


def fit(
    method: str,
    data: list[Interaction],
    matrix: DistanceMatrix | None = None,
    seed: int = 0,
    embed=None,
    **params,
) -> ClusterModel:
    """Fit `method` with `params`, giving its route only the inputs it takes.

    The route's signature decides: `matrix` and `embed` reach mds alone.
    """
    fn = route(method)
    taken = inspect.signature(fn).parameters
    inputs = {"matrix": matrix, "embed": embed}
    given = {name: value for name, value in inputs.items() if name in taken}
    return fn(data, seed=seed, **given, **params)


# ---------------------------------------------------------------------------
# serialization


def write_model_json(path, model: ClusterModel, meta: dict | None = None) -> None:
    payload = {
        "method": model.method,
        "k": model.k,
        "seed": model.seed,
        "objective": model.objective,
        "assignments": [int(z) for z in model.assignments],
        "representatives": [interaction_to_dict(r) for r in model.representatives],
    }
    write_json(path, payload, meta)


def read_model_json(path) -> ClusterModel:
    payload = read_json(path)
    with malformed(path):
        return ClusterModel(
            method=payload["method"],
            k=int(payload["k"]),
            seed=int(payload["seed"]),
            assignments=payload["assignments"],
            representatives=tuple(
                interaction_from_dict(r) for r in payload["representatives"]
            ),
            objective=float(payload["objective"]),
        )
