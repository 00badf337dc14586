"""Metric multidimensional scaling of a distance matrix into R^beta.

Classical (double-centered spectral) coordinates start the search; a
majorization loop (Guttman transform) then descends the raw stress

    stress(Y) = sum_{i,j} (||y_i - y_j|| - D_ij)^2

over all ordered pairs.  Each majorization step never increases the stress,
so the reported value is monotone over iterations.

Each run writes its steps into (n, n) buffers of its own and reads one
shared, read-only -D.  The runs are independent, so at every n they go on
`workers.fork_map`, which forks up to one worker per CPU once it has two
jobs; their starts are drawn, and the winner picked, in run order, so the
output is the same bytes at any CPU count.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .artifacts import malformed, read_arrays, write_arrays
from .errors import InvalidInputError, NumericalError
from .procrustes import DistanceMatrix
from .trajectory import _store
from .workers import fork_map, one_blas_thread

_log = logging.getLogger(__name__)
_REL_TOL = 1e-8
_MAX_ITER = 500
_N_RESTARTS = 8


def cache_tag() -> str:
    """The constants above that decide an embedding's bits, and the one-thread
    BLAS pin of `embed`, as text for a cache key."""
    return f";max_iter={_MAX_ITER};restarts={_N_RESTARTS};rel_tol={_REL_TOL!r};blas_threads=1"


_MAGIC = b"PTM2"


@dataclass(frozen=True, eq=False)
class Embedding:
    """Embedded coordinates (n, beta) plus the realized raw stress.

    `iterations` holds the accepted majorization steps of each run, the
    spectral run first and then the random restarts; a run can meet the
    stress tolerance on its last allowed step, so a count equal to `max_iter`
    does not by itself mean the run was capped.  `best_run` indexes
    the run whose result was kept.  Both survive a round trip through
    `write_embedding_binary` and `read_embedding_binary`.
    """

    points: np.ndarray
    stress: float
    iterations: tuple[int, ...] = field(default=())
    best_run: int = 0

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InvalidInputError("points must be a (n, beta) array")
        if not np.all(np.isfinite(pts)):
            raise InvalidInputError("embedding contains non-finite values")
        if not (np.isfinite(self.stress) and self.stress >= 0):
            raise InvalidInputError("stress must be finite and nonnegative")
        _store(
            self, points=pts, stress=float(self.stress),
            iterations=tuple(int(i) for i in self.iterations), best_run=int(self.best_run),
        )

    @property
    def n(self) -> int:
        return int(self.points.shape[0])

    @property
    def beta(self) -> int:
        return int(self.points.shape[1])


def _pairwise(points: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    # one contiguous (n, n) difference per coordinate, squares summed in
    # coordinate order; the Gram form |a|^2 + |b|^2 - 2ab would cancel for
    # near-coincident points and blow up deltas / dist in the Guttman step
    first, *rest = points.T
    np.subtract(first[:, None], first[None, :], out=work)
    np.multiply(work, work, out=out)
    for coord in rest:
        np.subtract(coord[:, None], coord[None, :], out=work)
        work *= work
        out += work
    return np.sqrt(out, out=out)


def _stress(dist: np.ndarray, neg_deltas: np.ndarray, work: np.ndarray) -> float:
    gap = np.add(dist, neg_deltas, out=work)  # dist - deltas, the same bits
    gap *= gap
    return float(np.sum(gap))


def _classical_start(deltas: np.ndarray, beta: int) -> np.ndarray:
    n = deltas.shape[0]
    sq = deltas * deltas
    # double centering: B = -1/2 J D^2 J
    row = sq.mean(axis=1, keepdims=True)
    col = sq.mean(axis=0, keepdims=True)
    B = -0.5 * (sq - row - col + sq.mean())
    try:
        vals, vecs = np.linalg.eigh(B)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"spectral start of the {n}-point embedding: {exc}") from exc
    order = np.argsort(vals)[::-1][:beta]
    lam = np.clip(vals[order], 0.0, None)
    return vecs[:, order] * np.sqrt(lam)


def _guttman_matrix(neg_deltas: np.ndarray, dist: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The Guttman transform's B(X) into `B`: -deltas / dist off the
    diagonal, 0 where dist is 0, and minus each row's sum on the diagonal."""
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(neg_deltas, dist, out=B)
    diagonal = B.reshape(-1)[:: B.shape[0] + 1]
    diagonal[:] = 0.0
    row_sums = B.sum(axis=1)
    if not np.isfinite(row_sums).all():
        # a zero or NaN distance off the diagonal: its entry becomes -0.0,
        # the negation of the 0.0 that the masked divide leaves there
        B.fill(-0.0)
        np.divide(neg_deltas, dist, out=B, where=np.greater(dist, 0))
        row_sums = B.sum(axis=1)
    # 0.0 - s, not -s: a row of zeros keeps +0.0 on the diagonal
    np.subtract(0.0, row_sums, out=diagonal)
    return B


def _smacof(
    points: np.ndarray, neg_deltas: np.ndarray, max_iter: int
) -> tuple[np.ndarray, float, int, bool]:
    """Majorize from `points` against the negated dissimilarities; returns the
    points, their stress, the steps taken and whether a stopping rule held
    within `max_iter` steps.

    The (n, n) buffers belong to this run alone, so runs may go concurrently;
    `neg_deltas` is only read.
    """
    n = points.shape[0]
    dist, cand_dist, work = (np.empty((n, n)) for _ in range(3))
    _pairwise(points, dist, work)
    stress = _stress(dist, neg_deltas, work)
    steps = 0
    for _ in range(max_iter):
        if stress == 0.0:
            break
        # the distances of the accepted points carry over from the last step;
        # B shares `work` with the gap, as it is dead once B @ points is taken
        candidate = (_guttman_matrix(neg_deltas, dist, work) @ points) / n
        _pairwise(candidate, cand_dist, work)
        new_stress = _stress(cand_dist, neg_deltas, work)
        if new_stress > stress:
            # majorization guarantees non-increase; float noise at convergence
            break
        points, prev, stress = candidate, stress, new_stress
        dist, cand_dist = cand_dist, dist
        steps += 1
        if (prev - stress) <= _REL_TOL * prev:
            break
    else:  # max_iter steps ran out before any stopping rule held
        return points, stress, steps, False
    return points, stress, steps, True


def embed(
    matrix: DistanceMatrix,
    beta: int,
    seed: int = 0,
    max_iter: int = _MAX_ITER,
    n_restarts: int = _N_RESTARTS,
) -> Embedding:
    """Embed a distance matrix into R^beta; beta is an integer in [1, n-1].

    The spectral start is always refined (so Euclidean-realizable input is
    recovered exactly); n_restarts additional majorization runs from seeded
    random configurations guard against symmetric saddles of the stress, and
    the lowest-stress result wins (ties keep the spectral run).  Deterministic
    given seed.  max_iter=0 returns the raw spectral coordinates.  Each run
    stops at the relative stress tolerance or after max_iter steps, whichever
    comes first; one warning on the `pairtraj.mds` logger names the runs that
    reached the cap unconverged.

    The restarts count only when the refined spectral run has positive
    stress; otherwise the spectral run alone is returned.  Every run's start
    is drawn up front, and at every n the runs go on `workers.fork_map`,
    which forks up to one worker per CPU in this process's affinity mask
    (`workers.cpu_count`) once it has two jobs, all under one pinned BLAS
    thread count; the points, stress, iterations and best_run are the same
    bytes at any CPU count.  A spectral start that LAPACK cannot compute
    raises NumericalError.
    """
    n = matrix.n
    if not isinstance(beta, (int, np.integer)) or not 1 <= beta <= n - 1:
        raise InvalidInputError(f"beta must be an integer in [1, {n - 1}], got {beta!r}")
    if max_iter < 0 or n_restarts < 0:
        raise InvalidInputError("max_iter and n_restarts must be nonnegative")
    deltas = matrix.entries
    neg_deltas = np.negative(deltas)
    # threaded BLAS rounds the spectral eigh and every Guttman step's
    # B @ points differently with each thread count; the count is
    # process-global and forked workers inherit it, so one pin covers every run
    with one_blas_thread():
        starts = [_classical_start(deltas, beta)]
        positive = deltas[deltas > 0]
        if max_iter > 0 and positive.size:
            rng = np.random.default_rng(seed)
            scale = float(positive.mean())
            starts += [rng.normal(size=(n, beta)) * scale for _ in range(n_restarts)]
        runs = list(fork_map(lambda start: _smacof(start, neg_deltas, max_iter), starts))
    if not runs[0][1] > 0.0:
        runs = runs[:1]
    # the first run of least stress wins, so ties keep the earlier run
    best_run = min(range(len(runs)), key=lambda run: runs[run][1])
    points, stress, _, _ = runs[best_run]
    iterations = tuple(steps for _, _, steps, _ in runs)
    capped = [run for run, (*_, converged) in enumerate(runs) if not converged]
    if max_iter > 0 and capped:
        _log.warning("embed: run(s) %s of %d stopped at the %d-step cap",
                     capped, len(runs), max_iter)
    return Embedding(points, stress, iterations, best_run)


def write_embedding_binary(path, embedding: Embedding) -> None:
    """The arrays (`write_arrays`): int64 beta, best_run and each run's
    iterations, then float64 stress and the row-major points."""
    ints = [embedding.beta, embedding.best_run, *embedding.iterations]
    floats = [np.array([embedding.stress]), embedding.points]
    write_arrays(path, _MAGIC, np.array(ints, dtype=np.int64), floats)


def read_embedding_binary(path) -> Embedding:
    ints, floats = read_arrays(path, _MAGIC, "i8", "f8")
    with malformed(path):
        (beta, best_run, *iterations), (stress,) = ints.tolist(), floats[:1].tolist()
        return Embedding(floats[1:].reshape(-1, beta), stress, tuple(iterations), best_run)
