"""Metric multidimensional scaling of a distance matrix into R^beta.

Classical (double-centered spectral) coordinates start the search; a
majorization loop (Guttman transform) then descends the raw stress

    stress(Y) = sum_{i,j} (||y_i - y_j|| - D_ij)^2

over all ordered pairs.  Each majorization step never increases the stress,
so the reported value is monotone over iterations.

Each run writes its steps into (n, n) buffers of its own.  The random
restarts are independent, so from `_POOL_MIN_N` points up they run on up to
one thread per CPU; their starts are drawn, and the winner picked, in run
order, so the output does not depend on the thread count.
"""

from __future__ import annotations

import ctypes
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .artifacts import malformed, read_binary, write_binary
from .errors import DataError, InvalidInputError
from .procrustes import DistanceMatrix
from .trajectory import _store

_log = logging.getLogger(__name__)
_REL_TOL = 1e-8
_MAX_ITER = 500
_N_RESTARTS = 8


def cache_tag() -> str:
    """The constants above that decide an embedding's bits, and the one-thread
    BLAS pin of `embed`, as text for a cache key."""
    return f";max_iter={_MAX_ITER};restarts={_N_RESTARTS};rel_tol={_REL_TOL!r};blas_threads=1"


# from this n up the restarts run on up to one thread per CPU; below it the
# thread start-up and the shared memory bandwidth cost more than they save
_POOL_MIN_N = 100
_MAGIC = b"PTEM"
_HEADER = np.dtype(
    [("n", "<i8"), ("beta", "<i8"), ("stress", "<f8"), ("best_run", "<i8"), ("runs", "<i8")]
)


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


def _stress(dist: np.ndarray, deltas: np.ndarray, work: np.ndarray) -> float:
    gap = np.subtract(dist, deltas, out=work)
    gap *= gap
    return float(np.sum(gap))


def cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one (Linux), else every CPU of the host; at least 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _one_blas_thread():
    """The OpenBLAS behind `np.linalg` on one thread inside the block, its
    earlier count restored after; nothing changes where numpy links another BLAS."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)  # lookups search its BLAS too
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    if get is None:
        yield
        return
    before = get()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def _classical_start(deltas: np.ndarray, beta: int) -> np.ndarray:
    n = deltas.shape[0]
    sq = deltas * deltas
    # double centering: B = -1/2 J D^2 J
    row = sq.mean(axis=1, keepdims=True)
    col = sq.mean(axis=0, keepdims=True)
    B = -0.5 * (sq - row - col + sq.mean())
    vals, vecs = np.linalg.eigh(B)
    order = np.argsort(vals)[::-1][:beta]
    lam = np.clip(vals[order], 0.0, None)
    return vecs[:, order] * np.sqrt(lam)


def _smacof(
    points: np.ndarray, deltas: np.ndarray, max_iter: int
) -> tuple[np.ndarray, float, int, bool]:
    """Majorize from `points`; returns the points, their stress, the steps
    taken and whether a stopping rule held within `max_iter` steps.

    The (n, n) buffers belong to this run alone, so runs may go concurrently.
    """
    n = points.shape[0]
    dist, cand_dist, work = (np.empty((n, n)) for _ in range(3))
    mask = np.empty((n, n), dtype=bool)
    _pairwise(points, dist, work)
    stress = _stress(dist, deltas, work)
    steps = 0
    for _ in range(max_iter):
        if stress == 0.0:
            break
        # the distances of the accepted points carry over from the last step;
        # B shares `work` with the gap, as it is dead once B @ points is taken
        B = work
        B.fill(0.0)
        np.divide(deltas, dist, out=B, where=np.greater(dist, 0, out=mask))
        row_sums = B.sum(axis=1)
        np.negative(B, out=B)
        np.fill_diagonal(B, row_sums)
        candidate = (B @ points) / n
        _pairwise(candidate, cand_dist, work)
        new_stress = _stress(cand_dist, deltas, work)
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

    The spectral start is always refined first (so Euclidean-realizable input
    is recovered exactly); n_restarts additional majorization runs from seeded
    random configurations guard against symmetric saddles of the stress, and
    the lowest-stress result wins (ties keep the spectral run).  Deterministic
    given seed.  max_iter=0 returns the raw spectral coordinates.  Each run
    stops at the relative stress tolerance or after max_iter steps, whichever
    comes first; one warning on the `pairtraj.mds` logger names the runs that
    reached the cap unconverged.

    The restarts run only when the refined spectral run has positive stress.
    For n >= `_POOL_MIN_N` they go on a pool of up to one thread per CPU in
    this process's affinity mask (`cpu_count`), all under one pinned BLAS
    thread count; the points, stress, iterations and best_run are the same
    bytes as with one worker.
    """
    n = matrix.n
    if not isinstance(beta, (int, np.integer)) or not 1 <= beta <= n - 1:
        raise InvalidInputError(f"beta must be an integer in [1, {n - 1}], got {beta!r}")
    if max_iter < 0 or n_restarts < 0:
        raise InvalidInputError("max_iter and n_restarts must be nonnegative")
    deltas = matrix.entries
    # threaded BLAS rounds the spectral eigh and every Guttman step's
    # B @ points differently with each thread count; the count is
    # process-global, so one pin covers every restart thread
    with _one_blas_thread():
        runs = [_smacof(_classical_start(deltas, beta), deltas, max_iter)]
        positive = deltas[deltas > 0]
        if max_iter > 0 and runs[0][1] > 0.0 and positive.size:
            rng = np.random.default_rng(seed)
            scale = float(positive.mean())
            starts = [rng.normal(size=(n, beta)) * scale for _ in range(n_restarts)]
            cpus = cpu_count() if n >= _POOL_MIN_N else 1
            with ThreadPoolExecutor(max(1, min(n_restarts, cpus))) as pool:
                runs += pool.map(lambda start: _smacof(start, deltas, max_iter), starts)
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
    """Magic, then little-endian int64 n and beta, float64 stress, int64
    best_run and the run count, int64 iterations per run, and the row-major
    float64 points."""
    header = (embedding.n, embedding.beta, embedding.stress, embedding.best_run,
              len(embedding.iterations))
    write_binary(
        path, _MAGIC, np.array([header], dtype=_HEADER).tobytes(),
        np.array(embedding.iterations, dtype="<i8").tobytes(),
        np.ascontiguousarray(embedding.points, dtype="<f8").tobytes(),
    )


def read_embedding_binary(path) -> Embedding:
    payload = read_binary(path, _MAGIC)
    with malformed(path):
        n, beta, stress, best_run, runs = np.frombuffer(payload, _HEADER, count=1)[0].tolist()
        head = _HEADER.itemsize
        if n < 1 or beta < 1 or runs < 0 or len(payload) != head + 8 * (runs + n * beta):
            raise DataError(f"{path}: truncated or oversized payload")
        iterations = np.frombuffer(payload, dtype="<i8", count=runs, offset=head)
        points = np.frombuffer(payload, dtype="<f8", offset=head + 8 * runs)
        return Embedding(points.reshape(n, beta), stress, tuple(iterations), best_run)
