"""Rigid-motion quotient distance between ordered trajectory pairs.

The distance between interactions (f11, f12) and (f21, f22) is the infimum
over rotations O in SO(2), translations c, and the pair-order swap of the
second interaction, of the mismatch averaged over the T samples of the
shared grid

    rho^2 = sum_i (1/T) sum_t ||f_1i(t) - (O f_2i(t) + c)||^2 .

Both curves of a pair move under one shared rigid motion.  In the plane a
point is a complex number and a rotation is a unit complex number, so each
interaction is packed once as its jointly centred curves z in C^{2T} (first
curve, then second) with weighted norm N = sum w |z|^2.  Moving a source s
onto a target t, the optimal rotation is the phase e^{i phi} of
G = sum w conj(z_s) z_t, the optimal translation is mean_t - e^{i phi} mean_s,
and the residual is N_s + N_t - 2|G|.  Every alignment in the package goes
through one kernel, `_residual_sq`, which takes a stack of sources against a
stack of targets and forms all the G at once as one complex matrix product.
That product runs in numpy's own einsum loop rather than BLAS, because
OpenBLAS rounds differently with one thread than with several; the loop sums
each entry over k the same way whatever the stack sizes, so an entry has the
same bits in any block.
When G = 0 every rotation ties and the identity is used.  The swap branch is
the same call with the two halves of each source exchanged; the distance is
the smaller branch, and ties keep the unswapped order.

The subtraction N_s + N_t - 2|G| cancels for near-identical pairs.  Wherever
it is at most _RECOMPUTE_REL * (N_s + N_t), the residual is recomputed
directly as sum w |z_t - e^{i phi} z_s|^2 with the same phase.

The matrices run the kernel on row blocks of _BLOCK sources at a time
(`_min_sq_rows`), which bounds the temporaries to a few (_BLOCK, n) arrays.
`distance_matrix` matches each block only against the targets from the
block's own first row on, fills the strict upper triangle and mirrors it;
`cross_distance_matrix` takes whole rows.  From _POOL_MIN_PAIRS (source,
target) pairs up, with at least two blocks, the blocks run on a thread pool,
one thread per CPU in the affinity mask (`workers.cpu_count`): einsum
releases the GIL, and the calling thread places each block in block order.
Smaller problems, and every problem inside a `workers.fork_map` worker, run
their blocks in the calling thread.  Since an entry's bits do not depend on
its block, the matrices are the same bytes on any number of threads.
`write_matrix_csv` formats its rows in jobs of _CSV_JOB entries on
`workers.fork_map`, which forks up to one worker per CPU once it has two
jobs, and streams them to the file in order.

This module owns the stacked layout of a pair, the (2T, 2) rows of the first
curve then the second (`_stack_rows`), and the alignment set-up: every entry
point packs with `_pack`, which checks one shared T and norms that can be
squared (`_NORM_MAX`), and the kernel takes the weight w = 1/T of every
sample from the packed width 2T.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import workers as _workers
from .artifacts import malformed, read_arrays, table_lines, write_arrays, write_rows
from .errors import InvalidInputError, NumericalError
from .trajectory import _store, Interaction, Trajectory

_MAGIC = b"PTD2"
# An interaction's norm N must be 0 from coincident points, or a normal double
# (a smaller one has lost bits) at most w * _NORM_MAX: then every |z_k|^2 <=
# N / w <= _NORM_MAX, so N_s + N_t, 2|G| <= 2 sqrt(N_s N_t) and each recomputed
# |z_t - e^{i phi} z_s|^2 stay finite
_TINY, _NORM_MAX = np.finfo(float).tiny, np.finfo(float).max / 8
# Residuals at most this fraction of N_s + N_t are summed directly instead
_RECOMPUTE_REL = 1e-3
# Near pairs are recomputed this many at a time, bounding the temporaries
_RECOMPUTE_CHUNK = 256
# Sources per kernel call in the matrices; small blocks split the shrinking
# rows of the upper triangle evenly among the threads
_BLOCK = 64
# From this many (source, target) pairs up the blocks run on threads: pool
# threads raised the peak RSS of the small cross matrices of `evaluate` and
# `wasserstein`
_POOL_MIN_PAIRS = 1 << 16
# Entries formatted per fork map job, so from n=182 up a matrix is two jobs
# or more and forked workers format all rows after the first job's.  Against
# formatting in this process alone (2 CPUs, medians of 100 interleaved calls,
# three runs) that lost 3-4 ms at n=182 and 1-9 ms at n=200, won 7-19 ms at
# n=240 and 256 in two runs and lost 7-9 ms in the third, and won 35-75 ms at
# n=480, where 2^16 (two jobs from n=257) was 3-8 ms slower
_CSV_JOB = 1 << 15


@dataclass(frozen=True, eq=False)
class Alignment:
    """A proper rigid motion x -> rotation @ x + translation, plus the swap flag."""

    rotation: np.ndarray
    translation: np.ndarray
    swapped: bool

    def __post_init__(self) -> None:
        rot = np.array(self.rotation, dtype=float)
        trans = np.array(self.translation, dtype=float)
        if rot.shape != (2, 2) or trans.shape != (2,):
            raise InvalidInputError("rotation must be 2x2 and translation length 2")
        if not (np.all(np.isfinite(rot)) and np.all(np.isfinite(trans))):
            raise InvalidInputError("alignment contains non-finite values")
        if np.max(np.abs(rot.T @ rot - np.eye(2))) > 1e-10:
            raise InvalidInputError("rotation is not orthogonal within 1e-10")
        if abs(np.linalg.det(rot) - 1.0) > 1e-10:
            raise InvalidInputError("rotation must be proper (det +1 within 1e-10)")
        _store(self, rotation=rot, translation=trans)

    def apply(self, interaction: Interaction) -> Interaction:
        """Move both curves of an interaction by this rigid motion.

        The swap flag is the caller's business: apply() never reorders the pair.
        """
        moved = _stack_rows(interaction) @ self.rotation.T + self.translation
        return _rows_to_interaction(moved, interaction.grid)


def _unwritable(array) -> bool:
    """Whether `array` is a float64 array that is not writeable, and neither
    is any array it views, down to an owner of its own memory or a `bytes`
    object.  An owner marked read-only is trusted to stay so."""
    if not isinstance(array, np.ndarray) or array.dtype != np.float64:
        return False
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return array is None or isinstance(array, bytes)


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric nonnegative pairwise distances with a (near-)zero diagonal.

    Entries that no one can write (`_unwritable`) are kept; others are copied.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        ent = self.entries if _unwritable(self.entries) else np.array(self.entries, dtype=float)
        if ent.ndim != 2 or ent.shape[0] != ent.shape[1] or ent.shape[0] < 1:
            raise InvalidInputError("entries must be a nonempty square matrix")
        if not np.all(np.isfinite(ent)):
            raise InvalidInputError("distance matrix contains non-finite values")
        if np.any(ent < 0):
            raise InvalidInputError("distances must be nonnegative")
        # row blocks against the matching column blocks: no (n, n) temporaries
        if any(
            np.max(np.abs(ent[lo : lo + _BLOCK] - ent[:, lo : lo + _BLOCK].T)) > 1e-10
            for lo in range(0, ent.shape[0], _BLOCK)
        ):
            raise InvalidInputError("distance matrix must be symmetric within 1e-10")
        if np.max(np.abs(np.diag(ent))) > 1e-10:
            raise InvalidInputError("diagonal must be zero within 1e-10")
        _store(self, entries=ent)

    @property
    def n(self) -> int:
        return int(self.entries.shape[0])


def _stack_rows(interaction: Interaction) -> np.ndarray:
    return np.concatenate([interaction.first.samples, interaction.second.samples])


def _rows_to_interaction(rows: np.ndarray, grid: np.ndarray) -> Interaction:
    half = rows.shape[0] // 2
    return Interaction(Trajectory(rows[:half], grid), Trajectory(rows[half:], grid))


def _pack(*groups: list[Interaction]) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per group: jointly centred complex curves (n, 2T), their means (n,) and
    norms (n,).  Every interaction of every group must share one T; a norm
    out of range (`_NORM_MAX`) is a NumericalError naming the interaction by
    its index over all groups."""
    _shared_length([inter for group in groups for inter in group])
    packed, first = [], 0
    # a norm out of range is refused below, not warned about
    with np.errstate(all="ignore"):
        for group in groups:
            rows = np.stack([_stack_rows(i) for i in group])
            raw = rows[..., 0] + 1j * rows[..., 1]
            w = 1.0 / (raw.shape[1] // 2)
            # Row-wise sums rather than a BLAS matrix-vector product, so an interaction
            # packs to the same bits in any batch and a coincident-point blob centres
            # to 0.  The weights sum to 2 over both curves: the joint mean carries 1/2.
            mean = 0.5 * (raw * w).sum(axis=1)
            z = raw - mean[:, None]
            norm = ((z.real**2 + z.imag**2) * w).sum(axis=1)
            bad = ~((norm >= _TINY) & (norm <= w * _NORM_MAX))
            if bad.any():
                bad &= (norm != 0) | (z != 0).any(axis=1)  # a 0 from coincident points is kept
                if bad.any():
                    idx = int(bad.argmax())
                    raise NumericalError(
                        f"interaction {first + idx}: coordinates too"
                        f" {'small' if norm[idx] < _TINY else 'large'} to square"
                        f" (squared norm {norm[idx]:.3g})"
                    )
            first += len(group)
            packed.append((z, mean, norm))
    return packed


def _residual_sq(
    zs: np.ndarray, ns: np.ndarray, zt: np.ndarray, nt: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The alignment kernel: every source (rows of zs) onto every target (rows of zt).

    Returns (m, p) arrays: the squared residual of source i optimally rotated
    and translated onto target j (no swap), and the rotation e^{i phi} doing it.
    """
    w = 1.0 / (zs.shape[1] // 2)
    # not BLAS: results must not depend on the BLAS thread count
    phase = np.einsum("ik,jk->ij", zs.conj() * w, zt)
    size = np.abs(phase)
    np.divide(phase, size, out=phase, where=size > 0)
    phase[size == 0] = 1.0
    total = ns[:, None] + nt[None, :]
    resid = total - 2.0 * size
    near_i, near_j = np.nonzero(resid <= _RECOMPUTE_REL * total)
    for lo in range(0, near_i.size, _RECOMPUTE_CHUNK):
        i, j = near_i[lo : lo + _RECOMPUTE_CHUNK], near_j[lo : lo + _RECOMPUTE_CHUNK]
        diff = zt[j] - phase[i, j, None] * zs[i]
        resid[i, j] = ((diff.real**2 + diff.imag**2) * w).sum(axis=1)
    return resid, phase


def _alignment(phase: complex, mean_s: complex, mean_t: complex, swapped: bool) -> Alignment:
    c, s = phase.real, phase.imag
    trans = mean_t - phase * mean_s
    return Alignment(np.array([[c, -s], [s, c]]), np.array([trans.real, trans.imag]), swapped)


def _shared_length(data: list[Interaction]) -> int:
    if not data:
        raise InvalidInputError("need at least one interaction")
    T = len(data[0])
    for idx, inter in enumerate(data):
        if len(inter) != T:
            raise InvalidInputError(
                f"interaction {idx} has grid length {len(inter)}, expected {T}"
            )
    return T


def _both_orders(zs, ns, zt, nt):
    """Kernel (residual, phase) of every source onto every target, unswapped
    and swapped."""
    keep = _residual_sq(zs, ns, zt, nt)
    # rolling by T puts each source's second curve first: the swapped pair order
    swap = _residual_sq(np.roll(zs, zs.shape[1] // 2, axis=1), ns, zt, nt)
    return keep, swap


def _min_sq_rows(zs, ns, zt, nt, threads: int, upper: bool = False):
    """Squared quotient distances, _BLOCK sources at a time, on up to
    `threads` threads from _POOL_MIN_PAIRS pairs up (outside a fork map
    worker), else in the calling thread.

    Yields (lo, block) in block order: block[r, c] belongs to source lo + r
    and target c, or with `upper` to target lo + c, the targets before lo
    being skipped.  The first failing block's error in block order is raised.
    """

    def block(lo):
        rows, cols = slice(lo, lo + _BLOCK), slice(lo if upper else 0, None)
        (keep, _), (swap, _) = _both_orders(zs[rows], ns[rows], zt[cols], nt[cols])
        return lo, np.minimum(keep, swap)

    starts = range(0, len(zs), _BLOCK)
    threads = min(threads, len(starts))
    if threads < 2 or len(zs) * len(zt) < _POOL_MIN_PAIRS or _workers._in_worker:
        yield from map(block, starts)
        return
    # a module global: bench/layers.py patches it when it traces a run
    with ThreadPoolExecutor(threads) as pool:
        yield from pool.map(block, starts)


def align(target: Interaction, source: Interaction) -> tuple[Alignment, Interaction]:
    """Optimally rotate and translate `source` (both curves jointly) onto `target`.

    Pair order is never permuted here; the returned Alignment always has
    swapped=False.  Minimizes rho^2 over SO(2) x R^2 in closed form.
    """
    (zt, mean_t, nt), (zs, mean_s, ns) = _pack([target], [source])
    _, phase = _residual_sq(zs, ns, zt, nt)
    fit = _alignment(phase[0, 0], mean_s[0], mean_t[0], swapped=False)
    return fit, fit.apply(source)


def distance(a: Interaction, b: Interaction) -> float:
    """Quotient distance: rho minimized over rigid motions and the pair-order swap.

    a is moved onto b, as row a onto column b of the matrices, so the value
    has the bits of `distance_matrix([a, b])` at [0, 1] and of
    `cross_distance_matrix([a], [b])` at [0, 0].
    """
    return float(cross_distance_matrix([a], [b])[0, 0])


def distance_with_alignment(a: Interaction, b: Interaction) -> tuple[float, Alignment]:
    """Like distance(), also reporting the realized rigid motion of b onto a.

    Moving b onto a, the value is `distance(b, a)`, which may differ from
    `distance(a, b)` in its last bits.  Ties between the two orderings keep
    swapped=False.
    """
    (zb, mean_b, nb), (za, mean_a, na) = _pack([b], [a])
    (r_keep, ph_keep), (r_swap, ph_swap) = _both_orders(zb, nb, za, na)
    swapped = bool(r_swap[0, 0] < r_keep[0, 0])
    phase = ph_swap[0, 0] if swapped else ph_keep[0, 0]
    dist = float(np.sqrt(min(r_keep[0, 0], r_swap[0, 0])))
    return dist, _alignment(phase, mean_b[0], mean_a[0], swapped)


def distance_matrix(
    data: list[Interaction], normalize: bool = False, workers: int | None = None
) -> DistanceMatrix:
    """All pairwise quotient distances.

    With normalize=True the matrix is rescaled so its largest entry is 1
    (no-op on an all-zero matrix).  Each block of _BLOCK rows is matched
    against the columns from its own first row on; the strict upper triangle
    is kept and mirrored, and the diagonal is exactly 0.  The blocks run on
    up to `workers` threads, by default one per CPU in the affinity mask
    (`workers.cpu_count`); 1 runs them in the calling thread, which is how
    the benchmark's trace times one thread.  The entries are the same bytes
    at any count.
    """
    [(z, _, norm)] = _pack(data)
    out = np.zeros((len(data), len(data)))
    threads = _workers.cpu_count() if workers is None else workers
    for lo, block in _min_sq_rows(z, norm, z, norm, threads, upper=True):
        upper = np.triu(np.sqrt(block, out=block), 1)
        out[lo : lo + len(upper), lo:] = upper
        out[lo:, lo : lo + len(upper)] += upper.T
    if normalize:
        top = out.max()
        if top > 0:
            out /= top
    out.setflags(write=False)  # so DistanceMatrix keeps it without a copy
    return DistanceMatrix(out)


def cross_distance_matrix(left: list[Interaction], right: list[Interaction]) -> np.ndarray:
    """Rectangular matrix of quotient distances d(left[i], right[j]).

    The rows are computed _BLOCK at a time, on one thread per CPU in the
    affinity mask as in `distance_matrix`, which bounds the temporaries only:
    every entry has the bits of one whole-matrix kernel call."""
    if not left or not right:
        raise InvalidInputError("need at least one interaction on each side")
    (zs, _, ns), (zt, _, nt) = _pack(left, right)
    out = np.empty((len(left), len(right)))
    for lo, block in _min_sq_rows(zs, ns, zt, nt, _workers.cpu_count()):
        np.sqrt(block, out=out[lo : lo + len(block)])
    return out


def write_matrix_csv(path, matrix: DistanceMatrix, meta: dict | None = None) -> None:
    """Text form: optional `#` metadata line, a header line holding n, then n rows.

    The rows are formatted on `workers.fork_map` in jobs of about _CSV_JOB
    entries, one `table_lines` block each, which stream to the file in input
    order as they come, so the whole text is never held at once.
    """
    entries, n = matrix.entries, matrix.n
    per_job = max(1, _CSV_JOB // n)
    blocks = _workers.fork_map(
        lambda lo: table_lines(entries[lo : lo + per_job]), range(0, n, per_job)
    )
    write_rows(path, [str(n)], blocks, meta)


def write_matrix_binary(path, matrix: DistanceMatrix) -> None:
    """Compact layout: the row-major float64 entries as one array (`write_arrays`)."""
    write_arrays(path, _MAGIC, matrix.entries)


def read_matrix_binary(path) -> DistanceMatrix:
    (entries,) = read_arrays(path, _MAGIC, "f8")
    with malformed(path):
        n = math.isqrt(entries.size)
        return DistanceMatrix(entries.reshape(n, n))
