"""Rigid-motion quotient distance between ordered trajectory pairs.

The distance between interactions (f11, f12) and (f21, f22) is the infimum
over rotations O in SO(2), translations c, and the pair-order swap of the
second interaction, of the weighted mismatch

    rho^2 = sum_i integral ||f_1i - (O f_2i + c)||^2 dmu .

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
`cross_distance_matrix` takes whole rows.

This module owns the stacked layout of a pair, the (2T, 2) rows of the first
curve then the second (`_stack_rows`), and the alignment set-up: every entry
point resolves its time measure (uniform when None) through `_row_weights`.
"""

from __future__ import annotations

from dataclasses import dataclass
# not used here; bench/layers.py patches this name when it traces a run
from concurrent.futures import ThreadPoolExecutor  # noqa: F401

import numpy as np

from .artifacts import fmt_row, malformed, read_binary, read_rows, write_binary, write_rows
from .errors import DataError, InvalidInputError
from .trajectory import Interaction, TimeMeasure, Trajectory, uniform_measure

_MAGIC = b"PTDM"
# Residuals at most this fraction of N_s + N_t are summed directly instead
_RECOMPUTE_REL = 1e-3
# Near pairs are recomputed this many at a time, bounding the temporaries
_RECOMPUTE_CHUNK = 256
# Sources per kernel call in the matrices
_BLOCK = 256


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
        rot.setflags(write=False)
        trans.setflags(write=False)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)

    def apply(self, interaction: Interaction) -> Interaction:
        """Move both curves of an interaction by this rigid motion.

        The swap flag is the caller's business: apply() never reorders the pair.
        """
        moved = _stack_rows(interaction) @ self.rotation.T + self.translation
        return _rows_to_interaction(moved, interaction.grid)


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric nonnegative pairwise distances with a (near-)zero diagonal."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        ent = np.array(self.entries, dtype=float)
        if ent.ndim != 2 or ent.shape[0] != ent.shape[1] or ent.shape[0] < 1:
            raise InvalidInputError("entries must be a nonempty square matrix")
        if not np.all(np.isfinite(ent)):
            raise InvalidInputError("distance matrix contains non-finite values")
        if np.any(ent < 0):
            raise InvalidInputError("distances must be nonnegative")
        if np.max(np.abs(ent - ent.T)) > 1e-10:
            raise InvalidInputError("distance matrix must be symmetric within 1e-10")
        if np.max(np.abs(np.diag(ent))) > 1e-10:
            raise InvalidInputError("diagonal must be zero within 1e-10")
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)

    @property
    def n(self) -> int:
        return int(self.entries.shape[0])


def _row_weights(mu: TimeMeasure | None, T: int) -> np.ndarray:
    """Weights of the 2T rows of a stacked pair: mu, uniform when None, on each curve."""
    if mu is None:
        mu = uniform_measure(T)
    elif len(mu) != T:
        raise InvalidInputError(f"measure has {len(mu)} weights but the grid has {T} samples")
    return np.concatenate([mu.weights, mu.weights])


def _stack_rows(interaction: Interaction) -> np.ndarray:
    return np.concatenate([interaction.first.samples, interaction.second.samples])


def _rows_to_interaction(rows: np.ndarray, grid: np.ndarray) -> Interaction:
    half = rows.shape[0] // 2
    return Interaction(Trajectory(rows[:half], grid), Trajectory(rows[half:], grid))


def _pack(data: list[Interaction], w_row: np.ndarray):
    """Jointly centred complex curves (n, 2T), their means (n,) and norms (n,)."""
    rows = np.stack([_stack_rows(i) for i in data])
    raw = rows[..., 0] + 1j * rows[..., 1]
    # Row-wise sums rather than a BLAS matrix-vector product, so an interaction
    # packs to the same bits in any batch and a coincident-point blob centres to 0.
    # The row weights sum to 2 over both curves: the joint mean carries 1/2.
    mean = 0.5 * (raw * w_row).sum(axis=1)
    z = raw - mean[:, None]
    return z, mean, ((z.real**2 + z.imag**2) * w_row).sum(axis=1)


def _residual_sq(
    zs: np.ndarray, ns: np.ndarray, zt: np.ndarray, nt: np.ndarray, w_row: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The alignment kernel: every source (rows of zs) onto every target (rows of zt).

    Returns (m, p) arrays: the squared residual of source i optimally rotated
    and translated onto target j (no swap), and the rotation e^{i phi} doing it.
    """
    # not BLAS: results must not depend on the BLAS thread count
    phase = np.einsum("ik,jk->ij", zs.conj() * w_row, zt)
    size = np.abs(phase)
    np.divide(phase, size, out=phase, where=size > 0)
    phase[size == 0] = 1.0
    total = ns[:, None] + nt[None, :]
    resid = total - 2.0 * size
    near_i, near_j = np.nonzero(resid <= _RECOMPUTE_REL * total)
    for lo in range(0, near_i.size, _RECOMPUTE_CHUNK):
        i, j = near_i[lo : lo + _RECOMPUTE_CHUNK], near_j[lo : lo + _RECOMPUTE_CHUNK]
        diff = zt[j] - phase[i, j, None] * zs[i]
        resid[i, j] = ((diff.real**2 + diff.imag**2) * w_row).sum(axis=1)
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


def _packed(source: list[Interaction], target: list[Interaction], mu):
    """The row weights, then `_pack` of the sources and of the targets."""
    w = _row_weights(mu, _shared_length([*source, *target]))
    return w, _pack(source, w), _pack(target, w)


def _both_orders(zs, ns, zt, nt, w_row):
    """Kernel (residual, phase) of every source onto every target, unswapped
    and swapped."""
    keep = _residual_sq(zs, ns, zt, nt, w_row)
    # rolling by T puts each source's second curve first: the swapped pair order
    swap = _residual_sq(np.roll(zs, zs.shape[1] // 2, axis=1), ns, zt, nt, w_row)
    return keep, swap


def _min_sq_rows(zs, ns, zt, nt, w_row, upper: bool = False):
    """Squared quotient distances, _BLOCK sources at a time.

    Yields (lo, block): block[r, c] belongs to source lo + r and target c, or
    with `upper` to target lo + c, the targets before lo being skipped.
    """
    for lo in range(0, len(zs), _BLOCK):
        rows, cols = slice(lo, lo + _BLOCK), slice(lo if upper else 0, None)
        (keep, _), (swap, _) = _both_orders(zs[rows], ns[rows], zt[cols], nt[cols], w_row)
        yield lo, np.minimum(keep, swap)


def align(
    target: Interaction, source: Interaction, mu: TimeMeasure | None = None
) -> tuple[Alignment, Interaction]:
    """Optimally rotate and translate `source` (both curves jointly) onto `target`.

    Pair order is never permuted here; the returned Alignment always has
    swapped=False.  Minimizes rho^2 over SO(2) x R^2 in closed form.
    """
    w = _row_weights(mu, _shared_length([target, source]))
    z, mean, norm = _pack([source, target], w)
    _, phase = _residual_sq(z[:1], norm[:1], z[1:], norm[1:], w)
    fit = _alignment(phase[0, 0], mean[0], mean[1], swapped=False)
    return fit, fit.apply(source)


def distance(a: Interaction, b: Interaction, mu: TimeMeasure | None = None) -> float:
    """Quotient distance: rho minimized over rigid motions and the pair-order swap."""
    return float(cross_distance_matrix([b], [a], mu)[0, 0])


def distance_with_alignment(
    a: Interaction, b: Interaction, mu: TimeMeasure | None = None
) -> tuple[float, Alignment]:
    """Like distance(), also reporting the realized rigid motion of b onto a.

    Ties between the two orderings keep swapped=False.
    """
    w, (zb, mean_b, nb), (za, mean_a, na) = _packed([b], [a], mu)
    (r_keep, ph_keep), (r_swap, ph_swap) = _both_orders(zb, nb, za, na, w)
    swapped = bool(r_swap[0, 0] < r_keep[0, 0])
    phase = ph_swap[0, 0] if swapped else ph_keep[0, 0]
    dist = float(np.sqrt(min(r_keep[0, 0], r_swap[0, 0])))
    return dist, _alignment(phase, mean_b[0], mean_a[0], swapped)


def distance_matrix(
    data: list[Interaction],
    mu: TimeMeasure | None = None,
    normalize: bool = False,
    workers: int | None = None,
) -> DistanceMatrix:
    """All pairwise quotient distances.

    With normalize=True the matrix is rescaled so its largest entry is 1
    (no-op on an all-zero matrix).  Each block of _BLOCK rows is matched
    against the columns from its own first row on; the strict upper triangle
    is kept and mirrored, and the diagonal is exactly 0.  `workers` changes
    nothing; it stays only while the benchmark (`bench/run.py`) still passes
    it, and goes together with that call.
    """
    w = _row_weights(mu, _shared_length(data))
    z, _, norm = _pack(data, w)
    out = np.zeros((len(data), len(data)))
    for lo, block in _min_sq_rows(z, norm, z, norm, w, upper=True):
        upper = np.triu(np.sqrt(block, out=block), 1)
        out[lo : lo + len(upper), lo:] = upper
        out[lo:, lo : lo + len(upper)] += upper.T
    if normalize:
        top = out.max()
        if top > 0:
            out /= top
    return DistanceMatrix(out)


def cross_distance_matrix(
    left: list[Interaction],
    right: list[Interaction],
    mu: TimeMeasure | None = None,
) -> np.ndarray:
    """Rectangular matrix of quotient distances d(left[i], right[j]).

    The rows are computed _BLOCK at a time, which bounds the temporaries only:
    every entry has the bits of one whole-matrix kernel call."""
    if not left or not right:
        raise InvalidInputError("need at least one interaction on each side")
    w, (zs, _, ns), (zt, _, nt) = _packed(left, right, mu)
    out = np.empty((len(left), len(right)))
    for lo, block in _min_sq_rows(zs, ns, zt, nt, w):
        np.sqrt(block, out=out[lo : lo + len(block)])
    return out


def write_matrix_csv(path, matrix: DistanceMatrix, meta: dict | None = None) -> None:
    """Text form: optional `#` metadata line, a header line holding n, then n rows."""
    rows = (fmt_row(row.tolist()) for row in matrix.entries)
    write_rows(path, [str(matrix.n)], rows, meta)


def read_matrix_csv(path) -> DistanceMatrix:
    _, rows = read_rows(path, None)
    (no, size), body = rows[0], rows[1:]
    with malformed(f"{path}:{no}"):
        (n,) = map(int, size)  # the header holds the size alone
    entries = []
    for no, fields in body:
        if len(fields) != n:
            raise DataError(f"{path}:{no}: expected {n} entries, got {len(fields)}")
        with malformed(f"{path}:{no}"):
            entries.append([float(v) for v in fields])
    with malformed(path):
        return DistanceMatrix(np.array(entries))


def write_matrix_binary(path, matrix: DistanceMatrix) -> None:
    """Compact layout: magic, little-endian int64 n, row-major float64 entries."""
    write_binary(
        path, _MAGIC, np.array([matrix.n], dtype="<i8").tobytes(),
        np.ascontiguousarray(matrix.entries, dtype="<f8").tobytes(),
    )


def read_matrix_binary(path) -> DistanceMatrix:
    payload = read_binary(path, _MAGIC)
    with malformed(path):
        n = int(np.frombuffer(payload, dtype="<i8", count=1)[0])
        if n < 1 or len(payload) != 8 * (1 + n * n):
            raise DataError(f"{path}: truncated or oversized payload for n={n}")
        return DistanceMatrix(np.frombuffer(payload, dtype="<f8", offset=8).reshape(n, n))
