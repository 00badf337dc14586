"""Independent references and artifact checks for the benchmark's outputs.

The distance reference treats the planar rotation as a unit complex number:
for jointly centred, measure-weighted curves z_a, z_b in C^{2T} the optimal
rotation of b onto a is the phase of <z_a, z_b>_w, and the swap branch is the
same with the two halves of z_b exchanged.  The residual is then summed
directly as sum_w |z_a - e^{i theta} z_b|^2, never as N_a + N_b - 2|<.,.>|,
so near-identical pairs are checked without cancellation.
"""

from __future__ import annotations

import csv
import itertools
import json
import math

import numpy as np


def read_csv_curves(path: str, num_samples: int) -> tuple[list[str], np.ndarray]:
    """Encounter ids and their curves (n, T, 4) linearly resampled onto [0, 1]."""
    rows: dict[str, list[list[float]]] = {}
    with open(path, newline="") as handle:
        reader = csv.reader(line for line in handle if not line.startswith("#"))
        next(reader)
        for enc_id, *values in reader:
            rows.setdefault(enc_id, []).append([float(v) for v in values])
    target = np.linspace(0.0, 1.0, num_samples)
    curves = []
    for block in rows.values():
        arr = np.array(block)
        grid = (arr[:, 0] - arr[0, 0]) / (arr[-1, 0] - arr[0, 0])
        curves.append(np.column_stack([np.interp(target, grid, arr[:, c]) for c in range(1, 5)]))
    return list(rows), np.stack(curves)


def complex_centred(curves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jointly centred complex curves (n, 2T) and the uniform row weights (2T,)."""
    z = np.concatenate(
        [curves[:, :, 0] + 1j * curves[:, :, 1], curves[:, :, 2] + 1j * curves[:, :, 3]],
        axis=1,
    )
    half = curves.shape[1]
    w = np.full(2 * half, 1.0 / half)
    # the weights sum to 2 over both curves, so the joint mean carries 1/2
    return z - 0.5 * (z @ w)[:, None], w


def _swap_halves(z: np.ndarray) -> np.ndarray:
    half = z.shape[-1] // 2
    return np.concatenate([z[..., half:], z[..., :half]], axis=-1)


def _branch_sq(target: np.ndarray, sources: np.ndarray, w: np.ndarray) -> np.ndarray:
    inner = (sources.conj() * target[None, :]) @ w
    size = np.abs(inner)
    phase = np.where(size > 0, inner / np.where(size > 0, size, 1.0), 1.0)
    resid = target[None, :] - phase[:, None] * sources
    return (resid.real**2 + resid.imag**2) @ w


def reference_distances(target: np.ndarray, sources: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Quotient distances from one centred curve to each row of `sources`."""
    keep = _branch_sq(target, sources, w)
    swap = _branch_sq(target, _swap_halves(sources), w)
    return np.sqrt(np.minimum(keep, swap))


def reference_cross(left: np.ndarray, right: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.stack([reference_distances(row, right, w) for row in left])


def rel_close(value: float, reference: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - reference) <= tol * max(abs(reference), 1e-300)


def read_matrix_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path) as handle:
        meta = json.loads(handle.readline()[2:])
        n = int(handle.readline())
        entries = np.array([[float(v) for v in line.split(",")] for line in handle])
    if entries.shape != (n, n):
        raise ValueError(f"{path}: expected a {n}x{n} matrix, found {entries.shape}")
    return meta["ids"], entries


def best_match_rate(assignments, labels, k: int) -> float:
    """Share of points whose label agrees after the best relabelling."""
    z = np.asarray(assignments)
    truth = np.asarray(labels)
    return max(
        float(np.mean(np.asarray(perm)[z] == truth))
        for perm in itertools.permutations(range(k))
    )


def read_csv_column(path: str, column: str) -> list[str]:
    with open(path, newline="") as handle:
        reader = csv.DictReader(line for line in handle if not line.startswith("#"))
        return [row[column] for row in reader]


def knots_match(found, planted, slack: int = 2) -> bool:
    return len(found) == len(planted) and all(
        abs(g - p) <= slack for g, p in zip(found, planted)
    )
