"""Synthetic fixtures: planted interaction families and knotted encounters.

Family datasets place noisy rigid-motion copies of four canonical geometries
(two vehicles moving in parallel, in opposition, crossing paths, or one nearly
stationary next to the other's path) so clustering methods can be scored
against known labels.  Knotted encounters chain random cubic legs whose
velocity reverses at planted indices; positional noise is 1% of the coordinate
range, which keeps the joints detectable but too mild to justify extra cuts.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .procrustes import _rows_to_interaction, _stack_rows, distance_matrix
from .trajectory import Interaction, Trajectory

FAMILIES = ("parallel", "opposing", "crossing", "stationary-near")


def family_interaction(family: str, num_samples: int = 51) -> Interaction:
    """The canonical noiseless member of one family on a unit [0, 1] grid."""
    u = np.linspace(0.0, 1.0, num_samples)
    if family == "parallel":
        a = np.column_stack([u, np.full_like(u, 0.3)])
        b = np.column_stack([u, np.full_like(u, -0.3)])
    elif family == "opposing":
        a = np.column_stack([u, np.full_like(u, 0.3)])
        b = np.column_stack([1.0 - u, np.full_like(u, -0.3)])
    elif family == "crossing":
        a = np.column_stack([u, u])
        b = np.column_stack([u, 1.0 - u])
    elif family == "stationary-near":
        a = np.column_stack([u - 0.5, np.zeros_like(u)])
        b = np.column_stack([np.zeros_like(u), np.full_like(u, 0.35)])
    else:
        raise InvalidInputError(f"unknown family {family!r}; choose from {FAMILIES}")
    return Interaction(Trajectory(a, u), Trajectory(b, u))


def _rigid_noisy_copy(rng: np.random.Generator, base: Interaction, noise: float):
    theta = rng.uniform(0.0, 2.0 * np.pi)
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    shift = rng.uniform(-5.0, 5.0, 2)
    # pair order stays fixed: the anchor-alignment methods are deliberately
    # not order-invariant, and planted recovery is their benchmark
    rows = _stack_rows(base)
    moved = rows @ rot.T + shift + rng.normal(0.0, noise, rows.shape)
    return _rows_to_interaction(moved, base.grid)


def make_family_dataset(
    seed: int,
    per_family: int = 50,
    families=("parallel", "opposing", "crossing"),
    num_samples: int = 51,
    noise: float = 0.01,
) -> tuple[list[Interaction], np.ndarray]:
    """Noisy rigid-motion copies of each family; returns (data, integer labels)."""
    if not families:
        raise InvalidInputError("families must not be empty")
    if per_family < 1:
        raise InvalidInputError("per_family must be positive")
    if noise < 0:
        raise InvalidInputError("noise must be nonnegative")
    rng = np.random.default_rng(seed)
    bases = [family_interaction(f, num_samples) for f in families]
    data: list[Interaction] = []
    labels: list[int] = []
    for index, base in enumerate(bases):
        for _ in range(per_family):
            data.append(_rigid_noisy_copy(rng, base, noise))
            labels.append(index)
    return data, np.array(labels)


def within_between_ratio(data, labels) -> float:
    """Mean within-family distance over mean between-family distance."""
    labels = np.asarray(labels)
    if len(data) != labels.shape[0]:
        raise InvalidInputError("data and labels sizes disagree")
    entries = distance_matrix(data).entries
    same = labels[:, None] == labels[None, :]
    off = ~np.eye(len(data), dtype=bool)
    between = entries[off & ~same]
    if between.size == 0:
        raise InvalidInputError("need at least two families")
    within = entries[off & same]
    if within.size == 0:
        raise InvalidInputError("need a family of at least two interactions")
    return float(within.mean() / between.mean())


def knotted_interaction(
    rng: np.random.Generator,
    knots,
    num_samples: int = 121,
    box: float = 2.0,
) -> Interaction:
    """Noisy encounter whose four coordinate series share cubic legs cut at knots.

    Legs are scaled Chebyshev cubics (slope concentrated at the endpoints)
    with alternating orientation, so each knot carries a sharp velocity
    reversal while the coordinate range stays near `box`; a smooth linear
    drift widens the range so the 1%-of-range noise does not make the
    reversals look like discontinuities worth extra change points.
    """
    if not 0.0 <= box < np.inf:
        raise InvalidInputError(f"box must be finite and nonnegative, got {box}")
    knots = tuple(int(k) for k in knots)
    if any(b <= a for a, b in zip(knots, knots[1:])):
        raise InvalidInputError("knots must be strictly increasing")
    if knots and not 0 < knots[0] <= knots[-1] < num_samples - 1:
        raise InvalidInputError("knots must be interior sample indices")
    t = np.arange(num_samples, dtype=float)
    curves = [
        _piecewise_cubic(rng, num_samples, knots, box),
        _piecewise_cubic(rng, num_samples, knots, box),
    ]
    spread = max(float(np.ptp(c, axis=0).max()) for c in curves)
    sigma = 0.01 * spread
    noisy = [c + rng.normal(0.0, sigma, c.shape) for c in curves]
    return Interaction(Trajectory(noisy[0], t), Trajectory(noisy[1], t))


def _piecewise_cubic(
    rng: np.random.Generator, num_samples: int, knots, box: float
) -> np.ndarray:
    pos = np.zeros((num_samples, 2))
    bounds = [0, *knots, num_samples - 1]
    start = rng.uniform(-0.2 * box, 0.2 * box, 2)
    orient = rng.choice([-1.0, 1.0], size=2)
    for leg, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        u = (np.arange(lo, hi + 1) - lo) / (hi - lo)
        w = 2.0 * u - 1.0
        cheb = 4.0 * w**3 - 3.0 * w
        for d in range(2):
            amp = 0.225 * box * orient[d] * (-1.0) ** leg * rng.uniform(0.85, 1.15)
            bow = 0.15 * box * rng.uniform(-1.0, 1.0)
            pos[lo : hi + 1, d] = start[d] + amp * (cheb + 1.0) + bow * u * (1.0 - u)
        start = pos[hi].copy()
    ramp = np.arange(num_samples) / (num_samples - 1)
    for d in range(2):
        pos[:, d] += rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 1.5) * box * ramp
    return pos


def make_encounter_dataset(
    seed: int,
    count: int = 8,
    knots=(40, 80),
    num_samples: int = 121,
    box: float = 2.0,
) -> tuple[list[tuple[str, Interaction]], dict]:
    """Knotted encounters plus a manifest of the planted cut indices."""
    if count < 1:
        raise InvalidInputError("count must be positive")
    rng = np.random.default_rng(seed)
    encounters = []
    manifest_entries = {}
    for i in range(count):
        enc_id = f"enc-{i:03d}"
        encounters.append((enc_id, knotted_interaction(rng, knots, num_samples, box)))
        manifest_entries[enc_id] = {"family": None, "knots": [int(k) for k in knots]}
    manifest = {"kind": "encounters", "seed": seed, "encounters": manifest_entries}
    return encounters, manifest


def make_labeled_dataset(
    seed: int,
    per_family: int = 50,
    families=("parallel", "opposing", "crossing"),
    num_samples: int = 51,
    noise: float = 0.01,
) -> tuple[list[tuple[str, Interaction]], dict]:
    """Family dataset keyed by id, with a manifest carrying the true labels."""
    data, labels = make_family_dataset(seed, per_family, families, num_samples, noise)
    encounters = []
    manifest_entries = {}
    for i, (inter, label) in enumerate(zip(data, labels)):
        enc_id = f"int-{i:03d}"
        encounters.append((enc_id, inter))
        manifest_entries[enc_id] = {"family": str(families[label]), "knots": []}
    manifest = {
        "kind": "families",
        "seed": seed,
        "families": list(families),
        "encounters": manifest_entries,
    }
    return encounters, manifest
