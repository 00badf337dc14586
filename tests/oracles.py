"""Independent slow-route checks used by the test suite.

Everything here avoids the package's closed forms on purpose: rotations are
brute-forced on a theta grid (with the optimal translation for each theta),
transport plans are enumerated, and cubic fits go through explicit normal
equations.  `reference_embed` is the original two-pass SMACOF, frozen as the
reference the package's faster kernel must reproduce.
"""

from __future__ import annotations

import itertools

import numpy as np

from pairtraj.trajectory import Interaction, Trajectory


def stack_rows(interaction: Interaction) -> np.ndarray:
    return np.concatenate([interaction.first.samples, interaction.second.samples])


def rho_sq(a: Interaction, b: Interaction, w_t: np.ndarray) -> float:
    """Plain weighted mismatch sum_i integral ||a_i - b_i||^2 dmu, no motion."""
    w = np.concatenate([w_t, w_t])
    diff = stack_rows(a) - stack_rows(b)
    return float(np.einsum("t,ti,ti->", w, diff, diff))


def theta_grid_residual_sq(
    a: Interaction,
    b: Interaction,
    w_t: np.ndarray,
    swap: bool,
    n_grid: int = 100_000,
) -> float:
    """min over a theta grid of rho^2(a, O(theta) b + c(theta)).

    For each theta the translation is the exact optimum c = mean_a - O mean_b
    (the quadratic in c separates), so only the rotation is gridded: the
    residual is a_c - O(theta) b_c for the centred curves, and the rotated
    curve O(theta) b_c = cos(theta) b_c + sin(theta) b_c^perp, with b_c^perp
    the centred curve turned by a quarter turn.
    """
    A = stack_rows(a)
    B = stack_rows(b)
    if swap:
        half = len(a)
        B = np.concatenate([B[half:], B[:half]])
    w = np.concatenate([w_t, w_t])
    A_c = A - 0.5 * (w @ A)
    B_c = B - 0.5 * (w @ B)
    B_perp = np.column_stack([-B_c[:, 1], B_c[:, 0]])
    target, base, perp = A_c.ravel(), B_c.ravel(), B_perp.ravel()
    w_flat = np.repeat(w, 2)  # one weight per (row, coordinate) entry
    best = np.inf
    thetas = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    for chunk in np.array_split(thetas, max(1, n_grid // 4000)):
        diff = np.outer(np.cos(chunk), base)
        diff += np.outer(np.sin(chunk), perp)
        np.subtract(target, diff, out=diff)
        diff *= diff
        best = min(best, float((diff @ w_flat).min()))
    return best


def theta_grid_distance(
    a: Interaction, b: Interaction, w_t: np.ndarray, n_grid: int = 100_000
) -> float:
    """Full quotient distance by brute force: both orderings, gridded rotation."""
    keep = theta_grid_residual_sq(a, b, w_t, swap=False, n_grid=n_grid)
    swap = theta_grid_residual_sq(a, b, w_t, swap=True, n_grid=n_grid)
    return float(np.sqrt(max(min(keep, swap), 0.0)))


def random_interaction(rng: np.random.Generator, T: int, scale: float = 1.0) -> Interaction:
    grid = np.linspace(0.0, 1.0, T)

    def curve() -> Trajectory:
        steps = rng.normal(size=(T, 2)) * (scale / np.sqrt(T))
        return Trajectory(np.cumsum(steps, axis=0) + rng.normal(size=2), grid)

    return Interaction(curve(), curve())


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    theta = rng.uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def rigid_copy(
    interaction: Interaction, rotation: np.ndarray, translation: np.ndarray
) -> Interaction:
    grid = interaction.grid
    return Interaction(
        Trajectory(interaction.first.samples @ rotation.T + translation, grid),
        Trajectory(interaction.second.samples @ rotation.T + translation, grid),
    )


def enumerate_uniform_wasserstein(cost: np.ndarray, r: float) -> float:
    """W_r for two uniform m-atom measures by enumerating permutation couplings.

    By Birkhoff, the LP optimum over doubly stochastic couplings is attained
    at a permutation when both marginals are uniform with equal size.
    """
    m = cost.shape[0]
    assert cost.shape == (m, m)
    best = np.inf
    for perm in itertools.permutations(range(m)):
        val = sum(cost[i, perm[i]] ** r for i in range(m)) / m
        best = min(best, val)
    return best ** (1.0 / r)


def _reference_pairwise(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def _reference_stress(points: np.ndarray, deltas: np.ndarray) -> float:
    gap = _reference_pairwise(points) - deltas
    return float(np.sum(gap * gap))


def _reference_smacof(
    points: np.ndarray, deltas: np.ndarray, max_iter: int
) -> tuple[np.ndarray, float]:
    n = points.shape[0]
    stress = _reference_stress(points, deltas)
    for _ in range(max_iter):
        if stress == 0.0:
            break
        dist = _reference_pairwise(points)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(dist > 0, deltas / np.where(dist > 0, dist, 1.0), 0.0)
        B = -ratio
        B[np.arange(n), np.arange(n)] = ratio.sum(axis=1)
        candidate = (B @ points) / n
        new_stress = _reference_stress(candidate, deltas)
        if new_stress > stress:
            break
        points, prev, stress = candidate, stress, new_stress
        if (prev - stress) <= 1e-8 * prev:
            break
    return points, stress


def reference_embed(
    deltas: np.ndarray, beta: int, seed: int = 0, max_iter: int = 500, n_restarts: int = 8
) -> tuple[np.ndarray, float]:
    """Classical start, then SMACOF recomputing the distances for every stress.

    Same starts, restart draws and stopping rules as `pairtraj.mds.embed`;
    returns the winning points and their raw stress.
    """
    n = deltas.shape[0]
    sq = deltas * deltas
    row = sq.mean(axis=1, keepdims=True)
    col = sq.mean(axis=0, keepdims=True)
    vals, vecs = np.linalg.eigh(-0.5 * (sq - row - col + sq.mean()))
    order = np.argsort(vals)[::-1][:beta]
    points = vecs[:, order] * np.sqrt(np.clip(vals[order], 0.0, None))
    points, stress = _reference_smacof(points, deltas, max_iter)
    positive = deltas[deltas > 0]
    if stress > 0.0 and positive.size:
        rng = np.random.default_rng(seed)
        scale = float(positive.mean())
        for _ in range(n_restarts):
            start = rng.normal(size=(n, beta)) * scale
            cand_points, cand_stress = _reference_smacof(start, deltas, max_iter)
            if cand_stress < stress:
                points, stress = cand_points, cand_stress
    return points, stress


def normal_equation_cubic(t: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Cubic least squares via the explicit 4x4 normal equations."""
    X = np.vander(t, 4, increasing=True)
    coef = np.linalg.solve(X.T @ X, X.T @ y)
    resid = y - X @ coef
    return coef, float(resid @ resid)


def family_curves(family: int, T: int) -> tuple[np.ndarray, np.ndarray]:
    # three qualitatively distinct encounter shapes on the unit scale
    t = np.linspace(0.0, 1.0, T)
    zero, one = np.zeros(T), np.ones(T)
    if family == 0:  # parallel, same direction
        return np.column_stack([t, zero]), np.column_stack([t, one])
    if family == 1:  # opposing
        return np.column_stack([t, zero]), np.column_stack([1.0 - t, one])
    return np.column_stack([t, t]), np.column_stack([t, 1.0 - t])  # crossing


def planted(
    rng: np.random.Generator, per_family: int = 4, T: int = 21, noise: float = 0.005
) -> tuple[list[Interaction], np.ndarray]:
    """Three families under random rigid motions plus small positional noise."""
    grid = np.linspace(0.0, 1.0, T)
    data, labels = [], []
    for fam in range(3):
        base = family_curves(fam, T)
        for _ in range(per_family):
            rot = random_rotation(rng)
            shift = rng.uniform(-5.0, 5.0, size=2)
            curves = [
                c @ rot.T + shift + rng.normal(0.0, noise, size=(T, 2)) for c in base
            ]
            data.append(
                Interaction(Trajectory(curves[0], grid), Trajectory(curves[1], grid))
            )
            labels.append(fam)
    return data, np.array(labels)


def match_rate(assignments, truth, k: int) -> float:
    """Best label agreement over all k! relabelings."""
    best = 0.0
    for perm in itertools.permutations(range(k)):
        mapped = np.array([perm[z] for z in assignments])
        best = max(best, float((mapped == truth).mean()))
    return best
