"""Independent slow-route checks used by the test suite.

Everything here avoids the package's closed forms on purpose: rotations are
brute-forced on a theta grid (with the optimal translation for each theta),
transport plans are enumerated, and cubic fits go through explicit normal
equations.  `reference_embed` is the original two-pass SMACOF, frozen as the
reference the package's faster kernel must reproduce, and `reference_distance`
is the original per-pair 2x2 SVD alignment, frozen the same way for the
complex-number distance kernel.  `reference_segment_with_knots` is the
original segmentation, which refits every span on every call, frozen as the
reference the memoised fits must reproduce byte for byte.  `dense_transport_lp`
is the original dense transport LP, frozen as the reference for the sparse
constraint matrix.  `reference_read_encounters_csv` is the original ingest,
one `csv.reader` per line, frozen as the reference for the `str.split` parser.
"""

from __future__ import annotations

import csv
import itertools

import numpy as np

from pairtraj.artifacts import malformed
from pairtraj.errors import DataError
from pairtraj.trajectory import CSV_HEADER, Interaction, Trajectory, resample


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


def reference_residual_sq(
    target: Interaction, source: Interaction, w_t: np.ndarray, swap: bool
) -> float:
    """The original per-pair alignment residual, frozen as a reference.

    The optimal rotation comes from the SVD of the 2x2 weighted cross-covariance
    of the jointly centred curves, with the det-sign repair that keeps it
    proper; the residual is summed directly over the rotated curves.
    """
    w = np.concatenate([w_t, w_t])
    A = stack_rows(target)
    B = stack_rows(source)
    if swap:
        half = len(source)
        B = np.concatenate([B[half:], B[:half]])
    A_c = A - 0.5 * (w @ A)
    B_c = B - 0.5 * (w @ B)
    u, sv, vh = np.linalg.svd((B_c * w[:, None]).T @ A_c)
    if sv[0] == 0.0:
        rot = np.eye(2)
    else:
        sign = np.sign(np.linalg.det(u) * np.linalg.det(vh))
        rot = vh.T @ np.diag([1.0, sign]) @ u.T
    diff = A_c - B_c @ rot.T
    return float(np.sum(w[:, None] * diff * diff))


def reference_distance(a: Interaction, b: Interaction, w_t: np.ndarray) -> float:
    """Quotient distance through the frozen per-pair residual, both orderings."""
    keep = reference_residual_sq(a, b, w_t, swap=False)
    swap = reference_residual_sq(a, b, w_t, swap=True)
    return float(np.sqrt(min(keep, swap)))


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


def dense_transport_lp(cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Optimal transport cost from the original dense equality matrix.

    Frozen as the reference for the sparse constraint matrix of `wasserstein`:
    row i of A sums the plan's row i, row m + j its column j, and the last
    (implied) constraint is dropped.
    """
    from scipy.optimize import linprog

    m, n = cost.shape
    A = np.zeros((m + n, m * n))
    for i in range(m):
        A[i, i * n : (i + 1) * n] = 1.0
    for j in range(n):
        A[m + j, j::n] = 1.0
    rhs = np.concatenate([a, b])
    res = linprog(cost.ravel(), A_eq=A[:-1], b_eq=rhs[:-1], method="highs")
    assert res.success, res.message
    return float(max(res.fun, 0.0))


def reference_read_encounters_csv(path) -> list[tuple[str, Interaction]]:
    """The encounters of a CSV, each line split by its own `csv.reader`."""
    order: list[str] = []
    rows: dict[str, list[tuple[float, float, float, float, float]]] = {}
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with handle, malformed(path):
        lineno = 0
        header_seen = False
        last_id = None
        for raw in handle:
            lineno += 1
            if raw.startswith("#"):
                continue
            line = raw.strip()
            if not line:
                continue
            fields = next(csv.reader([line]))
            if not header_seen:
                if tuple(f.strip() for f in fields) != CSV_HEADER:
                    raise DataError(
                        f"{path}:{lineno}: expected header {','.join(CSV_HEADER)}"
                    )
                header_seen = True
                continue
            if len(fields) != 6:
                raise DataError(f"{path}:{lineno}: expected 6 fields, got {len(fields)}")
            enc_id = fields[0]
            try:
                t, x1, y1, x2, y2 = (float(v) for v in fields[1:])
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric value") from None
            if enc_id not in rows:
                rows[enc_id] = []
                order.append(enc_id)
            elif enc_id != last_id:
                raise DataError(
                    f"{path}:{lineno}: rows for encounter {enc_id!r} are not contiguous"
                )
            if rows[enc_id] and t <= rows[enc_id][-1][0]:
                raise DataError(f"{path}:{lineno}: t is not strictly increasing")
            rows[enc_id].append((t, x1, y1, x2, y2))
            last_id = enc_id
        if not header_seen:
            raise DataError(f"{path}: empty file, expected header row")

    encounters = []
    for enc_id in order:
        arr = np.array(rows[enc_id])
        if arr.shape[0] < 2:
            raise DataError(f"{path}: encounter {enc_id!r} has fewer than 2 samples")
        grid = arr[:, 0]
        with malformed(f"{path}: encounter {enc_id!r}"):
            inter = Interaction(
                Trajectory(arr[:, 1:3], grid), Trajectory(arr[:, 3:5], grid)
            )
        encounters.append((enc_id, inter))
    return encounters


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


def _reference_span_residuals(t, y, lo, hi):
    ts = t[lo : hi + 1] - t[lo]
    ys = y[lo : hi + 1]
    design = np.vander(ts, 4, increasing=True)
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    return ys - design @ coef


def _reference_span_sse(t, y, lo, hi):
    resid = _reference_span_residuals(t, y, lo, hi)
    return float(resid @ resid)


def _reference_find_split(t, y, lo, hi):
    if hi - lo + 1 < 7:
        return None
    base = _reference_span_sse(t, y, lo, hi)
    ys = y[lo : hi + 1]
    slack = 1e-12 * float(ys @ ys)
    a, b = lo, hi
    last = -1
    while True:
        c = (a + b) // 2
        if c == last or c - lo < 3 or hi - c < 3:
            return None
        last = c
        left = _reference_span_sse(t, y, lo, c)
        right = _reference_span_sse(t, y, c, hi)
        if left + right < base - slack:
            return c
        if left >= right:
            b = c
        else:
            a = c


def _reference_series_change_points(t, y):
    out = set()

    def visit(lo, hi):
        c = _reference_find_split(t, y, lo, hi)
        if c is not None:
            out.add(c)
            visit(lo, c)
            visit(c, hi)

    visit(0, len(y) - 1)
    return out


def _reference_prune(t, series, candidates, epsilon):
    bounds = [0, *candidates, len(t) - 1]
    i = 0
    while i + 2 < len(bounds):
        lo, hi = bounds[i], bounds[i + 2]
        if hi - lo + 1 <= 4:
            del bounds[i + 1]
            continue
        total = sum(_reference_span_sse(t, series[:, s], lo, hi) for s in range(4))
        if total < epsilon:
            del bounds[i + 1]
        else:
            i += 1
    return bounds[1:-1]


def _reference_criterion(t, series, points):
    bounds = [0, *points, len(t) - 1]
    total = 0.0
    for s in range(4):
        for idx in range(len(bounds) - 1):
            resid = _reference_span_residuals(t, series[:, s], bounds[idx], bounds[idx + 1])
            if idx < len(bounds) - 2:
                resid = resid[:-1]
            total += float(resid @ resid)
    return total + len(points) + 2


def reference_segment_with_knots(
    interaction: Interaction, candidate_epsilons=None, num_samples: int = 101
) -> tuple[list[Interaction], tuple[int, ...], float]:
    """Segments, knot indices and selected epsilon, every span refit per call."""
    t = interaction.grid

    def series():
        return np.column_stack([interaction.first.samples, interaction.second.samples])

    if candidate_epsilons is None:
        scale = float(series().var(axis=0).mean())
        candidate_epsilons = (scale if scale > 0 else 1.0) * np.logspace(-4.0, 2.0, 10)
    found = set()
    for traj in (interaction.first, interaction.second):
        for d in range(2):
            found |= _reference_series_change_points(traj.grid, traj.samples[:, d])
    candidates = sorted(found)
    best_eps, best_crit = None, None
    for eps in sorted(float(e) for e in candidate_epsilons):
        crit = _reference_criterion(
            t, series(), _reference_prune(t, series(), candidates, eps)
        )
        if best_crit is None or crit < best_crit:
            best_eps, best_crit = eps, crit
    pruned = _reference_prune(t, series(), candidates, best_eps)
    bounds = [0, *pruned, len(t) - 1]
    spans = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if spans and hi - lo + 1 < 5:
            spans[-1] = (spans[-1][0], hi)
        else:
            spans.append((lo, hi))
    if len(spans) >= 2 and spans[0][1] - spans[0][0] + 1 < 5:
        spans[1] = (spans[0][0], spans[1][1])
        spans.pop(0)
    segments = [
        resample(
            Interaction(
                Trajectory(interaction.first.samples[lo : hi + 1], t[lo : hi + 1]),
                Trajectory(interaction.second.samples[lo : hi + 1], t[lo : hi + 1]),
            ),
            num_samples,
        )
        for lo, hi in spans
    ]
    return segments, tuple(hi for _, hi in spans[:-1]), best_eps


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
