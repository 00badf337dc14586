"""Wasserstein distances between finitely supported measures on interactions.

A measure puts probability weights on interaction atoms; the ground cost
between atoms is the quotient Procrustes distance raised to the order r, and
the transportation linear program is solved exactly.  Typical uses compare a
cluster model (atoms = representatives, mass = cluster proportions) with the
empirical measure of a data sample.

Two uniform measures of equal size m, such as two data samples, are matched
as an assignment problem.  Up to m = `_OWN_ASSIGNMENT_MAX` this module solves
it itself, without importing scipy.optimize (about 0.25 s and 40 MB); above it,
and for every other pair of measures, scipy solves it.  Both solvers break
ties alike, and the value has the same bits either way whenever the optimal
permutation is unique.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import ClusterModel
from .errors import InvalidInputError, NumericalError
from .procrustes import cross_distance_matrix
from .trajectory import _store, Interaction

_WEIGHT_TOL = 1e-12
# Equal-size uniform measures up to this many atoms go to `_assignment`.  In a
# fresh CLI process on 2 cores, against importing scipy.optimize (0.23 s) and
# solving there, it wins at 600 atoms (0.09 s against 0.24 s) and 900 (0.21
# against 0.27), and loses at 1200 (0.34 against 0.29) and 2400 (1.28 against 0.59)
_OWN_ASSIGNMENT_MAX = 600


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Probability weights on a finite set of interaction atoms."""

    atoms: tuple[Interaction, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        atoms = tuple(self.atoms)
        if not atoms:
            raise InvalidInputError("measure needs at least one atom")
        w = np.array(self.weights, dtype=float)
        if w.shape != (len(atoms),):
            raise InvalidInputError(
                f"got {len(atoms)} atoms but {w.size} weights"
            )
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise InvalidInputError("weights must be finite and nonnegative")
        if abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise InvalidInputError(f"weights sum to {w.sum()!r}, expected 1")
        _store(self, atoms=atoms, weights=w)

    def __len__(self) -> int:
        return len(self.atoms)


def empirical_measure(data: list[Interaction]) -> DiscreteMeasure:
    """Mass 1/n on every interaction in the sample."""
    if not data:
        raise InvalidInputError("need at least one interaction")
    n = len(data)
    return DiscreteMeasure(tuple(data), np.full(n, 1.0 / n))


def model_measure(model: ClusterModel) -> DiscreteMeasure:
    """Representatives weighted by the share of points assigned to them."""
    return DiscreteMeasure(model.representatives, model.cluster_sizes() / model.n)


def ground_cost(F: DiscreteMeasure, G: DiscreteMeasure, r: float) -> np.ndarray:
    """The distance between every atom of F and every atom of G to the power
    r; NumericalError if one overflows, so that neither solver sees it."""
    distances = cross_distance_matrix(list(F.atoms), list(G.atoms))
    with np.errstate(over="ignore"):
        cost = distances**r
    if not np.all(np.isfinite(cost)):
        raise NumericalError(f"ground cost: a distance to the power r={r} is not finite")
    return cost


def _uniform(weights: np.ndarray) -> bool:
    return bool(np.all(weights == weights[0]))


def _assignment(cost: np.ndarray) -> np.ndarray:
    """The column of each row in a least-cost permutation of the square `cost`.

    Shortest augmenting paths, one row at a time (Jonker & Volgenant 1987), in
    the variant of scipy's `linear_sum_assignment` (Crouse 2016): the same
    reduced costs, added in the same order, and the same choice among equally
    short columns: scipy's scan order, preferring a column that ends the path.
    Without that preference an all-equal matrix takes O(n^3) scans instead of
    n.  Each scan of a path is a few whole-row array operations.
    """
    if not np.all(np.isfinite(cost)):
        raise NumericalError("assignment cost has a NaN or infinite entry")
    n = len(cost)
    u, v = np.zeros(n), np.zeros(n)
    col4row, row4col = np.full(n, -1), np.full(n, -1)
    # per column: the previous row on its shortest path, which the first scan
    # from each row sets for every column, and the length of that path when
    # the column was reached
    via, reached_len = np.empty(n, dtype=np.intp), np.empty(n)
    for cur in range(n):
        # scipy scans the unreached columns in `order`, from n - 1 down, each
        # reached one swapped out for the last; pos inverts order
        order = np.arange(n - 1, -1, -1)
        pos = order.copy()
        # a reached column's dual is -inf, so no later scan shortens its path
        lengths, duals = np.full(n, np.inf), v.copy()
        rows, cols = [], []
        i, min_val, left = cur, 0.0, n
        while True:
            rows.append(i)
            reduced = min_val + cost[i] - u[i] - duals
            shorter = reduced < lengths
            via[shorter] = i
            np.copyto(lengths, reduced, where=shorter)
            j = int(lengths.argmin())
            ties = np.flatnonzero(lengths == lengths[j])
            if ties.size > 1:
                free = ties[row4col[ties] < 0]
                j = int(free[pos[free].argmax()] if free.size else ties[pos[ties].argmin()])
            min_val = float(lengths[j])
            if not min_val < np.inf:
                raise NumericalError("assignment path lengths overflowed")
            reached_len[j] = min_val
            cols.append(j)
            left -= 1
            last = order[left]
            order[pos[j]], pos[last] = last, pos[j]
            lengths[j], duals[j] = np.inf, -np.inf
            if row4col[j] < 0:
                break
            i = int(row4col[j])
        u[cur] += min_val
        earlier = np.array(rows[1:], dtype=np.intp)
        u[earlier] += min_val - reached_len[col4row[earlier]]
        reached = np.array(cols, dtype=np.intp)
        v[reached] -= min_val - reached_len[reached]
        # flip the path from the free column j back to the row cur
        while True:
            i = via[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def wasserstein(F: DiscreteMeasure, G: DiscreteMeasure, r: float = 2.0) -> float:
    """Order-r Wasserstein distance under the quotient Procrustes ground metric.

    Solves the transportation LP exactly (HiGHS); the optimal coupling exists
    because both marginals are finite probability vectors.  Two uniform
    measures of equal size m have a permutation among their optimal couplings
    (Birkhoff), so that case is solved exactly as an assignment problem: up
    to m = `_OWN_ASSIGNMENT_MAX` by this module's `_assignment`, above it by
    scipy's `linear_sum_assignment`.  Both follow the same path rule and tie
    rule, so the value has the same bits either way whenever the optimal
    permutation is unique.
    """
    if not r >= 1.0:
        raise InvalidInputError(f"order r must be >= 1, got {r}")
    cost = ground_cost(F, G, r)
    m, n = cost.shape
    if m == n and _uniform(F.weights) and _uniform(G.weights):
        if m <= _OWN_ASSIGNMENT_MAX:
            rows, cols = np.arange(m), _assignment(cost)
        else:
            # scipy is imported only in the branches that solve with it:
            # scipy.optimize costs about 0.25 s and 40 MB, more than this
            # module's own solve below the size gate
            from scipy.optimize import linear_sum_assignment

            rows, cols = linear_sum_assignment(cost)
        return float((cost[rows, cols].sum() / m) ** (1.0 / r))
    from scipy.optimize import linprog
    from scipy.sparse import eye, kron, vstack

    # row i sums the plan's row i, row m + j its column j: 2mn nonzeros
    A = vstack([kron(eye(m), np.ones((1, n))), kron(np.ones((1, m)), eye(n))], format="csr")
    b = np.concatenate([F.weights, G.weights])
    # the last column constraint is implied by the others; dropping it keeps
    # the system consistent when the two weight sums differ by rounding
    res = linprog(cost.ravel(), A_eq=A[:-1], b_eq=b[:-1], method="highs")
    if not res.success:
        raise NumericalError(f"transport LP failed: {res.message}")
    return float(max(res.fun, 0.0) ** (1.0 / r))
