"""Wasserstein distances between finitely supported measures on interactions.

A measure puts probability weights on interaction atoms; the ground cost
between atoms is the quotient Procrustes distance raised to the order r, and
the transportation linear program is solved exactly.  Typical uses compare a
cluster model (atoms = representatives, mass = cluster proportions) with the
empirical measure of a data sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import ClusterModel
from .errors import InvalidInputError, NumericalError
from .procrustes import cross_distance_matrix
from .trajectory import _store, Interaction, TimeMeasure

_WEIGHT_TOL = 1e-12


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


def model_measure(model: ClusterModel, n: int | None = None) -> DiscreteMeasure:
    """Representatives weighted by the share of points assigned to them."""
    if n is None:
        n = model.n
    elif n != model.n:
        raise InvalidInputError(
            f"model assigns {model.n} points, caller claims {n}"
        )
    return DiscreteMeasure(model.representatives, model.cluster_sizes() / n)


def ground_cost(
    F: DiscreteMeasure, G: DiscreteMeasure, r: float, mu: TimeMeasure | None = None
) -> np.ndarray:
    return cross_distance_matrix(list(F.atoms), list(G.atoms), mu) ** r


def _uniform(weights: np.ndarray) -> bool:
    return bool(np.all(weights == weights[0]))


def wasserstein(
    F: DiscreteMeasure,
    G: DiscreteMeasure,
    r: float = 2.0,
    mu: TimeMeasure | None = None,
) -> float:
    """Order-r Wasserstein distance under the quotient Procrustes ground metric.

    Solves the transportation LP exactly; the optimal coupling exists because
    both marginals are finite probability vectors.  Two uniform measures of
    equal size have a permutation among their optimal couplings (Birkhoff), so
    that case is solved exactly as an assignment problem instead.
    """
    # scipy.optimize is imported here, not at module level: it costs about
    # half a second, which every other subcommand would pay at start-up
    from scipy.optimize import linear_sum_assignment, linprog
    from scipy.sparse import eye, kron, vstack

    if not r >= 1.0:
        raise InvalidInputError(f"order r must be >= 1, got {r}")
    cost = ground_cost(F, G, r, mu)
    m, n = cost.shape
    if m == n and _uniform(F.weights) and _uniform(G.weights):
        rows, cols = linear_sum_assignment(cost)
        return float((cost[rows, cols].sum() / m) ** (1.0 / r))
    # row i sums the plan's row i, row m + j its column j: 2mn nonzeros
    A = vstack([kron(eye(m), np.ones((1, n))), kron(np.ones((1, m)), eye(n))], format="csr")
    b = np.concatenate([F.weights, G.weights])
    # the last column constraint is implied by the others; dropping it keeps
    # the system consistent when the two weight sums differ by rounding
    res = linprog(cost.ravel(), A_eq=A[:-1], b_eq=b[:-1], method="highs")
    if not res.success:
        raise NumericalError(f"transport LP failed: {res.message}")
    return float(max(res.fun, 0.0) ** (1.0 / r))
