"""Wasserstein distances between finitely supported measures on interactions.

A measure puts probability weights on interaction atoms; the ground cost
between atoms is the quotient Procrustes distance raised to the order r, and
the transportation linear program is solved exactly.  Typical uses compare a
cluster model (atoms = representatives, mass = cluster proportions) with the
empirical measure of a data sample.

Two uniform measures of equal size m, such as two data samples, are matched
as an assignment problem by scipy's `linear_sum_assignment`, at every size.
It is loaded from its own compiled module, so scipy.optimize (about 0.25 s
and 40 MB to import) is imported only by the LP that every other pair of
measures takes.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np

from .clustering import ClusterModel
from .errors import InvalidInputError, NumericalError
from .procrustes import cross_distance_matrix
from .trajectory import _store, Interaction

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


def model_measure(model: ClusterModel) -> DiscreteMeasure:
    """Representatives weighted by the share of points assigned to them."""
    return DiscreteMeasure(model.representatives, model.cluster_sizes() / model.n)


def ground_cost(F: DiscreteMeasure, G: DiscreteMeasure, r: float) -> np.ndarray:
    """The distance between every atom of F and every atom of G to the power
    r; NumericalError if one overflows, or a positive one underflows to 0,
    so that neither solver sees it."""
    distances = cross_distance_matrix(list(F.atoms), list(G.atoms))
    with np.errstate(over="ignore"):
        cost = distances**r
    if not np.all(np.isfinite(cost)):
        raise NumericalError(f"ground cost: a distance to the power r={r} is not finite")
    if np.any(cost[distances > 0] == 0):
        raise NumericalError(f"ground cost: a positive distance to the power r={r} is 0")
    return cost


def _uniform(weights: np.ndarray) -> bool:
    return bool(np.all(weights == weights[0]))


@functools.cache
def _linear_sum_assignment():
    """scipy's `linear_sum_assignment`, loaded on first use from its compiled
    module, the file scipy/optimize/_lsap<suffix>, so that scipy.optimize is
    not imported; where that file is missing or does not load, the same
    function by its public import."""
    scipy = importlib.util.find_spec("scipy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES if scipy else ():
        path = os.path.join(scipy.submodule_search_locations[0], "optimize", "_lsap" + suffix)
        if not os.path.isfile(path):
            continue
        loader = importlib.machinery.ExtensionFileLoader("scipy.optimize._lsap", path)
        try:
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(loader.name, path, loader=loader)
            )
            loader.exec_module(module)
            return module.linear_sum_assignment
        except (ImportError, AttributeError):
            break
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment


def wasserstein(F: DiscreteMeasure, G: DiscreteMeasure, r: float = 2.0) -> float:
    """Order-r Wasserstein distance under the quotient Procrustes ground metric.

    Solves the transportation LP exactly (HiGHS); the optimal coupling exists
    because both marginals are finite probability vectors.  Two uniform
    measures of equal size m have a permutation among their optimal couplings
    (Birkhoff), so that case is solved exactly as an assignment problem, by
    scipy's `linear_sum_assignment` without importing scipy.optimize.  An
    optimal total that is not finite, such as a sum of finite costs that
    overflows, is a NumericalError.
    """
    if not 1.0 <= r < np.inf:
        raise InvalidInputError(f"order r must be finite and >= 1, got {r}")
    cost = ground_cost(F, G, r)
    m, n = cost.shape
    if m == n and _uniform(F.weights) and _uniform(G.weights):
        rows, cols = _linear_sum_assignment()(cost)
        with np.errstate(over="ignore"):
            total = cost[rows, cols].sum() / m
    else:
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
        total = max(res.fun, 0.0)
    if not np.isfinite(total):
        raise NumericalError(f"transport: the optimal cost at order r={r} is not finite")
    return float(total ** (1.0 / r))
