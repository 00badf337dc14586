"""Every value type copies its input arrays and stores them read-only."""

from dataclasses import fields

import numpy as np
import pytest

from pairtraj.clustering import ClusterModel
from pairtraj.evaluation import QualityReport, StabilityGrid
from pairtraj.mds import Embedding
from pairtraj.procrustes import Alignment, DistanceMatrix
from pairtraj.segmentation import ChangePointSet
from pairtraj.trajectory import Trajectory
from pairtraj.transport import DiscreteMeasure

from oracles import random_interaction


def _atoms(n):
    rng = np.random.default_rng(0)
    return tuple(random_interaction(rng, 5) for _ in range(n))


CASES = {
    "Trajectory": lambda: (
        Trajectory, {"samples": np.arange(6.0).reshape(3, 2), "grid": np.arange(3.0)}
    ),
    "Alignment": lambda: (
        Alignment, {"rotation": np.eye(2), "translation": np.ones(2), "swapped": False}
    ),
    "DistanceMatrix": lambda: (DistanceMatrix, {"entries": np.ones((3, 3)) - np.eye(3)}),
    "Embedding": lambda: (Embedding, {"points": np.arange(6.0).reshape(3, 2), "stress": 0.5}),
    "ClusterModel": lambda: (
        ClusterModel,
        {
            "method": "geo1", "k": 2, "seed": 0, "assignments": np.array([0, 1, 1]),
            "representatives": _atoms(2), "objective": 1.0,
        },
    ),
    "QualityReport": lambda: (
        QualityReport,
        {
            "total_within": 1.0,
            "per_cluster_within": np.ones(2),
            "per_cluster_between": np.full(2, 2.0),
            "within_variance": np.zeros(2),
            "between_variance": np.zeros(2),
            "silhouettes": np.array([0.5, -0.5, 0.0]),
            "cluster_sizes": np.array([1, 2]),
        },
    ),
    "StabilityGrid": lambda: (
        StabilityGrid,
        {
            "axis1_name": "k", "axis2_name": "beta", "axis1_values": (2, 3),
            "axis2_values": (2,), "values": np.array([[1.0], [np.nan]]),
            "missing": np.array([[False], [True]]),
        },
    ),
    "DiscreteMeasure": lambda: (
        DiscreteMeasure, {"atoms": _atoms(2), "weights": np.array([0.25, 0.75])}
    ),
    "ChangePointSet": lambda: (ChangePointSet, {"points": np.array([2, 5]), "tolerance": 0.1}),
}


@pytest.mark.parametrize("case", CASES)
def test_input_arrays_stay_writable_and_stored_arrays_are_read_only(case):
    cls, kwargs = CASES[case]()
    value = cls(**kwargs)
    given = [v for v in kwargs.values() if isinstance(v, np.ndarray)]
    assert given and all(arr.flags.writeable for arr in given)
    stored = [getattr(value, f.name) for f in fields(value)]
    for arr in (v for v in stored if isinstance(v, np.ndarray)):
        assert not arr.flags.writeable
        assert not any(np.shares_memory(arr, g) for g in given)
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = arr
    for name, arr in kwargs.items():
        if isinstance(arr, np.ndarray):
            assert np.array_equal(getattr(value, name), arr, equal_nan=arr.dtype.kind == "f")
