"""Paired-trajectory interactions: quotient metric, clustering, evaluation."""

__version__ = "0.2.0"

from .errors import (
    ConfigError,
    DataError,
    InvalidInputError,
    NumericalError,
    PairtrajError,
)
from .trajectory import Interaction, Trajectory, resample
from .procrustes import (
    Alignment,
    DistanceMatrix,
    align,
    cross_distance_matrix,
    distance,
    distance_matrix,
    distance_with_alignment,
)
from .mds import Embedding, embed
from .clustering import (
    METHODS,
    ClusterModel,
    align_to_anchor,
    cluster_geo1,
    cluster_geo2,
    cluster_mds,
    cluster_spline_coef,
)
from .transport import DiscreteMeasure, empirical_measure, model_measure, wasserstein
from .evaluation import (
    QualityReport,
    StabilityGrid,
    quality,
    silhouette,
    stability_statistic,
    stability_sweep,
    transfer_primitives,
)
from .segmentation import (
    ChangePointSet,
    Encounter,
    prune_change_points,
    segment_with_knots,
    select_tolerance,
)

__all__ = [
    "__version__",
    "Alignment",
    "ChangePointSet",
    "ClusterModel",
    "ConfigError",
    "DataError",
    "DiscreteMeasure",
    "DistanceMatrix",
    "Embedding",
    "Encounter",
    "Interaction",
    "InvalidInputError",
    "METHODS",
    "NumericalError",
    "PairtrajError",
    "QualityReport",
    "StabilityGrid",
    "Trajectory",
    "align",
    "align_to_anchor",
    "cluster_geo1",
    "cluster_geo2",
    "cluster_mds",
    "cluster_spline_coef",
    "cross_distance_matrix",
    "distance",
    "distance_matrix",
    "distance_with_alignment",
    "embed",
    "empirical_measure",
    "model_measure",
    "prune_change_points",
    "quality",
    "resample",
    "segment_with_knots",
    "select_tolerance",
    "silhouette",
    "stability_statistic",
    "stability_sweep",
    "transfer_primitives",
    "wasserstein",
]
