"""Paired-trajectory interactions: quotient metric, clustering, evaluation."""

__version__ = "0.2.0"

from .errors import (
    ConfigError,
    DataError,
    DegenerateFitError,
    InvalidInputError,
    NumericalError,
    PairtrajError,
)
from .trajectory import Interaction, TimeMeasure, Trajectory, resample, uniform_measure
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
    add_change_points,
    fit_cubic,
    prune_change_points,
    segment,
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
    "DegenerateFitError",
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
    "TimeMeasure",
    "Trajectory",
    "add_change_points",
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
    "fit_cubic",
    "model_measure",
    "prune_change_points",
    "quality",
    "resample",
    "segment",
    "segment_with_knots",
    "select_tolerance",
    "silhouette",
    "stability_statistic",
    "stability_sweep",
    "transfer_primitives",
    "uniform_measure",
    "wasserstein",
]
