"""Edge-rigidity and conformal rigidity of graphs.

Exact integer deciders for edge-rigidity, walk-regularity classification,
spectral embeddings, and certified optimization of extreme Laplacian
eigenvalue sums over the edge-weight simplex.
"""

from .errors import (
    ConvergenceFailureError,
    DimensionMismatchError,
    DisconnectedError,
    DisconnectingWeightsError,
    EdgeRigidError,
    InternalInconsistencyError,
    LevelOutOfRangeError,
    NotSimpleError,
    ParseError,
    TooSmallError,
)
from .graphs import (
    Graph,
    WeightVector,
    bipartition,
    degree_classification,
    edge_energies,
    graph6_bytes,
    incidence,
    laplacian,
    parse_edge_list,
    parse_graph,
    parse_graph6,
)
from .rigidity import (
    RigidityReport,
    cospectrality_classes,
    decide_edge_rigid_exact,
    full_report,
    walk_class,
)
from .spectral import (
    Spectrum,
    edge_isometry_check,
    effective_resistances,
    embedding,
    kirchhoff_index,
    spectrum,
    tree_count_exact,
    weighted_tree_count,
)
from .eigensum import (
    KCertificate,
    OptimizeResult,
    certificate,
    gauge_product,
    k_rigidity_profile,
    optimize,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceFailureError",
    "DimensionMismatchError",
    "DisconnectedError",
    "DisconnectingWeightsError",
    "EdgeRigidError",
    "Graph",
    "InternalInconsistencyError",
    "KCertificate",
    "LevelOutOfRangeError",
    "NotSimpleError",
    "OptimizeResult",
    "ParseError",
    "RigidityReport",
    "Spectrum",
    "TooSmallError",
    "WeightVector",
    "bipartition",
    "certificate",
    "cospectrality_classes",
    "decide_edge_rigid_exact",
    "degree_classification",
    "edge_energies",
    "edge_isometry_check",
    "effective_resistances",
    "embedding",
    "full_report",
    "gauge_product",
    "graph6_bytes",
    "incidence",
    "k_rigidity_profile",
    "kirchhoff_index",
    "laplacian",
    "optimize",
    "parse_edge_list",
    "parse_graph",
    "parse_graph6",
    "spectrum",
    "tree_count_exact",
    "walk_class",
    "weighted_tree_count",
]
