"""relscore: can your expected clusters ever show up in a t-SNE/UMAP plot?

Builds the neighborhood relationship graphs those methods would lay out,
scores them against labels with weighted precision and cardinality-based
recall, and tunes the neighborhood size by Bayesian optimization, all
without computing a projection.
"""

__version__ = "0.1.0"

from .datasets import (
    BlobSpec,
    Dataset,
    DatasetError,
    LabelAssignment,
    generate_blobs,
    load_dataset,
    load_labels,
    preset,
    relabel,
    save_dataset,
    save_labels,
)
from .knn import KnnError, NeighborLists, euclidean, exact_knn
from .graphs import (
    BandwidthCalibration,
    GraphError,
    GraphProvenance,
    RelationshipGraph,
    build_tsne_graph,
    build_umap_graph,
    load_graph,
    neighbor_count,
    save_graph,
    tsne_calibration,
    umap_calibration,
)
from .metrics import (
    ComponentAssignment,
    MetricConfig,
    MetricReport,
    MetricsError,
    SweepResult,
    VertexTallies,
    classify_neighbors,
    fscore_vertex,
    intra_label_components,
    precision_vertex,
    recall_vertex,
    report,
    sweep,
)
from .optimizer import (
    OptimizationTrace,
    OptimizerConfig,
    OptimizerError,
    estimate,
    expected_improvement,
)
from .oracle import OracleError, brute_force_knn, brute_force_report, random_graph

__all__ = [
    "__version__",
    "BlobSpec",
    "Dataset",
    "DatasetError",
    "LabelAssignment",
    "generate_blobs",
    "load_dataset",
    "load_labels",
    "preset",
    "relabel",
    "save_dataset",
    "save_labels",
    "KnnError",
    "NeighborLists",
    "euclidean",
    "exact_knn",
    "BandwidthCalibration",
    "GraphError",
    "GraphProvenance",
    "RelationshipGraph",
    "build_tsne_graph",
    "build_umap_graph",
    "load_graph",
    "neighbor_count",
    "save_graph",
    "tsne_calibration",
    "umap_calibration",
    "ComponentAssignment",
    "MetricConfig",
    "MetricReport",
    "MetricsError",
    "SweepResult",
    "VertexTallies",
    "classify_neighbors",
    "fscore_vertex",
    "intra_label_components",
    "precision_vertex",
    "recall_vertex",
    "report",
    "sweep",
    "OptimizationTrace",
    "OptimizerConfig",
    "OptimizerError",
    "estimate",
    "expected_improvement",
    "OracleError",
    "brute_force_knn",
    "brute_force_report",
    "random_graph",
]
