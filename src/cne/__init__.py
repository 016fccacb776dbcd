"""Contrastive neighbor-embedding toolkit.

One parameterized loss family covers t-SNE, UMAP/NCE, TriMap, PaCMAP,
InfoNCE, self-supervised contrastive, soft-nearest-neighbor, supervised
contrastive, and the supervised t-SCNE objective, all over a binary kNN
affinity graph with a Cauchy or temperature kernel in embedding space.
"""

from .data import Dataset, Embedding, load_csv, make_blobs, make_moons, standardize, write_csv
from .errors import (
    CneError, DataError, DivergenceError, GraphError, LossNumericsError, SamplingError,
)
from .kernels import cauchy, cauchy_unnormalized
from .losses import (
    LOSS_KINDS, LossGrad, LossSpec, default_spec, evaluate, grad_check, loss_defaults,
)
from .metrics import QualityReport, knn_accuracy, knn_recall, quality_report, silhouette
from .neighbor_graph import NeighborGraph, affinity, knn_graph
from .optimize import Encoder, OptimConfig, fit_nonparametric, fit_parametric, transform
from .sampling import (
    LabelPositives, PairBatch, Sampler, ScheduleSpec, random_batch, sample_edge_batch,
    sample_midnears,
)
from .svgplot import emit_svg, render_svg

__version__ = "0.1.0"

__all__ = [
    "Dataset", "Embedding", "load_csv", "make_blobs", "make_moons", "standardize",
    "write_csv", "CneError", "DataError", "DivergenceError", "GraphError",
    "LossNumericsError", "SamplingError", "cauchy", "cauchy_unnormalized",
    "LOSS_KINDS", "LossGrad",
    "LossSpec", "default_spec", "loss_defaults", "evaluate", "grad_check",
    "QualityReport", "knn_accuracy",
    "knn_recall", "quality_report", "silhouette", "NeighborGraph", "affinity",
    "knn_graph", "Encoder", "OptimConfig", "fit_nonparametric", "fit_parametric",
    "transform", "LabelPositives", "PairBatch", "Sampler", "ScheduleSpec",
    "random_batch", "sample_edge_batch", "sample_midnears",
    "emit_svg", "render_svg",
]
