"""Embedding quality measures: kNN recall, leave-one-out kNN accuracy, and
the mean silhouette coefficient. All exact; the neighbor searches are
:func:`~cne.neighbor_graph.knn_indices`, and every metric runs in row blocks
of bounded memory."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, Embedding
from .errors import CneError
from .neighbor_graph import knn_indices, row_blocks

DEFAULT_K_RECALL = 15
DEFAULT_K_ACCURACY = 10


@dataclass
class QualityReport:
    knn_recall: float | None = None
    knn_accuracy: float | None = None
    silhouette: float | None = None
    k_recall: int | None = None
    k_accuracy: int | None = None

    def to_dict(self) -> dict:
        return {
            "knn_recall": self.knn_recall,
            "knn_accuracy": self.knn_accuracy,
            "silhouette": self.silhouette,
            "k_recall": self.k_recall,
            "k_accuracy": self.k_accuracy,
        }


def knn_recall(data: Dataset, emb: Embedding, k: int = DEFAULT_K_RECALL, *,
               neighbors=None) -> float:
    """Mean fraction of high-dimensional k-neighbors preserved in the embedding.

    `neighbors` may pass the embedding's :func:`knn_indices` for any k' >= k;
    its first k columns are used.
    """
    n = data.n
    if not 1 <= k <= n - 1:
        raise CneError(f"k must satisfy 1 <= k <= N-1, got k={k}, N={n}")
    if emb.n != n:
        raise CneError("embedding row count does not match dataset")
    high = knn_indices(data.points, k)
    low = knn_indices(emb.coords, k) if neighbors is None else neighbors[:, :k]
    # Offsetting row i by i*N makes every (row, neighbor) pair one unique code.
    offsets = np.arange(n)[:, None] * n
    hits = np.intersect1d(high + offsets, low + offsets, assume_unique=True).size
    return hits / (n * k)


def knn_accuracy(labels, emb: Embedding, k: int = DEFAULT_K_ACCURACY, *,
                 neighbors=None) -> float:
    """Leave-one-out majority-vote accuracy in embedding space.

    Vote ties go to the smaller label id. `neighbors` is as for
    :func:`knn_recall`.
    """
    if labels is None:
        raise CneError("knn_accuracy requires labels")
    labels = np.asarray(labels)
    n = emb.n
    if not 1 <= k <= n - 1:
        raise CneError(f"k must satisfy 1 <= k <= N-1, got k={k}, N={n}")
    classes, dense = np.unique(labels, return_inverse=True)
    if len(classes) < 2:
        raise CneError("knn_accuracy is degenerate with a single class")
    nbrs = knn_indices(emb.coords, k) if neighbors is None else neighbors[:, :k]
    c = len(classes)
    codes = np.arange(n)[:, None] * c + dense[nbrs]
    votes = np.bincount(codes.ravel(), minlength=n * c).reshape(n, c)
    # argmax returns the first maximum, so ties go to the smaller label.
    correct = int(np.count_nonzero(votes.argmax(axis=1) == dense))
    return correct / n


def silhouette(labels, emb: Embedding) -> float:
    """Mean silhouette coefficient with Euclidean embedding distances.

    Computed in row blocks against the columns grouped by class, so memory
    stays O(BLOCK_BYTES) instead of the N x N x d difference tensor.
    """
    if labels is None:
        raise CneError("silhouette requires labels")
    labels = np.asarray(labels)
    classes, dense, counts = np.unique(labels, return_inverse=True, return_counts=True)
    if len(classes) < 2:
        raise CneError("silhouette requires at least 2 classes")
    if counts.min() < 2:
        raise CneError("silhouette requires every class to have size >= 2")
    x = emb.coords
    n = emb.n
    # Columns grouped by class, in index order within a class: each class's
    # distances are summed in the order of a boolean-mask selection.
    grouped = x[np.argsort(dense, kind="stable")]
    bounds = np.concatenate(([0], np.cumsum(counts)))
    terms = np.empty(n)
    for block in row_blocks(n, 8 * n * (emb.d + 1)):
        diff = x[block, None, :] - grouped[None, :, :]
        dist = np.sqrt(np.einsum("ijd,ijd->ij", diff, diff))
        sums = np.stack([dist[:, lo:hi].sum(axis=1)
                         for lo, hi in zip(bounds[:-1], bounds[1:])], axis=1)
        own = dense[block]
        rows = np.arange(own.size)
        a = sums[rows, own] / (counts[own] - 1)
        means = sums / counts
        means[rows, own] = np.inf
        b = means.min(axis=1)
        denom = np.maximum(a, b)
        terms[block] = np.divide(b - a, denom, out=np.zeros_like(a), where=denom > 0.0)
    total = 0.0
    for term in terms.tolist():  # one by one, in index order
        total += term
    return total / n


def quality_report(data: Dataset, emb: Embedding, k_recall: int = DEFAULT_K_RECALL,
                   k_accuracy: int = DEFAULT_K_ACCURACY) -> QualityReport:
    """All metrics computable for the given data; label metrics only when
    labels permit them.

    Both k are clamped to N-1, and the report records the values used. The
    embedding's neighbors are searched once, for the larger k.
    """
    if emb.n != data.n:
        raise CneError("embedding row count does not match dataset")
    k_recall = min(k_recall, data.n - 1)
    k_accuracy = min(k_accuracy, data.n - 1)
    labeled = data.labels is not None and len(np.unique(data.labels)) >= 2
    neighbors = knn_indices(emb.coords, max(k_recall, k_accuracy) if labeled else k_recall)
    report = QualityReport(k_recall=k_recall)
    report.knn_recall = knn_recall(data, emb, k_recall, neighbors=neighbors)
    if labeled:
        report.knn_accuracy = knn_accuracy(data.labels, emb, k_accuracy, neighbors=neighbors)
        report.k_accuracy = k_accuracy
        _, counts = np.unique(data.labels, return_counts=True)
        if counts.min() >= 2:
            report.silhouette = silhouette(data.labels, emb)
    return report
