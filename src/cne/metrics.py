"""Embedding quality measures: kNN recall, leave-one-out kNN accuracy, and
the mean silhouette coefficient. All exact, in row blocks of bounded memory;
the neighbor searches are :func:`~cne.neighbor_graph.knn_indices` or
prefixes of ones passed in, and silhouette sums one coordinate at a time."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, Embedding
from .errors import CneError
from .neighbor_graph import knn_indices, map_row_blocks

DEFAULT_K_RECALL = 15
DEFAULT_K_ACCURACY = 10


@dataclass
class QualityReport:
    knn_recall: float | None = None
    knn_accuracy: float | None = None
    silhouette: float | None = None
    k_recall: int | None = None
    k_accuracy: int | None = None


def _first_columns(points, k: int, known):
    """knn_indices(points, k): the prefix of `known`, such a search for a larger k, if given."""
    if known is not None and known.shape[0] != points.shape[0]:
        raise CneError(f"neighbor array has {known.shape[0]} rows for {points.shape[0]} points")
    if known is None or not 1 <= k <= known.shape[1]:
        return knn_indices(points, k)
    return known[:, :k]


def knn_recall(data: Dataset, emb: Embedding, k: int = DEFAULT_K_RECALL, *,
               neighbors=None, input_neighbors=None) -> float:
    """Mean fraction of high-dimensional k-neighbors preserved in the embedding.

    `neighbors` and `input_neighbors` may pass :func:`knn_indices` of the
    embedding and of the data (``NeighborGraph.neighbors``) for any k' >= k.
    """
    n = data.n
    if emb.n != n:
        raise CneError("embedding row count does not match dataset")
    high = _first_columns(data.points, k, input_neighbors)
    low = _first_columns(emb.coords, k, neighbors)
    # Offsetting row i by i*N makes every (row, neighbor) pair one unique code.
    offsets = np.arange(n)[:, None] * n
    hits = np.intersect1d(high + offsets, low + offsets, assume_unique=True).size
    return hits / (n * k)


def _label_classes(labels, emb: Embedding, metric: str):
    """np.unique(labels) with inverse and counts, for one label per embedding row."""
    if labels is None:
        raise CneError(f"{metric} requires labels")
    labels = np.asarray(labels)
    if labels.shape != (emb.n,):
        raise CneError(f"{metric} needs one label per embedding row: "
                       f"labels of shape {labels.shape} for {emb.n} rows")
    return np.unique(labels, return_inverse=True, return_counts=True)


def knn_accuracy(labels, emb: Embedding, k: int = DEFAULT_K_ACCURACY, *,
                 neighbors=None) -> float:
    """Leave-one-out majority-vote accuracy in embedding space.

    Vote ties go to the smaller label id. `neighbors` is as for
    :func:`knn_recall`.
    """
    n = emb.n
    classes, dense, _ = _label_classes(labels, emb, "knn_accuracy")
    if len(classes) < 2:
        raise CneError("knn_accuracy is degenerate with a single class")
    nbrs = _first_columns(emb.coords, k, neighbors)
    predicted = np.empty(n, dtype=np.intp)

    def block_votes(block, buffers):
        (votes,) = buffers
        votes[:] = 0
        codes = np.arange(len(votes))[:, None] * votes.shape[1] + dense[nbrs[block]]
        for column in codes.T:  # one vote per row in each column
            votes.reshape(-1)[column] += 1  # a view: the block's buffer is contiguous
        # argmax returns the first maximum, so ties go to the smaller label.
        predicted[block] = votes.argmax(axis=1)

    map_row_blocks(block_votes, n, ((len(classes), np.int64),))
    return int(np.count_nonzero(predicted == dense)) / n


def silhouette(labels, emb: Embedding) -> float:
    """Mean silhouette coefficient with Euclidean embedding distances.

    Row blocks against a coordinate-major copy grouped by class: (x_0-g_0)^2,
    then += (x_c-g_c)^2 per later c, in the two buffers of
    :func:`~cne.neighbor_graph.map_row_blocks`."""
    classes, dense, counts = _label_classes(labels, emb, "silhouette")
    if len(classes) < 2:
        raise CneError("silhouette requires at least 2 classes")
    if counts.min() < 2:
        raise CneError("silhouette requires every class to have size >= 2")
    x, n = emb.coords, emb.n
    # Columns grouped by class, in index order within a class: each class's
    # distances are summed in the order of a boolean-mask selection.
    grouped = np.ascontiguousarray(x[np.argsort(dense, kind="stable")].T)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    terms = np.empty(n)

    def block_terms(block, buffers):
        dist, dc = buffers
        xb = x[block]
        np.subtract(xb[:, 0, None], grouped[0], out=dist)
        dist *= dist
        for c in range(1, emb.d):
            np.subtract(xb[:, c, None], grouped[c], out=dc)
            dc *= dc
            dist += dc
        np.sqrt(dist, out=dist)
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

    map_row_blocks(block_terms, n, ((n, np.float64), (n, np.float64)))
    total = 0.0
    for term in terms.tolist():  # one by one, in index order
        total += term
    return total / n


def quality_report(data: Dataset, emb: Embedding, k_recall: int = DEFAULT_K_RECALL,
                   k_accuracy: int = DEFAULT_K_ACCURACY, *, input_neighbors=None) -> QualityReport:
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
    report.knn_recall = knn_recall(data, emb, k_recall, neighbors=neighbors,
                                   input_neighbors=input_neighbors)
    if labeled:
        report.knn_accuracy = knn_accuracy(data.labels, emb, k_accuracy, neighbors=neighbors)
        report.k_accuracy = k_accuracy
        _, counts = np.unique(data.labels, return_counts=True)
        if counts.min() >= 2:
            report.silhouette = silhouette(data.labels, emb)
    return report
