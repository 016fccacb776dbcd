"""Exact symmetric kNN graph and the uniform binary affinities over its edges.

Every edge {i,j} is a positive pair; the high-dimensional similarity of a
pair is 1/|edges| if the pair is an edge and 0 otherwise, so the affinities
sum to exactly 1 over all pairs.

:func:`knn_indices` is the one exact kNN search of the package; the quality
metrics use it too.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .errors import GraphError

DEFAULT_K = 15

# Size of the largest float64 temporary of one block of rows (an N-wide
# distance row, or a D-wide difference row per candidate). Fixes the number
# of rows per block, so working memory is O(BLOCK_BYTES), not O(N^2).
BLOCK_BYTES = 16 << 20


class NeighborGraph:
    """Symmetric set of positive pairs built from a kNN search.

    Edges are stored once as (i, j) with i < j, in ascending lexicographic
    order. Symmetrization is by union, so every node has degree >= k.
    `neighbors` is the read-only N x k :func:`knn_indices` search behind them.
    """

    def __init__(self, edges, k: int, n: int, neighbors=None):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.edges = edges
        self.k = k
        self.n = n
        self.neighbors = neighbors
        self._codes = np.sort(edges[:, 0] * n + edges[:, 1])
        edges.setflags(write=False)

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def has_edge(self, i: int, j: int) -> bool:
        if i > j:
            i, j = j, i
        if not 0 <= i < j < self.n:
            return False
        code = i * self.n + j
        pos = np.searchsorted(self._codes, code)
        return bool(pos < self._codes.size and self._codes[pos] == code)

    def degrees(self):
        return np.bincount(self.edges.ravel(), minlength=self.n)


def row_blocks(n: int, row_bytes: int):
    """Consecutive slices covering range(n), of max(1, BLOCK_BYTES // row_bytes) rows."""
    step = max(1, BLOCK_BYTES // row_bytes)
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def knn_indices(points, k: int):
    """Exact k nearest neighbors of every row of an N x D array.

    Row i of the N x k result lists the neighbors of point i (never i
    itself) by ascending squared distance sum_d (x_j - x_i)^2, computed in
    that difference form, with ties toward the smaller index.

    Per block of rows, GEMM distances on a mean-centred copy screen the
    candidates; only those are recomputed exactly and sorted. Block buffers
    are allocated once: memory is O(BLOCK_BYTES) beyond the input and output.
    """
    points = np.asarray(points, dtype=np.float64)
    n, d = points.shape
    if not 1 <= k <= n - 1:
        raise GraphError(f"k must satisfy 1 <= k <= N-1, got k={k}, N={n}")
    centred = points - points.mean(axis=0)
    sq = np.einsum("nd,nd->n", centred, centred)
    # Rounding moves the GEMM form and the difference form each by at most
    # about (d + 8) eps (|c_i|^2 + |c_j|^2), so a screened value is within
    # twice that of the exact one. The k-th screened value and a true
    # neighbour's screened value can err in opposite directions: keep every
    # column within twice that again. The margin is absolute, not relative
    # to the k-th value, which is 0 for duplicate points.
    margin = 4.0 * (d + 8) * np.finfo(np.float64).eps * (sq + sq.max())
    minus_2ct = -2.0 * centred.T
    out = np.empty((n, k), dtype=np.int64)
    blocks = list(row_blocks(n, 8 * n))
    screen_buf, ranked_buf = np.empty((2, blocks[0].stop, n))
    keep_buf = np.empty((blocks[0].stop, n), dtype=bool)
    for block in blocks:
        rows = np.arange(block.start, block.stop)
        local = rows - block.start
        # |c_j|^2 - 2 c_i.c_j: the squared distance less |c_i|^2, which is
        # constant along a row and so changes no row's order.
        screen = np.matmul(centred[block], minus_2ct, out=screen_buf[:rows.size])
        screen += sq
        screen[local, rows] = np.inf
        ranked = ranked_buf[:rows.size]
        ranked[...] = screen
        ranked.partition(k - 1, axis=1)
        kth = ranked[:, k - 1]
        keep = np.less_equal(screen, (kth + margin[block])[:, None], out=keep_buf[:rows.size])
        keep[local, rows] = False  # even where overflow made kth infinite
        r, cols = np.divmod(np.flatnonzero(keep), n)
        d2 = np.empty(cols.size)
        for part in row_blocks(cols.size, 8 * d):
            diff = points[cols[part]] - points[rows[r[part]]]
            d2[part] = np.einsum("nd,nd->n", diff, diff)
        cols = cols[np.lexsort((cols, d2, r))]
        counts = np.bincount(r, minlength=rows.size)
        first = np.cumsum(counts) - counts
        out[block] = cols[first[:, None] + np.arange(k)]
    return out


def knn_graph(data, k: int = DEFAULT_K) -> NeighborGraph:
    """Build the exact symmetric kNN graph under Euclidean distance.

    An edge {i,j} exists iff j is among the k nearest neighbors of i or
    vice versa. Distance ties are broken toward the smaller index. The search,
    :func:`knn_indices` (kept as `neighbors`), takes O(N^2 D) time in row
    blocks, with working memory bounded by BLOCK_BYTES instead of growing as N^2.
    """
    points = data.points if isinstance(data, Dataset) else _raw_points(data)
    n = points.shape[0]
    neighbors = knn_indices(points, k)
    neighbors.setflags(write=False)
    j = neighbors.ravel()
    i = np.repeat(np.arange(n, dtype=np.int64), k)
    codes = np.unique(np.minimum(i, j) * n + np.maximum(i, j))
    edges = np.column_stack((codes // n, codes % n))
    return NeighborGraph(edges, k=k, n=n, neighbors=neighbors)


def _raw_points(data):
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise GraphError("knn_graph expects a Dataset or an N x D array")
    if not np.all(np.isfinite(arr)):
        raise GraphError("knn_graph input contains NaN or infinite values")
    return arr


def affinity(graph: NeighborGraph, i: int, j: int) -> float:
    """Binary affinity: 1/|edges| when {i,j} is a positive pair, else 0."""
    if i == j:
        raise GraphError("affinity is undefined for i == j")
    if not (0 <= i < graph.n and 0 <= j < graph.n):
        raise GraphError(f"indices ({i}, {j}) out of range for n={graph.n}")
    return 1.0 / graph.n_edges if graph.has_edge(i, j) else 0.0
