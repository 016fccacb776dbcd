"""Exact symmetric kNN graph and the uniform binary affinities over its edges.

Every edge {i,j} is a positive pair; the high-dimensional similarity of a
pair is 1/|edges| if the pair is an edge and 0 otherwise, so the affinities
sum to exactly 1 over all pairs.

:func:`knn_indices` is the one exact kNN search of the package; the quality
metrics use it too.
"""

from __future__ import annotations

import os
import queue
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .data import Dataset
from .errors import GraphError

DEFAULT_K = 15

# Size of all buffers of the blocks of rows in flight, all workers together.
# Fixes the number of rows per block, so working memory is O(BLOCK_BYTES),
# not O(N^2). The mid-near draw of `sampling` works within it too.
BLOCK_BYTES = 4 << 20
# Threads that work on row blocks at once: the cores this process may use.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)


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


def map_row_blocks(fn, n: int, shapes) -> None:
    """Call fn(block, buffers) for consecutive slices covering range(n), on up
    to WORKERS threads; a single block runs inline, in this thread.

    `buffers`: a block-rows x width array per (width, dtype) of `shapes`, for
    n rows if they all fit in BLOCK_BYTES, else for a WORKERS-th of it (at
    least one row). Each worker's set is allocated once, here, and handed out
    through a queue. `fn` must write only the block's own rows of its outputs,
    so the result does not depend on the worker count.
    """
    row_bytes = sum(width * np.dtype(dtype).itemsize for width, dtype in shapes)
    rows = max(1, n if n * row_bytes <= BLOCK_BYTES else BLOCK_BYTES // (row_bytes * WORKERS))
    blocks = [slice(start, min(start + rows, n)) for start in range(0, n, rows)]
    workers = min(WORKERS, len(blocks))
    free = queue.SimpleQueue()
    sizes = [rows * width * np.dtype(dtype).itemsize for width, dtype in shapes]
    for _ in range(workers):
        # One allocation per worker, cut by dtype: glibc gave separate arrays
        # back to the system and faulted them in again on every call, which
        # doubled the time of silhouette at N=600.
        cuts = np.split(np.empty(sum(sizes), np.uint8), np.cumsum(sizes)[:-1])
        free.put([cut.view(dt).reshape(rows, width) for cut, (width, dt) in zip(cuts, shapes)])

    def run(block):
        buffers = free.get()
        try:
            fn(block, [buf[:block.stop - block.start] for buf in buffers])
        finally:
            free.put(buffers)

    if workers == 1:
        for block in blocks:
            run(block)
        return
    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(run, blocks))  # raises the first exception of a block


def knn_indices(points, k: int):
    """Exact k nearest neighbors of every row of an N x D array.

    Row i of the N x k result lists the neighbors of point i (never i
    itself) by ascending squared distance sum_d (x_j - x_i)^2, computed in
    that difference form, with ties toward the smaller index.

    Per block of rows, GEMM distances on a mean-centred copy screen the
    candidates within a margin of a bound on each row's k-th screened value:
    its k-th if all N rows are one block (N <= 496), else the k-th smallest
    of g group minima, column j in group j mod g (up to 8 columns a group).
    Only those are recomputed exactly and sorted, in row blocks of
    :func:`map_row_blocks`: memory is O(BLOCK_BYTES) beyond input and output.
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
    # column within twice that again of a bound >= the k-th value. The margin
    # is absolute, not relative to the k-th value, which is 0 for duplicates.
    margin = 4.0 * (d + 8) * np.finfo(np.float64).eps * (sq + sq.max())
    out = np.empty((n, k), dtype=np.int64)
    # k distinct columns lie at or below the k-th smallest group minimum, and
    # g > k groups leave k without the row's own column. s = 1 copies the row.
    s = 1 if 17 * n * n <= BLOCK_BYTES else max(1, min(8, n // (k + 1)))
    g = -(-n // s)

    def search(block, buffers):
        screen, ranked, keep = buffers
        rows = np.arange(block.start, block.stop)
        local = rows - block.start
        # |c_j|^2 - 2 c_i.c_j: the squared distance less |c_i|^2, which is
        # constant along a row and so changes no row's order. +inf pads g*s.
        wide = screen[:, :n]
        np.matmul(-2.0 * centred[block], centred.T, out=wide)
        wide += sq
        wide[local, rows] = np.inf
        screen[:, n:] = np.inf
        np.min(screen.reshape(-1, s, g), axis=1, out=ranked)
        ranked.partition(k - 1, axis=1)
        np.less_equal(wide, (ranked[:, k - 1] + margin[block])[:, None], out=keep)
        if s > 1 and 6 * np.count_nonzero(keep) > keep.size:  # 48 B a candidate, <= 8 a column
            kth = [np.partition(row, k - 1)[k - 1] for row in wide]
            np.less_equal(wide, (np.array(kth) + margin[block])[:, None], out=keep)
        keep[local, rows] = False  # even where overflow made the bound infinite
        r, cols = np.divmod(np.flatnonzero(keep), n)
        d2 = np.empty(cols.size)
        step = max(1, keep.size // (3 * d))  # 24 d B a difference, <= 8 a column
        for lo in range(0, cols.size, step):
            diff = points[cols[lo:lo + step]] - points[rows[r[lo:lo + step]]]
            d2[lo:lo + step] = np.einsum("nd,nd->n", diff, diff)
        cols = cols[np.lexsort((cols, d2, r))]
        counts = np.bincount(r, minlength=rows.size)
        first = np.cumsum(counts) - counts
        out[block] = cols[first[:, None] + np.arange(k)]

    map_row_blocks(search, n, ((g * s, np.float64), (g, np.float64), (n, bool)))
    return out


def knn_graph(data, k: int = DEFAULT_K) -> NeighborGraph:
    """Build the exact symmetric kNN graph under Euclidean distance.

    An edge {i,j} exists iff j is among the k nearest neighbors of i or
    vice versa. Distance ties are broken toward the smaller index. The search,
    :func:`knn_indices` (kept as `neighbors`), takes O(N^2 D) time in row
    blocks whose buffers all count toward BLOCK_BYTES; past one block (N > 496)
    group minima bound each row's k-th value. Memory does not grow as N^2.
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
