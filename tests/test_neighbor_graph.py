"""Symmetric kNN graph construction, the uniform edge affinities, and the
threaded row blocks behind the search."""

import sys
import threading
from unittest import mock

import numpy as np
import pytest

from cne import Dataset, GraphError, affinity, knn_graph, neighbor_graph
from cne.neighbor_graph import map_row_blocks


def naive_neighbors(points, i, k):
    """Independent O(N) reference for one row: distances pair by pair,
    stable tie-break toward smaller index."""
    n = points.shape[0]
    d2 = np.empty(n)
    for j in range(n):
        diff = points[j] - points[i]
        d2[j] = np.einsum("d,d->", diff, diff)
    d2[i] = np.inf
    return [int(j) for j in np.argsort(d2, kind="stable")[:k]]


def naive_knn_graph_edges(points, k):
    """Independent O(N^2) reference: naive_neighbors of every row, union
    symmetrization."""
    edges = set()
    for i in range(points.shape[0]):
        for j in naive_neighbors(points, i, k):
            edges.add((min(i, j), max(i, j)))
    return sorted(edges)


def test_collinear_three_points():
    ds = Dataset(points=np.array([[0.0], [1.0], [10.0]]))
    g = knn_graph(ds, k=1)
    assert [tuple(e) for e in g.edges] == [(0, 1), (1, 2)]
    assert g.n_edges == 2


def test_complete_graph_at_max_k():
    rng = np.random.default_rng(0)
    ds = Dataset(points=rng.normal(size=(12, 3)))
    g = knn_graph(ds, k=11)
    assert g.n_edges == 12 * 11 // 2


def test_duplicate_points_tie_break():
    # Two coincident pairs; with k=1 each duplicate pairs with its twin
    # because the zero distance wins and ties go to the smaller index.
    ds = Dataset(points=np.array([[0.0], [0.0], [5.0], [5.0]]))
    g = knn_graph(ds, k=1)
    assert g.has_edge(0, 1)
    assert g.has_edge(2, 3)


def test_raw_input_must_be_finite():
    # A NaN row used to come back as its own neighbor: edge (1, 1).
    for bad in (np.nan, np.inf):
        with pytest.raises(GraphError, match="NaN or infinite"):
            knn_graph(np.array([[0.0, 1.0], [bad, 2.0], [3.0, 4.0]]), k=1)


def test_has_edge_outside_the_graph():
    g = knn_graph(Dataset(points=np.array([[0.0], [1.0], [10.0]])), k=1)
    assert g.has_edge(2, 1)
    assert not g.has_edge(0, 2)
    assert not g.has_edge(1, 1)
    # codes i*n+j of out-of-range pairs alias real edges: (0, 5) -> (1, 2)
    assert not g.has_edge(0, 5)
    assert not g.has_edge(-1, 2)


def test_k_out_of_range():
    ds = Dataset(points=np.zeros((5, 2)))
    with pytest.raises(GraphError):
        knn_graph(ds, k=0)
    with pytest.raises(GraphError):
        knn_graph(ds, k=5)


def test_degree_lower_bound():
    rng = np.random.default_rng(1)
    ds = Dataset(points=rng.normal(size=(80, 5)))
    for k in (1, 3, 15):
        g = knn_graph(ds, k=k)
        assert g.degrees().min() >= k


def test_matches_naive_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(10, 120))
        d = int(rng.integers(1, 8))
        k = int(rng.integers(1, min(10, n - 1) + 1))
        points = rng.normal(size=(n, d))
        g = knn_graph(Dataset(points=points), k=k)
        assert [tuple(e) for e in g.edges] == naive_knn_graph_edges(points, k)


def test_permutation_equivariance():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(40, 3))
    perm = rng.permutation(40)
    g = knn_graph(Dataset(points=points), k=4)
    gp = knn_graph(Dataset(points=points[perm]), k=4)
    # position of original index i in the permuted dataset
    inv = np.empty(40, dtype=np.int64)
    inv[perm] = np.arange(40)
    mapped = sorted((min(inv[i], inv[j]), max(inv[i], inv[j])) for i, j in g.edges)
    assert [tuple(e) for e in gp.edges] == mapped


def test_affinity_values():
    ds = Dataset(points=np.array([[0.0], [1.0], [10.0], [11.0]]))
    g = knn_graph(ds, k=1)
    assert g.n_edges == 2
    assert affinity(g, 0, 1) == 0.5
    assert affinity(g, 1, 0) == 0.5
    assert affinity(g, 0, 2) == 0.0


def test_affinity_rejects_self_pair():
    g = knn_graph(Dataset(points=np.array([[0.0], [1.0]])), k=1)
    with pytest.raises(GraphError):
        affinity(g, 1, 1)


def test_affinity_sums_to_one():
    rng = np.random.default_rng(4)
    ds = Dataset(points=rng.normal(size=(30, 4)))
    g = knn_graph(ds, k=5)
    total = sum(affinity(g, i, j) for i in range(30) for j in range(30) if i != j)
    # Each undirected edge is visited twice in the ordered double loop.
    assert abs(total / 2.0 - 1.0) < 1e-12


def test_row_blocks_give_each_worker_its_own_buffers():
    # One row per block, more workers than cores and a short switch
    # interval: a block whose buffer another worker wrote to meanwhile sees
    # it, and every row must be visited exactly once.
    n = 64
    visits = np.zeros(n, dtype=np.int64)

    def fn(block, buffers):
        (buf,) = buffers
        for _ in range(20):
            buf.fill(block.start)
            if not np.all(buf == block.start):
                raise AssertionError(f"block {block.start}: buffer shared with another worker")
        visits[block] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.multiple(neighbor_graph, BLOCK_BYTES=64 * n, WORKERS=8):
            map_row_blocks(fn, n, ((n, np.int64),))
    finally:
        sys.setswitchinterval(interval)
    assert visits.tolist() == [1] * n


def test_one_row_block_runs_inline():
    threads = set()
    with mock.patch.object(neighbor_graph, "WORKERS", 2):
        map_row_blocks(lambda block, buffers: threads.add(threading.get_ident()), 10,
                       ((10, np.float64),))
    assert threads == {threading.get_ident()}


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_row_blocks_buffers_together_fit_block_bytes(workers):
    # Mixed widths and dtypes over many blocks: each worker's buffers are one
    # allocation, and all of them together take at most BLOCK_BYTES.
    n, shapes = 500, ((37, np.float64), (5, np.int32), (101, bool))
    row_bytes = 37 * 8 + 5 * 4 + 101
    allocations, visits = {}, np.zeros(n, dtype=np.int64)

    def fn(block, buffers):
        assert [(b.shape, b.dtype) for b in buffers] == [
            ((block.stop - block.start, width), np.dtype(dtype)) for width, dtype in shapes]
        whole = buffers[0]
        while whole.base is not None:
            whole = whole.base
        allocations[id(whole)] = whole.nbytes
        visits[block] += 1

    with mock.patch.multiple(neighbor_graph, BLOCK_BYTES=40 * row_bytes, WORKERS=workers):
        map_row_blocks(fn, n, shapes)
    assert visits.tolist() == [1] * n
    assert 1 <= len(allocations) <= workers
    assert sum(allocations.values()) <= 40 * row_bytes
