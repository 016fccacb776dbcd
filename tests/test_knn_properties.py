"""Property tests of the blocked kNN search, the graph and the quality
metrics against the naive per-pair references, on inputs chosen to break a
screened search: duplicate and near-duplicate points, exact ties on integer
grids, k = N-1, points far from the origin, and blocks smaller than N rows."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cne import CneError, Dataset, Embedding, knn_accuracy, knn_graph, knn_recall, quality_report, silhouette
from cne import neighbor_graph
from cne.neighbor_graph import knn_indices
from test_metrics import naive_accuracy, naive_recall, naive_silhouette
from test_neighbor_graph import naive_knn_graph_edges, naive_neighbors

SETTINGS = settings(max_examples=60, deadline=None)
# One row per block, a few rows per block, and the default.
BLOCK_BYTES = st.sampled_from([1, 2000, neighbor_graph.BLOCK_BYTES])


def make_points(rng, shape, n, d):
    if shape == "grid":  # many exact distance ties, and duplicates
        return rng.integers(0, 3, size=(n, d)).astype(np.float64)
    if shape in ("duplicates", "near-duplicates"):
        base = rng.normal(size=(max(1, n // 3), d))
        points = base[rng.integers(0, len(base), size=n)]
        if shape == "near-duplicates":  # k-th distance ~1e-18, far below GEMM error
            points += 1e-9 * rng.normal(size=(n, d))
        return points
    points = rng.normal(size=(n, d))
    if shape == "far":  # |x|^2 ~ 1e12: GEMM distances cancel catastrophically
        points += 1e6
    return points


@st.composite
def problems(draw, min_n=2, max_n=40, dim=None):
    """(points, k, rng): N x D points of one shape and a k in [1, N-1],
    often N-1."""
    n = draw(st.integers(min_n, max_n))
    d = dim or draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["normal", "grid", "duplicates", "near-duplicates", "far"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.one_of(st.just(n - 1), st.integers(1, n - 1)))
    return make_points(rng, shape, n, d), k, rng


@SETTINGS
@given(problems(), BLOCK_BYTES)
def test_knn_indices_match_naive(problem, block_bytes):
    points, k, _ = problem
    with mock.patch.object(neighbor_graph, "BLOCK_BYTES", block_bytes):
        got = knn_indices(points, k)
    want = [naive_neighbors(points, i, k) for i in range(len(points))]
    assert got.tolist() == want


@SETTINGS
@given(problems(), BLOCK_BYTES)
def test_knn_graph_matches_naive(problem, block_bytes):
    points, k, _ = problem
    with mock.patch.object(neighbor_graph, "BLOCK_BYTES", block_bytes):
        g = knn_graph(points, k=k)
    edges = naive_knn_graph_edges(points, k)
    assert [tuple(e) for e in g.edges] == edges
    n = len(points)
    assert g.degrees().min() >= k
    assert g.degrees().sum() == 2 * len(edges)
    edge_set = set(edges)
    assert all(g.has_edge(i, j) == ((min(i, j), max(i, j)) in edge_set)
               for i in range(n) for j in range(n))


@SETTINGS
@given(problems(min_n=4), problems(min_n=4, dim=2), BLOCK_BYTES)
def test_metrics_match_naive(high, low, block_bytes):
    points, k, rng = high
    n = min(len(points), len(low[0]))
    points, coords, k = points[:n], low[0][:n], min(k, n - 1)
    # two or three classes, each with at least two members
    labels = rng.permutation(np.arange(n) % min(3, n // 2))
    ds, emb = Dataset(points=points, labels=labels), Embedding(coords)
    with mock.patch.object(neighbor_graph, "BLOCK_BYTES", block_bytes):
        assert knn_recall(ds, emb, k=k) == naive_recall(points, coords, k)
        assert knn_accuracy(labels, emb, k=k) == naive_accuracy(labels, coords, k)
        assert silhouette(labels, emb) == naive_silhouette(labels, coords)
        report = quality_report(ds, emb, k_recall=k, k_accuracy=n - 1)
    assert report.knn_recall == naive_recall(points, coords, k)
    assert report.knn_accuracy == naive_accuracy(labels, coords, n - 1)


@SETTINGS
@given(problems())
def test_graph_keeps_its_search(problem):
    points, k, _ = problem
    neighbors = knn_graph(points, k=k).neighbors
    assert neighbors.tolist() == knn_indices(points, k).tolist()
    assert not neighbors.flags.writeable


@SETTINGS
@given(problems(min_n=4), problems(min_n=4, dim=2), BLOCK_BYTES)
def test_quality_report_with_input_neighbors(high, low, block_bytes):
    # A shared input search wider than, as wide as or narrower than k_recall
    # (then searched again), or none, gives the same report.
    points, k, rng = high
    n = min(len(points), len(low[0]))
    points, coords, k = points[:n], low[0][:n], min(k, n - 1)
    labels = rng.permutation(np.arange(n) % min(3, n // 2))
    ds, emb = Dataset(points=points, labels=labels), Embedding(coords)
    with mock.patch.object(neighbor_graph, "BLOCK_BYTES", block_bytes):
        want = quality_report(ds, emb, k_recall=k)
        for width in {min(k + 2, n - 1), k, max(k - 1, 1)}:
            shared = knn_indices(points, width)
            assert quality_report(ds, emb, k_recall=k, input_neighbors=shared) == want
        assert quality_report(ds, emb, k_recall=k, input_neighbors=None) == want
        with pytest.raises(CneError, match="rows for"):  # a search of other data
            quality_report(ds, emb, k_recall=k, input_neighbors=shared[:-1])
