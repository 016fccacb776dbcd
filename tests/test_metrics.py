"""Embedding quality measures against naive reference implementations."""

import numpy as np
import pytest

from cne import (
    CneError, Dataset, Embedding, knn_accuracy, knn_recall, quality_report, silhouette,
)


def naive_knn(points, i, k):
    d2 = np.array([np.dot(points[j] - points[i], points[j] - points[i])
                   for j in range(len(points))])
    d2[i] = np.inf
    return set(int(j) for j in np.argsort(d2, kind="stable")[:k])


def naive_recall(high, low, k):
    n = len(high)
    hits = 0
    for i in range(n):
        hits += len(naive_knn(high, i, k) & naive_knn(low, i, k))
    return hits / (n * k)


def naive_accuracy(labels, coords, k):
    n = len(coords)
    correct = 0
    for i in range(n):
        votes = {}
        for j in naive_knn(coords, i, k):
            votes[labels[j]] = votes.get(labels[j], 0) + 1
        best = min(l for l, c in votes.items() if c == max(votes.values()))
        correct += best == labels[i]
    return correct / n


def naive_silhouette(labels, coords):
    n = len(coords)

    def dist(i, j):
        return np.sqrt(np.einsum("d,d->", coords[i] - coords[j], coords[i] - coords[j]))

    total = 0.0
    for i in range(n):
        own = np.array([dist(i, j) for j in range(n) if labels[j] == labels[i]])
        a = own.sum() / (len(own) - 1)  # includes the zero self-distance
        b = min(
            np.array([dist(i, j) for j in range(n) if labels[j] == c]).mean()
            for c in sorted(set(labels)) if c != labels[i]
        )
        if max(a, b) > 0.0:
            total += (b - a) / max(a, b)
    return total / n


def rotation(d, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def test_recall_isometric_copy():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(50, 4))
    ds = Dataset(points=points)
    emb = Embedding(points @ rotation(4, 1).T + 3.0)
    assert knn_recall(ds, emb, k=10) == 1.0


def test_recall_matches_naive():
    rng = np.random.default_rng(1)
    for _ in range(5):
        n = int(rng.integers(20, 80))
        high = rng.normal(size=(n, 5))
        low = rng.normal(size=(n, 2))
        k = int(rng.integers(1, 12))
        got = knn_recall(Dataset(points=high), Embedding(low), k=k)
        assert got == naive_recall(high, low, k)


def test_recall_shuffled_expectation():
    # shuffling rows of an isometric copy: expected overlap of two
    # independent k-sets is k/(N-1) per neighbor slot
    rng = np.random.default_rng(2)
    n, k = 60, 6
    points = rng.normal(size=(n, 3))
    ds = Dataset(points=points)
    vals = []
    for _ in range(100):
        emb = Embedding(points[rng.permutation(n)])
        vals.append(knn_recall(ds, emb, k=k))
    expect = k / (n - 1)
    sigma = np.std(vals) / np.sqrt(len(vals))
    assert abs(np.mean(vals) - expect) < 3 * max(sigma, 1e-3)


def test_recall_k_range():
    ds = Dataset(points=np.zeros((5, 2)))
    emb = Embedding(np.zeros((5, 2)))
    with pytest.raises(CneError):
        knn_recall(ds, emb, k=0)
    with pytest.raises(CneError):
        knn_recall(ds, emb, k=5)


def test_accuracy_separable_case():
    rng = np.random.default_rng(3)
    coords = np.vstack([
        rng.normal(size=(40, 2)) + [10.0, 0.0],
        rng.normal(size=(40, 2)) - [10.0, 0.0],
    ])
    labels = np.repeat([0, 1], 40)
    assert knn_accuracy(labels, Embedding(coords), k=5) == 1.0


def test_accuracy_matches_naive():
    rng = np.random.default_rng(4)
    for _ in range(5):
        n = int(rng.integers(20, 80))
        coords = rng.normal(size=(n, 2))
        labels = rng.integers(0, 3, size=n)
        if len(np.unique(labels)) < 2:
            continue
        k = int(rng.integers(1, 10))
        got = knn_accuracy(labels, Embedding(coords), k=k)
        assert got == naive_accuracy(labels, coords, k)


def test_accuracy_shuffled_baseline():
    rng = np.random.default_rng(5)
    n = 100
    coords = rng.normal(size=(n, 2))
    vals = []
    for _ in range(50):
        labels = rng.permutation(np.repeat([0, 1], n // 2))
        vals.append(knn_accuracy(labels, Embedding(coords), k=9))
    # chance level for balanced binary labels
    assert abs(np.mean(vals) - 0.5) < 3 * max(np.std(vals) / np.sqrt(len(vals)), 0.01)


def test_accuracy_single_class_rejected():
    with pytest.raises(CneError):
        knn_accuracy(np.zeros(5, dtype=int), Embedding(np.zeros((5, 2))), k=2)


def test_silhouette_matches_naive():
    rng = np.random.default_rng(6)
    for _ in range(5):
        n = 30
        coords = rng.normal(size=(n, 2))
        labels = np.repeat([0, 1, 2], 10)
        got = silhouette(labels, Embedding(coords))
        assert got == pytest.approx(naive_silhouette(labels, coords), abs=1e-12)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_silhouette_matches_naive_above_two_dims(d):
    # From d = 3 the squared distances are summed in another order than the
    # naive reference's, so the last bits may differ.
    rng = np.random.default_rng(11 + d)
    for _ in range(5):
        coords = rng.normal(size=(30, d))
        labels = np.repeat([0, 1, 2], 10)
        got = silhouette(labels, Embedding(coords))
        assert got == pytest.approx(naive_silhouette(labels, coords), abs=1e-12)


def test_silhouette_tight_far_clusters():
    rng = np.random.default_rng(7)
    coords = np.vstack([
        0.01 * rng.normal(size=(20, 2)),
        0.01 * rng.normal(size=(20, 2)) + [100.0, 0.0],
    ])
    labels = np.repeat([0, 1], 20)
    assert silhouette(labels, Embedding(coords)) > 0.9


def test_silhouette_identical_locations():
    coords = np.vstack([np.zeros((5, 2)), np.zeros((5, 2))])
    labels = np.repeat([0, 1], 5)
    assert silhouette(labels, Embedding(coords)) <= 0.0


def test_silhouette_requires_class_sizes():
    with pytest.raises(CneError):
        silhouette(np.array([0, 0, 1]), Embedding(np.zeros((3, 2))))


def test_metrics_rigid_motion_and_scale_invariance():
    rng = np.random.default_rng(8)
    n = 40
    points = rng.normal(size=(n, 5))
    coords = rng.normal(size=(n, 2))
    labels = np.repeat([0, 1], n // 2)
    ds = Dataset(points=points, labels=labels)
    q = rotation(2, 9)
    moved = 3.0 * (coords @ q.T) + [5.0, -2.0]
    assert knn_recall(ds, Embedding(coords), k=8) == knn_recall(ds, Embedding(moved), k=8)
    assert knn_accuracy(labels, Embedding(coords), k=7) == knn_accuracy(
        labels, Embedding(moved), k=7)
    # silhouette is rigid-motion invariant (not scale invariant)
    rigid = coords @ q.T + [5.0, -2.0]
    assert silhouette(labels, Embedding(rigid)) == pytest.approx(
        silhouette(labels, Embedding(coords)), abs=1e-12)


def test_quality_report_keys():
    rng = np.random.default_rng(10)
    ds = Dataset(points=rng.normal(size=(30, 4)), labels=np.repeat([0, 1, 2], 10))
    emb = Embedding(rng.normal(size=(30, 2)))
    report = quality_report(ds, emb).to_dict()
    assert set(report) == {"knn_recall", "knn_accuracy", "silhouette",
                           "k_recall", "k_accuracy"}
    assert all(v is not None for v in report.values())
    unlabeled = Dataset(points=ds.points)
    report2 = quality_report(unlabeled, emb).to_dict()
    assert report2["knn_accuracy"] is None and report2["silhouette"] is None
