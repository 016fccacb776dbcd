"""Dataset loading, validation, and synthetic generators."""

import numpy as np
import pytest

from cne import (
    DataError, Dataset, Embedding, load_csv, make_blobs, make_moons, standardize, write_csv,
)
from cne.data import blob_centers, densify_labels


def test_dataset_basic_construction():
    ds = Dataset(points=np.zeros((3, 2)))
    assert ds.n == 3 and ds.dim == 2
    assert ds.labels is None


def test_dataset_rejects_nonfinite():
    pts = np.zeros((3, 2))
    pts[1, 0] = np.nan
    with pytest.raises(DataError):
        Dataset(points=pts)
    pts[1, 0] = np.inf
    with pytest.raises(DataError):
        Dataset(points=pts)


def test_dataset_rejects_negative_labels():
    with pytest.raises(DataError):
        Dataset(points=np.zeros((2, 2)), labels=np.array([0, -1]))


def test_embedding_rejects_zero_columns():
    # silhouette builds its distances from the first coordinate on
    with pytest.raises(DataError, match=">= 1 column"):
        Embedding(np.zeros((4, 0)))


def test_densify_labels_first_appearance():
    assert list(densify_labels(["cat", "dog", "cat"])) == [0, 1, 0]
    assert list(densify_labels(["z", "a", "z", "m"])) == [0, 1, 0, 2]


def test_load_csv_no_label(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n3,4\n5,6\n")
    ds = load_csv(p)
    assert ds.n == 3 and ds.dim == 2
    assert ds.labels is None
    assert np.array_equal(ds.points, [[1, 2], [3, 4], [5, 6]])


def test_load_csv_label_by_name(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,cls\n1,2,cat\n3,4,dog\n5,6,cat\n")
    ds = load_csv(p, label_column="cls")
    assert ds.dim == 2
    assert list(ds.labels) == [0, 1, 0]


def test_load_csv_label_by_index(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2,0\n3,4,1\n5,6,0\n")
    ds = load_csv(p, label_column=2)
    assert ds.dim == 2
    assert list(ds.labels) == [0, 1, 0]


def test_load_csv_nan_cell_names_location(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2\n3,NaN\n5,6\n")
    with pytest.raises(DataError) as exc:
        load_csv(p)
    msg = str(exc.value)
    assert "row" in msg and "column" in msg


def test_load_csv_ragged_rows(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2\n3\n")
    with pytest.raises(DataError):
        load_csv(p)


def test_load_csv_too_few_rows(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2\n")
    with pytest.raises(DataError):
        load_csv(p)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_csv(tmp_path / "nope.csv")


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    # labels in first-appearance order so the read-back densification is the identity
    ds = Dataset(points=rng.normal(size=(20, 4)),
                 labels=densify_labels(rng.integers(0, 3, size=20)))
    p = tmp_path / "rt.csv"
    write_csv(ds, p)
    back = load_csv(p, label_column="label")
    assert np.allclose(back.points, ds.points, rtol=1e-12, atol=0)
    assert np.array_equal(back.labels, ds.labels)


def test_make_blobs_shapes_and_purity():
    ds = make_blobs(200, 3, 10, 20.0, 7)
    assert ds.n == 600 and ds.dim == 10
    assert sorted(np.unique(ds.labels)) == [0, 1, 2]
    centers = blob_centers(3, 10, 20.0)
    # Every sample strictly nearer its own center than any other center.
    d = np.linalg.norm(ds.points[:, None, :] - centers[None, :, :], axis=2)
    assert np.array_equal(d.argmin(axis=1), ds.labels)


def test_make_blobs_center_separation():
    for n_classes, dim, sep in [(3, 10, 20.0), (5, 2, 4.0), (4, 3, 7.5)]:
        centers = blob_centers(n_classes, dim, sep)
        for a in range(n_classes):
            for b in range(a + 1, n_classes):
                assert np.linalg.norm(centers[a] - centers[b]) >= sep - 1e-9


def test_make_blobs_single_point():
    ds = make_blobs(1, 1, 2, 1.0, 0)
    assert ds.n == 1 and len(np.unique(ds.labels)) == 1


def test_make_blobs_deterministic():
    a = make_blobs(50, 3, 5, 10.0, 3)
    b = make_blobs(50, 3, 5, 10.0, 3)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)


def test_make_moons_zero_noise_on_circle():
    ds = make_moons(100, 0.0, 1)
    outer = ds.points[ds.labels == 0]
    r = np.linalg.norm(outer, axis=1)
    assert np.allclose(r, 1.0, atol=1e-12)
    assert (outer[:, 1] >= -1e-12).all()


def test_make_moons_deterministic():
    a = make_moons(100, 0.05, 1)
    b = make_moons(100, 0.05, 1)
    assert np.array_equal(a.points, b.points)


def test_make_moons_minimal():
    ds = make_moons(2, 0.0, 0)
    assert ds.n == 2
    assert sorted(ds.labels) == [0, 1]


def test_standardize():
    rng = np.random.default_rng(5)
    ds = Dataset(points=rng.normal(3.0, 7.0, size=(100, 4)))
    out = standardize(ds)
    assert np.allclose(out.points.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(out.points.std(axis=0), 1.0, atol=1e-12)
