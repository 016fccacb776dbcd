"""Dataset loading, validation, and synthetic generators."""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cne import (
    DataError, Dataset, Embedding, load_csv, make_blobs, make_moons, standardize, write_csv,
)
from cne import data
from cne.data import blob_centers, densify_labels, write_table


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
    assert list(densify_labels(["01", "1", "1", "", "01"])) == [0, 1, 1, 2, 0]
    assert list(densify_labels(["a\x00", "a", "a\x00"])) == [0, 1, 0]
    assert list(densify_labels([7, 3, 7])) == [0, 1, 0]
    assert densify_labels([]).dtype == np.int64 and len(densify_labels([])) == 0


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


def _write_cells(path, values, labels, names, ids=False):
    """write_table's oracle: csv.writer, one formatted cell at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] * ids + names + ["label"] * (labels is not None))
        for i, row in enumerate(values):
            cells = [str(i)] * ids + [f"{v:.17g}" for v in row]
            if labels is not None:
                cells.append(str(int(labels[i])))
            writer.writerow(cells)


def test_csv_round_trip(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "WRITE_ROWS", 7)  # three writes of 20 rows
    rng = np.random.default_rng(0)
    points = rng.normal(size=(20, 4))
    points[:4, 0] = [-0.0, 5e-324, 1e16, 1e308]
    points[4, :] = [-1e308, -5e-324, 1.0, 0.1]
    # labels in first-appearance order so the read-back densification is the identity
    ds = Dataset(points=points, labels=densify_labels(rng.integers(0, 3, size=20)))
    p = tmp_path / "rt.csv"
    write_csv(ds, p)
    back = load_csv(p, label_column="label")
    assert back.points.tobytes() == ds.points.tobytes()
    assert np.array_equal(back.labels, ds.labels)

    names = [f"z{c + 1}" for c in range(4)]
    for ids in (False, True):
        for labels in (None, ds.labels):
            _write_cells(tmp_path / "cells.csv", points, labels, names, ids)
            write_table(p, points, labels, names, ids)
            assert p.read_bytes() == (tmp_path / "cells.csv").read_bytes()
            back = load_csv(p, label_column=None if labels is None else -1)
            assert back.points[:, int(ids):].tobytes() == points.tobytes()
            if ids:
                assert np.array_equal(back.points[:, 0], np.arange(20))


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


# --- load_csv against the row loop ---------------------------------------

NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(lambda v: f"{v:.17g}"),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1_000", " 2.5 ", "\t-3", "+4.", ".5", "1e-3", "-0"]),
)
BAD_CELLS = st.sampled_from(["abc", "NaN", "inf", "-inf", "1e400", "", " ", "1,5"])
LABELS = st.one_of(st.sampled_from(["1", "01", " 1", "cat", "a b", " a b ", ""]),
                   st.text(alphabet='ab 01,"\r\n', max_size=4))
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


def _quoted(cell, always=False):
    if always or any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


@st.composite
def csv_files(draw):
    """(file text, label_column): a CSV file, mostly well formed."""
    width = draw(st.integers(1, 4))
    label = draw(st.one_of(st.none(), st.integers(0, width - 1)))
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(_quoted("label" if c == label else f"c {c}", draw(st.booleans()))
                              for c in range(width)))
    for _ in range(draw(st.integers(0, 6))):
        cells = []
        for c in range(width):
            bad = draw(st.integers(0, 30)) == 0
            cell = draw(LABELS if c == label else BAD_CELLS if bad else NUMBERS)
            cells.append(_quoted(cell, draw(st.booleans())))
        ragged = draw(st.integers(0, 30))
        if ragged == 0:
            cells.pop()
        elif ragged == 1:
            cells.append("1")
        lines.append(",".join(cells))
        lines.extend([""] * draw(st.integers(0, 1)))
    text = "".join(line + draw(LINE_ENDS) for line in lines)
    if label is not None:
        label = draw(st.sampled_from([label, label - width, "label"]))
    return text, label


def _outcome(load, path, label_column):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ds = load(path, label_column=label_column)
        except DataError as exc:
            return "error", str(exc)
    labels = None if ds.labels is None else ds.labels.tolist()
    return ds.points.shape, ds.points.tobytes(), labels


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_files())
@example(("a,b\r\n1,2\r\n3\r\n", None))                    # ragged
@example(('1,"x"\n2,3\n', None))                                # non-numeric
@example(("1,2\n3,NaN\n", None))
@example(("x,y,label\r1,inf\rb\r2,3,b\r", "label"))
@example(("1e400,1\n2,3\n", None))
@example(("1_000,1\n\n2,3\n", -1))                             # Python's float only
@example(('"c 0", label\n" 1 ","a b"\n2,"a b "\n', 1))
def test_load_csv_matches_the_row_loop(tmp_path, case):
    text, label_column = case
    path = tmp_path / "case.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    assert _outcome(load_csv, path, label_column) == _outcome(data._load_rows, path, label_column)


def test_load_csv_reads_well_formed_files_in_bulk(tmp_path, monkeypatch):
    # Quoted cells, blank lines, CRLF and lone-CR rows, and labels that look
    # like numbers parse without the row loop.
    monkeypatch.setattr(data, "_load_rows", lambda *a, **kw: pytest.fail("row loop ran"))
    path = tmp_path / "d.csv"
    with open(path, "w", newline="") as fh:
        fh.write('"a",b,cls\r\n\r\n"1.5", 2,01\r\n3,4e-3, 1\r5,"6", 01\n')
    ds = load_csv(path, label_column="cls")
    assert ds.points.tolist() == [[1.5, 2.0], [3.0, 0.004], [5.0, 6.0]]
    assert ds.labels.tolist() == [0, 1, 0]
