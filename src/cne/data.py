"""Dataset loading, validation, and synthetic generators.

A :class:`Dataset` holds N points in R^D plus optional dense integer class
labels. Generators are pure functions of their arguments (including the
seed), and loaded data is validated to be finite and rectangular.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import DataError


# Rows that write_table formats per write: its Python floats and text stay
# a few MB however large the table.
WRITE_ROWS = 4096


class Dataset:
    """Immutable collection of N points in R^D with optional labels.

    Labels, when present, are dense non-negative integers 0..C-1.
    """

    def __init__(self, points, labels=None):
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise DataError(f"points must be a 2-D array, got shape {points.shape}")
        if points.shape[1] < 1:
            raise DataError("points must have at least one feature")
        if not np.all(np.isfinite(points)):
            raise DataError("points contain non-finite values")
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != (points.shape[0],):
                raise DataError(
                    f"labels length {labels.shape} does not match N={points.shape[0]}"
                )
            if labels.size and labels.min() < 0:
                raise DataError("labels must be non-negative integers")
            labels.setflags(write=False)
        points.setflags(write=False)
        self.points = points
        self.labels = labels

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


class Embedding:
    """N points in low-dimensional space (usually d=2)."""

    def __init__(self, coords):
        coords = np.ascontiguousarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] < 1:
            raise DataError(f"coords must be a 2-D array of >= 1 column, got shape {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise DataError("embedding coordinates contain non-finite values")
        self.coords = coords
        self.d = coords.shape[1]

    @property
    def n(self) -> int:
        return self.coords.shape[0]


def _parse_cell(text: str, row: int, col) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"row {row}, column {col}: cannot parse {text!r} as a number") from None
    if not math.isfinite(value):
        raise DataError(f"row {row}, column {col}: non-finite value {text!r}")
    return value


def _looks_numeric(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def densify_labels(raw):
    """Map raw label values to dense integers 0..C-1 in first-appearance order."""
    _, first, inverse = np.unique(np.array(raw, dtype=object), return_index=True,
                                  return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse.reshape(-1)]


def _layout(path, rows, label_column):
    """(header, label index, width) of a CSV file from `rows`, its first two
    non-empty rows (fewer if it has fewer)."""
    if not rows:
        raise DataError(f"{path}: empty file")
    header = rows[0] if any(not _looks_numeric(c) for c in rows[0]) else None
    if isinstance(label_column, str):
        if header is None:
            raise DataError("label column selected by name but the file has no header")
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise DataError(f"label column {label_column!r} not found in header {header}") from None
    elif label_column is not None:
        label_idx = int(label_column)
    else:
        label_idx = None

    data = rows[header is not None:]
    if not data:
        raise DataError(f"{path}: no data rows")
    width = len(data[0])
    if label_idx is not None and not (-width <= label_idx < width):
        raise DataError(f"label column index {label_idx} out of range for width {width}")
    if label_idx is not None and label_idx < 0:
        label_idx += width
    return header, label_idx, width


def _dataset(path, points, raw_labels) -> Dataset:
    if len(points) < 2:
        raise DataError(f"{path}: need at least 2 rows, got {len(points)}")
    return Dataset(points, None if raw_labels is None else densify_labels(raw_labels))


def load_csv(path, label_column=None) -> Dataset:
    """Load a CSV file of real-valued rows with an optional label column.

    The header row is detected automatically (any non-numeric cell in the
    first row). ``label_column`` selects the class column by header name or
    by integer index; name selection requires a header.

    numpy's reader parses the file in one pass. A file it rejects, or one
    with a non-finite value, is read again by :func:`_load_rows`, which
    names the first bad row and column.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(iter(fh.readline, ""))  # readline keeps fh.tell() usable
            rows = (row for row in reader if row)
            first = next(rows, None)
            after_first = fh.tell()
            second = next(rows, None)
            header, label_idx, _ = _layout(
                path, [r for r in (first, second) if r is not None], label_column)
            fh.seek(0 if header is None else after_first)
            raw_labels = None if label_idx is None else []

            def keep_label(cell):  # the label text, and 0.0 in its column
                raw_labels.append(cell.strip())
                return 0.0

            # Every column, not `usecols`, which accepts rows of any width;
            # and this handle, not the path, whose line ends numpy translates.
            converters = None if label_idx is None else {label_idx: keep_label}
            try:
                table = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None,
                                   converters=converters, ndmin=2)
            except ValueError:
                table = None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if table is None or not np.isfinite(table).all():
        return _load_rows(path, label_column)
    if label_idx is not None:
        table = np.delete(table, label_idx, axis=1)
    return _dataset(path, table, raw_labels)


def _load_rows(path, label_column=None) -> Dataset:
    """:func:`load_csv` by a loop over the rows of ``csv.reader``; Python's
    ``float`` parses each cell, and the first bad cell raises."""
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    header, label_idx, width = _layout(path, rows[:2], label_column)
    rows = rows[header is not None:]

    points = []
    raw_labels = None if label_idx is None else []
    for r, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"row {r}: expected {width} cells, got {len(row)} (ragged file)")
        cells = list(row)
        if label_idx is not None:
            raw_labels.append(cells.pop(label_idx).strip())
        try:
            vals = list(map(float, cells))
            if not math.isfinite(sum(vals)):  # a non-finite cell, or an overflowing sum
                raise ValueError
        except ValueError:  # report the row's first bad cell, if any
            vals = [_parse_cell(cell.strip(), r, header[c] if header else c)
                    for c, cell in enumerate(row) if c != label_idx]
        points.append(vals)
    return _dataset(path, np.asarray(points), raw_labels)


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset back to CSV with lossless 17-significant-digit reals."""
    write_table(path, dataset.points, dataset.labels, [f"f{c}" for c in range(dataset.dim)])


def write_table(path, values, labels, names, ids=False) -> None:
    """CSV of `values` as lossless 17-significant-digit reals under `names`, after
    an `id` column with `ids`, before a `label` column when `labels` is not None."""
    row = ",".join(["%d"] * ids + ["%.17g"] * values.shape[1]
                   + ["%d"] * (labels is not None)) + "\r\n"  # csv.writer's line end
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["id"] * ids + names + ["label"] * (labels is not None))
        for start in range(0, len(values), WRITE_ROWS):
            stop = start + WRITE_ROWS
            columns = [range(start, stop)] * ids + values[start:stop].T.tolist()
            if labels is not None:
                columns.append(np.asarray(labels[start:stop]).tolist())
            fh.write("".join(row % cells for cells in zip(*columns)))


def standardize(dataset: Dataset) -> Dataset:
    """Per-feature zero mean, unit variance; constant features are centered only."""
    mean = dataset.points.mean(axis=0)
    std = dataset.points.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return Dataset((dataset.points - mean) / std, dataset.labels)


def make_blobs(n_per_class=200, n_classes=3, dim=10, separation=20.0, seed=0) -> Dataset:
    """Isotropic unit-variance Gaussian clusters with centers >= `separation` apart.

    Centers sit on the coordinate axes when n_classes <= dim (mutual distance
    separation*sqrt(2)), otherwise spaced `separation` apart along the first axis.
    """
    if n_per_class < 1 or n_classes < 1 or dim < 1:
        raise DataError("n_per_class, n_classes, and dim must all be >= 1")
    if separation <= 0:
        raise DataError("separation must be positive")
    rng = np.random.default_rng(seed)
    centers = blob_centers(n_classes, dim, separation)
    points = rng.standard_normal((n_classes * n_per_class, dim))
    labels = np.repeat(np.arange(n_classes), n_per_class)
    points += centers[labels]
    return Dataset(points, labels)


def blob_centers(n_classes, dim, separation):
    """Class centers of make_blobs (see there for the layout)."""
    centers = np.zeros((n_classes, dim))
    if n_classes <= dim:
        centers[np.arange(n_classes), np.arange(n_classes)] = separation
    else:
        centers[:, 0] = separation * np.arange(n_classes)
    return centers


def make_moons(n=400, noise=0.05, seed=0) -> Dataset:
    """Two interleaving half-circles in 2-D with Gaussian noise of scale `noise`."""
    if n < 2:
        raise DataError("make_moons requires n >= 2")
    if noise < 0:
        raise DataError("noise must be >= 0")
    rng = np.random.default_rng(seed)
    n_in = n // 2
    n_out = n - n_in
    t_out = np.linspace(0.0, np.pi, n_out)
    t_in = np.linspace(0.0, np.pi, n_in)
    outer = np.column_stack([np.cos(t_out), np.sin(t_out)])
    inner = np.column_stack([1.0 - np.cos(t_in), 0.5 - np.sin(t_in)])
    points = np.vstack([outer, inner])
    if noise > 0:
        points = points + rng.normal(0.0, noise, size=points.shape)
    labels = np.concatenate([np.zeros(n_out, dtype=np.int64), np.ones(n_in, dtype=np.int64)])
    return Dataset(points, labels)
