"""Inputs, output checks and arithmetic of the cne benchmark.

Everything here is a pure function of its arguments or of files on disk, so
the self-tests in ``test_benchmark.py`` cover it without running the CLI.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from pathlib import Path

import numpy as np

QUALITY_RANGES = {
    "knn_recall": (0.0, 1.0),
    "knn_accuracy": (0.0, 1.0),
    "silhouette": (-1.0, 1.0),
}


def write_blobs_csv(path, n_per_class: int, n_classes: int, dim: int, seed: int,
                    separation: float = 20.0 * math.sqrt(2.0)) -> np.ndarray:
    """Isotropic unit-variance Gaussian classes whose centres sit on a circle
    in the first two coordinates, `separation` apart from their neighbours.

    With three classes this is the distribution of cne's ``make_blobs`` with
    separation 20 (centres at 20*e_c, pairwise 20*sqrt(2) apart) up to a
    rotation. Any number of classes stays separable by the PCA
    initialisation, so the quality after a short fit does not hinge on how
    the seed happens to project the classes. Generated here rather than by
    ``cne gen`` so that the inputs stay fixed when the program's own
    generators change. Returns the labels.
    """
    if dim < 2:
        raise ValueError("blobs need dim >= 2")
    rng = np.random.default_rng(seed)
    angle = 2.0 * np.pi * np.arange(n_classes) / n_classes
    radius = separation / (2.0 * np.sin(np.pi / n_classes)) if n_classes > 1 else 0.0
    centers = np.zeros((n_classes, dim))
    centers[:, 0] = radius * np.cos(angle)
    centers[:, 1] = radius * np.sin(angle)
    labels = np.repeat(np.arange(n_classes), n_per_class)
    points = rng.standard_normal((labels.size, dim)) + centers[labels]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{c}" for c in range(dim)] + ["label"])
        for row, label in zip(points, labels):
            writer.writerow([f"{v:.17g}" for v in row] + [int(label)])
    return labels


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_tree(root) -> str:
    """One hash over the relative names and contents of the .py files."""
    h = hashlib.sha256()
    root = Path(root)
    for path in sorted(root.glob("**/*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def median_n(values) -> dict:
    """Median of the samples together with the sample count."""
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return {"median": statistics.median(values), "n": len(values)}


def check_embedding(path, n: int, labels=None) -> list[str]:
    """Problems with an embedding.csv: N finite rows, ids 0..N-1 in order,
    and, when `labels` is given, a label column equal to it."""
    problems = []
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return [f"{path}: {exc}"]
    if not rows or not rows[0] or rows[0][0] != "id":
        return [f"{path}: header does not start with 'id'"]
    header, body = rows[0], rows[1:]
    has_label = header[-1] == "label"
    n_coords = len(header) - 1 - has_label
    if n_coords < 1:
        problems.append(f"{path}: no coordinate columns")
    if len(body) != n:
        problems.append(f"{path}: {len(body)} rows, expected {n}")
    for i, row in enumerate(body):
        if len(row) != len(header):
            problems.append(f"{path}: row {i} has {len(row)} cells, expected {len(header)}")
            break
        if row[0] != str(i):
            problems.append(f"{path}: row {i} has id {row[0]!r}")
            break
        try:
            coords = [float(v) for v in row[1:1 + n_coords]]
        except ValueError:
            problems.append(f"{path}: row {i} has a non-numeric coordinate")
            break
        if not all(math.isfinite(v) for v in coords):
            problems.append(f"{path}: row {i} has a non-finite coordinate")
            break
        if labels is not None and i < len(labels):
            if not has_label or row[-1] != str(int(labels[i])):
                problems.append(f"{path}: row {i} label does not match the input")
                break
    return problems


def check_quality(report: dict, where: str = "") -> list[str]:
    """Each quality value present, finite and inside its range."""
    problems = []
    for key, (lo, hi) in QUALITY_RANGES.items():
        value = report.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}{key} is {value!r}")
        elif not lo <= value <= hi:
            problems.append(f"{where}{key}={value} outside [{lo}, {hi}]")
    return problems


def check_embed_output(out: Path, n: int, labels) -> tuple[list[str], dict, dict]:
    """(problems, quality, {cell: sha256}) of one `cne embed` output dir."""
    problems = check_embedding(out / "embedding.csv", n, labels)
    try:
        quality = json.loads((out / "quality.json").read_text())
    except (OSError, ValueError) as exc:
        return problems + [f"{out}/quality.json: {exc}"], {}, {}
    problems += check_quality(quality, f"{out.name}: ")
    hashes = {} if problems else {"embed": sha256_file(out / "embedding.csv")}
    return problems, quality, hashes


def check_bench_output(out: Path, n: int, labels, cells: list[str]) -> tuple[list[str], dict, dict]:
    """(problems, mean quality over rows, {cell: sha256}) of one `cne bench`
    output dir whose grid has the given cells (``<loss>_seed<seed>``)."""
    try:
        rows = json.loads((out / "bench.json").read_text())["rows"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{out}/bench.json: {exc}"], {}, {}
    problems = []
    if len(rows) != len(cells):
        problems.append(f"bench.json has {len(rows)} rows, expected {len(cells)}")
    for row in rows:
        if row.get("status") != "ok":
            problems.append(f"bench row {row.get('loss')}/{row.get('seed')}: {row.get('status')}")
        else:
            problems += check_quality(row, f"bench row {row.get('loss')}: ")
    hashes = {}
    for cell in cells:
        cell_problems = check_embedding(out / cell / "embedding.csv", n, labels)
        problems += cell_problems
        if not cell_problems:
            hashes[cell] = sha256_file(out / cell / "embedding.csv")
    quality = {}
    if not problems:
        quality = {key: statistics.fmean(r[key] for r in rows) for key in QUALITY_RANGES}
    return problems, quality, hashes


def hash_mismatches(earlier: list[dict], current: list[dict]) -> list[list[str]]:
    """For each record of `current`, the cells whose embedding hash differs
    from the first hash seen for that cell, earlier records first. Records
    map a cell name to a sha256 and must come from one build, workload and
    seed."""
    reference: dict[str, str] = {}
    for rec in earlier:
        for cell, digest in rec.items():
            reference.setdefault(cell, digest)
    out = []
    for rec in current:
        out.append(sorted(c for c, d in rec.items() if reference.setdefault(c, d) != d))
    return out
