"""Acceptance suite: nine criteria covering gradient correctness, algebraic
identities, graph normalization, invariances, benchmark quality, determinism,
sampler statistics, and metric agreement.

Each criterion prints one PASS/FAIL line (bypassing pytest's capture so the
verdicts always appear in the run output).
"""

import math
import time

import numpy as np
import pytest

from cne import (
    Dataset, Embedding, LossSpec, OptimConfig, cauchy,
    cauchy_unnormalized, default_spec, evaluate, fit_nonparametric, grad_check,
    knn_accuracy, knn_graph, knn_recall, make_blobs, random_batch, silhouette,
)
from cne.cli import main as cli_main
from cne.neighbor_graph import affinity
from cne.sampling import LabelPositives, sample_edge_batch
from cne.neighbor_graph import NeighborGraph

BENCH_SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture
def verdict(capfd):
    def emit(num, name, ok, detail=""):
        line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" [{detail}]"
        with capfd.disabled():
            print(line, flush=True)
        return ok

    return emit


def checked_specs():
    """Every loss kind plus each variant flag that changes the computation."""
    sched = {"w_u_init": 0.5, "w_u_final": 0.5}
    specs = [LossSpec(kind=k, m=5, **sched) for k in (
        "tsne", "umap", "nce", "trimap", "pacmap", "infonce",
        "sscl", "snn", "supcon", "sup_snn", "tscne")]
    specs += [
        LossSpec(kind="trimap", m=5, **sched, log_ratio=True),
        LossSpec(kind="tscne", m=5, **sched, log_ratio=True),
        LossSpec(kind="sscl", m=5, denominator_includes_positive=True),
        LossSpec(kind="supcon", m=5, denominator_includes_positive=True),
    ]
    return specs


def test_criterion_1_gradient_correctness(verdict):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    n, d, b, m = 64, 2, 8, 5
    labels = rng.integers(0, 3, size=n)
    worst = 0.0
    for spec in checked_specs():
        for _ in range(20):
            coords = rng.normal(size=(n, d))
            batch = random_batch(n, b, m, rng, labels=labels)
            worst = max(worst, grad_check(spec, batch, coords, epoch=0, n_epochs=10))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    assert verdict(1, "gradient correctness", ok,
                   f"max_rel_err={worst:.2e}, {elapsed:.1f}s"), (worst, elapsed)


def test_criterion_2_algebraic_identities(verdict):
    rng = np.random.default_rng(1)
    ok = True

    # unnormalized-kernel identity across 12 orders of magnitude
    d_sq = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), size=1000))
    pt = cauchy_unnormalized(d_sq)
    ok &= bool(np.all(np.abs(pt / (pt + 1.0) - cauchy(d_sq)) <= 1e-12 * cauchy(d_sq)))

    n = 40
    coords = rng.normal(size=(n, 2))

    def rel(a, b):
        return abs(a - b) / max(1.0, abs(b))

    # umap and nce are one loss under two names
    batch = random_batch(n, 12, 5, rng)
    ok &= evaluate(LossSpec(kind="umap"), batch, coords).value == \
        evaluate(LossSpec(kind="nce"), batch, coords).value

    # one positive per anchor collapses the grouped positive sum
    anchors = rng.permutation(n)[:10]
    batch = random_batch(n, 10, 5, rng)
    batch.anchors = anchors
    a = evaluate(LossSpec(kind="snn"), batch, coords).value
    b = evaluate(LossSpec(kind="sscl"), batch, coords).value
    ok &= rel(a, b) <= 1e-12

    # a single label positive equal to the paired row collapses the
    # supervised losses onto the self-supervised one
    batch = random_batch(n, 4, 5, rng)
    batch.anchors = np.array([0, 1, 2, 3])
    batch.positives = np.array([1, 0, 3, 2])
    batch.label_positives = LabelPositives(np.array([1, 0, 3, 2]), np.arange(5))
    sscl_v = evaluate(LossSpec(kind="sscl"), batch, coords).value
    supcon_v = evaluate(LossSpec(kind="supcon"), batch, coords).value
    sup_snn_v = evaluate(LossSpec(kind="sup_snn"), batch, coords).value
    ok &= rel(supcon_v, sscl_v) <= 1e-12
    ok &= rel(sup_snn_v, supcon_v) <= 1e-12

    # log of an average never falls below the average of logs
    labels = rng.integers(0, 3, size=n)
    jensen_ok = True
    for _ in range(1000):
        batch = random_batch(n, 8, 5, rng, labels=labels)
        lo = evaluate(LossSpec(kind="sup_snn"), batch, coords).value
        hi = evaluate(LossSpec(kind="supcon"), batch, coords).value
        jensen_ok &= lo <= hi + 1e-12
    ok &= jensen_ok

    assert verdict(2, "algebraic identities", ok)


def naive_graph_edges(points, k):
    n = points.shape[0]
    edges = set()
    for i in range(n):
        d2 = np.array([float(np.dot(points[j] - points[i], points[j] - points[i]))
                       for j in range(n)])
        d2[i] = np.inf
        for j in np.argsort(d2, kind="stable")[:k]:
            edges.add((min(i, int(j)), max(i, int(j))))
    return sorted(edges)


def test_criterion_3_graph_normalization_and_oracle(verdict):
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(50):
        n = int(rng.integers(10, 201))
        d = int(rng.integers(1, 8))
        k = int(rng.integers(1, min(16, n - 1) + 1))
        points = rng.normal(size=(n, d))
        g = knn_graph(Dataset(points=points), k=k)
        ok &= [tuple(e) for e in g.edges] == naive_graph_edges(points, k)
        total = g.n_edges * affinity(g, *map(int, g.edges[0]))
        ok &= abs(total - 1.0) <= 1e-12
    assert verdict(3, "affinity normalization and graph oracle", ok)


def test_criterion_4_rigid_motion_invariance(verdict):
    rng = np.random.default_rng(3)
    n = 40
    labels = rng.integers(0, 3, size=n)
    specs = checked_specs()
    ok = True
    for _ in range(100):
        coords = rng.normal(size=(n, 2))
        batch = random_batch(n, 8, 5, rng, labels=labels)
        q, r = np.linalg.qr(rng.normal(size=(2, 2)))
        q = q * np.sign(np.diag(r))
        t = rng.normal(scale=10.0, size=2)
        moved = coords @ q.T + t
        for spec in specs:
            a = evaluate(spec, batch, coords, 0, 10).value
            b = evaluate(spec, batch, moved, 0, 10).value
            ok &= abs(a - b) <= 1e-10 * max(1.0, abs(a))
    assert verdict(4, "rigid-motion invariance", ok)


def default_run(kind, separation, seed):
    ds = make_blobs(200, 3, 10, separation, seed)
    g = knn_graph(ds, k=15)
    overrides = {"log_ratio": True} if kind == "tscne" else {}
    spec = default_spec(kind, **overrides)
    t0 = time.perf_counter()
    emb, _ = fit_nonparametric(ds, g, spec, OptimConfig(seed=seed))
    return ds, emb, time.perf_counter() - t0


def test_criterion_5_blobs_benchmark(verdict):
    ok = True
    details = []
    for kind in ("umap", "infonce", "tscne"):
        recalls, accs, times = [], [], []
        for seed in BENCH_SEEDS:
            ds, emb, dt = default_run(kind, 20.0, seed)
            recalls.append(knn_recall(ds, emb, k=15))
            accs.append(knn_accuracy(ds.labels, emb))
            times.append(dt)
        rec, acc = float(np.mean(recalls)), float(np.mean(accs))
        ok &= acc >= 0.95 and rec >= 0.30 and max(times) < 120.0
        details.append(f"{kind}: recall={rec:.3f} acc={acc:.3f} max_t={max(times):.0f}s")
    assert verdict(5, "blobs benchmark", ok, "; ".join(details))


def test_criterion_6_supervised_benefit(verdict):
    sils = {}
    for kind in ("tscne", "umap"):
        vals = []
        for seed in BENCH_SEEDS:
            ds, emb, _ = default_run(kind, 4.0, seed)
            vals.append(silhouette(ds.labels, emb))
        sils[kind] = float(np.mean(vals))
    margin = sils["tscne"] - sils["umap"]
    ok = margin >= 0.1
    assert verdict(6, "supervised benefit", ok,
                   f"tscne={sils['tscne']:.3f} umap={sils['umap']:.3f} "
                   f"margin={margin:.3f}")


def test_criterion_7_determinism(tmp_path, verdict):
    data = "blobs:n_per_class=60,n_classes=3,dim=8,separation=15,seed=2"
    args = ["embed", "--data", data, "--loss", "umap", "--epochs", "20",
            "--seed", "11", "--deterministic"]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(args + ["--out", str(out)]) == 0
        outs.append((out / "embedding.csv").read_bytes())
    ok = outs[0] == outs[1]
    assert verdict(7, "byte-identical reruns", ok)


def test_criterion_8_sampler_statistics(verdict):
    # negative-sampling uniformity over 1e5 draws
    n = 10
    g = NeighborGraph(np.array([[0, 1]]), k=1, n=n)
    rng = np.random.default_rng(4)
    counts = np.zeros(n)
    total = 100_000
    drawn = 0
    while drawn < total:
        batch = sample_edge_batch(g, batch_size=1000, m=1, rng=rng)
        sel = batch.anchors == 0
        take = batch.negatives.ravel()[sel]
        take = take[: total - drawn]
        np.add.at(counts, take, 1)
        drawn += len(take)
    p = 1.0 / (n - 1)
    sigma = math.sqrt(p * (1.0 - p) / total)
    freq = counts[1:] / total
    uniform_ok = bool(np.all(np.abs(freq - p) <= 3.0 * sigma))

    # annealed weight matches its piecewise-linear closed form exactly
    sched = LossSpec(kind="trimap", w_p=1.0, w_u_init=7.0, w_u_final=2.0, anneal_fraction=0.4)
    epochs = 250
    t_anneal = 0.4 * epochs
    schedule_ok = True
    for t in range(epochs):
        if t < t_anneal:
            expect = 7.0 + (2.0 - 7.0) * (t / t_anneal)
        else:
            expect = 2.0
        schedule_ok &= sched.w_u(t, epochs) == expect
    ok = uniform_ok and schedule_ok
    assert verdict(8, "sampler statistics", ok)


def naive_knn_set(points, i, k):
    d2 = np.array([float(np.dot(points[j] - points[i], points[j] - points[i]))
                   for j in range(len(points))])
    d2[i] = np.inf
    return [int(j) for j in np.argsort(d2, kind="stable")[:k]]


def test_criterion_9_metric_references(verdict):
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(5):
        n = int(rng.integers(30, 201))
        high = rng.normal(size=(n, 5))
        low = rng.normal(size=(n, 2))
        labels = np.concatenate([np.arange(3), rng.integers(0, 3, size=n - 3)])
        k = int(rng.integers(2, 16))

        hits = 0
        for i in range(n):
            hits += len(set(naive_knn_set(high, i, k)) & set(naive_knn_set(low, i, k)))
        ok &= knn_recall(Dataset(points=high), Embedding(low), k=k) == hits / (n * k)

        correct = 0
        for i in range(n):
            votes = np.bincount(labels[naive_knn_set(low, i, k)])
            correct += int(votes.argmax()) == labels[i]
        ok &= knn_accuracy(labels, Embedding(low), k=k) == correct / n

        def d(i, j):
            return np.sqrt(np.einsum("d,d->", low[i] - low[j], low[i] - low[j]))

        total = 0.0
        for i in range(n):
            own = np.array([d(i, j) for j in range(n) if labels[j] == labels[i]])
            a = own.sum() / (len(own) - 1)
            b = min(np.array([d(i, j) for j in range(n) if labels[j] == c]).mean()
                    for c in range(3) if c != labels[i])
            if max(a, b) > 0.0:
                total += (b - a) / max(a, b)
        ok &= silhouette(labels, Embedding(low)) == total / n

    # a rigidly moved copy preserves every neighbor set
    points = rng.normal(size=(80, 2))
    q, r = np.linalg.qr(rng.normal(size=(2, 2)))
    q = q * np.sign(np.diag(r))
    moved = points @ q.T + 5.0
    ok &= knn_recall(Dataset(points=points), Embedding(moved), k=10) == 1.0

    assert verdict(9, "metric reference agreement", ok)
