"""Training loops, initialization, the encoder network, and checkpoints."""

import struct

import numpy as np
import pytest

from cne import (
    CneError, ConfigError, Dataset, DivergenceError, Encoder, LossNumericsError, LossSpec,
    OptimConfig, default_spec, fit_nonparametric, fit_parametric, knn_accuracy, knn_graph,
    make_blobs, transform,
)
from cne.losses import SUPERVISED_KINDS, evaluate
from cne.optimize import ENCODER_MAGIC, MAX_BATCH_BYTES, check_batch_shape, pca_init


def small_blobs(seed=0):
    return make_blobs(30, 3, 6, 12.0, seed)


def test_optim_config_validation():
    with pytest.raises(CneError):
        OptimConfig(epochs=0)
    with pytest.raises(CneError):
        OptimConfig(momentum=1.0)
    with pytest.raises(CneError):
        OptimConfig(learning_rate=-0.1)
    with pytest.raises(CneError):
        OptimConfig(grad_clip=-1.0)
    with pytest.raises(CneError):
        OptimConfig(mode="quantum")
    with pytest.raises(CneError):
        OptimConfig(batch_size=0)
    with pytest.raises(CneError):
        OptimConfig(embedding_dim=0)
    with pytest.raises(CneError):
        OptimConfig(seed=-1)


def test_pca_init_shape_and_scale():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(100, 7))
    z = pca_init(points, 2)
    assert z.shape == (100, 2)
    assert np.allclose(z.std(axis=0), 1e-2, rtol=1e-12)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
    # pure function of the input
    assert np.array_equal(z, pca_init(points, 2))


def test_pca_init_rejects_more_columns_than_pca_supplies():
    # Centred data has rank at most min(D, N - 1), so PCA supplies that many
    # columns; padding more with zeros would give columns that never move,
    # since their gradient is exactly zero, and at d = N <= D the last one
    # would be rounding noise scaled up to the init's spread.
    rng = np.random.default_rng(0)
    assert pca_init(rng.normal(size=(90, 4)), 4).shape == (90, 4)
    assert pca_init(rng.normal(size=(3, 7)), 2).shape == (3, 2)
    for shape, d, supplied in (((90, 4), 5, 4), ((3, 7), 4, 2), ((3, 7), 3, 2)):
        with pytest.raises(CneError, match=f"dimension {d} exceeds the {supplied} columns"):
            pca_init(rng.normal(size=shape), d)


def test_zero_learning_rate_keeps_pca_init():
    ds = small_blobs()
    g = knn_graph(ds, k=5)
    cfg = OptimConfig(epochs=1, learning_rate=0.0, batch_size=64)
    emb, log = fit_nonparametric(ds, g, LossSpec(kind="umap"), cfg)
    assert np.array_equal(emb.coords, pca_init(ds.points, 2))
    assert len(log) == 1
    assert set(log[0]) == {"epoch", "mean_loss", "wall_ms", "w_u"}


def test_momentum_zero_single_exact_step():
    ds = small_blobs()
    g = knn_graph(ds, k=5)
    spec = LossSpec(kind="umap", m=3)
    lr = 0.7
    cfg = OptimConfig(epochs=1, learning_rate=lr, momentum=0.0,
                      batch_size=g.n_edges, seed=4, grad_clip=0.0)
    emb, _ = fit_nonparametric(ds, g, spec, cfg)
    # replay the single step by hand
    from cne.sampling import Sampler
    coords = pca_init(ds.points, 2)
    sampler = Sampler(graph=g, data=ds, batch_size=g.n_edges, m=3, seed=4)
    lg = evaluate(spec, sampler.next_batch(), coords, 0, 1)
    expect = coords.copy()
    for idx, grad in lg.grads.items():
        expect[idx] = expect[idx] - lr * grad
    assert np.array_equal(emb.coords, expect)


def test_momentum_steps_match_replay():
    # Three steps with momentum, replayed with v <- momentum * v - lr * g and
    # z <- z + v on fresh arrays.
    from cne.sampling import Sampler
    ds = small_blobs()
    g = knn_graph(ds, k=5)
    spec = LossSpec(kind="umap", m=3)
    cfg = OptimConfig(epochs=3, learning_rate=0.5, momentum=0.8, batch_size=g.n_edges,
                      seed=4, grad_clip=0.01)
    emb, _ = fit_nonparametric(ds, g, spec, cfg)
    coords = pca_init(ds.points, 2)
    velocity = np.zeros_like(coords)
    sampler = Sampler(graph=g, data=ds, batch_size=g.n_edges, m=3, seed=4)
    for epoch in range(3):
        grad = np.clip(evaluate(spec, sampler.next_batch(), coords, epoch, 3).grad, -0.01, 0.01)
        velocity = 0.8 * velocity - 0.5 * grad
        coords = coords + velocity
    assert np.array_equal(emb.coords, coords)


def test_grad_clip_bounds_step():
    ds = small_blobs()
    g = knn_graph(ds, k=5)
    spec = LossSpec(kind="umap", m=3)
    clip = 1e-3
    cfg = OptimConfig(epochs=1, learning_rate=1.0, momentum=0.0,
                      batch_size=g.n_edges, seed=4, grad_clip=clip)
    emb, _ = fit_nonparametric(ds, g, spec, cfg)
    step = emb.coords - pca_init(ds.points, 2)
    assert np.abs(step).max() <= clip + 1e-15


def test_nonparametric_deterministic():
    ds = small_blobs()
    g = knn_graph(ds, k=5)
    cfg = OptimConfig(epochs=5, batch_size=128, seed=9)
    a, _ = fit_nonparametric(ds, g, LossSpec(kind="umap"), cfg)
    b, _ = fit_nonparametric(ds, g, LossSpec(kind="umap"), cfg)
    assert np.array_equal(a.coords, b.coords)


def test_nonparametric_blobs_accuracy():
    ds = make_blobs(60, 3, 10, 20.0, 7)
    g = knn_graph(ds, k=10)
    cfg = OptimConfig(epochs=250, batch_size=512, seed=0)
    emb, log = fit_nonparametric(ds, g, LossSpec(kind="umap"), cfg)
    assert knn_accuracy(ds.labels, emb, k=10) >= 0.95
    assert len(log) == 250


def test_supervised_loss_requires_labels():
    rng = np.random.default_rng(1)
    ds = Dataset(points=rng.normal(size=(40, 4)))
    g = knn_graph(ds, k=5)
    with pytest.raises(CneError):
        fit_nonparametric(ds, g, LossSpec(kind="supcon"), OptimConfig(epochs=1))


@pytest.mark.parametrize("kind", SUPERVISED_KINDS)
def test_supervised_loss_on_one_class_raises(kind):
    ds = make_blobs(30, 1, 4, 12.0, 0)
    g = knn_graph(ds, k=5)
    with pytest.raises(CneError, match="two classes"):
        fit_nonparametric(ds, g, LossSpec(kind=kind), OptimConfig(epochs=1))


@pytest.mark.parametrize("fit", [fit_nonparametric, fit_parametric])
def test_a_batch_too_large_for_memory_is_rejected(fit):
    # 100 x 1e6 negatives would take 800 MB of indices alone; the bound is
    # checked before the sampler draws anything.
    ds = small_blobs()
    g = knn_graph(ds, k=5)
    with pytest.raises(ConfigError, match="^batch_size 100 with m 1000000 needs 800003200 bytes"):
        fit(ds, g, LossSpec(m=10**6), OptimConfig(epochs=1, batch_size=100))
    check_batch_shape(LossSpec(m=1), OptimConfig(batch_size=MAX_BATCH_BYTES // 40))
    with pytest.raises(ConfigError):
        check_batch_shape(LossSpec(m=1), OptimConfig(batch_size=MAX_BATCH_BYTES // 40 + 1))
    # A supervised loss also draws up to DEFAULT_MAX_LABEL_POSITIVES = 16
    # label positives per anchor.
    per_anchor = (1 + 4 + 16) * 8
    check_batch_shape(LossSpec(kind="supcon", m=1),
                      OptimConfig(batch_size=MAX_BATCH_BYTES // per_anchor))
    with pytest.raises(ConfigError, match="^batch_size"):
        check_batch_shape(LossSpec(kind="supcon", m=1),
                          OptimConfig(batch_size=MAX_BATCH_BYTES // per_anchor + 1))
    # Cells run at once share the bound.
    check_batch_shape(LossSpec(m=1), OptimConfig(batch_size=MAX_BATCH_BYTES // 120), cells=3)
    with pytest.raises(ConfigError, match="bytes of batch indices in 3 cells at once, over"):
        check_batch_shape(LossSpec(m=1), OptimConfig(batch_size=MAX_BATCH_BYTES // 120 + 1),
                          cells=3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_parametric_supervised_divergence_is_reported():
    # On 600 x 10 blobs the encoder's output overflows within a few epochs at
    # the parametric defaults, while the weights stay finite: the loss is
    # the first non-finite quantity, and the run reports divergence, with
    # no numpy warning on the way.
    ds = make_blobs(200, 3, 10, 20.0, 0)
    g = knn_graph(ds, k=15)
    cfg = OptimConfig(epochs=10, learning_rate=0.01, mode="parametric")
    with pytest.raises(DivergenceError, match="non-finite supcon loss at epoch") as info:
        fit_parametric(ds, g, default_spec("supcon"), cfg)
    assert isinstance(info.value.__cause__, LossNumericsError)


def test_encoder_forward_shapes():
    enc = Encoder(in_dim=6, out_dim=2, seed=0)
    assert enc.sizes == (6, 64, 64, 2)
    x = np.random.default_rng(0).normal(size=(10, 6))
    z = enc.forward(x)
    assert z.shape == (10, 2)


def test_encoder_weight_gradients():
    # chain rule through the network against central finite differences
    rng = np.random.default_rng(2)
    enc = Encoder(in_dim=4, out_dim=2, seed=3, hidden=(8, 8))
    x = rng.normal(size=(10, 4))
    target = rng.normal(size=(10, 2))

    def loss_of(e):
        return 0.5 * np.sum((e.forward(x) - target) ** 2)

    z, cache = enc.forward_cached(x)
    grads_w, grads_b = enc.backward(cache, z - target)
    eps = 1e-6
    worst = 0.0
    for layer in range(len(enc.weights)):
        w = enc.weights[layer]
        for idx in [(0, 0), (1, 2), (w.shape[0] - 1, w.shape[1] - 1)]:
            orig = w[idx]
            w[idx] = orig + eps
            up = loss_of(enc)
            w[idx] = orig - eps
            dn = loss_of(enc)
            w[idx] = orig
            numeric = (up - dn) / (2 * eps)
            worst = max(worst, abs(grads_w[layer][idx] - numeric) / max(1.0, abs(numeric)))
        b = enc.biases[layer]
        orig = b[0]
        b[0] = orig + eps
        up = loss_of(enc)
        b[0] = orig - eps
        dn = loss_of(enc)
        b[0] = orig
        numeric = (up - dn) / (2 * eps)
        worst = max(worst, abs(grads_b[layer][0] - numeric) / max(1.0, abs(numeric)))
    assert worst < 1e-4


def test_encoder_checkpoint_round_trip(tmp_path):
    enc = Encoder(in_dim=5, out_dim=2, seed=1)
    path = tmp_path / "enc.bin"
    enc.save(path)
    back = Encoder.load(path)
    assert back.sizes == enc.sizes
    for w1, w2 in zip(enc.weights, back.weights):
        assert np.array_equal(w1, w2)
    for b1, b2 in zip(enc.biases, back.biases):
        assert np.array_equal(b1, b2)
    x = np.random.default_rng(0).normal(size=(7, 5))
    assert np.array_equal(enc.forward(x), back.forward(x))


def test_encoder_load_rejects_garbage(tmp_path):
    # Garbage, a checkpoint cut inside its size header (10 bytes) or inside
    # its first weight matrix (100 bytes), and one with bytes after its end.
    # Then well-formed files of degenerate networks: one layer size (which
    # would load with no layers and transform as the identity), no sizes, and
    # a zero width.
    path = tmp_path / "enc.bin"
    Encoder(in_dim=5, out_dim=2, seed=1).save(path)
    whole = path.read_bytes()
    degenerate = [ENCODER_MAGIC + struct.pack(f"<I{len(s)}I", len(s), *s) + bytes(8 * n)
                  for s, n in (((5,), 0), ((), 0), ((5, 0, 2), 2))]  # n: the floats its layers hold
    for raw in (b"not a checkpoint", whole[:10], whole[:100], whole + bytes(8), *degenerate):
        path.write_bytes(raw)
        with pytest.raises(CneError):
            Encoder.load(path)


def test_parametric_training_and_transform():
    ds = small_blobs()
    g = knn_graph(ds, k=5)
    cfg = OptimConfig(epochs=5, learning_rate=0.01, batch_size=128, seed=0,
                      mode="parametric")
    enc, emb, log = fit_parametric(ds, g, LossSpec(kind="umap"), cfg)
    assert emb.coords.shape == (ds.n, 2)
    assert len(log) == 5
    again = transform(enc, ds.points)
    assert np.allclose(again.coords, emb.coords, rtol=0, atol=1e-12)


def test_parametric_single_step_matches_full_space_replay():
    # One momentum-free step, replayed with the loss evaluated on all N
    # coordinates (batch rows filled in, the rest zero).
    from cne.sampling import Sampler
    ds = small_blobs()
    g = knn_graph(ds, k=5)
    spec = LossSpec(kind="umap", m=3)
    lr = 0.01
    cfg = OptimConfig(epochs=1, learning_rate=lr, momentum=0.0, batch_size=g.n_edges,
                      seed=4, grad_clip=0.0, mode="parametric")
    enc, _, _ = fit_parametric(ds, g, spec, cfg)
    ref = Encoder(ds.dim, 2, seed=4)
    batch = Sampler(graph=g, data=ds, batch_size=g.n_edges, m=3, seed=4).next_batch()
    uniq = batch.all_indices()
    z, cache = ref.forward_cached(ds.points[uniq])
    coords = np.zeros((ds.n, 2))
    coords[uniq] = z
    grads_w, grads_b = ref.backward(cache, evaluate(spec, batch, coords).grad[uniq])
    for layer in range(len(ref.weights)):
        assert np.array_equal(enc.weights[layer], ref.weights[layer] - lr * grads_w[layer])
        assert np.array_equal(enc.biases[layer], ref.biases[layer] - lr * grads_b[layer])


def test_transform_properties():
    enc = Encoder(in_dim=3, out_dim=2, seed=5)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(8, 3))
    z = transform(enc, x).coords
    # duplicate rows map identically (up to BLAS blocking differences)
    dup = transform(enc, np.vstack([x, x[:2]])).coords
    assert np.allclose(dup[8:], z[:2], rtol=0, atol=1e-12)
    # permuting rows permutes outputs
    perm = rng.permutation(8)
    assert np.allclose(transform(enc, x[perm]).coords, z[perm], rtol=0, atol=1e-12)
    with pytest.raises(CneError):
        transform(enc, np.zeros((4, 7)))


def test_parametric_out_of_sample():
    ds = make_blobs(60, 3, 10, 20.0, 3)
    g = knn_graph(ds, k=10)
    cfg = OptimConfig(epochs=40, learning_rate=0.01, batch_size=256, seed=0,
                      mode="parametric")
    enc, emb, _ = fit_parametric(ds, g, LossSpec(kind="umap"), cfg)
    held = make_blobs(20, 3, 10, 20.0, 99)
    z_held = transform(enc, held.points).coords
    # class centroids of the training embedding
    centroids = np.array([emb.coords[ds.labels == c].mean(axis=0) for c in range(3)])
    d = np.linalg.norm(z_held[:, None, :] - centroids[None, :, :], axis=2)
    hits = (d.argmin(axis=1) == held.labels).mean()
    assert hits >= 0.9


def test_training_loss_trend():
    # per-epoch loss over the last quarter of training does not increase
    # beyond noise for the benchmark losses
    ds = make_blobs(60, 3, 10, 20.0, 0)
    g = knn_graph(ds, k=10)
    for kind, kwargs in [("umap", {}), ("infonce", {}), ("supcon", {}),
                         ("tscne", {"log_ratio": True})]:
        spec = default_spec(kind, **kwargs)
        cfg = OptimConfig(epochs=60, batch_size=512, seed=0)
        _, log = fit_nonparametric(ds, g, spec, cfg)
        losses = np.array([e["mean_loss"] for e in log])
        tail = losses[-15:]
        # compare averages of the two halves of the tail
        assert tail[-8:].mean() <= tail[:8].mean() + 1e-3, kind


@pytest.mark.parametrize("kind", ["trimap", "tscne", "umap"])
def test_midnears_drawn_only_in_epochs_that_read_them(monkeypatch, kind):
    # trimap's default schedule anneals w_u to 0 by half the epochs; from
    # there on no step draws mid-nears. tscne's never reaches 0, and umap
    # reads none.
    from cne import sampling
    calls = []
    real = sampling.sample_midnears
    monkeypatch.setattr(sampling, "sample_midnears",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    ds = small_blobs()
    g = knn_graph(ds, k=5)
    spec, cfg = default_spec(kind), OptimConfig(epochs=6, batch_size=64)
    fit_nonparametric(ds, g, spec, cfg)
    steps = -(-g.n_edges // cfg.batch_size)
    reading = sum(spec.w_u(e, cfg.epochs) != 0 for e in range(cfg.epochs))
    want = {"trimap": steps * reading, "tscne": steps * cfg.epochs, "umap": 0}[kind]
    assert len(calls) == want
    if kind == "trimap":
        assert reading == 3
