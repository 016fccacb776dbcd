"""Training loops: non-parametric (coordinates are the parameters) and
parametric (a small MLP encoder maps inputs to embeddings).

Both use plain SGD with momentum and a constant learning rate; with
momentum 0 one step moves the parameters by exactly -lr * gradient.
"""

from __future__ import annotations

import struct
import time
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, Embedding
from .errors import CneError, DivergenceError
from .losses import MIDNEAR_KINDS, LossSpec, evaluate
from .neighbor_graph import NeighborGraph
from .sampling import DEFAULT_BATCH_SIZE, Sampler

PCA_INIT_SCALE = 1e-2
HIDDEN_SIZES = (64, 64)
ENCODER_MAGIC = b"CNEENC01"
MODES = ("nonparametric", "parametric")


@dataclass
class OptimConfig:
    epochs: int = 250
    learning_rate: float = 1.0
    momentum: float = 0.9
    batch_size: int = DEFAULT_BATCH_SIZE
    seed: int = 0
    mode: str = "nonparametric"
    embedding_dim: int = 2
    # Element-wise bound on the per-sample loss gradient before the momentum
    # update. The repulsive terms grow like 1/d^2 near coincident points, so
    # without a bound the first steps from a tight initialization blow the
    # layout apart. 0 disables clipping.
    grad_clip: float = 0.05

    def __post_init__(self):
        if self.epochs < 1:
            raise CneError("epochs must be >= 1")
        if self.learning_rate < 0:
            raise CneError("learning_rate must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise CneError("momentum must lie in [0, 1)")
        if self.grad_clip < 0:
            raise CneError("grad_clip must be >= 0")
        if self.batch_size < 1:
            raise CneError("batch_size must be >= 1")
        if self.embedding_dim < 1:
            raise CneError("embedding_dim must be >= 1")
        if self.mode not in MODES:
            raise CneError(f"unknown mode {self.mode!r}; choose from {MODES}")

    def to_dict(self) -> dict:
        return asdict(self)


def pca_init(points, d: int, scale: float = PCA_INIT_SCALE):
    """Project onto the top-d principal directions and rescale each output
    dimension to standard deviation `scale`. Sign-fixed so the result is a
    pure function of the input."""
    x = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(x, full_matrices=False)
    comps = vt[: min(d, vt.shape[0])]
    for r in range(comps.shape[0]):
        lead = np.argmax(np.abs(comps[r]))
        if comps[r, lead] < 0:
            comps[r] = -comps[r]
    z = x @ comps.T
    if z.shape[1] < d:
        z = np.pad(z, ((0, 0), (0, d - z.shape[1])))
    sd = z.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    return z * (scale / sd)


def _make_sampler(data, graph, spec, cfg) -> Sampler:
    return Sampler(
        graph=graph,
        data=data,
        batch_size=cfg.batch_size,
        m=spec.m,
        seed=cfg.seed,
        need_midnears=spec.kind in MIDNEAR_KINDS,
        need_labels=spec.supervised,
    )


def _check_supervised(data, spec):
    if spec.supervised:
        if data.labels is None:
            raise CneError(f"loss {spec.kind!r} requires labels")
        if len(np.unique(data.labels)) < 2:
            raise CneError(f"loss {spec.kind!r} requires at least two classes")


def fit_nonparametric(data: Dataset, graph: NeighborGraph, spec: LossSpec,
                      cfg: OptimConfig):
    """Optimize free embedding coordinates; returns (Embedding, training log)."""
    _check_supervised(data, spec)
    coords = pca_init(data.points, cfg.embedding_dim)
    velocity = np.zeros_like(coords)
    sampler = _make_sampler(data, graph, spec, cfg)
    steps = max(1, -(-graph.n_edges // cfg.batch_size))
    log = []
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        epoch_loss = 0.0
        for step in range(steps):
            batch = sampler.next_batch()
            lg = evaluate(spec, batch, coords, epoch, cfg.epochs)
            epoch_loss += lg.value
            grad = lg.grad
            if cfg.grad_clip > 0:
                np.clip(grad, -cfg.grad_clip, cfg.grad_clip, out=grad)
            velocity = cfg.momentum * velocity - cfg.learning_rate * grad
            coords = coords + velocity
            if not np.all(np.isfinite(coords)):
                raise DivergenceError(epoch, step)
        log.append({
            "epoch": epoch,
            "mean_loss": epoch_loss / steps,
            "wall_ms": (time.perf_counter() - t0) * 1e3,
            "w_u": spec.schedule.w_u(epoch, cfg.epochs),
        })
    return Embedding(coords), log


class Encoder:
    """Fully-connected network [D, 64, 64, d], rectifier hidden activations,
    identity output. Weights initialized uniform in +-1/sqrt(fan_in)."""

    def __init__(self, in_dim: int, out_dim: int, seed: int = 0,
                 hidden=HIDDEN_SIZES):
        self.sizes = (in_dim, *hidden, out_dim)
        rng = np.random.default_rng(seed)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            self.biases.append(rng.uniform(-bound, bound, size=fan_out))

    @property
    def in_dim(self) -> int:
        return self.sizes[0]

    @property
    def out_dim(self) -> int:
        return self.sizes[-1]

    def forward(self, x):
        h = np.asarray(x, dtype=np.float64)
        last = len(self.weights) - 1
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w.T + b
            if layer < last:
                h = np.maximum(h, 0.0)
        return h

    def forward_cached(self, x):
        h = np.asarray(x, dtype=np.float64)
        cache = [h]
        last = len(self.weights) - 1
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w.T + b
            if layer < last:
                h = np.maximum(h, 0.0)
            cache.append(h)
        return h, cache

    def backward(self, cache, d_out):
        """Gradients of a scalar loss w.r.t. weights and biases, given the
        loss gradient on the output rows."""
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.weights)
        delta = np.asarray(d_out, dtype=np.float64)
        for layer in range(len(self.weights) - 1, -1, -1):
            inp = cache[layer]
            grads_w[layer] = delta.T @ inp
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights[layer]) * (cache[layer] > 0.0)
        return grads_w, grads_b

    def save(self, path) -> None:
        """Checkpoint: magic, uint32 layer count, uint32 sizes, then per layer
        the row-major weight matrix and bias vector as little-endian float64."""
        with open(path, "wb") as fh:
            fh.write(ENCODER_MAGIC)
            fh.write(struct.pack("<I", len(self.sizes)))
            fh.write(struct.pack(f"<{len(self.sizes)}I", *self.sizes))
            for w, b in zip(self.weights, self.biases):
                fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
                fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "Encoder":
        with open(path, "rb") as fh:
            if fh.read(len(ENCODER_MAGIC)) != ENCODER_MAGIC:
                raise CneError(f"{path}: not an encoder checkpoint")
            (n_sizes,) = struct.unpack("<I", fh.read(4))
            sizes = struct.unpack(f"<{n_sizes}I", fh.read(4 * n_sizes))
            enc = cls.__new__(cls)
            enc.sizes = tuple(sizes)
            enc.weights = []
            enc.biases = []
            for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
                w = np.frombuffer(fh.read(8 * fan_out * fan_in), dtype="<f8")
                enc.weights.append(w.reshape(fan_out, fan_in).copy())
                b = np.frombuffer(fh.read(8 * fan_out), dtype="<f8")
                enc.biases.append(b.copy())
            return enc


def fit_parametric(data: Dataset, graph: NeighborGraph, spec: LossSpec,
                   cfg: OptimConfig):
    """Train an encoder end to end; returns (Encoder, Embedding, training log)."""
    _check_supervised(data, spec)
    enc = Encoder(data.dim, cfg.embedding_dim, seed=cfg.seed)
    vel_w = [np.zeros_like(w) for w in enc.weights]
    vel_b = [np.zeros_like(b) for b in enc.biases]
    sampler = _make_sampler(data, graph, spec, cfg)
    steps = max(1, -(-graph.n_edges // cfg.batch_size))
    log = []
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        epoch_loss = 0.0
        for step in range(steps):
            batch = sampler.next_batch()
            uniq = batch.all_indices()
            z, cache = enc.forward_cached(data.points[uniq])
            # Evaluate in the batch's compact row space: row r of z is sample uniq[r].
            lg = evaluate(spec, batch.remap(uniq), z, epoch, cfg.epochs)
            epoch_loss += lg.value
            dz = lg.grad
            if cfg.grad_clip > 0:
                np.clip(dz, -cfg.grad_clip, cfg.grad_clip, out=dz)
            grads_w, grads_b = enc.backward(cache, dz)
            for layer in range(len(enc.weights)):
                vel_w[layer] = cfg.momentum * vel_w[layer] - cfg.learning_rate * grads_w[layer]
                vel_b[layer] = cfg.momentum * vel_b[layer] - cfg.learning_rate * grads_b[layer]
                enc.weights[layer] = enc.weights[layer] + vel_w[layer]
                enc.biases[layer] = enc.biases[layer] + vel_b[layer]
                if not (np.all(np.isfinite(enc.weights[layer]))
                        and np.all(np.isfinite(enc.biases[layer]))):
                    raise DivergenceError(epoch, step, what="weights")
        log.append({
            "epoch": epoch,
            "mean_loss": epoch_loss / steps,
            "wall_ms": (time.perf_counter() - t0) * 1e3,
            "w_u": spec.schedule.w_u(epoch, cfg.epochs),
        })
    return enc, Embedding(enc.forward(data.points)), log


def transform(encoder: Encoder, points) -> Embedding:
    """Pure forward pass through a trained encoder."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != encoder.in_dim:
        raise CneError(
            f"expected points of dimension {encoder.in_dim}, got shape {points.shape}"
        )
    return Embedding(encoder.forward(points))
