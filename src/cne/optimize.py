"""Training: non-parametric (coordinates are the parameters) and
parametric (a small MLP encoder maps inputs to embeddings).

Both run one loop, plain SGD with momentum and a constant learning rate;
with momentum 0 one step moves the parameters by exactly -lr * gradient.
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Embedding
from .errors import CneError, ConfigError, DivergenceError, LossNumericsError
from .losses import LossSpec, evaluate
from .neighbor_graph import NeighborGraph
from .sampling import DEFAULT_BATCH_SIZE, DEFAULT_MAX_LABEL_POSITIVES, DEFAULT_N_MID, Sampler

PCA_INIT_SCALE = 1e-2
HIDDEN_SIZES = (64, 64)
ENCODER_MAGIC = b"CNEENC01"
MODES = ("nonparametric", "parametric")
# A step's draw and loss peak near 13x its index bytes (supcon and tscne;
# the mid-near draw adds at most BLOCK_BYTES / 4, whatever the input
# dimension): about 0.9 GB here, under 3 MB at the default batch.
MAX_BATCH_BYTES = 64 << 20


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
            raise ConfigError("epochs must be >= 1")
        if not 0 <= self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be >= 0 and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if not 0 <= self.grad_clip < math.inf:
            raise ConfigError("grad_clip must be >= 0 and finite")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.embedding_dim < 1:
            raise ConfigError("embedding_dim must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; choose from {MODES}")


def pca_init(points, d: int, scale: float = PCA_INIT_SCALE):
    """Project onto the top-d principal directions and rescale each output
    dimension to standard deviation `scale`. Sign-fixed so the result is a
    pure function of the input. Centred data has rank at most min(D, N - 1),
    so PCA supplies at most that many columns."""
    x = points - points.mean(axis=0)
    supplied = min(x.shape[1], x.shape[0] - 1)
    if d > supplied:
        raise CneError(f"embedding dimension {d} exceeds the {supplied} columns PCA can supply")
    _, _, vt = np.linalg.svd(x, full_matrices=False)
    comps = vt[:d]
    for r in range(comps.shape[0]):
        lead = np.argmax(np.abs(comps[r]))
        if comps[r, lead] < 0:
            comps[r] = -comps[r]
    z = x @ comps.T
    sd = z.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    return z * (scale / sd)


def check_labels(data: Dataset, spec: LossSpec) -> None:
    """Raise ConfigError unless `data` can train `spec`: a supervised loss needs
    labels with at least two classes."""
    if spec.supervised:
        if data.labels is None:
            raise ConfigError(f"loss {spec.kind!r} requires labels")
        if len(np.unique(data.labels)) < 2:
            raise ConfigError(f"loss {spec.kind!r} requires at least two classes")


def check_batch_shape(spec: LossSpec, cfg: OptimConfig) -> None:
    """Raise ConfigError when a batch's sample indices exceed MAX_BATCH_BYTES,
    or its coordinates twice that, the same bound at two dimensions. The
    coordinates of a parametric step include the encoder's output layer."""
    # edge, negatives, mid-nears and, for a supervised loss, label positives
    per_anchor = spec.m + 2 + DEFAULT_N_MID + DEFAULT_MAX_LABEL_POSITIVES * spec.supervised
    need = cfg.batch_size * per_anchor * 8
    if need > MAX_BATCH_BYTES:
        raise ConfigError(f"batch_size {cfg.batch_size} with m {spec.m} needs {need} bytes "
                          f"of batch indices, over the {MAX_BATCH_BYTES} allowed")
    rows = max(cfg.batch_size * per_anchor, HIDDEN_SIZES[-1] * (cfg.mode == "parametric"))
    need = rows * cfg.embedding_dim * 8
    if need > 2 * MAX_BATCH_BYTES:
        raise ConfigError(f"embedding_dim {cfg.embedding_dim} needs {need} bytes of coordinates "
                          f"per {cfg.mode} step, over the {2 * MAX_BATCH_BYTES} allowed")


def _sgd(data, graph, spec, cfg, params, what, forward):
    """The training loop of both modes: SGD with momentum on the arrays
    `params`, updated in place. Returns the training log.

    forward(batch) returns (batch, coords, backward): the batch in the row
    space of `coords`, the coordinates the loss sees, and a function from the
    clipped loss gradient on those coordinates to one gradient per array of
    `params`.
    """
    check_labels(data, spec)
    check_batch_shape(spec, cfg)
    sampler = Sampler(graph=graph, data=data, batch_size=cfg.batch_size, m=spec.m,
                      seed=cfg.seed, need_labels=spec.supervised)
    velocity = [np.zeros_like(p) for p in params]
    steps = max(1, -(-graph.n_edges // cfg.batch_size))
    log = []
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        epoch_loss = 0.0
        w_u = spec.w_u(epoch, cfg.epochs)
        for step in range(steps):
            # Mid-nears are drawn only in the epochs whose loss reads them.
            batch, coords, backward = forward(sampler.next_batch(midnears=w_u != 0))
            try:
                lg = evaluate(spec, batch, coords, epoch, cfg.epochs)
            except LossNumericsError as exc:
                raise DivergenceError(epoch, step, what=f"{spec.kind} loss") from exc
            epoch_loss += lg.value
            if cfg.grad_clip > 0:
                np.clip(lg.grad, -cfg.grad_clip, cfg.grad_clip, out=lg.grad)
            for p, v, g in zip(params, velocity, backward(lg.grad)):
                v *= cfg.momentum
                v -= cfg.learning_rate * g
                p += v
            if not all(np.all(np.isfinite(p)) for p in params):
                raise DivergenceError(epoch, step, what)
        log.append({
            "epoch": epoch,
            "mean_loss": epoch_loss / steps,
            "wall_ms": (time.perf_counter() - t0) * 1e3,
            "w_u": w_u,
        })
    return log


def fit_nonparametric(data: Dataset, graph: NeighborGraph, spec: LossSpec,
                      cfg: OptimConfig):
    """Optimize free embedding coordinates; returns (Embedding, training log)."""
    coords = pca_init(data.points, cfg.embedding_dim)
    log = _sgd(data, graph, spec, cfg, [coords], "coordinates",
               lambda batch: (batch, coords, lambda grad: [grad]))
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

    def forward(self, x):
        return self._layers(x)[-1]

    def forward_cached(self, x):
        cache = self._layers(x)
        return cache[-1], cache

    def _layers(self, x):
        """[input, each layer's output]; the last entry is the embedding."""
        h = [np.asarray(x, dtype=np.float64)]
        last = len(self.weights) - 1
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            out = h[-1] @ w.T
            out += b
            h.append(np.maximum(out, 0.0, out=out) if layer < last else out)
        return h

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
            raw = fh.read()
        at = len(ENCODER_MAGIC)
        if raw[:at] != ENCODER_MAGIC:
            raise CneError(f"{path}: not an encoder checkpoint")

        def take(n: int) -> bytes:  # the next n bytes, which the file must hold
            nonlocal at
            if len(raw) - at < n:
                raise CneError(f"{path}: encoder checkpoint truncated at {len(raw)} bytes")
            at += n
            return raw[at - n:at]

        (n_sizes,) = struct.unpack("<I", take(4))
        sizes = struct.unpack(f"<{n_sizes}I", take(4 * n_sizes))
        if n_sizes < 2 or 0 in sizes:
            raise CneError(f"{path}: encoder layer sizes {sizes} need two or more, none 0")
        enc = cls.__new__(cls)
        enc.sizes = tuple(sizes)
        enc.weights = []
        enc.biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            w = np.frombuffer(take(8 * fan_out * fan_in), dtype="<f8")
            enc.weights.append(w.reshape(fan_out, fan_in).copy())
            enc.biases.append(np.frombuffer(take(8 * fan_out), dtype="<f8").copy())
        if at != len(raw):
            raise CneError(f"{path}: {len(raw) - at} bytes after the last bias vector")
        return enc


def fit_parametric(data: Dataset, graph: NeighborGraph, spec: LossSpec,
                   cfg: OptimConfig):
    """Train an encoder end to end; returns (Encoder, Embedding, training log)."""
    enc = Encoder(data.dim, cfg.embedding_dim, seed=cfg.seed)

    def forward(batch):
        # Evaluate in the batch's compact row space: row r of z is sample uniq[r].
        uniq = batch.all_indices()
        z, cache = enc.forward_cached(data.points[uniq])

        def backward(dz):
            grads_w, grads_b = enc.backward(cache, dz)
            return grads_w + grads_b
        return batch.remap(uniq), z, backward

    log = _sgd(data, graph, spec, cfg, enc.weights + enc.biases, "weights", forward)
    return enc, Embedding(enc.forward(data.points)), log


def transform(encoder: Encoder, points) -> Embedding:
    """Pure forward pass through a trained encoder."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != encoder.sizes[0]:
        raise CneError(
            f"expected points of dimension {encoder.sizes[0]}, got shape {points.shape}"
        )
    return Embedding(encoder.forward(points))
