"""Minibatch construction: positive edges, uniform negatives, mid-near and
label-positive sets, plus the annealed mid-near weight schedule.

Negatives are drawn uniformly from all non-anchor samples and deliberately
NOT filtered against the positive set; a sampled negative may coincide with
a true neighbor (collision probability O(k/N)).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import SamplingError
from .neighbor_graph import NeighborGraph

DEFAULT_M = 5
DEFAULT_BATCH_SIZE = 1024
DEFAULT_MIDNEAR_POOL = 6
DEFAULT_N_MID = 2
DEFAULT_MAX_LABEL_POSITIVES = 16


@dataclass(frozen=True)
class ScheduleSpec:
    """Positive weight and the piecewise-linear mid-near weight over epochs.

    w_u(t) interpolates w_u_init -> w_u_final over the first
    anneal_fraction of the epochs and stays at w_u_final afterward.
    """

    w_p: float = 1.0
    w_u_init: float = 1.0
    w_u_final: float = 0.0
    anneal_fraction: float = 0.5

    def __post_init__(self):
        if not self.w_p > 0:
            raise SamplingError("w_p must be positive")
        if self.w_u_init < 0 or self.w_u_final < 0:
            raise SamplingError("mid-near weights must be non-negative")
        if not 0.0 <= self.anneal_fraction <= 1.0:
            raise SamplingError("anneal_fraction must lie in [0, 1]")

    def w_u(self, epoch: int, n_epochs: int) -> float:
        t_anneal = self.anneal_fraction * n_epochs
        if t_anneal <= 0 or epoch >= t_anneal:
            return self.w_u_final
        return self.w_u_init + (self.w_u_final - self.w_u_init) * (epoch / t_anneal)


@dataclass(frozen=True, eq=False)
class LabelPositives(Sequence):
    """Per-anchor label-positive sets in CSR form: anchor r's set is
    positions[offsets[r]:offsets[r + 1]]. Positions index the batch's
    `anchors` (they are not dataset indices). Reads as a sequence of B arrays;
    each item is a view into `positions`."""

    positions: np.ndarray  # flat batch positions, anchor by anchor
    offsets: np.ndarray    # (B + 1,), offsets[0] == 0, offsets[-1] == len(positions)

    @classmethod
    def of(cls, sets) -> "LabelPositives":
        """`sets` itself when already in CSR form, else built once from B
        per-anchor sequences of batch positions."""
        if isinstance(sets, cls):
            return sets
        sets = [np.asarray(s, dtype=np.int64).ravel() for s in sets]
        offsets = np.zeros(len(sets) + 1, dtype=np.int64)
        np.cumsum([len(s) for s in sets], out=offsets[1:])
        return cls(np.concatenate(sets) if sets else offsets[:0], offsets)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, r):
        r = range(len(self))[r]
        return self.positions[self.offsets[r]:self.offsets[r + 1]]

    def __iter__(self):  # ~5x faster than the __getitem__ loop Sequence would use
        bounds = self.offsets.tolist()
        return (self.positions[a:b] for a, b in zip(bounds[:-1], bounds[1:]))


@dataclass
class PairBatch:
    """One minibatch of anchor-positive edges with sampled companion sets.

    label_positives holds, per anchor, positions into `anchors` (not dataset
    indices) of batch members sharing the anchor's label, stored as one
    LabelPositives (CSR). Per-anchor sequences assigned to it are converted
    once.
    """

    anchors: np.ndarray            # (B,)
    positives: np.ndarray          # (B,)
    negatives: np.ndarray          # (B, m)
    midnears: np.ndarray | None = None                 # (B, n_mid)
    label_positives: LabelPositives | None = None      # B sets of batch positions

    def __setattr__(self, name, value):
        if name == "label_positives" and value is not None:
            value = LabelPositives.of(value)
        super().__setattr__(name, value)

    @property
    def size(self) -> int:
        return len(self.anchors)

    @property
    def m(self) -> int:
        return self.negatives.shape[1]

    def all_indices(self):
        parts = [self.anchors, self.positives, self.negatives.ravel()]
        if self.midnears is not None:
            parts.append(self.midnears.ravel())
        # Sort-based: np.unique hashes integers, ~5x slower at batch sizes.
        flat = np.sort(np.concatenate(parts))
        return flat[np.concatenate(([True], flat[1:] != flat[:-1]))]

    def remap(self, index) -> "PairBatch":
        """This batch with each sample index replaced by its position in the
        sorted array `index`, which must hold them all (e.g. all_indices()).
        label_positives are batch positions and carry over unchanged."""
        def pos(a):
            return None if a is None else np.searchsorted(index, a)
        return PairBatch(pos(self.anchors), pos(self.positives), pos(self.negatives),
                         pos(self.midnears), self.label_positives)


def _uniform_non_anchor(anchors, n, size, rng):
    # Uniform over {0..n-1} \ {anchor}: draw from n-1 slots and skip the anchor.
    raw = rng.integers(0, n - 1, size=size)
    return raw + (raw >= anchors)


def sample_edge_batch(graph: NeighborGraph, batch_size: int, m: int, rng) -> PairBatch:
    """Draw batch_size edges uniformly with replacement, random orientation,
    plus m uniform non-anchor negatives per edge."""
    if batch_size < 1 or m < 1:
        raise SamplingError("batch_size and m must be >= 1")
    if graph.n_edges == 0:
        raise SamplingError("cannot sample from an empty graph")
    picks = rng.integers(0, graph.n_edges, size=batch_size)
    flip = rng.random(batch_size) < 0.5
    edges = graph.edges[picks]
    anchors = np.where(flip, edges[:, 1], edges[:, 0])
    positives = np.where(flip, edges[:, 0], edges[:, 1])
    negatives = _uniform_non_anchor(anchors[:, None], graph.n, (batch_size, m), rng)
    return PairBatch(anchors=anchors, positives=positives, negatives=negatives)


def sample_midnears(data: Dataset, anchors, rng, pool: int = DEFAULT_MIDNEAR_POOL,
                    n_mid: int = DEFAULT_N_MID):
    """Vectorized mid-near sampling: n_mid independent draws per anchor,
    each the second-nearest of a fresh pool of `pool` distinct candidates."""
    n = data.n
    if pool < 2:
        raise SamplingError("pool must be >= 2")
    if n <= pool:
        raise SamplingError(f"need N > pool, got N={n}, pool={pool}")
    anchors = np.asarray(anchors)
    b = len(anchors)
    rep = np.repeat(anchors, n_mid)
    # Rejection sampling: redraw rows until all pool candidates are distinct.
    # Rows are kept sorted (ascending index, so the stable sort below breaks
    # distance ties low); only redrawn rows are sorted again.
    cand = np.sort((rep[:, None] + rng.integers(1, n, size=(b * n_mid, pool))) % n, axis=1)
    rows = np.flatnonzero((cand[:, 1:] == cand[:, :-1]).any(axis=1))
    while len(rows):
        redraw = rep[rows, None] + rng.integers(1, n, size=(len(rows), pool))
        cand[rows] = np.sort(redraw % n, axis=1)
        rows = rows[(cand[rows, 1:] == cand[rows, :-1]).any(axis=1)]
    diff = data.points.take(cand, axis=0) - data.points.take(rep, axis=0)[:, None, :]
    d2 = np.einsum("bpd,bpd->bp", diff, diff)
    order = np.argsort(d2, axis=1, kind="stable")
    second = cand[np.arange(b * n_mid), order[:, 1]]
    return second.reshape(b, n_mid)


def _distinct_draws(high, k, rng):
    """(len(high), k) draws, row r a uniform random k-subset of [0, high[r])
    in random order (needs k <= high[r]). Each repeat of a value already in
    its row is redrawn until no row has one. Which entries are redrawn depends
    only on which are equal, never on their values, so the subsets stay
    uniform; unlike redrawing whole rows, this stays fast when k is close to
    high[r]."""
    out = rng.integers(0, high[:, None], size=(len(high), k))
    rows = np.arange(len(high))
    while len(rows):
        # value * k + column: equal values sort next to each other, first
        # column first; every later one is redrawn.
        srt = np.sort(out[rows] * k + np.arange(k), axis=1)
        r, c = np.nonzero(srt[:, 1:] // k == srt[:, :-1] // k)
        out[rows[r], srt[r, c + 1] % k] = rng.integers(0, high[rows[r]])
        rows = np.unique(rows[r])
    return out


def attach_label_positives(batch: PairBatch, labels, max_per_anchor=None,
                           rng=None) -> PairBatch:
    """Fill batch.label_positives (CSR, positions into the batch) from the
    dataset labels: each anchor gets the other anchors sharing its label.

    With max_per_anchor set, an anchor whose label group has more than that
    many others keeps a uniform random subset of exactly max_per_anchor of
    them, in random order; the per-anchor average over the label-positive set
    is estimated from the subset. Otherwise the set lists the others in batch
    order. Work and memory are O(B * cap), or O(B * largest set) without a
    cap; there is no loop over anchors or labels.
    """
    if max_per_anchor is not None and max_per_anchor < 1:
        raise SamplingError(f"max_per_anchor must be >= 1, got {max_per_anchor}")
    if max_per_anchor is not None and rng is None:
        raise SamplingError("capped label positives need a generator")
    lab = np.asarray(labels)[batch.anchors]
    b = len(lab)
    # Anchors grouped by label, ascending position within each group.
    order = np.argsort(lab, kind="stable")
    srt = lab[order]
    first = np.ones(b, dtype=bool)
    first[1:] = srt[1:] != srt[:-1]
    starts = np.flatnonzero(first)
    slot = np.empty(b, dtype=np.int64)     # per anchor: its index in `order`
    slot[order] = np.arange(b)
    group = (np.cumsum(first) - 1)[slot]
    start = starts[group]                  # per anchor: its group's first slot
    rank = slot - start                    # per anchor: its rank within the group
    others = np.diff(np.append(starts, b))[group] - 1
    sizes = others if max_per_anchor is None else np.minimum(others, max_per_anchor)
    # Offsets into the anchor's others (its own slot skipped below): all of
    # them in order, or a uniform draw where the group exceeds the cap.
    width = int(sizes.max()) if b else 0
    pick = np.tile(np.arange(width), (b, 1))
    drawn = others > sizes
    if drawn.any():
        pick[drawn] = _distinct_draws(others[drawn], width, rng)
    pick += pick >= rank[:, None]
    valid = np.arange(width) < sizes[:, None]
    offsets = np.zeros(b + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    batch.label_positives = LabelPositives(order[(start[:, None] + pick)[valid]], offsets)
    return batch


@dataclass
class Sampler:
    """Deterministic batch stream over a neighbor graph.

    Owns one seeded generator; the batch sequence is a pure function of the
    seed and the construction arguments.
    """

    graph: NeighborGraph
    data: Dataset | None = None
    batch_size: int = DEFAULT_BATCH_SIZE
    m: int = DEFAULT_M
    pool: int = DEFAULT_MIDNEAR_POOL
    n_mid: int = DEFAULT_N_MID
    seed: int = 0
    need_midnears: bool = False
    need_labels: bool = False
    max_label_positives: int | None = DEFAULT_MAX_LABEL_POSITIVES
    rng: np.random.Generator = field(init=False)

    def __post_init__(self):
        if self.need_midnears and self.data is None:
            raise SamplingError("mid-near sampling requires the dataset")
        if self.need_labels and (self.data is None or self.data.labels is None):
            raise SamplingError("label positives require a labeled dataset")
        if self.max_label_positives is not None and self.max_label_positives < 1:
            raise SamplingError("max_label_positives must be >= 1 (or None for no cap)")
        self.rng = np.random.default_rng(self.seed)

    def next_batch(self) -> PairBatch:
        batch = sample_edge_batch(self.graph, self.batch_size, self.m, self.rng)
        if self.need_midnears:
            batch.midnears = sample_midnears(
                self.data, batch.anchors, self.rng, pool=self.pool, n_mid=self.n_mid
            )
        if self.need_labels:
            attach_label_positives(batch, self.data.labels,
                                   max_per_anchor=self.max_label_positives,
                                   rng=self.rng)
        return batch


def random_batch(n: int, batch_size: int, m: int, rng, n_mid: int = DEFAULT_N_MID,
                 labels=None) -> PairBatch:
    """Synthetic batch over n abstract samples, for gradient checks."""
    anchors = rng.integers(0, n, size=batch_size)
    positives = _uniform_non_anchor(anchors, n, batch_size, rng)
    negatives = _uniform_non_anchor(anchors[:, None], n, (batch_size, m), rng)
    midnears = _uniform_non_anchor(anchors[:, None], n, (batch_size, n_mid), rng)
    batch = PairBatch(anchors=anchors, positives=positives,
                      negatives=negatives, midnears=midnears)
    if labels is not None:
        attach_label_positives(batch, labels)
    return batch
