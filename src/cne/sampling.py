"""Minibatch construction: positive edges, uniform negatives, mid-near and
label-positive sets.

Negatives are drawn uniformly from all non-anchor samples and deliberately
NOT filtered against the positive set; a sampled negative may coincide with
a true neighbor (collision probability O(k/N)).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import neighbor_graph
from .data import Dataset
from .errors import SamplingError
from .neighbor_graph import NeighborGraph

DEFAULT_M = 5
DEFAULT_BATCH_SIZE = 1024
DEFAULT_MIDNEAR_POOL = 6
DEFAULT_N_MID = 2
DEFAULT_MAX_LABEL_POSITIVES = 16


@dataclass(frozen=True, eq=False)
class LabelPositives(Sequence):
    """Per-anchor label-positive sets in CSR form: anchor r's set is
    positions[offsets[r]:offsets[r + 1]]. Positions index the batch's
    `anchors` (they are not dataset indices). Reads as a sequence of B arrays;
    each item is a view into `positions`."""

    positions: np.ndarray  # flat batch positions, anchor by anchor
    offsets: np.ndarray    # (B + 1,), offsets[0] == 0, offsets[-1] == len(positions)

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
    LabelPositives (CSR).
    """

    anchors: np.ndarray            # (B,)
    positives: np.ndarray          # (B,)
    negatives: np.ndarray          # (B, m)
    midnears: np.ndarray | None = None                 # (B, n_mid)
    label_positives: LabelPositives | None = None      # B sets of batch positions

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
        label_positives are batch positions and carry over unchanged. Raises
        SamplingError when `index` lacks a batch index."""
        lut = np.full(np.max(index, initial=-1) + 2, -1, np.intp)  # -1: not in index
        lut[index] = np.arange(len(index))

        def pos(a):
            out = None if a is None else lut.take(a, mode="clip")  # above max(index): -1
            if out is not None and out.size and (a.min() < 0 or out.min() < 0):
                raise SamplingError("remap: index does not hold every batch index")
            return out
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
    edges = graph.edges.take(picks, axis=0)
    anchors = np.where(flip, edges[:, 1], edges[:, 0])
    positives = np.where(flip, edges[:, 0], edges[:, 1])
    negatives = _uniform_non_anchor(anchors[:, None], graph.n, (batch_size, m), rng)
    return PairBatch(anchors=anchors, positives=positives, negatives=negatives)


def _repeats(cand):
    """Rows of `cand` holding a value twice, by comparing each pair of columns."""
    out = np.zeros(len(cand), dtype=bool)
    for a, c in combinations(cand.T.copy(), 2):
        out |= a == c
    return out


def sample_midnears(data: Dataset, anchors, rng, pool: int = DEFAULT_MIDNEAR_POOL,
                    n_mid: int = DEFAULT_N_MID):
    """Vectorized mid-near sampling: n_mid independent draws per anchor,
    each the second-nearest of a fresh pool of `pool` distinct candidates
    (a pool with a repeat is redrawn whole) in (squared distance, index)
    order: ties, infinite distances included, go to the smaller index.
    The candidates' rows are gathered a chunk of anchors at a time, within a
    quarter of :data:`~cne.neighbor_graph.BLOCK_BYTES`, so memory does not
    grow with the batch size times the dimension."""
    n = data.n
    if pool < 2:
        raise SamplingError("pool must be >= 2")
    if n <= pool:
        raise SamplingError(f"need N > pool, got N={n}, pool={pool}")
    anchors = np.asarray(anchors)
    b = len(anchors)
    rep = np.repeat(anchors, n_mid)
    cand = (rep[:, None] + rng.integers(1, n, size=(b * n_mid, pool))) % n
    rows = np.flatnonzero(_repeats(cand))
    while len(rows):
        cand[rows] = (rep[rows, None] + rng.integers(1, n, size=(len(rows), pool))) % n
        rows = rows[_repeats(cand[rows])]
    # Pool members as rows, draws as columns: the reductions run across rows.
    d2 = np.empty((pool, b * n_mid))
    anchor_bytes = max(1, n_mid * pool * data.dim * 8)  # 0 only when n_mid is 0
    step = max(1, neighbor_graph.BLOCK_BYTES // 4 // anchor_bytes)  # anchors a chunk
    for lo in range(0, b, step):
        hi = min(lo + step, b)
        draws = slice(lo * n_mid, hi * n_mid)
        diff = data.points.take(cand[draws], axis=0)
        rel = diff.reshape(hi - lo, n_mid * pool, data.dim)  # a view; each anchor's row gathered once
        rel -= data.points.take(anchors[lo:hi], axis=0)[:, None, :]
        d2[:, draws] = np.einsum("bpd,bpd->bp", diff, diff).T
        del diff, rel  # before the next chunk is gathered
    cand = cand.T
    first = np.where(d2 == d2.min(axis=0), cand, n).min(axis=0)
    taken = cand == first
    d2[taken] = np.inf
    cand = np.where(taken, n, cand)  # n: never the second pick
    return np.where(d2 == d2.min(axis=0), cand, n).min(axis=0).reshape(b, n_mid)


def attach_label_positives(batch: PairBatch, labels, rng,
                           max_per_anchor=DEFAULT_MAX_LABEL_POSITIVES) -> PairBatch:
    """Fill batch.label_positives (CSR, positions into the batch) from the
    dataset labels: each anchor gets up to `max_per_anchor` of the other
    anchors sharing its label.

    Each label group is put in one uniformly random cyclic order, and an
    anchor keeps the min(cap, others) members that follow it there: a uniform
    random subset of its others, in random order, and each member lies in as
    many sets as it holds. The per-anchor average over the label-positive set
    is estimated from the subset. Work and memory are O(B * cap); there is no
    loop over anchors or labels.
    """
    if max_per_anchor < 1:
        raise SamplingError(f"max_per_anchor must be >= 1, got {max_per_anchor}")
    lab = np.asarray(labels)[batch.anchors]
    b = len(lab)
    # Anchors grouped by label, in uniformly random order within each group.
    order = rng.permutation(b)
    order = order[np.argsort(lab[order], kind="stable")]
    srt = lab[order]
    first = np.ones(b, dtype=bool)
    first[1:] = srt[1:] != srt[:-1]
    starts = np.flatnonzero(first)
    slot = np.empty(b, dtype=np.int64)     # per anchor: its index in `order`
    slot[order] = np.arange(b)
    group = (np.cumsum(first) - 1)[slot]
    start = starts[group]                  # per anchor: its group's first slot
    rank = slot - start                    # per anchor: its rank within the group
    members = np.diff(np.append(starts, b))[group]  # per anchor: its group's size
    sizes = np.minimum(members - 1, max_per_anchor)
    # Each anchor's picks, as ranks within its group: the ones that follow it cyclically.
    t = np.arange(int(sizes.max()) if b else 0)
    pick = (rank[:, None] + 1 + t) % members[:, None]
    valid = t < sizes[:, None]
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
    seed: int = 0
    need_labels: bool = False
    rng: np.random.Generator = field(init=False)

    def __post_init__(self):
        if self.need_labels and (self.data is None or self.data.labels is None):
            raise SamplingError("label positives require a labeled dataset")
        self.rng = np.random.default_rng(self.seed)

    def next_batch(self, midnears: bool = False) -> PairBatch:
        """The next batch, with mid-nears only when `midnears` is set: without
        them the generator draws none, for steps whose loss does not read them."""
        if midnears and self.data is None:
            raise SamplingError("mid-near sampling requires the dataset")
        batch = sample_edge_batch(self.graph, self.batch_size, self.m, self.rng)
        if midnears:
            batch.midnears = sample_midnears(self.data, batch.anchors, self.rng)
        if self.need_labels:
            attach_label_positives(batch, self.data.labels, self.rng)
        return batch


def random_batch(n: int, batch_size: int, m: int, rng, labels=None) -> PairBatch:
    """Synthetic batch over n abstract samples, for gradient checks."""
    anchors = rng.integers(0, n, size=batch_size)
    positives = _uniform_non_anchor(anchors, n, batch_size, rng)
    negatives = _uniform_non_anchor(anchors[:, None], n, (batch_size, m), rng)
    midnears = _uniform_non_anchor(anchors[:, None], n, (batch_size, DEFAULT_N_MID), rng)
    batch = PairBatch(anchors=anchors, positives=positives,
                      negatives=negatives, midnears=midnears)
    if labels is not None:
        attach_label_positives(batch, labels, rng)
    return batch
