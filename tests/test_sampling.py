"""Minibatch construction: edge sampling, negatives, mid-near pairs,
label-positive sets, and the annealed mid-near weight that decides when
mid-nears are drawn."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cne import (
    ConfigError, Dataset, LossSpec, PairBatch, Sampler, SamplingError, knn_graph,
    random_batch, sample_edge_batch, sample_midnears,
)
from cne import neighbor_graph
from cne.neighbor_graph import NeighborGraph
from cne.sampling import (
    DEFAULT_MAX_LABEL_POSITIVES, DEFAULT_N_MID, LabelPositives, attach_label_positives,
)


def sample_midnear(data, anchor, rng, pool=6):
    """Scalar oracle of sample_midnears: the second-nearest (to the anchor,
    in input space) of `pool` distinct uniformly drawn non-anchor
    candidates."""
    n = data.n
    if pool < 2:
        raise SamplingError("pool must be >= 2")
    if n <= pool:
        raise SamplingError(f"need N > pool, got N={n}, pool={pool}")
    raw = rng.choice(n - 1, size=pool, replace=False)
    return second_nearest(data, anchor, raw + (raw >= anchor))


def second_nearest(data, anchor, cand):
    """The oracle's selection rule: the second of the candidates in a stable
    sort by squared distance to the anchor, taken over the index-sorted
    candidates, so distance ties go to the smaller index."""
    cand = np.sort(cand)
    diff = data.points[cand] - data.points[anchor]
    d2 = np.einsum("pd,pd->p", diff, diff)
    order = np.argsort(d2, kind="stable")
    return int(cand[order[1]])


def midnears_by_oracle_rule(data, anchors, rng, pool, n_mid):
    """sample_midnears' draws, with rows redrawn whole while they repeat a
    candidate (found on sorted rows), each row resolved by second_nearest."""
    n = data.n
    rep = np.repeat(anchors, n_mid)
    cand = np.sort((rep[:, None] + rng.integers(1, n, size=(len(rep), pool))) % n, axis=1)
    rows = np.flatnonzero((cand[:, 1:] == cand[:, :-1]).any(axis=1))
    while len(rows):
        redraw = rep[rows, None] + rng.integers(1, n, size=(len(rows), pool))
        cand[rows] = np.sort(redraw % n, axis=1)
        rows = rows[(cand[rows, 1:] == cand[rows, :-1]).any(axis=1)]
    return np.array([second_nearest(data, a, c) for a, c in zip(rep, cand)]).reshape(-1, n_mid)


def label_positive_set(labels, batch, anchor: int):
    """Positions in `batch` sharing the label of batch[anchor], excluding anchor.

    `batch` holds dataset indices; `anchor` is a position into `batch`.
    """
    if labels is None:
        raise SamplingError("label_positive_set requires labels")
    batch = np.asarray(batch)
    lbl = labels[batch[anchor]]
    same = np.nonzero(labels[batch] == lbl)[0]
    return same[same != anchor]


def two_point_graph():
    return NeighborGraph(np.array([[0, 1]]), k=1, n=2)


def test_single_edge_batch():
    g = two_point_graph()
    rng = np.random.default_rng(0)
    batch = sample_edge_batch(g, batch_size=4, m=1, rng=rng)
    for a, p in zip(batch.anchors, batch.positives):
        assert {int(a), int(p)} == {0, 1}


def test_two_sample_negatives():
    g = two_point_graph()
    rng = np.random.default_rng(0)
    batch = sample_edge_batch(g, batch_size=16, m=1, rng=rng)
    assert np.array_equal(batch.negatives.ravel(), 1 - batch.anchors)


def test_negatives_never_equal_anchor():
    rng = np.random.default_rng(1)
    ds = Dataset(points=rng.normal(size=(50, 3)))
    g = knn_graph(ds, k=5)
    for _ in range(20):
        batch = sample_edge_batch(g, batch_size=64, m=7, rng=rng)
        assert batch.negatives.shape == (64, 7)
        assert (batch.negatives != batch.anchors[:, None]).all()
        for a, p in zip(batch.anchors, batch.positives):
            assert g.has_edge(int(a), int(p))


def test_empty_graph_rejected():
    g = NeighborGraph(np.empty((0, 2), dtype=np.int64), k=1, n=5)
    with pytest.raises(SamplingError):
        sample_edge_batch(g, batch_size=4, m=1, rng=np.random.default_rng(0))


def test_negative_sampling_uniform():
    # N=10: each of the 9 non-anchor indices should appear with frequency
    # 1/9 over many draws; tolerance +-0.01 absolute is ~8 sigma.
    g = NeighborGraph(np.array([[0, 1]]), k=1, n=10)
    rng = np.random.default_rng(2)
    counts = np.zeros(10)
    draws = 0
    for _ in range(100):
        batch = sample_edge_batch(g, batch_size=1000, m=1, rng=rng)
        sel = batch.anchors == 0
        np.add.at(counts, batch.negatives.ravel()[sel], 1)
        draws += int(sel.sum())
    freq = counts[1:] / draws
    assert np.all(np.abs(freq - 1.0 / 9.0) < 0.01)


def test_midnear_pool_of_two_returns_farther():
    pts = np.array([[0.0], [1.0], [2.0], [100.0]])
    ds = Dataset(points=pts)
    rng = np.random.default_rng(3)
    for _ in range(50):
        idx = sample_midnear(ds, anchor=0, rng=rng, pool=2)
        assert idx != 0
    mids = sample_midnears(ds, np.zeros(50, dtype=np.int64), rng, pool=2)
    assert (mids != 0).all()


def test_midnear_second_nearest_of_pool():
    # anchor at 0; any pool of 3 from {1, 2, 100-valued} returns the
    # middle-distance candidate.
    pts = np.array([[0.0], [1.0], [2.0], [100.0]])
    ds = Dataset(points=pts)
    rng = np.random.default_rng(4)
    seen = set()
    for _ in range(200):
        idx = sample_midnear(ds, anchor=0, rng=rng, pool=3)
        seen.add(idx)
        cand = {1, 2, 3}
        assert idx in cand
    # With pool=3 of 3 candidates the draw is always {1,2,3}; the
    # second-nearest to 0.0 is value 2.0 at index 2.
    assert seen == {2}
    mids = sample_midnears(ds, np.zeros(200, dtype=np.int64), rng, pool=3)
    assert set(mids.ravel().tolist()) == {2}


def test_midnear_requires_enough_samples():
    ds = Dataset(points=np.zeros((5, 1)))
    with pytest.raises(SamplingError):
        sample_midnear(ds, anchor=0, rng=np.random.default_rng(0), pool=6)
    with pytest.raises(SamplingError):
        sample_midnears(ds, np.array([0]), np.random.default_rng(0), pool=6)


def test_midnears_vectorized_matches_definition():
    rng = np.random.default_rng(5)
    ds = Dataset(points=rng.normal(size=(40, 3)))
    anchors = rng.integers(0, 40, size=64)
    mids = sample_midnears(ds, anchors, rng, pool=6, n_mid=2)
    assert mids.shape == (64, 2)
    assert (mids != anchors[:, None]).all()
    # Anchor 0 with five others at distances 1..5 and pools of 3: the
    # second-nearest has rank r with probability (r - 1)(5 - r) / 10, for
    # the scalar oracle and the vectorized sampler alike.
    ds = Dataset(points=np.arange(6.0)[:, None])
    expect = np.array([0, 0, 0.3, 0.4, 0.3, 0])
    draws = 4000
    oracle = [sample_midnear(ds, anchor=0, rng=rng, pool=3) for _ in range(draws)]
    vector = sample_midnears(ds, np.zeros(draws // 2, dtype=np.int64), rng, pool=3)
    sigma = np.sqrt(expect * (1 - expect) / draws)
    for got in (oracle, vector.ravel()):
        freq = np.bincount(got, minlength=6) / draws
        assert np.all(np.abs(freq - expect) <= 5 * sigma)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 8), st.integers(1, 25), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 30), st.sampled_from(["real", "rounded", "overflow"]),
       st.integers(0, 2**32 - 1), st.sampled_from([1, 1 << 10, neighbor_graph.BLOCK_BYTES]))
def test_midnears_match_the_oracle_rule(pool, extra, dim, n_mid, b, scale, seed, block_bytes):
    # Rounded points make distance ties; points scaled by 1e200 make every
    # squared distance between distinct points overflow to inf, so ties are
    # broken among infinities. The generator must be left where the oracle
    # rule's sampler leaves it. A budget of 1 B computes one anchor a chunk,
    # and 1 KiB up to 16, so most batches span several chunks.
    rng = np.random.default_rng(seed)
    n = pool + extra
    points = rng.normal(size=(n, dim))
    if scale != "real":
        points = np.round(points)
    if scale == "overflow":
        points *= 1e200
    ds = Dataset(points=points)
    anchors = rng.integers(0, n, size=b)
    got_rng, want_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    with mock.patch.object(neighbor_graph, "BLOCK_BYTES", block_bytes):
        got = sample_midnears(ds, anchors, got_rng, pool=pool, n_mid=n_mid)
    want = midnears_by_oracle_rule(ds, anchors, want_rng, pool, n_mid)
    assert got.shape == (b, n_mid) and np.array_equal(got, want)
    assert got_rng.random() == want_rng.random()


def test_midnear_memory_is_bounded_by_block_bytes():
    # The candidates' rows are gathered a chunk of anchors at a time: all at
    # once they would take 1024 x 2 x 6 x 784 x 8 B, about 77 MB.
    rng = np.random.default_rng(0)
    ds = Dataset(points=rng.normal(size=(200, 784)))
    anchors = rng.integers(0, 200, size=1024)
    tracemalloc.start()
    try:
        out = sample_midnears(ds, anchors, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 0.5 * neighbor_graph.BLOCK_BYTES


def test_label_positive_set():
    labels = np.array([0, 0, 1])
    batch = np.array([0, 1, 2])
    assert list(label_positive_set(labels, batch, 0)) == [1]
    assert list(label_positive_set(labels, batch, 2)) == []
    labels_all = np.array([4, 4, 4])
    assert sorted(label_positive_set(labels_all, batch, 1)) == [0, 2]


def test_attach_label_positives():
    batch = PairBatch(
        anchors=np.array([0, 1, 2, 3]),
        positives=np.array([1, 0, 3, 2]),
        negatives=np.array([[2], [3], [0], [1]]),
    )
    labels = np.array([0, 0, 0, 1])
    attach_label_positives(batch, labels, np.random.default_rng(0))
    assert sorted(batch.label_positives[0]) == [1, 2]
    assert sorted(batch.label_positives[1]) == [0, 2]
    assert list(batch.label_positives[3]) == []


def test_attach_label_positives_cap_is_uniform_subset():
    rng = np.random.default_rng(6)
    n = 40
    batch = PairBatch(
        anchors=np.arange(n),
        positives=np.roll(np.arange(n), 1),
        negatives=rng.integers(0, n, size=(n, 2)),
    )
    labels = np.zeros(n, dtype=np.int64)
    counts = np.zeros(n)
    trials = 400
    cap = 5
    for _ in range(trials):
        attach_label_positives(batch, labels, max_per_anchor=cap, rng=rng)
        assert all(len(s) == cap for s in batch.label_positives)
        np.add.at(counts, batch.label_positives[0], 1)
    assert counts[0] == 0  # anchor never selects itself
    freq = counts[1:] / trials
    expect = cap / (n - 1)
    sigma = np.sqrt(expect * (1 - expect) / trials)
    assert np.all(np.abs(freq - expect) < 5 * sigma)


def test_attach_label_positives_near_cap_subsets_are_uniform():
    # Groups just above the cap: every one of the C(5, 3) subsets of the
    # other members is equally likely, not only each single member.
    rng = np.random.default_rng(8)
    batch = PairBatch(anchors=np.arange(6), positives=np.zeros(6, dtype=np.int64),
                      negatives=np.zeros((6, 1), dtype=np.int64))
    labels = np.zeros(6, dtype=np.int64)
    counts: dict = {}
    trials = 2000
    for _ in range(trials):
        attach_label_positives(batch, labels, max_per_anchor=3, rng=rng)
        key = tuple(sorted(batch.label_positives[2]))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 10 and all(2 not in key for key in counts)
    expect = trials / 10
    sigma = np.sqrt(expect * (1 - 1 / 10))
    assert all(abs(c - expect) < 5 * sigma for c in counts.values())


def test_capped_label_positives_hold_each_member_cap_times():
    # Cyclic followers in one random order per group: in a group of more
    # than cap + 1 anchors each member is in exactly cap sets, none its own;
    # in a smaller group each is in all the others' sets.
    rng = np.random.default_rng(10)
    labels = np.array([0] * 9 + [1] * 4 + [2])
    batch = PairBatch(anchors=rng.permutation(len(labels)),
                      positives=np.zeros(len(labels), dtype=np.int64),
                      negatives=np.zeros((len(labels), 1), dtype=np.int64))
    group = labels[batch.anchors]
    cap = 4
    for _ in range(50):
        attach_label_positives(batch, labels, max_per_anchor=cap, rng=rng)
        lp = batch.label_positives
        held = np.bincount(lp.positions, minlength=batch.size)
        assert np.array_equal(held, np.select([group == 0, group == 1], [cap, 3], 0))
        assert all(r not in s for r, s in enumerate(lp))


def test_label_positive_cap_below_one_is_rejected():
    rng = np.random.default_rng(9)
    batch = PairBatch(anchors=np.arange(4), positives=np.zeros(4, dtype=np.int64),
                      negatives=np.zeros((4, 1), dtype=np.int64))
    labels = np.zeros(4, dtype=np.int64)
    for cap in (0, -1):
        with pytest.raises(SamplingError):
            attach_label_positives(batch, labels, max_per_anchor=cap, rng=rng)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 30), st.integers(1, DEFAULT_MAX_LABEL_POSITIVES + 1), st.integers(1, 4),
       st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_random_batch_label_positives_are_all_same_label_others(n, b, m, n_labels, seed):
    # Gradient checks rely on it: with at most DEFAULT_MAX_LABEL_POSITIVES + 1
    # anchors, the capped draw holds every same-label other of each anchor.
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_labels, size=n)
    batch = random_batch(n, b, m, rng, labels=labels)
    assert len(batch.label_positives) == b
    for r, s in enumerate(batch.label_positives):
        full = label_positive_set(labels, batch.anchors, r)
        assert len(s) == len(full) and set(s.tolist()) == set(full.tolist())


def test_label_positives_read_as_a_sequence():
    lp = LabelPositives(np.array([1, 2, 0]), np.array([0, 2, 2, 3]))
    batch = PairBatch(anchors=np.arange(3), positives=np.zeros(3, dtype=np.int64),
                      negatives=np.zeros((3, 1), dtype=np.int64), label_positives=lp)
    assert [s.tolist() for s in lp] == [[1, 2], [], [0]]
    assert len(lp) == 3 and lp[-1].tolist() == [0]
    with pytest.raises(IndexError):
        lp[3]
    assert batch.remap(np.arange(3)).label_positives is lp


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 40), st.integers(1, 12), st.integers(1, 4), st.booleans(),
       st.lists(st.integers(0, 80), max_size=12), st.integers(0, 2**32 - 1), st.data())
def test_remap_matches_searchsorted_and_rejects_a_missing_index(n, b, m, midnears, extra,
                                                                seed, data):
    batch = random_batch(n, b, m, np.random.default_rng(seed))
    if not midnears:
        batch.midnears = None
    uniq = batch.all_indices()
    # The batch's own indices, and a sorted superset with samples it lacks.
    for index in (uniq, np.union1d(uniq, np.array(extra, dtype=np.int64))):
        out = batch.remap(index)
        for name in ("anchors", "positives", "negatives", "midnears"):
            a, got = getattr(batch, name), getattr(out, name)
            if a is None:
                assert got is None
            else:
                want = np.searchsorted(index, a)
                assert got.dtype == want.dtype and np.array_equal(got, want)
        # One batch member missing from `index`: the lowest, the highest or
        # any other.
        for missing in {uniq[0], uniq[-1], data.draw(st.sampled_from(uniq.tolist()))}:
            with pytest.raises(SamplingError):
                batch.remap(index[index != missing])
    batch.anchors[0] = -1
    with pytest.raises(SamplingError):
        batch.remap(uniq)


@st.composite
def labelled_batches(draw):
    """(labels, batch, cap): anchors (repeats allowed) of a small labelled
    dataset, including a single label, singleton groups, and caps at, above
    and below group size - 1 ("none": at or above every group's size)."""
    n = draw(st.integers(1, 30))
    labels = np.array(draw(st.lists(st.integers(0, draw(st.integers(0, 4))),
                                    min_size=n, max_size=n)), dtype=np.int64)
    anchors = np.array(draw(st.lists(st.integers(0, n - 1), max_size=40)), dtype=np.int64)
    b = len(anchors)
    batch = PairBatch(anchors=anchors, positives=np.zeros(b, dtype=np.int64),
                      negatives=np.zeros((b, 1), dtype=np.int64))
    mode = draw(st.sampled_from(["none", "any", "near"]))
    if mode == "none":
        cap = max(1, len(anchors)) + draw(st.integers(0, 3))
    elif mode == "any":
        cap = draw(st.integers(1, 12))
    else:  # a group's size - 1, or one off it
        others = [int(g) - 1 for g in np.bincount(labels[anchors]) if g > 1] or [1]
        cap = max(1, draw(st.sampled_from(others)) + draw(st.integers(-1, 1)))
    return labels, batch, cap


@settings(max_examples=200, deadline=None)
@given(labelled_batches(), st.integers(0, 2**32 - 1))
def test_label_positive_sets_properties(problem, seed):
    labels, batch, cap = problem
    attach_label_positives(batch, labels, max_per_anchor=cap, rng=np.random.default_rng(seed))
    lp = batch.label_positives
    assert len(lp) == batch.size and lp.offsets[0] == 0
    assert lp.offsets[-1] == len(lp.positions)
    for r, s in enumerate(lp):
        full = label_positive_set(labels, batch.anchors, r)
        assert len(set(s.tolist())) == len(s)
        assert r not in s
        assert (labels[batch.anchors[s]] == labels[batch.anchors[r]]).all()
        assert set(s.tolist()) <= set(full.tolist())
        assert len(s) == min(cap, len(full))


def test_schedule_closed_form():
    s = LossSpec(kind="trimap", w_p=1.0, w_u_init=1.0, w_u_final=0.0, anneal_fraction=0.5)
    total = 100
    for t in range(total):
        t_anneal = 0.5 * total
        expect = 1.0 - t / t_anneal if t < t_anneal else 0.0
        assert s.w_u(t, total) == expect
    s2 = LossSpec(kind="pacmap", w_u_init=8.0, w_u_final=2.0, anneal_fraction=1.0)
    assert s2.w_u(0, 10) == 8.0
    assert s2.w_u(5, 10) == 5.0


def test_schedule_constant_after_anneal():
    s = LossSpec(kind="tscne", w_u_init=3.0, w_u_final=0.5, anneal_fraction=0.25)
    for t in range(25, 100):
        assert s.w_u(t, 100) == 0.5


def test_schedule_validation():
    with pytest.raises(ConfigError, match="^w_p must be positive and finite$"):
        LossSpec(w_p=0.0)
    with pytest.raises(ConfigError, match="^mid-near weights must be non-negative and finite$"):
        LossSpec(w_u_init=-1.0)
    with pytest.raises(ConfigError, match=r"^anneal_fraction must lie in \[0, 1\]$"):
        LossSpec(anneal_fraction=1.5)


def test_sampler_reproducible():
    rng = np.random.default_rng(7)
    ds = Dataset(points=rng.normal(size=(60, 4)), labels=rng.integers(0, 3, size=60))
    g = knn_graph(ds, k=5)
    def stream():
        s = Sampler(graph=g, data=ds, batch_size=32, m=3, seed=11, need_labels=True)
        return [s.next_batch(midnears=True) for _ in range(5)]
    a, b = stream(), stream()
    for ba, bb in zip(a, b):
        assert np.array_equal(ba.anchors, bb.anchors)
        assert np.array_equal(ba.positives, bb.positives)
        assert np.array_equal(ba.negatives, bb.negatives)
        assert np.array_equal(ba.midnears, bb.midnears)
        for sa, sb in zip(ba.label_positives, bb.label_positives):
            assert np.array_equal(sa, sb)


def test_next_batch_without_midnears_draws_none():
    # By default, as with midnears=False, a batch has no mid-nears and draws
    # none from the generator: the stream is edges, negatives and label
    # positives alone, in step with drawing those directly.
    rng = np.random.default_rng(7)
    ds = Dataset(points=rng.normal(size=(60, 4)), labels=rng.integers(0, 3, size=60))
    g = knn_graph(ds, k=5)
    s = Sampler(graph=g, data=ds, batch_size=32, m=3, seed=11, need_labels=True)
    direct = np.random.default_rng(11)
    for got in (s.next_batch(), s.next_batch(midnears=False), s.next_batch()):
        want = attach_label_positives(sample_edge_batch(g, 32, 3, direct), ds.labels, direct)
        assert got.midnears is None
        assert np.array_equal(got.anchors, want.anchors)
        assert np.array_equal(got.negatives, want.negatives)
        assert np.array_equal(got.label_positives.positions, want.label_positives.positions)
    assert s.rng.bit_generator.state == direct.bit_generator.state
    assert s.next_batch(midnears=True).midnears.shape == (32, DEFAULT_N_MID)


def test_midnears_need_the_dataset():
    g = knn_graph(Dataset(points=np.random.default_rng(1).normal(size=(20, 3))), k=3)
    s = Sampler(graph=g, batch_size=8, m=2)
    assert s.next_batch().midnears is None
    with pytest.raises(SamplingError, match="mid-near sampling requires the dataset"):
        s.next_batch(midnears=True)
