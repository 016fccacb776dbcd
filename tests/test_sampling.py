"""Minibatch construction: edge sampling, negatives, mid-near pairs,
label-positive sets, and the annealed mid-near weight schedule."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cne import (
    Dataset, PairBatch, Sampler, SamplingError, ScheduleSpec, knn_graph,
    sample_edge_batch, sample_midnears,
)
from cne.neighbor_graph import NeighborGraph
from cne.sampling import LabelPositives, attach_label_positives


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
    cand = raw + (raw >= anchor)
    cand = np.sort(cand)  # ascending index so stable sort breaks distance ties low
    diff = data.points[cand] - data.points[anchor]
    d2 = np.einsum("pd,pd->p", diff, diff)
    order = np.argsort(d2, kind="stable")
    return int(cand[order[1]])


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
    attach_label_positives(batch, labels)
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


def test_label_positive_cap_below_one_is_rejected():
    rng = np.random.default_rng(9)
    batch = PairBatch(anchors=np.arange(4), positives=np.zeros(4, dtype=np.int64),
                      negatives=np.zeros((4, 1), dtype=np.int64))
    labels = np.zeros(4, dtype=np.int64)
    for cap in (0, -1):
        with pytest.raises(SamplingError):
            attach_label_positives(batch, labels, max_per_anchor=cap, rng=rng)
    ds = Dataset(points=rng.normal(size=(10, 2)), labels=np.arange(10) % 2)
    g = knn_graph(ds, k=3)
    for cap in (0, -1):
        with pytest.raises(SamplingError):
            Sampler(graph=g, data=ds, need_labels=True, max_label_positives=cap)
    Sampler(graph=g, data=ds, need_labels=True, max_label_positives=None)


def test_label_positives_lists_convert_to_csr():
    batch = PairBatch(anchors=np.arange(3), positives=np.zeros(3, dtype=np.int64),
                      negatives=np.zeros((3, 1), dtype=np.int64),
                      label_positives=[[1, 2], [], [0]])
    lp = batch.label_positives
    assert isinstance(lp, LabelPositives)
    assert lp.positions.tolist() == [1, 2, 0] and lp.offsets.tolist() == [0, 2, 2, 3]
    assert [s.tolist() for s in lp] == [[1, 2], [], [0]]
    assert len(lp) == 3 and lp[-1].tolist() == [0]
    with pytest.raises(IndexError):
        lp[3]
    assert batch.remap(np.arange(3)).label_positives is lp
    batch.label_positives = [np.array([2]), np.array([0]), np.array([1])]
    assert batch.label_positives.positions.tolist() == [2, 0, 1]


@st.composite
def labelled_batches(draw):
    """(labels, batch, cap): anchors (repeats allowed) of a small labelled
    dataset, including a single label, singleton groups, and caps at, above
    and below group size - 1."""
    n = draw(st.integers(1, 30))
    labels = np.array(draw(st.lists(st.integers(0, draw(st.integers(0, 4))),
                                    min_size=n, max_size=n)), dtype=np.int64)
    anchors = np.array(draw(st.lists(st.integers(0, n - 1), max_size=40)), dtype=np.int64)
    b = len(anchors)
    batch = PairBatch(anchors=anchors, positives=np.zeros(b, dtype=np.int64),
                      negatives=np.zeros((b, 1), dtype=np.int64))
    mode = draw(st.sampled_from(["none", "any", "near"]))
    if mode == "none":
        cap = None
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
        assert len(s) == (len(full) if cap is None else min(cap, len(full)))
        if cap is None:
            assert s.tolist() == full.tolist()


def test_schedule_closed_form():
    s = ScheduleSpec(w_p=1.0, w_u_init=1.0, w_u_final=0.0, anneal_fraction=0.5)
    total = 100
    for t in range(total):
        t_anneal = 0.5 * total
        expect = 1.0 - t / t_anneal if t < t_anneal else 0.0
        assert s.w_u(t, total) == expect
    s2 = ScheduleSpec(w_u_init=8.0, w_u_final=2.0, anneal_fraction=1.0)
    assert s2.w_u(0, 10) == 8.0
    assert s2.w_u(5, 10) == 5.0


def test_schedule_constant_after_anneal():
    s = ScheduleSpec(w_u_init=3.0, w_u_final=0.5, anneal_fraction=0.25)
    for t in range(25, 100):
        assert s.w_u(t, 100) == 0.5


def test_schedule_validation():
    with pytest.raises(SamplingError):
        ScheduleSpec(w_p=0.0)
    with pytest.raises(SamplingError):
        ScheduleSpec(w_u_init=-1.0)
    with pytest.raises(SamplingError):
        ScheduleSpec(anneal_fraction=1.5)


def test_sampler_reproducible():
    rng = np.random.default_rng(7)
    ds = Dataset(points=rng.normal(size=(60, 4)), labels=rng.integers(0, 3, size=60))
    g = knn_graph(ds, k=5)
    def stream():
        s = Sampler(graph=g, data=ds, batch_size=32, m=3, seed=11,
                    need_midnears=True, need_labels=True)
        return [s.next_batch() for _ in range(5)]
    a, b = stream(), stream()
    for ba, bb in zip(a, b):
        assert np.array_equal(ba.anchors, bb.anchors)
        assert np.array_equal(ba.positives, bb.positives)
        assert np.array_equal(ba.negatives, bb.negatives)
        assert np.array_equal(ba.midnears, bb.midnears)
        for sa, sb in zip(ba.label_positives, bb.label_positives):
            assert np.array_equal(sa, sb)
