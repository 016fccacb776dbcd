"""The unified loss family: closed-form scalar oracles, loop-based reference
implementations, reduction identities, invariances, and gradient checks."""

import math

import numpy as np
import pytest

from cne import (
    LOSS_KINDS, LossGrad, LossNumericsError, LossSpec, PairBatch, SamplingError,
    evaluate, grad_check, random_batch,
)
from cne.losses import MIDNEAR_KINDS, SUPERVISED_KINDS
from cne.sampling import LabelPositives

ZERO_W_U = {"w_u_init": 0.0, "w_u_final": 0.0}


def csr(sets):
    """LabelPositives of B per-anchor lists of batch positions."""
    offsets = np.concatenate(([0], np.cumsum([len(s) for s in sets]))).astype(np.int64)
    return LabelPositives(np.array([p for s in sets for p in s], dtype=np.int64), offsets)


def pair_batch(anchors, positives, negatives, midnears=None, label_positives=None):
    return PairBatch(
        anchors=np.asarray(anchors),
        positives=np.asarray(positives),
        negatives=np.asarray(negatives),
        midnears=None if midnears is None else np.asarray(midnears),
        label_positives=None if label_positives is None else csr(label_positives),
    )


# --- independent loop-based references ---------------------------------------

def _phi_ref(coords, i, j):
    d2 = sum((a - b) ** 2 for a, b in zip(coords[i], coords[j]))
    return 1.0 / (max(d2, 1e-12) + 1.0)


def _d2_ref(coords, i, j):
    return max(sum((a - b) ** 2 for a, b in zip(coords[i], coords[j])), 1e-12)


def _e_ref(coords, i, j, tau):
    d = max(math.sqrt(sum((a - b) ** 2 for a, b in zip(coords[i], coords[j]))), 1e-30)
    return math.exp(-d / tau)


def ref_tsne(batch, coords):
    phis = [_phi_ref(coords, i, j) for i, j in zip(batch.anchors, batch.positives)]
    return -sum(math.log(p) for p in phis) / len(phis) + math.log(sum(phis))


def ref_umap(batch, coords):
    total = 0.0
    for r, (i, j) in enumerate(zip(batch.anchors, batch.positives)):
        total += math.log(_phi_ref(coords, i, j))
        for k in batch.negatives[r]:
            d2 = _d2_ref(coords, i, k)
            total += math.log(d2 / (d2 + 1.0))
    return -total / batch.size


def ref_trimap(batch, coords, w_u, log_ratio):
    total = 0.0
    for r, (i, j) in enumerate(zip(batch.anchors, batch.positives)):
        u = _phi_ref(coords, i, j)
        for k in batch.negatives[r]:
            ratio = u / (u + _phi_ref(coords, i, k))
            total += math.log(ratio) if log_ratio else ratio
        if w_u != 0.0:
            um = _phi_ref(coords, i, batch.midnears[r][0])
            vm = _phi_ref(coords, i, batch.midnears[r][1])
            ratio = um / (um + vm)
            total += w_u * (math.log(ratio) if log_ratio else ratio)
    return -total / batch.size


def ref_pacmap(batch, coords, w_u, w_p, corrected):
    total = 0.0
    for r, (i, j) in enumerate(zip(batch.anchors, batch.positives)):
        p = _phi_ref(coords, i, j)
        total += -w_p * p / (p + 1.0)
        if w_u != 0.0:
            for mn in batch.midnears[r]:
                p = _phi_ref(coords, i, mn)
                total += -w_u * p / (p + 1.0)
        for k in batch.negatives[r]:
            p = _phi_ref(coords, i, k)
            total += p / (p + 1.0) if corrected else -(1.0 - p / (p + 1.0))
    return total / batch.size


def ref_infonce(batch, coords):
    total = 0.0
    for r, (i, j) in enumerate(zip(batch.anchors, batch.positives)):
        u = _phi_ref(coords, i, j)
        v = sum(_phi_ref(coords, i, k) for k in batch.negatives[r])
        total += -math.log(u / (u + v))
    return total / batch.size


def ref_sscl(batch, coords, tau, incl_positive=False):
    total = 0.0
    for r, (i, j) in enumerate(zip(batch.anchors, batch.positives)):
        e_p = _e_ref(coords, i, j, tau)
        denom = sum(_e_ref(coords, i, k, tau) for k in batch.negatives[r])
        if incl_positive:
            denom += e_p
        total += -math.log(e_p / denom)
    return total / batch.size


def ref_snn(batch, coords, tau):
    groups: dict = {}
    for r, a in enumerate(batch.anchors):
        groups.setdefault(int(a), []).append(r)
    total = 0.0
    for a, rows in groups.items():
        num = sum(_e_ref(coords, a, batch.positives[r], tau) for r in rows)
        den = sum(_e_ref(coords, a, k, tau) for r in rows for k in batch.negatives[r])
        total += -math.log(num / den)
    return total / len(groups)


def ref_supcon(batch, coords, tau, incl_positive=False):
    total, contributing = 0.0, 0
    for r, i in enumerate(batch.anchors):
        pos = batch.label_positives[r]
        if len(pos) == 0:
            continue
        contributing += 1
        den_n = sum(_e_ref(coords, i, k, tau) for k in batch.negatives[r])
        inner = 0.0
        for p in pos:
            e_p = _e_ref(coords, i, batch.anchors[p], tau)
            den = den_n + e_p if incl_positive else den_n
            inner += -math.log(e_p / den)
        total += inner / len(pos)
    return total / contributing


def ref_sup_snn(batch, coords, tau):
    total, contributing = 0.0, 0
    for r, i in enumerate(batch.anchors):
        pos = batch.label_positives[r]
        if len(pos) == 0:
            continue
        contributing += 1
        num = sum(_e_ref(coords, i, batch.anchors[p], tau) for p in pos) / len(pos)
        den = sum(_e_ref(coords, i, k, tau) for k in batch.negatives[r])
        total += -math.log(num / den)
    return total / contributing


def ref_tscne(batch, coords, w_u, log_ratio):
    total, contributing = 0.0, 0
    for r, i in enumerate(batch.anchors):
        pos = batch.label_positives[r]
        if len(pos) == 0:
            continue
        contributing += 1
        v = sum(_phi_ref(coords, i, k) for k in batch.negatives[r])
        inner = 0.0
        for p in pos:
            u = _phi_ref(coords, i, batch.anchors[p])
            inner += math.log(u / (u + v)) if log_ratio else u / v
        total += -inner / len(pos)
        if w_u != 0.0:
            up = _phi_ref(coords, i, batch.positives[r])
            w = sum(_phi_ref(coords, i, mn) for mn in batch.midnears[r])
            total += -w_u * (math.log(up / (up + w)) if log_ratio else up / w)
    return total / contributing


# --- closed-form scalar oracles ----------------------------------------------

def line_coords(*xs):
    return np.array([[float(x), 0.0] for x in xs])


def test_tsne_single_pair_is_zero():
    coords = np.array([[0.0, 0.0], [3.0, 1.0]])
    batch = pair_batch([0], [1], [[0]])
    lg = evaluate(LossSpec(kind="tsne"), batch, coords)
    assert lg.value == 0.0
    for g in lg.grads.values():
        assert np.array_equal(g, np.zeros(2))


def test_tsne_two_pairs():
    # phi values 0.5 (d^2=1) and 0.2 (d^2=4)
    coords = line_coords(0, 1, 0, 2)
    batch = pair_batch([0, 2], [1, 3], [[2], [0]])
    lg = evaluate(LossSpec(kind="tsne"), batch, coords)
    expect = -(math.log(0.5) + math.log(0.2)) / 2.0 + math.log(0.7)
    assert lg.value == pytest.approx(expect, rel=1e-12)


def test_umap_scalar():
    # positive d^2=1 (phi=0.5), negative d^2=4 (1-phi=0.8)
    coords = line_coords(0, 1, 2)
    batch = pair_batch([0], [1], [[2]])
    lg = evaluate(LossSpec(kind="umap"), batch, coords)
    assert lg.value == pytest.approx(-(math.log(0.5) + math.log(0.8)), rel=1e-12)
    assert lg.value == pytest.approx(0.91629, abs=5e-6)


def test_umap_perfect_configuration_tends_to_zero():
    coords = np.array([[0.0, 0.0], [1e-7, 0.0], [1e4, 0.0]])
    batch = pair_batch([0], [1], [[2]])
    lg = evaluate(LossSpec(kind="umap"), batch, coords)
    assert 0.0 <= lg.value < 1e-6


def test_umap_equals_nce():
    rng = np.random.default_rng(0)
    coords = rng.normal(size=(30, 2))
    for _ in range(10):
        batch = random_batch(30, 8, 4, rng)
        a = evaluate(LossSpec(kind="umap", m=4), batch, coords)
        b = evaluate(LossSpec(kind="nce", m=4), batch, coords)
        assert a.value == b.value
        for k in a.grads:
            assert np.array_equal(a.grads[k], b.grads[k])


def test_umap_unnormalized_kernel_route():
    # Evaluating through phi_tilde = 1/d^2 with phi = phi_tilde/(phi_tilde+1)
    # and 1-phi = 1/(phi_tilde+1) must match the direct form.
    rng = np.random.default_rng(1)
    coords = rng.normal(size=(20, 2))
    for _ in range(20):
        batch = random_batch(20, 6, 3, rng)
        direct = evaluate(LossSpec(kind="umap", m=3), batch, coords).value
        total = 0.0
        for r, (i, j) in enumerate(zip(batch.anchors, batch.positives)):
            pt = 1.0 / _d2_ref(coords, i, j)
            total += math.log(pt / (pt + 1.0))
            for k in batch.negatives[r]:
                pt = 1.0 / _d2_ref(coords, i, k)
                total += math.log(1.0 / (pt + 1.0))
        alt = -total / batch.size
        assert abs(direct - alt) <= 1e-12 * max(1.0, abs(alt))


def test_trimap_symmetric_triplet():
    # equal positive and negative similarities: ratio 0.5 regardless of scale
    coords = line_coords(0, 1, -1)
    batch = pair_batch([0], [1], [[2]])
    spec = LossSpec(kind="trimap", **ZERO_W_U)
    assert evaluate(spec, batch, coords).value == pytest.approx(-0.5, rel=1e-12)


def test_trimap_scalar():
    # phi_ij=0.5, phi_ik=0.2 -> -0.5/0.7
    coords = line_coords(0, 1, 2)
    batch = pair_batch([0], [1], [[2]])
    spec = LossSpec(kind="trimap", **ZERO_W_U)
    lg = evaluate(spec, batch, coords)
    assert lg.value == pytest.approx(-5.0 / 7.0, rel=1e-12)
    assert lg.value == pytest.approx(-0.714286, abs=5e-7)


def test_trimap_bounded():
    rng = np.random.default_rng(2)
    coords = rng.normal(size=(40, 2))
    spec = LossSpec(kind="trimap", m=3)
    for _ in range(20):
        batch = random_batch(40, 8, 3, rng)
        value = evaluate(spec, batch, coords, epoch=0, n_epochs=10).value
        w_u = spec.w_u(0, 10)
        assert -(spec.m + w_u) < value < 0.0


def test_pacmap_scalar():
    # single positive with phi=0.2 and one negative pushed far enough that
    # its attraction/repulsion term is negligible
    coords = line_coords(0, 2, 1e8)
    batch = pair_batch([0], [1], [[2]])
    spec = LossSpec(kind="pacmap", **ZERO_W_U)
    assert evaluate(spec, batch, coords).value == pytest.approx(-1.0 / 6.0, abs=1e-9)


def test_pacmap_sign_variants_differ_by_constant():
    rng = np.random.default_rng(3)
    coords = rng.normal(size=(30, 2))
    m = 4
    for _ in range(10):
        batch = random_batch(30, 8, m, rng)
        cor = evaluate(LossSpec(kind="pacmap", m=m), batch, coords, epoch=0, n_epochs=10)
        raw = evaluate(LossSpec(kind="pacmap", m=m, paper_as_written=True),
                       batch, coords, epoch=0, n_epochs=10)
        assert raw.value == pytest.approx(cor.value - m, rel=1e-12)
        for k in cor.grads:
            assert np.allclose(cor.grads[k], raw.grads[k], rtol=0, atol=1e-15)


def test_pacmap_corrected_sign_repels_negative():
    coords = line_coords(0, 1, 0.5)
    batch = pair_batch([0], [1], [[2]])
    spec = LossSpec(kind="pacmap", **ZERO_W_U)
    lg = evaluate(spec, batch, coords)
    # negative sits to the right of the anchor; repulsion pushes the anchor left
    eps = 1e-6
    shifted = coords.copy()
    shifted[2, 0] += eps
    v_plus = evaluate(spec, batch, shifted, 0, 1).value
    shifted[2, 0] -= 2 * eps
    v_minus = evaluate(spec, batch, shifted, 0, 1).value
    # moving the negative away from the anchor lowers the loss
    assert v_plus < v_minus
    assert lg.grads[2][0] < 0.0


def test_infonce_symmetric():
    coords = line_coords(0, 1, -1)
    batch = pair_batch([0], [1], [[2]])
    assert evaluate(LossSpec(kind="infonce"), batch, coords).value == pytest.approx(
        math.log(2.0), rel=1e-12)


def test_infonce_uniform_m_negatives():
    for m in (1, 3, 5):
        # positive and negatives all at distance 1 from the anchor
        angles = np.linspace(0.0, 2 * np.pi, m + 1, endpoint=False)
        pts = np.vstack([[0.0, 0.0], np.column_stack([np.cos(angles), np.sin(angles)])])
        batch = pair_batch([0], [1], [list(range(2, m + 2))])
        value = evaluate(LossSpec(kind="infonce", m=m), batch, pts).value
        assert value == pytest.approx(math.log(1.0 + m), rel=1e-12)


def test_infonce_scalar():
    # phi=0.5 positive, negatives phi={0.2, 0.1}
    coords = line_coords(0, 1, 2, 3)
    batch = pair_batch([0], [1], [[2, 3]])
    value = evaluate(LossSpec(kind="infonce", m=2), batch, coords).value
    assert value == pytest.approx(math.log(1.6), rel=1e-12)
    assert value == pytest.approx(0.470004, abs=5e-7)


def test_sscl_uniform_distances():
    for m in (2, 4):
        angles = np.linspace(0.0, 2 * np.pi, m + 1, endpoint=False)
        pts = np.vstack([[0.0, 0.0], np.column_stack([np.cos(angles), np.sin(angles)])])
        batch = pair_batch([0], [1], [list(range(2, m + 2))])
        value = evaluate(LossSpec(kind="sscl", m=m, tau=0.5), batch, pts).value
        assert value == pytest.approx(math.log(m), rel=1e-12)


def test_sscl_single_negative_logistic_form():
    rng = np.random.default_rng(4)
    for _ in range(20):
        coords = rng.normal(size=(3, 2))
        tau = float(rng.uniform(0.2, 2.0))
        batch = pair_batch([0], [1], [[2]])
        d_ij = np.linalg.norm(coords[0] - coords[1])
        d_ik = np.linalg.norm(coords[0] - coords[2])
        # negatives-only denominator: the value is the scaled distance gap
        value = evaluate(LossSpec(kind="sscl", m=1, tau=tau), batch, coords).value
        assert value == pytest.approx((d_ij - d_ik) / tau, rel=1e-10)
        # with the positive in the denominator: the logistic closed form
        value = evaluate(
            LossSpec(kind="sscl", m=1, tau=tau, denominator_includes_positive=True),
            batch, coords).value
        sigma = 1.0 / (1.0 + math.exp(-(d_ik - d_ij) / tau))
        assert value == pytest.approx(-math.log(sigma), rel=1e-10)


def test_snn_single_positive_reduces_to_sscl():
    rng = np.random.default_rng(5)
    coords = rng.normal(size=(30, 2))
    for _ in range(10):
        # distinct anchors so every group has exactly one positive
        anchors = rng.permutation(30)[:8]
        batch = pair_batch(anchors,
                           (anchors + 1) % 30,
                           rng.integers(0, 30, size=(8, 3)))
        a = evaluate(LossSpec(kind="snn", m=3), batch, coords).value
        b = evaluate(LossSpec(kind="sscl", m=3), batch, coords).value
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_supcon_single_label_positive_reduces_to_sscl():
    rng = np.random.default_rng(6)
    coords = rng.normal(size=(20, 2))
    # pair up batch rows so each anchor's lone label positive is exactly the
    # partner whose anchor equals this row's positive
    anchors = np.array([0, 1, 2, 3])
    positives = np.array([1, 0, 3, 2])
    negatives = rng.integers(4, 20, size=(4, 5))
    lp = [[1], [0], [3], [2]]
    batch = pair_batch(anchors, positives, negatives, label_positives=lp)
    a = evaluate(LossSpec(kind="supcon", m=5), batch, coords).value
    b = evaluate(LossSpec(kind="sscl", m=5), batch, coords).value
    assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_sup_snn_single_label_positive_reduces_to_supcon():
    rng = np.random.default_rng(7)
    coords = rng.normal(size=(20, 2))
    batch = pair_batch([0, 1, 2, 3], [1, 0, 3, 2],
                       rng.integers(4, 20, size=(4, 5)),
                       label_positives=[[1], [0], [3], [2]])
    a = evaluate(LossSpec(kind="sup_snn", m=5), batch, coords).value
    b = evaluate(LossSpec(kind="supcon", m=5), batch, coords).value
    assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_supervised_losses_are_their_self_supervised_twins():
    # Each anchor's one label positive is the batch row whose anchor is its
    # edge positive: the supervised losses then pair exactly what their
    # self-supervised twins pair, through the same shared term.
    rng = np.random.default_rng(21)
    coords = rng.normal(size=(30, 2))
    batch = pair_batch([3, 0, 5, 1, 4, 2], [0, 3, 1, 5, 2, 4],
                       rng.integers(6, 30, size=(6, 5)),
                       label_positives=[[1], [0], [3], [2], [5], [4]])

    def both(supervised, twin):
        return evaluate(supervised, batch, coords), evaluate(twin, batch, coords)

    for incl in (False, True):
        sup, twin = both(LossSpec(kind="supcon", denominator_includes_positive=incl),
                         LossSpec(kind="sscl", denominator_includes_positive=incl))
        assert np.array_equal(sup.grad, twin.grad) and sup.value == twin.value
    sup, twin = both(LossSpec(kind="tscne", log_ratio=True, **ZERO_W_U),
                     LossSpec(kind="infonce"))
    assert np.array_equal(sup.grad, twin.grad) and sup.value == twin.value
    # snn pools its negatives per anchor group, sup_snn reduces them row by row.
    sup, twin = both(LossSpec(kind="sup_snn"), LossSpec(kind="snn"))
    np.testing.assert_allclose(sup.grad, twin.grad, rtol=0, atol=1e-12)
    assert sup.value == pytest.approx(twin.value, rel=0, abs=1e-12)


def test_sup_snn_scalar():
    # two label positives with e = {0.6, 0.2} at tau=1 and a negative
    # coincident with the anchor (e_n = 1): per-anchor term -log(0.4)
    tau = 1.0
    d1, d2 = -math.log(0.6), -math.log(0.2)
    coords = np.array([
        [0.0, 0.0],   # anchor
        [d1, 0.0],    # first label positive
        [d2, 0.0],    # second label positive
        [0.0, 0.0],   # negative, coincident with the anchor
    ])
    batch = pair_batch([0, 1, 2], [1, 0, 0], [[3], [3], [3]],
                       label_positives=[[1, 2], [], []])
    lg = evaluate(LossSpec(kind="sup_snn", m=1, tau=tau), batch, coords)
    assert lg.skipped_anchors == 2
    assert lg.value == pytest.approx(-math.log(0.4), rel=1e-10)
    assert lg.value == pytest.approx(0.916291, abs=5e-7)


def test_jensen_sup_snn_below_supcon():
    rng = np.random.default_rng(8)
    coords = rng.normal(size=(40, 2))
    labels = rng.integers(0, 3, size=40)
    for _ in range(50):
        batch = random_batch(40, 10, 4, rng, labels=labels)
        a = evaluate(LossSpec(kind="sup_snn", m=4), batch, coords).value
        b = evaluate(LossSpec(kind="supcon", m=4), batch, coords).value
        assert a <= b + 1e-12


def test_tscne_equal_similarities():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    batch = pair_batch([0, 1], [1, 0], [[2], [3]], label_positives=[[1], [0]])
    spec = LossSpec(kind="tscne", **ZERO_W_U)
    assert evaluate(spec, batch, coords).value == pytest.approx(-1.0, rel=1e-12)
    spec_log = LossSpec(kind="tscne", **ZERO_W_U, log_ratio=True)
    assert evaluate(spec_log, batch, coords).value == pytest.approx(
        math.log(2.0), rel=1e-12)


def test_tscne_pulls_label_positives_together():
    rng = np.random.default_rng(9)
    coords = rng.normal(size=(10, 2))
    batch = pair_batch([0, 1], [1, 0], [[2], [3]], label_positives=[[1], [0]])
    for log_ratio in (False, True):
        spec = LossSpec(kind="tscne", **ZERO_W_U, log_ratio=log_ratio)
        lg = evaluate(spec, batch, coords)
        # gradient on the anchor points toward its label positive
        to_positive = coords[1] - coords[0]
        assert np.dot(-lg.grads[0], to_positive) > 0.0


# --- reference-implementation agreement --------------------------------------

def test_losses_match_loop_references():
    rng = np.random.default_rng(10)
    n = 40
    coords = rng.normal(size=(n, 2))
    labels = rng.integers(0, 3, size=n)
    for trial in range(10):
        batch = random_batch(n, 12, 4, rng, labels=labels)
        w_u = 0.7
        sched = {"w_u_init": w_u, "w_u_final": w_u}
        cases = [
            (LossSpec(kind="tsne", m=4), ref_tsne(batch, coords)),
            (LossSpec(kind="umap", m=4), ref_umap(batch, coords)),
            (LossSpec(kind="trimap", m=4, **sched),
             ref_trimap(batch, coords, w_u, False)),
            (LossSpec(kind="trimap", m=4, **sched, log_ratio=True),
             ref_trimap(batch, coords, w_u, True)),
            (LossSpec(kind="pacmap", m=4, **sched),
             ref_pacmap(batch, coords, w_u, 1.0, True)),
            (LossSpec(kind="pacmap", m=4, **sched, paper_as_written=True),
             ref_pacmap(batch, coords, w_u, 1.0, False)),
            (LossSpec(kind="infonce", m=4), ref_infonce(batch, coords)),
            (LossSpec(kind="sscl", m=4), ref_sscl(batch, coords, 0.5)),
            (LossSpec(kind="sscl", m=4, denominator_includes_positive=True),
             ref_sscl(batch, coords, 0.5, incl_positive=True)),
            (LossSpec(kind="snn", m=4), ref_snn(batch, coords, 0.5)),
            (LossSpec(kind="supcon", m=4), ref_supcon(batch, coords, 0.5)),
            (LossSpec(kind="supcon", m=4, denominator_includes_positive=True),
             ref_supcon(batch, coords, 0.5, incl_positive=True)),
            (LossSpec(kind="sup_snn", m=4), ref_sup_snn(batch, coords, 0.5)),
            (LossSpec(kind="tscne", m=4, **sched),
             ref_tscne(batch, coords, w_u, False)),
            (LossSpec(kind="tscne", m=4, **sched, log_ratio=True),
             ref_tscne(batch, coords, w_u, True)),
        ]
        for spec, expect in cases:
            got = evaluate(spec, batch, coords, epoch=0, n_epochs=10).value
            assert got == pytest.approx(expect, rel=1e-10), spec.kind


# --- invariances and gradient structure --------------------------------------

def random_rigid_motion(rng, d=2):
    a = rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    t = rng.normal(scale=5.0, size=d)
    return q, t


def all_specs():
    sched = {"w_u_init": 0.5, "w_u_final": 0.5}
    out = []
    for kind in LOSS_KINDS:
        out.append(LossSpec(kind=kind, m=4, **sched))
    out.append(LossSpec(kind="trimap", m=4, **sched, log_ratio=True))
    out.append(LossSpec(kind="tscne", m=4, **sched, log_ratio=True))
    out.append(LossSpec(kind="pacmap", m=4, **sched, paper_as_written=True))
    out.append(LossSpec(kind="sscl", m=4, denominator_includes_positive=True))
    out.append(LossSpec(kind="supcon", m=4, denominator_includes_positive=True))
    return out


def test_rigid_motion_invariance():
    rng = np.random.default_rng(11)
    n = 30
    coords = rng.normal(size=(n, 2))
    labels = rng.integers(0, 3, size=n)
    batch = random_batch(n, 10, 4, rng, labels=labels)
    for spec in all_specs():
        base = evaluate(spec, batch, coords, 0, 10).value
        for _ in range(5):
            q, t = random_rigid_motion(rng)
            moved = coords @ q.T + t
            value = evaluate(spec, batch, moved, 0, 10).value
            assert abs(value - base) <= 1e-10 * max(1.0, abs(base)), spec.kind


def test_gradient_sums_to_zero():
    # translation invariance implies the gradients over all participating
    # samples cancel exactly
    rng = np.random.default_rng(12)
    n = 30
    coords = rng.normal(size=(n, 2))
    labels = rng.integers(0, 3, size=n)
    batch = random_batch(n, 10, 4, rng, labels=labels)
    for spec in all_specs():
        lg = evaluate(spec, batch, coords, 0, 10)
        total = np.sum(list(lg.grads.values()), axis=0)
        assert np.all(np.abs(total) < 1e-12), spec.kind


def test_grad_check_all_losses():
    rng = np.random.default_rng(13)
    n = 30
    labels = rng.integers(0, 3, size=n)
    for spec in all_specs():
        worst = 0.0
        for _ in range(3):
            coords = rng.normal(size=(n, 2))
            batch = random_batch(n, 6, 4, rng, labels=labels)
            worst = max(worst, grad_check(spec, batch, coords, epoch=0, n_epochs=10))
        assert worst < 1e-4, f"{spec.kind}: {worst:.3e}"


def test_grad_check_eps_plateau():
    rng = np.random.default_rng(14)
    n = 20
    coords = rng.normal(size=(n, 2))
    batch = random_batch(n, 6, 3, rng)
    spec = LossSpec(kind="umap", m=3)
    errs = [grad_check(spec, batch, coords.copy(), eps=e) for e in (1e-4, 1e-5, 1e-6)]
    assert max(errs) < 1e-4


def test_evaluate_rejects_nonfinite_coords():
    coords = np.array([[0.0, 0.0], [np.nan, 0.0], [1.0, 1.0]])
    batch = pair_batch([0], [1], [[2]])
    with pytest.raises(LossNumericsError):
        evaluate(LossSpec(kind="umap"), batch, coords)


def test_evaluate_rejects_out_of_range_batch():
    coords = np.zeros((2, 2))
    for bad in (5, -1):
        batch = pair_batch([0], [1], [[bad]])
        with pytest.raises(LossNumericsError):
            evaluate(LossSpec(kind="umap"), batch, coords)
    # The same in each index field in turn; trimap with w_u > 0 reads the
    # mid-nears too.
    coords = np.random.default_rng(15).normal(size=(3, 2))
    spec = LossSpec(kind="trimap", m=1)
    assert spec.w_u(0, 1) > 0
    fields = {"anchors": [0], "positives": [1], "negatives": [[2]], "midnears": [[1, 2]]}
    evaluate(spec, pair_batch(**fields), coords)
    for name in fields:
        for bad in (5, -1):
            arr = np.array(fields[name])
            arr.flat[-1] = bad
            with pytest.raises(LossNumericsError):
                evaluate(spec, pair_batch(**{**fields, name: arr}), coords)
    # Label positives are batch positions: outside 0..B-1 is an error, not a
    # wrap-around to another anchor.
    coords = np.random.default_rng(14).normal(size=(5, 2))
    for bad in (-1, 3):
        batch = pair_batch([0, 1, 2], [1, 2, 0], [[3], [4], [3]],
                           label_positives=[[bad], [0], [1]])
        with pytest.raises(LossNumericsError):
            evaluate(LossSpec(kind="supcon", m=1), batch, coords)
    # Per-anchor lists are not a LabelPositives.
    batch = pair_batch([0, 1, 2], [1, 2, 0], [[3], [4], [3]])
    batch.label_positives = [[1], [0], [1]]
    with pytest.raises(SamplingError, match="not a LabelPositives"):
        evaluate(LossSpec(kind="supcon", m=1), batch, coords)
    # Offsets must partition the positions over the B anchors.
    for offsets in ([0, 1, 2], [0, 2, 1, 3], [1, 1, 2, 3], [0, 1, 2, 2]):
        batch = pair_batch([0, 1, 2], [1, 2, 0], [[3], [4], [3]])
        batch.label_positives = LabelPositives(np.array([2, 0, 1]), np.array(offsets))
        with pytest.raises(LossNumericsError):
            evaluate(LossSpec(kind="supcon", m=1), batch, coords)


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_compact_batch_matches_full_coordinates(kind):
    # The parametric fit evaluates on the batch's own rows only; value and
    # gradient must match the evaluation on all coordinates bit for bit.
    rng = np.random.default_rng(13)
    n = 40
    labels = rng.integers(0, 3, size=n)
    coords = rng.normal(size=(n, 2))
    spec = LossSpec(kind=kind, m=3)
    for _ in range(3):
        batch = random_batch(n, 8, 3, rng, labels=labels)
        uniq = batch.all_indices()
        assert np.array_equal(uniq, np.unique(np.concatenate(
            [batch.anchors, batch.positives, batch.negatives.ravel(), batch.midnears.ravel()])))
        full = evaluate(spec, batch, coords)
        compact = evaluate(spec, batch.remap(uniq), coords[uniq])
        assert compact.value == full.value
        assert np.array_equal(compact.grad, full.grad[uniq])
        assert not full.grad[np.setdiff1d(np.arange(n), uniq)].any()
        assert list(full.grads) == full.touched.tolist()
        assert np.isin(full.touched, uniq).all()
        assert list(compact.grads) == np.searchsorted(uniq, full.touched).tolist()
        for idx, g in full.grads.items():
            assert np.array_equal(g, full.grad[idx])


def test_accumulator_matches_sequential_scatter():
    # Deferred bincount scatter == one np.add.at per contribution, in call order.
    from cne.losses import _Accumulator, _dist
    rng = np.random.default_rng(3)
    coords = rng.normal(size=(20, 3))
    cols = coords.T.copy()
    acc = _Accumulator(cols)
    for _ in range(3):
        i, j = rng.integers(0, 20, 30), rng.integers(0, 20, 30)
        acc.add_sq(i, j, rng.normal(size=30), list(cols[:, i] - cols[:, j]))
        i, j = rng.integers(0, 20, 30), rng.integers(0, 20, 30)
        acc.add_dist(i, j, rng.normal(size=30), *_dist(cols, i, j))
    expect = np.zeros_like(coords)
    for rows, *contrib in zip(acc.rows, *acc.contribs):
        np.add.at(expect, rows, np.column_stack(contrib))
    grad, rows = acc.result()
    assert np.array_equal(grad, expect)
    touched = LossGrad(value=0.0, grad=grad, rows=rows).touched
    assert np.array_equal(touched, np.unique(np.concatenate(acc.rows)))


@pytest.mark.parametrize("d", [2, 3])
def test_pair_distances_sum_coordinates_in_order(d):
    # One difference array per coordinate; the squared distance adds the
    # coordinates' squares left to right. At d = 2 that is exactly what
    # einsum gives on the row-major differences.
    from cne.kernels import EPS_SQ_DIST, cauchy
    from cne.losses import _dist, _phi
    rng = np.random.default_rng(8)
    coords = rng.normal(size=(50, d))
    i, j = rng.integers(0, 50, 400), rng.integers(0, 50, 400)
    i[0] = j[0]  # a coincident pair hits the clamps
    rowwise = coords[i] - coords[j]
    want = rowwise[:, 0] * rowwise[:, 0]
    for c in range(1, d):
        want = want + rowwise[:, c] * rowwise[:, c]
    if d == 2:
        assert np.array_equal(want, np.einsum("bd,bd->b", rowwise, rowwise))
    cols = coords.T.copy()
    diff, s, phi = _phi(cols, i, j)
    assert np.array_equal(np.column_stack(diff), rowwise)
    assert np.array_equal(s, np.maximum(want, EPS_SQ_DIST))
    assert np.array_equal(phi, cauchy(np.maximum(want, EPS_SQ_DIST)))
    diff, dist = _dist(cols, i, j)
    assert np.array_equal(np.column_stack(diff), rowwise)
    assert np.array_equal(dist, np.maximum(np.sqrt(want), 1e-30))


def test_tscne_touched_is_every_sample_a_kept_anchor_pairs_with():
    # `touched` is built from the accumulated rows when read. On a tscne
    # batch it holds each anchor with a label positive and every sample it
    # is paired with: label positives, positive, negatives and mid-nears.
    rng = np.random.default_rng(21)
    n = 30
    labels = rng.integers(0, 3, size=n)
    coords = rng.normal(size=(n, 2))
    spec = LossSpec(kind="tscne", m=3)
    for b in (1, 3, 8, 20):
        batch = random_batch(n, b, 3, rng, labels=labels)
        lp = batch.label_positives
        keep = np.flatnonzero(np.diff(lp.offsets))
        expect = np.unique(np.concatenate([
            batch.anchors[keep], batch.anchors[lp.positions], batch.positives[keep],
            batch.negatives[keep].ravel(), batch.midnears[keep].ravel()]))
        lg = evaluate(spec, batch, coords)
        assert np.array_equal(lg.touched, expect)
        assert list(lg.grads) == expect.tolist()


@pytest.mark.parametrize("kind", SUPERVISED_KINDS)
def test_supervised_batch_with_no_kept_anchor_is_skipped(kind):
    # No anchor has a label positive: evaluate skips every anchor, so the
    # value is 0 and the gradient 0. A batch with no label positives at all
    # is an error.
    rng = np.random.default_rng(5)
    coords = rng.normal(size=(20, 2))
    spec = LossSpec(kind=kind, m=4)
    batch = pair_batch([0, 1, 2], [3, 4, 5], rng.integers(6, 20, size=(3, 4)),
                       midnears=rng.integers(6, 20, size=(3, 2)),
                       label_positives=[[], [], []])
    lg = evaluate(spec, batch, coords)
    assert lg.value == 0.0 and lg.skipped_anchors == 3
    assert not lg.grad.any() and len(lg.touched) == 0
    batch.label_positives = None
    with pytest.raises(SamplingError, match="label positives"):
        evaluate(spec, batch, coords)


@pytest.mark.parametrize("kind", [k for k in LOSS_KINDS if k not in MIDNEAR_KINDS])
def test_w_u_is_zero_for_a_loss_without_a_midnear_term(kind):
    for spec in (LossSpec(kind=kind), LossSpec(kind=kind, w_u_init=3.0, w_u_final=2.0)):
        assert [spec.w_u(t, 10) for t in range(12)] == [0.0] * 12


@pytest.mark.parametrize("kind", ["trimap", "pacmap", "tscne"])
def test_evaluate_needs_midnears_while_w_u_is_nonzero(kind):
    rng = np.random.default_rng(3)
    coords = rng.normal(size=(20, 2))
    batch = pair_batch([0, 1, 2], [3, 4, 5], rng.integers(6, 20, size=(3, 4)),
                       label_positives=[[1], [0], []])
    spec = LossSpec(kind=kind, m=4)
    with pytest.raises(SamplingError, match=f"^{kind} mid-near term needs mid-near"):
        evaluate(spec, batch, coords, epoch=0, n_epochs=10)
    assert spec.w_u(5, 10) == 0.0  # annealed: the term is not read
    assert np.isfinite(evaluate(spec, batch, coords, epoch=5, n_epochs=10).value)


def test_spec_validation():
    with pytest.raises(ValueError):
        LossSpec(kind="nope")
    with pytest.raises(ValueError):
        LossSpec(kind="umap", m=0)
    with pytest.raises(ValueError):
        LossSpec(kind="sscl", tau=0.0)


def test_supervised_flag():
    assert LossSpec(kind="supcon").supervised
    assert LossSpec(kind="tscne").supervised
    assert not LossSpec(kind="umap").supervised
