"""The unified contrastive loss family and its analytic coordinate gradients.

Every loss sees a PairBatch (anchor-positive edges plus sampled negatives,
optional mid-near and label-positive sets) and embedding coordinates, and
returns the scalar value plus the dense gradient over all coordinate rows,
zero outside the participating sample indices (with a per-sample view over
those). Gradients flow through the Cauchy kernel via d(loss)/d(d^2)
coefficients and through the temperature kernel via d(loss)/d(dist)
coefficients, accumulated pairwise so the contribution to i from a pair ij
is exactly the negation of the contribution to j.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import LossNumericsError, SamplingError
from .kernels import EPS_SQ_DIST, cauchy
from .sampling import DEFAULT_M, PairBatch, ScheduleSpec

LOSS_KINDS = (
    "tsne", "umap", "nce", "trimap", "pacmap", "infonce",
    "sscl", "snn", "supcon", "sup_snn", "tscne",
)
SUPERVISED_KINDS = ("supcon", "sup_snn", "tscne")
TEMPERATURE_KINDS = ("sscl", "snn", "supcon", "sup_snn")
MIDNEAR_KINDS = ("trimap", "pacmap", "tscne")

# Per-loss hyperparameter defaults, applied when the caller does not set the
# value explicitly. infonce benefits from a larger negative set; the
# supervised neighbor-embedding loss needs many negatives and a strong,
# slowly decaying mid-near weight to recover local graph structure, since
# its mid-near term is the only one tied to the neighbor graph.
LOSS_DEFAULTS = {
    "infonce": {"m": 10},
    "tscne": {"m": 15, "w_u_init": 10.0, "w_u_final": 2.0, "anneal_fraction": 1.0},
}


def loss_defaults(kind: str) -> dict:
    """Hyperparameter overrides recommended for one loss kind."""
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}; choose from {LOSS_KINDS}")
    return dict(LOSS_DEFAULTS.get(kind, {}))


def default_spec(kind: str, **overrides) -> "LossSpec":
    """LossSpec for `kind` with the per-loss defaults filled in.

    Schedule fields (w_p, w_u_init, w_u_final, anneal_fraction) may be passed
    flat; explicit overrides win over the per-loss defaults.
    """
    merged = loss_defaults(kind)
    merged.update(overrides)
    sched_keys = [f.name for f in fields(ScheduleSpec)]
    sched_kwargs = {k: merged.pop(k) for k in sched_keys if k in merged}
    if sched_kwargs and "schedule" not in merged:
        merged["schedule"] = ScheduleSpec(**sched_kwargs)
    return LossSpec(kind=kind, **merged)


@dataclass(frozen=True)
class LossSpec:
    """Selection of one loss from the family plus its hyperparameters.

    paper_as_written=True forces the formulas exactly as published,
    overriding log_ratio, corrected_pacmap_sign, and
    denominator_includes_positive.
    """

    kind: str = "umap"
    m: int = DEFAULT_M
    tau: float = 0.5
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)
    log_ratio: bool = False
    corrected_pacmap_sign: bool = True
    denominator_includes_positive: bool = False
    paper_as_written: bool = False

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}; choose from {LOSS_KINDS}")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not self.tau > 0:
            raise ValueError("tau must be positive")

    @property
    def use_log_ratio(self) -> bool:
        return self.log_ratio and not self.paper_as_written

    @property
    def use_corrected_pacmap(self) -> bool:
        return self.corrected_pacmap_sign and not self.paper_as_written

    @property
    def use_incl_positive(self) -> bool:
        return self.denominator_includes_positive and not self.paper_as_written

    @property
    def supervised(self) -> bool:
        return self.kind in SUPERVISED_KINDS

    def to_dict(self) -> dict:
        """The fields, with the schedule's merged in flat."""
        flat = asdict(self)
        flat.update(flat.pop("schedule"))
        return flat


@dataclass
class LossGrad:
    value: float
    grad: np.ndarray     # (N, d) gradient for every coordinate row
    touched: np.ndarray  # sorted sample indices with a contribution; grad is 0 elsewhere
    skipped_anchors: int = 0

    @property
    def grads(self) -> dict:  # per-sample view: touched index -> copy of its row
        return dict(zip(self.touched.tolist(), self.grad[self.touched]))


class _Accumulator:
    """Pairwise gradient accumulation over embedding coordinates. result()
    scatters all contributions at once, in call order: each row is the same
    left-to-right sum from 0.0 as scattering every call as it comes."""

    def __init__(self, coords):
        self.coords = coords
        self.rows = []
        self.contribs = []

    def _add(self, i, j, contrib):
        self.rows += [i, j]
        self.contribs += [contrib, -contrib]

    def add_sq(self, i, j, coef, diff):
        """coef = dL/d(d^2) per pair; chain through d^2 = ||z_i - z_j||^2,
        with diff = z_i - z_j as _phi returns it."""
        coef = np.asarray(coef, dtype=np.float64).ravel()
        self._add(np.asarray(i).ravel(), np.asarray(j).ravel(), (2.0 * coef)[:, None] * diff)

    def add_dist(self, i, j, coef, diff, dist):
        """coef = dL/d(dist) per pair; chain through dist = ||z_i - z_j||,
        with diff and dist as _dist returns them."""
        coef = np.asarray(coef, dtype=np.float64).ravel()
        self._add(np.asarray(i).ravel(), np.asarray(j).ravel(),
                  coef[:, None] * (diff / dist[:, None]))

    def result(self):
        """(dense N x d gradient, sorted touched indices)."""
        n, d = self.coords.shape
        grad = np.zeros((n, d))
        if not self.rows:
            return grad, np.zeros(0, dtype=np.intp)
        rows = np.concatenate(self.rows)
        w = np.concatenate(self.contribs)
        for c in range(d):
            grad[:, c] = np.bincount(rows, weights=w[:, c], minlength=n)
        return grad, np.flatnonzero(np.bincount(rows, minlength=n))


def _diff(coords, i, j):
    # take(): the same rows as coords[i], gathered several times faster.
    i, j = np.asarray(i).ravel(), np.asarray(j).ravel()
    return coords.take(i, axis=0) - coords.take(j, axis=0)


def _phi(coords, i, j):
    """(z_i - z_j, clamped d^2, Cauchy kernel) per pair; the difference goes
    on to _Accumulator.add_sq, so each pair set is gathered once."""
    diff = _diff(coords, i, j)
    s = np.maximum(np.einsum("bd,bd->b", diff, diff), EPS_SQ_DIST)
    return diff, s, cauchy(s)


def _dist(coords, i, j):
    """(z_i - z_j, clamped distance) per pair, for _Accumulator.add_dist."""
    diff = _diff(coords, i, j)
    return diff, np.maximum(np.sqrt(np.einsum("bd,bd->b", diff, diff)), 1e-30)


def _negatives(batch, rows=slice(None)):
    """(i, j) of every (anchor, negative) pair of the batch rows `rows`, row
    by row: each anchor repeated m times, against its m negatives."""
    return np.repeat(batch.anchors[rows], batch.m), batch.negatives[rows].ravel()


def _lse_rows(a):
    mx = a.max(axis=1)
    w = np.exp(a - mx[:, None])
    tot = w.sum(axis=1)
    return mx + np.log(tot), w / tot[:, None]


def _segments(sizes):
    starts = np.zeros(len(sizes), dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    return starts


def _segment_lse(a_flat, sizes):
    starts = _segments(sizes)
    mx = np.maximum.reduceat(a_flat, starts)
    seg = np.repeat(np.arange(len(sizes)), sizes)
    w = np.exp(a_flat - mx[seg])
    tot = np.add.reduceat(w, starts)
    lse = mx + np.log(tot)
    return lse, w / tot[seg], seg


# --- Cauchy-kernel losses ---------------------------------------------------

def _loss_tsne(batch, coords, spec, w_u, acc):
    i, j = batch.anchors, batch.positives
    diff, _, phi = _phi(coords, i, j)
    b = len(i)
    total = phi.sum()
    value = -np.log(phi).mean() + np.log(total)
    dphi = -1.0 / (b * phi) + 1.0 / total
    acc.add_sq(i, j, dphi * (-phi ** 2), diff)
    return value, 0


def _loss_umap(batch, coords, spec, w_u, acc):
    i, j = batch.anchors, batch.positives
    b = len(i)
    diff_p, _, phi_p = _phi(coords, i, j)
    i_n, j_n = _negatives(batch)
    diff_n, s_n, phi_n = _phi(coords, i_n, j_n)
    # 1 - phi = d^2/(d^2+1), computed as s*phi for accuracy near phi=1
    value = -(np.log(phi_p).sum() + np.log(s_n * phi_n).sum()) / b
    acc.add_sq(i, j, phi_p / b, diff_p)
    acc.add_sq(i_n, j_n, -(1.0 / s_n - phi_n) / b, diff_n)
    return value, 0


def _loss_trimap(batch, coords, spec, w_u, acc):
    i, j = batch.anchors, batch.positives
    b = len(i)
    diff_p, _, u = _phi(coords, i, j)
    i_n, j_n = _negatives(batch)
    diff_n, _, v_flat = _phi(coords, i_n, j_n)
    v = v_flat.reshape(b, batch.m)
    denom = u[:, None] + v
    ratio = u[:, None] / denom
    if spec.use_log_ratio:
        value = -np.log(ratio).sum() / b
        du = -(batch.m / u - (1.0 / denom).sum(axis=1)) / b
        dv = (1.0 / denom) / b
    else:
        value = -ratio.sum() / b
        du = -(v / denom ** 2).sum(axis=1) / b
        dv = (u[:, None] / denom ** 2) / b
    acc.add_sq(i, j, du * (-u ** 2), diff_p)
    acc.add_sq(i_n, j_n, dv.ravel() * (-v_flat ** 2), diff_n)
    if w_u != 0.0:
        if batch.midnears is None or batch.midnears.shape[1] < 2:
            raise SamplingError("trimap mid-near term needs >= 2 mid-near indices per anchor")
        jm, km = batch.midnears[:, 0], batch.midnears[:, 1]
        diff_j, _, um = _phi(coords, i, jm)
        diff_k, _, vm = _phi(coords, i, km)
        dm = um + vm
        if spec.use_log_ratio:
            value += -w_u * np.log(um / dm).sum() / b
            dum = -w_u * (1.0 / um - 1.0 / dm) / b
            dvm = w_u * (1.0 / dm) / b
        else:
            value += -w_u * (um / dm).sum() / b
            dum = -w_u * (vm / dm ** 2) / b
            dvm = w_u * (um / dm ** 2) / b
        acc.add_sq(i, jm, dum * (-um ** 2), diff_j)
        acc.add_sq(i, km, dvm * (-vm ** 2), diff_k)
    return value, 0


def _loss_pacmap(batch, coords, spec, w_u, acc):
    i, j = batch.anchors, batch.positives
    b = len(i)
    w_p = spec.schedule.w_p
    diff_p, _, phi_p = _phi(coords, i, j)
    value = -w_p * (phi_p / (phi_p + 1.0)).sum() / b
    acc.add_sq(i, j, (w_p / b) * phi_p ** 2 / (phi_p + 1.0) ** 2, diff_p)
    if w_u != 0.0:
        if batch.midnears is None:
            raise SamplingError("pacmap mid-near term needs mid-near indices")
        i_m = np.repeat(i, batch.midnears.shape[1])
        j_m = batch.midnears.ravel()
        diff_m, _, phi_m = _phi(coords, i_m, j_m)
        value += -w_u * (phi_m / (phi_m + 1.0)).sum() / b
        acc.add_sq(i_m, j_m, (w_u / b) * phi_m ** 2 / (phi_m + 1.0) ** 2, diff_m)
    i_n, j_n = _negatives(batch)
    diff_n, _, phi_n = _phi(coords, i_n, j_n)
    g_n = phi_n / (phi_n + 1.0)
    if spec.use_corrected_pacmap:
        value += g_n.sum() / b
    else:
        # As published: constant offset relative to the corrected form,
        # identical gradient.
        value += -(1.0 - g_n).sum() / b
    acc.add_sq(i_n, j_n, -(1.0 / b) * phi_n ** 2 / (phi_n + 1.0) ** 2, diff_n)
    return value, 0


def _loss_infonce(batch, coords, spec, w_u, acc):
    i, j = batch.anchors, batch.positives
    b = len(i)
    diff_p, _, u = _phi(coords, i, j)
    i_n, j_n = _negatives(batch)
    diff_n, _, v_flat = _phi(coords, i_n, j_n)
    v_sum = v_flat.reshape(b, batch.m).sum(axis=1)
    total = u + v_sum
    value = -(np.log(u) - np.log(total)).mean()
    du = -(1.0 / u - 1.0 / total) / b
    dv = np.repeat(1.0 / (b * total), batch.m)
    acc.add_sq(i, j, du * (-u ** 2), diff_p)
    acc.add_sq(i_n, j_n, dv * (-v_flat ** 2), diff_n)
    return value, 0


# --- Temperature-kernel losses ----------------------------------------------

def _loss_sscl(batch, coords, spec, w_u, acc):
    tau = spec.tau
    i, j = batch.anchors, batch.positives
    b = len(i)
    diff_p, d_p = _dist(coords, i, j)
    i_n, j_n = _negatives(batch)
    diff_n, d_n_flat = _dist(coords, i_n, j_n)
    a_n = -d_n_flat.reshape(b, batch.m) / tau
    if spec.use_incl_positive:
        a = np.column_stack([-d_p / tau, a_n])
        lse, soft = _lse_rows(a)
        coef_p = (1.0 - soft[:, 0]) / (tau * b)
        soft_n = soft[:, 1:]
    else:
        lse, soft_n = _lse_rows(a_n)
        coef_p = np.full(b, 1.0 / (tau * b))
    value = (d_p / tau + lse).mean()
    acc.add_dist(i, j, coef_p, diff_p, d_p)
    acc.add_dist(i_n, j_n, (-soft_n / (tau * b)).ravel(), diff_n, d_n_flat)
    return value, 0


def _loss_snn(batch, coords, spec, w_u, acc):
    tau = spec.tau
    anchors = batch.anchors
    order = np.argsort(anchors, kind="stable")
    uniq, group_start = np.unique(anchors[order], return_index=True)
    sizes = np.diff(np.append(group_start, len(anchors)))
    n_groups = len(uniq)
    rows = order  # rows grouped contiguously by anchor
    i_p = anchors[rows]
    j_p = batch.positives[rows]
    diff_p, d_p = _dist(coords, i_p, j_p)
    lse_p, soft_p, _ = _segment_lse(-d_p / tau, sizes)
    i_n, j_n = _negatives(batch, rows)
    diff_n, d_n = _dist(coords, i_n, j_n)
    lse_n, soft_n, _ = _segment_lse(-d_n / tau, sizes * batch.m)
    value = (-lse_p + lse_n).sum() / n_groups
    acc.add_dist(i_p, j_p, soft_p / (tau * n_groups), diff_p, d_p)
    acc.add_dist(i_n, j_n, -soft_n / (tau * n_groups), diff_n, d_n)
    return value, 0


def _label_pairs(batch):
    """(sizes, keep, rows, i, j) of the batch's label positives: set size per
    anchor, the anchors with a non-empty set, and every (anchor, label
    positive) pair in anchor order as its batch row and its two sample
    indices."""
    lp = batch.label_positives
    if lp is None:
        raise SamplingError("supervised loss requires label positives in the batch")
    sizes = np.diff(lp.offsets)
    rows = np.repeat(np.arange(batch.size), sizes)
    return (sizes, np.flatnonzero(sizes), rows,
            batch.anchors[rows], batch.anchors[lp.positions])


def _loss_supcon(batch, coords, spec, w_u, acc):
    tau = spec.tau
    sizes, keep, rows, i_flat, j_flat = _label_pairs(batch)
    skipped = batch.size - len(keep)
    if len(keep) == 0:
        return 0.0, skipped
    bc = len(keep)
    diff_p, d_pj = _dist(coords, i_flat, j_flat)
    inv_sz = 1.0 / sizes[rows]
    i_n, j_n = _negatives(batch, keep)
    diff_n, d_n_flat = _dist(coords, i_n, j_n)
    d_n = d_n_flat.reshape(bc, batch.m)
    if spec.use_incl_positive:
        # Per-positive denominator: its own similarity joins the negatives.
        pos_in_keep = np.searchsorted(keep, rows)
        a = np.column_stack([-d_pj / tau, -d_n[pos_in_keep] / tau])
        lse, soft = _lse_rows(a)
        value = ((d_pj / tau + lse) * inv_sz).sum() / bc
        acc.add_dist(i_flat, j_flat, (1.0 - soft[:, 0]) * inv_sz / (tau * bc), diff_p, d_pj)
        coef_n = -(soft[:, 1:] * inv_sz[:, None]) / (tau * bc)
        d = coords.shape[1]
        acc.add_dist(*_negatives(batch, rows), coef_n.ravel(),
                     diff_n.reshape(bc, batch.m, d)[pos_in_keep].reshape(-1, d),
                     d_n[pos_in_keep].ravel())
    else:
        lse_n, soft_n = _lse_rows(-d_n / tau)
        value = ((d_pj / tau) * inv_sz).sum() / bc + lse_n.sum() / bc
        acc.add_dist(i_flat, j_flat, inv_sz / (tau * bc), diff_p, d_pj)
        acc.add_dist(i_n, j_n, (-soft_n / (tau * bc)).ravel(), diff_n, d_n_flat)
    return value, skipped


def _loss_sup_snn(batch, coords, spec, w_u, acc):
    tau = spec.tau
    sizes, keep, rows, i_flat, j_flat = _label_pairs(batch)
    skipped = batch.size - len(keep)
    if len(keep) == 0:
        return 0.0, skipped
    bc = len(keep)
    diff_p, d_pj = _dist(coords, i_flat, j_flat)
    lse_p, soft_p, _ = _segment_lse(-d_pj / tau, sizes[keep])
    i_n, j_n = _negatives(batch, keep)
    diff_n, d_n = _dist(coords, i_n, j_n)
    lse_n, soft_n = _lse_rows(-d_n.reshape(bc, batch.m) / tau)
    # -log( (1/|P|) sum e_p / sum e_n )
    value = (-lse_p + np.log(sizes[keep]) + lse_n).sum() / bc
    acc.add_dist(i_flat, j_flat, soft_p / (tau * bc), diff_p, d_pj)
    acc.add_dist(i_n, j_n, (-soft_n / (tau * bc)).ravel(), diff_n, d_n)
    return value, skipped


def _loss_tscne(batch, coords, spec, w_u, acc):
    sizes, keep, rows, i_flat, j_flat = _label_pairs(batch)
    skipped = batch.size - len(keep)
    if len(keep) == 0:
        return 0.0, skipped
    bc = len(keep)
    anchors = batch.anchors
    diff_p, _, u = _phi(coords, i_flat, j_flat)
    inv_sz = 1.0 / sizes[rows]
    i_n, j_n = _negatives(batch, keep)
    diff_n, _, phi_n = _phi(coords, i_n, j_n)
    v = phi_n.reshape(bc, batch.m).sum(axis=1)
    v_rows = v[np.searchsorted(keep, rows)]
    starts = _segments(sizes[keep])
    if spec.use_log_ratio:
        value = -(np.log(u / (u + v_rows)) * inv_sz).sum() / bc
        du = -(1.0 / u - 1.0 / (u + v_rows)) * inv_sz / bc
        seg_sum = np.add.reduceat(inv_sz / (u + v_rows), starts)
        dv = seg_sum / bc
    else:
        value = -((u / v_rows) * inv_sz).sum() / bc
        du = -(1.0 / v_rows) * inv_sz / bc
        seg_sum = np.add.reduceat(inv_sz * u, starts)
        dv = seg_sum / (v ** 2) / bc
    acc.add_sq(i_flat, j_flat, du * (-u ** 2), diff_p)
    acc.add_sq(i_n, j_n, np.repeat(dv, batch.m) * (-phi_n ** 2), diff_n)
    if w_u != 0.0:
        if batch.midnears is None:
            raise SamplingError("tscne mid-near term needs mid-near indices")
        i_k, j_k = anchors[keep], batch.positives[keep]
        diff_k, _, up = _phi(coords, i_k, j_k)
        n_mid = batch.midnears.shape[1]
        i_m = np.repeat(i_k, n_mid)
        j_m = batch.midnears[keep].ravel()
        diff_m, _, phi_m = _phi(coords, i_m, j_m)
        w = phi_m.reshape(bc, n_mid).sum(axis=1)
        if spec.use_log_ratio:
            value += -w_u * np.log(up / (up + w)).sum() / bc
            dup = -w_u * (1.0 / up - 1.0 / (up + w)) / bc
            dm = np.repeat(w_u / (up + w) / bc, n_mid)
        else:
            value += -w_u * (up / w).sum() / bc
            dup = -w_u / (w * bc)
            dm = np.repeat(w_u * up / (w ** 2) / bc, n_mid)
        acc.add_sq(i_k, j_k, dup * (-up ** 2), diff_k)
        acc.add_sq(i_m, j_m, dm * (-phi_m ** 2), diff_m)
    return value, skipped


_LOSS_FUNCS = {
    "tsne": _loss_tsne,
    "umap": _loss_umap,
    "nce": _loss_umap,  # Identical form under the binary-affinity setup.
    "trimap": _loss_trimap,
    "pacmap": _loss_pacmap,
    "infonce": _loss_infonce,
    "sscl": _loss_sscl,
    "snn": _loss_snn,
    "supcon": _loss_supcon,
    "sup_snn": _loss_sup_snn,
    "tscne": _loss_tscne,
}


def evaluate(spec: LossSpec, batch: PairBatch, coords, epoch: int = 0,
             n_epochs: int = 1) -> LossGrad:
    """Evaluate the selected loss and its analytic gradient on one batch."""
    coords = np.asarray(coords, dtype=np.float64)
    if not np.all(np.isfinite(coords)):
        raise LossNumericsError("coordinates contain non-finite values")
    lo, hi = batch.all_indices()[[0, -1]]
    if lo < 0 or hi >= len(coords):
        raise LossNumericsError(f"batch indices {lo}..{hi} outside 0..{len(coords) - 1}")
    lp = batch.label_positives
    if lp is not None:
        off, b = lp.offsets, batch.size
        if (len(off) != b + 1 or off[0] != 0 or off[-1] != len(lp.positions)
                or np.any(off[1:] < off[:-1])):
            raise LossNumericsError("label-positive offsets are not a CSR partition "
                                    f"of {len(lp.positions)} positions over {b} anchors")
        if len(lp.positions) and (lp.positions.min() < 0 or lp.positions.max() >= b):
            raise LossNumericsError(f"label-positive positions outside 0..{b - 1}")
    w_u = spec.schedule.w_u(epoch, n_epochs) if spec.kind in MIDNEAR_KINDS else 0.0
    acc = _Accumulator(coords)
    with np.errstate(all="ignore"):  # overflow is reported below, not warned about
        value, skipped = _LOSS_FUNCS[spec.kind](batch, coords, spec, w_u, acc)
        grad, touched = acc.result()
    if not np.isfinite(value):
        raise LossNumericsError(f"loss {spec.kind!r} produced non-finite value")
    if not np.all(np.isfinite(grad)):
        bad = np.nonzero(~np.isfinite(grad))[0][0]
        raise LossNumericsError(f"loss {spec.kind!r}: non-finite gradient for sample {bad}")
    return LossGrad(value=float(value), grad=grad, touched=touched,
                    skipped_anchors=skipped)


def grad_check(spec: LossSpec, batch: PairBatch, coords, eps: float = 1e-5,
               epoch: int = 0, n_epochs: int = 1, corrupt: float = 0.0) -> float:
    """Max relative error of the analytic gradient against central finite
    differences over every participating coordinate. `corrupt` is added to the
    analytic gradient of the smallest participating index (negative control)."""
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError("eps must lie in [1e-7, 1e-3]")
    coords = np.array(coords, dtype=np.float64)
    indices = batch.all_indices()
    grad = evaluate(spec, batch, coords, epoch, n_epochs).grad
    grad[indices[0]] += corrupt
    max_err = 0.0
    for idx in indices:
        for c in range(coords.shape[1]):
            orig = coords[idx, c]
            coords[idx, c] = orig + eps
            v_plus = evaluate(spec, batch, coords, epoch, n_epochs).value
            coords[idx, c] = orig - eps
            v_minus = evaluate(spec, batch, coords, epoch, n_epochs).value
            coords[idx, c] = orig
            numeric = (v_plus - v_minus) / (2.0 * eps)
            err = abs(grad[idx, c] - numeric) / max(1.0, abs(numeric))
            max_err = max(max_err, err)
    return max_err
