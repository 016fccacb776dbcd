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

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigError, LossNumericsError, SamplingError
from .kernels import EPS_SQ_DIST, cauchy
from .sampling import DEFAULT_M, PairBatch, ScheduleSpec

LOSS_KINDS = (
    "tsne", "umap", "nce", "trimap", "pacmap", "infonce",
    "sscl", "snn", "supcon", "sup_snn", "tscne",
)
SUPERVISED_KINDS = ("supcon", "sup_snn", "tscne")
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
        raise ConfigError(f"unknown loss kind {kind!r}; choose from {LOSS_KINDS}")
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
            raise ConfigError(f"unknown loss kind {self.kind!r}; choose from {LOSS_KINDS}")
        if self.m < 1:
            raise ConfigError("m must be >= 1")
        if not 0 < self.tau < math.inf:
            raise ConfigError("tau must be positive and finite")

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
    grad: np.ndarray  # (N, d) gradient for every coordinate row
    rows: np.ndarray  # the row of every accumulated contribution, repeats included
    skipped_anchors: int = 0

    @property
    def touched(self) -> np.ndarray:  # sorted rows with a contribution; grad is 0 elsewhere
        return np.flatnonzero(np.bincount(self.rows, minlength=len(self.grad)))

    @property
    def grads(self) -> dict:  # per-sample view: touched index -> copy of its row
        return dict(zip((touched := self.touched).tolist(), self.grad[touched]))


class _Accumulator:
    """Pairwise gradient accumulation over embedding coordinates, one array
    per coordinate. result() scatters all contributions at once, in call
    order: each row is the same left-to-right sum from 0.0 as scattering every
    call as it comes."""

    def __init__(self, cols):
        self.d, self.n = cols.shape
        self.rows = []
        self.contribs = [[] for _ in range(self.d)]  # per coordinate, in call order

    def _add(self, i, j, contrib):
        self.rows += [i, j]
        for parts, x in zip(self.contribs, contrib):
            parts += [x, -x]

    def add_sq(self, i, j, coef, diff):
        """coef = dL/d(d^2) per pair; chain through d^2 = ||z_i - z_j||^2,
        with diff = z_i - z_j as _phi returns it."""
        coef = 2.0 * coef
        self._add(i, j, [coef * x for x in diff])

    def add_dist(self, i, j, coef, diff, dist):
        """coef = dL/d(dist) per pair; chain through dist = ||z_i - z_j||,
        with diff and dist as _dist returns them."""
        self._add(i, j, [coef * (x / dist) for x in diff])

    def result(self):
        """(dense N x d gradient, the row of every contribution)."""
        grad = np.zeros((self.n, self.d))
        if not self.rows:
            return grad, np.zeros(0, dtype=np.intp)
        rows = np.concatenate(self.rows)
        for c, parts in enumerate(self.contribs):
            grad[:, c] = np.bincount(rows, weights=np.concatenate(parts), minlength=self.n)
        return grad, rows


def _diff(cols, i, j):
    """z_i - z_j per pair, one contiguous array per coordinate."""
    return [c.take(i) - c.take(j) for c in cols]


def _sq(diff):
    """||z_i - z_j||^2 per pair, summed coordinate by coordinate."""
    s = diff[0] * diff[0]
    for x in diff[1:]:
        s += x * x
    return s


def _phi(cols, i, j):
    """(z_i - z_j, clamped d^2, Cauchy kernel) per pair; the difference goes
    on to _Accumulator.add_sq, so each pair set is gathered once."""
    diff = _diff(cols, i, j)
    s = np.maximum(_sq(diff), EPS_SQ_DIST)
    return diff, s, cauchy(s)


def _dist(cols, i, j):
    """(z_i - z_j, clamped distance) per pair, for _Accumulator.add_dist."""
    diff = _diff(cols, i, j)
    return diff, np.maximum(np.sqrt(_sq(diff)), 1e-30)


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
    return np.cumsum(sizes) - sizes


def _segment_lse(a_flat, sizes):
    starts = _segments(sizes)
    mx = np.maximum.reduceat(a_flat, starts)
    seg = np.repeat(np.arange(len(sizes)), sizes)
    w = np.exp(a_flat - mx[seg])
    tot = np.add.reduceat(w, starts)
    lse = mx + np.log(tot)
    return lse, w / tot[seg]


# --- Cauchy-kernel losses ---------------------------------------------------

def _loss_tsne(batch, cols, spec, w_u, acc):
    i, j = batch.anchors, batch.positives
    diff, _, phi = _phi(cols, i, j)
    b = len(i)
    total = phi.sum()
    value = -np.log(phi).mean() + np.log(total)
    dphi = -1.0 / (b * phi) + 1.0 / total
    acc.add_sq(i, j, dphi * (-phi ** 2), diff)
    return value


def _loss_umap(batch, cols, spec, w_u, acc):
    i, j = batch.anchors, batch.positives
    b = len(i)
    diff_p, _, phi_p = _phi(cols, i, j)
    i_n, j_n = _negatives(batch)
    diff_n, s_n, phi_n = _phi(cols, i_n, j_n)
    # 1 - phi = d^2/(d^2+1), computed as s*phi for accuracy near phi=1
    value = -(np.log(phi_p).sum() + np.log(s_n * phi_n).sum()) / b
    acc.add_sq(i, j, phi_p / b, diff_p)
    acc.add_sq(i_n, j_n, -(1.0 / s_n - phi_n) / b, diff_n)
    return value


def _triplets(acc, cols, i, j, k, w, b, log):
    """The triplet term -w/b * sum u/(u+v), or of log(u/(u+v)) when `log`, with
    u = phi(i[r], j[r]) and v = phi(i[r], k[r, c]) for every column c of k. Adds
    its gradient to acc and returns its value."""
    m = k.shape[1]
    i_k, j_k = np.repeat(i, m), k.ravel()
    diff_p, _, u = _phi(cols, i, j)
    diff_n, _, v_flat = _phi(cols, i_k, j_k)
    v = v_flat.reshape(b, m)
    denom = u[:, None] + v
    if log:
        value = -w * np.log(u[:, None] / denom).sum() / b
        du = -w * (m / u - (1.0 / denom).sum(axis=1)) / b
        dv = w * (1.0 / denom) / b
    else:
        value = -w * (u[:, None] / denom).sum() / b
        du = -w * (v / denom ** 2).sum(axis=1) / b
        dv = w * (u[:, None] / denom ** 2) / b
    acc.add_sq(i, j, du * (-u ** 2), diff_p)
    acc.add_sq(i_k, j_k, dv.ravel() * (-v_flat ** 2), diff_n)
    return value


def _loss_trimap(batch, cols, spec, w_u, acc):
    i, b, log = batch.anchors, batch.size, spec.use_log_ratio
    value = _triplets(acc, cols, i, batch.positives, batch.negatives, 1.0, b, log)
    if w_u != 0.0:
        mid = batch.midnears
        if mid.shape[1] < 2:
            raise SamplingError("trimap mid-near term needs >= 2 mid-near indices per anchor")
        # The same ratio, the first mid-near as inlier and the second as outlier.
        value += _triplets(acc, cols, i, mid[:, 0], mid[:, 1:2], w_u, b, log)
    return value


def _bounded(acc, cols, i, j, coef):
    """Adds coef * phi^2/(phi+1)^2 per pair as dL/d(d^2), the gradient of
    -coef * phi/(phi+1), and returns phi/(phi+1)."""
    diff, _, phi = _phi(cols, i, j)
    acc.add_sq(i, j, coef * phi ** 2 / (phi + 1.0) ** 2, diff)
    return phi / (phi + 1.0)


def _loss_pacmap(batch, cols, spec, w_u, acc):
    i = batch.anchors
    b = len(i)
    w_p = spec.schedule.w_p
    value = -w_p * _bounded(acc, cols, i, batch.positives, w_p / b).sum() / b
    if w_u != 0.0:
        value += -w_u * _bounded(acc, cols, np.repeat(i, batch.midnears.shape[1]),
                                 batch.midnears.ravel(), w_u / b).sum() / b
    g_n = _bounded(acc, cols, *_negatives(batch), -1.0 / b)
    # As published: a constant offset from the corrected form, the same gradient.
    value += g_n.sum() / b if spec.use_corrected_pacmap else -(1.0 - g_n).sum() / b
    return value


def _loss_infonce(batch, cols, spec, w_u, acc):
    i, j = batch.anchors, batch.positives
    b = len(i)
    diff_p, _, u = _phi(cols, i, j)
    i_n, j_n = _negatives(batch)
    diff_n, _, v_flat = _phi(cols, i_n, j_n)
    v_sum = v_flat.reshape(b, batch.m).sum(axis=1)
    total = u + v_sum
    value = -(np.log(u) - np.log(total)).mean()
    du = -(1.0 / u - 1.0 / total) / b
    dv = np.repeat(1.0 / (b * total), batch.m)
    acc.add_sq(i, j, du * (-u ** 2), diff_p)
    acc.add_sq(i_n, j_n, dv * (-v_flat ** 2), diff_n)
    return value


# --- Temperature-kernel losses ----------------------------------------------

def _loss_sscl(batch, cols, spec, w_u, acc):
    tau = spec.tau
    i, j = batch.anchors, batch.positives
    b = len(i)
    diff_p, d_p = _dist(cols, i, j)
    i_n, j_n = _negatives(batch)
    diff_n, d_n_flat = _dist(cols, i_n, j_n)
    a_n = -d_n_flat.reshape(b, batch.m) / tau
    if spec.use_incl_positive:
        lse, soft = _lse_rows(np.column_stack([-d_p / tau, a_n]))
        coef_p = (1.0 - soft[:, 0]) / (tau * b)
        soft_n = soft[:, 1:]
    else:
        lse, soft_n = _lse_rows(a_n)
        coef_p = np.full(b, 1.0 / (tau * b))
    value = (d_p / tau + lse).mean()
    acc.add_dist(i, j, coef_p, diff_p, d_p)
    acc.add_dist(i_n, j_n, (-soft_n / (tau * b)).ravel(), diff_n, d_n_flat)
    return value


def _loss_snn(batch, cols, spec, w_u, acc):
    tau = spec.tau
    rows = np.argsort(batch.anchors, kind="stable")  # grouped by anchor
    i_p, j_p = batch.anchors[rows], batch.positives[rows]
    sizes = np.unique(i_p, return_counts=True)[1]
    n_groups = len(sizes)
    diff_p, d_p = _dist(cols, i_p, j_p)
    lse_p, soft_p = _segment_lse(-d_p / tau, sizes)
    i_n, j_n = _negatives(batch, rows)
    diff_n, d_n = _dist(cols, i_n, j_n)
    lse_n, soft_n = _segment_lse(-d_n / tau, sizes * batch.m)
    value = (-lse_p + lse_n).sum() / n_groups
    acc.add_dist(i_p, j_p, soft_p / (tau * n_groups), diff_p, d_p)
    acc.add_dist(i_n, j_n, -soft_n / (tau * n_groups), diff_n, d_n)
    return value


def _label_pairs(batch):
    """(sizes, keep, rows, i, j, i_n, j_n) of the batch's label positives: set
    size per anchor, the anchors with a non-empty set, every (anchor, label
    positive) pair in anchor order as its batch row and its two sample
    indices, and the kept anchors' negative pairs as _negatives gives them."""
    lp = batch.label_positives
    sizes = np.diff(lp.offsets)
    keep = np.flatnonzero(sizes)
    rows = np.repeat(np.arange(batch.size), sizes)
    return (sizes, keep, rows, batch.anchors[rows], batch.anchors[lp.positions],
            *_negatives(batch, keep))


def _loss_supcon(batch, cols, spec, w_u, acc):
    tau = spec.tau
    sizes, keep, rows, i_flat, j_flat, i_n, j_n = _label_pairs(batch)
    bc = len(keep)
    diff_p, d_pj = _dist(cols, i_flat, j_flat)
    inv_sz = 1.0 / sizes[rows]
    diff_n, d_n_flat = _dist(cols, i_n, j_n)
    d_n = d_n_flat.reshape(bc, batch.m)
    if spec.use_incl_positive:
        # Per-positive denominator: its own similarity joins the negatives.
        pos_in_keep = (np.cumsum(sizes > 0) - 1)[rows]
        lse, soft = _lse_rows(np.column_stack([-d_pj / tau, -d_n[pos_in_keep] / tau]))
        value = ((d_pj / tau + lse) * inv_sz).sum() / bc
        acc.add_dist(i_flat, j_flat, (1.0 - soft[:, 0]) * inv_sz / (tau * bc), diff_p, d_pj)
        coef_n = -(soft[:, 1:] * inv_sz[:, None]) / (tau * bc)
        acc.add_dist(*_negatives(batch, rows), coef_n.ravel(),
                     [x.reshape(bc, batch.m)[pos_in_keep].ravel() for x in diff_n],
                     d_n[pos_in_keep].ravel())
    else:
        lse_n, soft_n = _lse_rows(-d_n / tau)
        value = ((d_pj / tau) * inv_sz).sum() / bc + lse_n.sum() / bc
        acc.add_dist(i_flat, j_flat, inv_sz / (tau * bc), diff_p, d_pj)
        acc.add_dist(i_n, j_n, (-soft_n / (tau * bc)).ravel(), diff_n, d_n_flat)
    return value


def _loss_sup_snn(batch, cols, spec, w_u, acc):
    tau = spec.tau
    sizes, keep, rows, i_flat, j_flat, i_n, j_n = _label_pairs(batch)
    bc = len(keep)
    diff_p, d_pj = _dist(cols, i_flat, j_flat)
    lse_p, soft_p = _segment_lse(-d_pj / tau, sizes[keep])
    diff_n, d_n = _dist(cols, i_n, j_n)
    lse_n, soft_n = _lse_rows(-d_n.reshape(bc, batch.m) / tau)
    # -log( (1/|P|) sum e_p / sum e_n )
    value = (-lse_p + np.log(sizes[keep]) + lse_n).sum() / bc
    acc.add_dist(i_flat, j_flat, soft_p / (tau * bc), diff_p, d_pj)
    acc.add_dist(i_n, j_n, (-soft_n / (tau * bc)).ravel(), diff_n, d_n)
    return value


def _loss_tscne(batch, cols, spec, w_u, acc):
    sizes, keep, rows, i_flat, j_flat, i_n, j_n = _label_pairs(batch)
    bc = len(keep)
    diff_p, _, u = _phi(cols, i_flat, j_flat)
    inv_sz = 1.0 / sizes[rows]
    diff_n, _, phi_n = _phi(cols, i_n, j_n)
    v = phi_n.reshape(bc, batch.m).sum(axis=1)
    v_rows = v[(np.cumsum(sizes > 0) - 1)[rows]]
    starts = _segments(sizes[keep])
    if spec.use_log_ratio:
        value = -(np.log(u / (u + v_rows)) * inv_sz).sum() / bc
        du = -(1.0 / u - 1.0 / (u + v_rows)) * inv_sz / bc
        dv = np.add.reduceat(inv_sz / (u + v_rows), starts) / bc
    else:
        value = -((u / v_rows) * inv_sz).sum() / bc
        du = -(1.0 / v_rows) * inv_sz / bc
        dv = np.add.reduceat(inv_sz * u, starts) / (v ** 2) / bc
    acc.add_sq(i_flat, j_flat, du * (-u ** 2), diff_p)
    acc.add_sq(i_n, j_n, np.repeat(dv, batch.m) * (-phi_n ** 2), diff_n)
    if w_u != 0.0:
        i_k, j_k = batch.anchors[keep], batch.positives[keep]
        diff_k, _, up = _phi(cols, i_k, j_k)
        n_mid = batch.midnears.shape[1]
        i_m = np.repeat(i_k, n_mid)
        j_m = batch.midnears[keep].ravel()
        diff_m, _, phi_m = _phi(cols, i_m, j_m)
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
    return value


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
    parts = [p for p in (batch.anchors, batch.positives, batch.negatives, batch.midnears)
             if p is not None]
    lo, hi = min(np.min(p) for p in parts), max(np.max(p) for p in parts)
    if lo < 0 or hi >= len(coords):
        raise LossNumericsError(f"batch indices {lo}..{hi} outside 0..{len(coords) - 1}")
    lp, skipped = batch.label_positives, 0
    if spec.supervised and lp is None:
        raise SamplingError("supervised loss requires label positives in the batch")
    if lp is not None:
        off, b = lp.offsets, batch.size
        if (len(off) != b + 1 or off[0] != 0 or off[-1] != len(lp.positions)
                or np.any(off[1:] < off[:-1])):
            raise LossNumericsError("label-positive offsets are not a CSR partition "
                                    f"of {len(lp.positions)} positions over {b} anchors")
        if len(lp.positions) and (lp.positions.min() < 0 or lp.positions.max() >= b):
            raise LossNumericsError(f"label-positive positions outside 0..{b - 1}")
        if spec.supervised:  # an anchor with an empty set is skipped
            skipped = b - np.count_nonzero(np.diff(off))
    w_u = spec.schedule.w_u(epoch, n_epochs) if spec.kind in MIDNEAR_KINDS else 0.0
    if w_u != 0.0 and batch.midnears is None:
        raise SamplingError(f"{spec.kind} mid-near term needs mid-near indices in the batch")
    cols = coords.T.copy()  # one contiguous array per coordinate
    acc = _Accumulator(cols)
    with np.errstate(all="ignore"):  # overflow is reported below, not warned about
        # With every anchor skipped the loss is 0 and so is its gradient.
        value = (_LOSS_FUNCS[spec.kind](batch, cols, spec, w_u, acc)
                 if skipped < batch.size else 0.0)
        grad, rows = acc.result()
    if not np.isfinite(value):
        raise LossNumericsError(f"loss {spec.kind!r} produced non-finite value")
    if not np.all(np.isfinite(grad)):
        bad = np.nonzero(~np.isfinite(grad))[0][0]
        raise LossNumericsError(f"loss {spec.kind!r}: non-finite gradient for sample {bad}")
    return LossGrad(value=float(value), grad=grad, rows=rows,
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
