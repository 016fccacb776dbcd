"""The unified contrastive loss family and its analytic coordinate gradients.

Every loss sees a PairBatch (anchor-positive edges plus sampled negatives,
optional mid-near and label-positive sets) and embedding coordinates, and
returns the scalar value plus the dense gradient over all coordinate rows,
zero outside the participating sample indices (with a per-sample view over
those). Gradients flow through d(loss)/d(d^2) coefficients, accumulated
pairwise so the contribution to i from a pair ij is exactly the negation of
the contribution to j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LossNumericsError, SamplingError
from .kernels import EPS_SQ_DIST, cauchy_unchecked
from .sampling import DEFAULT_M, LabelPositives, PairBatch

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
    """LossSpec for `kind`: its per-loss defaults, with `overrides` winning."""
    return LossSpec(kind=kind, **{**loss_defaults(kind), **overrides})


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
    log_ratio: bool = False
    corrected_pacmap_sign: bool = True
    denominator_includes_positive: bool = False
    paper_as_written: bool = False
    # pacmap's positive weight; the mid-near weight w_u() goes linearly from
    # w_u_init to w_u_final over the first anneal_fraction of the epochs.
    w_p: float = 1.0
    w_u_init: float = 1.0
    w_u_final: float = 0.0
    anneal_fraction: float = 0.5

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ConfigError(f"unknown loss kind {self.kind!r}; choose from {LOSS_KINDS}")
        if self.m < 1:
            raise ConfigError("m must be >= 1")
        if not 0 < self.tau < math.inf:
            raise ConfigError("tau must be positive and finite")
        if not 0 < self.w_p < math.inf:
            raise ConfigError("w_p must be positive and finite")
        if not (0 <= self.w_u_init < math.inf and 0 <= self.w_u_final < math.inf):
            raise ConfigError("mid-near weights must be non-negative and finite")
        if not 0.0 <= self.anneal_fraction <= 1.0:
            raise ConfigError("anneal_fraction must lie in [0, 1]")

    def w_u(self, epoch: int, n_epochs: int) -> float:
        """The mid-near weight at `epoch`; 0.0 for a kind with no mid-near term."""
        if self.kind not in MIDNEAR_KINDS:
            return 0.0
        t_anneal = self.anneal_fraction * n_epochs
        if t_anneal <= 0 or epoch >= t_anneal:
            return self.w_u_final
        return self.w_u_init + (self.w_u_final - self.w_u_init) * (epoch / t_anneal)

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
    return diff, s, cauchy_unchecked(s)


def _negatives(batch, rows=slice(None)):
    """(i, j) of every (anchor, negative) pair of the batch rows `rows`, row
    by row: each anchor repeated m times, against its m negatives."""
    return np.repeat(batch.anchors[rows], batch.m), batch.negatives[rows].ravel()


# --- The kernel-ratio term --------------------------------------------------

def _kernel(cols, i, j, tau):
    """(z_i - z_j, kernel, d(log k)/d(d^2)) per pair: the Cauchy kernel
    k = 1/(1 + d^2) when tau is None, else k = exp(-d/tau), returned as log k."""
    if tau is None:
        diff, _, k = _phi(cols, i, j)
        return diff, k, -k
    diff = _diff(cols, i, j)
    d = np.maximum(np.sqrt(_sq(diff)), 1e-30)
    return diff, d / -tau, (-0.5 / tau) / d


def _runs(x, runs, ufunc=np.add):
    """ufunc over consecutive runs of x, each `runs` long when an int, else of
    the lengths in `runs`; x itself when runs is None."""
    if runs is None:
        return x
    starts = np.arange(0, len(x), runs) if np.ndim(runs) == 0 else np.cumsum(runs) - runs
    return ufunc.reduceat(x, starts)


def _spread(x, runs):
    """Each value of x repeated over its run, the inverse layout of _runs."""
    return x if runs is None else np.repeat(x, runs)


def _shifted(lk, runs):
    """(exp(lk - c), S, c + log S) over runs of log kernels lk, with c the run's
    maximum: S >= 1 however far apart the points are. One-pair runs need none."""
    if runs is None:
        return None, None, lk
    c = _runs(lk, runs, np.maximum)
    k = np.exp(lk - _spread(c, runs))
    s = _runs(k, runs)
    return k, s, c + np.log(s)


def _term(acc, cols, tau, pos, neg, size, w, n, log, incl,
          units=None, per_unit=None, per_group=None):
    """The kernel-ratio term -1/n sum_e w_e f(U_e/D_e), f = log when `log`, else
    the identity. Each entry e pairs a positive unit with a negative group:
    - U sums the kernel over a unit: runs of `units` pairs of `pos` (i, j);
    - D sums it over a group, runs of `size` pairs of `neg`, plus U when `incl`;
    - a unit has `per_unit` consecutive entries, a group `per_group`.
    A None run length or count is 1.
    Cauchy kernels (tau None) are summed as they are, temperature kernels in
    runs shifted by their maximum. Adds the gradient to acc and returns the value.
    """
    diff_p, kp, dk_p = _kernel(cols, *pos, tau)
    diff_n, kn, dk_n = _kernel(cols, *neg, tau)
    if tau is None:
        U, V = _runs(kp, units), _runs(kn, size)
        Ue, Ve = _spread(U, per_unit), _spread(V, per_group)
        D = Ve + Ue if incl else Ve
        r = Ue / D
        lr, q = np.log(r) if log else None, Ve / D if incl else 1.0
    else:
        (kp, U, lU), (kn, V, lV) = _shifted(kp, units), _shifted(kn, size)
        lUe, lVe = _spread(lU, per_unit), _spread(lV, per_group)
        lD = np.logaddexp(lVe, lUe) if incl else lVe
        lr = lUe - lD
        r, q = None if log else np.exp(lr), np.exp(lVe - lD) if incl else 1.0
    g = (-1.0 / n) * w * q  # dL/d(log U_e) = -dL/d(log V_e)
    if not log:
        g = g * r
    gu, gv = _runs(g, per_unit), _runs(g, per_group)
    if units is not None:  # each pair's share of its unit or group
        gu = _spread(gu / U, units) * kp
    if size is not None:
        gv = _spread(gv / V, size) * kn
    acc.add_sq(*pos, gu * dk_p, diff_p)
    acc.add_sq(*neg, -gv * dk_n, diff_n)
    return -((lr if log else r) * w).sum() / n


# --- Losses with a body of their own ------------------------------------------

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


def _bounded(acc, cols, i, j, coef):
    """Adds coef * phi^2/(phi+1)^2 per pair as dL/d(d^2), the gradient of
    -coef * phi/(phi+1), and returns phi/(phi+1)."""
    diff, _, phi = _phi(cols, i, j)
    acc.add_sq(i, j, coef * phi ** 2 / (phi + 1.0) ** 2, diff)
    return phi / (phi + 1.0)


def _loss_pacmap(batch, cols, spec, w_u, acc):
    i = batch.anchors
    b = len(i)
    w_p = spec.w_p
    value = -w_p * _bounded(acc, cols, i, batch.positives, w_p / b).sum() / b
    if w_u != 0.0:
        value += -w_u * _bounded(acc, cols, np.repeat(i, batch.midnears.shape[1]),
                                 batch.midnears.ravel(), w_u / b).sum() / b
    g_n = _bounded(acc, cols, *_negatives(batch), -1.0 / b)
    # As published: a constant offset from the corrected form, the same gradient.
    value += g_n.sum() / b if spec.use_corrected_pacmap else -(1.0 - g_n).sum() / b
    return value


# --- Losses through the kernel-ratio term -------------------------------------

def _loss_trimap(batch, cols, spec, w_u, acc):
    i, b, log = batch.anchors, batch.size, spec.use_log_ratio
    # One entry per negative, each a group of one against the edge positive.
    value = _term(acc, cols, None, (i, batch.positives), _negatives(batch), None, 1.0, b,
                  log, True, per_unit=batch.m)
    if w_u != 0.0:
        mid = batch.midnears
        if mid.shape[1] < 2:
            raise SamplingError("trimap mid-near term needs >= 2 mid-near indices per anchor")
        # The same ratio, the first mid-near as inlier and the second as outlier.
        value += _term(acc, cols, None, (i, mid[:, 0]), (i, mid[:, 1]), None, w_u, b, log, True)
    return value


def _loss_infonce(batch, cols, spec, w_u, acc):
    return _term(acc, cols, None, (batch.anchors, batch.positives), _negatives(batch),
                 batch.m, 1.0, batch.size, True, True)


def _loss_sscl(batch, cols, spec, w_u, acc):
    return _term(acc, cols, spec.tau, (batch.anchors, batch.positives), _negatives(batch),
                 batch.m, 1.0, batch.size, True, spec.use_incl_positive)


def _loss_snn(batch, cols, spec, w_u, acc):
    rows = np.argsort(batch.anchors, kind="stable")  # grouped by anchor
    sizes = np.unique(batch.anchors, return_counts=True)[1]
    return _term(acc, cols, spec.tau, (batch.anchors[rows], batch.positives[rows]),
                 _negatives(batch, rows), sizes * batch.m, 1.0, len(sizes), True, False,
                 units=sizes)


def _label_pairs(batch):
    """(keep, sizes, i, j, i_n, j_n) of the anchors with a non-empty label-positive
    set: their batch rows and set sizes, every (anchor, label positive) pair in
    anchor order, and their negative pairs as _negatives gives them."""
    lp = batch.label_positives
    sizes = np.diff(lp.offsets)
    keep = np.flatnonzero(sizes)
    rows = np.repeat(np.arange(batch.size), sizes)
    return (keep, sizes[keep], batch.anchors[rows], batch.anchors[lp.positions],
            *_negatives(batch, keep))


def _loss_supcon(batch, cols, spec, w_u, acc):
    _, sizes, i, j, *neg = _label_pairs(batch)
    return _term(acc, cols, spec.tau, (i, j), neg, batch.m, np.repeat(1.0 / sizes, sizes),
                 len(sizes), True, spec.use_incl_positive, per_group=sizes)


def _loss_sup_snn(batch, cols, spec, w_u, acc):
    # -log( (1/|P|) sum e_p / sum e_n ): each label group one unit, plus the mean log |P|.
    _, sizes, i, j, *neg = _label_pairs(batch)
    return (_term(acc, cols, spec.tau, (i, j), neg, batch.m, 1.0, len(sizes), True, False,
                  units=sizes) + np.log(sizes).mean())


def _loss_tscne(batch, cols, spec, w_u, acc):
    keep, sizes, i, j, *neg = _label_pairs(batch)
    bc, log = len(keep), spec.use_log_ratio
    value = _term(acc, cols, None, (i, j), neg, batch.m, np.repeat(1.0 / sizes, sizes), bc,
                  log, log, per_group=sizes)
    if w_u != 0.0:
        # Each kept anchor's edge positive against its mid-nears.
        i, mid = batch.anchors[keep], batch.midnears[keep]
        value += _term(acc, cols, None, (i, batch.positives[keep]),
                       (np.repeat(i, mid.shape[1]), mid.ravel()), mid.shape[1], w_u, bc, log, log)
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
        if not isinstance(lp, LabelPositives):
            raise SamplingError(f"label_positives is a {type(lp).__name__}, not a LabelPositives")
        off, b = lp.offsets, batch.size
        if (len(off) != b + 1 or off[0] != 0 or off[-1] != len(lp.positions)
                or np.any(off[1:] < off[:-1])):
            raise LossNumericsError("label-positive offsets are not a CSR partition "
                                    f"of {len(lp.positions)} positions over {b} anchors")
        if len(lp.positions) and (lp.positions.min() < 0 or lp.positions.max() >= b):
            raise LossNumericsError(f"label-positive positions outside 0..{b - 1}")
        if spec.supervised:  # an anchor with an empty set is skipped
            skipped = b - np.count_nonzero(np.diff(off))
    w_u = spec.w_u(epoch, n_epochs)
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
               epoch: int = 0, n_epochs: int = 1) -> float:
    """Max relative error of the analytic gradient against central finite
    differences over every participating coordinate."""
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError("eps must lie in [1e-7, 1e-3]")
    coords = np.array(coords, dtype=np.float64)
    indices = batch.all_indices()
    grad = evaluate(spec, batch, coords, epoch, n_epochs).grad
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
