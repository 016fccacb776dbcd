"""In-memory span tracing around the calls into each cne layer.

A :class:`Tracer` replaces module attributes and methods with wrappers that
pass their arguments through, time the call and record one span (name,
start, end, parent span, run id). Probes read counts from the arguments and
the return value after the call; a probe that fails because a type changed
shape marks its attribute missing instead of failing the run.

:func:`layer_metrics` turns the spans of one traced process into the
per-layer metrics named ``<module>.<metric>``. It is pure, so the
self-tests drive it with hand-made spans.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import time
from collections.abc import Mapping, Sequence

MISSING = "missing"

# Loss kinds that get their own per-kind metrics: the four kinds of the
# fit-grid workload, one per sampling mechanism.
GRID_KINDS = ("umap", "trimap", "supcon", "tscne")
QUALITY_KEYS = ("knn_recall", "knn_accuracy", "silhouette")
FIT_KEYS = (*GRID_KINDS, "parametric_umap")


def _units() -> dict:
    s, n, one = "s", "count", "1"
    units = {
        "data.load_csv_s": s, "data.cells": n,
        "neighbor_graph.knn_graph_s": s, "neighbor_graph.calls": n,
        "neighbor_graph.edges": n, "neighbor_graph.pair_distances": n,
        "neighbor_graph.useful_ratio": one,
        "sampling.next_batch_s": s, "sampling.calls": n,
        "sampling.label_positive_pairs": n, "sampling.midnear_pairs": n,
        "losses.evaluate_s": s, "losses.calls": n, "losses.grad_rows": n,
        "losses.skipped_anchor_ratio": one,
        "optimize.fit_s": s, "optimize.update_self_s": s, "optimize.steps": n,
        "optimize.encoder_forward_s": s, "optimize.encoder_backward_s": s,
        "optimize.encoder_final_forward_s": s,
        "metrics.quality_report_s": s, "metrics.silhouette_tensor_bytes": "B",
        "cli.run_embed_self_s": s, "cli.output_bytes": "B",
    }
    units.update({f"losses.evaluate_s.{k}": s for k in GRID_KINDS})
    units.update({f"optimize.epoch_ms.{k}": "ms" for k in FIT_KEYS})
    units.update({f"metrics.{q}_s": s for q in QUALITY_KEYS})
    units.update({f"metrics.{q}.{k}": one for q in QUALITY_KEYS for k in GRID_KINDS})
    return units


# Unit of every metric that layer_metrics reports.
LAYER_UNITS = _units()


class Tracer:
    """Records spans in memory; :meth:`to_dict` is written out at exit."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.unwrapped: list[str] = []

    def wrap(self, owner, attr: str, name: str, probes: Mapping | None = None):
        """Replace ``owner.attr`` by a timing wrapper recording span `name`.

        `probes` maps an attribute name to ``fn(call, result)``, where `call`
        holds the bound arguments by parameter name.
        """
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(fn):
            self.unwrapped.append(name)
            return
        sig = inspect.signature(fn) if probes else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "start": time.monotonic(), "end": None,
                    "parent": tracer._stack[-1] if tracer._stack else None,
                    "run": tracer.run_id, "attrs": {}}
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                tracer._stack.pop()
            if probes:
                _probe(span["attrs"], probes, sig, args, kwargs, result)
                span["probe_end"] = time.monotonic()
            return result

        setattr(owner, attr, wrapper)

    def to_dict(self) -> dict:
        return {"run": self.run_id, "spans": self.spans, "unwrapped": self.unwrapped}


def _probe(attrs, probes, sig, args, kwargs, result):
    try:
        call = sig.bind(*args, **kwargs).arguments
    except TypeError:
        call = {}
    for key, fn in probes.items():
        try:
            value = fn(call, result)
        except Exception:  # a changed return shape must not fail the run
            value = MISSING
        attrs[key] = value


# --- probes ---------------------------------------------------------------

def _rows_cells(result):
    n, d = result.points.shape
    return int(n * (d + (result.labels is not None)))


def _points_of(data):
    return getattr(data, "points", data)


def _input_key(call, _result):
    points = _points_of(call["data"])
    digest = hashlib.sha256(points.tobytes()).hexdigest()[:16]
    return f"{points.shape}:{digest}:k={call.get('k', 'default')}"


def _pair_distances(call, _result):
    n = _points_of(call["data"]).shape[0]
    return n * (n - 1)


def _label_positive_pairs(_call, batch):
    lp = batch.label_positives
    if lp is None:
        return 0
    if not isinstance(lp, Sequence):
        raise TypeError("label_positives is no longer a per-anchor list")
    return int(sum(map(len, lp)))


def _midnear_pairs(_call, batch):
    return 0 if batch.midnears is None else int(batch.midnears.size)


def _grad_rows(_call, lg):
    if not isinstance(lg.grads, Mapping):
        raise TypeError("LossGrad.grads is no longer a per-sample mapping")
    return len(lg.grads)


def _tensor_bytes(call, _result):
    n, d = call["emb"].coords.shape
    return n * n * d * 8


def _output_bytes(call, _result):
    out = call["cfg"].get("out")
    total = 0
    for dirpath, _, files in os.walk(out):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def _fit_key(call, _result):
    kind = call["spec"].kind
    return kind if call["cfg"].mode == "nonparametric" else f"parametric_{kind}"


def install(tracer: Tracer, cne) -> None:
    """Wrap the public calls of each measured layer of the `cne` package.

    `kernels` (used only by tests) and `svgplot` (only with --plot) are not
    measured.
    """
    cli, optimize, metrics = cne.cli, cne.optimize, cne.metrics
    tracer.wrap(cli, "run_embed", "cli.run_embed", {
        "kind": lambda c, r: c["cfg"]["loss"],
        "output_bytes": _output_bytes,
    })
    tracer.wrap(cli, "load_csv", "cli.load_csv", {"cells": lambda c, r: _rows_cells(r)})
    tracer.wrap(cli, "knn_graph", "cli.knn_graph", {
        "edges": lambda c, r: int(r.n_edges),
        "pair_distances": _pair_distances,
        "input_key": _input_key,
    })
    fit_probes = {"key": _fit_key, "epochs": lambda c, r: int(c["cfg"].epochs)}
    tracer.wrap(cli, "fit_nonparametric", "cli.fit_nonparametric", fit_probes)
    tracer.wrap(cli, "fit_parametric", "cli.fit_parametric", fit_probes)
    tracer.wrap(cne.sampling.Sampler, "next_batch", "Sampler.next_batch", {
        "label_positive_pairs": _label_positive_pairs,
        "midnear_pairs": _midnear_pairs,
    })
    tracer.wrap(optimize, "evaluate", "optimize.evaluate", {
        "kind": lambda c, r: c["spec"].kind,
        "grad_rows": _grad_rows,
        "batch_size": lambda c, r: int(c["batch"].size),
        "skipped": lambda c, r: int(r.skipped_anchors),
    })
    tracer.wrap(optimize.Encoder, "forward_cached", "Encoder.forward_cached")
    tracer.wrap(optimize.Encoder, "backward", "Encoder.backward")
    tracer.wrap(optimize.Encoder, "forward", "Encoder.forward")
    tracer.wrap(cli, "quality_report", "cli.quality_report", {
        key: (lambda c, r, key=key: getattr(r, key)) for key in QUALITY_KEYS
    })
    tracer.wrap(metrics, "knn_recall", "metrics.knn_recall")
    tracer.wrap(metrics, "knn_accuracy", "metrics.knn_accuracy")
    tracer.wrap(metrics, "silhouette", "metrics.silhouette",
                {"tensor_bytes": _tensor_bytes})


# --- aggregation ----------------------------------------------------------

def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    A child covers its probes too (up to ``probe_end``), so the cost of
    reading counts lands in no layer's time, only in the tracing overhead.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(
                (s["start"], s.get("probe_end", s["end"])))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(i, [])):
            a, b = max(a, s["start"]), min(b, s["end"])
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s["end"] - s["start"]) - covered)
    return out


def _ancestor_attr(spans, i, name, attr):
    parent = spans[i]["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return spans[parent]["attrs"].get(attr)
        parent = spans[parent]["parent"]
    return None


def layer_metrics(spans: list[dict], unwrapped=()) -> tuple[dict, set]:
    """Per-layer totals of one traced process: (metrics, names missing).

    A metric is missing when a span it reads could not be wrapped, or when a
    probe it reads failed on any call.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)
    m: dict[str, float] = {}
    missing: set[str] = set()

    def put(metric, value, *span_names):
        m[metric] = float(value)
        if any(name in unwrapped for name in span_names):
            missing.add(metric)

    def dur(name):
        return sum(spans[i]["end"] - spans[i]["start"] for i in by_name.get(name, []))

    def attrs(span_name, attr, *metrics):
        vals = [spans[i]["attrs"].get(attr, MISSING) for i in by_name.get(span_name, [])]
        if MISSING in vals:
            missing.update(metrics)
            return [0] * len(vals)
        return vals

    def mean(total, count):
        return total / count if count else 0.0

    put("data.load_csv_s", dur("cli.load_csv"), "cli.load_csv")
    put("data.cells", sum(attrs("cli.load_csv", "cells", "data.cells")), "cli.load_csv")

    g = "cli.knn_graph"
    calls = len(by_name.get(g, []))
    put("neighbor_graph.knn_graph_s", dur(g), g)
    put("neighbor_graph.calls", calls, g)
    put("neighbor_graph.edges", sum(attrs(g, "edges", "neighbor_graph.edges")), g)
    put("neighbor_graph.pair_distances",
        sum(attrs(g, "pair_distances", "neighbor_graph.pair_distances")), g)
    keys = attrs(g, "input_key", "neighbor_graph.useful_ratio")
    put("neighbor_graph.useful_ratio", mean(len(set(keys)), calls), g)

    b = "Sampler.next_batch"
    batches = len(by_name.get(b, []))
    put("sampling.next_batch_s", dur(b), b)
    put("sampling.calls", batches, b)
    for attr in ("label_positive_pairs", "midnear_pairs"):
        put(f"sampling.{attr}", mean(sum(attrs(b, attr, f"sampling.{attr}")), batches), b)

    e = "optimize.evaluate"
    evals = by_name.get(e, [])
    put("losses.evaluate_s", dur(e), e)
    kinds = attrs(e, "kind", *(f"losses.evaluate_s.{k}" for k in GRID_KINDS))
    for kind in GRID_KINDS:
        put(f"losses.evaluate_s.{kind}", sum(
            spans[i]["end"] - spans[i]["start"] for i, k in zip(evals, kinds) if k == kind), e)
    put("losses.calls", len(evals), e)
    put("losses.grad_rows", mean(sum(attrs(e, "grad_rows", "losses.grad_rows")), len(evals)), e)
    skipped = sum(attrs(e, "skipped", "losses.skipped_anchor_ratio"))
    size = sum(attrs(e, "batch_size", "losses.skipped_anchor_ratio"))
    put("losses.skipped_anchor_ratio", mean(skipped, size), e)

    fit_names = ("cli.fit_nonparametric", "cli.fit_parametric")
    fits = [i for name in fit_names for i in by_name.get(name, [])]
    inner = (b, e, "Encoder.forward_cached", "Encoder.backward")
    put("optimize.fit_s", sum(spans[i]["end"] - spans[i]["start"] for i in fits), *fit_names)
    put("optimize.update_self_s", sum(selfs[i] for i in fits), *fit_names, *inner)
    put("optimize.steps", sum(1 for i in evals if spans[i]["parent"] in fits), *fit_names, e)
    put("optimize.encoder_forward_s", dur("Encoder.forward_cached"), "Encoder.forward_cached")
    put("optimize.encoder_backward_s", dur("Encoder.backward"), "Encoder.backward")
    put("optimize.encoder_final_forward_s", dur("Encoder.forward"), "Encoder.forward")
    epoch_ms = {key: 0.0 for key in FIT_KEYS}
    for i in fits:
        key, epochs = spans[i]["attrs"].get("key"), spans[i]["attrs"].get("epochs")
        if MISSING in (key, epochs):
            missing.update(f"optimize.epoch_ms.{k}" for k in epoch_ms)
        elif key in epoch_ms:
            epoch_ms[key] += (spans[i]["end"] - spans[i]["start"]) * 1e3 / epochs
    for key, value in epoch_ms.items():
        put(f"optimize.epoch_ms.{key}", value, *fit_names)

    q = "cli.quality_report"
    put("metrics.quality_report_s", dur(q), q)
    for key in QUALITY_KEYS:
        put(f"metrics.{key}_s", dur(f"metrics.{key}"), f"metrics.{key}")
    put("metrics.silhouette_tensor_bytes", sum(attrs(
        "metrics.silhouette", "tensor_bytes", "metrics.silhouette_tensor_bytes")),
        "metrics.silhouette")
    per_kind = {(key, kind): 0.0 for key in QUALITY_KEYS for kind in GRID_KINDS}
    for i in by_name.get(q, []):
        kind = _ancestor_attr(spans, i, "cli.run_embed", "kind")
        for key in QUALITY_KEYS:
            value = spans[i]["attrs"].get(key, MISSING)
            if MISSING in (value, kind):
                missing.update(f"metrics.{key}.{k}" for k in GRID_KINDS)
            elif (key, kind) in per_kind and value is not None:
                per_kind[key, kind] = value
    for (key, kind), value in per_kind.items():
        put(f"metrics.{key}.{kind}", value, q, "cli.run_embed")

    r = "cli.run_embed"
    put("cli.run_embed_self_s", sum(selfs[i] for i in by_name.get(r, [])),
        r, "cli.load_csv", g, *fit_names, q)
    put("cli.output_bytes", sum(attrs(r, "output_bytes", "cli.output_bytes")), r)
    return {k: v for k, v in m.items() if k not in missing}, missing
