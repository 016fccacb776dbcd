"""Self-tests of the benchmark's own arithmetic, checks and tracing."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def span(name, start, end, parent=None, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "run": "r", "attrs": attrs}


def test_self_time_subtracts_the_union_of_children_only():
    spans = [
        span("outer", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("a.inner", 1.5, 2.5, parent=1),   # a grandchild: not outer's child
        span("b", 2.0, 5.0, parent=0),         # overlaps a: covered once
        {**span("c", 6.0, 7.0, parent=0), "probe_end": 7.25},   # probes after the call
        span("late", 9.5, 11.0, parent=0),     # clipped to outer's interval
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.25 - 0.5)
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[2] == pytest.approx(1.0)


def test_layer_metrics_of_a_nested_fit():
    spans = [
        span("cli.run_embed", 0.0, 10.0, kind="umap", output_bytes=100),
        span("cli.load_csv", 0.0, 1.0, parent=0, cells=60),
        span("cli.knn_graph", 1.0, 2.0, parent=0, edges=30, pair_distances=380,
             input_key="x"),
        span("cli.fit_nonparametric", 2.0, 8.0, parent=0, key="umap", epochs=2),
        span("Sampler.next_batch", 2.0, 3.0, parent=3, label_positive_pairs=0,
             midnear_pairs=4),
        span("optimize.evaluate", 3.0, 5.0, parent=3, kind="umap", grad_rows=10,
             batch_size=8, skipped=2),
        span("cli.quality_report", 8.0, 9.5, parent=0, knn_recall=0.5,
             knn_accuracy=0.9, silhouette=0.25),
        span("metrics.knn_recall", 8.0, 9.0, parent=6),
    ]
    m, missing = tracing.layer_metrics(spans)
    assert not missing
    assert set(m) == set(tracing.LAYER_UNITS)
    assert m["optimize.fit_s"] == pytest.approx(6.0)
    assert m["optimize.update_self_s"] == pytest.approx(3.0)
    assert m["optimize.epoch_ms.umap"] == pytest.approx(3000.0)
    assert m["optimize.steps"] == 1
    assert m["losses.evaluate_s.umap"] == pytest.approx(2.0)
    assert m["losses.skipped_anchor_ratio"] == pytest.approx(0.25)
    assert m["sampling.midnear_pairs"] == 4
    assert m["metrics.silhouette.umap"] == 0.25
    assert m["metrics.knn_recall_s"] == pytest.approx(1.0)
    assert m["cli.run_embed_self_s"] == pytest.approx(10.0 - 1 - 1 - 6 - 1.5)
    assert m["neighbor_graph.useful_ratio"] == 1.0


def test_layer_metrics_report_changed_shapes_and_lost_spans_as_missing():
    spans = [
        span("optimize.evaluate", 0.0, 1.0, kind="umap", grad_rows=tracing.MISSING,
             batch_size=8, skipped=0),
        span("optimize.evaluate", 1.0, 2.0, kind="umap", grad_rows=5,
             batch_size=8, skipped=0),
    ]
    m, missing = tracing.layer_metrics(spans, unwrapped=["cli.knn_graph"])
    assert "losses.grad_rows" in missing and "losses.grad_rows" not in m
    assert m["losses.calls"] == 2
    assert "neighbor_graph.knn_graph_s" in missing
    assert "neighbor_graph.knn_graph_s" not in m


class _Box:
    @staticmethod
    def work(x, scale=1):
        return {"value": x * scale}


def test_wrapper_passes_calls_through_and_survives_failing_probes():
    class Module:
        pass

    mod = Module()
    mod.outer = lambda x: mod.inner(x, scale=3)
    mod.inner = _Box.work
    tracer = tracing.Tracer("t")
    tracer.wrap(mod, "outer", "outer")
    tracer.wrap(mod, "inner", "inner", {
        "value": lambda call, r: r["value"] + call["scale"],
        "broken": lambda call, r: r.grads,
    })
    tracer.wrap(mod, "absent", "absent")
    assert mod.outer(2) == {"value": 6}
    outer, inner = tracer.spans
    assert inner["parent"] == 0 and outer["parent"] is None
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert inner["attrs"] == {"value": 9, "broken": tracing.MISSING}
    assert tracer.unwrapped == ["absent"]


def test_median_carries_its_sample_count():
    assert checks.median_n([3.0, 1.0, 2.0]) == {"median": 2.0, "n": 3}
    assert checks.median_n([4.0, 1.0, 2.0, 3.0]) == {"median": 2.5, "n": 4}
    with pytest.raises(ValueError):
        checks.median_n([])


def _write_embedding(path, rows):
    path.write_text("id,z1,z2,label\n" + "".join(",".join(map(str, r)) + "\n" for r in rows))


def test_embedding_checker_rejects_truncated_nan_and_misnumbered_files(tmp_path):
    labels = [0, 1, 1]
    good = [(0, 0.5, -1.0, 0), (1, 2.0, 3.0, 1), (2, 1e-3, 4.0, 1)]
    path = tmp_path / "embedding.csv"
    _write_embedding(path, good)
    assert checks.check_embedding(path, 3, labels) == []
    _write_embedding(path, good[:2])
    assert checks.check_embedding(path, 3, labels)
    _write_embedding(path, [good[0], (1, "nan", 3.0, 1), good[2]])
    assert checks.check_embedding(path, 3, labels)
    _write_embedding(path, [good[0], good[2], good[1]])
    assert checks.check_embedding(path, 3, labels)
    _write_embedding(path, good)
    assert checks.check_embedding(path, 3, [0, 1, 0])
    path.write_text(path.read_text()[:-8])     # cut inside the last row
    assert checks.check_embedding(path, 3, labels)
    assert checks.check_embedding(tmp_path / "absent.csv", 3)


def test_quality_checker_ranges():
    ok = {"knn_recall": 0.2, "knn_accuracy": 1.0, "silhouette": -0.3}
    assert checks.check_quality(ok) == []
    assert checks.check_quality({**ok, "silhouette": -1.5})
    assert checks.check_quality({**ok, "knn_recall": None})
    assert checks.check_quality({**ok, "knn_accuracy": math.nan})


def test_hash_mismatches_flag_only_disagreeing_repeats():
    earlier = [{"a": "1", "b": "2"}]
    current = [{"a": "1", "b": "2"}, {"a": "1", "b": "3"}, {"c": "4"}, {"c": "5"}]
    assert checks.hash_mismatches(earlier, current) == [[], ["b"], [], ["c"]]


def test_generated_inputs_depend_only_on_the_seed(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    labels = checks.write_blobs_csv(a, 4, 3, 5, seed=7)
    checks.write_blobs_csv(b, 4, 3, 5, seed=7)
    checks.write_blobs_csv(c, 4, 3, 5, seed=8)
    assert checks.sha256_file(a) == checks.sha256_file(b) != checks.sha256_file(c)
    assert list(labels) == [0] * 4 + [1] * 4 + [2] * 4


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        **tracing.LAYER_UNITS, **run.TRACE_UNITS}


@pytest.mark.parametrize("flags", [
    ["--loss", "tscne", "--epochs", "2"],
    ["--loss", "umap", "--mode", "parametric", "--epochs", "2"],
])
def test_traced_cli_run_reports_every_layer(tmp_path, flags):
    data = tmp_path / "data.csv"
    checks.write_blobs_csv(data, 20, 3, 5, seed=0)
    record = tmp_path / "record.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(record), "trace", "--",
         "embed", "--data", str(data), "--label-column", "label", "--k", "5",
         "--out", str(tmp_path / "out"), *flags],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(record.read_text())
    assert rec["exit"] == 0 and rec["fit_entry"] is not None and rec["maxrss_kb"] > 0
    assert rec["trace"]["unwrapped"] == []
    m, missing = tracing.layer_metrics(rec["trace"]["spans"])
    assert not missing
    assert m["optimize.steps"] == m["sampling.calls"] == m["losses.calls"] > 0
    assert m["neighbor_graph.calls"] == 1 and m["data.cells"] == 60 * 6
    assert checks.check_embed_output(tmp_path / "out", 60, [0] * 20 + [1] * 20 + [2] * 20)[0] == []
