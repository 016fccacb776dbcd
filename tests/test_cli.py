"""Command-line interface: subcommands, config resolution, outputs, exit codes."""

import json

import numpy as np
import pytest

from cne.cli import main

BLOBS = "blobs:n_per_class=40,n_classes=3,dim=6,separation=15,seed=0"
FAST = ["--epochs", "5", "--k", "6", "--batch-size", "256"]


def run(argv):
    return main(argv)


def test_gen_blobs(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert run(["gen", BLOBS, "--out", str(out)]) == 0
    text = out.read_text().splitlines()
    assert len(text) == 121  # header + 120 samples
    assert text[0].endswith("label")


def test_gen_moons(tmp_path):
    out = tmp_path / "m.csv"
    assert run(["gen", "moons:n=50,noise=0.05,seed=1", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 51


def test_gen_bad_spec(tmp_path):
    assert run(["gen", "donuts:n=5", "--out", str(tmp_path / "x.csv")]) == 2
    assert run(["gen", "blobs:n_per_class=oops", "--out", str(tmp_path / "x.csv")]) == 2


def test_embed_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["embed", "--data", BLOBS, "--loss", "umap", "--plot",
                "--out", str(out), *FAST])
    assert code == 0
    for name in ("embedding.csv", "train_log.jsonl", "config.json",
                 "quality.json", "plot.svg"):
        assert (out / name).exists(), name
    report = json.loads((out / "quality.json").read_text())
    assert set(report) == {"knn_recall", "knn_accuracy", "silhouette",
                           "k_recall", "k_accuracy"}
    lines = (out / "embedding.csv").read_text().splitlines()
    assert lines[0] == "id,z1,z2,label"
    assert len(lines) == 121
    log_lines = (out / "train_log.jsonl").read_text().splitlines()
    assert len(log_lines) == 5
    entry = json.loads(log_lines[0])
    assert set(entry) == {"epoch", "mean_loss", "wall_ms", "w_u"}


def test_embed_quality_on_default_benchmark(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["embed", "--data", BLOBS, "--loss", "umap", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "quality.json").read_text())
    assert report["knn_accuracy"] >= 0.95


def test_embed_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["embed", "--data", BLOBS, "--loss", "infonce",
                    "--seed", "3", "--out", str(out), *FAST]) == 0
    assert (a / "embedding.csv").read_bytes() == (b / "embedding.csv").read_bytes()


def test_deterministic_flag_is_accepted_and_inert(tmp_path, capsys):
    outs = []
    for name, flag in (("a", "--deterministic"), ("b", "--no-deterministic")):
        out = tmp_path / name
        assert run(["embed", "--data", BLOBS, "--loss", "umap", flag,
                    "--out", str(out), *FAST]) == 0
        outs.append((out / "embedding.csv").read_bytes())
        assert "deterministic" not in json.loads((out / "config.json").read_text())["optim"]
    assert outs[0] == outs[1]


def test_embed_small_data_clamps_metric_k(tmp_path, capsys):
    # 12 points: the default quality k (15 and 10) must shrink to N-1 = 11.
    out = tmp_path / "run"
    assert run(["embed", "--data", "blobs:n_per_class=4,n_classes=3,dim=5,seed=0",
                "--loss", "umap", "--k", "3", "--epochs", "3", "--out", str(out)]) == 0
    report = json.loads((out / "quality.json").read_text())
    assert report["k_recall"] == 11 and report["k_accuracy"] == 10
    assert report["knn_recall"] is not None and report["silhouette"] is not None


def test_embed_supervised_without_labels(tmp_path, capsys):
    data = tmp_path / "plain.csv"
    assert run(["gen", "moons:n=40,noise=0.0,seed=0", "--out", str(data)]) == 0
    # rewrite without the label column
    lines = data.read_text().splitlines()
    stripped = "\n".join(",".join(l.split(",")[:-1]) for l in lines) + "\n"
    data.write_text(stripped)
    out = tmp_path / "run"
    code = run(["embed", "--data", str(data), "--loss", "supcon",
                "--out", str(out), *FAST])
    assert code == 2
    assert not (out / "embedding.csv").exists()


def test_embed_parametric(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["embed", "--data", BLOBS, "--loss", "umap", "--mode", "parametric",
                "--out", str(out), *FAST])
    assert code == 0
    assert (out / "encoder.bin").exists()


def test_embed_missing_data(capsys):
    assert run(["embed", "--loss", "umap"]) == 2


def test_unknown_flag():
    assert run(["embed", "--data", BLOBS, "--frobnicate"]) == 2


def test_config_file_and_override(tmp_path, capsys):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(
        "[run]\nloss = umap\nepochs = 4\nk = 6\nbatch-size = 256\nseed = 5\n"
    )
    out = tmp_path / "run"
    code = run(["embed", "--config", str(cfgfile), "--data", BLOBS,
                "--epochs", "2", "--out", str(out)])
    assert code == 0
    resolved = json.loads((out / "config.json").read_text())
    assert resolved["epochs"] == 2   # CLI beats config file
    assert resolved["k"] == 6        # config file beats default
    assert resolved["seed"] == 5


def test_config_file_unknown_key(tmp_path, capsys):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[run]\nwarp_speed = 9\n")
    assert run(["embed", "--config", str(cfgfile), "--data", BLOBS]) == 2


def test_per_loss_defaults_resolved(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["embed", "--data", BLOBS, "--loss", "tscne", "--log-ratio",
                "--out", str(out), *FAST]) == 0
    resolved = json.loads((out / "config.json").read_text())
    assert resolved["loss_spec"]["m"] == 15
    assert resolved["loss_spec"]["w_u_init"] == 10.0
    # explicit flag still wins
    out2 = tmp_path / "run2"
    assert run(["embed", "--data", BLOBS, "--loss", "tscne", "--log-ratio",
                "--m", "4", "--out", str(out2), *FAST]) == 0
    resolved2 = json.loads((out2 / "config.json").read_text())
    assert resolved2["loss_spec"]["m"] == 4


def test_bench_grid(tmp_path, capsys):
    out = tmp_path / "bench"
    code = run(["bench", "--data", BLOBS, "--losses", "umap,infonce",
                "--seeds", "0,1", "--out", str(out), *FAST])
    assert code == 0
    rows = json.loads((out / "bench.json").read_text())["rows"]
    assert len(rows) == 4
    assert all(r["status"] == "ok" for r in rows)
    summary = json.loads((out / "bench.json").read_text())["summary"]
    assert "knn_recall_mean" in summary["umap"]
    csv_lines = (out / "bench.csv").read_text().splitlines()
    assert len(csv_lines) == 5


def test_bench_applies_per_loss_defaults(tmp_path, capsys):
    out = tmp_path / "bench"
    code = run(["bench", "--data", BLOBS, "--losses", "umap,infonce",
                "--seeds", "0", "--log-ratio", "--out", str(out), *FAST])
    assert code == 0
    umap_cfg = json.loads((out / "umap_seed0" / "config.json").read_text())
    infonce_cfg = json.loads((out / "infonce_seed0" / "config.json").read_text())
    assert umap_cfg["loss_spec"]["m"] == 5
    assert infonce_cfg["loss_spec"]["m"] == 10


def test_bench_unknown_loss(tmp_path, capsys):
    assert run(["bench", "--data", BLOBS, "--losses", "umap,nonsense",
                "--out", str(tmp_path / "b")]) == 2


def test_bench_partial_failure_still_ok(tmp_path, capsys):
    # supervised losses fail without labels, unsupervised ones succeed
    data = tmp_path / "plain.csv"
    rng = np.random.default_rng(0)
    with open(data, "w") as fh:
        for row in rng.normal(size=(60, 4)):
            fh.write(",".join(f"{v}" for v in row) + "\n")
    out = tmp_path / "bench"
    code = run(["bench", "--data", str(data), "--losses", "umap,supcon",
                "--seeds", "0", "--out", str(out), *FAST])
    assert code == 0
    rows = json.loads((out / "bench.json").read_text())["rows"]
    status = {r["loss"]: r["status"] for r in rows}
    assert status["umap"] == "ok"
    assert status["supcon"].startswith("error")


def test_gradcheck_all_losses(capsys):
    assert run(["gradcheck", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 11
    assert "FAIL" not in out


def test_gradcheck_subset(capsys):
    assert run(["gradcheck", "--losses", "umap", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 1


def test_gradcheck_corrupted_gradient_fails(capsys):
    assert run(["gradcheck", "--losses", "umap", "--trials", "2", "--corrupt"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_plot_from_embedding_csv(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["embed", "--data", BLOBS, "--loss", "umap",
                "--out", str(out), *FAST]) == 0
    svg = tmp_path / "p.svg"
    code = run(["plot", "--data", str(out / "embedding.csv"),
                "--label-column", "label", "--skip-id-column", "--out", str(svg)])
    assert code == 0
    assert svg.read_text().count("<circle") == 120
