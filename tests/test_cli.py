"""Command-line interface: subcommands, config resolution, outputs, exit codes."""

import json
import time
from dataclasses import asdict

import numpy as np
import pytest

from cne import Embedding, cli, knn_graph, load_csv, quality_report, standardize, write_csv
from cne.cli import DEFAULTS, _resolve, build_parser, main
from cne.losses import _LOSS_FUNCS, SUPERVISED_KINDS

BLOBS = "blobs:n_per_class=40,n_classes=3,dim=6,separation=15,seed=0"
FAST = ["--epochs", "5", "--k", "6", "--batch-size", "256"]


# config.json of `cne embed --data BLOBS`; generating the run settings from
# the dataclass fields must not change its text.
DEFAULT_EMBED_CONFIG = {
    "anneal_fraction": 0.5, "batch_size": 1024, "data": BLOBS,
    "denominator_includes_positive": False, "deterministic": True,
    "dim": 2, "epochs": 250, "grad_clip": 0.05, "k": 15, "label_column": None,
    "log_ratio": False, "loss": "umap",
    "loss_spec": {
        "anneal_fraction": 0.5, "denominator_includes_positive": False, "kind": "umap",
        "log_ratio": False, "m": 5, "tau": 0.5, "w_p": 1.0, "w_u_final": 0.0, "w_u_init": 1.0,
    },
    "lr": 1.0, "m": 5, "mode": "nonparametric", "momentum": 0.9,
    "optim": {
        "batch_size": 1024, "embedding_dim": 2, "epochs": 250, "grad_clip": 0.05,
        "learning_rate": 1.0, "mode": "nonparametric", "momentum": 0.9, "seed": 0,
    },
    "plot": False, "seed": 0, "standardize": False,
    "tau": 0.5, "w_p": 1.0, "w_u_final": 0.0, "w_u_init": 1.0,
}


def run(argv):
    return main(argv)


def resolve(argv, config=None):
    return _resolve(build_parser().parse_args(["embed", *argv]), config or {})


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
    # Each key is one of the generator's parameters and carries a value.
    for spec in ("blobs:n_per_clas=5", "moons:noize=0.1", "blobs:n_per_class"):
        assert run(["gen", spec, "--out", str(tmp_path / "x.csv")]) == 2
    assert not (tmp_path / "x.csv").exists()


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


def test_embed_graph_narrower_than_recall_k(tmp_path, capsys):
    # The graph's 2-wide neighbor array is narrower than the clamped
    # k_recall of 5, so recall searches the input space again and the
    # report equals one computed without the graph's search.
    data = tmp_path / "six.csv"
    data.write_text("a,b,c,label\n0,0,1,x\n0,1,0,x\n1,0,0,x\n5,5,6,y\n5,6,5,y\n6,5,5,y\n")
    out = tmp_path / "run"
    assert run(["embed", "--data", str(data), "--label-column", "label", "--k", "2",
                "--epochs", "5", "--out", str(out)]) == 0
    # embedding.csv is written with %.17g, so it reads back exactly.
    coords = np.loadtxt(out / "embedding.csv", delimiter=",", skiprows=1, usecols=(1, 2))
    report = quality_report(load_csv(data, label_column="label"), Embedding(coords))
    expected = json.dumps(asdict(report), indent=2, sort_keys=True)
    assert (out / "quality.json").read_text() == expected


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
    # warp_speed never was a setting; the others are removed variant flags.
    cfgfile, out = tmp_path / "run.ini", str(tmp_path / "out")
    for key, value in (("warp_speed", "9"), ("paper_as_written", "yes"),
                       ("corrected_pacmap_sign", "no")):
        cfgfile.write_text(f"[run]\n{key} = {value}\n")
        assert run(["embed", "--config", str(cfgfile), "--data", BLOBS, "--out", out, *FAST]) == 2
        assert capsys.readouterr().err == f"error: unknown config key {key!r}\n"
    for flag in ("--paper-as-written", "--corrected-pacmap-sign", "--no-corrected-pacmap-sign"):
        assert run(["embed", "--data", BLOBS, flag, "--out", out, *FAST]) == 2
        assert f"error: unrecognized arguments: {flag}" in capsys.readouterr().err


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
    assert not (out / "supcon_seed0").exists()


def test_bench_loads_and_builds_once(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "knn_graph", lambda *a, **kw: calls.append(1) or knn_graph(*a, **kw))
    assert run(["bench", "--data", BLOBS, "--losses", "umap,trimap", "--seeds", "0,1",
                "--out", str(tmp_path / "bench"), *FAST]) == 0
    assert len(calls) == 1


def test_bench_unreadable_data_fails_before_the_grid(tmp_path, capsys):
    out = tmp_path / "bench"
    assert run(["bench", "--data", str(tmp_path / "absent.csv"), "--losses", "umap,trimap",
                "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: cannot read")
    assert not out.exists()


def test_gradcheck_all_losses(capsys):
    assert run(["gradcheck", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 15
    assert "FAIL" not in out


def test_gradcheck_has_no_log_ratio_flag(capsys):
    # The default run checks every formula branch that a variant flag selects.
    assert run(["gradcheck", "--log-ratio"]) == 2
    assert "error: unrecognized arguments: --log-ratio" in capsys.readouterr().err


def test_gradcheck_subset(capsys):
    assert run(["gradcheck", "--losses", "umap", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 1


def test_gradcheck_fails_a_wrong_gradient(monkeypatch, capsys):
    # Negative control: a loss whose gradient is twice the true one.
    def wrong_gradient(batch, cols, spec, w_u, acc):
        i, j = batch.anchors, batch.positives
        diff = [c.take(i) - c.take(j) for c in cols]
        acc.add_sq(i, j, np.full(len(i), 2.0), diff)  # the true dL/d(d^2) is 1
        return sum((x ** 2).sum() for x in diff)
    monkeypatch.setitem(_LOSS_FUNCS, "umap", wrong_gradient)
    assert run(["gradcheck", "--losses", "umap", "--trials", "2"]) == 3
    assert "umap: " in (out := capsys.readouterr().out) and "FAIL" in out


def test_plot_from_embedding_csv(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["embed", "--data", BLOBS, "--loss", "umap",
                "--out", str(out), *FAST]) == 0
    svg = tmp_path / "p.svg"
    code = run(["plot", "--data", str(out / "embedding.csv"),
                "--label-column", "label", "--skip-id-column", "--out", str(svg)])
    assert code == 0
    assert svg.read_text().count("<circle") == 120


def test_plot_label_column_by_index(tmp_path, capsys):
    # As in embed, a digit string selects the label column by index.
    out = tmp_path / "run"
    assert run(["embed", "--data", BLOBS, "--loss", "umap",
                "--out", str(out), *FAST]) == 0
    svgs = []
    for label in ("label", "3"):
        svg = tmp_path / f"{label}.svg"
        assert run(["plot", "--data", str(out / "embedding.csv"), "--label-column", label,
                    "--skip-id-column", "--out", str(svg)]) == 0
        svgs.append(svg.read_bytes())
    assert svgs[0] == svgs[1]


def test_default_embed_config_is_unchanged(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["embed", "--data", BLOBS, "--out", str(out)]) == 0
    expected = json.dumps(DEFAULT_EMBED_CONFIG, indent=2, sort_keys=True)
    assert (out / "config.json").read_text() == expected


def test_parametric_mode_defaults():
    assert (resolve([])["epochs"], resolve([])["lr"]) == (250, 1.0)
    cfg = resolve(["--mode", "parametric"])
    assert (cfg["epochs"], cfg["lr"]) == (100, 0.01)
    cfg = resolve(["--mode", "parametric", "--epochs", "7"])
    assert (cfg["epochs"], cfg["lr"]) == (7, 0.01)
    cfg = resolve([], {"mode": "parametric", "lr": "0.02"})
    assert (cfg["epochs"], cfg["lr"]) == (100, 0.02)


def test_a_config_key_beats_a_per_loss_default():
    cfg = resolve(["--loss", "tscne"], {"m": "4"})
    assert (cfg["m"], cfg["w_u_init"]) == (4, 10.0)
    cfg = resolve([], {"loss": "tscne", "m": "4"})
    assert (cfg["m"], cfg["w_u_init"]) == (4, 10.0)
    assert resolve(["--loss", "tscne", "--m", "3"], {"m": "4"})["m"] == 3


def _other_value(key, default):
    """A value of the setting's type that differs from its default."""
    if isinstance(default, bool):
        return not default
    if default is None:
        return "label"
    if isinstance(default, str):
        return {"loss": "pacmap", "mode": "parametric"}[key]
    return default + 1


@pytest.mark.parametrize("key", sorted(DEFAULTS))
def test_every_setting_is_a_flag_and_a_config_key(key):
    value = _other_value(key, DEFAULTS[key])
    flag = "--" + key.replace("_", "-")
    if isinstance(value, bool):
        argv = [flag if value else "--no-" + flag[2:]]
    else:
        argv = [flag, str(value)]
    from_flag = resolve(argv)[key]
    from_file = resolve([], {key: str(value)})[key]
    assert from_flag == value and type(from_flag) is type(value)
    assert from_file == value and type(from_file) is type(value)


@pytest.mark.parametrize("argv", [["--loss", "pacmap"], ["--loss", "tscne", "--log-ratio"],
                                  ["--loss", "supcon", "--denominator-includes-positive"]],
                         ids=["pacmap", "tscne-log-ratio", "supcon-incl-positive"])
def test_config_json_reproduces_its_run(tmp_path, capsys, argv):
    first, again = tmp_path / "first", tmp_path / "again"
    assert run(["embed", "--data", BLOBS, *argv, *FAST, "--out", str(first)]) == 0
    resolved = json.loads((first / "config.json").read_text())
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[run]\n" + "".join(
        f"{key} = {value}\n" for key, value in resolved.items()
        if key not in ("out", "loss_spec", "optim") and value is not None))
    assert run(["embed", "--config", str(cfgfile), "--out", str(again)]) == 0
    assert (again / "embedding.csv").read_bytes() == (first / "embedding.csv").read_bytes()


def test_config_file_label_column(tmp_path, capsys):
    data = tmp_path / "d.csv"
    assert run(["gen", BLOBS, "--out", str(data)]) == 0
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[run]\nlabel_column = label\nloss = supcon\n")
    out = tmp_path / "run"
    assert run(["embed", "--config", str(cfgfile), "--data", str(data),
                "--out", str(out), *FAST]) == 0
    assert json.loads((out / "config.json").read_text())["label_column"] == "label"
    assert json.loads((out / "quality.json").read_text())["knn_accuracy"] is not None


# Settings that the class owning them rejects: (flag, value). Each exits 2
# from a flag, from a config file and from a bench grid.
BAD_SETTINGS = [("batch-size", "0"), ("dim", "0"), ("epochs", "0"), ("lr", "-1"),
                ("momentum", "1"), ("grad-clip", "-1"), ("w-p", "0"), ("w-u-init", "-1"),
                ("w-u-final", "-1"), ("anneal-fraction", "2"),
                ("lr", "nan"), ("grad-clip", "nan"), ("w-u-init", "nan"),
                ("tau", "inf"), ("lr", "inf"), ("grad-clip", "inf"), ("w-p", "inf"),
                ("w-u-init", "inf"), ("w-u-final", "inf"), ("dim", "99999999999999999999")]


@pytest.mark.parametrize("argv, ini", [
    (["embed", "--data", BLOBS, "--m", "0"], None),
    (["embed", "--data", BLOBS, "--tau", "0"], None),
    (["embed", "--data", BLOBS, "--batch-size", "0"], None),
    (["embed", "--data", BLOBS, "--dim", "0"], None),
    (["embed", "--data", BLOBS], "[run]\nk = abc\n"),
    (["embed", "--data", BLOBS], "[run]\nmode = quantum\n"),
    (["embed", "--data", BLOBS], "[run]\nloss = quantum\n"),
    (["embed", "--data", BLOBS, "--plot", "--dim", "1"], None),
    (["bench", "--data", BLOBS, "--losses", "umap", "--plot", "--dim", "1"], None),
    (["bench", "--data", BLOBS, "--losses", "umap", "--seeds", "a"], None),
    (["bench", "--data", "missing.csv", "--losses", "umap,umap"], None),
    (["bench", "--data", "missing.csv", "--losses", "umap", "--seeds", "0,0"], None),
    (["gradcheck", "--losses", "umap,umap"], None),
    (["gradcheck", "--m", "0"], None),
    (["gradcheck", "--trials", "0"], None),
    (["gradcheck", "--trials", "-3"], None),
    (["gradcheck", "--seed", "-1"], None),
    (["gradcheck", "--losses", ","], None),
    (["bench", "--data", BLOBS, "--losses", "umap", "--m", "0"], None),
    (["embed", "--data", "blobs:n_per_clas=5"], None),
    (["embed", "--data", BLOBS, "--seed", "-1"], None),
    (["bench", "--data", BLOBS, "--losses", "umap", "--seeds", "0,-1"], None),
    (["embed", "--data", BLOBS], "k = 3\n"),
    (["embed", "--data", BLOBS], "[run]\nk = 3\nk = 4\n"),
    (["embed", "--data", BLOBS], b"[run]\nk = 3\xff\n"),
    (["embed", "--data", BLOBS], "[DEFAULT]\nepochs = 1\n"),
    (["embed", "--data", BLOBS], "[a]\nk = 3\n[b]\nk = 4\n"),
    *[(["embed", "--data", BLOBS, "--" + flag, value], None) for flag, value in BAD_SETTINGS[2:]],
    *[(["embed", "--data", BLOBS], f"[run]\n{flag.replace('-', '_')} = {value}\n")
      for flag, value in BAD_SETTINGS],
    *[(["bench", "--data", BLOBS, "--losses", "umap", "--" + flag, value], None)
      for flag, value in BAD_SETTINGS],
], ids=["m0", "tau0", "batch0", "dim0", "ini-k", "ini-mode", "ini-loss", "plot-dim1",
        "bench-plot-dim1", "seeds", "bench-loss-twice", "bench-seed-twice",
        "gradcheck-loss-twice", "gradcheck-m0", "trials0", "trials-3", "gradcheck-seed-1",
        "gradcheck-no-loss", "bench-m0", "gen-key", "seed-1", "bench-seeds-1",
        "ini-no-section", "ini-duplicate-key", "ini-not-utf8", "ini-default-only",
        "ini-two-sections",
        *[f"{flag}{value}" for flag, value in BAD_SETTINGS[2:]],
        *[f"ini-{flag}{value}" for flag, value in BAD_SETTINGS],
        *[f"bench-{flag}{value}" for flag, value in BAD_SETTINGS]])
def test_degenerate_settings_exit_with_a_message(tmp_path, capsys, argv, ini):
    if ini is not None:
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_bytes(ini if isinstance(ini, bytes) else ini.encode())
        argv = [*argv, "--config", str(cfgfile)]
    if argv[0] != "gradcheck":
        argv = [*argv, "--out", str(tmp_path / "out")]
    assert run(argv) == 2
    assert any(line.startswith("error:") for line in capsys.readouterr().err.splitlines())


@pytest.mark.parametrize("flag, value", [("batch-size", "100000000"), ("m", "1000000")])
@pytest.mark.parametrize("command", ["embed", "bench"])
def test_a_batch_too_large_for_memory_exits_2_at_once(tmp_path, capsys, command, flag, value):
    # Rejected before the data is read: a batch this size would exhaust memory.
    argv = [command, "--data", "blobs:n_per_class=20", "--" + flag, value, "--epochs", "1",
            "--out", str(tmp_path / "out"), *(["--losses", "umap"] if command == "bench" else [])]
    t0 = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - t0 < 1.0
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: batch_size ") and " m " in line and "bytes" in line
    assert not (tmp_path / "out").exists()


def test_a_parametric_dim_too_large_for_memory_exits_2_before_the_data_is_read(
        tmp_path, capsys, monkeypatch):
    def no_data(cfg):
        raise AssertionError("the data was read")
    monkeypatch.setattr(cli, "_load_dataset", no_data)
    assert run(["embed", "--data", "blobs:n_per_class=20", "--mode", "parametric",
                "--dim", "99999999999999999999", "--epochs", "1",
                "--out", str(tmp_path / "out")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: embedding_dim 99999999999999999999 needs ")


def test_gradcheck_rejects_a_batch_too_large_before_drawing_one(monkeypatch, capsys):
    def no_batch(*args, **kwargs):
        raise AssertionError("a batch was drawn")
    monkeypatch.setattr(cli, "random_batch", no_batch)
    assert run(["gradcheck", "--losses", "umap", "--m", "2000000"]) == 2
    assert capsys.readouterr().err.startswith("error: batch_size 8 with m 2000000")


@pytest.mark.parametrize("text", [b"f0,lab\xffel\n1,0\n2,1\n", b"f0,label\n1,0\n2,\xff\n"],
                         ids=["header", "row"])
@pytest.mark.parametrize("command", ["embed", "plot"])
def test_a_data_file_that_is_not_utf8_exits_3(tmp_path, capsys, command, text):
    # A byte that is not UTF-8 in the first rows, or only further on (read
    # again row by row), is an unreadable file.
    bad = tmp_path / "bad.csv"
    bad.write_bytes(text)
    out = str(tmp_path / ("out.svg" if command == "plot" else "out"))
    assert run([command, "--data", str(bad), "--label-column", "label", "--out", out]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: cannot read {bad}:") and "Traceback" not in line


def test_an_output_path_that_cannot_be_written_exits_3(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    for argv in (["gen", "blobs:n_per_class=5", "--out", str(afile / "x.csv")],
                 ["embed", "--data", BLOBS, *FAST, "--out", str(afile)],
                 ["bench", "--data", BLOBS, "--losses", "umap", *FAST, "--out", str(afile)]):
        assert run(argv) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and str(afile) in line


def test_train_log_w_u_is_zero_without_a_midnear_term(tmp_path, capsys):
    for kind in ("umap", "trimap"):
        assert run(["embed", "--data", BLOBS, "--loss", kind, *FAST,
                    "--out", str(tmp_path / kind)]) == 0
    rows = {kind: [json.loads(line)["w_u"] for line in
                   (tmp_path / kind / "train_log.jsonl").read_text().splitlines()]
            for kind in ("umap", "trimap")}
    assert rows["umap"] == [0.0] * 5
    assert rows["trimap"][0] == 1.0


def test_data_and_graph_errors_exit_3(tmp_path, capsys):
    # Unlike a rejected setting, a bad data file is a runtime error; a k the
    # data cannot supply is a rejected setting.
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2,3\n4,5,6\n")
    for argv, code in ((["--data", str(bad)], 3),
                       (["--data", "blobs:n_per_class=20", "--k", "700"], 2)):
        assert run(["embed", *argv, "--out", str(tmp_path / "out")]) == code
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv, message", [
    (["--k", "700"], "error: k must satisfy 1 <= k <= N-1, got k=700, N=60"),
    (["--k", "0"], "error: k must satisfy 1 <= k <= N-1, got k=0, N=60"),
    (["--dim", "11"], "error: embedding dimension 11 exceeds the 10 columns PCA can supply"),
])
@pytest.mark.parametrize("command", ["embed", "bench"])
def test_a_setting_the_data_cannot_supply_exits_2_before_the_graph(
        tmp_path, capsys, monkeypatch, command, argv, message):
    # 60 x 10 data: k must lie in 1..59 and a non-parametric dimension at
    # most 10, the columns PCA supplies. Checked before the kNN graph is built.
    monkeypatch.setattr(cli, "knn_graph", lambda *a, **kw: pytest.fail("graph built"))
    argv = [command, "--data", "blobs:n_per_class=20", *argv, "--out", str(tmp_path / "out"),
            *(["--losses", "umap,tscne"] if command == "bench" else [])]
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [message]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", SUPERVISED_KINDS)
def test_supervised_loss_on_one_class_exits_2(tmp_path, capsys, monkeypatch, kind):
    # The labels are checked before the kNN graph is built.
    monkeypatch.setattr(cli, "knn_graph", lambda *a, **kw: pytest.fail("graph built"))
    argv = ["embed", "--data", "blobs:n_per_class=30,n_classes=1,dim=4", "--loss", kind,
            "--out", str(tmp_path / "out"), *FAST]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "two classes" in err


@pytest.mark.parametrize("kind", SUPERVISED_KINDS)
def test_bench_with_a_supervised_loss_on_one_class_exits_2(tmp_path, capsys, monkeypatch,
                                                           kind):
    # As in embed, labels that no loss of the grid can train on are rejected
    # before the kNN graph is built. (A grid with a usable loss records the
    # rejected cells' errors: test_bench_partial_failure_still_ok.)
    monkeypatch.setattr(cli, "knn_graph", lambda *a, **kw: pytest.fail("graph built"))
    other = "supcon" if kind == "tscne" else "tscne"  # a grid of two supervised kinds
    argv = ["bench", "--data", "blobs:n_per_class=30,n_classes=1,dim=4",
            "--losses", f"{kind},{other}", "--out", str(tmp_path / "out"), *FAST]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "two classes" in err
    assert not (tmp_path / "out").exists()


def test_dim_above_what_pca_supplies_exits_with_a_message(tmp_path, capsys):
    # 90 x 4 data: PCA supplies 4 columns, so a 6-column non-parametric run
    # fails before training; a parametric run does not start from PCA.
    data = "blobs:n_per_class=30,n_classes=3,dim=4"
    assert run(["embed", "--data", data, "--dim", "6", "--out", str(tmp_path / "a"),
                *FAST]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: embedding dimension 6 exceeds the 4 columns")
    assert not (tmp_path / "a" / "embedding.csv").exists()
    for name, argv in (("b", ["--dim", "4"]), ("c", ["--dim", "6", "--mode", "parametric"])):
        assert run(["embed", "--data", data, *argv, "--out", str(tmp_path / name), *FAST]) == 0
    header = (tmp_path / "c" / "embedding.csv").read_text().splitlines()[0]
    assert header == "id,z1,z2,z3,z4,z5,z6,label"


def test_standardize_flag_and_config_key(tmp_path, capsys):
    # --standardize (or `standardize = yes`) trains on the same points as a
    # CSV written from standardize(load_csv(...)); the round trip is lossless.
    raw, scaled = tmp_path / "raw.csv", tmp_path / "scaled.csv"
    assert run(["gen", BLOBS, "--out", str(raw)]) == 0
    write_csv(standardize(load_csv(raw, label_column="label")), scaled)
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nstandardize = yes\n")
    runs = {"want": [str(scaled)], "flag": [str(raw), "--standardize"],
            "ini": [str(raw), "--config", str(ini)], "raw": [str(raw)]}
    for name, argv in runs.items():
        assert run(["embed", "--data", *argv, "--label-column", "label",
                    "--out", str(tmp_path / name), *FAST]) == 0
    emb = {name: (tmp_path / name / "embedding.csv").read_bytes() for name in runs}
    assert emb["flag"] == emb["want"] and emb["ini"] == emb["want"]
    assert emb["raw"] != emb["want"]
    assert json.loads((tmp_path / "ini" / "config.json").read_text())["standardize"] is True
