"""Command-line entry point.

Subcommands: gen (synthetic datasets), embed (one training run with full
output directory), bench (grid over losses and seeds), gradcheck (analytic
vs finite-difference gradients), plot (SVG from an embedding CSV).

Exit codes: 0 success, 2 usage/configuration error, 3 runtime or
divergence error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import statistics
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .data import Dataset, load_csv, make_blobs, make_moons, standardize, write_csv
from .errors import CneError
from .losses import LOSS_KINDS, SUPERVISED_KINDS, LossSpec, grad_check, loss_defaults
from .metrics import quality_report
from .neighbor_graph import knn_graph
from .optimize import OptimConfig, fit_nonparametric, fit_parametric
from .sampling import ScheduleSpec, random_batch
from .svgplot import emit_svg

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3

GRADCHECK_TOLERANCE = 1e-4


class UsageError(Exception):
    pass


def _load_config_file(path) -> dict:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise UsageError(f"config file {path} not found")
    flat = {}
    for section in parser.sections():
        for key, value in parser[section].items():
            flat[key.replace("-", "_")] = value
    return flat


def _coerce(value: str, like):
    if isinstance(like, bool):
        low = value.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"cannot parse boolean {value!r}")
    if isinstance(like, int):
        return int(value)
    if isinstance(like, float):
        return float(value)
    return value


DEFAULTS = {
    "label_column": None,
    "standardize": False,
    "k": 15,
    "loss": "umap",
    "m": 5,
    "tau": 0.5,
    "w_p": 1.0,
    "w_u_init": 1.0,
    "w_u_final": 0.0,
    "anneal_fraction": 0.5,
    "epochs": None,  # resolved per mode
    "lr": None,      # resolved per mode
    "momentum": 0.9,
    "grad_clip": 0.05,
    "batch_size": 1024,
    "seed": 0,
    "deterministic": True,  # accepted and recorded; every run is deterministic
    "mode": "nonparametric",
    "dim": 2,
    "log_ratio": False,
    "paper_as_written": False,
    "corrected_pacmap_sign": True,
    "denominator_includes_positive": False,
    "plot": False,
}


def _resolve(args, config: dict, loss: str | None = None) -> dict:
    """Merge precedence: CLI flag > config file > per-loss default > built-in
    default. `loss` overrides the loss selection before per-loss defaults
    are applied (used by the bench grid)."""
    merged = dict(DEFAULTS)
    explicit = set()
    for key, value in config.items():
        if key in ("data", "out"):
            merged[key] = value
            continue
        if key not in merged:
            raise UsageError(f"unknown config key {key!r}")
        like = merged[key]
        if like is None:
            like = 0 if key == "epochs" else 0.0
        merged[key] = _coerce(value, like)
        explicit.add(key)
    for key in merged:
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            merged[key] = cli_val
            explicit.add(key)
    for key in ("data", "out"):
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            merged[key] = cli_val
    if loss is not None:
        merged["loss"] = loss
    for key, value in loss_defaults(merged["loss"]).items():
        if key not in explicit:
            merged[key] = value
    if merged["epochs"] is None:
        merged["epochs"] = 250 if merged["mode"] == "nonparametric" else 100
    if merged["lr"] is None:
        merged["lr"] = 1.0 if merged["mode"] == "nonparametric" else 0.01
    return merged


def _parse_generator_spec(spec: str) -> Dataset:
    kind, _, rest = spec.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise UsageError(f"bad generator parameter {item!r}")
            params[key.strip()] = value.strip()
    try:
        if kind == "blobs":
            return make_blobs(
                n_per_class=int(params.get("n_per_class", 200)),
                n_classes=int(params.get("n_classes", 3)),
                dim=int(params.get("dim", 10)),
                separation=float(params.get("separation", 20.0)),
                seed=int(params.get("seed", 0)),
            )
        if kind == "moons":
            return make_moons(
                n=int(params.get("n", 400)),
                noise=float(params.get("noise", 0.05)),
                seed=int(params.get("seed", 0)),
            )
    except (ValueError, CneError) as exc:
        raise UsageError(f"bad generator spec {spec!r}: {exc}") from exc
    raise UsageError(f"unknown generator {kind!r}; use blobs:... or moons:...")


def _load_dataset(cfg: dict) -> Dataset:
    source = cfg.get("data")
    if not source:
        raise UsageError("no dataset: pass --data FILE or --data blobs:...|moons:...")
    if source.startswith(("blobs:", "moons:")) or source in ("blobs", "moons"):
        ds = _parse_generator_spec(source)
    else:
        label = cfg.get("label_column")
        if isinstance(label, str) and label.lstrip("-").isdigit():
            label = int(label)
        ds = load_csv(source, label_column=label)
    if cfg.get("standardize"):
        ds = standardize(ds)
    return ds


def _loss_spec(cfg: dict) -> LossSpec:
    schedule = ScheduleSpec(
        w_p=cfg["w_p"], w_u_init=cfg["w_u_init"],
        w_u_final=cfg["w_u_final"], anneal_fraction=cfg["anneal_fraction"],
    )
    return LossSpec(
        kind=cfg["loss"], m=cfg["m"], tau=cfg["tau"], schedule=schedule,
        log_ratio=cfg["log_ratio"],
        corrected_pacmap_sign=cfg["corrected_pacmap_sign"],
        denominator_includes_positive=cfg["denominator_includes_positive"],
        paper_as_written=cfg["paper_as_written"],
    )


def _optim_config(cfg: dict) -> OptimConfig:
    return OptimConfig(
        epochs=cfg["epochs"], learning_rate=cfg["lr"], momentum=cfg["momentum"],
        batch_size=cfg["batch_size"], seed=cfg["seed"],
        mode=cfg["mode"], embedding_dim=cfg["dim"], grad_clip=cfg["grad_clip"],
    )


def _write_embedding_csv(path, emb, labels):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["id"] + [f"z{c + 1}" for c in range(emb.d)]
        if labels is not None:
            header.append("label")
        writer.writerow(header)
        for i in range(emb.n):
            row = [str(i)] + [f"{v:.17g}" for v in emb.coords[i]]
            if labels is not None:
                row.append(str(int(labels[i])))
            writer.writerow(row)


def run_embed(cfg: dict) -> dict:
    """One full training run; returns the quality report dict."""
    ds = _load_dataset(cfg)
    spec = _loss_spec(cfg)
    if spec.kind in SUPERVISED_KINDS:
        if ds.labels is None:
            raise UsageError(f"loss {spec.kind!r} requires labeled data")
        if len(np.unique(ds.labels)) < 2:
            raise UsageError(f"loss {spec.kind!r} requires at least two classes")
    optim = _optim_config(cfg)
    out = Path(cfg.get("out") or "out")
    out.mkdir(parents=True, exist_ok=True)

    graph = knn_graph(ds, k=cfg["k"])
    if optim.mode == "parametric":
        encoder, emb, log = fit_parametric(ds, graph, spec, optim)
        encoder.save(out / "encoder.bin")
    else:
        emb, log = fit_nonparametric(ds, graph, spec, optim)

    _write_embedding_csv(out / "embedding.csv", emb, ds.labels)
    with open(out / "train_log.jsonl", "w") as fh:
        for entry in log:
            fh.write(json.dumps(entry) + "\n")
    resolved = {k: v for k, v in cfg.items() if k not in ("out",)}
    resolved["loss_spec"] = spec.to_dict()
    resolved["optim"] = optim.to_dict()
    with open(out / "config.json", "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
    report = quality_report(ds, emb)
    with open(out / "quality.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
    if cfg.get("plot"):
        emit_svg(emb, ds.labels, out / "plot.svg")
    return report.to_dict()


def cmd_gen(args) -> int:
    spec = args.generator
    if ":" not in spec and args.params:
        spec = f"{spec}:{args.params}"
    ds = _parse_generator_spec(spec)
    write_csv(ds, args.out)
    print(f"wrote {ds.n} x {ds.dim} samples to {args.out}")
    return EXIT_OK


def cmd_embed(args) -> int:
    config = _load_config_file(args.config) if args.config else {}
    cfg = _resolve(args, config)
    report = run_embed(cfg)
    printable = {k: v for k, v in report.items() if v is not None}
    print(json.dumps(printable, sort_keys=True))
    return EXIT_OK


def _bench_one(cfg):
    try:
        report = run_embed(cfg)
        return {"loss": cfg["loss"], "seed": cfg["seed"], "status": "ok", **report}
    except Exception as exc:  # recorded per row, not fatal for the grid
        return {"loss": cfg["loss"], "seed": cfg["seed"], "status": f"error: {exc}"}


def cmd_bench(args) -> int:
    config = _load_config_file(args.config) if args.config else {}
    loss_list = [s.strip() for s in args.losses.split(",") if s.strip()]
    seed_list = [int(s) for s in args.seeds.split(",") if s.strip()]
    if not loss_list or not seed_list:
        raise UsageError("bench needs a non-empty --losses and --seeds grid")
    for name in loss_list:
        if name not in LOSS_KINDS:
            raise UsageError(f"unknown loss {name!r}")
    base = _resolve(args, config)
    out = Path(base.get("out") or "bench_out")
    out.mkdir(parents=True, exist_ok=True)
    grid = []
    for loss in loss_list:
        resolved = _resolve(args, config, loss=loss)
        for seed in seed_list:
            cfg = dict(resolved)
            cfg["seed"] = seed
            cfg["out"] = str(out / f"{loss}_seed{seed}")
            grid.append(cfg)
    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_bench_one, grid))
    else:
        rows = [_bench_one(cfg) for cfg in grid]

    metric_keys = ("knn_recall", "knn_accuracy", "silhouette")
    summary = {}
    for loss in loss_list:
        ok = [r for r in rows if r["loss"] == loss and r["status"] == "ok"]
        stats = {}
        for key in metric_keys:
            vals = [r[key] for r in ok if r.get(key) is not None]
            if vals:
                stats[f"{key}_mean"] = statistics.fmean(vals)
                stats[f"{key}_std"] = statistics.pstdev(vals) if len(vals) > 1 else 0.0
        summary[loss] = stats

    fields = ["loss", "seed", "status", *metric_keys, "k_recall", "k_accuracy"]
    with open(out / "bench.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    with open(out / "bench.json", "w") as fh:
        json.dump({"rows": rows, "summary": summary}, fh, indent=2, sort_keys=True)
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    if all(r["status"] != "ok" for r in rows):
        print("all bench runs failed", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    kinds = ([s.strip() for s in args.losses.split(",") if s.strip()]
             if args.losses else list(LOSS_KINDS))
    for name in kinds:
        if name not in LOSS_KINDS:
            raise UsageError(f"unknown loss {name!r}")
    rng = np.random.default_rng(args.seed)
    n, d, b, m = 64, 2, 8, args.m
    labels = rng.integers(0, 3, size=n)
    failed = False
    for kind in kinds:
        spec = LossSpec(kind=kind, m=m, log_ratio=args.log_ratio or False)
        worst = 0.0
        for _ in range(args.trials):
            coords = rng.normal(size=(n, d))
            batch = random_batch(n, b, m, rng, labels=labels)
            worst = max(worst, grad_check(spec, batch, coords, corrupt=float(args.corrupt)))
        status = "PASS" if worst < GRADCHECK_TOLERANCE else "FAIL"
        if status == "FAIL":
            failed = True
        print(f"{kind}: max_rel_err={worst:.3e} {status}")
    return EXIT_RUNTIME if failed else EXIT_OK


def cmd_plot(args) -> int:
    ds = load_csv(args.data, label_column=args.label_column)
    coords = ds.points[:, 1:] if args.skip_id_column else ds.points
    emit_svg(coords, ds.labels, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _add_run_flags(p):
    p.add_argument("--config", help="INI-style config file; CLI flags override it")
    p.add_argument("--data", help="CSV path or generator spec (blobs:...|moons:...)")
    p.add_argument("--label-column", dest="label_column")
    p.add_argument("--standardize", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--k", type=int)
    p.add_argument("--loss", choices=LOSS_KINDS)
    p.add_argument("--m", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--w-p", dest="w_p", type=float)
    p.add_argument("--w-u-init", dest="w_u_init", type=float)
    p.add_argument("--w-u-final", dest="w_u_final", type=float)
    p.add_argument("--anneal-fraction", dest="anneal_fraction", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--grad-clip", dest="grad_clip", type=float,
                   help="element-wise gradient bound; 0 disables")
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--deterministic", action=argparse.BooleanOptionalAction, default=None,
                   help="accepted for compatibility; runs are always deterministic")
    p.add_argument("--mode", choices=("nonparametric", "parametric"))
    p.add_argument("--dim", type=int)
    p.add_argument("--log-ratio", dest="log_ratio",
                   action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--paper-as-written", dest="paper_as_written",
                   action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--corrected-pacmap-sign", dest="corrected_pacmap_sign",
                   action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--denominator-includes-positive", dest="denominator_includes_positive",
                   action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--out")
    p.add_argument("--plot", action=argparse.BooleanOptionalAction, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cne", description="Contrastive neighbor-embedding toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    p_gen.add_argument("generator", help="blobs or moons, optionally with :key=value,...")
    p_gen.add_argument("--params", help="key=value,... generator parameters")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_embed = sub.add_parser("embed", help="train one embedding and write outputs")
    _add_run_flags(p_embed)
    p_embed.set_defaults(func=cmd_embed)

    p_bench = sub.add_parser("bench", help="run a loss x seed grid and aggregate quality")
    _add_run_flags(p_bench)
    p_bench.add_argument("--losses", required=True, help="comma-separated loss kinds")
    p_bench.add_argument("--seeds", default="0", help="comma-separated seeds")
    p_bench.add_argument("--jobs", type=int, default=1)
    p_bench.set_defaults(func=cmd_bench)

    p_grad = sub.add_parser("gradcheck", help="analytic vs finite-difference gradients")
    p_grad.add_argument("--losses", help="comma-separated subset (default: all)")
    p_grad.add_argument("--trials", type=int, default=20)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--m", type=int, default=5)
    p_grad.add_argument("--log-ratio", dest="log_ratio",
                        action=argparse.BooleanOptionalAction, default=None)
    p_grad.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p_grad.set_defaults(func=cmd_gradcheck)

    p_plot = sub.add_parser("plot", help="SVG scatter plot from an embedding CSV")
    p_plot.add_argument("--data", required=True)
    p_plot.add_argument("--label-column", dest="label_column")
    p_plot.add_argument("--skip-id-column", action="store_true",
                        help="ignore the first column (sample ids)")
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
