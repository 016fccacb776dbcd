"""Command-line entry point.

Subcommands: gen (synthetic datasets), embed (one training run with full
output directory), bench (grid over losses and seeds), gradcheck (analytic
vs finite-difference gradients), plot (SVG from an embedding CSV).

Exit codes: 0 success, 2 usage/configuration error (a ConfigError), 3
any other error: data, numerics, divergence.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import inspect
import json
import statistics
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from .data import Dataset, load_csv, make_blobs, make_moons, standardize, write_csv, write_table
from .errors import CneError, ConfigError
from .losses import LOSS_KINDS, LossSpec, grad_check, loss_defaults
from .metrics import quality_report
from .neighbor_graph import DEFAULT_K, knn_graph
from .optimize import (MODES, OptimConfig, check_batch_shape, check_labels, fit_nonparametric,
                       fit_parametric)
from .sampling import DEFAULT_M, random_batch
from .svgplot import emit_svg

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3

GRADCHECK_TOLERANCE = 1e-4


def _load_config_file(path) -> dict:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path}: {str(exc).splitlines()[0]}") from None
    if not read:
        raise ConfigError(f"config file {path} not found")
    flat = {}
    for section in parser.sections():
        for key, value in parser[section].items():
            flat[key.replace("-", "_")] = value
    return flat


def _coerce(key: str, value: str):
    """Parse a config-file value as the type of the setting's default; a
    setting whose default is None keeps the string."""
    like = DEFAULTS[key]
    if isinstance(like, bool):
        low = value.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"config key {key!r}: cannot parse boolean {value!r}")
    if like is not None:
        try:
            value = type(like)(value)
        except ValueError:
            raise ConfigError(f"config key {key!r}: cannot parse {value!r} "
                              f"as {type(like).__name__}") from None
    return value


# The run settings are the fields of these dataclasses; three go by a
# different name on the command line and in config files.
RENAMES = {"kind": "loss", "learning_rate": "lr", "embedding_dim": "dim"}

DEFAULTS = {
    "data": None,
    "out": None,
    "label_column": None,
    "standardize": False,
    "k": DEFAULT_K,
    "deterministic": True,  # accepted and recorded; every run is deterministic
    "plot": False,
    **{RENAMES.get(f.name, f.name): f.default
       for cls in (LossSpec, OptimConfig)
       for f in fields(cls) if f.default is not MISSING},
}
PARAMETRIC_DEFAULTS = {"epochs": 100, "lr": 0.01}
CHOICES = {"loss": LOSS_KINDS, "mode": MODES}
HELP = {
    "data": "CSV path or generator spec (blobs:...|moons:...)",
    "grad_clip": "element-wise gradient bound; 0 disables",
    "deterministic": "accepted for compatibility; runs are always deterministic",
}


def _resolve(args, config: dict, loss: str | None = None) -> dict:
    """Merge precedence: CLI flag > config file > per-loss or parametric-mode
    default > built-in default. `loss` overrides the loss selection before
    per-loss defaults are applied (used by the bench grid)."""
    merged = dict(DEFAULTS)
    explicit = set()
    for key, value in config.items():
        if key not in merged:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = _coerce(key, value)
        explicit.add(key)
    for key in merged:
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            merged[key] = cli_val
            explicit.add(key)
    if loss is not None:
        merged["loss"] = loss
    overrides = loss_defaults(merged["loss"])
    if merged["mode"] == "parametric":
        overrides.update(PARAMETRIC_DEFAULTS)
    for key, value in overrides.items():
        if key not in explicit:
            merged[key] = value
    return merged


GENERATORS = {"blobs": make_blobs, "moons": make_moons}


def _parse_generator_spec(spec: str) -> Dataset:
    """KIND:key=value,...; the keys, their types and defaults are the generator's."""
    kind, _, rest = spec.partition(":")
    if kind not in GENERATORS:
        raise ConfigError(f"unknown generator {kind!r}; use blobs:... or moons:...")
    params = inspect.signature(GENERATORS[kind]).parameters
    kwargs = {}
    for item in rest.split(",") if rest else ():
        key, _, value = (part.strip() for part in item.partition("="))
        if key not in params or not value:
            raise ConfigError(f"bad generator parameter {item!r}; {kind} takes {', '.join(params)}")
        kwargs[key] = value
    try:
        return GENERATORS[kind](**{k: type(params[k].default)(v) for k, v in kwargs.items()})
    except (ValueError, CneError) as exc:
        raise ConfigError(f"bad generator spec {spec!r}: {exc}") from exc


def _label_column(label):
    """A digit string selects the label column by index, other text by name."""
    if isinstance(label, str) and label.lstrip("-").isdigit():
        return int(label)
    return label


def _load_dataset(cfg: dict) -> Dataset:
    source = cfg.get("data")
    if not source:
        raise ConfigError("no dataset: pass --data FILE or --data blobs:...|moons:...")
    if source.partition(":")[0] in GENERATORS:
        ds = _parse_generator_spec(source)
    else:
        ds = load_csv(source, label_column=_label_column(cfg.get("label_column")))
    if cfg.get("standardize"):
        ds = standardize(ds)
    return ds


def _kwargs(cls, cfg: dict) -> dict:
    """Keyword arguments for dataclass `cls`: its run settings, from `cfg`."""
    return {f.name: cfg[RENAMES.get(f.name, f.name)]
            for f in fields(cls) if f.default is not MISSING}


def _specs(cfg: dict, cells: int = 1) -> tuple[LossSpec, OptimConfig]:
    """The run's LossSpec and OptimConfig; an invalid setting, a plot of a
    1-D embedding, or a batch too large for `cells` such runs at once, raises."""
    spec, optim = LossSpec(**_kwargs(LossSpec, cfg)), OptimConfig(**_kwargs(OptimConfig, cfg))
    if cfg.get("plot") and optim.embedding_dim < 2:
        raise ConfigError("--plot needs an embedding of at least 2 dimensions")
    check_batch_shape(spec, optim, cells)
    return spec, optim


def run_embed(cfg: dict, ds: Dataset, graph) -> dict:
    """One full training run on `ds` and its kNN graph (read-only, so they
    may be shared); returns the quality report dict."""
    spec, optim = _specs(cfg)
    out = Path(cfg["out"] or "out")
    if optim.mode == "parametric":
        encoder, emb, log = fit_parametric(ds, graph, spec, optim)
    else:
        emb, log = fit_nonparametric(ds, graph, spec, optim)

    # Made after the fit: a run that fails to train leaves no directory.
    out.mkdir(parents=True, exist_ok=True)
    if optim.mode == "parametric":
        encoder.save(out / "encoder.bin")
    write_table(out / "embedding.csv", emb.coords, ds.labels,
                [f"z{c + 1}" for c in range(emb.d)], ids=True)
    with open(out / "train_log.jsonl", "w") as fh:
        for entry in log:
            fh.write(json.dumps(entry) + "\n")
    resolved = {k: v for k, v in cfg.items() if k != "out"}
    resolved["loss_spec"], resolved["optim"] = asdict(spec), asdict(optim)
    with open(out / "config.json", "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
    report = quality_report(ds, emb, input_neighbors=graph.neighbors)
    with open(out / "quality.json", "w") as fh:
        json.dump(asdict(report), fh, indent=2, sort_keys=True)
    if cfg.get("plot"):
        emit_svg(emb, ds.labels, out / "plot.svg")
    return asdict(report)


def cmd_gen(args) -> int:
    ds = _parse_generator_spec(args.generator)
    write_csv(ds, args.out)
    print(f"wrote {ds.n} x {ds.dim} samples to {args.out}")
    return EXIT_OK


def cmd_embed(args) -> int:
    config = _load_config_file(args.config) if args.config else {}
    cfg = _resolve(args, config)
    spec, _ = _specs(cfg)  # an invalid setting fails before the data is read
    ds = _load_dataset(cfg)
    check_labels(ds, spec)  # and unusable labels before the graph is built
    report = run_embed(cfg, ds, knn_graph(ds, k=cfg["k"]))
    printable = {k: v for k, v in report.items() if v is not None}
    print(json.dumps(printable, sort_keys=True))
    return EXIT_OK


def _bench_one(cfg, ds, graph):
    try:
        report = run_embed(cfg, ds, graph)
        return {"loss": cfg["loss"], "seed": cfg["seed"], "status": "ok", **report}
    except Exception as exc:  # recorded per row, not fatal for the grid
        return {"loss": cfg["loss"], "seed": cfg["seed"], "status": f"error: {exc}"}


def _loss_list(text: str) -> list[str]:
    kinds = [s.strip() for s in text.split(",") if s.strip()]
    for name in kinds:
        if name not in LOSS_KINDS:
            raise ConfigError(f"unknown loss {name!r}")
    if not kinds:
        raise ConfigError(f"--losses names no loss: {text!r}")
    return kinds


def _label_error(ds, spec):
    """The ConfigError check_labels raises for `ds` and `spec`, or None."""
    try:
        check_labels(ds, spec)
    except ConfigError as exc:
        return exc
    return None


def cmd_bench(args) -> int:
    config = _load_config_file(args.config) if args.config else {}
    loss_list = _loss_list(args.losses)
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    try:
        seed_list = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"--seeds must be comma-separated integers, got {args.seeds!r}") from None
    if not seed_list:
        raise ConfigError("bench needs a non-empty --seeds list")
    base = _resolve(args, config)
    out = Path(base["out"] or "bench_out")
    grid, specs = [], {}
    jobs = min(args.jobs, len(loss_list) * len(seed_list))  # the cells run at once
    for loss in loss_list:
        resolved = _resolve(args, config, loss=loss)
        for seed in seed_list:
            cfg = dict(resolved, seed=seed, out=str(out / f"{loss}_seed{seed}"))
            specs[loss], _ = _specs(cfg, jobs)  # a cell's rejected setting fails before the grid
            grid.append(cfg)
    # No per-loss setting changes the data or the graph.
    ds = _load_dataset(base)
    # Labels that no loss of the grid can train on fail before the graph is
    # built; with one usable loss, each rejected cell records its error.
    errors = [_label_error(ds, spec) for spec in specs.values()]
    if all(errors):
        raise errors[0]
    graph = knn_graph(ds, k=base["k"])
    out.mkdir(parents=True, exist_ok=True)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        rows = list(pool.map(lambda cfg: _bench_one(cfg, ds, graph), grid))

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
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    n, d, b, m = 64, 2, 8, args.m
    optim = OptimConfig(batch_size=b, seed=args.seed)  # rejects a negative seed
    specs = [LossSpec(kind=kind, m=m, log_ratio=args.log_ratio or False)
             for kind in _loss_list(args.losses)]
    for spec in specs:  # a batch too large for memory fails before any is drawn
        check_batch_shape(spec, optim)
    rng = np.random.default_rng(args.seed)
    labels = rng.integers(0, 3, size=n)
    failed = False
    for spec in specs:
        worst = 0.0
        for _ in range(args.trials):
            coords = rng.normal(size=(n, d))
            batch = random_batch(n, b, m, rng, labels=labels)
            worst = max(worst, grad_check(spec, batch, coords))
        status = "PASS" if worst < GRADCHECK_TOLERANCE else "FAIL"
        failed |= status == "FAIL"
        print(f"{spec.kind}: max_rel_err={worst:.3e} {status}")
    return EXIT_RUNTIME if failed else EXIT_OK


def cmd_plot(args) -> int:
    ds = load_csv(args.data, label_column=_label_column(args.label_column))
    coords = ds.points[:, 1:] if args.skip_id_column else ds.points
    emit_svg(coords, ds.labels, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _add_run_flags(p):
    p.add_argument("--config", help="INI-style config file; CLI flags override it")
    for key, default in DEFAULTS.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(default, bool):
            p.add_argument(flag, action=argparse.BooleanOptionalAction, help=HELP.get(key))
        else:
            p.add_argument(flag, type=str if default is None else type(default),
                           choices=CHOICES.get(key), help=HELP.get(key))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cne", description="Contrastive neighbor-embedding toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    p_gen.add_argument("generator", help="blobs or moons, optionally with :key=value,...")
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
    p_grad.add_argument("--losses", default=",".join(LOSS_KINDS),
                        help="comma-separated subset (default: all)")
    p_grad.add_argument("--trials", type=int, default=20)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--m", type=int, default=DEFAULT_M)
    p_grad.add_argument("--log-ratio", dest="log_ratio",
                        action=argparse.BooleanOptionalAction, default=None)
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
    except (CneError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ConfigError) else EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
