"""Benchmark of the `cne` command line on three fixed workloads.

    python3 benchmarks/run.py --workload fit-grid --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. Each CLI run is a fresh process
(``child.py``) on CSV inputs generated from ``--seed`` before timing starts.
The load is a closed loop with one client: runs go back to back, one process
at a time, with one BLAS thread. Every run's
outputs are checked and the embedding hashes recorded. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics of traced runs with ``--trace 1``). See README.md for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import tracing

HERE = Path(__file__).resolve().parent
# A run stops starting CLI processes so that it ends well inside 180 s.
DEADLINE_S = 170.0
# Set-up samples wanted per run; cheap set-up-only processes top up the
# set-up times of the full runs to this count while the window allows.
SETUP_SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    why: str
    n_per_class: int
    n_classes: int
    dim: int
    command: tuple       # cne subcommand and its fixed flags
    losses: tuple        # grid cells (bench) or the one loss (embed)


WORKLOADS = {
    # The ROADMAP's W1 data, up to a rotation. Nearly all of run_s is
    # sampling, the losses and the optimizer step: one loss per sampling
    # mechanism (negatives only, mid-near, label positives with the
    # temperature kernel, label positives plus mid-near with the Cauchy
    # kernel). The grid rebuilds the same graph once per cell, so graph reuse
    # shows here.
    "fit-grid": Workload(
        why="bench grid of umap, trimap, supcon, tscne on 600x10 blobs: sampling, losses, update",
        n_per_class=200, n_classes=3, dim=10,
        command=("bench", "--epochs", "15"),
        losses=("umap", "trimap", "supcon", "tscne"),
    ),
    # The only workload that runs the encoder forward/backward and the
    # per-step scatter into a full N x d array.
    "fit-parametric": Workload(
        why="parametric umap on 600x10 blobs: encoder forward and backward, per-step scatter",
        n_per_class=200, n_classes=3, dim=10,
        command=("embed", "--mode", "parametric", "--epochs", "100"),
        losses=("umap",),
    ),
    # The O(N^2) graph and metric loops dominate, and the N x N x d
    # silhouette tensor sets peak RSS. trimap, not umap: after 2 to 8 epochs
    # umap's silhouette at this N is still negative (-0.13 to -0.07), which
    # no relative bound can judge; trimap reaches about 0.77 in one epoch.
    "graph-metrics": Workload(
        why="one-epoch trimap on 5000x50 blobs, 10 classes: kNN graph, quality metrics, memory",
        n_per_class=500, n_classes=10, dim=50,
        command=("embed", "--epochs", "1"),
        losses=("trimap",),
    ),
}

UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "knn_recall": "1",
         "knn_accuracy": "1", "silhouette": "1"}
TRACE_UNITS = {"trace.run_s": "s", "trace.overhead_s": "s",
               "trace.fit_layers_share": "1", "trace.graph_metrics_data_share": "1"}


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


@dataclass
class Sample:
    kind: str                 # "plain", "trace" or "setup"
    ok: bool
    run_s: float
    setup_s: float | None = None
    rss_mb: float | None = None
    quality: dict | None = None
    hashes: dict | None = None
    layers: dict | None = None
    missing: tuple = ()


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root = root
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.work = HERE / "out" / f"{workload}-seed{seed}-pid{os.getpid()}"
        # One BLAS thread, within the usable CPU count. Only the encoder of
        # fit-parametric does BLAS work, on matrices so small that a second
        # thread doubled the CPU time without shortening the wall time.
        self.threads = 1
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(self.threads)

    # --- set-up -----------------------------------------------------------

    def build(self) -> dict:
        """Check that the package imports from this checkout. The import
        byte-compiles it, so no timed run pays for compilation."""
        src = self.root / "src" / "cne"
        if not (src / "__init__.py").is_file():
            raise SetupError(f"no cne sources under {src}; run from a source checkout")
        probe = subprocess.run(
            [sys.executable, "-c", "import cne, numpy; print(cne.__file__); "
             "print(cne.__version__); print(numpy.__version__)"],
            env=self.env, capture_output=True, text=True, timeout=60)
        if probe.returncode != 0:
            raise SetupError(f"cannot import cne: {probe.stderr.strip()}")
        path, version, np_version = probe.stdout.splitlines()
        if not Path(path).resolve().is_relative_to(src.resolve()):
            raise SetupError(f"cne imports from {path}, not from {src}")
        return {"python": platform.python_version(), "numpy": np_version,
                "cne": version, "nproc": len(os.sched_getaffinity(0)),
                "blas_threads": self.threads,
                "cpu": _cpu_model(), "build": checks.sha256_tree(src)}

    def make_inputs(self) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        rng = np.random.default_rng([self.seed, 2309])
        data_seed, self.cne_seed = (int(v) for v in rng.integers(0, 2**31 - 1, size=2))
        self.data = self.work / "data.csv"
        self.labels = checks.write_blobs_csv(
            self.data, self.wl.n_per_class, self.wl.n_classes, self.wl.dim, seed=data_seed)
        self.n = len(self.labels)
        self.cells = [f"{loss}_seed{self.cne_seed}" for loss in self.wl.losses]
        return {"data.csv": checks.sha256_file(self.data), "cne_seed": self.cne_seed}

    def argv(self, out: Path) -> list[str]:
        cmd, *flags = self.wl.command
        args = [cmd, "--data", str(self.data.relative_to(self.root)),
                "--label-column", "label", "--k", "15", *flags,
                "--out", str(out.relative_to(self.root))]
        if cmd == "bench":
            return args + ["--losses", ",".join(self.wl.losses), "--seeds", str(self.cne_seed)]
        return args + ["--loss", self.wl.losses[0], "--seed", str(self.cne_seed)]

    # --- one CLI process --------------------------------------------------

    def run_once(self, index: int, mode: str) -> Sample:
        out = self.work / f"run{index}"
        record_path = self.work / f"run{index}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(record_path), mode, "--",
               *self.argv(out)]
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, timeout=timeout,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            return self._fail(mode, time.monotonic() - spawn, f"run{index} timed out")
        run_s = time.monotonic() - spawn
        try:
            record = json.loads(record_path.read_text())
        except (OSError, ValueError) as exc:
            return self._fail(mode, run_s, f"run{index}: no record ({exc}); {proc.stderr[-500:]}")
        if proc.returncode != 0:
            return self._fail(mode, run_s, f"run{index} exited {proc.returncode}: "
                              f"{proc.stderr.strip()[-500:]}")
        setup_s = None if record["fit_entry"] is None else record["fit_entry"] - spawn
        sample = Sample(kind=mode, ok=True, run_s=run_s, setup_s=setup_s,
                        rss_mb=record["maxrss_kb"] / 1024.0)
        if mode == "setup":
            return sample
        if self.wl.command[0] == "bench":
            problems, sample.quality, sample.hashes = checks.check_bench_output(
                out, self.n, self.labels, self.cells)
        else:
            problems, sample.quality, sample.hashes = checks.check_embed_output(
                out, self.n, self.labels)
        if problems:
            return self._fail(mode, run_s, f"run{index}: " + "; ".join(problems[:5]))
        if mode == "trace":
            sample.layers, missing = tracing.layer_metrics(
                record["trace"]["spans"], record["trace"]["unwrapped"])
            sample.missing = tuple(sorted(missing))
        shutil.rmtree(out, ignore_errors=True)
        return sample

    def _fail(self, mode, run_s, problem) -> Sample:
        print(f"FAILED {problem}", file=sys.stderr)
        return Sample(kind=mode, ok=False, run_s=run_s)

    # --- the closed loop --------------------------------------------------

    def measure(self, trace: bool) -> list[Sample]:
        """Back-to-back CLI runs while the next one is expected to end inside
        the window. With tracing, plain and traced runs alternate, each at
        least once, so that their difference is the tracing overhead. Without
        it, set-up-only runs then top the set-up samples up to SETUP_SAMPLES."""
        samples: list[Sample] = []
        modes = ("plain", "trace") if trace else ("plain",)
        window = time.monotonic()

        def room(kind) -> bool:
            done = [s.run_s for s in samples if s.kind == kind]
            if kind == "setup" and not done:
                done = [s.setup_s for s in samples if s.ok and s.setup_s is not None]
            estimate = statistics.median(done) if done else 0.0
            left = min(self.seconds - (time.monotonic() - window),
                       DEADLINE_S - (time.monotonic() - self.started))
            return estimate <= left

        for i in itertools.count():
            mode = modes[i % len(modes)]
            if i >= len(modes) and not room(mode):
                break
            samples.append(self.run_once(len(samples), mode))
        if not trace:
            while (sum(1 for s in samples if s.ok and s.setup_s is not None) < SETUP_SAMPLES
                   and room("setup")):
                samples.append(self.run_once(len(samples), "setup"))
        return samples


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _median(values):
    values = [v for v in values if v is not None]
    return checks.median_n(values) if values else None


def end_to_end(samples: list[Sample]) -> dict:
    full = [s for s in samples if s.ok and s.kind == "plain"]
    setups = [s.setup_s for s in samples if s.ok and s.kind in ("plain", "setup")]
    found = {
        "run_s": _median(s.run_s for s in full),
        "setup_s": _median(setups),
        "peak_rss_mb": _median(s.rss_mb for s in full),
    }
    for key in checks.QUALITY_RANGES:
        found[key] = _median(s.quality[key] for s in full)
    return found


def per_layer(samples: list[Sample]) -> tuple[dict, set]:
    plain = [s for s in samples if s.ok and s.kind == "plain"]
    traced = [s for s in samples if s.ok and s.kind == "trace"]
    missing = {m for s in traced for m in s.missing}
    names = {k for s in traced for k in s.layers} - missing
    found = {name: _median(s.layers.get(name) for s in traced) for name in sorted(names)}
    if traced:
        found["trace.run_s"] = _median(s.run_s for s in traced)
        shares = {
            # The fit span holds the sampling, loss, update and encoder self times.
            "trace.fit_layers_share": ("optimize.fit_s",),
            "trace.graph_metrics_data_share": (
                "neighbor_graph.knn_graph_s", "metrics.quality_report_s", "data.load_csv_s"),
        }
        for name, parts in shares.items():
            if not missing.intersection(parts):
                found[name] = _median(sum(s.layers[p] for p in parts) / s.run_s for s in traced)
        if plain:
            found["trace.overhead_s"] = {
                "median": found["trace.run_s"]["median"]
                - statistics.median(s.run_s for s in plain),
                "n": len(traced) + len(plain)}
    return found, missing


def check_determinism(bench: Bench, build: str, samples: list[Sample]) -> None:
    """Mark failed every run whose embedding hashes differ from the first
    run of the same build, workload and seed, in this or an earlier
    invocation, and append this invocation's hashes to the history."""
    key = json.dumps([build, bench.name, bench.seed])
    path = HERE / "out" / "history.jsonl"
    earlier = []
    if path.exists():
        for line in path.read_text().splitlines():
            try:
                rec = json.loads(line)
            except ValueError:      # a line cut short by an interrupted run
                continue
            if rec.get("key") == key:
                earlier.append(rec["hashes"])
    current = [s for s in samples if s.ok and s.hashes]
    for sample, cells in zip(current, checks.hash_mismatches(earlier, [s.hashes for s in current])):
        if cells:
            sample.ok = False
            print(f"DETERMINISM repeats of one build disagree on {', '.join(cells)}",
                  file=sys.stderr)
    with open(path, "a") as fh:
        for sample in current:
            fh.write(json.dumps({"key": key, "hashes": sample.hashes}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = Bench(HERE.parent, args.workload, args.seed, args.seconds)
    try:
        env = bench.build()
        inputs = bench.make_inputs()
    except (SetupError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print(f"workload {bench.name}: {bench.wl.why}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("inputs " + json.dumps(inputs, sort_keys=True))
    print("argv cne " + " ".join(bench.argv(bench.work / "runN")))

    samples = bench.measure(trace=bool(args.trace))
    check_determinism(bench, env["build"], samples)
    hashed = [s for s in samples if s.ok and s.hashes]
    for cell, digest in sorted(hashed[0].hashes.items() if hashed else ()):
        print(f"sha256 {cell} {digest}")

    for kind in ("plain", "trace", "setup"):
        times = [f"{s.run_s:.3f}" for s in samples if s.kind == kind]
        if times:
            print(f"{kind} runs, s: {' '.join(times)}")
    attempted = len(samples)
    failed = sum(1 for s in samples if not s.ok)
    print(f"error_rate {failed / attempted:.4f} ({failed} of {attempted} runs failed)")
    if args.trace:
        found, missing = per_layer(samples)
        if missing:
            print("missing " + ", ".join(sorted(missing)), file=sys.stderr)
        units = {**tracing.LAYER_UNITS, **TRACE_UNITS}
    else:
        found, units = end_to_end(samples), UNITS
    metrics = {}
    for name, stat in found.items():
        if stat is not None:
            metrics[name] = {"value": stat["median"], "unit": units[name]}
            print(f"{name} {stat['median']:.6g} {units[name]} (median of {stat['n']})")
    shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
