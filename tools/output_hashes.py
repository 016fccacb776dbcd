"""Hash the outputs of a fixed set of `cne` runs, for byte-identity checks.

    python tools/output_hashes.py SRC OUT

runs the `cne` CLI from the package sources under SRC (a `src` directory),
writes each run to a fresh directory under OUT, and prints one
`sha256  file` line per output file, with paths relative to OUT. A
refactor that leaves the math alone shows that it did by running this on a
checkout of the parent commit and on the change, then comparing the two
listings with `diff`.

The runs: the determinism criterion's config; W1 data (600 x 10 blobs) for
each of the 11 loss kinds; 60-epoch W1 runs of the formula branches that a
flag selects (`VARIANTS`); parametric umap on W1 data, which also writes
`encoder.bin`; a two-thread `bench` grid; one-epoch trimap on 5000 x 50
blobs, the one run whose searches span several row blocks, and so several
threads; and the CSV path: `gen` writes W1 data to a file, `embed` reads it
back, and `plot` reads the `embedding.csv` that `embed` wrote. A run is one
or more `cne` commands, run in the run's directory so that no recorded path
depends on OUT.
`train_log.jsonl` is hashed without its `wall_ms` field. A run that fails
prints `exit <code>` and the last line of its standard error instead of
hashes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

LOSS_KINDS = ("tsne", "umap", "nce", "trimap", "pacmap", "infonce",
              "sscl", "snn", "supcon", "sup_snn", "tscne")
W1 = "blobs:n_per_class=200,n_classes=3,dim=10,seed=0"
# Flags that switch a loss onto another branch of its formula, each hashed in
# one 60-epoch W1 run: (loss kind, flag).
VARIANTS = (("trimap", "--log-ratio"), ("tscne", "--log-ratio"),
            ("pacmap", "--paper-as-written"),
            ("sscl", "--denominator-includes-positive"),
            ("supcon", "--denominator-includes-positive"))
CRITERION_7 = "blobs:n_per_class=60,n_classes=3,dim=8,separation=15,seed=2"
MULTI_BLOCK = "blobs:n_per_class=500,n_classes=10,dim=50"

COMMANDS = {
    "criterion7": ["embed", "--data", CRITERION_7, "--loss", "umap", "--epochs", "20",
                   "--seed", "11", "--deterministic"],
    **{f"w1_{kind}": ["embed", "--data", W1, "--loss", kind] for kind in LOSS_KINDS},
    **{f"w1_{kind}_{flag[2:].replace('-', '_')}":
       ["embed", "--data", W1, "--loss", kind, flag, "--epochs", "60"]
       for kind, flag in VARIANTS},
    "w1_parametric_umap": ["embed", "--data", W1, "--loss", "umap", "--mode", "parametric"],
    "bench_jobs2": ["bench", "--data", W1, "--losses", "umap,trimap,supcon,tscne",
                    "--seeds", "0,1", "--epochs", "15", "--jobs", "2"],
    "multi_block_trimap": ["embed", "--data", MULTI_BLOCK, "--loss", "trimap", "--epochs", "1"],
}
RUNS = {
    **{name: [[*args, "--out", "."]] for name, args in COMMANDS.items()},
    "w1_csv": [
        ["gen", W1, "--out", "w1.csv"],
        ["embed", "--data", "w1.csv", "--label-column", "label", "--out", "."],
        ["plot", "--data", "embedding.csv", "--skip-id-column", "--out", "embedding_plot.svg"],
    ],
}


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "train_log.jsonl":
        rows = [json.loads(line) for line in data.decode().splitlines()]
        data = "".join(json.dumps({k: v for k, v in row.items() if k != "wall_ms"}) + "\n"
                       for row in rows).encode()
    return hashlib.sha256(data).hexdigest()


def _run(src: Path, out: Path, name: str) -> list[str]:
    shutil.rmtree(out / name, ignore_errors=True)  # hash only this run's files
    (out / name).mkdir()
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for args in RUNS[name]:
        proc = subprocess.run([sys.executable, "-m", "cne.cli", *args], cwd=out / name,
                              env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            return [f"exit {proc.returncode}  {name}: {last}"]
    files = sorted(p for p in (out / name).rglob("*") if p.is_file())
    return [f"{_digest(p)}  {p.relative_to(out)}" for p in files]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="directory holding the cne package")
    parser.add_argument("out", type=Path, help="directory for the run outputs")
    args = parser.parse_args(argv)
    src, out = args.src.resolve(), args.out.resolve()
    if not (src / "cne" / "__init__.py").is_file():
        parser.error(f"no cne package under {src}")
    out.mkdir(parents=True, exist_ok=True)
    with ThreadPoolExecutor(max_workers=2) as pool:  # two runs at a time
        for lines in pool.map(lambda name: _run(src, out, name), RUNS):
            print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
