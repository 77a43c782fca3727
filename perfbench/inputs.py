"""Seeded input generator for the clatt benchmark.

The benchmark owns its generator, so a change to ``clatt.synthetic`` cannot
change what it measures. For one (workload, seed) pair this writes, into an
output directory:

    edges.csv    ``u,v`` lines of a stochastic block model
    nodes.csv    ``id,f0..f{k-1},target`` rows: noisy one-hot block features,
                 target = planted block; only nodes that appear in edges.csv
    config.json  the ``clatt train`` config (uniform and skewed only)
    inputs.json  sizes of the above and the step count the config asks for

and prints one JSON line describing the inputs and the environment.

    python3 perfbench/inputs.py --workload uniform --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np
import scipy

STEPS = 3
EVAL_EVERY = 3
_MODEL = {"layers": 2, "hidden": 64, "heads": 4, "lr": 3e-3}

# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "uniform": {
        "blocks": [250] * 8,
        "p_in": 0.05,
        "p_out": 0.002,
        "models": [{"conv_type": "GCN", **_MODEL}, {"conv_type": "GCN", "use_clatt": True, "clusterings": ["LA"], **_MODEL}],
        "analyze": "GCN-CLATT(LA)",
    },
    "skewed": {
        "blocks": [int(b) for b in np.round(np.geomspace(6, 240, 11))],
        "p_in": 0.05,
        "p_out": 0.002,
        "models": [{"conv_type": "GCN", "use_clatt": True, "clusterings": ["LA"], **_MODEL}, {"conv_type": "LGT", **_MODEL}],
        "analyze": "GCN-CLATT(LA)",
    },
    "prep": {"blocks": [100] * 4, "p_in": 0.1, "p_out": 0.01},
}
# The edge set comes from a fixed seed and --seed varies the features and the
# split. Drawing the graph from --seed as well changes the work itself: the
# cluster table of uniform has 8 to 10 rows and that of skewed 11 to 15 rows
# across seeds 0-7, which moves the attention cost by 12-20% between seeds,
# more than the bounds the benchmark sets.
STRUCTURE_SEED = 0
FLIP_RATE = 0.3
FEATURE_SIGMA = 0.5
MODEL_SEEDS = [0, 1]


def sbm(rng: np.random.Generator, blocks, p_in: float, p_out: float):
    """Edges (u < v) and block labels of a two-rate stochastic block model."""
    labels = np.repeat(np.arange(len(blocks)), blocks)
    u, v = np.triu_indices(labels.size, k=1)
    p = np.where(labels[u] == labels[v], p_in, p_out)
    keep = rng.random(u.size) < p
    return u[keep], v[keep], labels


def noisy_onehot(rng: np.random.Generator, labels: np.ndarray, k: int) -> np.ndarray:
    """One-hot labels, a FLIP_RATE share moved to another class, plus Gaussian noise."""
    shown = labels.copy()
    flip = rng.random(labels.size) < FLIP_RATE
    shown[flip] = (labels[flip] + rng.integers(1, k, size=labels.size)[flip]) % k
    x = np.zeros((labels.size, k))
    x[np.arange(labels.size), shown] = 1.0
    return x + FEATURE_SIGMA * rng.standard_normal(x.shape)


def environment() -> dict:
    """Versions and machine facts recorded with every benchmark output."""
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (KeyError, TypeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def write_inputs(workload: str, seed: int, out: Path) -> dict:
    spec = WORKLOADS[workload]
    tag = list(WORKLOADS).index(workload)
    u, v, labels = sbm(np.random.default_rng([STRUCTURE_SEED, tag]), spec["blocks"], spec["p_in"], spec["p_out"])
    k = len(spec["blocks"])
    x = noisy_onehot(np.random.default_rng([seed, tag]), labels, k)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "edges.csv", "w") as fh:
        fh.writelines(f"{a},{b}\n" for a, b in zip(u.tolist(), v.tolist()))
    # the node-table loader requires exactly the ids the edge list mentions
    present = np.unique(np.concatenate([u, v]))
    with open(out / "nodes.csv", "w") as fh:
        fh.write("id," + ",".join(f"f{j}" for j in range(k)) + ",target\n")
        for i in present.tolist():
            fh.write(f"{i}," + ",".join(f"{val:.10g}" for val in x[i]) + f",{labels[i]}\n")
    info = {"workload": workload, "seed": seed, "nodes": int(present.size), "edges": int(u.size), "blocks": k}
    if "models" in spec:
        config = {
            "dataset": {"edges": "edges.csv", "nodes": "nodes.csv", "target_column": "target"},
            "split": {"ratios": [0.5, 0.25, 0.25], "seed": seed},
            "models": spec["models"],
            "clusterings": {"LA": {"seed": 0}},
            "seeds": MODEL_SEEDS,
            "steps": STEPS,
            "eval_every": EVAL_EVERY,
        }
        with open(out / "config.json", "w") as fh:
            json.dump(config, fh, indent=2)
        info["configured_steps"] = len(spec["models"]) * len(MODEL_SEEDS) * STEPS
        info["analyze"] = spec["analyze"]
    with open(out / "inputs.json", "w") as fh:
        json.dump(info, fh)
    return info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    info = write_inputs(args.workload, args.seed, Path(args.out))
    print(json.dumps({"inputs": info, "environment": environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
