"""One repetition of one workload, in a fresh process.

    python3 perfbench/child.py --workload W --inputs DIR --rep K --trace 0|1 --out RESULT.json

``run.py`` starts this once per repetition and reads the process's peak RSS
from its rusage. The repetition runs the workload's commands in-process,
checks their outputs and writes a JSON result: the operations attempted and
whether each succeeded, the end-to-end timings and, when traced, the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import clatt.cli  # noqa: E402

if not Path(clatt.cli.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"error: imported clatt from {clatt.cli.__file__}, not from {ROOT / 'src'}")

import tracer as tracing  # noqa: E402
from clatt import analysis, blockmodel, cli, graphs, kmeans, leiden, nn, partition, pe, similarity  # noqa: E402
from clatt import training as tr  # noqa: E402

# Floors on each model's mean test accuracy and on the correlation of each prep
# clustering with the planted blocks. Over seeds 0-11 at the commit that added
# the benchmark the lowest values were: uniform GCN 0.905, GCN-CLATT(LA) 0.997;
# skewed GCN-CLATT(LA) 0.755, LGT 0.642; prep model 0.99; LA 0.993, BPP 0.964,
# H1 1.0 and KM 0.098 (KM clusters ResMLP representations of noisy features).
ACCURACY_FLOORS = {
    "uniform": {"GCN": 0.85, "GCN-CLATT(LA)": 0.95},
    "skewed": {"GCN-CLATT(LA)": 0.65, "LGT": 0.55},
    "prep": {"GCN-CLATT(LA,BPP,H1)": 0.9},
}
CORRELATION_FLOORS = {"LA": 0.9, "BPP": 0.9, "H1": 0.9, "KM": 0.03}
# Set-up calls of the prep workload. restarts and walk_len are below the
# library defaults (5 and 80) so that one set-up takes about 7 s rather than
# 22 s, which lets a run repeat it and report a median.
PREP_K_MAX = 6
PREP_RESTARTS = 2
PREP_WALK_LEN = 20
# KM is left out of the model: its clusters follow the seeded features, so its
# table, and with it the training's cost and memory, would change with --seed.
PREP_MODEL = nn.ModelSpec("GCN", use_clatt=True, clusterings=("LA", "BPP", "H1"), layers=2, hidden=16, heads=4, lr=3e-3)
PREP_STEPS = 40
# A profile of the small prep model takes about 0.25 s, short enough for one
# noisy moment to move it by a quarter; analyze_s is the median of a dozen.
PREP_PROFILES = 12


class Abort(Exception):
    """A call failed; the repetition stops and yields no timings."""


class Ops:
    """The operations of one repetition: calls and output checks."""

    def __init__(self):
        self.log: list[dict] = []

    def check(self, name: str, problems: list[str]) -> None:
        self.log.append({"op": name, "ok": not problems, "problems": problems})

    def call(self, name: str, fn, *args, **kwargs):
        try:
            result = fn(*args, **kwargs)
        except Exception as e:  # noqa: BLE001 - a failing call is a measured outcome
            self.check(name, [traceback.format_exc(limit=4)])
            raise Abort(name) from e
        self.check(name, [])
        return result


def _safe_name(model: str) -> str:
    """File stem ``clatt train`` and ``analyze-attention`` derive from a model name."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", model).strip("_")


def _accuracy_problems(workload: str, accuracy: dict) -> list[str]:
    floors = ACCURACY_FLOORS[workload]
    if sorted(accuracy) != sorted(floors):
        return [f"results list models {sorted(accuracy)}, expected {sorted(floors)}"]
    return [
        f"{model}: test accuracy {accuracy[model]:.4f} not above floor {floor}"
        for model, floor in floors.items()
        if not accuracy[model] > floor
    ]


def _q75_problems(q75: float) -> list[str]:
    return [] if q75 > 1.0 else [f"cluster attention distance 0.75-quantile {q75} not above 1"]


def _duration(tracer, idx: int) -> float:
    span = tracer.spans[idx]
    return span[tracing.END] - span[tracing.START]


def run_cli(workload: str, inputs: Path, rep: int, tracer, ops: Ops, info: dict) -> dict:
    """``clatt train`` then ``clatt analyze-attention``, as a user runs them."""
    config = str(inputs / "config.json")
    out_dir = inputs / f"rep{rep}"
    common = ["--set", f"output_dir={out_dir.name}"]
    model = info["analyze"]

    with tracer.span("command.train") as train_idx:
        code = cli.main(["train", config, *common, "--jobs", "1"])
    if code != 0:
        ops.check("train", [f"clatt train exited {code}"])
        raise Abort("train")
    with open(out_dir / "results.csv", newline="") as fh:
        accuracy = {r["model"]: float(r["mean"]) for r in csv.DictReader(fh)}
    ops.check("train", _accuracy_problems(workload, accuracy))

    ckpt = out_dir / f"{_safe_name(model)}.ckpt"
    with tracer.span("command.analyze-attention") as an_idx:
        code = cli.main(["analyze-attention", config, str(ckpt), *common, "--model", model])
    if code != 0:
        ops.check("analyze-attention", [f"clatt analyze-attention exited {code}"])
        raise Abort("analyze-attention")
    with open(out_dir / f"attention_profile_{_safe_name(model)}.csv", newline="") as fh:
        cluster = [float(r["avg_distance"]) for r in csv.DictReader(fh) if r["kind"] == "cluster"]
    q75 = float(np.quantile(cluster, 0.75)) if cluster else float("nan")
    ops.check("analyze-attention", _q75_problems(q75))

    train_start = tracer.spans[train_idx][tracing.START]
    boundary = tracer.first_start("training.run_experiment")
    return {
        "setup_s": boundary - train_start,
        "train_s": tracer.spans[train_idx][tracing.END] - boundary,
        "analyze_s": _duration(tracer, an_idx),
        "wall_s": tracer.spans[an_idx][tracing.END] - train_start,
        "configured_steps": info["configured_steps"],
        "accuracy": accuracy,
        "cluster_q75": q75,
    }


def run_prep(inputs: Path, seed: int, tracer, ops: Ops) -> dict:
    """The set-up ``clatt train`` does before its first step, through the same
    public functions, then a short training and profile on its clusterings."""
    with tracer.span("command.setup") as setup_idx:
        g = ops.call("load_edge_list", graphs.load_edge_list, inputs / "edges.csv")
        nd = ops.call("load_node_table", graphs.load_node_table, inputs / "nodes.csv", graphs.TableSchema(target_column="target"), g)
        data = tr.TrainData(g, nd.features, nd.targets, "multiclass", num_classes=nd.num_classes)
        split = ops.call("make_split", tr.make_split, nd.targets, ratios=(0.5, 0.25, 0.25), seed=seed)
        raw = {
            "LA": ops.call("leiden_cpm", leiden.leiden_cpm, g, seed=0),
            "BPP": ops.call("planted_partition_fit", blockmodel.planted_partition_fit, g, k_max=PREP_K_MAX, seed=0, restarts=PREP_RESTARTS),
            "H1": ops.call("hierarchical_fit", blockmodel.hierarchical_fit, g, k_max=PREP_K_MAX, seed=0, restarts=PREP_RESTARTS),
        }
        points = ops.call("resmlp_representations", tr.resmlp_representations, data, split, seed=0)
        raw["KM"], _ = ops.call("kmeans", kmeans.kmeans, points, k=4, seed=0)
        data.clusterings = {tag: ops.call("filter_clusters", partition.filter_clusters, c) for tag, c in raw.items()}
        lap = ops.call("laplacian_pe", pe.laplacian_pe, g, k=64)
        walk = ops.call("deepwalk_pe", pe.deepwalk_pe, g, dim=64, walks_per_node=2, walk_len=PREP_WALK_LEN, epochs=1)

    correlations = {}
    for tag, c in raw.items():
        cc = correlations[tag] = ops.call(f"correlation_{tag}", similarity.correlation_coefficient, c.assignment, nd.targets)
        floor = CORRELATION_FLOORS[tag]
        ops.check(f"check_{tag}", [] if cc > floor else [f"{tag}: correlation {cc:.4f} with planted blocks not above {floor}"])
    v = lap.vectors[:, : lap.num_valid]
    err = float(np.abs(v.T @ v - np.eye(v.shape[1])).max())
    ops.check("check_laplacian_pe", [] if err < 1e-8 else [f"Laplacian PE columns not orthonormal (max error {err:.2e})"])
    ops.check("check_deepwalk_pe", [] if np.isfinite(walk).all() else ["DeepWalk PE has non-finite entries"])

    with tracer.span("command.train") as train_idx:
        result = ops.call("train", tr.train, PREP_MODEL, data, split, seed=0, steps=PREP_STEPS, eval_every=10)
    accuracy = {PREP_MODEL.name: result.test_metric}
    ops.check("check_train", _accuracy_problems("prep", accuracy))
    profile_s = []
    for _ in range(PREP_PROFILES):
        with tracer.span("command.analyze-attention") as an_idx:
            profile = ops.call("profile_model", analysis.profile_model, PREP_MODEL, result.params, data)
        profile_s.append(_duration(tracer, an_idx))
    (q75,) = analysis.quantiles(profile.distances("cluster"), (0.75,))
    ops.check("check_profile", _q75_problems(q75))

    return {
        "setup_s": _duration(tracer, setup_idx),
        "train_s": _duration(tracer, train_idx),
        "analyze_s": statistics.median(profile_s),
        "wall_s": tracer.spans[an_idx][tracing.END] - tracer.spans[setup_idx][tracing.START],
        "configured_steps": PREP_STEPS,
        "accuracy": accuracy,
        "correlations": correlations,
        "cluster_q75": q75,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("uniform", "skewed", "prep"))
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--rep", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()
    info = json.loads((args.inputs / "inputs.json").read_text())

    tracer = tracing.Tracer()
    (tracing.install_all if args.trace else tracing.install_boundary)(tracer)
    ops = Ops()
    result: dict = {"ops": ops.log}
    try:
        if args.workload == "prep":
            result["timings"] = run_prep(args.inputs, info["seed"], tracer, ops)
        else:
            result["timings"] = run_cli(args.workload, args.inputs, args.rep, tracer, ops, info)
    except Abort:
        pass
    if args.trace and "timings" in result:
        result["layers"] = tracing.layer_metrics(tracer, result["timings"]["configured_steps"])
        result["spans"] = tracer.spans
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
