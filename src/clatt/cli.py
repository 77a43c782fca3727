"""Command-line front end tying the pieces into reproducible runs.

Subcommands: stats, cluster, compare, train, select-clusterings,
analyze-attention. Every command is a pure function of its inputs,
flags, and seeds; outputs land in files so reruns can be diffed.

Exit codes: 0 success; 2 when the input is at fault (an InputError, such
as a malformed config, graph, table or checkpoint or a diverging run, or a
file-system error on a given path); 3 when an internal invariant breaks.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import re
import sys
import time
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import nn, record
from . import training as tr
from .analysis import export_histogram, export_profile, export_similarity_matrix, profile_model, quantile_table
from .blockmodel import hierarchical_fit, planted_partition_fit
from .checkpoint import load_checkpoint, save_checkpoint
from .config import CANONICAL_TAGS, ConfigError, ExperimentConfig, apply_override, clustering_params, load_config
from .errors import InputError
from .graphs import TASKS, TableSchema, load_edge_list, load_node_table, transform_features
from .kmeans import kmeans
from .leiden import leiden_cpm
from .partition import Clustering, filter_clusters, load_clustering, save_clustering
from .pe import check_deepwalk_size, check_laplacian_size, deepwalk_pe, laplacian_pe
from .stats import compute_graph_stats, stats_to_dict

# The objects made by importing numpy, scipy and clatt live as long as the
# process. Freezing them keeps the cyclic collector from scanning them again:
# otherwise its first full pass over some 45k objects (20-30 ms on 2 vCPUs)
# lands in whatever command runs first, such as the loaders of ``clatt train``.
gc.freeze()


def _echo(msg: str) -> None:
    """Print msg. A closed stdout is no error: stdout is pointed at the null
    device and the command carries on, so it still writes its files."""
    try:
        print(msg, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _schema_from_args(args) -> TableSchema:
    cols = tuple(c.strip() for c in (args.feature_columns or "").split(",") if c.strip())
    return TableSchema(id_column=args.id_column, feature_columns=cols or None,
                       target_column=args.target_column, task=args.task)


def _table_split(g, nodes, schema: TableSchema, **split) -> tuple[tr.TrainData, tr.Split]:
    """The node table ``nodes`` of ``g`` as TrainData, and the split that
    ``make_split(targets, **split)`` draws from it; no subset is empty."""
    nd = load_node_table(nodes, schema, g)
    data = tr.TrainData(g, nd.features, nd.targets, schema.task, num_classes=nd.num_classes or None)
    split = tr.make_split(nd.targets, **split)  # an unstratified split reads only the node count
    split.check_nonempty()
    return data, split


def cmd_stats(args) -> int:
    g = load_edge_list(args.edges)
    targets = None
    if args.nodes:
        nd = load_node_table(args.nodes, _schema_from_args(args), g)
        targets = nd.targets
    stats = compute_graph_stats(g, targets=targets, task=args.task)
    text = json.dumps(stats_to_dict(stats), indent=2, sort_keys=True)
    _echo(text)
    if args.out:
        Path(args.out).write_text(text + "\n")  # the bytes printed
    return 0


def _cluster(tag: str, g, params: dict, data: tr.TrainData | None = None, split: tr.Split | None = None) -> Clustering:
    """Run clustering algorithm ``tag`` on ``g``. ``params`` holds the seed
    and any other keys of ``config.CLUSTERING_PARAMS[tag]``; KM clusters the
    representations of an ``MLP`` model (``training.resmlp_representations``)
    of ``data`` trained on ``split``."""
    if tag != "KM":
        return {"LA": leiden_cpm, "BPP": planted_partition_fit, "H1": hierarchical_fit}[tag](g, **params)
    params = dict(params)
    km = {key: params.pop(key) for key in ("k", "max_iters") if key in params}
    reps = tr.resmlp_representations(data, split, **params)
    return kmeans(reps, seed=params["seed"], **km)[0]


def cmd_cluster(args) -> int:
    raw = {}
    for item in args.set or ():
        apply_override(raw, item)
    try:
        params = clustering_params(args.algo, raw)
    except ConfigError as e:
        raise ConfigError(f"--set {e}") from None
    g = load_edge_list(args.edges)
    data = split = None
    if args.algo == "KM":  # the auxiliary model's split is drawn with the clustering seed
        if not args.nodes:
            raise InputError("--nodes is required for KM (auxiliary model needs features and targets)")
        if args.target_column is None:
            raise InputError("--target-column is required for KM")
        data, split = _table_split(g, args.nodes, _schema_from_args(args), seed=params["seed"], stratified=args.task != "regression")
    c = _cluster(args.algo, g, params, data, split)
    save_clustering(args.out, c, node_ids=g.node_ids)
    _echo(f"{args.algo}: {c.num_clusters} clusters over {c.n} nodes -> {args.out}")
    return 0


def _compare_labels(paths, tags) -> list[str]:
    """Row and column names: the algorithm tags when they are all distinct,
    else the file stems, else the paths as given."""
    for labels in (tags, [Path(p).stem for p in paths]):
        if len(set(labels)) == len(labels):
            return labels
    return list(paths)


def cmd_compare(args) -> int:
    if len(args.clusterings) < 2:
        raise InputError("compare needs at least 2 clustering files")
    loaded, tags = [], []
    for path in args.clusterings:
        ids, assignment, meta = load_clustering(path)
        loaded.append((ids, assignment))
        tags.append(meta.get("algorithm_tag") or Path(path).stem)
    labels = _compare_labels(args.clusterings, tags)
    base_ids = loaded[0][0]
    for (ids, _), label in zip(loaded[1:], labels[1:]):
        if not np.array_equal(ids, base_ids):
            raise InputError(f"clustering {label!r} covers different node ids")
    # nodes a size filter dropped anywhere are excluded from every pair
    keep = np.all([a >= 0 for _, a in loaded], axis=0)
    if keep.sum() < 2:
        raise InputError("fewer than 2 nodes assigned everywhere; nothing to compare")
    clusterings = [Clustering(a[keep], algorithm_tag=label) for (_, a), label in zip(loaded, labels)]
    export_similarity_matrix(clusterings, args.out)
    with open(args.out) as fh:
        _echo(fh.read().rstrip())
    return 0


def _prepare_run(cfg: ExperimentConfig, specs) -> tuple[tr.TrainData, tr.Split, Path]:
    """Graph, node table, split and output directory of a config command.
    Runs no clustering, so a graph too large for a GGT or LGT model or for
    the positional encoding of a model in ``specs`` fails before any runs."""
    ds = cfg.dataset
    g = load_edge_list(ds.edges)
    conv_types = {spec.conv_type for spec in specs}
    if "GGT" in conv_types:
        nn.check_global_attention_size(g.n)
    if "LGT" in conv_types:
        nn.check_neighborhood_size(g)
    pe_kinds = {spec.pe for spec in specs}
    if "deepwalk" in pe_kinds:
        check_deepwalk_size(g.n)  # the same bound deepwalk_pe checks: one dense n x n matrix
    if "laplacian" in pe_kinds:
        check_laplacian_size(g)
    if ds.nodes is None:
        raise ConfigError("dataset.nodes: required for this command")
    if ds.target_column is None:
        raise ConfigError("dataset.target_column: required for this command")
    data, split = _table_split(g, ds.nodes, ds, **asdict(cfg.split))
    out_dir = Path(cfg.output_dir)
    if out_dir.exists() and not out_dir.is_dir():
        raise InputError(f"output_dir: {out_dir} exists and is not a directory")
    out_dir.mkdir(parents=True, exist_ok=True)
    return data, split, out_dir


def _model_data(cfg: ExperimentConfig, data: tr.TrainData, split: tr.Split, specs, tags):
    """One TrainData per spec, and one manifest entry per clustering and PE.

    Each clustering in ``tags`` and each PE kind of ``specs`` is built once
    and shared by every spec that uses it. The run directory is its record:
    an artifact whose record in ``cfg.output_dir`` matches its key is
    loaded, any other is computed and its record written over (see
    ``record``). The raw clustering is recorded; the size filter runs on
    every use."""
    g = data.g
    out_dir = cfg.output_dir
    graph = record.array_digest(g.node_ids, g.offsets, g.neighbors)
    entries = []

    def entry(artifact, name, path, want, reused, t0):
        entries.append({"artifact": artifact, "name": name, "path": str(path.relative_to(out_dir)), "key": want,
                        "status": "reused" if reused else "computed", "seconds": time.perf_counter() - t0})

    for tag in tags:
        t0 = time.perf_counter()
        params = cfg.clustering_params(tag)
        parts = {"artifact": "clustering", "tag": tag, "params": params, "graph": graph}
        if tag == "KM":  # clusters ResMLP representations trained on the split
            parts.update(task=data.task, data=record.array_digest(data.features, data.targets, split.train, split.val, split.test))
        want = record.key(**parts)
        path = record.clustering_path(out_dir, tag)
        c = record.load_clustering_record(out_dir, tag, want, g.node_ids)
        reused = c is not None
        if not reused:
            c = _cluster(tag, g, params, data, split)
            record.save_clustering_record(out_dir, tag, c, want, g.node_ids)
        entry("clustering", tag, path, want, reused, t0)
        fc = filter_clusters(c, min_size=cfg.min_cluster_size, max_size=cfg.max_cluster_size)
        data.clusterings[tag] = fc
        _echo(
            f"clustering {tag}: {c.num_clusters} raw, {fc.num_clusters} retained, "
            f"{fc.unassigned.size} nodes unassigned" + (f" (reused {path})" if reused else "")
        )
    pes = {"none": None}
    for kind in sorted({spec.pe for spec in specs} - {"none"}):
        t0 = time.perf_counter()
        want = record.key(artifact="pe", kind=kind, dim=cfg.pe_dim, graph=graph)
        width = cfg.pe_width(kind, g.n)
        pe = record.load_pe_record(out_dir, kind, cfg.pe_dim, want, (g.n, width))
        reused = pe is not None
        if not reused:
            pe = deepwalk_pe(g, dim=width) if kind == "deepwalk" else laplacian_pe(g, k=width).vectors
            record.save_pe_record(out_dir, kind, cfg.pe_dim, pe, want)
        entry("pe", kind, record.pe_path(out_dir, kind, cfg.pe_dim), want, reused, t0)
        pes[kind] = pe
    return [replace(data, pe=pes[spec.pe]) for spec in specs], entries


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name).strip("_")


def cmd_train(args) -> int:
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    cfg = load_config(args.config, args.set or ())
    tr.check_seeds(cfg.seeds)
    phases = {}
    t0 = time.perf_counter()
    data, split, out_dir = _prepare_run(cfg, cfg.models)
    phases["setup"] = time.perf_counter() - t0
    specs = list(cfg.models)
    datas, records = _model_data(cfg, data, split, specs, cfg.needed_tags())
    transforms = ["none"] * len(specs)
    if cfg.grid is not None:
        t0 = time.perf_counter()
        for i, spec in enumerate(specs):
            specs[i], transforms[i], _, _ = tr.grid_search(
                spec,
                datas[i],
                split,
                lrs=cfg.grid.lrs,
                dropouts=cfg.grid.dropouts,
                transforms=cfg.grid.transforms,
                seed=cfg.seeds[0],
                steps=cfg.steps,
                eval_every=cfg.eval_every,
                jobs=args.jobs,
            )
            datas[i] = replace(datas[i], features=transform_features(datas[i].features, transforms[i]))
            _echo(f"grid {spec.name}: lr={specs[i].lr:g} dropout={specs[i].dropout:g} transform={transforms[i]}")
        phases["grid"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rows = tr.run_experiment(datas, specs, split, seeds=cfg.seeds, steps=cfg.steps, eval_every=cfg.eval_every, jobs=args.jobs)
    phases["training"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    for row, spec, transform in zip(rows, specs, transforms):
        save_checkpoint(out_dir / f"{_safe_name(row.model)}.ckpt", row.params, spec=spec, transform=transform)
    phases["checkpoints"] = time.perf_counter() - t0
    results = out_dir / "results.csv"
    with open(results, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["model", "metric", "mean", "std", "significant"])
        for row in rows:
            w.writerow([row.model, row.metric, repr(row.mean), repr(row.std), "" if row.significant is None else str(row.significant)])
    manifest = {
        "command": "train",
        "started": started,
        "versions": record.versions(),
        "seeds": {"runs": list(cfg.seeds), "split": cfg.split.seed,
                  "clusterings": {tag: cfg.clustering_params(tag)["seed"] for tag in cfg.needed_tags()}},
        "records": records,
        "phases_s": phases,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    _echo(tr.render_table(rows))
    _echo(f"results -> {results}")
    return 0


def _selection_base(cfg: ExperimentConfig) -> nn.ModelSpec:
    if cfg.selection_model is not None:
        return cfg.selection_model
    for spec in cfg.models:
        if spec.conv_type == "LGT":
            return spec
    return cfg.models[0]


def cmd_select_clusterings(args) -> int:
    cfg = load_config(args.config, args.set or ())
    base = replace(_selection_base(cfg), use_clatt=False, clusterings=())
    data, split, out_dir = _prepare_run(cfg, [base])
    candidates = tuple(t for t in CANONICAL_TAGS if t in cfg.clusterings) or CANONICAL_TAGS
    out = out_dir / "selected_clusterings.json"
    (data,), _ = _model_data(cfg, data, split, [base], candidates)
    selected, details = tr.select_clusterings(
        base, data, split, candidates=candidates, seed=cfg.seeds[0], steps=cfg.steps, eval_every=cfg.eval_every
    )
    with open(out, "w") as fh:
        json.dump({"base_model": base.name, "selected": list(selected), "details": details}, fh, indent=2)
        fh.write("\n")
    _echo(f"baseline {details['baseline']:.4f}; " + ", ".join(f"{t}={details[t]:.4f}" for t in candidates))
    _echo(f"selected: {list(selected)} -> {out}")
    return 0


def _check_checkpoint(path, params, expected: dict) -> None:
    """Refuse a checkpoint unless it holds exactly the arrays of its model on
    this data, each in its shape; the message names the first that differs."""
    where = f"checkpoint {path} does not match model {params.spec.name}"
    for name, want in expected.items():
        if name not in params:
            raise InputError(f"{where}: {name} is missing")
        if params[name].shape != want.data.shape:
            raise InputError(f"{where}: {name} has shape {params[name].shape}, the model needs {want.data.shape}")
    extra = [name for name in params if name not in expected]
    if extra:
        raise InputError(f"{where}: unexpected array {extra[0]}")


def cmd_analyze_attention(args) -> int:
    cfg = load_config(args.config, args.set or ())
    params = load_checkpoint(args.checkpoint)  # its spec and transform are the model
    spec = params.spec
    if args.model is not None and args.model != spec.name:
        raise InputError(f"--model {args.model!r}, but checkpoint {args.checkpoint} holds model {spec.name!r}")
    if not spec.has_attention:
        raise InputError(f"model {spec.name} has no attention sites to analyze")
    data, split, out_dir = _prepare_run(cfg, [spec])
    expected = nn.init_params(spec, data.features.shape[1], tr._out_dim(data), seed=0, pe_dim=cfg.pe_width(spec.pe, data.g.n))
    _check_checkpoint(args.checkpoint, params, expected)  # before any clustering or PE is built
    (data,), _ = _model_data(cfg, data, split, [spec], spec.clusterings)
    data = replace(data, features=transform_features(data.features, params.transform))

    profile = profile_model(spec, params, data)
    stem = _safe_name(spec.name)
    export_profile(profile, out_dir / f"attention_profile_{stem}.csv")
    export_histogram(profile.distances(), args.bins, out_dir / f"attention_histogram_{stem}.csv")
    _echo(quantile_table(profile))
    if profile.unreachable_pairs:
        _echo(f"note: {profile.unreachable_pairs} attended targets were unreachable and renormalized away")
    _echo(f"profile -> {out_dir / f'attention_profile_{stem}.csv'}")
    return 0


# bounds the histogram's memory before any file is read: 10^6 bins are an 8 MB edge array and a 10^6-row CSV
MAX_BINS = 10**6


def _bounded_int(minimum: int, maximum: int | None = None):
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="clatt", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def add_table_flags(sp, nodes_help):
        sp.add_argument("--nodes", help=nodes_help)
        sp.add_argument("--id-column", default="id")
        sp.add_argument("--feature-columns", help="comma-separated; default: all non-id non-target columns")
        sp.add_argument("--target-column")
        sp.add_argument("--task", default="multiclass", choices=TASKS)

    sp = sub.add_parser("stats", help="structural statistics of an edge-list graph")
    sp.add_argument("edges")
    add_table_flags(sp, "node table CSV; enables homophily/target assortativity")
    sp.add_argument("--out", help="also write the JSON here")
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("cluster", help="run one clustering algorithm and save the result")
    sp.add_argument("edges")
    sp.add_argument("--algo", required=True, choices=CANONICAL_TAGS)
    sp.add_argument("--out", required=True)
    sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="a key of the config's clusterings.<ALGO> block, as JSON (seed=1, gamma=0.05)")
    add_table_flags(sp, "node table CSV (required for KM)")
    sp.set_defaults(func=cmd_cluster)

    sp = sub.add_parser("compare", help="pairwise similarity matrix of saved clusterings")
    sp.add_argument("clusterings", nargs="+")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_compare)

    def add_config_flags(sp):
        sp.add_argument("config", help="experiment config JSON")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config field (dotted path)")

    sp = sub.add_parser("train", help="train every configured model over the seed list")
    add_config_flags(sp)
    sp.add_argument("--jobs", type=_bounded_int(1), default=1,
                    help="parallel runs: grid trials, then (model, seed) runs; at most one process per run")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("select-clusterings", help="validation-driven clustering selection")
    add_config_flags(sp)
    sp.set_defaults(func=cmd_select_clusterings)

    sp = sub.add_parser("analyze-attention", help="attention-distance profile of a checkpoint")
    add_config_flags(sp)
    sp.add_argument("checkpoint", help="checkpoint written by `clatt train`")
    sp.add_argument("--model", help="when given, must name the checkpoint's model")
    sp.add_argument("--bins", type=_bounded_int(1, MAX_BINS), default=20, help=f"histogram bins, at most {MAX_BINS}")
    sp.set_defaults(func=cmd_analyze_attention)
    return p


# an input at fault, or a file-system error on a path the user gave
USER_ERRORS = (
    InputError,
    FileNotFoundError,
    FileExistsError,
    IsADirectoryError,
    NotADirectoryError,
    PermissionError,
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - invariant violations surface as exit 3
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
