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
import json
import os
import re
import sys
import time
from dataclasses import fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import nn, record
from . import training as tr
from .analysis import export_histogram, export_profile, export_similarity_matrix, profile_model, quantile_table
from .blockmodel import hierarchical_fit, planted_partition_fit
from .checkpoint import load_checkpoint, save_checkpoint
from .config import CANONICAL_TAGS, ConfigError, ExperimentConfig, load_config
from .errors import InputError
from .graphs import TableSchema, load_edge_list, load_node_table, save_stats_json, transform_features
from .kmeans import kmeans
from .leiden import leiden_cpm
from .partition import Clustering, filter_clusters, load_clustering, save_clustering
from .pe import check_deepwalk_size, check_laplacian_size, deepwalk_pe, laplacian_pe
from .stats import compute_graph_stats, stats_to_dict


def _echo(msg: str) -> None:
    """Print msg. A closed stdout is no error: stdout is pointed at the null
    device and the command carries on, so it still writes its files."""
    try:
        print(msg, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _load_graph(args):
    return load_edge_list(args.edges, directed=getattr(args, "directed", False))


def _schema_from_args(args) -> TableSchema:
    cols = None
    if getattr(args, "feature_columns", None):
        cols = [c.strip() for c in args.feature_columns.split(",") if c.strip()]
    return TableSchema(
        id_column=args.id_column,
        feature_columns=cols,
        target_column=getattr(args, "target_column", None),
        task=getattr(args, "task", "multiclass"),
    )


def cmd_stats(args) -> int:
    g = _load_graph(args)
    targets = None
    if args.nodes:
        nd = load_node_table(args.nodes, _schema_from_args(args), g)
        targets = nd.targets
    stats = compute_graph_stats(g, targets=targets, task=args.task)
    payload = stats_to_dict(stats)
    text = json.dumps(payload, indent=2, sort_keys=True)
    _echo(text)
    if args.out:
        save_stats_json(payload, args.out)
    return 0


def _cluster(tag: str, g, params: dict, data: tr.TrainData | None = None, split: tr.Split | None = None) -> Clustering:
    """Run clustering algorithm ``tag`` on ``g``. ``params`` takes the keys
    of ``config.CLUSTERING_PARAMS[tag]``; KM clusters the representations
    of an ``MLP`` model (``training.resmlp_representations``) of ``data``
    trained on ``split``."""
    params = dict(params)
    seed = int(params.pop("seed", 0))
    if tag == "LA":
        return leiden_cpm(g, seed=seed, **params)
    if tag == "BPP":
        return planted_partition_fit(g, seed=seed, **params)
    if tag == "H1":
        return hierarchical_fit(g, seed=seed, **params)
    k = params.pop("k", None)
    max_iters = params.pop("max_iters", 100)
    reps = tr.resmlp_representations(data, split, seed=seed, **params)
    return kmeans(reps, k=k, seed=seed, max_iters=max_iters)[0]


def _resmlp_inputs(args, g) -> tuple[tr.TrainData, tr.Split]:
    if not args.nodes:
        raise InputError("--nodes is required for KM (auxiliary model needs features and targets)")
    nd = load_node_table(args.nodes, _schema_from_args(args), g)
    if nd.targets is None:
        raise InputError("--target-column is required for KM")
    data = tr.TrainData(g, nd.features, nd.targets, nd.task, num_classes=nd.num_classes or None)
    labels = nd.targets if nd.task != "regression" else np.zeros(g.n, dtype=np.int64)
    split = tr.make_split(labels, seed=args.seed, stratified=nd.task != "regression")
    split.check_nonempty()
    return data, split


def cmd_cluster(args) -> int:
    if args.min_size is not None and args.max_size is not None and args.min_size > args.max_size:
        raise InputError(f"--min-size {args.min_size} exceeds --max-size {args.max_size}")
    g = _load_graph(args)
    params = {
        "LA": {"gamma": args.gamma},
        "BPP": {"k_max": args.k_max},
        "H1": {"k_max": args.k_max},
        "KM": {"k": args.k, "hidden": args.km_hidden, "layers": args.km_layers, "steps": args.km_steps},
    }[args.algo]
    params = {key: value for key, value in params.items() if value is not None}  # unset: the algorithm's default
    data, split = _resmlp_inputs(args, g) if args.algo == "KM" else (None, None)
    c = _cluster(args.algo, g, {"seed": args.seed, **params}, data, split)
    if args.min_size is not None or args.max_size is not None:
        c = filter_clusters(c, min_size=args.min_size or 1, max_size=args.max_size or g.n)
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
        order = np.argsort(ids, kind="stable")
        loaded.append((ids[order], assignment[order]))
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
    Runs no clustering, so a graph too large for a GGT model or for the
    positional encoding of a model in ``specs`` fails before any runs."""
    ds = cfg.dataset
    g = load_edge_list(ds.edges, directed=ds.directed)
    if any(spec.conv_type == "GGT" for spec in specs):
        nn.check_global_attention_size(g.n)
    pe_kinds = {spec.pe for spec in specs}
    if "deepwalk" in pe_kinds:
        check_deepwalk_size(g.n)  # the same bound deepwalk_pe checks: one dense n x n matrix
    if "laplacian" in pe_kinds:
        check_laplacian_size(g)
    if ds.nodes is None:
        raise ConfigError("dataset.nodes: required for this command")
    if ds.target_column is None:
        raise ConfigError("dataset.target_column: required for this command")
    schema = TableSchema(
        id_column=ds.id_column,
        feature_columns=list(ds.feature_columns) if ds.feature_columns else None,
        target_column=ds.target_column,
        task=ds.task,
    )
    nd = load_node_table(ds.nodes, schema, g)
    data = tr.TrainData(g, nd.features, nd.targets, ds.task, num_classes=nd.num_classes or None)
    labels = data.targets if cfg.split.stratified else np.zeros(g.n, dtype=np.int64)
    split = tr.make_split(labels, ratios=cfg.split.ratios, seed=cfg.split.seed, stratified=cfg.split.stratified)
    split.check_nonempty()
    out_dir = Path(cfg.output_dir)
    if out_dir.exists() and not out_dir.is_dir():
        raise InputError(f"output_dir: {out_dir} exists and is not a directory")
    out_dir.mkdir(parents=True, exist_ok=True)
    return data, split, out_dir


def _model_data(cfg: ExperimentConfig, data: tr.TrainData, split: tr.Split, specs, tags, pe_dim: int):
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
        params = {"seed": 0, **cfg.clusterings.get(tag, {})}
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
        want = record.key(artifact="pe", kind=kind, dim=pe_dim, graph=graph)
        width = pe_dim if kind == "deepwalk" else min(pe_dim, g.n - 1)
        pe = record.load_pe_record(out_dir, kind, pe_dim, want, (g.n, width))
        reused = pe is not None
        if not reused:
            pe = deepwalk_pe(g, dim=pe_dim) if kind == "deepwalk" else laplacian_pe(g, k=width).vectors
            record.save_pe_record(out_dir, kind, pe_dim, pe, want)
        entry("pe", kind, record.pe_path(out_dir, kind, pe_dim), want, reused, t0)
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
    datas, records = _model_data(cfg, data, split, specs, cfg.needed_tags(), args.pe_dim)
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
                  "clusterings": {tag: cfg.clusterings.get(tag, {}).get("seed", 0) for tag in cfg.needed_tags()}},
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
    (data,), _ = _model_data(cfg, data, split, [base], candidates, args.pe_dim)
    selected, details = tr.select_clusterings(
        base, data, split, candidates=candidates, seed=cfg.seeds[0], steps=cfg.steps, eval_every=cfg.eval_every
    )
    with open(out, "w") as fh:
        json.dump({"base_model": base.name, "selected": list(selected), "details": details}, fh, indent=2)
        fh.write("\n")
    _echo(f"baseline {details['baseline']:.4f}; " + ", ".join(f"{t}={details[t]:.4f}" for t in candidates))
    _echo(f"selected: {list(selected)} -> {out}")
    return 0


# ModelSpec fields the grid tunes; a checkpoint may differ from its config there
TUNED_FIELDS = ("lr", "dropout")


def _check_checkpoint(path, spec: nn.ModelSpec, params, expected: dict) -> None:
    """Refuse a checkpoint unless it holds exactly the model's arrays, each in
    its shape, and, when it records its spec, the model's spec outside
    TUNED_FIELDS; the message names the first array or field that differs."""
    where = f"checkpoint {path} does not match model {spec.name}"
    for name, want in expected.items():
        if name not in params:
            raise InputError(f"{where}: {name} is missing")
        if params[name].shape != want.data.shape:
            raise InputError(f"{where}: {name} has shape {params[name].shape}, the model needs {want.data.shape}")
    extra = [name for name in params if name not in expected]
    if extra:
        raise InputError(f"{where}: unexpected array {extra[0]}")
    if params.spec is None:
        return
    for f in fields(spec):
        recorded, configured = getattr(params.spec, f.name), getattr(spec, f.name)
        if f.name not in TUNED_FIELDS and recorded != configured:
            raise InputError(f"{where}: {f.name} is {recorded!r} in the checkpoint, {configured!r} in the config")


def cmd_analyze_attention(args) -> int:
    cfg = load_config(args.config, args.set or ())
    by_name = {spec.name: spec for spec in cfg.models}
    if args.model is None:
        if len(cfg.models) > 1:
            raise InputError(f"--model required; config defines {sorted(by_name)}")
        spec = cfg.models[0]
    elif args.model in by_name:
        spec = by_name[args.model]
    else:
        raise InputError(f"model {args.model!r} not in config; available: {sorted(by_name)}")
    data, split, out_dir = _prepare_run(cfg, [spec])
    params = load_checkpoint(args.checkpoint)
    (data,), _ = _model_data(cfg, data, split, [spec], spec.clusterings, args.pe_dim)
    if params.transform not in (None, "none"):  # the feature transform the grid chose
        data = replace(data, features=transform_features(data.features, params.transform))
    pe_dim = data.pe.shape[1] if data.pe is not None else None
    expected = nn.init_params(spec, data.features.shape[1], tr._out_dim(data), seed=0, pe_dim=pe_dim)
    _check_checkpoint(args.checkpoint, spec, params, expected)

    profile = profile_model(spec, params, data)
    if not profile.entries:
        raise InputError(f"model {spec.name} has no attention sites to analyze")
    stem = _safe_name(spec.name)
    export_profile(profile, out_dir / f"attention_profile_{stem}.csv")
    export_histogram(profile.distances(), args.bins, out_dir / f"attention_histogram_{stem}.csv")
    _echo(quantile_table(profile))
    if profile.unreachable_pairs:
        _echo(f"note: {profile.unreachable_pairs} attended targets were unreachable and renormalized away")
    _echo(f"profile -> {out_dir / f'attention_profile_{stem}.csv'}")
    return 0


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
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
        sp.add_argument("--task", default="multiclass", choices=("multiclass", "binary", "regression"))

    sp = sub.add_parser("stats", help="structural statistics of an edge-list graph")
    sp.add_argument("edges")
    add_table_flags(sp, "node table CSV; enables homophily/target assortativity")
    sp.add_argument("--directed", action="store_true", help="edge list is directed (symmetrised on load)")
    sp.add_argument("--out", help="also write the JSON here")
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("cluster", help="run one clustering algorithm and save the result")
    sp.add_argument("edges")
    sp.add_argument("--algo", required=True, choices=CANONICAL_TAGS)
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=_int_at_least(0), default=0)
    sp.add_argument("--gamma", type=float, help="LA resolution; default graph density")
    sp.add_argument("--k-max", type=_int_at_least(1), help="BPP/H1 block count ceiling; default BPP 10, H1 round(sqrt(n)) in [2, 25]")
    sp.add_argument("--k", type=int, help="KM cluster count; default n/128 in [2, n]")
    sp.add_argument("--min-size", type=_int_at_least(1), help="apply the size filter before saving")
    sp.add_argument("--max-size", type=_int_at_least(1))
    sp.add_argument("--km-hidden", type=_int_at_least(1), default=64)
    sp.add_argument("--km-layers", type=_int_at_least(1), default=2)
    sp.add_argument("--km-steps", type=_int_at_least(0), default=300)
    add_table_flags(sp, "node table CSV (required for KM)")
    sp.set_defaults(func=cmd_cluster)

    sp = sub.add_parser("compare", help="pairwise similarity matrix of saved clusterings")
    sp.add_argument("clusterings", nargs="+")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_compare)

    def add_config_flags(sp):
        sp.add_argument("config", help="experiment config JSON")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config field (dotted path)")
        sp.add_argument("--pe-dim", type=_int_at_least(1), default=64, help="positional encoding width when a model needs one")

    sp = sub.add_parser("train", help="train every configured model over the seed list")
    add_config_flags(sp)
    sp.add_argument("--jobs", type=_int_at_least(1), default=1, help="parallel (model, seed) runs; at most one process per run")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("select-clusterings", help="validation-driven clustering selection")
    add_config_flags(sp)
    sp.set_defaults(func=cmd_select_clusterings)

    sp = sub.add_parser("analyze-attention", help="attention-distance profile of a checkpoint")
    add_config_flags(sp)
    sp.add_argument("checkpoint", help="checkpoint written by `clatt train`")
    sp.add_argument("--model", help="model name from the config (default when unambiguous)")
    sp.add_argument("--bins", type=_int_at_least(1), default=20)
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
