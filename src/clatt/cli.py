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
import re
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import nn
from . import training as tr
from .analysis import export_histogram, export_profile, export_similarity_matrix, profile_model, quantile_table
from .blockmodel import hierarchical_fit, planted_partition_fit
from .checkpoint import load_checkpoint, save_checkpoint
from .config import CANONICAL_TAGS, ConfigError, ExperimentConfig, load_config
from .errors import InputError
from .graphs import TableSchema, load_edge_list, load_node_table, save_stats_json, transform_features
from .kmeans import kmeans
from .leiden import leiden_cpm
from .partition import filter_clusters, load_clustering, save_clustering
from .pe import deepwalk_pe, laplacian_pe
from .stats import compute_graph_stats, stats_to_dict


def _echo(msg: str) -> None:
    print(msg)


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


def _resmlp_points(args, g):
    if not args.nodes:
        raise InputError("--nodes is required for KM (auxiliary model needs features and targets)")
    nd = load_node_table(args.nodes, _schema_from_args(args), g)
    if nd.targets is None:
        raise InputError("--target-column is required for KM")
    data = tr.TrainData(g, nd.features, nd.targets, nd.task, num_classes=nd.num_classes or None)
    labels = nd.targets if nd.task != "regression" else np.zeros(g.n, dtype=np.int64)
    split = tr.make_split(labels, seed=args.seed, stratified=nd.task != "regression")
    split.check_nonempty()
    return tr.resmlp_representations(
        data, split, seed=args.seed, hidden=args.km_hidden, layers=args.km_layers, steps=args.km_steps
    )


def cmd_cluster(args) -> int:
    g = _load_graph(args)
    if args.algo == "LA":
        c = leiden_cpm(g, gamma=args.gamma, seed=args.seed)
    elif args.algo == "BPP":
        c = planted_partition_fit(g, k_max=args.k_max, seed=args.seed)
    elif args.algo == "H1":
        c = hierarchical_fit(g, seed=args.seed, k_max=args.k_max)
    else:  # KM
        points = _resmlp_points(args, g)
        c, _ = kmeans(points, k=args.k, seed=args.seed)
    if args.min_size is not None or args.max_size is not None:
        c = filter_clusters(c, min_size=args.min_size or 1, max_size=args.max_size or g.n)
    save_clustering(args.out, c, node_ids=g.node_ids)
    _echo(f"{args.algo}: {c.num_clusters} clusters over {c.n} nodes -> {args.out}")
    return 0


def cmd_compare(args) -> int:
    if len(args.clusterings) < 2:
        raise InputError("compare needs at least 2 clustering files")
    loaded = []
    for path in args.clusterings:
        ids, assignment, meta = load_clustering(path)
        order = np.argsort(ids, kind="stable")
        tag = meta.get("algorithm_tag") or Path(path).stem
        loaded.append((ids[order], assignment[order], tag))
    base_ids = loaded[0][0]
    for ids, _, tag in loaded[1:]:
        if not np.array_equal(ids, base_ids):
            raise InputError(f"clustering {tag!r} covers different node ids")
    # nodes a size filter dropped anywhere are excluded from every pair
    keep = np.all([a >= 0 for _, a, _ in loaded], axis=0)
    if keep.sum() < 2:
        raise InputError("fewer than 2 nodes assigned everywhere; nothing to compare")
    objs = [SimpleNamespace(assignment=a[keep], algorithm_tag=tag) for _, a, tag in loaded]
    export_similarity_matrix(objs, args.out)
    with open(args.out) as fh:
        _echo(fh.read().rstrip())
    return 0


def _dataset_for_training(cfg: ExperimentConfig) -> tr.TrainData:
    ds = cfg.dataset
    g = load_edge_list(ds.edges, directed=ds.directed)
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
    return tr.TrainData(
        g, nd.features, nd.targets, ds.task, num_classes=nd.num_classes or None
    )


def _split_for(cfg: ExperimentConfig, data: tr.TrainData) -> tr.Split:
    labels = data.targets if cfg.split.stratified else np.zeros(data.g.n, dtype=np.int64)
    split = tr.make_split(labels, ratios=cfg.split.ratios, seed=cfg.split.seed, stratified=cfg.split.stratified)
    split.check_nonempty()
    return split


def _build_clusterings(cfg: ExperimentConfig, data: tr.TrainData, split: tr.Split, tags) -> None:
    for tag in tags:
        params = dict(cfg.clusterings.get(tag, {}))
        seed = int(params.pop("seed", 0))
        if tag == "LA":
            c = leiden_cpm(data.g, gamma=params.pop("gamma", None), seed=seed, **params)
        elif tag == "BPP":
            c = planted_partition_fit(data.g, seed=seed, **params)
        elif tag == "H1":
            c = hierarchical_fit(data.g, seed=seed, **params)
        else:  # KM
            k = params.pop("k", None)
            max_iters = params.pop("max_iters", 100)
            reps = tr.resmlp_representations(data, split, seed=seed, **params)
            c, _ = kmeans(reps, k=k, seed=seed, max_iters=max_iters)
        fc = filter_clusters(c, min_size=cfg.min_cluster_size, max_size=cfg.max_cluster_size)
        data.clusterings[tag] = fc
        _echo(
            f"clustering {tag}: {c.num_clusters} raw, {fc.num_clusters} retained, "
            f"{fc.unassigned.size} nodes unassigned"
        )


def _pe_for(kind: str, g, dim: int):
    if kind == "none":
        return None
    if kind == "deepwalk":
        return deepwalk_pe(g, dim=dim)
    return laplacian_pe(g, k=min(dim, g.n - 1)).vectors


def _output_dir(cfg: ExperimentConfig) -> Path:
    out_dir = Path(cfg.output_dir)
    if out_dir.exists() and not out_dir.is_dir():
        raise InputError(f"output_dir: {out_dir} exists and is not a directory")
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name).strip("_")


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.set or ())
    tr.check_seeds(cfg.seeds)
    data = _dataset_for_training(cfg)
    split = _split_for(cfg, data)
    out_dir = _output_dir(cfg)
    _build_clusterings(cfg, data, split, cfg.needed_tags())

    # choose (transform, pe) variants; grid-tune each spec when asked
    plans = []  # (spec, transform)
    for spec in cfg.models:
        if cfg.grid is not None:
            tuned, transform, _, _ = tr.grid_search(
                spec,
                data,
                split,
                lrs=cfg.grid.lrs,
                dropouts=cfg.grid.dropouts,
                transforms=cfg.grid.transforms,
                seed=cfg.seeds[0],
                steps=cfg.steps,
                eval_every=cfg.eval_every,
            )
            _echo(f"grid {spec.name}: lr={tuned.lr:g} dropout={tuned.dropout:g} transform={transform}")
            plans.append((tuned, transform))
        else:
            plans.append((spec, "none"))

    pe_cache: dict[str, np.ndarray | None] = {}
    rows_by_name = {}
    groups: dict[tuple, list] = {}
    for spec, transform in plans:
        groups.setdefault((transform, spec.pe), []).append(spec)
    for (transform, pe_kind), specs in groups.items():
        if pe_kind not in pe_cache:
            pe_cache[pe_kind] = _pe_for(pe_kind, data.g, args.pe_dim)
        variant = replace(
            data,
            features=transform_features(data.features, transform),
            transform=transform,
            pe=pe_cache[pe_kind],
        )
        rows = tr.run_experiment(
            variant, specs, split, seeds=cfg.seeds, steps=cfg.steps, eval_every=cfg.eval_every, jobs=args.jobs
        )
        for row in rows:
            rows_by_name[row.model] = row
            save_checkpoint(out_dir / f"{_safe_name(row.model)}.ckpt", row.params)

    ordered = [rows_by_name[spec.name] for spec, _ in plans]
    results = out_dir / "results.csv"
    with open(results, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["model", "metric", "mean", "std", "significant"])
        for row in ordered:
            w.writerow([row.model, row.metric, repr(row.mean), repr(row.std), "" if row.significant is None else str(row.significant)])
    _echo(tr.render_table(ordered))
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
    data = _dataset_for_training(cfg)
    split = _split_for(cfg, data)
    candidates = tuple(t for t in CANONICAL_TAGS if t in cfg.clusterings) or CANONICAL_TAGS
    out = _output_dir(cfg) / "selected_clusterings.json"
    _build_clusterings(cfg, data, split, candidates)
    base = _selection_base(cfg)
    base = replace(base, use_clatt=False, clusterings=())
    if base.pe != "none":
        data = replace(data, pe=_pe_for(base.pe, data.g, args.pe_dim))
    selected, details = tr.select_clusterings(
        base, data, split, candidates=candidates, seed=cfg.seeds[0], steps=cfg.steps, eval_every=cfg.eval_every
    )
    with open(out, "w") as fh:
        json.dump({"base_model": base.name, "selected": list(selected), "details": details}, fh, indent=2)
        fh.write("\n")
    _echo(f"baseline {details['baseline']:.4f}; " + ", ".join(f"{t}={details[t]:.4f}" for t in candidates))
    _echo(f"selected: {list(selected)} -> {out}")
    return 0


def _check_checkpoint(path, spec: nn.ModelSpec, params: dict, expected: dict) -> None:
    """Refuse a checkpoint unless it holds exactly the model's arrays, each in
    its shape; the message names the first array that differs."""
    where = f"checkpoint {path} does not match model {spec.name}"
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
    by_name = {spec.name: spec for spec in cfg.models}
    if args.model is None:
        if len(cfg.models) > 1:
            raise InputError(f"--model required; config defines {sorted(by_name)}")
        spec = cfg.models[0]
    elif args.model in by_name:
        spec = by_name[args.model]
    else:
        raise InputError(f"model {args.model!r} not in config; available: {sorted(by_name)}")
    data = _dataset_for_training(cfg)
    split = _split_for(cfg, data)
    out_dir = _output_dir(cfg)
    _build_clusterings(cfg, data, split, spec.clusterings)
    if spec.pe != "none":
        data = replace(data, pe=_pe_for(spec.pe, data.g, args.pe_dim))
    params = load_checkpoint(args.checkpoint)
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
    sp.add_argument("--k-max", type=_int_at_least(1), default=10, help="BPP/H1 block count ceiling")
    sp.add_argument("--k", type=int, help="KM cluster count; default n/128 in [2, n]")
    sp.add_argument("--min-size", type=int, help="apply the size filter before saving")
    sp.add_argument("--max-size", type=int)
    sp.add_argument("--km-hidden", type=_int_at_least(1), default=64)
    sp.add_argument("--km-layers", type=int, default=2)
    sp.add_argument("--km-steps", type=int, default=300)
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
    sp.add_argument("--jobs", type=int, default=1, help="parallel (model, seed) runs")
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
