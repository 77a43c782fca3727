"""Experiment configuration: JSON schema, validation, and overrides.

A single JSON file drives a whole experiment run. Validation errors
always name the offending field by its dotted path so a typo in a large
config is findable without reading the schema source.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InputError
from .graphs import FEATURE_TRANSFORMS, TASKS
from .nn import CONV_TYPES, MAX_CLUSTER_SLOTS, PE_KINDS, ModelSpec
from .training import CANONICAL_TAGS, GRID_DROPOUTS, GRID_LRS

OUTPUT_DIR_ENV = "CLATT_OUT_DIR"


class ConfigError(InputError):
    """Schema violation; the message starts with the field path."""


def _fail(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}")


@dataclass(frozen=True)
class DatasetConfig:
    edges: Path
    nodes: Path | None = None
    id_column: str = "id"
    feature_columns: tuple | None = None
    target_column: str | None = None
    task: str = "multiclass"
    directed: bool = False


@dataclass(frozen=True)
class SplitConfig:
    ratios: tuple = (0.1, 0.1, 0.8)
    seed: int = 0
    stratified: bool = True


@dataclass(frozen=True)
class GridConfig:
    lrs: tuple = GRID_LRS
    dropouts: tuple = GRID_DROPOUTS
    transforms: tuple = ("none",)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig
    models: tuple
    split: SplitConfig = field(default_factory=SplitConfig)
    clusterings: dict = field(default_factory=dict)
    min_cluster_size: int = 4
    max_cluster_size: int = 512
    grid: GridConfig | None = None
    seeds: tuple = tuple(range(10))
    steps: int = 1000
    eval_every: int = 10
    selection_model: ModelSpec | None = None
    output_dir: Path = Path(".")

    def needed_tags(self) -> tuple:
        tags = set()
        for m in self.models:
            tags.update(m.clusterings)
        if self.selection_model is not None:
            tags.update(CANONICAL_TAGS)
        return tuple(t for t in CANONICAL_TAGS if t in tags)


def _expect(raw, path, typ, what):
    if not isinstance(raw, typ):
        _fail(path, f"expected {what}, got {type(raw).__name__}")
    return raw


def _check_keys(raw: dict, path: str, allowed):
    for key in raw:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else key, "unknown config key")


def _int_field(raw, path, minimum=None, maximum=None):
    if isinstance(raw, bool) or not isinstance(raw, int):
        _fail(path, f"expected an integer, got {raw!r}")
    if minimum is not None and raw < minimum:
        _fail(path, f"must be >= {minimum}, got {raw}")
    if maximum is not None and raw > maximum:
        _fail(path, f"must be <= {maximum}, got {raw}")
    return raw


def _number_field(raw, path, positive=False):
    """A finite real number, strictly positive when asked."""
    try:
        finite = not isinstance(raw, bool) and isinstance(raw, (int, float)) and math.isfinite(raw)
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        _fail(path, f"expected a finite number, got {raw!r}")
    if positive and raw <= 0:
        _fail(path, f"must be > 0, got {raw}")
    return float(raw)


def _bool_field(raw, path):
    if not isinstance(raw, bool):
        _fail(path, f"expected true or false, got {raw!r}")
    return raw


def _path_field(raw, path):
    """A path string the file system can encode."""
    try:
        if isinstance(raw, str) and b"\0" not in os.fsencode(raw):
            return raw
    except UnicodeEncodeError:
        pass
    _fail(path, f"expected a path string, got {raw!r}")


def _seed(raw, path):
    return _int_field(raw, path, minimum=0)


def _count(minimum):
    return lambda raw, path: _int_field(raw, path, minimum)


def _positive(raw, path):
    return _number_field(raw, path, positive=True)


def _or_null(check):
    return lambda raw, path: None if raw is None else check(raw, path)


def _choice(options):
    def check(raw, path):
        if not isinstance(raw, str) or raw not in options:
            _fail(path, f"must be one of {options}, got {raw!r}")
        return raw

    return check


def _choices(options):
    """A list whose every item is one of ``options``, as a tuple."""
    return lambda raw, path: tuple(_choice(options)(v, f"{path}[{i}]") for i, v in enumerate(_expect(raw, path, list, "a list")))


# accepted keys per clustering algorithm's params block, each with its check
CLUSTERING_PARAMS = {
    "LA": {"gamma": _or_null(_positive), "seed": _seed, "max_passes": _count(1)},
    "BPP": {"k_max": _count(1), "seed": _seed, "sweeps": _count(1), "restarts": _count(1)},
    "H1": {"k_max": _or_null(_count(2)), "seed": _seed, "sweeps": _count(1), "restarts": _count(1)},
    "KM": {
        "k": _or_null(_count(1)),
        "seed": _seed,
        "hidden": _count(1),
        "layers": _count(0),
        "steps": _count(0),
        "lr": _positive,
        "max_iters": _count(1),
    },
}


def _parse_dataset(raw, base: Path) -> DatasetConfig:
    _expect(raw, "dataset", dict, "an object")
    _check_keys(raw, "dataset", ("edges", "nodes", "id_column", "feature_columns", "target_column", "task", "directed"))
    if "edges" not in raw:
        _fail("dataset.edges", "required")
    edges = base / _path_field(raw["edges"], "dataset.edges")
    if not edges.is_file():
        _fail("dataset.edges", f"file not found: {edges}")
    nodes = None
    if raw.get("nodes") is not None:
        nodes = base / _path_field(raw["nodes"], "dataset.nodes")
        if not nodes.is_file():
            _fail("dataset.nodes", f"file not found: {nodes}")
    task = _choice(TASKS)(raw.get("task", "multiclass"), "dataset.task")
    cols = raw.get("feature_columns")
    if cols is not None:
        _expect(cols, "dataset.feature_columns", list, "a list")
        cols = tuple(_expect(c, f"dataset.feature_columns[{i}]", str, "a string") for i, c in enumerate(cols))
    target = raw.get("target_column")
    return DatasetConfig(
        edges=edges,
        nodes=nodes,
        id_column=_expect(raw.get("id_column", "id"), "dataset.id_column", str, "a string"),
        feature_columns=cols,
        target_column=None if target is None else _expect(target, "dataset.target_column", str, "a string or null"),
        task=task,
        directed=_bool_field(raw.get("directed", False), "dataset.directed"),
    )


def _parse_split(raw, task: str) -> SplitConfig:
    _expect(raw, "split", dict, "an object")
    _check_keys(raw, "split", ("ratios", "seed", "stratified"))
    ratios = raw.get("ratios", [0.1, 0.1, 0.8])
    _expect(ratios, "split.ratios", list, "a list")
    if len(ratios) != 3:
        _fail("split.ratios", f"expected 3 values, got {len(ratios)}")
    ratios = tuple(_number_field(r, f"split.ratios[{i}]") for i, r in enumerate(ratios))
    if abs(sum(ratios) - 1.0) > 1e-9 or min(ratios) < 0:
        _fail("split.ratios", f"must be non-negative and sum to 1, got {ratios}")
    stratified = _bool_field(raw.get("stratified", task != "regression"), "split.stratified")
    if stratified and task == "regression":
        _fail("split.stratified", "stratified splits need discrete labels; use false for regression")
    return SplitConfig(ratios=ratios, seed=_seed(raw.get("seed", 0), "split.seed"), stratified=stratified)


# accepted keys of a model block, each with its check
MODEL_FIELDS = {
    "conv_type": _choice(CONV_TYPES),
    "use_clatt": _bool_field,
    "clusterings": _choices(CANONICAL_TAGS),
    "pe": _choice(PE_KINDS),
    "layers": _count(1),
    "hidden": _count(1),
    "heads": _count(1),
    "dropout": _number_field,
    "lr": _number_field,
}


def _parse_model(raw, path: str) -> ModelSpec:
    _expect(raw, path, dict, "an object")
    _check_keys(raw, path, MODEL_FIELDS)
    if "conv_type" not in raw:
        _fail(f"{path}.conv_type", "required")
    spec = ModelSpec(**{key: MODEL_FIELDS[key](value, f"{path}.{key}") for key, value in raw.items()})
    try:
        spec.validate()
    except InputError as e:
        _fail(path, str(e))
    return spec


def _parse_clusterings(raw) -> dict:
    _expect(raw, "clusterings", dict, "an object")
    out = {}
    for tag, params in raw.items():
        if tag not in CANONICAL_TAGS:
            _fail(f"clusterings.{tag}", f"unknown tag, expected one of {CANONICAL_TAGS}")
        _expect(params, f"clusterings.{tag}", dict, "an object")
        checks = CLUSTERING_PARAMS[tag]
        _check_keys(params, f"clusterings.{tag}", checks)
        out[tag] = {key: checks[key](value, f"clusterings.{tag}.{key}") for key, value in params.items()}
    return out


def _parse_grid(raw) -> GridConfig:
    _expect(raw, "grid", dict, "an object")
    _check_keys(raw, "grid", ("lrs", "dropouts", "transforms"))
    lrs = _expect(raw.get("lrs", list(GRID_LRS)), "grid.lrs", list, "a list")
    lrs = tuple(_number_field(v, f"grid.lrs[{i}]") for i, v in enumerate(lrs))
    dropouts = _expect(raw.get("dropouts", list(GRID_DROPOUTS)), "grid.dropouts", list, "a list")
    dropouts = tuple(_number_field(v, f"grid.dropouts[{i}]") for i, v in enumerate(dropouts))
    transforms = _choices(FEATURE_TRANSFORMS)(raw.get("transforms", ["none"]), "grid.transforms")
    if not lrs:
        _fail("grid.lrs", "must be non-empty")
    if not dropouts:
        _fail("grid.dropouts", "must be non-empty")
    return GridConfig(lrs=lrs, dropouts=dropouts, transforms=transforms)


TOP_KEYS = (
    "dataset",
    "split",
    "models",
    "clusterings",
    "min_cluster_size",
    "max_cluster_size",
    "grid",
    "seeds",
    "steps",
    "eval_every",
    "selection_model",
    "output_dir",
)


def parse_config(raw: dict, base_dir) -> ExperimentConfig:
    """Validate a raw JSON object; relative paths resolve against base_dir."""
    base = Path(base_dir)
    _expect(raw, "config", dict, "an object")
    _check_keys(raw, "", TOP_KEYS)
    if "dataset" not in raw:
        _fail("dataset", "required")
    dataset = _parse_dataset(raw["dataset"], base)
    models_raw = raw.get("models", [])
    _expect(models_raw, "models", list, "a list")
    if not models_raw:
        _fail("models", "must list at least one model")
    models = tuple(_parse_model(m, f"models[{i}]") for i, m in enumerate(models_raw))
    first_with = {}
    for i, spec in enumerate(models):
        if spec.name in first_with:
            # results rows and checkpoint files are keyed by model name
            _fail(f"models[{i}]", f"duplicate model name {spec.name!r}, also models[{first_with[spec.name]}]")
        first_with[spec.name] = i
    split = _parse_split(raw.get("split", {}), dataset.task)
    clusterings = _parse_clusterings(raw.get("clusterings", {}))
    seeds_raw = _expect(raw.get("seeds", list(range(10))), "seeds", list, "a list")
    if not seeds_raw:
        _fail("seeds", "must be non-empty")
    seeds = tuple(_seed(s, f"seeds[{i}]") for i, s in enumerate(seeds_raw))
    grid = _parse_grid(raw["grid"]) if raw.get("grid") is not None else None
    selection = None
    if raw.get("selection_model") is not None:
        selection = _parse_model(raw["selection_model"], "selection_model")
    out_raw = raw.get("output_dir")
    if out_raw is not None:
        _path_field(out_raw, "output_dir")
    out_raw = out_raw or os.environ.get(OUTPUT_DIR_ENV) or "."
    cfg = ExperimentConfig(
        dataset=dataset,
        models=models,
        split=split,
        clusterings=clusterings,
        min_cluster_size=_int_field(raw.get("min_cluster_size", 4), "min_cluster_size", minimum=1),
        # cluster attention lays out no cluster larger than MAX_CLUSTER_SLOTS
        max_cluster_size=_int_field(raw.get("max_cluster_size", 512), "max_cluster_size", 1, MAX_CLUSTER_SLOTS),
        grid=grid,
        seeds=seeds,
        steps=_int_field(raw.get("steps", 1000), "steps", minimum=0),
        eval_every=_int_field(raw.get("eval_every", 10), "eval_every", minimum=1),
        selection_model=selection,
        output_dir=base / out_raw,
    )
    if cfg.min_cluster_size > cfg.max_cluster_size:
        _fail("min_cluster_size", "exceeds max_cluster_size")
    return cfg


def apply_override(raw: dict, assignment: str) -> None:
    """Apply one ``--set path=value`` to the raw config in place.

    The path is dot-separated; integer segments index lists. Values are
    parsed as JSON when possible, otherwise taken as strings.
    """
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r}: expected key=value")
    key, _, text = assignment.partition("=")
    key = key.strip()
    if not key:
        raise ConfigError(f"override {assignment!r}: empty key")
    try:
        value = json.loads(text)
    except (json.JSONDecodeError, RecursionError):
        value = text
    node = raw
    segments = key.split(".")
    for i, seg in enumerate(segments):
        last = i == len(segments) - 1
        if isinstance(node, list):
            try:
                idx = int(seg)
                node[idx]
            except (ValueError, IndexError):
                raise ConfigError(f"override {key!r}: bad list index {seg!r}") from None
            if last:
                node[idx] = value
            else:
                node = node[idx]
        elif isinstance(node, dict):
            if last:
                node[seg] = value
            else:
                node = node.setdefault(seg, {})
                if not isinstance(node, (dict, list)):
                    raise ConfigError(f"override {key!r}: {seg!r} is not an object")
        else:
            raise ConfigError(f"override {key!r}: cannot descend into {seg!r}")


def load_config(path, overrides=()) -> ExperimentConfig:
    path = Path(path)
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise ConfigError(f"config: invalid JSON in {path}: {e}") from None
    for item in overrides:
        apply_override(raw, item)
    return parse_config(raw, path.parent)
