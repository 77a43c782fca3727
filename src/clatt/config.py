"""Experiment configuration: JSON schema, validation, and overrides.

A single JSON file drives a whole experiment run. Validation errors
always name the offending field by its dotted path so a typo in a large
config is findable without reading the schema source. Each section's
accepted keys and their checks form one ``{key: check}`` table; a key left
out of the JSON takes the default of its dataclass field.
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
        """The clusterings the models list, in canonical order."""
        return tuple(t for t in CANONICAL_TAGS if any(t in m.clusterings for m in self.models))


def _expect(raw, path, typ, what):
    if not isinstance(raw, typ):
        _fail(path, f"expected {what}, got {type(raw).__name__}")
    return raw


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


def _count(minimum, maximum=None):
    return lambda raw, path: _int_field(raw, path, minimum, maximum)


def _positive(raw, path):
    return _number_field(raw, path, positive=True)


def _of_type(typ, what):
    return lambda raw, path: _expect(raw, path, typ, what)


def _or_null(check):
    return lambda raw, path: None if raw is None else check(raw, path)


def _choice(options):
    def check(raw, path):
        if not isinstance(raw, str) or raw not in options:
            _fail(path, f"must be one of {options}, got {raw!r}")
        return raw

    return check


def _list_of(check, nonempty=None):
    """A list checked item by item, as a tuple; an empty one fails with the
    message ``nonempty`` when that is given."""

    def checked(raw, path):
        _expect(raw, path, list, "a list")
        if nonempty and not raw:
            _fail(path, nonempty)
        return tuple(check(v, f"{path}[{i}]") for i, v in enumerate(raw))

    return checked


def _ratios(raw, path):
    if isinstance(raw, list) and len(raw) != 3:
        _fail(path, f"expected 3 values, got {len(raw)}")
    ratios = _list_of(_number_field)(raw, path)
    if abs(sum(ratios) - 1.0) > 1e-9 or min(ratios) < 0:
        _fail(path, f"must be non-negative and sum to 1, got {ratios}")
    return ratios


def _valid(spec: ModelSpec, path: str) -> ModelSpec:
    try:
        spec.validate()
    except InputError as e:
        _fail(path, str(e))
    return spec


def _spec_number(key):
    """A number that ModelSpec.validate accepts as the field ``key``."""
    return lambda raw, path: getattr(_valid(ModelSpec("GCN", **{key: _number_field(raw, path)}), path), key)


def _object(raw, path: str, fields: dict, required=(), unknown="unknown config key") -> dict:
    """The keys present in a config object, each run through its check in
    ``fields``; a key left out takes the default of its dataclass field."""
    _expect(raw, path or "config", dict, "an object")

    def at(key):
        return f"{path}.{key}" if path else key

    for key in raw:
        if key not in fields:
            _fail(at(key), unknown)
    for key in required:
        if key not in raw:
            _fail(at(key), "required")
    return {key: fields[key](value, at(key)) for key, value in raw.items()}


def _section(fields, build=dict, **kw):
    """The check of a nested config object: ``build`` of its checked keys."""
    return lambda raw, path: build(**_object(raw, path, fields, **kw))


# accepted keys per section, each with its check
DATASET_FIELDS = {
    "edges": _path_field,
    "nodes": _or_null(_path_field),
    "id_column": _of_type(str, "a string"),
    "feature_columns": _or_null(_list_of(_of_type(str, "a string"))),
    "target_column": _or_null(_of_type(str, "a string or null")),
    "task": _choice(TASKS),
    "directed": _bool_field,
}
SPLIT_FIELDS = {"ratios": _ratios, "seed": _seed, "stratified": _bool_field}
GRID_FIELDS = {
    "lrs": _list_of(_spec_number("lr"), nonempty="must be non-empty"),
    "dropouts": _list_of(_spec_number("dropout"), nonempty="must be non-empty"),
    "transforms": _list_of(_choice(FEATURE_TRANSFORMS), nonempty="must be non-empty"),
}
MODEL_FIELDS = {
    "conv_type": _choice(CONV_TYPES),
    "use_clatt": _bool_field,
    "clusterings": _list_of(_choice(CANONICAL_TAGS)),
    "pe": _choice(PE_KINDS),
    "layers": _count(1),
    "hidden": _count(1),
    "heads": _count(1),
    "dropout": _number_field,
    "lr": _number_field,
}
# the params block of each clustering algorithm
CLUSTERING_PARAMS = {
    "LA": {"gamma": _or_null(_positive), "seed": _seed, "max_passes": _count(1)},
    "BPP": {"k_max": _count(1), "seed": _seed, "sweeps": _count(1), "restarts": _count(1)},
    "H1": {"k_max": _or_null(_count(2)), "seed": _seed, "sweeps": _count(1), "restarts": _count(1)},
    "KM": {
        "k": _or_null(_count(1)),
        "seed": _seed,
        "hidden": _count(1),
        "layers": _count(1),
        "steps": _count(0),
        "lr": _positive,
        "max_iters": _count(1),
    },
}


def _model(raw, path: str) -> ModelSpec:
    return _valid(_section(MODEL_FIELDS, ModelSpec, required=("conv_type",))(raw, path), path)


def model_record(raw, path: str) -> ModelSpec:
    """A ModelSpec as ``ModelSpec.to_json`` writes it: every field present,
    each checked as a config model's is."""
    return _valid(_section(MODEL_FIELDS, ModelSpec, required=tuple(MODEL_FIELDS))(raw, path), path)


TOP_FIELDS = {
    "dataset": _section(DATASET_FIELDS, required=("edges",)),
    "split": _section(SPLIT_FIELDS),
    "models": _list_of(_model, nonempty="must list at least one model"),
    "clusterings": _section(
        {tag: _section(params) for tag, params in CLUSTERING_PARAMS.items()},
        unknown=f"unknown tag, expected one of {CANONICAL_TAGS}",
    ),
    "min_cluster_size": _count(1),
    # cluster attention lays out no cluster larger than MAX_CLUSTER_SLOTS
    "max_cluster_size": _count(1, MAX_CLUSTER_SLOTS),
    "grid": _or_null(_section(GRID_FIELDS, GridConfig)),
    "seeds": _list_of(_seed, nonempty="must be non-empty"),
    "steps": _count(0),
    "eval_every": _count(1),
    "selection_model": _or_null(_model),
    "output_dir": _or_null(_path_field),
}


def parse_config(raw: dict, base_dir) -> ExperimentConfig:
    """Validate a raw JSON object; relative paths resolve against base_dir."""
    base = Path(base_dir)
    fields = _object(raw, "", TOP_FIELDS, required=("dataset", "models"))
    dataset = fields["dataset"]
    for key in ("edges", "nodes"):
        if dataset.get(key) is not None:
            dataset[key] = base / dataset[key]
            if not dataset[key].is_file():
                _fail(f"dataset.{key}", f"file not found: {dataset[key]}")
    dataset = fields["dataset"] = DatasetConfig(**dataset)
    first_with = {}
    for i, spec in enumerate(fields["models"]):
        if spec.name in first_with:
            # results rows and checkpoint files are keyed by model name
            _fail(f"models[{i}]", f"duplicate model name {spec.name!r}, also models[{first_with[spec.name]}]")
        first_with[spec.name] = i
    split = fields.get("split", {})
    split.setdefault("stratified", dataset.task != "regression")
    if split["stratified"] and dataset.task == "regression":
        _fail("split.stratified", "stratified splits need discrete labels; use false for regression")
    fields["split"] = SplitConfig(**split)
    out_dir = fields.pop("output_dir", None) or os.environ.get(OUTPUT_DIR_ENV) or "."
    cfg = ExperimentConfig(**fields, output_dir=base / out_dir)
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
