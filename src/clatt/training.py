"""Splits, metrics, the full-batch training loop, grid search, clustering
selection and multi-seed experiment aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.stats

from . import nn
from . import tensor as T
from .errors import InputError
from .graphs import FEATURE_TRANSFORMS, TASKS, transform_features

__all__ = [
    "GRID_LRS",
    "GRID_DROPOUTS",
    "CANONICAL_TAGS",
    "Split",
    "make_split",
    "accuracy",
    "average_precision",
    "r_squared",
    "TrainData",
    "TrainResult",
    "TrainingDiverged",
    "train",
    "predict",
    "metric_name_for",
    "grid_search",
    "select_clusterings",
    "welch_test",
    "ResultRow",
    "check_seeds",
    "run_experiment",
    "format_value",
    "render_table",
    "resmlp_representations",
]

GRID_LRS = (3e-5, 1e-4, 3e-4, 1e-3, 3e-3)
GRID_DROPOUTS = (0.0, 0.1, 0.2)
CANONICAL_TAGS = ("LA", "BPP", "H1", "KM")


@dataclass(frozen=True)
class Split:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    ratios: tuple
    seed: int
    stratified: bool

    def validate(self) -> None:
        n = self.train.size + self.val.size + self.test.size
        combined = np.concatenate([self.train, self.val, self.test])
        if np.unique(combined).size != n:
            raise ValueError("split subsets overlap")

    def check_nonempty(self) -> None:
        """Training, model selection and testing each need at least one node."""
        for name in ("train", "val", "test"):
            if getattr(self, name).size == 0:
                raise InputError(f"split ratios {self.ratios} leave the {name} subset empty")


def _hamilton(m: int, ratios) -> np.ndarray:
    """Largest-remainder apportionment; each count is within 1 of m*r."""
    quotas = m * np.asarray(ratios, dtype=np.float64)
    counts = np.floor(quotas).astype(np.int64)
    short = m - counts.sum()
    if short > 0:
        order = np.argsort(-(quotas - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def make_split(labels, ratios=(0.1, 0.1, 0.8), seed: int = 0, stratified: bool = True) -> Split:
    """Shuffle-then-slice split, per class when stratified.

    Per-class rounding carries its residue into the next class so the
    overall subset sizes track n*ratios, while each class stays within
    one node of its own proportional target.
    """
    labels = np.asarray(labels)
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or abs(sum(ratios) - 1.0) > 1e-9:
        raise InputError(f"ratios must be 3 values summing to 1, got {ratios}")
    n = labels.shape[0]
    rng = np.random.default_rng(seed)
    parts: list[list[np.ndarray]] = [[], [], []]
    if stratified:
        carry = np.zeros(3)
        for cls in np.unique(labels):
            idx = np.nonzero(labels == cls)[0]
            if idx.size < 3:
                raise InputError(f"class {cls!r} has {idx.size} nodes, fewer than the 3 subsets")
            rng.shuffle(idx)
            quotas = idx.size * np.asarray(ratios)
            counts = np.floor(quotas).astype(np.int64)
            fracs = quotas - counts
            short = idx.size - counts.sum()
            if short > 0:
                # leftover nodes go to the subsets most shorted so far
                order = np.argsort(-(carry + fracs), kind="stable")
                counts[order[:short]] += 1
                fracs[order[:short]] -= 1.0
            carry += fracs
            stops = np.cumsum(counts)
            parts[0].append(idx[: stops[0]])
            parts[1].append(idx[stops[0] : stops[1]])
            parts[2].append(idx[stops[1] :])
    else:
        idx = rng.permutation(n)
        stops = np.cumsum(_hamilton(n, ratios))
        parts = [[idx[: stops[0]]], [idx[stops[0] : stops[1]]], [idx[stops[1] :]]]
    train, val, test = (np.sort(np.concatenate(p)) if p else np.empty(0, dtype=np.int64) for p in parts)
    split = Split(train, val, test, ratios, seed, stratified)
    split.validate()
    return split


def _masked(arr, idx):
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size == 0:
        raise InputError("metric mask selects no nodes")
    return np.asarray(arr)[idx]


def accuracy(pred, labels, idx) -> float:
    p = _masked(pred, idx)
    y = _masked(labels, idx)
    return float((p == y).mean())


def average_precision(scores, labels, idx) -> float:
    """Rank-based AP; ties broken by stable sort on descending score."""
    s = _masked(scores, idx).astype(np.float64)
    y = _masked(labels, idx).astype(np.int64)
    total_pos = int(y.sum())
    if total_pos == 0:
        raise InputError("average_precision needs at least one positive label")
    order = np.argsort(-s, kind="stable")
    hits = y[order] == 1
    cum_pos = np.cumsum(hits)
    ranks = np.arange(1, y.size + 1)
    return float((cum_pos[hits] / ranks[hits]).sum() / total_pos)


def r_squared(pred, targets, idx) -> float:
    p = _masked(pred, idx).astype(np.float64)
    t = _masked(targets, idx).astype(np.float64)
    ss_tot = float(((t - t.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise InputError("r_squared is undefined for zero target variance")
    ss_res = float(((t - p) ** 2).sum())
    return 1.0 - ss_res / ss_tot


@dataclass
class TrainData:
    """One dataset: graph, features, targets, plus model-side extras."""

    g: object
    features: np.ndarray
    targets: np.ndarray
    task: str
    num_classes: int | None = None
    clusterings: dict = field(default_factory=dict)
    pe: np.ndarray | None = None

    def validate(self) -> None:
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.task == "multiclass" and not self.num_classes:
            raise ValueError("multiclass data needs num_classes")
        if self.features.shape[0] != self.g.n or self.targets.shape[0] != self.g.n:
            raise ValueError("features/targets row count does not match the graph")


def metric_name_for(task: str) -> str:
    return {"multiclass": "accuracy", "binary": "average_precision", "regression": "r2"}[task]


def _out_dim(data: TrainData) -> int:
    return data.num_classes if data.task == "multiclass" else 1


@dataclass
class TrainResult:
    spec: nn.ModelSpec
    seed: int
    params: dict
    best_step: int
    best_val: float
    test_metric: float
    history: list


def _metric_from_logits(logits: np.ndarray, data: TrainData, idx, target_scale=None) -> float:
    if data.task == "multiclass":
        return accuracy(logits.argmax(axis=1), data.targets, idx)
    if data.task == "binary":
        return average_precision(logits[:, 0], data.targets, idx)
    pred = logits[:, 0]
    if target_scale is not None:
        shift, scale = target_scale
        pred = pred * scale + shift
    return r_squared(pred, data.targets, idx)


class TrainingDiverged(InputError):
    """The training loss became non-finite, e.g. under too large a learning rate."""


def _fit(
    params: dict,
    forward,
    data: TrainData,
    split: Split,
    lr: float,
    steps: int,
    eval_every: int,
):
    """Full-batch Adam on ``forward(training) -> logits`` with best-validation
    checkpoint selection; the best parameters are restored in place.

    Returns (best_step, best_val, best_snapshot, history, metric), where
    ``metric(idx)`` scores the restored parameters on the nodes ``idx``
    from the best eval's logits, with one forward pass of its own only
    when no eval improved (``steps == 0`` or every val metric NaN).
    """
    target_scale = None
    loss_targets = data.targets
    if data.task == "regression":
        t_train = data.targets[split.train].astype(np.float64)
        shift = float(t_train.mean())
        scale = max(float(t_train.std()), 1e-12)
        target_scale = (shift, scale)
        loss_targets = (data.targets - shift) / scale

    def loss_fn() -> T.Tensor:
        logits = forward(True)
        if data.task == "multiclass":
            return T.softmax_cross_entropy(logits, data.targets, split.train)
        if data.task == "binary":
            return T.binary_cross_entropy_with_logits(
                T.reshape(logits, (data.g.n,)), loss_targets.astype(np.float64), split.train
            )
        return T.mse(T.reshape(logits, (data.g.n,)), loss_targets, split.train)

    def eval_logits() -> np.ndarray:
        with T.no_grad():
            return forward(False).data

    plist = list(params.values())
    state = T.adam_init(plist)
    best_val = -math.inf
    best_step = 0
    best_snapshot = {k: v.data.copy() for k, v in params.items()}
    best_logits = None
    history = []
    for step in range(1, steps + 1):
        T.zero_grad(plist)
        loss = loss_fn()
        value = loss.item()
        if not math.isfinite(value):
            raise TrainingDiverged(f"training diverged at step {step} (loss {value})")
        T.backward(loss)
        T.adam_step(plist, state, lr=lr)
        if step % eval_every == 0 or step == steps:
            logits = eval_logits()
            val = _metric_from_logits(logits, data, split.val, target_scale)
            history.append({"step": step, "train_loss": value, "val_metric": val})
            if val > best_val:
                best_val = val
                best_step = step
                best_snapshot = {k: v.data.copy() for k, v in params.items()}
                best_logits = logits

    for k, p in params.items():
        p.data[...] = best_snapshot[k]

    def metric(idx) -> float:
        # the eval forward has no dropout, so the best eval's logits are
        # exactly what the restored parameters would produce
        nonlocal best_logits
        if best_logits is None:
            best_logits = eval_logits()
        return _metric_from_logits(best_logits, data, idx, target_scale)

    return best_step, best_val, best_snapshot, history, metric


def train(
    spec: nn.ModelSpec,
    data: TrainData,
    split: Split,
    seed: int = 0,
    steps: int = 1000,
    eval_every: int = 10,
) -> TrainResult:
    """Full-batch Adam with best-validation-checkpoint selection.

    Deterministic per (spec, data, split, seed). Raises TrainingDiverged on
    a non-finite loss, naming the step.
    """
    data.validate()
    spec.validate()
    pe_dim = data.pe.shape[1] if data.pe is not None else None
    params = nn.init_params(spec, data.features.shape[1], _out_dim(data), seed=seed, pe_dim=pe_dim)
    inp = nn.prepare_inputs(data.g, data.features, spec, data.clusterings, data.pe)
    dropout_rng = np.random.default_rng([seed, 1])

    def forward(training: bool) -> T.Tensor:
        return nn.model_forward(spec, params, inp, training=training, dropout_rng=dropout_rng)

    best_step, best_val, best_snapshot, history, metric = _fit(
        params, forward, data, split, spec.lr, steps, eval_every
    )
    test_metric = metric(split.test)
    if best_val == -math.inf:  # steps == 0
        best_val = metric(split.val)
    return TrainResult(spec, seed, best_snapshot, best_step, best_val, test_metric, history)


def predict(spec: nn.ModelSpec, params_np: dict, data: TrainData, capture=None) -> np.ndarray:
    """Forward pass from a numpy parameter snapshot; returns raw outputs."""
    params = {k: T.Tensor(v) for k, v in params_np.items()}
    inp = nn.prepare_inputs(data.g, data.features, spec, data.clusterings, data.pe)
    with T.no_grad():
        return nn.model_forward(spec, params, inp, capture=capture).data


def grid_search(
    template: nn.ModelSpec,
    data: TrainData,
    split: Split,
    lrs=GRID_LRS,
    dropouts=GRID_DROPOUTS,
    transforms=("none",),
    seed: int = 0,
    steps: int = 1000,
    eval_every: int = 10,
):
    """Best (lr, dropout, feature transform) by validation metric.

    Ties go to the lower lr, then the lower dropout, then the earlier
    transform in the given list; the scan order itself cannot change
    the winner.
    """
    if not lrs or not dropouts or not transforms:
        raise ValueError("grid_search needs a non-empty grid")
    for t in transforms:
        if t not in FEATURE_TRANSFORMS:
            raise ValueError(f"unknown feature transform {t!r}")
    trials = []
    for t_idx, tname in enumerate(transforms):
        variant = replace(data, features=transform_features(data.features, tname))
        for lr in lrs:
            for dropout in dropouts:
                spec = replace(template, lr=lr, dropout=dropout)
                result = train(spec, variant, split, seed=seed, steps=steps, eval_every=eval_every)
                trials.append({"lr": lr, "dropout": dropout, "transform": tname, "val_metric": result.best_val, "t_idx": t_idx})
    best = min(trials, key=lambda r: (-r["val_metric"], r["lr"], r["dropout"], r["t_idx"]))
    best_spec = replace(template, lr=best["lr"], dropout=best["dropout"])
    return best_spec, best["transform"], best["val_metric"], trials


def select_clusterings(
    base_spec: nn.ModelSpec,
    data: TrainData,
    split: Split,
    candidates=CANONICAL_TAGS,
    seed: int = 0,
    steps: int = 1000,
    eval_every: int = 10,
):
    """Keep the clusterings whose solo run beats the no-CLATT baseline.

    Trains the baseline once and one single-clustering model per
    candidate; candidates with strictly better validation metric are
    returned in canonical order. Empty result means CLATT stays off.
    """
    missing = [t for t in candidates if t not in data.clusterings]
    if missing:
        raise ValueError(f"candidate clusterings not precomputed: {missing}")
    baseline_spec = replace(base_spec, use_clatt=False, clusterings=())
    baseline = train(baseline_spec, data, split, seed=seed, steps=steps, eval_every=eval_every).best_val
    details = {"baseline": baseline}
    selected = []
    for tag in candidates:
        solo = replace(base_spec, use_clatt=True, clusterings=(tag,))
        val = train(solo, data, split, seed=seed, steps=steps, eval_every=eval_every).best_val
        details[tag] = val
        if val > baseline:
            selected.append(tag)
    return tuple(selected), details


def welch_test(a, b, alpha: float = 0.05):
    """Two-sided Welch t-test; zero variances get an epsilon floor."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("welch_test needs at least 2 values per side")
    va = max(float(a.var(ddof=1)), 1e-12)
    vb = max(float(b.var(ddof=1)), 1e-12)
    se2 = va / a.size + vb / b.size
    t = (a.mean() - b.mean()) / math.sqrt(se2)
    df = se2**2 / ((va / a.size) ** 2 / (a.size - 1) + (vb / b.size) ** 2 / (b.size - 1))
    p = 2.0 * float(scipy.stats.t.sf(abs(t), df))
    return p < alpha, p


@dataclass
class ResultRow:
    model: str
    metric: str
    mean: float
    std: float
    values: list
    significant: bool | None = None
    # best parameters of the first seed's run, what `clatt train` checkpoints
    params: dict | None = field(default=None, compare=False, repr=False)


def _run_one(args):
    """Test metric of one (spec, seed) run, plus its best params if asked."""
    spec, data, split, seed, steps, eval_every, keep_params = args
    result = train(spec, data, split, seed=seed, steps=steps, eval_every=eval_every)
    return result.test_metric, result.params if keep_params else None


def check_seeds(seeds) -> tuple:
    """The seeds of a multi-seed experiment: at least two distinct ones, so
    that each row has a standard deviation and a t-test."""
    seeds = tuple(seeds)
    if len(seeds) < 2:
        raise InputError(f"run_experiment needs at least 2 seeds, got {len(seeds)}")
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise InputError(f"run_experiment needs distinct seeds; seed {seed} is repeated")
    return seeds


def run_experiment(
    data: TrainData | list[TrainData],
    specs,
    split: Split,
    seeds=tuple(range(10)),
    steps: int = 1000,
    eval_every: int = 10,
    jobs: int = 1,
) -> list[ResultRow]:
    """Per-spec multi-seed test metrics, with base-vs-CLATT significance.

    ``data`` is one TrainData for every spec or a list with one per spec.
    A CLATT spec is paired with the first plain spec of the same conv type
    and PE kind in ``specs`` (if present), whatever its data; the flag is a
    two-sided Welch t-test over seed-level test metrics at alpha 0.05.
    Standard deviations use ddof=1. Each row keeps the best params of its
    ``seeds[0]`` run and of no other seed.
    """
    seeds = check_seeds(seeds)
    specs = list(specs)
    datas = list(data) if isinstance(data, (list, tuple)) else [data] * len(specs)
    if len(datas) != len(specs):
        raise ValueError(f"run_experiment got {len(datas)} datasets for {len(specs)} specs")
    tasks = [(spec, d, split, seed, steps, eval_every, j == 0) for spec, d in zip(specs, datas) for j, seed in enumerate(seeds)]
    workers = min(jobs, len(tasks))
    if workers > 1:
        import multiprocessing as mp

        with mp.Pool(workers) as pool:
            flat = pool.map(_run_one, tasks)
    else:
        flat = [_run_one(t) for t in tasks]
    values = [[m for m, _ in flat[i * len(seeds) : (i + 1) * len(seeds)]] for i in range(len(specs))]
    rows = []
    for i, (spec, d) in enumerate(zip(specs, datas)):
        vals = values[i]
        sig = None
        if spec.use_clatt:
            base_idx = [j for j, s in enumerate(specs) if (s.conv_type, s.pe) == (spec.conv_type, spec.pe) and not s.use_clatt]
            if base_idx:
                sig, _ = welch_test(vals, values[base_idx[0]])
        first_params = flat[i * len(seeds)][1]
        metric = metric_name_for(d.task)
        rows.append(ResultRow(spec.name, metric, float(np.mean(vals)), float(np.std(vals, ddof=1)), list(vals), sig, first_params))
    return rows


def format_value(mean: float, std: float) -> str:
    """Table layout: metric scaled to percent, two decimals."""
    return f"{100.0 * mean:.2f} ± {100.0 * std:.2f}"


def render_table(rows) -> str:
    width = max((len(r.model) for r in rows), default=5) + 2
    lines = [f"{'model':<{width}}{'metric':<20}result"]
    for r in rows:
        cell = format_value(r.mean, r.std)
        if r.significant:
            cell += " *"
        lines.append(f"{r.model:<{width}}{r.metric:<20}{cell}")
    return "\n".join(lines)


def resmlp_representations(
    data: TrainData,
    split: Split,
    seed: int = 0,
    hidden: int = 64,
    layers: int = 2,
    steps: int = 300,
    lr: float = 3e-4,
    eval_every: int = 10,
) -> np.ndarray:
    """Final-norm activations of a graph-agnostic residual MLP (conv type
    ``MLP``).

    The auxiliary model sees only node features and the task labels on
    the training subset; the best-validation checkpoint provides the
    representations that k-means later clusters. It trains through
    ``_fit`` and ``nn.hidden_and_logits``, not ``train`` and
    ``nn.model_forward``, and builds its inputs without
    ``nn.prepare_inputs``, which an MLP does not need; so the perfbench
    tracer's counts and timings of those names cover only the configured
    models, and this model's time stays in its own span.
    """
    data.validate()
    spec = nn.ModelSpec("MLP", layers=layers, hidden=hidden, lr=lr)
    params = nn.init_params(spec, data.features.shape[1], _out_dim(data), seed=seed)
    inp = nn.ModelInputs(x=data.features.astype(np.float64), n=data.g.n)
    _fit(params, lambda training: nn.hidden_and_logits(spec, params, inp)[1], data, split, lr, steps, eval_every)
    with T.no_grad():
        return nn.hidden_and_logits(spec, params, inp)[0].data
