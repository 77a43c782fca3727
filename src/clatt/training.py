"""Splits, metrics, the full-batch training loop, grid search, clustering
selection and multi-seed experiment aggregation."""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import stdtr

from . import nn
from . import tensor as T
from .errors import InputError, check_count
from .graphs import FEATURE_TRANSFORMS, TASKS, transform_features

__all__ = [
    "GRID_LRS",
    "GRID_DROPOUTS",
    "CANONICAL_TAGS",
    "Split",
    "check_ratios",
    "make_split",
    "accuracy",
    "average_precision",
    "r_squared",
    "TrainData",
    "TrainResult",
    "TrainingDiverged",
    "train",
    "train_runs",
    "keep_freed_memory",
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
    """Disjoint train, validation and test node ids, checked when made."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    ratios: tuple
    seed: int
    stratified: bool

    def __post_init__(self):
        combined = np.concatenate([self.train, self.val, self.test])
        if np.unique(combined).size != combined.size:
            raise ValueError("split subsets overlap")

    def check_nonempty(self) -> None:
        """Training, model selection and testing each need at least one node."""
        for name in ("train", "val", "test"):
            if getattr(self, name).size == 0:
                raise InputError(f"split ratios {self.ratios} leave the {name} subset empty")


def check_ratios(ratios) -> tuple:
    """Split ratios as a tuple of floats when they are 3 finite,
    non-negative values that sum to 1; an InputError otherwise."""
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or not all(math.isfinite(r) and r >= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise InputError(f"ratios must be 3 finite, non-negative values summing to 1, got {ratios}")
    return ratios


def make_split(labels, ratios=(0.1, 0.1, 0.8), seed: int = 0, stratified: bool = True) -> Split:
    """Shuffle-then-slice split, per class when stratified; an unstratified
    split is the split of one class that holds every node.

    Per-class rounding carries its residue into the next class so the
    overall subset sizes track n*ratios, while each class stays within
    one node of its own proportional target.
    """
    labels = np.asarray(labels)
    ratios = check_ratios(ratios)
    if not stratified:
        labels = np.zeros(labels.shape[0], dtype=np.int8)
    rng = np.random.default_rng(seed)
    parts: list[list[np.ndarray]] = [[], [], []]
    carry = np.zeros(3)
    for cls in np.unique(labels):
        idx = np.nonzero(labels == cls)[0]
        if idx.size < 3:
            what = f"class {cls!r}" if stratified else "the split"
            raise InputError(f"{what} has {idx.size} nodes, fewer than the 3 subsets")
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
    train, val, test = (np.sort(np.concatenate(p)) if p else np.empty(0, dtype=np.int64) for p in parts)
    return Split(train, val, test, ratios, seed, stratified)


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
    """One dataset: graph, features, targets, plus model-side extras;
    checked when it is made."""

    g: object
    features: np.ndarray
    targets: np.ndarray
    task: str
    num_classes: int | None = None
    clusterings: dict = field(default_factory=dict)
    pe: np.ndarray | None = None

    def __post_init__(self):
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


def _task_targets(data: TrainData, split: Split):
    """The targets the training loss compares logits with, row-aligned with
    ``data``, and the (shift, scale) that maps a regression head back to
    target units (None for the other tasks): regression targets are
    standardized on the training subset."""
    if data.task == "multiclass":
        return data.targets, None
    if data.task == "binary":
        return data.targets.astype(np.float64), None
    t_train = data.targets[split.train].astype(np.float64)
    shift = float(t_train.mean())
    scale = max(float(t_train.std()), 1e-12)
    return (data.targets - shift) / scale, (shift, scale)


def _task_loss(logits: T.Tensor, task: str, targets: np.ndarray, idx) -> T.Tensor:
    """Mean training loss over the rows ``idx`` of ``logits``; ``targets``
    is row-aligned with ``logits``, as ``_task_targets`` gives it."""
    if task == "multiclass":
        return T.softmax_cross_entropy(logits, targets, idx)
    flat = T.reshape(logits, (logits.data.shape[0],))
    if task == "binary":
        return T.binary_cross_entropy_with_logits(flat, targets, idx)
    return T.mse(flat, targets, idx)


def _task_metric(logits: np.ndarray, task: str, targets, idx, target_scale=None) -> float:
    """The task's metric over the rows ``idx`` of ``logits`` against the
    row-aligned raw ``targets``."""
    if task == "multiclass":
        return accuracy(logits.argmax(axis=1), targets, idx)
    if task == "binary":
        return average_precision(logits[:, 0], targets, idx)
    pred = logits[:, 0]
    if target_scale is not None:
        shift, scale = target_scale
        pred = pred * scale + shift
    return r_squared(pred, targets, idx)


class TrainingDiverged(InputError):
    """The training loss became non-finite, e.g. under too large a learning rate."""


def _fit(params: dict, step_loss, evaluate, lr: float, steps: int, eval_every: int):
    """Full-batch Adam with best-validation checkpoint selection; the best
    parameters are restored in place.

    Each step runs ``step_loss()``, a training forward pass that returns
    the loss tensor, then backward and Adam. Every ``eval_every`` steps and
    after the last, ``evaluate()`` runs a no-grad pass and returns
    (validation metric, outputs). The loop never sees which rows the two
    passes compute; the caller chooses: ``train`` runs both over the whole
    graph, ``resmlp_representations`` over the train and the validation
    rows only.

    Returns (best_step, best_val, best_snapshot, history, best_outputs),
    where best_outputs is what ``evaluate`` returned at the best eval, and
    None when no eval improved (``steps == 0`` or every val metric NaN).
    """
    steps = check_count("steps", steps, 0)
    eval_every = check_count("eval_every", eval_every, 1)
    plist = list(params.values())
    state = T.adam_init(plist)
    best_val = -math.inf
    best_step = 0
    best_snapshot = {k: v.data.copy() for k, v in params.items()}
    best_outputs = None
    history = []
    for step in range(1, steps + 1):
        T.zero_grad(plist)
        loss = step_loss()
        value = loss.item()
        if not math.isfinite(value):
            raise TrainingDiverged(f"training diverged at step {step} (loss {value})")
        T.backward(loss)
        T.adam_step(plist, state, lr=lr)
        if step % eval_every == 0 or step == steps:
            with T.no_grad():
                val, outputs = evaluate()
            history.append({"step": step, "train_loss": value, "val_metric": val})
            if val > best_val:
                best_val = val
                best_step = step
                best_snapshot = {k: v.data.copy() for k, v in params.items()}
                best_outputs = outputs

    for k, p in params.items():
        p.data[...] = best_snapshot[k]
    return best_step, best_val, best_snapshot, history, best_outputs


def train(
    spec: nn.ModelSpec,
    data: TrainData,
    split: Split,
    seed: int = 0,
    steps: int = 1000,
    eval_every: int = 10,
) -> TrainResult:
    """Full-batch Adam with best-validation-checkpoint selection.

    Every forward pass, for the loss and for each eval, runs over the whole
    graph, since a Mix step reads neighbours outside any subset. The test
    metric comes from the best eval's logits: the eval forward has no
    dropout, so they are what the restored parameters produce.
    Deterministic per (spec, data, split, seed). Raises TrainingDiverged on
    a non-finite loss, naming the step.
    """
    pe_dim = data.pe.shape[1] if data.pe is not None else None
    params = nn.init_params(spec, data.features.shape[1], _out_dim(data), seed=seed, pe_dim=pe_dim)
    inp = nn.prepare_inputs(data.g, data.features, spec, data.clusterings, data.pe)
    dropout_rng = np.random.default_rng([seed, 1])
    targets, target_scale = _task_targets(data, split)

    def step_loss() -> T.Tensor:
        logits = nn.model_forward(spec, params, inp, training=True, dropout_rng=dropout_rng)
        return _task_loss(logits, data.task, targets, split.train)

    def evaluate():
        logits = nn.model_forward(spec, params, inp).data
        return _task_metric(logits, data.task, data.targets, split.val, target_scale), logits

    best_step, best_val, best_snapshot, history, logits = _fit(params, step_loss, evaluate, spec.lr, steps, eval_every)
    if logits is None:  # no eval improved; score the restored parameters
        with T.no_grad():
            best_val, logits = evaluate()
    test_metric = _task_metric(logits, data.task, data.targets, split.test, target_scale)
    return TrainResult(spec, seed, best_snapshot, best_step, best_val, test_metric, history)


def _run_one(args):
    """Best validation and test metric of one (spec, seed) run, plus its
    best params if asked; the one caller of ``train`` in clatt."""
    spec, data, split, seed, steps, eval_every, keep_params = args
    result = train(spec, data, split, seed=seed, steps=steps, eval_every=eval_every)
    return result.best_val, result.test_metric, result.params if keep_params else None


# glibc's mallopt parameters (malloc.h) and the values keep_freed_memory
# sets. By default glibc maps an array over its mmap threshold (128 KiB at
# start) on its own and unmaps it when freed, and trims free memory off the
# heap top, so the next op faults the pages in again: a training step's
# (n, d) activations and (rows, heads, Sq, S) attention buffers, every step.
# With these values, the train phase of perfbench `skewed` (2 vCPU, BLAS at
# one thread) fell from 71k to 11k minor faults and from 0.10-0.15 s to
# 0.01-0.03 s of system time. 32 MiB is the largest mmap threshold glibc
# accepts on 64-bit; arrays above it are still mapped per use. M_TOP_PAD is
# left at its default: 64 MiB of it took the same train phase only from 11.1k
# to 10.6k faults, and no system time.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 512 << 20

malloc_setting = None
"""The thresholds ``keep_freed_memory`` applied in this process, or None."""


def keep_freed_memory() -> dict | None:
    """Make glibc keep freed arrays in the heap for the next op to reuse.

    Sets ``M_MMAP_THRESHOLD`` and ``M_TRIM_THRESHOLD`` through ``mallopt``
    and returns the thresholds applied, also kept in ``malloc_setting``.
    Without glibc's ``mallopt`` (musl, macOS, Windows) it changes nothing
    and returns None. ``clatt.cli.main`` and the ``train_runs`` pool
    workers call it; importing clatt does not.
    """
    global malloc_setting
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    wanted = {"M_MMAP_THRESHOLD": (M_MMAP_THRESHOLD, MMAP_THRESHOLD), "M_TRIM_THRESHOLD": (M_TRIM_THRESHOLD, TRIM_THRESHOLD)}
    applied = {name: value for name, (param, value) in wanted.items() if mallopt(param, value) == 1}
    malloc_setting = applied or None
    return malloc_setting


def train_runs(runs, jobs: int = 1) -> list:
    """``_run_one`` of each run, in input order: in a pool of
    ``min(jobs, len(runs))`` processes when that is above 1, else here.
    Each worker starts with ``keep_freed_memory``."""
    workers = min(jobs, len(runs))
    if workers <= 1:
        return [_run_one(run) for run in runs]
    import multiprocessing as mp

    with mp.Pool(workers, initializer=keep_freed_memory) as pool:
        return pool.map(_run_one, runs)


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
    jobs: int = 1,
):
    """Best (lr, dropout, feature transform) by validation metric, over
    trials that ``train_runs`` runs with ``jobs``.

    Ties go to the lower lr, then the lower dropout, then the earlier
    transform in the given list; the scan order itself cannot change
    the winner.
    """
    if not lrs or not dropouts or not transforms:
        raise ValueError("grid_search needs a non-empty grid")
    for t in transforms:
        if t not in FEATURE_TRANSFORMS:
            raise ValueError(f"unknown feature transform {t!r}")
    variants = [replace(data, features=transform_features(data.features, t)) for t in transforms]
    grid = [(t, lr, dropout) for t in range(len(transforms)) for lr in lrs for dropout in dropouts]
    runs = [(replace(template, lr=lr, dropout=dropout), variants[t], split, seed, steps, eval_every, False) for t, lr, dropout in grid]
    trials = [{"lr": lr, "dropout": dropout, "transform": transforms[t], "val_metric": val, "t_idx": t}
              for (t, lr, dropout), (val, _, _) in zip(grid, train_runs(runs, jobs))]
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
    candidate, all in this process; candidates with strictly better
    validation metric are returned in canonical order. Empty result means
    CLATT stays off.
    """
    missing = [t for t in candidates if t not in data.clusterings]
    if missing:
        raise ValueError(f"candidate clusterings not precomputed: {missing}")
    specs = [replace(base_spec, use_clatt=bool(c), clusterings=c) for c in [()] + [(tag,) for tag in candidates]]
    vals = [val for val, _, _ in train_runs([(spec, data, split, seed, steps, eval_every, False) for spec in specs])]
    details = {"baseline": vals[0], **dict(zip(candidates, vals[1:]))}
    return tuple(tag for tag in candidates if details[tag] > vals[0]), details


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
    p = 2.0 * float(stdtr(df, -abs(t)))
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
    runs = [(spec, d, split, seed, steps, eval_every, j == 0) for spec, d in zip(specs, datas) for j, seed in enumerate(seeds)]
    flat = train_runs(runs, jobs)
    values = [[m for _, m, _ in flat[i * len(seeds) : (i + 1) * len(seeds)]] for i in range(len(specs))]
    rows = []
    for i, (spec, d, vals) in enumerate(zip(specs, datas, values)):
        sig = None
        if spec.use_clatt:
            base_idx = [j for j, s in enumerate(specs) if (s.conv_type, s.pe) == (spec.conv_type, spec.pe) and not s.use_clatt]
            if base_idx:
                sig, _ = welch_test(vals, values[base_idx[0]])
        first_params = flat[i * len(seeds)][2]
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
    representations that k-means later clusters. An MLP layer has no Mix
    step, so every op is row-wise and a pass over some rows computes those
    rows of a pass over all of them: each training step runs over the
    ``split.train`` rows only (the rows its loss reads), each eval over the
    ``split.val`` rows only (the rows selection reads), and one final
    no-grad pass over every row gives the representations. They equal
    those of all-row training up to rounding, as the gradient sums over
    fewer rows group their terms differently.

    It trains through ``_fit`` and ``nn.hidden_and_logits``, not ``train``
    and ``nn.model_forward``, and builds its inputs without
    ``nn.prepare_inputs``, which an MLP does not need; so the perfbench
    tracer's counts and timings of those names cover only the configured
    models, and this model's time stays in its own span.
    """
    spec = nn.ModelSpec("MLP", layers=layers, hidden=hidden, lr=lr)
    params = nn.init_params(spec, data.features.shape[1], _out_dim(data), seed=seed)
    targets, target_scale = _task_targets(data, split)
    x = data.features.astype(np.float64)

    def pass_over(rows, t):
        """The inputs of a pass over ``rows``, their targets, and every row index of that pass."""
        return nn.ModelInputs(x=x[rows]), t[rows], np.arange(rows.size)

    train_in, train_t, train_rows = pass_over(split.train, targets)
    val_in, val_t, val_rows = pass_over(split.val, data.targets)

    def step_loss() -> T.Tensor:
        return _task_loss(nn.hidden_and_logits(spec, params, train_in)[1], data.task, train_t, train_rows)

    def evaluate():
        logits = nn.hidden_and_logits(spec, params, val_in)[1].data
        return _task_metric(logits, data.task, val_t, val_rows, target_scale), None

    _fit(params, step_loss, evaluate, lr, steps, eval_every)
    with T.no_grad():
        return nn.hidden_and_logits(spec, params, nn.ModelInputs(x=x))[0].data
