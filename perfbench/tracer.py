"""Spans around clatt's public functions, recorded from outside the package.

The tracer replaces a function at the module attribute its caller looks up
(``clatt.cli.leiden_cpm`` for ``clatt train``, ``clatt.tensor.backward`` for
the training loop's ``T.backward``) for the rest of the process. Spans are
kept in memory as ``[name, start, end, parent]`` and turned into per-layer
metrics when the repetition ends; the layer of a span is the part of its
name before the first dot.
"""

from __future__ import annotations

import functools
import gc
import os
import statistics
import time
from contextlib import contextmanager

import clatt.analysis
import clatt.blockmodel
import clatt.cli
import clatt.graphs
import clatt.kmeans
import clatt.leiden
import clatt.nn
import clatt.partition
import clatt.pe
import clatt.tensor
import clatt.training

NAME, START, END, PARENT = range(4)
LAYERS = (
    "command", "graphs", "leiden", "blockmodel", "kmeans", "pe", "partition",
    "nn", "tensor", "training", "checkpoint", "analysis", "stats",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, list] = {}
        self._stack: list[int] = []
        self._gc_gen2 = gc.get_stats()[2]["collections"]

    @contextmanager
    def span(self, name: str):
        """Record [name, start, end, parent] around the body; yields its index."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self.spans[idx][END] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value) -> None:
        self.counters.setdefault(name, []).append(value)

    def wrap(self, module, attr: str, name: str, observe=None) -> None:
        """Record a span around every call of ``module.attr``.

        ``observe(tracer, span_index, args, result)`` runs after the call,
        outside the span, to record counters from the call's result.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as idx:
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, idx, args, result)
            return result

        setattr(module, attr, traced)

    def first_start(self, name: str) -> float | None:
        return next((s[START] for s in self.spans if s[NAME] == name), None)

    def gc_gen2(self) -> int:
        """Full collections since the tracer was created."""
        return gc.get_stats()[2]["collections"] - self._gc_gen2


# ------------------------------------------------------------------ observers


def _in_train(tracer: Tracer, idx: int) -> bool:
    """True when the span runs inside a ``training.train`` span."""
    parent = tracer.spans[idx][PARENT]
    while parent >= 0:
        if tracer.spans[parent][NAME] == "training.train":
            return True
        parent = tracer.spans[parent][PARENT]
    return False


def _forward(tracer, idx, args, result):
    if not clatt.tensor._GRAD_ENABLED:
        tracer.spans[idx][NAME] = "nn.eval_forward"


def _backward(tracer, idx, args, result):
    if not _in_train(tracer, idx):
        return
    nodes = args[0]._tape.nodes
    logits = sum(n.data.size for n in nodes if n._backward.__qualname__.startswith("masked_softmax."))
    tracer.count("tape_nodes", len(nodes))
    tracer.count("tape_bytes", sum(n.data.nbytes for n in nodes))
    tracer.count("attention_logits", logits)


def _cluster_batch(tracer, idx, args, result):
    rows, width = result.mask.shape
    sizes = result.mask.sum(axis=1)
    tracer.count("cluster_slots", (int(sizes.sum()), rows * width))
    tracer.count("cluster_logits", (int((sizes**2).sum()), rows * width * width))


def _nbr_table(tracer, idx, args, result):
    mask = result[1]
    tracer.count("nbr_slots", (int(mask.sum()), mask.size))


def _filter(tracer, idx, args, result):
    tracer.count("unassigned", (int(result.unassigned.size), int(result.n)))


def _leiden(tracer, idx, args, result):
    tracer.count("leiden_passes", len(result.params["pass_qualities"]))


def _h1(tracer, idx, args, result):
    tracer.count("h1_levels", len(result.params["levels"]))


def _kmeans(tracer, idx, args, result):
    tracer.count("kmeans_iters", len(result[0].params["inertia_history"]))


def _checkpoint(tracer, idx, args, result):
    tracer.count("checkpoint_bytes", os.path.getsize(args[0]))


def _profile(tracer, idx, args, result):
    tracer.count("profile_entries", len(result.entries))


def install_boundary(tracer: Tracer) -> None:
    """The one wrapper an untraced repetition needs: where training starts."""
    tracer.wrap(clatt.training, "run_experiment", "training.run_experiment")


def install_all(tracer: Tracer) -> None:
    """Wrap every public function the workloads reach, where it is looked up."""
    install_boundary(tracer)
    # (modules whose attribute callers use, attribute, span name, observer)
    targets = [
        ((clatt.cli, clatt.graphs), "load_edge_list", "graphs.load_edge_list", None),
        ((clatt.cli, clatt.graphs), "load_node_table", "graphs.load_node_table", None),
        ((clatt.cli, clatt.leiden), "leiden_cpm", "leiden.leiden_cpm", _leiden),
        ((clatt.cli, clatt.blockmodel), "planted_partition_fit", "blockmodel.planted_partition_fit", None),
        ((clatt.cli, clatt.blockmodel), "hierarchical_fit", "blockmodel.hierarchical_fit", _h1),
        ((clatt.cli, clatt.kmeans), "kmeans", "kmeans.kmeans", _kmeans),
        ((clatt.cli, clatt.pe), "laplacian_pe", "pe.laplacian_pe", None),
        ((clatt.cli, clatt.pe), "deepwalk_pe", "pe.deepwalk_pe", None),
        ((clatt.cli, clatt.partition), "filter_clusters", "partition.filter_clusters", _filter),
        ((clatt.cli,), "save_checkpoint", "checkpoint.save_checkpoint", _checkpoint),
        ((clatt.cli, clatt.analysis), "profile_model", "analysis.profile_model", _profile),
        ((clatt.analysis,), "predict", "analysis.predict", None),
        ((clatt.analysis,), "bfs_distances", "stats.bfs_distances", None),
        ((clatt.training,), "train", "training.train", None),
        ((clatt.training,), "resmlp_representations", "training.resmlp_representations", None),
        ((clatt.nn,), "prepare_inputs", "nn.prepare_inputs", None),
        ((clatt.nn,), "build_cluster_batch", "nn.build_cluster_batch", _cluster_batch),
        ((clatt.nn,), "neighborhood_table", "nn.neighborhood_table", _nbr_table),
        ((clatt.nn,), "model_forward", "nn.forward", _forward),
        ((clatt.nn,), "clatt_forward", "nn.clatt_forward", None),
        ((clatt.nn,), "local_attention_conv", "nn.local_attention_conv", None),
        ((clatt.nn,), "gcn_conv", "nn.gcn_conv", None),
        ((clatt.tensor,), "backward", "tensor.backward", _backward),
        ((clatt.tensor,), "adam_step", "tensor.adam_step", None),
        ((clatt.tensor,), "zero_grad", "tensor.zero_grad", None),
        ((clatt.tensor,), "masked_softmax", "tensor.masked_softmax", None),
    ]
    for modules, attr, name, observe in targets:
        for module in modules:
            tracer.wrap(module, attr, name, observe)


# ------------------------------------------------------------------- metrics


def _pct(values, q: float) -> float:
    """Linear-interpolation percentile; 0.0 when the layer was not called."""
    if not values:
        return 0.0
    values = sorted(values)
    pos = (len(values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def _ratio(pairs) -> float:
    den = sum(d for _, d in pairs)
    return sum(n for n, _ in pairs) / den if den else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def self_times(spans) -> dict[str, float]:
    """Seconds per layer spent in its own spans, not in the spans they caused."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    out = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, own):
        layer = s[NAME].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + t
    return out


def layer_metrics(tracer: Tracer, configured_steps: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (names as in BENCHMARK.json)."""
    spans = tracer.spans
    dur: dict[str, list] = {}
    for s in spans:
        dur.setdefault(s[NAME], []).append(s[END] - s[START])

    def total(*names):
        return sum(sum(dur.get(n, ())) for n in names)

    def ms(name):
        return [1e3 * d for d in dur.get(name, ())]

    # an optimizer step runs from zero_grad to the end of adam_step, inside train()
    steps, pending = [], {}
    for i, s in enumerate(spans):
        if not _in_train(tracer, i):
            continue
        if s[NAME] == "tensor.zero_grad":
            pending[s[PARENT]] = s[START]
        elif s[NAME] == "tensor.adam_step" and s[PARENT] in pending:
            steps.append(1e3 * (s[END] - pending.pop(s[PARENT])))
    c = tracer.counters
    m = {
        "graphs.load_s": total("graphs.load_edge_list", "graphs.load_node_table"),
        "leiden.cpm_s": total("leiden.leiden_cpm"),
        "leiden.passes": sum(c.get("leiden_passes", ())),
        "blockmodel.bpp_s": total("blockmodel.planted_partition_fit"),
        "blockmodel.h1_s": total("blockmodel.hierarchical_fit"),
        "blockmodel.h1_levels": sum(c.get("h1_levels", ())),
        "kmeans.lloyd_s": total("kmeans.kmeans"),
        "kmeans.iters": sum(c.get("kmeans_iters", ())),
        "pe.laplacian_s": total("pe.laplacian_pe"),
        "pe.deepwalk_s": total("pe.deepwalk_pe"),
        "partition.unassigned_frac": _ratio(c.get("unassigned", ())),
        "nn.prepare_inputs_s": total("nn.prepare_inputs"),
        "nn.prepare_inputs_calls": len(dur.get("nn.prepare_inputs", ())),
        "nn.cluster_slot_fill": _ratio(c.get("cluster_slots", ())),
        "nn.cluster_useful_logits": _ratio(c.get("cluster_logits", ())),
        "nn.nbr_slot_fill": _ratio(c.get("nbr_slots", ())),
        "nn.attention_logits_per_step": _mean(c.get("attention_logits", ())),
        "nn.forward_ms.p50": _pct(ms("nn.forward"), 0.5),
        "nn.forward_ms.p90": _pct(ms("nn.forward"), 0.9),
        "nn.eval_forward_ms.p50": _pct(ms("nn.eval_forward"), 0.5),
        "nn.clatt_forward_ms.p50": _pct(ms("nn.clatt_forward"), 0.5),
        "nn.local_attention_ms.p50": _pct(ms("nn.local_attention_conv"), 0.5),
        "nn.gcn_conv_ms.p50": _pct(ms("nn.gcn_conv"), 0.5),
        "tensor.backward_ms.p50": _pct(ms("tensor.backward"), 0.5),
        "tensor.backward_ms.p90": _pct(ms("tensor.backward"), 0.9),
        "tensor.adam_ms.p50": _pct(ms("tensor.adam_step"), 0.5),
        "tensor.masked_softmax_ms.p50": _pct(ms("tensor.masked_softmax"), 0.5),
        "tensor.tape_nodes": _mean(c.get("tape_nodes", ())),
        "tensor.tape_mb": _mean(c.get("tape_bytes", ())) / 2**20,
        "tensor.gc_gen2": tracer.gc_gen2(),
        "training.step_ms.p50": _pct(steps, 0.5),
        "training.step_ms.p90": _pct(steps, 0.9),
        "training.train_calls": len(dur.get("training.train", ())),
        "training.useful_step_frac": configured_steps / len(steps) if steps else 0.0,
        "training.resmlp_s": total("training.resmlp_representations"),
        "checkpoint.save_s": total("checkpoint.save_checkpoint"),
        "checkpoint.mb": sum(c.get("checkpoint_bytes", ())) / 2**20,
        "analysis.predict_s": total("analysis.predict"),
        "analysis.profile_s": total("analysis.profile_model"),
        "analysis.entries": sum(c.get("profile_entries", ())),
        "stats.bfs_calls": len(dur.get("stats.bfs_distances", ())),
        "stats.bfs_s": total("stats.bfs_distances"),
    }
    for layer, t in self_times(spans).items():
        m[f"{layer}.self_s"] = t
    return m
