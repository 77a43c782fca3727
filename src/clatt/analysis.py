"""Attention-distance profiles, quantile summaries, and CSV exports.

Full attention matrices are materialized only here, never during
training. Distances are exact BFS hop counts in the underlying graph.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .similarity import similarity_matrix
from .stats import bfs_distances
from .training import predict

__all__ = [
    "AttentionEntry",
    "AttentionProfile",
    "attention_distance_profile",
    "profile_model",
    "quantiles",
    "quantile_table",
    "export_profile",
    "export_histogram",
    "export_similarity_matrix",
]

DEFAULT_QS = (0.05, 0.25, 0.50, 0.75, 0.95)


@dataclass(frozen=True)
class AttentionEntry:
    node: int
    layer: int
    head: int
    kind: str  # "cluster" | "local" | "global"
    clustering_tag: str | None
    avg_distance: float


@dataclass
class AttentionProfile:
    """Per (node, layer, head) attention-weighted average hop distances.

    ``unreachable_pairs`` counts attended targets that were dropped (and
    their mass renormalized away) because no path connects them to the
    attending node; it stays 0 on connected graphs.
    """

    entries: list
    unreachable_pairs: int = 0

    def distances(self, kind: str | None = None, clustering_tag: str | None = None) -> np.ndarray:
        vals = [
            e.avg_distance
            for e in self.entries
            if (kind is None or e.kind == kind)
            and (clustering_tag is None or e.clustering_tag == clustering_tag)
        ]
        return np.asarray(vals, dtype=np.float64)


class _DistCache:
    def __init__(self, g):
        self.g = g
        self.rows: dict[int, np.ndarray] = {}

    def __getitem__(self, node: int) -> np.ndarray:
        row = self.rows.get(node)
        if row is None:
            row = self.rows[node] = bfs_distances(self.g, int(node))
        return row


def _entry_values(dist_row, targets, probs):
    """Weighted average distance; drops unreachable targets.

    Returns (avg, dropped) where dropped counts targets excluded with
    nonzero attention mass. The attending node itself is always a
    target, so the renormalizer never vanishes.
    """
    d = dist_row[targets]
    finite = np.isfinite(d)
    dropped = int(np.count_nonzero(~finite & (probs > 0)))
    mass = float(probs[finite].sum())
    avg = float((probs[finite] * d[finite]).sum() / mass)
    return avg, dropped


def attention_distance_profile(records, g) -> AttentionProfile:
    """Reduce captured attention records to per-node average distances.

    ``records`` is the capture list produced by the forward pass: one
    record per attention site (per size class for cluster and local
    attention) holding the probability tensor plus, for cluster and local
    attention, the slot table and validity mask. Local records name the
    attending node of each row in ``nodes``. Padding slots carry no mass and are excluded outright; nodes not
    assigned to any cluster yield no cluster entries.
    """
    dmat = _DistCache(g)
    entries = []
    unreachable = 0
    for rec in records:
        kind = rec["kind"]
        layer = rec["layer"]
        tag = rec.get("clustering")
        probs = rec["probs"]
        if kind == "cluster":
            table, mask = rec["index_table"], rec["mask"]
            heads = probs.shape[1]
            for r in range(table.shape[0]):
                slots = np.nonzero(mask[r])[0]
                nodes = table[r, slots]
                for q, i in enumerate(nodes):
                    drow = dmat[i]
                    for h in range(heads):
                        avg, dropped = _entry_values(drow, nodes, probs[r, h, slots[q], slots])
                        unreachable += dropped
                        entries.append(AttentionEntry(int(i), layer, h, "cluster", tag, avg))
        elif kind == "local":
            table, mask = rec["index_table"], rec["mask"]
            heads = probs.shape[1]
            for r, i in enumerate(rec["nodes"]):
                i = int(i)
                valid = mask[r]
                nodes = table[r, valid]
                drow = dmat[i]
                for h in range(heads):
                    avg, dropped = _entry_values(drow, nodes, probs[r, h, valid])
                    unreachable += dropped
                    entries.append(AttentionEntry(i, layer, h, "local", None, avg))
        elif kind == "global":
            heads, n = probs.shape[0], probs.shape[1]
            all_nodes = np.arange(n)
            for i in range(n):
                drow = dmat[i]
                for h in range(heads):
                    avg, dropped = _entry_values(drow, all_nodes, probs[h, i])
                    unreachable += dropped
                    entries.append(AttentionEntry(i, layer, h, "global", None, avg))
        else:
            raise ValueError(f"unknown attention record kind {kind!r}")
    return AttentionProfile(entries, unreachable)


def profile_model(spec, params_np, data) -> AttentionProfile:
    """Run one forward pass with attention capture and profile it."""
    capture = []
    predict(spec, params_np, data, capture=capture)
    return attention_distance_profile(capture, data.g)


def quantiles(values, qs=DEFAULT_QS) -> list[float]:
    """Linear-interpolation quantiles of the (unsorted) values."""
    values = np.asarray(list(values), dtype=np.float64)
    if values.size == 0:
        raise ValueError("quantiles of an empty value list")
    return [float(np.quantile(values, q)) for q in qs]


def quantile_table(profile: AttentionProfile, qs=DEFAULT_QS) -> str:
    """One row per attention kind (cluster kinds split by clustering)."""
    groups = []
    seen = set()
    for e in profile.entries:
        key = (e.kind, e.clustering_tag)
        if key not in seen:
            seen.add(key)
            groups.append(key)
    width = max([len(_group_name(k, t)) for k, t in groups] + [9]) + 2
    header = f"{'attention':<{width}}" + "".join(f"q{q:<7g}" for q in qs)
    lines = [header]
    for kind, tag in groups:
        vals = quantiles(profile.distances(kind, tag), qs)
        lines.append(f"{_group_name(kind, tag):<{width}}" + "".join(f"{v:<8.2f}" for v in vals))
    return "\n".join(lines)


def _group_name(kind: str, tag: str | None) -> str:
    return f"{kind}[{tag}]" if tag else kind


def export_profile(profile: AttentionProfile, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["node", "layer", "head", "kind", "clustering", "avg_distance"])
        for e in profile.entries:
            w.writerow([e.node, e.layer, e.head, e.kind, e.clustering_tag or "", f"{e.avg_distance:.10g}"])


def export_histogram(values, bins, path) -> None:
    values = np.asarray(list(values), dtype=np.float64)
    if values.size == 0:
        raise ValueError("histogram of an empty value list")
    counts, edges = np.histogram(values, bins=bins)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_left", "bin_right", "count"])
        for i, c in enumerate(counts):
            w.writerow([f"{edges[i]:.10g}", f"{edges[i + 1]:.10g}", int(c)])


def export_similarity_matrix(clusterings, path) -> None:
    """CC matrix CSV; degenerate pairs become ``null: <reason>`` cells."""
    if len(clusterings) < 2:
        raise ValueError("similarity matrix needs at least 2 clusterings")
    mat, reasons = similarity_matrix(list(clusterings))
    tags = [getattr(c, "algorithm_tag", None) or f"c{i}" for i, c in enumerate(clusterings)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tag"] + tags)
        for i, tag in enumerate(tags):
            row = [tag]
            for j in range(len(tags)):
                if np.isnan(mat[i, j]):
                    reason = reasons.get((i, j)) or reasons.get((j, i)) or "degenerate"
                    row.append(f"null: {reason}")
                else:
                    row.append(f"{mat[i, j]:.6f}")
            w.writerow(row)
