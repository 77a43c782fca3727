"""Attention-distance profiles, quantile summaries, and CSV exports.

Full attention matrices are materialized only here, never during
training. Distances are exact BFS hop counts in the underlying graph, kept
as arrays: one ``ProfileRecord`` per captured attention record.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import stats
from .errors import InputError
from .similarity import similarity_matrix
from .stats import bfs_distances
from .training import predict

__all__ = [
    "AttentionEntry",
    "AttentionProfile",
    "ProfileRecord",
    "attention_distance_profile",
    "profile_model",
    "quantiles",
    "quantile_table",
    "export_profile",
    "export_histogram",
    "export_similarity_matrix",
]

DEFAULT_QS = (0.05, 0.25, 0.50, 0.75, 0.95)


class AttentionEntry(NamedTuple):
    node: int
    layer: int
    head: int
    kind: str  # "cluster" | "local" | "global"
    clustering_tag: str | None
    avg_distance: float


class ProfileRecord(NamedTuple):
    """One attention record's live (row, query) pairs, in (row, query) order."""

    layer: int
    kind: str
    clustering_tag: str | None
    nodes: np.ndarray  # (pairs,): each pair's attending node
    avg: np.ndarray  # (pairs, heads): its average hop distances, float64


@dataclass
class AttentionProfile:
    """Per (node, layer, head) attention-weighted average hop distances: one
    ``ProfileRecord`` per attention record, in capture order.

    ``unreachable_pairs`` counts attended targets that were dropped (and
    their mass renormalized away) because no path connects them to the
    attending node; it stays 0 on connected graphs.
    """

    records: list
    unreachable_pairs: int = 0

    @property
    def entries(self) -> list:
        """A derived view: one ``AttentionEntry`` per (record, row, query, head)."""
        return [AttentionEntry(i, r.layer, h, r.kind, r.clustering_tag, a) for r in self.records
                for i, row in zip(r.nodes.tolist(), r.avg.tolist()) for h, a in enumerate(row)]

    def distances(self, kind: str | None = None, clustering_tag: str | None = None) -> np.ndarray:
        picked = [r.avg.ravel() for r in self.records if (kind is None or r.kind == kind)
                  and (clustering_tag is None or r.clustering_tag == clustering_tag)]
        return np.concatenate([np.zeros(0)] + picked)


KINDS = ("cluster", "local", "global")
# (query, head, target) probabilities reduced at once: the reduction holds
# two float64 copies of a chunk, about 4 MB, whatever the record size.
CHUNK_ELEMENTS = 1 << 18


def _average_distances(hops, rec, rows, queries):
    """Attention-weighted average hop distance of each (row, query) pair of
    rec and each head, given ``hops`` (pairs, S), the hop counts from each
    pair's query node to each of its row's keys as ``bfs_distances`` gives
    them (the dtype's maximum where unreachable); plus the number of attended
    targets dropped because they are unreachable from the query node."""
    mask = rec["mask"][rows]
    p = rec["probs"][rows, :, queries, :]  # (pairs, heads, S): a copy
    reachable = hops != np.iinfo(hops.dtype).max
    dropped = int(np.count_nonzero((mask & ~reachable)[:, None, :] & (p > 0)))
    p *= (mask & reachable)[:, None, :]  # masked and unreachable keys weigh nothing
    return (p * hops[:, None, :]).sum(axis=-1) / p.sum(axis=-1), dropped


def attention_distance_profile(records, g) -> AttentionProfile:
    """Reduce captured attention records to per-node average distances.

    ``records`` is the capture list produced by the forward pass: one
    record per attention site and size class, holding the probabilities
    ``probs`` (rows, heads, Sq, S), the query nodes ``nodes`` (rows, Sq;
    -1 marks a padded query) and the key table ``index_table`` with its
    validity mask ``mask`` (rows, S). Every record kind reduces the same
    way. Padding slots carry no mass and are excluded outright; nodes not
    assigned to any cluster yield no cluster entries. The profile holds one
    ``ProfileRecord`` per record, its pairs in (row, query) order.

    Distances come from one multi-source BFS per block of attending nodes,
    shared by every record; a block's hop counts fill at most
    8 * ``stats.BLOCK_DISTANCES`` bytes.
    """
    for rec in records:
        if rec["kind"] not in KINDS:
            raise ValueError(f"unknown attention record kind {rec['kind']!r}")
    live = []  # per record: rows and queries of the live pairs, their nodes
    for rec in records:
        rows, queries = np.nonzero(rec["nodes"] >= 0)
        live.append((rows, queries, rec["nodes"][rows, queries]))
    attending = np.unique(np.concatenate([np.zeros(0, np.int64)] + [nodes for _, _, nodes in live]))
    step = stats.block_sources(g.n)
    slots = [np.searchsorted(attending, nodes) for _, _, nodes in live]  # each pair's node's index in attending
    avgs = [np.empty((rows.size, rec["probs"].shape[1])) for rec, (rows, _, _) in zip(records, live)]
    unreachable = 0
    for lo in range(0, attending.size, step):
        hops = bfs_distances(g, attending[lo : lo + step])
        for rec, (rows, queries, _), slot, avg in zip(records, live, slots, avgs):
            _, heads, _, width = rec["probs"].shape
            chunk = max(1, CHUNK_ELEMENTS // (heads * width))
            in_block = np.flatnonzero((slot >= lo) & (slot < lo + step))
            for c in range(0, in_block.size, chunk):
                sel = in_block[c : c + chunk]
                pos = slot[sel] - lo
                avg[sel], dropped = _average_distances(
                    hops[pos[:, None], rec["index_table"][rows[sel]]], rec, rows[sel], queries[sel]
                )
                unreachable += dropped
        del hops  # not held while the next block is computed
    kept = [ProfileRecord(r["layer"], r["kind"], r["clustering"], nodes, avg) for r, (_, _, nodes), avg in zip(records, live, avgs)]
    return AttentionProfile(kept, unreachable)


def profile_model(spec, params_np, data) -> AttentionProfile:
    """Run one forward pass with attention capture and profile it."""
    capture = []
    predict(spec, params_np, data, capture=capture)
    return attention_distance_profile(capture, data.g)


def quantiles(values, qs=DEFAULT_QS) -> list[float]:
    """Linear-interpolation quantiles of the (unsorted) values."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise InputError("quantiles of an empty value list")
    return np.quantile(values, qs).tolist()


def quantile_table(profile: AttentionProfile, qs=DEFAULT_QS) -> str:
    """One row per attention kind (cluster kinds split by clustering)."""
    groups = list(dict.fromkeys((r.kind, r.clustering_tag) for r in profile.records if r.nodes.size))
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
    """The rows ``csv.writer`` writes, one per entry, formatted a pair at a
    time through a template of one row per head that holds the record's
    layer, kind and tag, with ``{0}`` for the node and ``{h+1}`` for head h."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["node", "layer", "head", "kind", "clustering", "avg_distance"])
        for r in profile.records:
            layer, kind, tag = (str(f).replace("{", "{{").replace("}", "}}") for f in (r.layer, r.kind, r.clustering_tag or ""))
            rows = (["{0}", layer, h, kind, tag, "{%d:.10g}" % (h + 1)] for h in range(r.avg.shape[1]))
            csv.writer(template := io.StringIO()).writerows(rows)  # csv's quoting and line ends
            fh.write("".join(map(template.getvalue().format, r.nodes.tolist(), *r.avg.T.tolist())))


def export_histogram(values, bins, path) -> None:
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise InputError("histogram of an empty value list")
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
