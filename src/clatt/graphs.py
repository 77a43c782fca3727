"""Immutable CSR graphs, the weighted graph clusterers coarsen, edge-list
ingestion and node feature tables."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.special import ndtri

from .errors import InputError, read_text


class GraphFormatError(InputError):
    """Malformed graph or node-table input."""


FEATURE_TRANSFORMS = ("none", "standard", "quantile_normal")
TASKS = ("multiclass", "binary", "regression")


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph in CSR form.

    ``offsets`` has length n+1 and ``neighbors[offsets[i]:offsets[i+1]]``
    holds the sorted neighbor ids of node i. Self loops and parallel edges
    are removed at construction. ``node_ids`` keeps the original labels in
    compaction order so external tables can be aligned.
    """

    n: int
    offsets: np.ndarray
    neighbors: np.ndarray
    node_ids: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.node_ids is None:
            object.__setattr__(self, "node_ids", np.arange(self.n, dtype=np.int64))
        self.offsets.setflags(write=False)
        self.neighbors.setflags(write=False)

    @property
    def m(self) -> int:
        return self.neighbors.shape[0] // 2

    @property
    def degrees(self) -> np.ndarray:
        return self.offsets[1:] - self.offsets[:-1]

    def neighbors_of(self, i: int) -> np.ndarray:
        return self.neighbors[self.offsets[i] : self.offsets[i + 1]]

    def edge_array(self) -> np.ndarray:
        """All undirected edges as an (m, 2) array with u < v."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        keep = src < self.neighbors
        return np.stack([src[keep], self.neighbors[keep]], axis=1)

    def validate(self) -> None:
        if self.offsets.shape != (self.n + 1,) or self.offsets[0] != 0:
            raise GraphFormatError("bad offset array")
        if self.offsets[-1] != self.neighbors.shape[0]:
            raise GraphFormatError("offsets do not cover neighbor array")
        if np.any(np.diff(self.offsets) < 0):
            raise GraphFormatError("offsets not monotone")
        if self.neighbors.size and (self.neighbors.min() < 0 or self.neighbors.max() >= self.n):
            raise GraphFormatError("neighbor id out of range")
        for i in range(self.n):
            nb = self.neighbors_of(i)
            if np.any(np.diff(nb) <= 0):
                raise GraphFormatError(f"neighbors of {i} not strictly sorted")
            if np.any(nb == i):
                raise GraphFormatError(f"self loop at {i}")


class WeightedGraph:
    """Weighted CSR working graph for coarsening clusterers.

    Each node stands for a set of original nodes: ``sizes`` counts them and
    ``loops`` holds the edge weight inside the set. ``indptr``/``indices``/
    ``weights`` hold the weighted edges between nodes, both directions.
    """

    def __init__(self, indptr, indices, weights, loops, sizes):
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.loops = loops
        self.sizes = sizes
        self.n = sizes.shape[0]

    @classmethod
    def from_graph(cls, g: Graph) -> "WeightedGraph":
        return cls(g.offsets, g.neighbors, np.ones(g.neighbors.shape[0]), np.zeros(g.n), np.ones(g.n))

    def neighbor_data(self, v: int):
        sl = slice(self.indptr[v], self.indptr[v + 1])
        return self.indices[sl], self.weights[sl]

    def quotient(self, assignment: np.ndarray) -> "WeightedGraph":
        """Collapse each group of ``assignment`` (ids 0..k-1) into one node."""
        k = int(assignment.max()) + 1
        src = np.repeat(np.arange(self.n), np.diff(self.indptr))
        rows, cols = assignment[src], assignment[self.indices]
        off = rows != cols
        adj = sparse.coo_matrix((self.weights[off], (rows[off], cols[off])), shape=(k, k)).tocsr()
        adj.sum_duplicates()
        loops = np.bincount(rows[~off], weights=self.weights[~off], minlength=k) / 2.0
        loops += np.bincount(assignment, weights=self.loops, minlength=k)
        sizes = np.bincount(assignment, weights=self.sizes, minlength=k)
        return WeightedGraph(adj.indptr.astype(np.int64), adj.indices.astype(np.int64),
                             adj.data.astype(np.float64), loops, sizes)


def from_edges(src, dst, n: int | None = None, node_ids=None) -> Graph:
    """Build a Graph from endpoint arrays, symmetrising and deduplicating."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise GraphFormatError("src/dst length mismatch")
    if n is None:
        n = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1)
    if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
        raise GraphFormatError("endpoint id out of range")
    keep = src != dst
    a = np.concatenate([src[keep], dst[keep]])
    b = np.concatenate([dst[keep], src[keep]])
    key = a * n + b
    key = np.unique(key)
    a, b = key // n, key % n
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.add.at(offsets, a + 1, 1)
    offsets = np.cumsum(offsets)
    ids = None if node_ids is None else np.asarray(node_ids, dtype=np.int64)
    return Graph(n=n, offsets=offsets, neighbors=b.astype(np.int64), node_ids=ids)


def _parse_id(tok: str, where: str) -> int:
    try:
        value = int(tok)
    except ValueError:
        raise GraphFormatError(f"{where}: node id {tok!r} is not an integer") from None
    if not -(2**63) <= value < 2**63:
        raise GraphFormatError(f"{where}: node id {tok!r} is outside the 64-bit integer range")
    return value


def load_edge_list(path, directed: bool = False) -> Graph:
    """Read a whitespace- or comma-separated edge list.

    Node ids are arbitrary integers; they are compacted to 0..n-1 in order
    of first appearance (the original ids live in ``Graph.node_ids``).
    Directed input is symmetrised. Lines starting with '#' and blank lines
    are skipped; a header line of two non-integer tokens is tolerated.
    """
    path = Path(path)
    src, dst = [], []
    for lineno, raw in enumerate(read_text(path), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.replace(",", " ").split()
        if len(toks) < 2:
            raise GraphFormatError(f"{path}:{lineno}: expected two node ids")
        if lineno == 1 and not (toks[0].lstrip("-").isdigit() and toks[1].lstrip("-").isdigit()):
            continue
        src.append(_parse_id(toks[0], f"{path}:{lineno}"))
        dst.append(_parse_id(toks[1], f"{path}:{lineno}"))
    if not src:
        raise GraphFormatError(f"{path}: no edges found")
    raw = np.empty(2 * len(src), dtype=np.int64)
    raw[0::2] = src
    raw[1::2] = dst
    ids, inverse = np.unique(raw, return_inverse=True)
    _, first_pos = np.unique(inverse, return_index=True)
    by_appearance = np.argsort(first_pos, kind="stable")
    compact = np.empty_like(by_appearance)
    compact[by_appearance] = np.arange(ids.shape[0])
    stream = compact[inverse]
    # directed input is symmetrised; storage is the same either way
    return from_edges(stream[0::2], stream[1::2], n=ids.shape[0],
                      node_ids=ids[by_appearance])


@dataclass
class TableSchema:
    """Column roles for a node table CSV."""

    id_column: str = "id"
    feature_columns: list | None = None
    target_column: str | None = None
    task: str = "multiclass"

    def __post_init__(self):
        if self.task not in TASKS:
            raise GraphFormatError(f"unknown task {self.task!r}")


@dataclass
class NodeData:
    """Features and optional targets aligned to a Graph's node order."""

    features: np.ndarray
    targets: np.ndarray | None
    task: str
    imputed: np.ndarray | None = None
    num_classes: int = 0

    @property
    def n(self) -> int:
        return self.features.shape[0]


def _is_missing(tok: str) -> bool:
    return tok.strip() == "" or tok.strip().lower() in ("nan", "na", "null")


def load_node_table(path, schema: TableSchema, graph: Graph) -> NodeData:
    """Read per-node features/targets and align rows to ``graph`` order.

    The id column must cover exactly the graph's original node ids. Missing
    numeric feature cells are imputed with the column mean and flagged in
    ``NodeData.imputed``; non-numeric feature cells are an error.
    """
    path = Path(path)
    reader = csv.reader(read_text(path))
    try:
        header = next(reader)
    except StopIteration:
        raise GraphFormatError(f"{path}: empty file") from None
    rows = list(reader)
    header = [h.strip() for h in header]
    if schema.id_column not in header:
        raise GraphFormatError(f"{path}: id column {schema.id_column!r} not in header {header}")
    id_idx = header.index(schema.id_column)
    tgt_idx = None
    if schema.target_column is not None:
        if schema.target_column not in header:
            raise GraphFormatError(f"{path}: target column {schema.target_column!r} missing")
        tgt_idx = header.index(schema.target_column)
    if schema.feature_columns is None:
        feat_names = [h for i, h in enumerate(header) if i != id_idx and i != tgt_idx]
    else:
        for c in schema.feature_columns:
            if c not in header:
                raise GraphFormatError(f"{path}: feature column {c!r} missing")
        feat_names = list(schema.feature_columns)
    feat_idx = [header.index(c) for c in feat_names]

    if len(rows) != graph.n:
        raise GraphFormatError(f"{path}: {len(rows)} rows for a graph with {graph.n} nodes")
    pos_of = {int(v): i for i, v in enumerate(graph.node_ids)}
    feats = np.full((graph.n, len(feat_idx)), np.nan)
    imputed = np.zeros_like(feats, dtype=bool)
    raw_targets = [None] * graph.n
    seen = np.zeros(graph.n, dtype=bool)
    for rno, row in enumerate(rows, 2):
        if len(row) != len(header):
            raise GraphFormatError(f"{path}:{rno}: expected {len(header)} cells, got {len(row)}")
        nid = _parse_id(row[id_idx], f"{path}:{rno}")
        if nid not in pos_of:
            raise GraphFormatError(f"{path}:{rno}: node id {nid} not in graph")
        pos = pos_of[nid]
        if seen[pos]:
            raise GraphFormatError(f"{path}:{rno}: duplicate node id {nid}")
        seen[pos] = True
        for j, ci in enumerate(feat_idx):
            tok = row[ci]
            if _is_missing(tok):
                imputed[pos, j] = True
            else:
                try:
                    feats[pos, j] = float(tok)
                except ValueError:
                    raise GraphFormatError(
                        f"{path}:{rno}: non-numeric feature {tok!r} in column {feat_names[j]!r}"
                    ) from None
        if tgt_idx is not None:
            raw_targets[pos] = row[tgt_idx]

    # the mean of each column's parsed cells; 0 for a column with none
    parsed = ~np.isnan(feats)
    col_mean = np.where(parsed, feats, 0.0).sum(axis=0) / np.maximum(parsed.sum(axis=0), 1)
    feats = np.where(imputed, col_mean, feats)

    targets = None
    num_classes = 0
    if tgt_idx is not None:
        if schema.task == "regression":
            try:
                targets = np.array([float(t) for t in raw_targets], dtype=np.float64)
            except ValueError:
                raise GraphFormatError(f"{path}: non-numeric regression target") from None
        else:
            labels = sorted(set(raw_targets))
            lut = {v: i for i, v in enumerate(labels)}
            targets = np.array([lut[t] for t in raw_targets], dtype=np.int64)
            num_classes = len(labels)
            if schema.task == "binary" and num_classes > 2:
                raise GraphFormatError(f"{path}: {num_classes} distinct labels for a binary task")
    return NodeData(features=feats, targets=targets, task=schema.task,
                    imputed=imputed, num_classes=num_classes)


def transform_features(x: np.ndarray, kind: str) -> np.ndarray:
    """Column-wise feature transform: 'none', 'standard' or 'quantile_normal'.

    'standard' centers and scales by the population std (constant columns
    become zero). 'quantile_normal' maps midpoint ranks through the normal
    quantile function, with ties sharing their average rank.
    """
    if kind not in FEATURE_TRANSFORMS:
        raise ValueError(f"unknown feature transform {kind!r}")
    if kind == "none":
        return np.array(x, dtype=np.float64, copy=True)
    x = np.asarray(x, dtype=np.float64)
    if kind == "standard":
        mu = x.mean(axis=0)
        sd = x.std(axis=0)
        sd = np.where(sd == 0.0, 1.0, sd)
        return (x - mu) / sd
    n = x.shape[0]
    out = np.empty_like(x)
    for j in range(x.shape[1]):
        col = x[:, j]
        order = np.argsort(col, kind="stable")
        ranks = np.empty(n, dtype=np.float64)
        ranks[order] = np.arange(n, dtype=np.float64)
        # average ranks over ties so equal inputs map to equal outputs
        vals, inv = np.unique(col, return_inverse=True)
        sums = np.zeros(vals.shape[0])
        cnts = np.zeros(vals.shape[0])
        np.add.at(sums, inv, ranks)
        np.add.at(cnts, inv, 1.0)
        ranks = (sums / cnts)[inv]
        out[:, j] = ndtri((ranks + 0.5) / n)
    return out


def save_stats_json(stats_dict: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(stats_dict, fh, indent=2, sort_keys=True)
        fh.write("\n")
