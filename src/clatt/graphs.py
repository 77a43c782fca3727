"""Immutable CSR graphs, the weighted graph clusterers coarsen, edge-list
ingestion and node feature tables."""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field
from itertools import islice, repeat
from operator import itemgetter
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

    @functools.cached_property
    def adjacency(self) -> sparse.csr_matrix:
        """The 0/1 adjacency as a read-only float CSR matrix, built once."""
        adj = sparse.csr_matrix((np.ones(self.neighbors.shape[0]), self.neighbors, self.offsets), shape=(self.n, self.n))
        for arr in (adj.data, adj.indices, adj.indptr):
            arr.setflags(write=False)
        return adj

    def edge_array(self) -> np.ndarray:
        """All undirected edges as an (m, 2) array with u < v."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        keep = src < self.neighbors
        return np.stack([src[keep], self.neighbors[keep]], axis=1)


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


def from_edges(src, dst, n: int, node_ids=None) -> Graph:
    """Build a Graph from endpoint arrays, symmetrising and deduplicating."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise GraphFormatError("src/dst length mismatch")
    if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
        raise GraphFormatError("endpoint id out of range")
    keep = src != dst
    a = np.concatenate([src[keep], dst[keep]])
    b = np.concatenate([dst[keep], src[keep]])
    key = np.sort(a * n + b)
    key = key[np.diff(key, prepend=-1) != 0]  # np.unique(key) without its slower hash table; keys are >= 0
    a, b = key // n, key % n
    offsets = np.zeros(n + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(np.bincount(a, minlength=n))
    ids = None if node_ids is None else np.asarray(node_ids, dtype=np.int64)
    return Graph(n=n, offsets=offsets, neighbors=b.astype(np.int64), node_ids=ids)


def _int_or_none(tok: str) -> int | None:
    """``int(tok)``, or None when ``tok`` is not an integer literal."""
    try:
        return int(tok)
    except ValueError:
        return None


def _parse_id(tok: str, where: str, what: str = "node id") -> int:
    """``tok`` as an id that fits in a signed 64-bit integer."""
    value = _int_or_none(tok)
    if value is None or not -(2**63) <= value < 2**63:
        raise GraphFormatError(f"{where}: {what} {tok!r} is not a 64-bit integer")
    return value


def csv_rows(path):
    """``(line, row)`` for each CSV row of ``path`` that has a non-blank cell,
    the header included; ``line`` is the file line the row ends on. A row
    the csv module refuses (a field over its size limit) is a
    GraphFormatError."""
    reader = csv.reader(read_text(path))
    try:
        for row in reader:
            if "".join(row).strip():
                yield reader.line_num, row
    except csv.Error as e:
        raise GraphFormatError(f"{path}:{reader.line_num}: {e}") from None


# Edge-list lines tokenised and converted at a time, so that a long file never
# holds all its tokens as Python objects at once: a line of two short ids costs
# about 300 B while its chunk is open (the line, its token list, two tokens and
# their places in the id lists), about 600 KB for a chunk. Chunks of 16 384
# lines were no faster and left the process 2 MB larger.
EDGE_CHUNK_LINES = 1 << 11


def load_edge_list(path) -> Graph:
    """Read a whitespace- or comma-separated edge list.

    Node ids are arbitrary integers; they are compacted to 0..n-1 in order
    of first appearance (the original ids live in ``Graph.node_ids``).
    Every edge is taken as undirected. Lines starting with '#' and blank lines
    are skipped; the first other line is a header when one of its two tokens
    is not an integer as ``int`` reads it (so ``+1`` and ``1_0`` are ids).
    """
    path = Path(path)
    raw = _edge_ids(path)
    if not raw.size:
        raise GraphFormatError(f"{path}: no edges found")
    ids, first_pos, inverse = np.unique(raw, return_index=True, return_inverse=True)
    by_appearance = np.argsort(first_pos, kind="stable")
    compact = np.empty_like(by_appearance)
    compact[by_appearance] = np.arange(ids.shape[0])
    stream = compact[inverse]
    return from_edges(stream[0::2], stream[1::2], n=ids.shape[0],
                      node_ids=ids[by_appearance])


def _edge_ids(path: Path) -> np.ndarray:
    """The two ids of each edge line of ``path``, in file order, as one flat
    int64 array. Lines split as ``read_text``'s stream splits them and are
    tokenised and converted ``EDGE_CHUNK_LINES`` at a time; a chunk with a
    short line or a bad id is parsed line by line, which raises the first
    error in file order."""
    stream = read_text(path)
    pairs, done, header_seen = [], 0, False
    while lines := list(islice(stream, EDGE_CHUNK_LINES)):
        toks = list(map(str.split, map(str.replace, lines, repeat(","), repeat(" "))))
        ntok = np.fromiter(map(len, toks), np.intp, len(toks))
        skip = ntok == 0
        skip[skip] = [lines[i].isspace() for i in np.flatnonzero(skip)]  # blank, unlike a line ","
        if "#" in "".join(lines):  # only then can a line be a comment
            skip |= np.fromiter(map(str.startswith, map(str.lstrip, lines), repeat("#")), bool, len(lines))
        keep = np.flatnonzero(~skip)
        if keep.size < len(lines):
            toks = list(map(toks.__getitem__, keep.tolist()))
        if toks and not header_seen:
            header_seen = True
            first = toks[0]
            if len(first) >= 2 and None in (_int_or_none(first[0]), _int_or_none(first[1])):
                keep, toks = keep[1:], toks[1:]
        try:
            if ntok[keep].min(initial=2) < 2:
                raise ValueError("a line with fewer than two tokens")
            ids = np.column_stack([np.array(list(map(itemgetter(i), toks)), dtype=np.int64) for i in (0, 1)])
        except (ValueError, OverflowError):
            ids = _edge_ids_by_line(path, keep + done + 1, toks)
        pairs.append(ids.ravel())
        done += len(lines)
    return np.concatenate(pairs) if pairs else np.empty(0, dtype=np.int64)


def _edge_ids_by_line(path: Path, lines, toks) -> np.ndarray:
    """The (k, 2) ids of the edge lines ``toks`` (file lines ``lines``), one
    line at a time, so that a short line or a bad id raises in file order."""
    ids = []
    for line, tok in zip(lines, toks):
        where = f"{path}:{line}"
        if len(tok) < 2:
            raise GraphFormatError(f"{where}: expected two node ids")
        ids.append((_parse_id(tok[0], where), _parse_id(tok[1], where)))
    return np.array(ids, dtype=np.int64).reshape(-1, 2)


@dataclass(frozen=True)
class TableSchema:
    """Column roles for a node table CSV; no feature columns means every
    column but the id and target."""

    id_column: str = "id"
    feature_columns: tuple | None = None
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
    imputed: np.ndarray | None = None
    num_classes: int = 0


def _is_missing(tok: str) -> bool:
    return tok.strip() == "" or tok.strip().lower() in ("nan", "na", "null")


def _number(tok: str, where: str, what: str, column: str) -> float:
    """``tok`` as a finite float; ``inf``, ``+nan`` or ``1e999`` is an error."""
    try:
        value = float(tok)
    except ValueError:
        raise GraphFormatError(f"{where}: non-numeric {what} {tok!r} in column {column!r}") from None
    if not math.isfinite(value):
        raise GraphFormatError(f"{where}: {what} {tok!r} is not finite in column {column!r}")
    return value


def _refuse_repeats(names, where: str, what: str) -> None:
    """GraphFormatError naming the first name of ``names`` seen twice and its
    two 1-based positions."""
    seen = {}
    for i, name in enumerate(names, 1):
        if name in seen:
            raise GraphFormatError(f"{where} repeats {name!r} ({what} {seen[name]} and {i})")
        seen[name] = i


def load_node_table(path, schema: TableSchema, graph: Graph) -> NodeData:
    """Read per-node features/targets and align rows to ``graph`` order.

    Rows follow ``csv_rows``: blank rows are skipped and errors name the
    file line. No two header cells and no two ``feature_columns`` may
    share a name. The id column must cover exactly the graph's original node
    ids. Missing numeric feature cells are imputed with the column mean and
    flagged in ``NodeData.imputed``; non-numeric or non-finite feature cells,
    missing targets and non-finite regression targets are errors.
    """
    path = Path(path)
    rows = csv_rows(path)
    _, header = next(rows, (None, None))
    if header is None:
        raise GraphFormatError(f"{path}: empty file")
    rows = list(rows)
    header = [h.strip() for h in header]
    _refuse_repeats(header, f"{path}: header", "columns")
    if schema.id_column not in header:
        raise GraphFormatError(f"{path}: id column {schema.id_column!r} not in header {header}")
    id_idx = header.index(schema.id_column)
    tgt_idx = None
    if schema.target_column is not None:
        if schema.target_column not in header:
            raise GraphFormatError(f"{path}: target column {schema.target_column!r} missing")
        tgt_idx = header.index(schema.target_column)
    if not schema.feature_columns:
        feat_names = [h for i, h in enumerate(header) if i != id_idx and i != tgt_idx]
    else:
        _refuse_repeats(schema.feature_columns, f"{path}: feature_columns", "entries")
        for c in schema.feature_columns:
            if c not in header:
                raise GraphFormatError(f"{path}: feature column {c!r} missing")
            if c in (schema.id_column, schema.target_column):  # a feature must not leak the id or the label
                raise GraphFormatError(f"{path}: feature column {c!r} is the {'id' if c == schema.id_column else 'target'} column")
        feat_names = list(schema.feature_columns)
    feat_idx = [header.index(c) for c in feat_names]

    if len(rows) != graph.n:
        raise GraphFormatError(f"{path}: {len(rows)} rows for a graph with {graph.n} nodes")
    regression = schema.task == "regression"
    cells = [row for _, row in rows]
    columns = _table_columns(cells, len(header), id_idx, feat_idx, tgt_idx, regression, graph)
    if columns is None:
        columns = _table_rows(path, rows, len(header), id_idx, feat_idx, feat_names, tgt_idx, schema, graph)
    pos, values, tgt = columns
    feats = np.empty((graph.n, len(feat_idx)))
    feats[pos] = values
    imputed = np.isnan(feats)

    # the mean of each column's parsed cells; 0 for a column with none
    parsed = ~imputed
    col_mean = np.where(parsed, feats, 0.0).sum(axis=0) / np.maximum(parsed.sum(axis=0), 1)
    feats = np.where(imputed, col_mean, feats)

    targets = None
    num_classes = 0
    if tgt_idx is not None:
        if regression:
            targets = np.empty(graph.n, dtype=np.float64)
            targets[pos] = tgt
        else:
            labels = sorted(set(tgt))
            lut = {v: i for i, v in enumerate(labels)}
            targets = np.empty(graph.n, dtype=np.int64)
            targets[pos] = np.fromiter(map(lut.__getitem__, tgt), np.int64, len(tgt))
            num_classes = len(labels)
            if schema.task == "binary" and num_classes > 2:
                raise GraphFormatError(f"{path}: {num_classes} distinct labels for a binary task")
    return NodeData(features=feats, targets=targets, imputed=imputed, num_classes=num_classes)


def _table_columns(cells, width, id_idx, feat_idx, tgt_idx, regression, graph):
    """``(pos, values, targets)`` of node-table rows with no missing or bad
    cell, read a column at a time: each row's graph position, its feature
    values and its target cell (a float for regression). ``np.array`` parses
    ids as ``int`` and cells as ``float`` do. None for any other rows."""
    if not {width}.issuperset(map(len, cells)):
        return None

    def column(i):
        return list(map(itemgetter(i), cells))

    try:
        nid = np.array(column(id_idx), dtype=np.int64)
        values = np.array([column(i) for i in feat_idx], dtype=np.float64).reshape(len(feat_idx), len(cells)).T
        tgt = None if tgt_idx is None else column(tgt_idx)
        if regression:
            tgt = np.array(tgt, dtype=np.float64)
    except (ValueError, OverflowError):
        return None
    order = np.argsort(graph.node_ids, kind="stable")
    at = np.searchsorted(graph.node_ids[order], nid).clip(max=max(graph.n - 1, 0))
    pos = order[at]
    if not np.array_equal(graph.node_ids[pos], nid) or np.bincount(pos, minlength=graph.n).max(initial=0) > 1:
        return None  # an id not in the graph, or a repeat
    bad_target = tgt is not None and (not np.isfinite(tgt).all() if regression else any(map(_is_missing, tgt)))
    if bad_target or not np.isfinite(values).all():
        return None  # a missing cell, or one float reads but the table refuses
    return pos, values, tgt


def _table_rows(path, rows, width, id_idx, feat_idx, feat_names, tgt_idx, schema, graph):
    """``_table_columns``'s triple, one row and one cell at a time: a missing
    feature cell reads as nan, and the first bad cell in file order raises."""
    pos_of = {int(v): i for i, v in enumerate(graph.node_ids)}
    seen = np.zeros(graph.n, dtype=bool)
    pos, values, tgt = [], np.full((len(rows), len(feat_idx)), np.nan), []
    for r, (line, row) in enumerate(rows):
        where = f"{path}:{line}"
        if len(row) != width:
            raise GraphFormatError(f"{where}: expected {width} cells, got {len(row)}")
        nid = _parse_id(row[id_idx], where)
        if nid not in pos_of:
            raise GraphFormatError(f"{where}: node id {nid} not in graph")
        at = pos_of[nid]
        if seen[at]:
            raise GraphFormatError(f"{where}: duplicate node id {nid}")
        seen[at] = True
        pos.append(at)
        for j, ci in enumerate(feat_idx):
            if not _is_missing(row[ci]):
                values[r, j] = _number(row[ci], where, "feature", feat_names[j])
        if tgt_idx is not None:
            tok = row[tgt_idx]
            if _is_missing(tok):
                raise GraphFormatError(f"{where}: missing target {tok!r} in column {schema.target_column!r}")
            tgt.append(_number(tok, where, "regression target", schema.target_column)
                       if schema.task == "regression" else tok)
    return np.array(pos, dtype=np.int64), values, tgt


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
    return ndtri((average_ranks(x) - 0.5) / x.shape[0])


def average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks from 1 down axis 0, ties sharing their average rank.

    A stable sort puts each tie group in one run; its members get
    (first + last) / 2 + 1 of the run's sorted positions, a half-integer
    and so exact. For nan-free x the result is bitwise
    ``scipy.stats.rankdata(x, axis=0)``, without importing ``scipy.stats``.
    """
    n = x.shape[0]
    order = np.argsort(x, axis=0, kind="stable")
    y = np.take_along_axis(x, order, axis=0)
    pos = np.arange(n).reshape((n,) + (1,) * (x.ndim - 1))
    starts = np.ones(x.shape, dtype=bool)
    starts[1:] = y[1:] != y[:-1]
    ends = np.ones(x.shape, dtype=bool)
    ends[:-1] = starts[1:]
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=0)
    last = np.minimum.accumulate(np.where(ends, pos, n)[::-1], axis=0)[::-1]
    ranks = np.empty(x.shape)
    np.put_along_axis(ranks, order, (first + last) / 2 + 1, axis=0)
    return ranks
