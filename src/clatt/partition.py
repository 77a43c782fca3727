"""Partition containers, size filtering and CSV round-tripping."""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputError, read_text
from .graphs import _parse_id, csv_rows

# the size filter's default bounds; cluster attention lays out no larger cluster than MAX_CLUSTER_SLOTS
MIN_CLUSTER_SIZE = 4
MAX_CLUSTER_SLOTS = 512


@dataclass
class Clustering:
    """Nodes 0..n-1 in contiguous cluster ids 0..k-1; id -1 marks a node
    left unassigned (by the size filter, or in a saved file)."""

    assignment: np.ndarray
    algorithm_tag: str = "LA"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=np.int64)

    @property
    def n(self) -> int:
        return self.assignment.shape[0]

    @property
    def num_clusters(self) -> int:
        return int(self.assignment.max()) + 1 if self.n else 0

    @property
    def unassigned(self) -> np.ndarray:
        return np.flatnonzero(self.assignment < 0)

    def clusters(self) -> list[np.ndarray]:
        """Member arrays indexed by cluster id; unassigned nodes sort first
        and fall outside every bound."""
        order = np.argsort(self.assignment, kind="stable")
        bounds = np.searchsorted(self.assignment[order], np.arange(self.num_clusters + 1))
        return [order[bounds[i] : bounds[i + 1]] for i in range(self.num_clusters)]

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment[self.assignment >= 0], minlength=self.num_clusters)

    def validate(self) -> None:
        if self.n == 0:
            raise ValueError("empty clustering")
        if self.assignment.min() < -1:
            raise ValueError("cluster id below -1")
        if np.any(self.sizes() == 0):
            raise ValueError("gap in cluster ids")


def relabel_by_first_occurrence(assignment: np.ndarray) -> np.ndarray:
    """Renumber cluster ids so they appear in increasing node order."""
    assignment = np.asarray(assignment, dtype=np.int64)
    _, first, dense = np.unique(assignment, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    lut = np.empty(order.shape[0], dtype=np.int64)
    lut[order] = np.arange(order.shape[0])
    return lut[dense]


def filter_clusters(c: Clustering, min_size: int = MIN_CLUSTER_SIZE, max_size: int = MAX_CLUSTER_SLOTS) -> Clustering:
    """Drop clusters outside [min_size, max_size]; members become unassigned.

    Retained clusters keep their membership untouched and are renumbered
    contiguously in original-id order.
    """
    sizes = c.sizes()
    keep = (sizes >= min_size) & (sizes <= max_size)
    new_id = np.full(sizes.shape[0] + 1, -1, dtype=np.int64)  # the last slot maps -1 to -1
    new_id[:-1][keep] = np.arange(int(keep.sum()))
    return Clustering(assignment=new_id[c.assignment], algorithm_tag=c.algorithm_tag,
                      params={**c.params, "min_size": min_size, "max_size": max_size})


def save_clustering(path, c: Clustering, node_ids: np.ndarray | None = None, meta: dict | None = None) -> None:
    """Write ``node_id,cluster_id`` rows plus a .meta.json sidecar; an
    unassigned node keeps cluster id -1. The sidecar holds the sha256 of
    the CSV bytes and any extra keys in ``meta``."""
    path = Path(path)
    ids = np.arange(c.n) if node_ids is None else np.asarray(node_ids)
    if ids.shape[0] != c.n:
        raise ValueError("node_ids length mismatch")
    text = io.StringIO(newline="")
    w = csv.writer(text)
    w.writerow(["node_id", "cluster_id"])
    w.writerows(zip(ids.astype(np.int64).tolist(), c.assignment.tolist()))
    raw = text.getvalue().encode()
    path.write_bytes(raw)
    meta = {
        "algorithm_tag": c.algorithm_tag,
        "params": c.params,
        "num_clusters": int(c.num_clusters),
        "num_unassigned": int(c.unassigned.size),
        "sha256": hashlib.sha256(raw).hexdigest(),
        **(meta or {}),
    }
    with open(path.with_suffix(path.suffix + ".meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_clustering(path) -> tuple[np.ndarray, np.ndarray, dict]:
    """Read a clustering CSV; returns (node_ids, assignment, metadata),
    sorted by node id.

    Rows follow ``graphs.csv_rows``: blank rows are skipped. A short row, an
    id that is not a 64-bit integer, a cluster id below -1 (-1 means
    unassigned) or a repeated node id raises InputError naming the file and
    line, as does metadata that is not a JSON object.
    """
    path = Path(path)
    ids, cids, seen = [], [], {}
    rows = csv_rows(path)
    _, header = next(rows, (None, None))
    if header is None or [h.strip() for h in header[:2]] != ["node_id", "cluster_id"]:
        raise InputError(f"{path}: expected header node_id,cluster_id")
    for line, row in rows:
        where = f"{path}:{line}"
        if len(row) < 2:
            raise InputError(f"{where}: expected node_id,cluster_id, got {len(row)} field")
        node, cid = _parse_id(row[0], where), _parse_id(row[1], where, "cluster id")
        if cid < -1:
            raise InputError(f"{where}: cluster_id {cid} is below -1, the id of an unassigned node")
        if node in seen:
            raise InputError(f"{where}: node {node} already assigned on line {seen[node]}")
        seen[node] = line
        ids.append(node)
        cids.append(cid)
    meta_path = path.with_suffix(path.suffix + ".meta.json")
    meta = {}
    if meta_path.exists():
        try:
            meta = json.loads("".join(read_text(meta_path)))
        except (json.JSONDecodeError, RecursionError) as e:
            raise InputError(f"{meta_path}: invalid JSON: {e}") from None
        if not isinstance(meta, dict):
            raise InputError(f"{meta_path}: expected a JSON object")
    order = np.argsort(np.asarray(ids), kind="stable")
    return (np.asarray(ids, dtype=np.int64)[order],
            np.asarray(cids, dtype=np.int64)[order], meta)

