"""The run directory as a record of the clusterings and positional
encodings a config command built, so that a later command on the same
inputs reuses them instead of computing them again.

Layout inside ``output_dir``:

    clusterings/<TAG>.csv            raw clustering, before the size filter,
    clusterings/<TAG>.csv.meta.json  in partition.save_clustering's format
    pe/<kind>_<dim>.npy              positional encoding, float64 (n, width)
    pe/<kind>_<dim>.npy.meta.json

Each meta file holds the artifact's key and the sha256 of the artifact's
own bytes. The key is a sha256 over everything the artifact depends on
(see ``key``), the numpy, scipy and BLAS versions, the BLAS thread
settings and the clatt sources among them. A record is reused only when
its key and digest match and it passes its checks; a missing, stale,
edited or unreadable one reads as absent, so the caller computes the
artifact and writes the record over.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np
import scipy

from .partition import Clustering, load_clustering, save_clustering

__all__ = ["versions", "array_digest", "key", "clustering_path", "load_clustering_record",
           "save_clustering_record", "pe_path", "load_pe_record", "save_pe_record"]

# what a damaged record can raise while it is read: file-system errors,
# undecodable or malformed JSON, CSV and .npy contents, nesting too deep
UNREADABLE = (OSError, EOFError, ValueError, RecursionError)


@functools.cache
def versions() -> dict:
    """The numpy, scipy and BLAS versions, the BLAS thread variables as
    set at the first call (None when unset; the bits of a product can
    depend on them), and a sha256 of the clatt sources. The BLAS is
    "unknown" where numpy cannot name it (``np.show_config`` takes
    ``mode`` from numpy 1.26)."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    threads = {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas, "blas_threads": threads,
            "clatt_sources": digest.hexdigest()}


def array_digest(*arrays) -> str:
    """sha256 over the dtype, shape and bytes of each array in turn."""
    digest = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        digest.update(f"{arr.dtype.str}{arr.shape};".encode())
        digest.update(arr.data)
    return digest.hexdigest()


def key(**parts) -> str:
    """The record key of an artifact: sha256 of the canonical JSON of
    ``parts`` (arrays given by their ``array_digest``) plus ``versions()``."""
    doc = json.dumps({**parts, "versions": versions()}, sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def _sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _meta_path(path: Path) -> Path:
    return path.with_suffix(path.suffix + ".meta.json")


def _matching_bytes(path: Path, want: str) -> bytes | None:
    """The artifact's bytes when its meta names key ``want`` and the sha256
    of those bytes; None otherwise."""
    meta = json.loads(_meta_path(path).read_bytes())
    if not isinstance(meta, dict) or meta.get("key") != want:
        return None
    raw = path.read_bytes()
    return raw if meta.get("sha256") == _sha256(raw) else None


def clustering_path(out_dir, tag: str) -> Path:
    return Path(out_dir) / "clusterings" / f"{tag}.csv"


def load_clustering_record(out_dir, tag: str, want: str, node_ids: np.ndarray) -> Clustering | None:
    """The recorded raw clustering ``tag`` in graph node order, or None
    unless its record has key ``want``, intact bytes, exactly the graph's
    node ids and contiguous cluster ids."""
    path = clustering_path(out_dir, tag)
    try:
        if _matching_bytes(path, want) is None:
            return None
        ids, assignment, meta = load_clustering(path)
    except UNREADABLE:  # InputError is a ValueError
        return None
    order = np.argsort(node_ids, kind="stable")
    if meta.get("algorithm_tag") != tag or not np.array_equal(ids, node_ids[order]):
        return None
    if assignment.size and assignment.max() >= assignment.size:
        return None  # ids with gaps; validate's bincount would allocate up to the largest id
    in_graph_order = np.empty_like(assignment)
    in_graph_order[order] = assignment
    params = meta.get("params")
    c = Clustering(in_graph_order, algorithm_tag=tag, params=params if isinstance(params, dict) else {})
    try:
        c.validate()
    except ValueError:
        return None
    return c


def save_clustering_record(out_dir, tag: str, c: Clustering, want: str, node_ids: np.ndarray) -> None:
    path = clustering_path(out_dir, tag)
    path.parent.mkdir(exist_ok=True)
    save_clustering(path, c, node_ids=node_ids, meta={"key": want})


def pe_path(out_dir, kind: str, dim: int) -> Path:
    return Path(out_dir) / "pe" / f"{kind}_{dim}.npy"


def load_pe_record(out_dir, kind: str, dim: int, want: str, shape: tuple) -> np.ndarray | None:
    """The recorded positional encoding, or None unless its record has key
    ``want`` and intact bytes and holds a finite float64 array of ``shape``.
    The .npy header is checked before any array is allocated."""
    path = pe_path(out_dir, kind, dim)
    try:
        raw = _matching_bytes(path, want)
        if raw is None:
            return None
        fh = io.BytesIO(raw)
        major, _ = np.lib.format.read_magic(fh)
        read_header = np.lib.format.read_array_header_1_0 if major == 1 else np.lib.format.read_array_header_2_0
        if read_header(fh)[::2] != (tuple(shape), np.dtype("<f8")):
            return None
        arr = np.load(io.BytesIO(raw), allow_pickle=False)
    except UNREADABLE:
        return None
    return arr if np.isfinite(arr).all() else None


def save_pe_record(out_dir, kind: str, dim: int, arr: np.ndarray, want: str) -> None:
    path = pe_path(out_dir, kind, dim)
    path.parent.mkdir(exist_ok=True)
    buf = io.BytesIO()
    np.save(buf, np.asarray(arr, dtype="<f8"), allow_pickle=False)
    raw = buf.getvalue()
    path.write_bytes(raw)
    meta = {"kind": kind, "dim": dim, "shape": list(arr.shape), "key": want, "sha256": _sha256(raw)}
    _meta_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
