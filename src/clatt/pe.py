"""Positional encodings: normalized-Laplacian eigenvectors and DeepWalk
embeddings, the latter in closed form as the eigendecomposition of the
shifted PMI matrix of the expected walk corpus."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import InputError

__all__ = ["LaplacianPE", "laplacian_pe", "deepwalk_pe", "check_laplacian_size", "check_deepwalk_size"]

# Nodes in one dense matrix: a connected component for Laplacian PE, the
# whole graph for DeepWalk PE. tracemalloc peaks on a 3000-node SBM were
# 16 n^2 bytes for Laplacian PE (the component matrix, turned into the
# Laplacian in place, and eigh's eigenvectors) and 17 n^2 for DeepWalk PE,
# so 1.6 and 1.7 GB at the bound; LAPACK's eigh workspace, outside
# tracemalloc's view, adds up to 25 n^2 bytes more (ru_maxrss of eigh alone).
PE_MAX_NODES = 10_000


@dataclass
class LaplacianPE:
    vectors: np.ndarray  # (n, k), zero columns past num_valid
    values: np.ndarray  # (k,), zero-padded past num_valid
    num_valid: int
    disconnected: bool


def _component_eigs(adj_dense: np.ndarray):
    """Eigenpairs of I - D^-1/2 A D^-1/2; the Laplacian is built in place
    in ``adj_dense``, a float array the caller gives up."""
    deg = adj_dense.sum(axis=1)
    dinv = np.zeros_like(deg)
    nz = deg > 0
    dinv[nz] = 1.0 / np.sqrt(deg[nz])
    adj_dense *= dinv[:, None]
    adj_dense *= dinv[None, :]
    lap = np.subtract(0.0, adj_dense, out=adj_dense)
    lap[np.diag_indices(lap.shape[0])] += 1.0
    return np.linalg.eigh(lap)


def check_laplacian_size(g) -> None:
    """Refuse a graph whose largest connected component is past the
    dense-eigh bound."""
    largest = int(np.bincount(g.components[0]).max()) if g.n else 0
    if largest > PE_MAX_NODES:
        raise InputError(
            f"Laplacian PE decomposes each connected component as a dense matrix: the largest has "
            f"{largest} nodes, past the desk-scale limit of {PE_MAX_NODES}"
        )


def laplacian_pe(g, k: int = 128) -> LaplacianPE:
    """Eigenvectors of the k smallest nontrivial normalized-Laplacian modes.

    Disconnected graphs are handled per component: each component drops
    its own trivial eigenpair, the survivors are merged in ascending
    eigenvalue order, and vectors are zero outside their component. If
    fewer than k nontrivial pairs exist the tail columns stay zero.
    Signs are fixed by making each vector's largest-magnitude entry
    positive.
    """
    n = g.n
    if k >= n:
        raise ValueError(f"laplacian_pe needs k < n, got k={k}, n={n}")
    check_laplacian_size(g)
    comp, num_comp = g.components
    pairs = []  # (eigenvalue, node index array, vector on component)
    for c in range(num_comp):
        nodes = np.nonzero(comp == c)[0]
        if nodes.size < 2:
            continue
        vals, vecs = _component_eigs(g.adjacency[nodes][:, nodes].toarray())
        for j in range(1, nodes.size):  # drop the trivial pair
            pairs.append((float(vals[j]), nodes, vecs[:, j]))
    pairs.sort(key=lambda t: t[0])
    pairs = pairs[:k]

    vectors = np.zeros((n, k))
    values = np.zeros(k)
    for col, (val, nodes, vec) in enumerate(pairs):
        top = np.argmax(np.abs(vec))
        if vec[top] < 0:
            vec = -vec
        vectors[nodes, col] = vec
        values[col] = val
    return LaplacianPE(vectors, values, len(pairs), num_comp > 1)


def check_deepwalk_size(n: int) -> None:
    """Refuse a graph whose dense n x n walk-count matrix is past PE_MAX_NODES."""
    if n > PE_MAX_NODES:
        raise InputError(
            f"DeepWalk PE factorises a dense matrix over all nodes: the graph has {n} nodes, "
            f"past the desk-scale limit of {PE_MAX_NODES}"
        )


def deepwalk_pe(
    g,
    dim: int = 128,
    walks_per_node: int = 10,
    walk_len: int = 80,
    window: int = 5,
    neg: int = 1,
    epochs: int = 5,
) -> np.ndarray:
    """DeepWalk embeddings as the factorisation skip-gram with negative
    sampling converges to (Levy & Goldberg 2014; Qiu et al. 2018).

    The corpus is the exact expectation of one uniform walk of ``walk_len``
    nodes from every node, with (center, context) pairs at offsets
    1..``window`` in both directions: with P = D^-1 A and
    S_r = sum_{i=0..walk_len-1-r} 1^T P^i, the pair counts are
    C = F + F^T for F = sum_{r=1..window} diag(S_r) P^r. With c = C 1 and
    vol = 1^T c, the target is M = log max(C vol / (neg c c^T), 1), and
    the result is U sqrt|lambda| for the ``dim`` eigenpairs of M of
    largest |lambda|, columns past n zero, each column's sign fixed by its
    largest-magnitude entry. ``walks_per_node`` and ``epochs`` scale every
    count alike, so they cancel in M and do not change the result.
    """
    n = g.n
    check_deepwalk_size(n)
    deg = g.degrees.astype(np.float64)
    back = (g.adjacency @ sparse.diags(np.divide(1.0, deg, out=np.zeros(n), where=deg > 0))).tocsr()  # P^T
    offsets = max(min(window, walk_len - 1), 0)
    # sums[r - 1] = S_r: expected visits to each node over steps 0..walk_len-1-r
    sums = np.zeros((offsets, n))
    visits, seen = np.ones(n), np.zeros(n)
    for step in range(walk_len - 1):
        seen += visits
        if walk_len - 1 - step <= offsets:
            sums[walk_len - 2 - step] = seen
        visits = back @ visits
    # F^T = sum_r (P^T)^r diag(S_r) by Horner's rule
    counts = np.zeros((n, n))
    diag = np.diag_indices(n)
    for r in range(offsets, 0, -1):
        counts[diag] += sums[r - 1]
        counts = back @ counts
    counts += counts.T
    total = counts.sum(axis=1)
    inv = np.divide(1.0, total, out=np.zeros(n), where=total > 0)
    counts *= total.sum() / neg
    counts *= inv[:, None]
    counts *= inv[None, :]
    np.log(np.maximum(counts, 1.0, out=counts), out=counts)
    vals, vecs = np.linalg.eigh(counts)
    keep = np.argsort(-np.abs(vals), kind="stable")[:dim]
    vecs = vecs[:, keep] * np.sqrt(np.abs(vals[keep]))
    vecs *= np.where(vecs[np.abs(vecs).argmax(axis=0), np.arange(keep.size)] < 0, -1.0, 1.0)
    emb = np.zeros((n, dim))
    emb[:, : keep.size] = vecs
    return emb
