"""Positional encodings: normalized-Laplacian eigenvectors and skip-gram
embeddings trained on random walks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = ["LaplacianPE", "laplacian_pe", "deepwalk_pe", "check_laplacian_size", "check_deepwalk_size"]

# Largest connected component given a dense eigendecomposition: several
# float64 matrices of its size squared, about 2.4 GB at the bound.
LAPLACIAN_PE_MAX_NODES = 10_000
# Walk steps plus (center, context) pairs DeepWalk may hold at once: a
# Python int per step and two int64 per pair, about 2 GB at the bound.
DEEPWALK_MAX_SLOTS = 100_000_000


@dataclass
class LaplacianPE:
    vectors: np.ndarray  # (n, k), zero columns past num_valid
    values: np.ndarray  # (k,), zero-padded past num_valid
    num_valid: int
    disconnected: bool


def _component_eigs(adj_dense: np.ndarray):
    deg = adj_dense.sum(axis=1)
    dinv = np.zeros_like(deg)
    nz = deg > 0
    dinv[nz] = 1.0 / np.sqrt(deg[nz])
    lap = np.eye(adj_dense.shape[0]) - (dinv[:, None] * adj_dense) * dinv[None, :]
    vals, vecs = np.linalg.eigh(lap)
    return vals, vecs


def check_laplacian_size(g) -> tuple[np.ndarray, int]:
    """Connected components of g (labels, count); refuses a graph whose
    largest component is past the dense-eigh bound."""
    from .stats import connected_components

    comp, num_comp = connected_components(g)
    largest = int(np.bincount(comp).max()) if g.n else 0
    if largest > LAPLACIAN_PE_MAX_NODES:
        raise InputError(
            f"Laplacian PE decomposes each connected component as a dense matrix: the largest has "
            f"{largest} nodes, past the desk-scale limit of {LAPLACIAN_PE_MAX_NODES}"
        )
    return comp, num_comp


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
    comp, num_comp = check_laplacian_size(g)
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


def _random_walks(g, walks_per_node: int, walk_len: int, rng: np.random.Generator) -> list:
    walks = []
    nodes = np.arange(g.n)
    for _ in range(walks_per_node):
        rng.shuffle(nodes)
        for start in nodes:
            walk = [int(start)]
            cur = int(start)
            for _ in range(walk_len - 1):
                nbrs = g.neighbors_of(cur)
                if nbrs.size == 0:
                    break
                cur = int(nbrs[rng.integers(nbrs.size)])
                walk.append(cur)
            walks.append(walk)
    return walks


def check_deepwalk_size(n: int, walks_per_node: int = 10, walk_len: int = 80, window: int = 5) -> None:
    """Refuse walks and a pair cache past DEEPWALK_MAX_SLOTS; the defaults
    are deepwalk_pe's."""
    steps = n * walks_per_node * walk_len
    slots = steps * (1 + 2 * window)
    if slots > DEEPWALK_MAX_SLOTS:
        raise InputError(
            f"DeepWalk stores {steps} walk steps and about {slots - steps} (center, context) pairs "
            f"({slots} slots for n={n}), past the desk-scale limit of {DEEPWALK_MAX_SLOTS} slots"
        )


def deepwalk_pe(
    g,
    dim: int = 128,
    walks_per_node: int = 10,
    walk_len: int = 80,
    window: int = 5,
    neg: int = 5,
    epochs: int = 5,
    seed: int = 0,
    lr: float = 0.025,
) -> np.ndarray:
    """Skip-gram-with-negative-sampling embeddings over uniform walks.

    Updates are batched per walk (all center/context pairs of one walk
    step together), which keeps the whole thing numpy-vectorized and
    bitwise-deterministic for a fixed seed.
    """
    n = g.n
    check_deepwalk_size(n, walks_per_node, walk_len, window)
    rng = np.random.default_rng(seed)
    walks = _random_walks(g, walks_per_node, walk_len, rng)

    # negative-sampling distribution: degree^0.75, uniform fallback
    deg = g.degrees.astype(np.float64)
    weights = deg**0.75
    if weights.sum() == 0:
        weights = np.ones(n)
    cdf = np.cumsum(weights / weights.sum())

    emb = (rng.random((n, dim)) - 0.5) / dim
    ctx = np.zeros((n, dim))

    pair_cache = []
    for walk in walks:
        L = len(walk)
        arr = np.asarray(walk, dtype=np.int64)
        centers = []
        contexts = []
        for off in range(1, window + 1):
            if off >= L:
                break
            centers.append(arr[:-off])
            contexts.append(arr[off:])
            centers.append(arr[off:])
            contexts.append(arr[:-off])
        if centers:
            pair_cache.append((np.concatenate(centers), np.concatenate(contexts)))
        else:
            pair_cache.append((np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)))

    total = epochs * max(1, len(walks))
    step = 0
    order = np.arange(len(walks))
    for _ in range(epochs):
        rng.shuffle(order)
        for wi in order:
            centers, contexts = pair_cache[wi]
            step += 1
            if centers.size == 0:
                continue
            cur_lr = lr * max(1e-4, 1.0 - step / total)
            negs = np.searchsorted(cdf, rng.random((centers.size, neg)))
            ce = emb[centers]  # (m, dim)
            # positive pair gradients
            co = ctx[contexts]
            s = 1.0 / (1.0 + np.exp(-(ce * co).sum(axis=1)))
            coef = (s - 1.0)[:, None]
            g_ce = coef * co
            g_co = coef * ce
            # negative samples
            cn = ctx[negs]  # (m, neg, dim)
            sn = 1.0 / (1.0 + np.exp(-(cn * ce[:, None, :]).sum(axis=2)))
            g_ce += (sn[:, :, None] * cn).sum(axis=1)
            g_cn = sn[:, :, None] * ce[:, None, :]
            np.add.at(emb, centers, -cur_lr * g_ce)
            np.add.at(ctx, contexts, -cur_lr * g_co)
            np.add.at(ctx, negs.ravel(), -cur_lr * g_cn.reshape(-1, dim))
    return emb
