"""Greedy multilevel partition refinement for the constant-resolution
quality H(gamma) = sum_c [ e_c - gamma * n_c (n_c - 1) / 2 ].

Each pass runs a queue-driven local-move sweep, a refinement sweep inside
the moved communities, and an aggregation step onto the refined partition,
so the quality never decreases from pass to pass.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

import numpy as np

from .errors import InputError
from .graphs import Graph, WeightedGraph, relabel_by_first_occurrence
from .partition import Clustering

_EPS = 1e-12


def default_gamma(g: Graph) -> float:
    """Graph density; the scale at which intra/inter edge rates separate."""
    if g.n < 2:
        return 1.0
    d = 2.0 * g.m / (g.n * (g.n - 1))
    return d if d > 0 else 1.0


def cpm_quality(g: Graph, assignment: np.ndarray, gamma: float) -> float:
    """Internal edges minus gamma-weighted internal pair counts."""
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (g.n,):
        raise ValueError("assignment length mismatch")
    if gamma <= 0:
        raise InputError("gamma must be positive")
    k = int(assignment.max()) + 1
    sizes = np.bincount(assignment, minlength=k).astype(np.float64)
    edges = g.edge_array()
    internal = int((assignment[edges[:, 0]] == assignment[edges[:, 1]]).sum()) if edges.size else 0
    return internal - gamma * float((sizes * (sizes - 1)).sum()) / 2.0


def _local_move(level: WeightedGraph, comm: np.ndarray, gamma: float,
                rng: np.random.Generator) -> bool:
    """Queue-driven best single-node moves; returns True if anything moved.

    Visits run over plain lists: a neighbourhood holds a few dozen nodes, so
    per-visit numpy calls would cost more than the arithmetic. Edge weights
    are whole numbers, so every sum below is exact in any order.
    """
    n = level.n
    indptr, indices, weights = level.indptr.tolist(), level.indices.tolist(), level.weights.tolist()
    sizes, cl = level.sizes.tolist(), comm.tolist()
    comm_size = np.bincount(comm, weights=level.sizes).tolist()
    free = [c for c, s in enumerate(comm_size) if s == 0]  # a sorted list is a min-heap
    queue = deque(rng.permutation(n).tolist())
    queued = [True] * n
    moved_any = False
    while queue:
        v = queue.popleft()
        queued[v] = False
        a = cl[v]
        s_v = sizes[v]
        gs = gamma * s_v
        lo, hi = indptr[v], indptr[v + 1]
        nbrs = indices[lo:hi]
        w_to = {}
        for u, w in zip(nbrs, weights[lo:hi]):
            c = cl[u]
            w_to[c] = w_to.get(c, 0.0) + w
        base = -w_to.pop(a, 0.0) + gs * (comm_size[a] - s_v)
        best_c, best_gain = a, 0.0
        cands = sorted(w_to)
        if cands:
            gains = [(base + w_to[c]) - gs * comm_size[c] for c in cands]
            top = max(gains)
            if top > best_gain + _EPS:
                # ties go to the lowest candidate id
                best_c = next(c for c, g in zip(cands, gains) if g >= top - _EPS)
                best_gain = top
        if comm_size[a] > s_v and base > best_gain + _EPS:
            # splitting off into a fresh community is the best move
            if not free:
                free.append(len(comm_size))
                comm_size.append(0.0)
            best_c, best_gain = free[0], base
        if best_c == a:
            continue
        if free and best_c == free[0]:
            heapq.heappop(free)
        comm_size[a] -= s_v
        comm_size[best_c] += s_v
        cl[v] = best_c
        if comm_size[a] == 0:
            heapq.heappush(free, a)
        moved_any = True
        for u in nbrs:
            if cl[u] != best_c and not queued[u]:
                queue.append(u)
                queued[u] = True
    comm[:] = cl
    return moved_any


def _refine(level: WeightedGraph, comm: np.ndarray, gamma: float,
            rng: np.random.Generator) -> np.ndarray:
    """Split each community into well-connected sub-communities.

    Every node starts as its own sub-community; nodes still alone may merge
    into a neighboring sub-community of the same community when the quality
    gain is positive and the node is well connected to its community.
    """
    n = level.n
    indptr, indices, weights = level.indptr.tolist(), level.indices.tolist(), level.weights.tolist()
    sizes, cl = level.sizes.tolist(), comm.tolist()
    comm_size = np.bincount(comm, weights=level.sizes).tolist()
    sub = list(range(n))
    sub_size = list(sizes)
    for v in rng.permutation(n).tolist():
        s_v = sizes[v]
        if sub_size[sub[v]] != s_v:
            continue  # already grew past a singleton
        a = cl[v]
        lo, hi = indptr[v], indptr[v + 1]
        inside = [(u, w) for u, w in zip(indices[lo:hi], weights[lo:hi]) if cl[u] == a]
        if not inside:
            continue
        gs = gamma * s_v
        if sum(w for _, w in inside) < gs * (comm_size[a] - s_v) - _EPS:
            continue  # poorly connected nodes stay singletons
        w_to = {}  # v is alone in its sub-community, so no neighbour shares it
        for u, w in inside:
            w_to[sub[u]] = w_to.get(sub[u], 0.0) + w
        cands = sorted(w_to)
        gains = [w_to[t] - gs * sub_size[t] for t in cands]
        top = max(gains)
        if top <= _EPS:
            continue
        t = next(c for c, g in zip(cands, gains) if g >= top - _EPS)
        sub_size[t] += s_v
        sub_size[sub[v]] -= s_v
        sub[v] = t
    return np.array(sub, dtype=np.int64)


def _aggregate(level: WeightedGraph, sub: np.ndarray, comm: np.ndarray
               ) -> tuple[WeightedGraph, np.ndarray, np.ndarray]:
    """Collapse sub-communities into single nodes; returns the new level,
    the node map old->new, and the inherited community assignment."""
    ids = relabel_by_first_occurrence(sub)
    new_comm = np.zeros(int(ids.max()) + 1, dtype=np.int64)
    new_comm[ids] = comm  # all members of a sub-community share one community
    return level.quotient(ids), ids, new_comm


def leiden_cpm(g: Graph, gamma: float | None = None, seed: int = 0,
               max_passes: int = 10) -> Clustering:
    """Partition ``g`` by greedy constant-resolution quality maximisation.

    ``gamma`` defaults to the graph density. The result records the quality
    after every pass in ``params["pass_qualities"]``; that sequence is
    non-decreasing.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    if gamma is None:
        gamma = default_gamma(g)
    if not 0 < gamma < math.inf:
        raise InputError(f"gamma must be positive and finite, got {gamma}")
    rng = np.random.default_rng(seed)
    level = WeightedGraph.from_graph(g)
    to_level = np.arange(g.n, dtype=np.int64)  # original node -> level node
    comm = np.arange(g.n, dtype=np.int64)
    qualities = []
    for _ in range(max_passes):
        moved = _local_move(level, comm, gamma, rng)
        comm = relabel_by_first_occurrence(comm)
        qualities.append(cpm_quality(g, comm[to_level], gamma))
        if not moved:
            break
        sub = _refine(level, comm, gamma, rng)
        level, ids, comm = _aggregate(level, sub, comm)
        to_level = ids[to_level]
    assignment = relabel_by_first_occurrence(comm[to_level])
    return Clustering(assignment=assignment, algorithm_tag="LA",
                      params={"gamma": float(gamma), "seed": seed,
                              "pass_qualities": qualities,
                              "quality": qualities[-1] if qualities else 0.0})
