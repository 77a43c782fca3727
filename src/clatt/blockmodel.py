"""Statistical block clustering via Bernoulli likelihoods.

Two fitters share the greedy machinery: a two-parameter planted-partition
model (one intra-cluster rate, one inter-cluster rate) and a full
rate-matrix blockmodel used level by level to build a cluster hierarchy.
Model order is controlled by a description-length penalty of
0.5 * k(k+1)/2 * log(#node pairs), and every fit is deterministic given
its seed.
"""

from __future__ import annotations

import numpy as np
from scipy.special import xlogy

from .errors import InputError
from .graphs import Graph, WeightedGraph
from .partition import Clustering, relabel_by_first_occurrence

_TOL = 1e-9


def _bern(e, t):
    """Maximised Bernoulli log-likelihood of e successes in t pairs."""
    e = np.asarray(e, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(t > 0, e / np.maximum(t, 1.0), 0.0)
        return xlogy(e, r) + xlogy(t - e, 1.0 - r)


def _penalty(k: int, total_pairs: float) -> float:
    return 0.5 * (k * (k + 1) / 2.0) * np.log(max(total_pairs, 2.0))


def _occupied(sizes: np.ndarray) -> int:
    return int((sizes > 0).sum())


def _k_ladder(k_max: int) -> list[int]:
    if k_max <= 12:
        return list(range(1, k_max + 1))
    ks = np.unique(np.round(np.geomspace(1, k_max, 14)).astype(int))
    return [int(k) for k in ks]


def planted_partition_fit(g: Graph, k_max: int = 10, seed: int = 0,
                          sweeps: int = 50, restarts: int = 5) -> Clustering:
    """Fit the shared-rate planted-partition model by greedy node sweeps.

    Runs ``restarts`` random initialisations for each candidate cluster
    count up to ``k_max`` and keeps the best penalised likelihood.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    if k_max < 1:
        raise InputError("k_max must be at least 1")
    total_pairs = g.n * (g.n - 1) / 2.0
    m = float(g.m)
    root = np.random.SeedSequence(seed)
    best_score, best_assign = -np.inf, np.zeros(g.n, dtype=np.int64)
    for k in _k_ladder(min(k_max, g.n)):
        for sub in root.spawn(restarts):
            rng = np.random.default_rng(sub)
            comm = rng.integers(0, k, size=g.n)
            comm, score = _pp_sweeps(g, comm, k, m, total_pairs, sweeps)
            if score > best_score + _TOL:
                best_score, best_assign = score, comm
    return Clustering(assignment=relabel_by_first_occurrence(best_assign),
                      algorithm_tag="BPP",
                      params={"k_max": k_max, "seed": seed, "restarts": restarts,
                              "score": float(best_score)})


def _pp_sweeps(g: Graph, comm: np.ndarray, k: int, m: float,
               total_pairs: float, sweeps: int) -> tuple[np.ndarray, float]:
    sizes = np.bincount(comm, minlength=k).astype(np.float64)
    edges = g.edge_array()
    m_in = float((comm[edges[:, 0]] == comm[edges[:, 1]]).sum()) if edges.size else 0.0
    t_in = float((sizes * (sizes - 1)).sum() / 2.0)

    def objective(mi, ti, kocc):
        like = _bern(mi, ti) + _bern(m - mi, total_pairs - ti)
        return float(like) - _penalty(kocc, total_pairs)

    ids = np.arange(k)
    for _ in range(sweeps):
        changed = False
        for v in range(g.n):
            a = int(comm[v])
            nbrs = g.neighbors_of(v)
            w = np.bincount(comm[nbrs], minlength=k).astype(np.float64)
            base_m = m_in - w[a]
            base_t = t_in - (sizes[a] - 1.0)
            kocc = _occupied(sizes)
            cand_m = base_m + w
            cand_t = base_t + sizes - (ids == a)
            cand_k = kocc - (sizes[a] == 1.0) + (sizes == 0.0)
            cand_k[a] = kocc
            score = (_bern(cand_m, cand_t)
                     + _bern(m - cand_m, total_pairs - cand_t)
                     - 0.5 * (cand_k * (cand_k + 1) / 2.0) * np.log(max(total_pairs, 2.0)))
            gain = score - score[a]
            top = float(gain.max())
            if top > _TOL:
                b = int(np.where(gain >= top - _TOL)[0].min())
                if b != a:
                    comm[v] = b
                    sizes[a] -= 1.0
                    sizes[b] += 1.0
                    m_in = float(cand_m[b])
                    t_in = float(cand_t[b])
                    changed = True
        if not changed:
            break
    return comm, objective(m_in, t_in, _occupied(sizes))


def _block_matrices(units: WeightedGraph, comm: np.ndarray, k: int):
    """Edge-weight matrix M and community size vector for a partition."""
    src = np.repeat(np.arange(units.n), np.diff(units.indptr))
    rows, cols = comm[src], comm[units.indices]
    M = np.zeros((k, k))
    np.add.at(M, (rows, cols), units.weights)
    M = (M + M.T) / 2.0  # symmetric; off-diagonal now holds undirected weight
    M[np.diag_indices(k)] /= 2.0
    M[np.diag_indices(k)] += np.bincount(comm, weights=units.loops, minlength=k)
    sizes = np.bincount(comm, weights=units.sizes, minlength=k)
    return M, sizes


def _pair_matrix(sizes: np.ndarray) -> np.ndarray:
    T = np.outer(sizes, sizes)
    np.fill_diagonal(T, sizes * (sizes - 1) / 2.0)
    return T


def _block_likelihood(M: np.ndarray, T: np.ndarray) -> float:
    b = _bern(M, T)
    return float(np.triu(b).sum())


def _general_fit(units: WeightedGraph, k: int, seed, sweeps: int,
                 total_pairs: float) -> tuple[np.ndarray, float]:
    """Greedy sweeps for the full rate-matrix blockmodel on ``units``.

    The model-order penalty here charges both the k(k+1)/2 rate parameters
    and the description length of the assignment itself (n log k), which
    keeps small graphs from splintering into spurious blocks.
    """
    rng = np.random.default_rng(seed)
    n = units.n
    n_orig = float(units.sizes.sum())
    comm = rng.integers(0, k, size=n).astype(np.int64) if k > 1 else np.zeros(n, dtype=np.int64)
    M, sizes = _block_matrices(units, comm, k)
    log_pairs = np.log(max(total_pairs, 2.0))
    for _ in range(sweeps):
        changed = False
        for v in range(n):
            a = int(comm[v])
            s_v = units.sizes[v]
            l_v = units.loops[v]
            nbrs, wts = units.neighbor_data(v)
            w = np.zeros(k)
            np.add.at(w, comm[nbrs], wts)
            # state with v parked outside every community
            M0 = M.copy()
            M0[a, :] -= w
            M0[:, a] -= w
            M0[a, a] += w[a] - l_v  # -= hit the diagonal twice
            sizes0 = sizes.copy()
            sizes0[a] -= s_v
            base_rows = _bern(M0, _pair_matrix(sizes0))
            base_like = float(np.triu(base_rows).sum())
            # candidate b: add w to row b of M0 and s_v to sizes0[b];
            # all candidate rows evaluated at once
            new_rows = M0 + w[None, :]
            new_rows[np.diag_indices(k)] = np.diag(M0) + w + l_v
            grown = sizes0 + s_v
            new_T = np.outer(grown, sizes0)
            new_T[np.diag_indices(k)] = grown * (grown - 1) / 2.0
            occ_after = _occupied(sizes0) + (sizes0 == 0).astype(np.int64)
            gains = (base_like
                     - base_rows.sum(axis=1)
                     + _bern(new_rows, new_T).sum(axis=1)
                     - 0.5 * (occ_after * (occ_after + 1) / 2.0) * log_pairs
                     - n_orig * np.log(occ_after))
            top = float(gains.max())
            b = int(np.where(gains >= top - _TOL)[0].min())
            if b != a and gains[b] > gains[a] + _TOL:
                comm[v] = b
                M[a, :] -= w
                M[:, a] -= w
                M[a, a] += w[a] - l_v
                M[b, :] += w
                M[:, b] += w
                M[b, b] += l_v - w[b]
                sizes[a] -= s_v
                sizes[b] += s_v
                changed = True
        if not changed:
            break
    M, sizes = _block_matrices(units, comm, k)
    like = _block_likelihood(M, _pair_matrix(sizes))
    kocc = _occupied(sizes)
    score = like - _penalty(kocc, total_pairs) - n_orig * np.log(kocc)
    return comm, float(score)


def general_blockmodel_fit(units: WeightedGraph, k_max: int, seed,
                           sweeps: int = 30, restarts: int = 5,
                           total_pairs: float | None = None,
                           k_min: int = 1) -> tuple[np.ndarray, float]:
    """Model-selected full-rate-matrix fit on an aggregated graph."""
    n_orig = float(units.sizes.sum())
    if total_pairs is None:
        total_pairs = n_orig * (n_orig - 1) / 2.0
    root = np.random.SeedSequence(seed) if isinstance(seed, int) else seed
    best_score, best = -np.inf, np.zeros(units.n, dtype=np.int64)
    ladder = [k for k in _k_ladder(min(k_max, units.n)) if k >= min(k_min, units.n)]
    for k in ladder:
        for sub in root.spawn(restarts):
            comm, score = _general_fit(units, k, sub, sweeps, total_pairs)
            if score > best_score + _TOL:
                best_score, best = score, comm
    return relabel_by_first_occurrence(best), best_score


def hierarchical_fit(g: Graph, seed: int = 0, k_max: int | None = None,
                     sweeps: int = 30, restarts: int = 5) -> Clustering:
    """Recursive blockmodel coarsening; returns the level with the smallest
    cluster count still greater than 1.

    Rates are free per block pair, so disassortative groups (roles) are
    found as readily as communities. When every level collapses to one
    cluster the finest fitted level is returned with ``collapsed`` set in
    the params.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    if k_max is None:
        k_max = max(2, min(25, int(round(np.sqrt(g.n)))))
    units = WeightedGraph.from_graph(g)
    to_unit = np.arange(g.n, dtype=np.int64)
    total_pairs = g.n * (g.n - 1) / 2.0
    root = np.random.SeedSequence(seed)
    levels = []  # (assignment over original nodes, k)
    level_seeds = root.spawn(16)
    for depth in range(16):
        # base levels always consider at least two blocks so the hierarchy
        # has somewhere to go; collapse is decided at the top instead
        comm, _ = general_blockmodel_fit(units, min(k_max, units.n),
                                         level_seeds[depth], sweeps=sweeps,
                                         restarts=restarts, total_pairs=total_pairs,
                                         k_min=2)
        k = int(comm.max()) + 1
        assignment = comm[to_unit]
        levels.append((assignment, k))
        if k <= 1 or k >= units.n:
            break
        units = units.quotient(comm)
        to_unit = comm[to_unit]
    nontrivial = [(a, k) for a, k in levels if k > 1]
    if nontrivial:
        assignment, k = min(nontrivial, key=lambda t: t[1])
        collapsed = False
    else:
        assignment, k = levels[0]
        collapsed = True
    return Clustering(assignment=relabel_by_first_occurrence(assignment),
                      algorithm_tag="H1",
                      params={"seed": seed, "k_max": k_max, "collapsed": collapsed,
                              "levels": [int(k) for _, k in levels]})
