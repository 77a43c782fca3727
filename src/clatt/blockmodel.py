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


def _start_runs(ladder, root: np.random.SeedSequence, restarts: int, n: int):
    """The (k, restart) runs of a fit, k in ``ladder``: each run's block
    count and its uniform random start over n units, drawn from a generator
    of its own spawned from ``root`` (a k = 1 start is all zeros)."""
    ks, comms = [], []
    for k in ladder:
        for sub in root.spawn(restarts):
            ks.append(k)
            comms.append(np.random.default_rng(sub).integers(0, k, size=n))
    return ks, comms


# Cells one batch of lockstep runs may hold per state array, so that memory
# stays bounded however large k_max or the graph is; a batch holds at least
# one run.
LOCKSTEP_MAX_CELLS = 1 << 20


def _run_batches(ks: list[int], cells) -> list[slice]:
    """Consecutive slices of the run list whose lockstep state holds at most
    LOCKSTEP_MAX_CELLS cells each; ``cells(k)`` is one run's share when the
    widest run of its batch has k blocks (``ks`` ascends)."""
    if not ks:
        return []
    batches, start = [], 0
    for end in range(2, len(ks) + 1):
        if (end - start) * cells(ks[end - 1]) > LOCKSTEP_MAX_CELLS:
            batches.append(slice(start, end - 1))
            start = end - 1
    batches.append(slice(start, len(ks)))
    return batches


def _block_mask(ks: list[int], K: int) -> np.ndarray:
    """(runs, K) additive mask: 0 on each run's own blocks, -inf on its padding."""
    return np.where(np.arange(K)[None, :] < np.asarray(ks)[:, None], 0.0, -np.inf)


def _lockstep(state: dict, n: int, sweeps: int, visit) -> dict:
    """Greedy sweeps over nodes 0..n-1 for every run at once.

    ``state`` maps names to arrays whose leading axis is the run;
    ``visit(state, v)`` moves node v in each run where that gains and returns
    the mask of runs that moved. A run whose sweep moved nothing is at a fixed
    point, which is where a run on its own stops, so it leaves the working
    arrays; the loop ends when no run is left or after ``sweeps`` sweeps.
    """
    live = np.arange(state["comm"].shape[0])
    work = dict(state)
    for _ in range(sweeps):
        if live.size == 0:
            break
        changed = np.zeros(live.size, dtype=bool)
        for v in range(n):
            changed |= visit(work, v)
        for name, arr in work.items():
            state[name][live] = arr
        live = live[changed]
        work = {name: arr[changed] for name, arr in work.items()}
    return state


def _best_run(comms, scores, fallback: np.ndarray) -> tuple[np.ndarray, float]:
    """The first run, in ladder order, whose score beats every earlier one by _TOL."""
    best_score, best = -np.inf, fallback
    for comm, score in zip(comms, scores):
        if score > best_score + _TOL:
            best_score, best = score, comm
    return best, float(best_score)


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
    ks, comms = _start_runs(_k_ladder(min(k_max, g.n)), np.random.SeedSequence(seed), restarts, g.n)
    scores = []
    for batch in _run_batches(ks, lambda k: g.n + k):
        fitted, batch_scores = _pp_lockstep(g, ks[batch], np.stack(comms[batch]), m, total_pairs, sweeps)
        comms[batch] = list(fitted)
        scores.extend(batch_scores.tolist())
    best_assign, best_score = _best_run(comms, scores, np.zeros(g.n, dtype=np.int64))
    return Clustering(assignment=relabel_by_first_occurrence(best_assign),
                      algorithm_tag="BPP",
                      params={"k_max": k_max, "seed": seed, "restarts": restarts,
                              "score": best_score})


def _pp_lockstep(g: Graph, ks: list[int], comm: np.ndarray, m: float,
                 total_pairs: float, sweeps: int) -> tuple[np.ndarray, np.ndarray]:
    """Planted-partition sweeps of every run in ``comm`` (runs, n), run r over
    blocks 0..ks[r]-1; returns the fitted assignments and their scores."""
    R, K = comm.shape[0], max(ks)
    sizes = np.zeros((R, K))
    np.add.at(sizes, (np.arange(R)[:, None], comm), 1.0)
    edges = g.edge_array()
    m_in = (comm[:, edges[:, 0]] == comm[:, edges[:, 1]]).sum(axis=1).astype(np.float64)
    t_in = (sizes * (sizes - 1)).sum(axis=1) / 2.0
    occ_penalty = _penalty(np.arange(K + 2), total_pairs)  # by block count after a move
    ids = np.arange(K)

    def visit(st, v):
        comm, sizes, m_in, t_in = st["comm"], st["sizes"], st["m_in"], st["t_in"]
        r = np.arange(comm.shape[0])
        a = comm[:, v].copy()
        w = np.zeros((r.size, K))
        np.add.at(w, (r[:, None], comm[:, g.neighbors_of(v)]), 1.0)
        s_a = sizes[r, a]
        base_m = m_in - w[r, a]
        base_t = t_in - (s_a - 1.0)
        kocc = (sizes > 0).sum(axis=1)
        cand_m = base_m[:, None] + w
        cand_t = base_t[:, None] + sizes - (ids == a[:, None])
        cand_k = kocc[:, None] - (s_a == 1.0)[:, None] + (sizes == 0.0)
        cand_k[r, a] = kocc
        score = (_bern(cand_m, cand_t)
                 + _bern(m - cand_m, total_pairs - cand_t)
                 - occ_penalty[cand_k])
        gain = score - score[r, a][:, None] + st["mask"]
        top = gain.max(axis=1)
        b = (gain >= (top - _TOL)[:, None]).argmax(axis=1)
        moved = (top > _TOL) & (b != a)
        if moved.any():
            r, a, b = r[moved], a[moved], b[moved]
            comm[r, v] = b
            sizes[r, a] -= 1.0
            sizes[r, b] += 1.0
            m_in[r] = cand_m[r, b]
            t_in[r] = cand_t[r, b]
        return moved

    st = _lockstep({"comm": comm, "sizes": sizes, "m_in": m_in, "t_in": t_in,
                    "mask": _block_mask(ks, K)}, g.n, sweeps, visit)
    m_in, t_in = st["m_in"], st["t_in"]
    kocc = (st["sizes"] > 0).sum(axis=1)
    score = _bern(m_in, t_in) + _bern(m - m_in, total_pairs - t_in) - _penalty(kocc, total_pairs)
    return st["comm"], score


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


def _general_score(units: WeightedGraph, comm: np.ndarray, k: int, total_pairs: float) -> float:
    """Penalised likelihood of a full rate-matrix partition into k blocks.

    The model-order penalty charges both the k(k+1)/2 rate parameters and
    the description length of the assignment itself (n log k), which keeps
    small graphs from splintering into spurious blocks.
    """
    M, sizes = _block_matrices(units, comm, k)
    like = _block_likelihood(M, _pair_matrix(sizes))
    kocc = _occupied(sizes)
    return float(like - _penalty(kocc, total_pairs) - float(units.sizes.sum()) * np.log(kocc))


def _general_lockstep(units: WeightedGraph, ks: list[int], comm: np.ndarray, sweeps: int,
                      total_pairs: float) -> np.ndarray:
    """Full rate-matrix sweeps of every run in ``comm`` (runs, n), run r over
    blocks 0..ks[r]-1; returns the fitted assignments.

    A visit parks v outside every block and scores each candidate block b by
    the likelihood change of the rows it touches, for all runs at once.
    """
    R, K = comm.shape[0], max(ks)
    n_orig = float(units.sizes.sum())
    # penalty and assignment code length n log k by block count after a
    # move, which is never 0
    occ = np.arange(K + 2)
    occ_penalty = _penalty(occ, total_pairs)
    occ_code = n_orig * np.log(np.maximum(occ, 1))
    pairs = [_block_matrices(units, c, K) for c in comm]
    M = np.stack([p[0] for p in pairs])
    sizes = np.stack([p[1] for p in pairs])
    d = np.arange(K)
    upper = np.triu(np.ones((K, K), dtype=bool))

    def visit(st, v):
        comm, M, sizes = st["comm"], st["M"], st["sizes"]
        r = np.arange(comm.shape[0])
        a = comm[:, v].copy()
        s_v = units.sizes[v]
        l_v = units.loops[v]
        nbrs, wts = units.neighbor_data(v)
        w = np.zeros((r.size, K))
        np.add.at(w, (r[:, None], comm[:, nbrs]), wts)
        # state with v parked outside every block
        M0 = M.copy()
        M0[r, a, :] -= w
        M0[r, :, a] -= w
        M0[r, a, a] += w[r, a] - l_v  # -= hit the diagonal twice
        sizes0 = sizes.copy()
        sizes0[r, a] -= s_v
        T0 = sizes0[:, :, None] * sizes0[:, None, :]
        T0[:, d, d] = sizes0 * (sizes0 - 1) / 2.0
        base_rows = _bern(M0, T0)
        base_like = np.where(upper, base_rows, 0.0).sum(axis=(1, 2))
        # candidate b: add w to row b of M0 and s_v to sizes0[b];
        # all candidate rows evaluated at once
        new_rows = M0 + w[:, None, :]
        new_rows[:, d, d] = M0[:, d, d] + w + l_v
        grown = sizes0 + s_v
        new_T = grown[:, :, None] * sizes0[:, None, :]
        new_T[:, d, d] = grown * (grown - 1) / 2.0
        occ_after = (sizes0 > 0).sum(axis=1)[:, None] + (sizes0 == 0)
        gains = (base_like[:, None]
                 - base_rows.sum(axis=2)
                 + _bern(new_rows, new_T).sum(axis=2)
                 - occ_penalty[occ_after]
                 - occ_code[occ_after]
                 + st["mask"])
        top = gains.max(axis=1)
        b = (gains >= (top - _TOL)[:, None]).argmax(axis=1)
        moved = (b != a) & (gains[r, b] > gains[r, a] + _TOL)
        if moved.any():
            r, b, w = r[moved], b[moved], w[moved]
            comm[r, v] = b
            M[r] = M0[r]  # v leaves block a exactly as in M0
            M[r, b, :] += w
            M[r, :, b] += w
            M[r, b, b] += l_v - w[np.arange(r.size), b]
            sizes[r] = sizes0[r]
            sizes[r, b] += s_v
        return moved

    st = _lockstep({"comm": comm, "M": M, "sizes": sizes, "mask": _block_mask(ks, K)},
                   units.n, sweeps, visit)
    return st["comm"]


def general_blockmodel_fit(units: WeightedGraph, k_max: int, seed,
                           sweeps: int = 30, restarts: int = 5,
                           total_pairs: float | None = None,
                           k_min: int = 1) -> tuple[np.ndarray, float]:
    """Model-selected full-rate-matrix fit on an aggregated graph."""
    n_orig = float(units.sizes.sum())
    if total_pairs is None:
        total_pairs = n_orig * (n_orig - 1) / 2.0
    root = np.random.SeedSequence(seed) if isinstance(seed, int) else seed
    ladder = [k for k in _k_ladder(min(k_max, units.n)) if k >= min(k_min, units.n)]
    ks, comms = _start_runs(ladder, root, restarts, units.n)
    for batch in _run_batches(ks, lambda k: units.n + k * k):
        comms[batch] = list(_general_lockstep(units, ks[batch], np.stack(comms[batch]), sweeps, total_pairs))
    scores = [_general_score(units, comm, k, total_pairs) for k, comm in zip(ks, comms)]
    best, best_score = _best_run(comms, scores, np.zeros(units.n, dtype=np.int64))
    return relabel_by_first_occurrence(best), best_score


def hierarchical_fit(g: Graph, seed: int = 0, k_max: int | None = None,
                     sweeps: int = 30, restarts: int = 5) -> Clustering:
    """Recursive blockmodel coarsening; returns the level with the smallest
    cluster count still greater than 1.

    Rates are free per block pair, so disassortative groups (roles) are
    found as readily as communities. When every level collapses to one
    cluster the finest fitted level is returned with ``collapsed`` set in
    the params. ``k_max`` must be at least 2, since every level fits at
    least two blocks.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    if k_max is None:
        k_max = max(2, min(25, int(round(np.sqrt(g.n)))))
    if k_max < 2:
        raise InputError(f"H1 k_max must be at least 2, got {k_max}")
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
