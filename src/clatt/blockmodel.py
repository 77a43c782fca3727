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
from .graphs import Graph, WeightedGraph, relabel_by_first_occurrence
from .partition import Clustering

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


def _k_ladder(k_max: int) -> list[int]:
    if k_max <= 12:
        return list(range(1, k_max + 1))
    ks = np.unique(np.round(np.geomspace(1, k_max, 14)).astype(int))
    return [int(k) for k in ks]


# Cells one batch of lockstep runs may hold per state array. A batch holds at
# least one run, so this bounds memory only while one run fits: H1, whose
# run state is K x K, refuses a K with K * K past it.
LOCKSTEP_MAX_CELLS = 1 << 20


def _run_batches(ks: list[int], cells) -> list[slice]:
    """Consecutive slices of the run list whose lockstep state holds at most
    LOCKSTEP_MAX_CELLS cells each; ``cells(k)`` is one run's share when the
    widest run of its batch has k blocks (``ks`` ascends and is non-empty)."""
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


def _fit_ladder(ladder, root: np.random.SeedSequence, restarts: int, n: int,
                cells, lockstep) -> tuple[np.ndarray, float]:
    """Fit ``restarts`` runs for each block count k in ``ladder`` and keep
    the first, in ladder order, whose score beats every earlier one by _TOL.

    Each run starts from a uniform random assignment of the n units to k
    blocks, drawn from a generator of its own spawned from ``root`` (a
    k = 1 start is all zeros). The runs are fitted in batches of at most
    LOCKSTEP_MAX_CELLS cells (see _run_batches); ``lockstep(ks, comm)``
    fits one batch and returns its assignments and their scores.
    """
    ks, comms = [], []
    for k in ladder:
        for sub in root.spawn(restarts):
            ks.append(k)
            comms.append(np.random.default_rng(sub).integers(0, k, size=n))
    scores = []
    for batch in _run_batches(ks, cells):
        fitted, batch_scores = lockstep(ks[batch], np.stack(comms[batch]))
        comms[batch] = list(fitted)
        scores.extend(batch_scores.tolist())
    best_score, best = -np.inf, np.zeros(n, dtype=np.int64)
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
    best_assign, best_score = _fit_ladder(
        _k_ladder(min(k_max, g.n)), np.random.SeedSequence(seed), restarts, g.n, lambda k: g.n + k,
        lambda ks, comm: _pp_lockstep(g, ks, comm, m, total_pairs, sweeps))
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


def _general_lockstep(units: WeightedGraph, ks: list[int], comm: np.ndarray, sweeps: int,
                      total_pairs: float) -> tuple[np.ndarray, np.ndarray]:
    """Full rate-matrix sweeps of every run in ``comm`` (runs, n), run r over
    blocks 0..ks[r]-1; returns the fitted assignments and their scores.

    A visit parks v outside every block and scores each candidate block b by
    the likelihood change of the rows it touches, for all runs at once. A
    run's score is its likelihood over its own k x k blocks less a
    model-order penalty that charges both the k(k+1)/2 rate parameters and
    the description length of the assignment itself (n log k), which keeps
    small graphs from splintering into spurious blocks.
    """
    R, K = comm.shape[0], max(ks)
    n_orig = float(units.sizes.sum())
    # penalty and assignment code length n log k by block count after a
    # move, which is never 0
    occ = np.arange(K + 2)
    occ_penalty = _penalty(occ, total_pairs)
    occ_code = n_orig * np.log(np.maximum(occ, 1))
    d = np.arange(K)
    # each run's edge weight between and (with loops) within blocks, and its
    # block sizes: its quotient graph, padded to K blocks
    M, sizes = np.zeros((R, K, K)), np.zeros((R, K))
    for r, c in enumerate(comm):
        q = units.quotient(c)
        M[r, np.repeat(d[: q.n], np.diff(q.indptr)), q.indices] = q.weights
        M[r, d[: q.n], d[: q.n]] = q.loops
        sizes[r, : q.n] = q.sizes
    upper = np.triu(np.ones((K, K), dtype=bool))

    def pair_counts(s):
        """(runs, K, K) node pairs within and between blocks of sizes s."""
        t = s[:, :, None] * s[:, None, :]
        t[:, d, d] = s * (s - 1) / 2.0
        return t

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
        base_rows = _bern(M0, pair_counts(sizes0))
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
    b = _bern(st["M"], pair_counts(st["sizes"]))
    like = np.array([np.triu(b[r, :k, :k]).sum() for r, k in enumerate(ks)])
    kocc = (st["sizes"] > 0).sum(axis=1)
    return st["comm"], like - _penalty(kocc, total_pairs) - n_orig * np.log(kocc)


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
    K = min(k_max, g.n)  # the widest level fits at most K blocks
    if K * K > LOCKSTEP_MAX_CELLS:
        raise InputError(f"H1 fits up to {K} blocks: a {K} x {K} block matrix exceeds "
                         f"the {LOCKSTEP_MAX_CELLS} cell bound; lower k_max")
    units = WeightedGraph.from_graph(g)
    to_unit = np.arange(g.n, dtype=np.int64)
    total_pairs = g.n * (g.n - 1) / 2.0
    root = np.random.SeedSequence(seed)
    levels = []  # (assignment over original nodes, k)
    level_seeds = root.spawn(16)
    for depth in range(16):
        # base levels always consider at least two blocks so the hierarchy
        # has somewhere to go; collapse is decided at the top instead
        ladder = [k for k in _k_ladder(min(k_max, units.n)) if k >= min(2, units.n)]
        comm, _ = _fit_ladder(ladder, level_seeds[depth], restarts, units.n, lambda k: units.n + k * k,
                              lambda ks, c: _general_lockstep(units, ks, c, sweeps, total_pairs))
        comm = relabel_by_first_occurrence(comm)
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
