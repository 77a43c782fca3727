"""Graph summary statistics: distances, clustering, assortativity, homophily."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import InputError
from .graphs import Graph


# levels a block's level loop may run before the sources still searching go
# to Dijkstra. One level (a sparse product over the block's (n, k) frontier)
# cost 0.013-0.024 of a Dijkstra from the same sources on star, uniform and
# grid graphs and 0.05-0.07 on paths and cycles (BLAS one thread), so a block
# that gives up pays at most 0.7 of a Dijkstra on top; the uniform and skewed
# benchmark graphs finish in 5-9 levels.
LEVEL_BUDGET = 10


def _dijkstra(g: Graph, sources) -> np.ndarray:
    return csgraph.shortest_path(g.adjacency, method="D", unweighted=True, indices=sources)


def _level_loop(adj: sparse.csr_matrix, sources: np.ndarray, reach: int):
    """Advance every source of the block one hop per sparse product until
    ``reach`` (node, source) pairs are found or LEVEL_BUDGET levels ran.

    Returns the (n, k) hop counts, the (n, k) mask of pairs not found and
    the (k,) mask of sources whose frontier was still live at the budget.
    A pair's count is the number of levels it stayed unseen, so it is its
    distance once found.
    """
    n, k = adj.shape[0], sources.size
    cols = np.arange(k)
    front = np.zeros((n, k), np.float32)
    front[sources, cols] = 1
    unseen = np.ones((n, k), bool)
    unseen[sources, cols] = False
    hops = unseen.astype(np.uint8)
    new = np.zeros((n, k), bool)
    found = k
    for _ in range(LEVEL_BUDGET):
        if found == reach:
            break
        np.greater(adj @ front, 0, out=new)
        new &= unseen
        unseen ^= new
        hops += unseen
        found += np.count_nonzero(new)
        np.copyto(front, new)
    live = new.any(axis=0) if found < reach else np.zeros(k, bool)
    return hops, unseen, live


def bfs_distances(g: Graph, source) -> np.ndarray:
    """Hop distances as floats, inf for unreachable nodes: shape (n,) from
    an int ``source``, (k, n) from a 1-D integer array of k sources.

    A block runs a level-synchronous BFS, all sources at once, when a
    Dijkstra probe from a source in the block's largest component reaches
    that component within LEVEL_BUDGET hops; deeper blocks, and sources
    whose search is still open at the budget, go to Dijkstra. Distances are
    whole numbers, so either way gives the same floats.
    """
    sources = np.asarray(source)
    if sources.dtype.kind not in "iu":
        raise ValueError(f"sources must be integer node ids, got dtype {sources.dtype}")
    if sources.ndim > 1:
        raise ValueError(f"sources must be one id or a 1-D block, got shape {sources.shape}")
    bad = np.flatnonzero((sources < 0) | (sources >= g.n))
    if bad.size:
        raise ValueError(f"source {sources.flat[bad[0]]} (of {sources.size}) out of range for n={g.n}")
    if sources.ndim == 0 or sources.size < 2:
        return _dijkstra(g, sources)
    labels, _ = g.components
    sizes = np.bincount(labels)[labels[sources]]
    probe = _dijkstra(g, sources[sizes.argmax()])
    if probe[np.isfinite(probe)].max() > LEVEL_BUDGET:
        return _dijkstra(g, sources)
    reach = int(sizes.sum())
    hops, unseen, live = _level_loop(g.adjacency.astype(np.float32), sources, reach)
    dist = hops.T.astype(np.float64, order="C")
    if reach < dist.size:
        np.copyto(dist, np.inf, where=unseen.T)
    if live.any():
        dist[live] = _dijkstra(g, sources[live])
    return dist


# distances one bfs_distances call returns at most, here and in the
# attention profile: 2 MB of float64 (16 MB raised analyze peak RSS by ~10 %).
# A level-loop block holds 11 bytes per cell while it runs (float32 frontier
# and product, three bool/uint8 masks), 2.9 MB at this budget.
BLOCK_DISTANCES = 1 << 18


def _component_distances(g: Graph, sources: np.ndarray, nodes: np.ndarray):
    """Distances from ``sources`` to the ``nodes`` of their component, one
    block of sources at a time. They are whole numbers, so float sums of
    them are exact."""
    step = max(1, BLOCK_DISTANCES // g.n)
    for lo in range(0, sources.size, step):
        yield bfs_distances(g, sources[lo : lo + step])[:, nodes]


@dataclass
class DistanceStats:
    diameter: float
    avg_distance: float
    exact: bool
    component_size: int
    num_components: int


def distance_stats(g: Graph, exact_threshold: int = 20000,
                   num_sources: int = 1000, seed: int = 0) -> DistanceStats:
    """Diameter and mean shortest-path distance over the largest component.

    Exact all-pairs BFS when the component has at most ``exact_threshold``
    nodes. Above that the mean is estimated from ``num_sources`` uniformly
    sampled sources and the diameter is a lower bound from repeated
    farthest-point sweeps; ``exact`` is False in that case.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    if num_sources < 1:
        raise ValueError(f"num_sources must be at least 1, got {num_sources}")
    labels, ncomp = g.components
    sizes = np.bincount(labels, minlength=ncomp)
    nodes = np.where(labels == int(sizes.argmax()))[0]
    nc = nodes.size
    if nc == 1:
        return DistanceStats(0.0, 0.0, True, 1, ncomp)
    if nc <= exact_threshold:
        total = 0
        diam = 0
        for d in _component_distances(g, nodes, nodes):
            total += int(d.sum())
            diam = max(diam, int(d.max()))
        avg = total / (nc * (nc - 1))
        return DistanceStats(float(diam), float(avg), True, nc, ncomp)
    rng = np.random.default_rng(seed)
    sources = rng.choice(nodes, size=min(num_sources, nc), replace=False)
    means = []
    diam = 0
    for d in _component_distances(g, sources, nodes):
        means.append(d.sum(axis=1) / (nc - 1))
        diam = max(diam, int(d.max()))
    # a running sum in source order; a pairwise sum would round differently
    acc = np.cumsum(np.concatenate(means))[-1]
    far = int(sources[0])
    for _ in range(4):  # farthest-point sweeps tighten the diameter bound
        d = bfs_distances(g, far)
        d[np.isinf(d)] = -1  # nodes outside the component must not win argmax
        far = int(d.argmax())
        diam = max(diam, int(d.max()))
    return DistanceStats(float(diam), float(acc / len(sources)), False, nc, ncomp)


# stored entries of one block of A @ A rows in clustering_coefficients: 48 MB of float64
# values and int32 indices, however high the degrees (the whole A @ A of a 20 000-node star
# holds 4 * 10^8, 4.8 GB); scipy's product needs about as much again while it runs.
SQUARE_BLOCK_ENTRIES = 1 << 22


def clustering_coefficients(g: Graph) -> tuple[float, float]:
    """(global transitivity, mean local clustering).

    Nodes with degree < 2 contribute 0 to the local average. Returns NaN
    transitivity when the graph has no wedges.
    """
    degs = g.degrees
    a = g.adjacency
    # row u of (A @ A) * A: common neighbours of u and each of its neighbours, which counts each
    # triangle at u twice. Row u of A @ A stores at most min(n, its neighbours' degree sum)
    # entries, so blocks of rows stay under SQUARE_BLOCK_ENTRIES (one row alone may exceed it).
    ends = np.cumsum(np.minimum(a @ degs, g.n))
    twice = np.zeros(g.n, dtype=np.int64)
    start, done = 0, 0
    while start < g.n:
        stop = max(start + 1, int(np.searchsorted(ends, done + SQUARE_BLOCK_ENTRIES, "right")))
        rows = a[start:stop]
        twice[start:stop] = np.asarray((rows @ a).multiply(rows).sum(axis=1)).ravel()
        start, done = stop, ends[stop - 1]
    closed = int(twice.sum()) // 2
    tri_at = twice // 2
    wedges_at = degs * (degs - 1) // 2
    total_wedges = int(wedges_at.sum())
    global_cc = float("nan") if total_wedges == 0 else closed / total_wedges
    with np.errstate(invalid="ignore", divide="ignore"):
        local = np.where(wedges_at > 0, tri_at / np.maximum(wedges_at, 1), 0.0)
    return global_cc, float(local.mean())


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc = x - x.mean()
    yc = y - y.mean()
    sx = np.sqrt((xc * xc).sum())
    sy = np.sqrt((yc * yc).sum())
    if sx == 0.0 or sy == 0.0:
        return float("nan")
    return float((xc * yc).sum() / (sx * sy))


def _endpoint_values(g: Graph, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    src = np.repeat(np.arange(g.n), g.degrees)
    return values[src], values[g.neighbors]


def degree_assortativity(g: Graph) -> float:
    """Pearson correlation of endpoint degrees over directed edge copies.

    NaN when every edge joins equal-degree endpoints (zero variance).
    """
    if g.m == 0:
        return float("nan")
    x, y = _endpoint_values(g, g.degrees.astype(np.float64))
    return _pearson(x, y)


def target_assortativity(g: Graph, values: np.ndarray) -> float:
    """Pearson correlation of a numeric node attribute across edges."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (g.n,):
        raise ValueError("need one value per node")
    if g.m == 0:
        return float("nan")
    x, y = _endpoint_values(g, values)
    return _pearson(x, y)


def unbiased_homophily(g: Graph, labels: np.ndarray, alpha: float = 0.0) -> float:
    """Label homophily normalised so class count and class sizes do not bias it.

    With degree shares p_k and within-class edge-end shares c_kk, computes
    sum_k p_k^alpha (c_kk / p_k - p_k) scaled by its maximum (positive side)
    or its magnitude at zero within-class mass (negative side), so the value
    is 1 for perfectly homophilous labelings, about 0 for labels independent
    of edges, and at worst -1. ``alpha=0`` (default) weights classes equally;
    ``alpha=1`` recovers the degree-weighted variant. Classes with no edge
    endpoints are dropped; fewer than two remaining classes is an error.
    """
    labels = np.asarray(labels)
    if labels.shape != (g.n,):
        raise ValueError("need one label per node")
    if g.m == 0:
        raise InputError("homophily undefined for an edgeless graph")
    _, lab = np.unique(labels, return_inverse=True)
    k = int(lab.max()) + 1
    two_m = 2 * g.m
    deg_share = np.bincount(lab, weights=g.degrees, minlength=k) / two_m
    lu, lv = _endpoint_values(g, lab)
    within = np.bincount(lu[lu == lv], minlength=k) / two_m
    live = deg_share > 0
    if int(live.sum()) < 2:
        raise InputError("homophily needs at least two classes with edges")
    p = deg_share[live]
    c = within[live]
    w = p ** alpha
    raw = float((w * (c / p - p)).sum())
    pos_scale = float((w * (1.0 - p)).sum())
    neg_scale = float((w * p).sum())
    return raw / pos_scale if raw >= 0 else raw / neg_scale


@dataclass
class GraphStats:
    """Summary row for one graph; distance fields cover the largest component."""

    num_nodes: int
    num_edges: int
    avg_degree: float
    median_degree: float
    diameter: float
    avg_distance: float
    global_clustering: float
    avg_local_clustering: float
    degree_assortativity: float
    unbiased_homophily: float = float("nan")
    target_assortativity: float = float("nan")
    num_components: int = 1
    largest_component_size: int = 0
    flags: dict = field(default_factory=dict)


def compute_graph_stats(g: Graph, targets: np.ndarray | None = None,
                        task: str = "multiclass", exact_threshold: int = 20000,
                        seed: int = 0) -> GraphStats:
    """Compute the full summary. ``targets`` adds homophily (classification)
    or target assortativity (regression)."""
    dstats = distance_stats(g, exact_threshold=exact_threshold, seed=seed)
    global_cc, local_cc = clustering_coefficients(g)
    deg_r = degree_assortativity(g)
    flags = {}
    if not dstats.exact:
        flags["distances_approximate"] = True
        flags["diameter_is_lower_bound"] = True
    if dstats.num_components > 1:
        flags["distances_on_largest_component"] = True
    if np.isnan(deg_r):
        flags["degree_assortativity_undefined"] = True
    hom = float("nan")
    t_assort = float("nan")
    if targets is not None:
        if task == "regression":
            t_assort = target_assortativity(g, targets)
            if np.isnan(t_assort):
                flags["target_assortativity_undefined"] = True
        else:
            hom = unbiased_homophily(g, targets)
    degs = g.degrees
    return GraphStats(
        num_nodes=g.n,
        num_edges=g.m,
        avg_degree=float(2 * g.m / g.n),
        median_degree=float(np.median(degs)),
        diameter=dstats.diameter,
        avg_distance=dstats.avg_distance,
        global_clustering=global_cc,
        avg_local_clustering=local_cc,
        degree_assortativity=deg_r,
        unbiased_homophily=hom,
        target_assortativity=t_assort,
        num_components=dstats.num_components,
        largest_component_size=dstats.component_size,
        flags=flags,
    )


def stats_to_dict(stats: GraphStats) -> dict:
    """JSON-safe dict keyed by field names; non-finite floats become null."""
    out = {}
    for name, val in vars(stats).items():
        if isinstance(val, float) and not np.isfinite(val):
            out[name] = None
        else:
            out[name] = val
    return out
