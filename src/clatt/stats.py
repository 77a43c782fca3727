"""Graph summary statistics: distances, clustering, assortativity, homophily."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import InputError
from .graphs import Graph


# levels a block's level loop may run before the sources still searching go
# to Dijkstra; at most 15, the largest hop count four bit planes hold. One
# level (a gather and an OR-reduction per word of 64 sources) cost
# 0.004-0.007 of a Dijkstra from the same sources on star, uniform, skewed and
# grid graphs and 0.013-0.021 on paths and cycles, and unpacking the block's
# hop counts once 0.015-0.03 (0.08-0.12), so a block that gives up pays about
# 0.3 of a Dijkstra on top; the uniform and skewed benchmark graphs finish in
# 5-8 levels.
LEVEL_BUDGET = 10

# one machine word of the level loop: bit j of word w of a node stands for
# source 64 w + j of the block. Little-endian, so that its bytes unpack in
# source order.
_WORD = np.dtype("<u8")


def hop_dtype(n: int) -> np.dtype:
    """The dtype of bfs_distances' hop counts on an n-node graph: the
    smallest unsigned type that holds n. Its maximum marks an unreachable
    node; a hop count is at most n - 1."""
    return np.min_scalar_type(n)


def _dijkstra(g: Graph, sources) -> np.ndarray:
    """Hop counts from ``sources`` (one id or a 1-D block) by scipy's
    unit-weight Dijkstra, BLOCK_DISTANCES // n sources at a time; each
    float64 sub-block is converted in place."""
    sources = np.asarray(sources)
    out = np.empty(sources.shape + (g.n,), hop_dtype(g.n))
    rows, flat = out.reshape(sources.size, g.n), sources.reshape(-1)
    step = max(1, BLOCK_DISTANCES // max(g.n, 1))
    for lo in range(0, flat.size, step):
        dist = csgraph.shortest_path(g.adjacency, method="D", unweighted=True, indices=flat[lo : lo + step])
        dist[np.isinf(dist)] = np.iinfo(out.dtype).max
        rows[lo : lo + step] = dist
        del dist  # not held while the next sub-block is computed
    return out


def _source_words(sources: np.ndarray, keys: np.ndarray, width: int) -> np.ndarray:
    """(⌈k/64⌉, width) words with the bit of each source set at its key.
    The OR goes through ``np.bitwise_or.at``: a fancy-indexed ``|=`` keeps
    only one bit of a source repeated in the block."""
    cols = np.arange(sources.size)
    words = np.zeros((-(-sources.size // 64), width), _WORD)
    np.bitwise_or.at(words, (cols >> 6, keys), np.left_shift(np.uint64(1), (cols & 63).astype(_WORD)))
    return words


def _level_loop(adj: sparse.csr_matrix, sources: np.ndarray, reach: np.ndarray):
    """Advance every source of the block one hop per level, 64 sources to a
    machine word, until each source has seen every node that shares its
    label in ``reach`` (the component labels) or LEVEL_BUDGET levels ran.

    A level is, per word, a gather of the frontier over the CSR column
    indices and an OR over each row's neighbours (``np.bitwise_or.reduceat``);
    a word leaves the loop once its seen set is complete. Each pair's level
    is kept in four bit planes. Returns the (k, n) hop counts, as
    ``bfs_distances`` returns them, and the (k,) mask of sources whose search
    was still open at the budget.
    """
    if not 1 <= LEVEL_BUDGET <= 15:
        raise ValueError(f"LEVEL_BUDGET is {LEVEL_BUDGET}; four bit planes count 1 to 15 levels")
    n, k = adj.shape[0], sources.size
    width = -(-(n + 1) // 64) * 64  # whole 64-node blocks and an always-empty column n
    front = _source_words(sources, sources, width)
    # bit planes 0-3 of each pair's hop count, then its seen bit
    state = np.zeros((5,) + front.shape, _WORD)
    planes, seen = state[:4], state[4]
    seen[...] = front
    target = _source_words(sources, reach[sources], int(reach.max()) + 1)[:, reach]
    # every row gets at least one neighbour, column n for an empty one, so
    # that each segment of reduceat is its row: a start equal to the next
    # would give that next element, and a start past the end is refused
    empty = np.diff(adj.indptr) == 0
    indices = np.insert(adj.indices.astype(np.intp), adj.indptr[:-1][empty], n)
    starts = adj.indptr[:-1] + np.cumsum(empty) - empty
    open_words = [w for w in range(front.shape[0]) if not np.array_equal(seen[w, :n], target[w])]
    for level in range(1, LEVEL_BUDGET + 1):
        if not open_words:
            break
        for w in open_words:
            new = np.bitwise_or.reduceat(np.take(front[w], indices), starts)
            new &= ~seen[w, :n]
            front[w, :n] = new
            seen[w, :n] |= new
            for b in range(4):
                if level >> b & 1:
                    planes[b, w, :n] |= new
        open_words = [w for w in open_words if not np.array_equal(seen[w, :n], target[w])]
    cols = np.arange(k)
    missing = np.bitwise_or.reduce(target & ~seen[:, :n], axis=1)
    live = ((missing[cols >> 6] >> (cols & 63).astype(_WORD)) & np.uint64(1)).astype(bool)
    np.invert(seen, out=seen)
    return _unpack_hops(state, k, n), live


def _transpose_bits(rows: np.ndarray) -> None:
    """Transpose in place the 64 x 64 bit matrices whose rows are the
    ``rows`` (64, ...) of a contiguous uint64 array: bit j of rows[i] becomes
    bit i of rows[j]. Six rounds swap ever smaller off-diagonal sub-blocks
    (Hacker's Delight, 7-3); the matrices run along the last axes, so every
    operation runs over whole rows."""
    j, mask = 32, np.uint64(0xFFFFFFFF)
    while j:
        pairs = rows.reshape((32 // j, 2, j) + rows.shape[1:])
        lo, hi = pairs[:, 0], pairs[:, 1]
        swap = ((lo >> np.uint64(j)) ^ hi) & mask
        lo ^= swap << np.uint64(j)
        hi ^= swap
        j //= 2
        mask ^= mask << np.uint64(j)


def _unpack_hops(state: np.ndarray, k: int, n: int) -> np.ndarray:
    """(k, n) hop counts from the level loop's four node-major bit planes
    and its unseen bits, ``state`` (5, words, width): bit-transposed to
    source-major, then unpacked one word of 64 sources at a time."""
    words, width = state.shape[1:]
    # (plane, word, chunk, node in chunk) -> (node in chunk, plane, word, chunk),
    # bit-transposed to (source in word, plane, word, chunk)
    rows = np.ascontiguousarray(state.reshape(5, words, width // 64, 64).transpose(3, 0, 1, 2))
    _transpose_bits(rows)
    out = np.empty((k, n), hop_dtype(n))
    for w in range(words):
        dst = out[64 * w : 64 * w + 64]
        planes = rows[: dst.shape[0], :, w].view(np.uint8)

        def unpack(p):
            return np.unpackbits(planes[:, p], axis=-1, bitorder="little")[:, :n]

        # Horner's rule by multiplication: numpy shifts bytes several times slower
        hops = unpack(3)
        for p in (2, 1, 0):
            hops *= np.uint8(2)
            hops += unpack(p)
        # an unseen pair's planes are zero: its negated bit makes it 255,
        # -1 as int8, which the cast wraps to the type's maximum
        unseen = unpack(4)
        hops |= np.negative(unseen, out=unseen)
        np.copyto(dst, hops.view(np.int8), casting="unsafe")
    return out


def bfs_distances(g: Graph, source) -> np.ndarray:
    """Hop counts as ``hop_dtype(g.n)`` integers, its maximum for unreachable
    nodes: shape (n,) from an int ``source``, (k, n) from a 1-D integer
    array of k sources.

    A block runs a level-synchronous, bit-parallel BFS, all sources at once,
    when a Dijkstra probe from a source in the block's largest component
    reaches that component within LEVEL_BUDGET hops; deeper blocks, and
    sources whose search is still open at the budget, go to Dijkstra.
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
    if probe[probe < np.iinfo(probe.dtype).max].max() > LEVEL_BUDGET:
        return _dijkstra(g, sources)
    hops, live = _level_loop(g.adjacency, sources, labels)
    if live.any():
        hops[live] = _dijkstra(g, sources[live])
    return hops


# one bfs_distances call returns at most 8 * BLOCK_DISTANCES bytes of hop
# counts, here and in the attention profile: 2 MB (16 MB raised analyze peak
# RSS by ~10 %), 524 sources at n = 2000. Dijkstra runs in float64 sub-blocks
# of BLOCK_DISTANCES cells. A level-loop block peaks at about 4.4 bytes a cell
# while it runs (2 of its uint16 result, 5 bits of state and their
# bit-transposed copy, one word's unpacked bytes), 4.6 MB at this budget.
BLOCK_DISTANCES = 1 << 18


def block_sources(n: int) -> int:
    """Sources per bfs_distances call on an n-node graph: as many as fill
    8 * BLOCK_DISTANCES bytes of hop counts, and at least one."""
    return max(1, 8 * BLOCK_DISTANCES // (max(n, 1) * hop_dtype(n).itemsize))


def _component_distances(g: Graph, sources: np.ndarray, nodes: np.ndarray):
    """Hop counts from ``sources`` to the ``nodes`` of their component, one
    block of sources at a time."""
    step = block_sources(g.n)
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
        d[d == np.iinfo(d.dtype).max] = 0  # nodes outside the component must not win argmax
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
