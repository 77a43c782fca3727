"""Distance, clustering, assortativity and homophily statistics.

Reference values come from independent oracles computed inline:
Floyd-Warshall and a unit-weight scipy Dijkstra for distances, triple
enumeration for clustering, a separate two-pass Pearson for assortativity.
Hop counts are compared with the float oracles through ``as_floats``.
"""

import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import csgraph

from clatt import stats
from clatt.graphs import from_edges
from clatt.stats import (
    bfs_distances,
    clustering_coefficients,
    compute_graph_stats,
    degree_assortativity,
    distance_stats,
    stats_to_dict,
    target_assortativity,
    unbiased_homophily,
)
from clatt.synthetic import (
    bridge_of_cliques,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    path_graph,
    sbm_graph,
    star_graph,
)


def floyd_warshall(g):
    d = np.full((g.n, g.n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v in g.edge_array():
        d[u, v] = d[v, u] = 1.0
    for k in range(g.n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def as_floats(hops):
    """bfs_distances' integer hop counts as float distances, inf where the
    count is its dtype's maximum, the unreachable mark."""
    dist = hops.astype(np.float64)
    dist[hops == np.iinfo(hops.dtype).max] = np.inf
    return dist


def set_block_sources(monkeypatch, n, k):
    """Set stats.BLOCK_DISTANCES so that blocks on an n-node graph hold k sources."""
    monkeypatch.setattr(stats, "BLOCK_DISTANCES", -(-k * n * stats.hop_dtype(n).itemsize // 8))
    assert stats.block_sources(n) == k


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    u, v = np.triu_indices(n, k=1)
    keep = rng.random(u.size) < p
    return from_edges(u[keep], v[keep], n=n)


def dijkstra_oracle(g, source):
    """One scipy Dijkstra call with unit weights over the whole block."""
    return csgraph.shortest_path(g.adjacency, method="D", unweighted=True, indices=source)


def grid_graph(rows, cols):
    idx = np.arange(rows * cols).reshape(rows, cols)
    u = np.r_[idx[:, :-1].ravel(), idx[:-1, :].ravel()]
    v = np.r_[idx[:, 1:].ravel(), idx[1:, :].ravel()]
    return from_edges(u, v, n=rows * cols)


def disjoint_union(*graphs, isolated=0):
    """The graphs side by side, node ids shifted, then ``isolated`` nodes."""
    edges, start = [], 0
    for g in graphs:
        edges.append(g.edge_array() + start)
        start += g.n
    e = np.concatenate(edges)
    return from_edges(e[:, 0], e[:, 1], n=start + isolated)


def traced_bfs(g, source):
    """bfs_distances and the branch it took: "single" (one Dijkstra call),
    "loop", "fallback" (the loop, then Dijkstra for sources still open at
    the level budget) or "handoff" (the probe sent the block to Dijkstra)."""
    with mock.patch.object(stats, "_level_loop", wraps=stats._level_loop) as loop, \
            mock.patch.object(stats, "_dijkstra", wraps=stats._dijkstra) as dijkstra:
        dist = bfs_distances(g, source)
    if loop.called:
        return dist, "fallback" if dijkstra.call_count > 1 else "loop"
    return dist, "handoff" if dijkstra.call_count > 1 else "single"


@st.composite
def connected_part(draw):
    family = draw(st.sampled_from(["er", "path", "cycle", "star", "grid"]))
    if family == "er":
        p = draw(st.sampled_from([0.03, 0.1, 0.3, 0.8]))
        return random_graph(draw(st.integers(1, 40)), p, draw(st.integers(0, 10_000)))
    if family == "grid":
        return grid_graph(draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    n = draw(st.integers(3, 45))
    return {"path": path_graph, "cycle": cycle_graph, "star": star_graph}[family](n)


@st.composite
def graph_and_sources(draw):
    parts = draw(st.lists(connected_part(), min_size=1, max_size=3))
    g = disjoint_union(*parts, isolated=draw(st.integers(0, 3)))
    kind = draw(st.sampled_from(["single", "block", "empty", "all"]))
    if kind == "single":
        return g, draw(st.integers(0, g.n - 1))
    if kind == "empty":
        return g, np.zeros(0, np.int64)
    if kind == "all":
        return g, np.arange(g.n)
    # drawn with replacement, so blocks repeat sources
    return g, np.array(draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=2 * g.n)), np.int64)


class TestBfs:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_floyd_warshall(self, seed):
        g = random_graph(n=14, p=0.18, seed=seed)
        ref = floyd_warshall(g)
        for s in range(g.n):
            assert np.array_equal(as_floats(bfs_distances(g, s)), ref[s])

    def test_path_distances(self):
        g = path_graph(6)
        assert bfs_distances(g, 0).tolist() == [0, 1, 2, 3, 4, 5]

    def test_unreachable_is_inf(self):
        g = from_edges([0], [1], n=4)
        d = bfs_distances(g, 0)
        assert d.dtype == np.uint8 and d.tolist() == [0, 1, 255, 255]
        d = as_floats(d)
        assert d[1] == 1.0 and np.isinf(d[2]) and np.isinf(d[3])

    def test_bad_source(self):
        with pytest.raises(ValueError, match=r"source 7 \(of 1\) out of range for n=3"):
            bfs_distances(path_graph(3), 7)
        # a block names its first bad source and its size, not every source
        with pytest.raises(ValueError, match=r"^source -1 \(of 5\) out of range for n=3$"):
            bfs_distances(path_graph(3), np.array([0, -1, 1, 9, 2]))

    @pytest.mark.parametrize(
        "source, match",
        [
            ([0.5], "dtype float64"),
            (1.0, "dtype float64"),
            (True, "dtype bool"),
            (np.array([True, False]), "dtype bool"),
            ([[0, 1], [2, 3]], r"shape \(2, 2\)"),
        ],
    )
    def test_refuses_sources_that_are_not_node_ids(self, source, match):
        with pytest.raises(ValueError, match=match):
            bfs_distances(path_graph(5), source)

    def test_matches_dijkstra_oracle_on_every_branch(self):
        branches = Counter()

        @given(graph_and_sources())
        @settings(max_examples=150, deadline=None)
        @example((path_graph(5), np.zeros(0, np.int32)))
        @example((star_graph(12), np.arange(12)))
        @example((path_graph(30), np.arange(30)))
        # the probe sits in the star, the larger component; the path's
        # sources are still searching at the level budget
        @example((disjoint_union(star_graph(30), path_graph(25), isolated=2), np.arange(57)))
        def check(case):
            g, sources = case
            ref = dijkstra_oracle(g, sources)
            dist, branch = traced_bfs(g, sources)
            branches[branch] += 1
            assert dist.dtype == stats.hop_dtype(g.n) and ref.dtype == np.float64
            assert dist.shape == ref.shape == np.shape(sources) + (g.n,)
            assert np.array_equal(as_floats(dist), ref)

        check()
        assert set(branches) == {"single", "loop", "fallback", "handoff"}, branches

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_source_array_stacks_single_rows(self, seed):
        g = random_graph(n=15, p=0.12, seed=seed)
        sources = np.random.default_rng(seed).integers(0, g.n, size=6)
        block = bfs_distances(g, sources)
        assert block.shape == (6, g.n)
        assert np.array_equal(block, np.stack([bfs_distances(g, int(s)) for s in sources]))


def assert_exact(g, sources, branch):
    """bfs_distances equals scipy's Dijkstra exactly and took ``branch``."""
    dist, took = traced_bfs(g, sources)
    assert took == branch
    assert dist.dtype == stats.hop_dtype(g.n)
    assert np.array_equal(as_floats(dist), dijkstra_oracle(g, sources))
    return dist


class TestLevelLoopEdgeCases:
    """The bit-parallel level loop against scipy's Dijkstra where words,
    reduceat segments, bit planes and the hop dtype have their edges."""

    @pytest.mark.parametrize("k", [1, 63, 64, 65, 128, 129])
    def test_block_sizes_around_a_word(self, k):
        g = erdos_renyi(300, 0.05, seed=7)
        sources = np.random.default_rng(k).permutation(g.n)[:k]
        assert_exact(g, sources, "single" if k == 1 else "loop")

    @pytest.mark.parametrize("sources", [[3, 3], [5, 3, 5, 5], [0] * 64 + [9] + [0] * 70])
    def test_repeated_source_keeps_every_bit(self, sources):
        g = erdos_renyi(80, 0.08, seed=2)
        dist = assert_exact(g, np.array(sources), "loop")
        first = {s: i for i, s in reversed(list(enumerate(sources)))}
        assert all(np.array_equal(dist[i], dist[first[s]]) for i, s in enumerate(sources))

    @pytest.mark.parametrize("isolated_first", [False, True])
    def test_zero_degree_nodes_in_the_middle_and_after_the_last_row(self, isolated_first):
        # two stars and a triangle, isolated nodes between them and after
        # the last non-empty row; every node is a source
        parts = [star_graph(6), complete_graph(1), star_graph(5), complete_graph(1), complete_graph(3)]
        if isolated_first:
            parts.insert(0, complete_graph(1))
        g = disjoint_union(*parts, isolated=3)
        assert g.degrees[-1] == 0 and g.degrees[-4] > 0
        assert_exact(g, np.arange(g.n), "loop")
        assert_exact(g, np.arange(g.n - 4, g.n), "loop")  # the last non-empty row's node and the isolated tail

    def test_several_components(self):
        g = disjoint_union(star_graph(40), cycle_graph(9), complete_graph(4), path_graph(7), isolated=2)
        assert g.components[1] == 6
        assert_exact(g, np.arange(g.n), "loop")
        assert_exact(g, np.arange(g.n)[::3], "loop")

    def test_depth_exactly_the_budget_needs_no_dijkstra(self):
        # the probe sits in the star; the path's end is LEVEL_BUDGET hops
        # from its start, so its search closes on the last level
        g = disjoint_union(star_graph(30), path_graph(stats.LEVEL_BUDGET + 1))
        assert_exact(g, np.array([0, 1, 30]), "loop")

    def test_one_level_deeper_finishes_that_source_by_dijkstra(self):
        g = disjoint_union(star_graph(30), path_graph(stats.LEVEL_BUDGET + 2))
        with mock.patch.object(stats, "_dijkstra", wraps=stats._dijkstra) as dijkstra:
            assert_exact(g, np.array([0, 1, 30, 35]), "fallback")
        # the probe, then only the path's end, the one source still open
        assert [c.args[1].tolist() for c in dijkstra.call_args_list] == [0, [30]]

    def test_all_four_planes_at_a_budget_of_fifteen(self, monkeypatch):
        monkeypatch.setattr(stats, "LEVEL_BUDGET", 15)
        dist = assert_exact(path_graph(16), np.array([0, 15, 7]), "loop")
        assert dist[0, 15] == 15

    def test_budget_above_fifteen_is_refused(self, monkeypatch):
        monkeypatch.setattr(stats, "LEVEL_BUDGET", 16)
        with pytest.raises(ValueError, match="four bit planes"):
            bfs_distances(star_graph(5), np.arange(5))

    @pytest.mark.parametrize("n, dtype", [(255, np.uint8), (256, np.uint16)])
    def test_hop_dtype_across_the_byte_boundary(self, n, dtype):
        # a star and a path, the rest isolated, so every source has
        # unreachable nodes; blocks run the loop, single sources Dijkstra
        g = disjoint_union(star_graph(120), path_graph(5), isolated=n - 125)
        assert stats.hop_dtype(n) == dtype
        for sources, branch in [(np.arange(n), "loop"), (np.arange(120, 127), "loop"), (130, "single")]:
            dist = assert_exact(g, sources, branch)
            assert dist.max() == np.iinfo(dtype).max
        # a path of n nodes: the farthest hop count is n - 1, one below the mark
        dist = assert_exact(path_graph(n), np.array([0, n - 1]), "handoff")
        assert dist.max() == n - 1 < np.iinfo(dtype).max


class TestComponents:
    def test_two_components(self):
        g = from_edges([0, 2], [1, 3], n=5)
        labels, c = g.components
        assert c == 3
        assert labels[0] == labels[1] and labels[2] == labels[3]
        assert labels[4] not in (labels[0], labels[2])
        assert g.components is g.components and not labels.flags.writeable

    @given(st.integers(1, 30), st.floats(0.0, 0.2), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_labels_rank_components_by_smallest_node(self, n, p, seed):
        g = random_graph(n=n, p=p, seed=seed)
        smallest = np.array([np.flatnonzero(np.isfinite(row))[0] for row in floyd_warshall(g)])
        expect = np.unique(smallest, return_inverse=True)[1]
        labels, c = g.components
        assert labels.dtype == np.int64
        assert np.array_equal(labels, expect) and c == expect.max() + 1


    def test_labels_are_found_once_per_graph(self, monkeypatch):
        calls = []
        find = csgraph.connected_components
        monkeypatch.setattr(csgraph, "connected_components", lambda *a, **kw: calls.append(1) or find(*a, **kw))
        g = cycle_graph(20)
        bfs_distances(g, np.arange(4))
        bfs_distances(g, np.arange(4, 8))
        distance_stats(g)
        assert len(calls) == 1


class TestDistanceStats:
    def test_cycle_closed_form(self):
        # C8: eccentricity 4 everywhere, mean distance = (1+2+3+4+3+2+1)/7
        ds = distance_stats(cycle_graph(8))
        assert ds.exact and ds.diameter == 4.0
        assert ds.avg_distance == pytest.approx(16 / 7)

    def test_complete(self):
        ds = distance_stats(complete_graph(7))
        assert ds.diameter == 1.0 and ds.avg_distance == 1.0

    def test_star(self):
        # hub at distance 1 from all; leaves pairwise at 2
        n = 9
        ds = distance_stats(star_graph(n))
        exp = (2 * (n - 1) * 1 + (n - 1) * (n - 2) * 2) / (n * (n - 1))
        assert ds.diameter == 2.0 and ds.avg_distance == pytest.approx(exp)

    @pytest.mark.parametrize("num_sources", [0, -1])
    def test_refuses_fewer_than_one_source(self, num_sources):
        with pytest.raises(ValueError, match=f"num_sources must be at least 1, got {num_sources}"):
            distance_stats(erdos_renyi(30, 0.2, seed=1), exact_threshold=5, num_sources=num_sources)

    def test_largest_component_only(self):
        g = from_edges([0, 1, 5], [1, 2, 6], n=7)
        ds = distance_stats(g)
        assert ds.component_size == 3 and ds.num_components == 4
        assert ds.diameter == 2.0

    def test_sampled_close_to_exact(self):
        g = erdos_renyi(300, 0.03, seed=5)
        exact = distance_stats(g)
        approx = distance_stats(g, exact_threshold=10, num_sources=150, seed=1)
        assert not approx.exact
        assert approx.diameter <= exact.diameter
        assert approx.avg_distance == pytest.approx(exact.avg_distance, rel=0.1)

    def test_sampled_on_disconnected_graph_stays_finite(self):
        # sweeps start inside the largest component; unreachable nodes must
        # not be taken as the farthest point
        g = from_edges(np.r_[np.arange(29), 30, 31], np.r_[np.arange(1, 30), 31, 32], n=36)
        exact = distance_stats(g)
        approx = distance_stats(g, exact_threshold=5, num_sources=4, seed=0)
        assert exact.exact and exact.diameter == 29.0
        assert not approx.exact and np.isfinite(approx.diameter)
        assert approx.diameter <= exact.diameter

    @pytest.mark.parametrize("sources_per_block", [None, 7])
    def test_sampled_mean_adds_source_means_in_order(self, monkeypatch, sources_per_block):
        g = erdos_renyi(120, 0.04, seed=3)
        if sources_per_block is not None:
            set_block_sources(monkeypatch, g.n, sources_per_block)
        labels, _ = g.components
        nodes = np.flatnonzero(labels == np.bincount(labels).argmax())
        sources = np.random.default_rng(2).choice(nodes, size=50, replace=False)
        acc = 0.0
        for s in sources:
            acc += bfs_distances(g, int(s))[nodes].sum() / (nodes.size - 1)
        ds = distance_stats(g, exact_threshold=10, num_sources=50, seed=2)
        assert ds.avg_distance == acc / 50
        ref = floyd_warshall(g)[np.ix_(nodes, nodes)]
        exact = distance_stats(g)
        assert exact.diameter == ref.max() and exact.avg_distance == ref.sum() / (nodes.size * (nodes.size - 1))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_exact_matches_floyd_warshall(self, seed):
        g = random_graph(n=12, p=0.25, seed=seed)
        labels, _ = g.components
        sizes = np.bincount(labels)
        comp = np.where(labels == sizes.argmax())[0]
        if comp.size < 2:
            return
        ref = floyd_warshall(g)[np.ix_(comp, comp)]
        off = ref[~np.eye(comp.size, dtype=bool)]
        ds = distance_stats(g)
        assert ds.diameter == off.max()
        assert ds.avg_distance == pytest.approx(off.mean())


def brute_clustering(g):
    """Triple enumeration oracle: (transitivity, mean local coefficient)."""
    adj = np.zeros((g.n, g.n), dtype=bool)
    for u, v in g.edge_array():
        adj[u, v] = adj[v, u] = True
    closed = 0
    wedges = 0
    local = np.zeros(g.n)
    for v in range(g.n):
        nb = np.where(adj[v])[0]
        k = nb.size
        if k < 2:
            continue
        links = sum(adj[a, b] for i, a in enumerate(nb) for b in nb[i + 1 :])
        wedges += k * (k - 1) // 2
        closed += links
        local[v] = links / (k * (k - 1) / 2)
    t = np.nan if wedges == 0 else closed / wedges
    return t, local.mean()


class TestClusteringCoefficients:
    def test_triangle(self):
        assert clustering_coefficients(complete_graph(3)) == (1.0, 1.0)

    def test_star_has_no_triangles(self):
        t, l = clustering_coefficients(star_graph(6))
        assert t == 0.0 and l == 0.0

    def test_path_no_wedge_closure(self):
        t, l = clustering_coefficients(path_graph(4))
        assert t == 0.0 and l == 0.0

    def test_single_edge_nan_transitivity(self):
        t, l = clustering_coefficients(from_edges([0], [1], n=2))
        assert np.isnan(t) and l == 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_triple_enumeration(self, seed):
        g = random_graph(n=13, p=0.3, seed=seed)
        t, l = clustering_coefficients(g)
        tb, lb = brute_clustering(g)
        if np.isnan(tb):
            assert np.isnan(t)
        else:
            assert t == pytest.approx(tb, abs=1e-12)
        assert l == pytest.approx(lb, abs=1e-12)


class TestClusteringCoefficientBlocks:
    GRAPHS = {
        "star": lambda: star_graph(300),
        "grid": lambda: grid_graph(12, 15),
        "sbm": lambda: sbm_graph([40, 30, 50], 0.3, 0.02, seed=3)[0],
        "er_union": lambda: disjoint_union(erdos_renyi(60, 0.2, seed=4), bridge_of_cliques([6, 5, 7]), isolated=3),
    }

    @pytest.mark.parametrize("name", GRAPHS)
    @pytest.mark.parametrize("budget", [1, 64, stats.SQUARE_BLOCK_ENTRIES])
    def test_blocks_match_the_whole_square(self, monkeypatch, name, budget):
        g = self.GRAPHS[name]()
        monkeypatch.setattr(stats, "SQUARE_BLOCK_ENTRIES", 1 << 62)  # one block: all of A @ A at once
        whole = clustering_coefficients(g)
        monkeypatch.setattr(stats, "SQUARE_BLOCK_ENTRIES", budget)
        np.testing.assert_array_equal(clustering_coefficients(g), whole)

    def test_star_square_stays_under_the_budget(self):
        g = star_graph(6000)  # A @ A holds 36 million entries: 824 MB at its peak in one block
        tracemalloc.start()
        try:
            assert clustering_coefficients(g) == (0.0, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 150 * 2**20


def pearson_two_pass(x, y):
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    if sxx == 0 or syy == 0:
        return float("nan")
    return sxy / (sxx * syy) ** 0.5


class TestAssortativity:
    def test_regular_graph_undefined(self):
        assert np.isnan(degree_assortativity(cycle_graph(6)))

    def test_star_is_minus_one(self):
        assert degree_assortativity(star_graph(8)) == pytest.approx(-1.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_two_pass_pearson(self, seed):
        g = random_graph(n=15, p=0.2, seed=seed)
        if g.m == 0:
            return
        degs = g.degrees
        xs, ys = [], []
        for u, v in g.edge_array():
            xs += [degs[u], degs[v]]
            ys += [degs[v], degs[u]]
        ref = pearson_two_pass(xs, ys)
        got = degree_assortativity(g)
        if np.isnan(ref):
            assert np.isnan(got)
        else:
            assert got == pytest.approx(ref, abs=1e-12)

    def test_target_assortativity_perfect(self):
        g = from_edges([0, 2], [1, 3], n=4)
        vals = np.array([1.0, 1.0, 5.0, 5.0])
        # within-edge values equal but across edges they vary: r = 1
        assert target_assortativity(g, vals) == pytest.approx(1.0)

    def test_target_assortativity_two_pass(self):
        g = random_graph(n=12, p=0.3, seed=7)
        rng = np.random.default_rng(0)
        vals = rng.normal(size=g.n)
        xs, ys = [], []
        for u, v in g.edge_array():
            xs += [vals[u], vals[v]]
            ys += [vals[v], vals[u]]
        assert target_assortativity(g, vals) == pytest.approx(
            pearson_two_pass(xs, ys), abs=1e-12)


class TestUnbiasedHomophily:
    def test_perfect_separation(self):
        g = from_edges([0, 1, 3, 4], [1, 2, 4, 5], n=6)
        labels = np.array([0, 0, 0, 1, 1, 1])
        assert unbiased_homophily(g, labels) == pytest.approx(1.0)

    def test_two_cliques_with_bridge(self):
        # hand computation: each clique holds 10 of 21 edges and half of the
        # degree mass, so the per-class purity is 20/21 and the balanced
        # score is (2 * 20/21 - 1) / (2 - 1) = 19/21
        g = bridge_of_cliques([5, 5])
        labels = np.array([0] * 5 + [1] * 5)
        h = unbiased_homophily(g, labels)
        assert h == pytest.approx(19 / 21)
        assert h > 0.9

    def test_alpha_one_is_degree_weighted_variant(self):
        g, labels = sbm_graph([30, 50], 0.3, 0.05, seed=2)
        lab = labels
        degs = g.degrees
        two_m = 2 * g.m
        p = np.array([degs[lab == k].sum() for k in range(2)]) / two_m
        within = np.zeros(2)
        for u, v in g.edge_array():
            if lab[u] == lab[v]:
                within[lab[u]] += 2
        c = within / two_m
        expected = (c.sum() - (p ** 2).sum()) / (1 - (p ** 2).sum())
        assert unbiased_homophily(g, lab, alpha=1.0) == pytest.approx(expected, abs=1e-12)

    def test_random_labels_near_zero(self):
        g, _ = sbm_graph([100, 100, 100], 0.1, 0.01, seed=0)
        rng = np.random.default_rng(42)
        vals = [unbiased_homophily(g, rng.integers(0, 4, size=g.n)) for _ in range(10)]
        assert all(abs(v) < 0.1 for v in vals)

    def test_heterophilous_is_negative(self):
        # complete bipartite: no within-class edge at all
        g = from_edges(np.repeat(np.arange(4), 4), np.tile(np.arange(4, 8), 4), n=8)
        labels = np.array([0] * 4 + [1] * 4)
        assert unbiased_homophily(g, labels) == pytest.approx(-1.0)

    def test_single_class_error(self):
        with pytest.raises(ValueError):
            unbiased_homophily(complete_graph(4), np.zeros(4, dtype=int))

    def test_relabeling_invariance(self):
        g, labels = sbm_graph([40, 40], 0.2, 0.02, seed=3)
        h1 = unbiased_homophily(g, labels)
        h2 = unbiased_homophily(g, 7 - labels * 3)
        assert h1 == pytest.approx(h2, abs=1e-14)

    def test_range(self):
        rng = np.random.default_rng(9)
        for seed in range(8):
            g = random_graph(12, 0.3, seed)
            if g.m == 0:
                continue
            labels = rng.integers(0, 3, size=g.n)
            try:
                h = unbiased_homophily(g, labels)
            except ValueError:
                continue
            assert -1.0 - 1e-12 <= h <= 1.0 + 1e-12


class TestGraphStatsBundle:
    def test_fields_and_json(self):
        g = bridge_of_cliques([5, 5])
        labels = np.array([0] * 5 + [1] * 5)
        stats = compute_graph_stats(g, targets=labels)
        assert stats.num_nodes == 10 and stats.num_edges == 21
        assert stats.avg_degree == pytest.approx(4.2)
        assert stats.median_degree == 4.0
        assert stats.diameter == 3.0
        assert stats.unbiased_homophily == pytest.approx(19 / 21)
        d = stats_to_dict(stats)
        assert d["num_nodes"] == 10
        assert d["target_assortativity"] is None  # NaN serialises to null
        import json
        json.dumps(d)

    def test_regression_branch(self):
        g = path_graph(5)
        stats = compute_graph_stats(g, targets=np.arange(5.0), task="regression")
        assert not np.isnan(stats.target_assortativity)
        assert np.isnan(stats.unbiased_homophily)

    def test_approximate_distance_flags(self):
        stats = compute_graph_stats(cycle_graph(12), exact_threshold=5)
        assert stats.flags["distances_approximate"] and stats.flags["diameter_is_lower_bound"]

    def test_disconnected_flag(self):
        g = from_edges([0, 3], [1, 4], n=6)
        stats = compute_graph_stats(g)
        assert stats.flags.get("distances_on_largest_component")
        assert stats.num_components == 4
