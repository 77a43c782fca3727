"""Attention-distance profiles and exports, against independent oracles."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from clatt import analysis as an
from clatt import nn
from clatt import stats
from clatt import tensor as T
from clatt import training as tr
from clatt.partition import Clustering
from clatt.pe import laplacian_pe
from clatt.stats import bfs_distances
from clatt.synthetic import bridge_of_cliques, complete_graph, cycle_graph, erdos_renyi, star_graph
from test_stats import set_block_sources


def sp_distances(g):
    """All-pairs hop distances via scipy, independent of the BFS code."""
    adj = sp.csr_matrix(
        (np.ones(g.neighbors.size), g.neighbors, g.offsets), shape=(g.n, g.n)
    )
    return csgraph.shortest_path(adj, unweighted=True)


def fc(assignment, tag="LA"):
    return Clustering(assignment, algorithm_tag=tag)


def rand_qkv(d, seed):
    rng = np.random.default_rng(seed)
    prm = {}
    for name in ("q", "k", "v"):
        prm[f"w{name}"] = T.Tensor(rng.normal(size=(d, d)) / math.sqrt(d))
        prm[f"b{name}"] = T.Tensor(rng.normal(size=d) * 0.1)
    return prm


def global_record(probs):
    """A global-attention capture record over all n nodes from (heads, n, n)."""
    n = probs.shape[-1]
    everyone = np.arange(n)[None, :]
    return {
        "kind": "global",
        "layer": 0,
        "clustering": None,
        "probs": probs[None],
        "nodes": everyone,
        "index_table": everyone,
        "mask": np.ones((1, n), dtype=bool),
    }


def model_records(g, spec, assignment, pe=None):
    """Capture records of one forward pass of spec on g."""
    x = np.random.default_rng(0).normal(size=(g.n, 5))
    params = nn.init_params(spec, 5, 2, seed=0, pe_dim=None if pe is None else pe.shape[1])
    inp = nn.prepare_inputs(g, x, spec, {"LA": fc(assignment)}, pe=pe)
    capture = []
    with T.no_grad():
        nn.model_forward(spec, params, inp, capture=capture)
    return capture


def lgt_and_ggt_records(g, assignment, layers):
    """Records of an LGT-CLATT(LA) forward (cluster and local) and of a GGT
    forward (global)."""
    lgt = nn.ModelSpec(conv_type="LGT", use_clatt=True, clusterings=("LA",), layers=layers, hidden=8, heads=2)
    ggt = nn.ModelSpec(conv_type="GGT", pe="laplacian", layers=layers, hidden=8, heads=2)
    return model_records(g, lgt, assignment), model_records(g, ggt, assignment, pe=laplacian_pe(g, k=3).vectors)


def cluster_records(g, assignment, d=8, heads=2, seed=0):
    batch = nn.build_cluster_batch(fc(assignment))
    x = T.Tensor(np.random.default_rng(seed).normal(size=(g.n, d)))
    capture = []
    nn.clatt_forward(x, [batch], [rand_qkv(d, seed + 1)], heads, capture=capture, tags=("LA",), layer=0)
    return capture


def assert_matches_oracle(profile, records, g):
    """Entries equal a per-pair loop over all-pairs scipy distances, in
    (record, row, query, head) order."""
    dists = sp_distances(g)
    expect = []
    for rec in records:
        table, mask, probs = rec["index_table"], rec["mask"], rec["probs"]
        for r in range(table.shape[0]):
            keys = table[r, mask[r]]
            for qi in np.nonzero(rec["nodes"][r] >= 0)[0]:
                i = rec["nodes"][r, qi]
                for h in range(probs.shape[1]):
                    p = probs[r, h, qi, mask[r]]
                    avg = float((p * dists[i, keys]).sum() / p.sum())
                    expect.append((int(i), rec["layer"], h, rec["kind"], rec["clustering"], avg))
    assert len(profile.entries) == len(expect)
    for e, want in zip(profile.entries, expect):
        assert (e.node, e.layer, e.head, e.kind, e.clustering_tag) == want[:5]
        assert abs(e.avg_distance - want[5]) < 1e-12


def argsort_blocks_profile_oracle(records, g):
    """The former attention_distance_profile, which grouped each record's
    pairs by BFS block with a stable argsort of their slots and searchsorted
    bounds, with each block's hop counts from scipy's Dijkstra (the hop
    dtype's maximum where unreachable); everything else as the program does
    it."""
    live = []
    for rec in records:
        rows, queries = np.nonzero(rec["nodes"] >= 0)
        live.append((rows, queries, rec["nodes"][rows, queries]))
    attending = np.unique(np.concatenate([np.zeros(0, np.int64)] + [nodes for _, _, nodes in live]))
    step = max(1, 8 * stats.BLOCK_DISTANCES // (g.n * np.min_scalar_type(g.n).itemsize))
    groups = []
    for _, _, nodes in live:
        slot = np.searchsorted(attending, nodes)
        by_block = np.argsort(slot, kind="stable")
        bounds = np.append(np.searchsorted(slot[by_block], np.arange(0, attending.size, step)), slot.size)
        groups.append((slot, by_block, bounds))
    avgs = [np.empty((rows.size, rec["probs"].shape[1])) for rec, (rows, _, _) in zip(records, live)]
    unreachable = 0
    never = np.iinfo(stats.hop_dtype(g.n)).max
    for b, lo in enumerate(range(0, attending.size, step)):
        dist = csgraph.shortest_path(g.adjacency, method="D", unweighted=True, indices=attending[lo : lo + step])
        hops = np.where(np.isinf(dist), never, dist).astype(stats.hop_dtype(g.n))
        for rec, (rows, queries, _), (slot, by_block, bounds), avg in zip(records, live, groups, avgs):
            _, heads, _, width = rec["probs"].shape
            chunk = max(1, an.CHUNK_ELEMENTS // (heads * width))
            in_block = by_block[bounds[b] : bounds[b + 1]]
            for c in range(0, in_block.size, chunk):
                sel = in_block[c : c + chunk]
                pos = slot[sel] - lo
                avg[sel], dropped = an._average_distances(
                    hops[pos[:, None], rec["index_table"][rows[sel]]], rec, rows[sel], queries[sel]
                )
                unreachable += dropped
    kept = [
        an.ProfileRecord(rec["layer"], rec["kind"], rec.get("clustering"), nodes, avg)
        for rec, (_, _, nodes), avg in zip(records, live, avgs)
    ]
    return an.AttentionProfile(kept, unreachable)


def assert_same_profile(got, want):
    """Equal record for record: layer, kind and tag, the node and average
    arrays in value, dtype and shape, and the unreachable count."""
    assert len(got.records) == len(want.records)
    for a, b in zip(got.records, want.records):
        assert (a.layer, a.kind, a.clustering_tag) == (b.layer, b.kind, b.clustering_tag)
        for x, y in ((a.nodes, b.nodes), (a.avg, b.avg)):
            assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)
    assert got.unreachable_pairs == want.unreachable_pairs


def per_entry_csv_oracle(profile, path):
    """The former export_profile: one csv.writer row per entry."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["node", "layer", "head", "kind", "clustering", "avg_distance"])
        for e in profile.entries:
            w.writerow([e.node, e.layer, e.head, e.kind, e.clustering_tag or "", f"{e.avg_distance:.10g}"])


def dead_record():
    """A two-head KM cluster record whose queries are all padding: it has no
    live pairs."""
    return {
        "kind": "cluster",
        "layer": 0,
        "clustering": "KM",
        "probs": np.full((2, 2, 3, 3), 1 / 3),
        "nodes": np.full((2, 3), -1),
        "index_table": np.zeros((2, 3), dtype=np.int64),
        "mask": np.ones((2, 3), dtype=bool),
    }


def local_cycle_record(n, layer):
    """Each node of an n-cycle attends evenly to itself and its two neighbours."""
    table = np.stack([np.arange(n), (np.arange(n) + 1) % n, (np.arange(n) - 1) % n], axis=1)
    return {
        "kind": "local",
        "layer": layer,
        "clustering": None,
        "probs": np.full((n, 1, 1, 3), 1 / 3),
        "nodes": np.arange(n)[:, None],
        "index_table": table,
        "mask": np.ones((n, 3), dtype=bool),
    }


def random_reduction_case(seed, dtype):
    """A record and the gathered hop counts of some of its (row, query)
    pairs: masked slots and unreachable targets (the dtype's maximum) with
    positive probability, zero-probability keys, and pairs whose only kept
    target is the query itself. Each query's own slot is kept, at hop 0,
    with positive probability."""
    rng = np.random.default_rng(seed)
    n_rows, heads, n_queries, width = 7, 3, 4, 19
    never = np.iinfo(dtype).max
    own = np.stack([rng.permutation(width)[:n_queries] for _ in range(n_rows)])  # each query's own slot
    mask = rng.random((n_rows, width)) < 0.6
    mask[:2] = False  # these rows keep only their queries' own slots
    mask[np.arange(n_rows)[:, None], own] = True
    probs = rng.random((n_rows, heads, n_queries, width))
    probs[rng.random(probs.shape) < 0.2] = 0.0
    probs[np.arange(n_rows)[:, None], :, np.arange(n_queries)[None, :], own] += 0.5
    rows = rng.integers(0, n_rows, size=40)
    queries = rng.integers(0, n_queries, size=40)
    hops = rng.integers(0, never, size=(40, width)).astype(dtype)
    hops[rng.random(hops.shape) < 0.25] = never
    hops[:5] = never  # these pairs reach only their query
    hops[np.arange(40), own[rows, queries]] = 0
    rec = {"probs": probs, "mask": mask}
    return hops, rec, rows, queries


class TestAverageDistances:
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_entry_formula(self, seed, dtype):
        hops, rec, rows, queries = random_reduction_case(seed, dtype)
        before = rec["probs"].copy()
        avg, dropped = an._average_distances(hops, rec, rows, queries)
        assert np.array_equal(rec["probs"], before)  # the record is not written to
        reachable = hops != np.iinfo(dtype).max
        assert not reachable.all() and not rec["mask"].all()
        want = np.empty(avg.shape)
        want_dropped = 0
        for j, (r, q) in enumerate(zip(rows, queries)):
            k = rec["mask"][r] & reachable[j]
            d = hops[j].astype(np.float64)
            for h in range(avg.shape[1]):
                p = rec["probs"][r, h, q]
                want[j, h] = (p[k] * d[k]).sum() / p[k].sum()
                want_dropped += int(np.count_nonzero(rec["mask"][r] & ~reachable[j] & (p > 0)))
        np.testing.assert_allclose(avg, want, rtol=1e-13, atol=0)
        assert np.all(avg[:5] == 0.0)  # only the query itself is kept
        assert dropped == want_dropped > 0


class TestProfile:
    @given(st.integers(0, 10_000), st.sampled_from([1, 40, 97, 400, 1 << 18]))
    @settings(max_examples=25, deadline=None)
    def test_slot_range_blocks_match_former_argsort_blocks(self, seed, block_distances):
        # blocks of one node up to one block of every node, on graphs that
        # may be disconnected, so some attended targets are unreachable
        rng = np.random.default_rng(seed)
        g = erdos_renyi(int(rng.integers(5, 30)), 0.12, seed=seed)
        assignment = rng.integers(-1, 4, size=g.n)
        assignment[0] = 0
        lgt, ggt = lgt_and_ggt_records(g, assignment, layers=1)
        records = lgt + ggt
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stats, "BLOCK_DISTANCES", block_distances)
            got = an.attention_distance_profile(records, g)
            want = argsort_blocks_profile_oracle(records, g)
        assert_same_profile(got, want)

    def test_self_only_attention_is_zero(self):
        g = cycle_graph(4)
        rec = {
            "kind": "local",
            "layer": 0,
            "clustering": None,
            "probs": np.ones((4, 1, 1, 1)),
            "nodes": np.arange(4)[:, None],
            "index_table": np.arange(4)[:, None],
            "mask": np.ones((4, 1), dtype=bool),
        }
        profile = an.attention_distance_profile([rec], g)
        assert len(profile.entries) == 4
        assert all(e.avg_distance == 0.0 for e in profile.entries)

    def test_uniform_global_on_five_cycle(self):
        g = cycle_graph(5)
        profile = an.attention_distance_profile([global_record(np.full((1, 5, 5), 0.2))], g)
        assert len(profile.entries) == 5
        for e in profile.entries:
            assert abs(e.avg_distance - 1.2) < 1e-12

    def test_local_attention_bounded_by_one(self):
        g = erdos_renyi(14, 0.3, seed=2)
        spec = nn.ModelSpec(conv_type="LGT", layers=1, hidden=8, heads=2)
        params = nn.init_params(spec, 5, 2, seed=0)
        inp = nn.prepare_inputs(g, np.random.default_rng(0).normal(size=(14, 5)), spec)
        capture = []
        with T.no_grad():
            nn.model_forward(spec, params, inp, capture=capture)
        profile = an.attention_distance_profile(capture, g)
        assert len(profile.entries) == 14 * 2
        assert all(e.kind == "local" for e in profile.entries)
        assert all(e.avg_distance <= 1.0 + 1e-12 for e in profile.entries)
        assert profile.unreachable_pairs == 0

    def test_cluster_profile_matches_bfs_oracle(self):
        # one oracle loop over the records of every kind: clusters, the
        # neighbourhoods of an LGT-CLATT forward and a GGT forward
        g = bridge_of_cliques([4, 3])
        assignment = [0, 0, 0, 0, 1, 1, -1]
        kinds = set()
        for records in (cluster_records(g, assignment), *lgt_and_ggt_records(g, assignment, layers=2)):
            profile = an.attention_distance_profile(records, g)
            assert_matches_oracle(profile, records, g)
            kinds |= {e.kind for e in profile.entries}
        assert kinds == {"cluster", "local", "global"}

    @pytest.mark.parametrize("block_nodes", [1, 3, 40])
    def test_block_budget_does_not_change_entries(self, monkeypatch, block_nodes):
        # records of every kind share nodes; blocks of one node, of a few and
        # of every node reduce to the same entries, bit for bit
        g = erdos_renyi(40, 0.1, seed=4)
        assignment = np.random.default_rng(4).integers(-1, 4, size=g.n)
        lgt, ggt = lgt_and_ggt_records(g, assignment, layers=2)
        records = lgt + ggt
        default = an.attention_distance_profile(records, g)
        set_block_sources(monkeypatch, g.n, block_nodes)
        blocked = an.attention_distance_profile(records, g)
        assert_same_profile(blocked, default)
        assert_matches_oracle(blocked, records, g)

    def test_one_bfs_per_attending_node_across_records(self, monkeypatch):
        g = bridge_of_cliques([4, 3])
        lgt, ggt = lgt_and_ggt_records(g, [0, 0, 0, 0, 1, 1, -1], layers=2)
        records = lgt + ggt
        held = [np.unique(rec["nodes"][rec["nodes"] >= 0]) for rec in records]
        attending, times = np.unique(np.concatenate(held), return_counts=True)
        assert times.min() > 1  # every node attends in several records
        sources = []

        def counted(graph, block):
            sources.append(np.asarray(block).copy())
            return bfs_distances(graph, block)

        monkeypatch.setattr(an, "bfs_distances", counted)
        set_block_sources(monkeypatch, g.n, 3)
        an.attention_distance_profile(records, g)
        assert len(sources) == math.ceil(attending.size / 3)
        assert np.array_equal(np.concatenate(sources), attending)

    def test_memory_linear_in_graph_with_many_attending_nodes(self):
        import tracemalloc

        # one local record over a 3000-cycle: a BFS row kept per attending
        # node would hold n^2 floats (72 MB)
        g = cycle_graph(3000)
        n = g.n
        rec = local_cycle_record(n, 0)
        tracemalloc.start()
        try:
            profile = an.attention_distance_profile([rec], g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(profile.entries) == n
        assert all(abs(e.avg_distance - 2 / 3) < 1e-12 for e in profile.entries)
        assert peak < 8 * stats.BLOCK_DISTANCES + 1000 * (n + g.m)

    def test_memory_linear_in_shallow_graph_with_many_attending_nodes(self, monkeypatch):
        import tracemalloc

        # the twin of the cycle above on a 3000-star, whose blocks run the
        # level loop rather than Dijkstra: each node attends to itself and
        # the hub
        g = star_graph(3000)
        n = g.n
        table = np.stack([np.arange(n), np.zeros(n, np.int64)], axis=1)
        rec = {
            "kind": "local",
            "layer": 0,
            "clustering": None,
            "probs": np.full((n, 1, 1, 2), 1 / 2),
            "nodes": np.arange(n)[:, None],
            "index_table": table,
            "mask": np.ones((n, 2), dtype=bool),
        }
        loops = []
        level_loop = stats._level_loop

        def counted(*args):
            loops.append(args[1].size)
            return level_loop(*args)

        monkeypatch.setattr(stats, "_level_loop", counted)
        tracemalloc.start()
        try:
            profile = an.attention_distance_profile([rec], g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(loops) == n  # every block ran the level loop
        assert [e.avg_distance for e in profile.entries] == [0.0] + [0.5] * (n - 1)
        assert peak < 8 * stats.BLOCK_DISTANCES + 1000 * (n + g.m)

    def test_records_share_one_layout(self):
        g = bridge_of_cliques([4, 3])
        lgt, ggt = lgt_and_ggt_records(g, [0, 0, 0, 0, 1, 1, -1], layers=1)
        records = lgt + ggt
        assert {rec["kind"] for rec in records} == {"cluster", "local", "global"}
        for rec in records:
            assert set(rec) == {"kind", "layer", "clustering", "probs", "nodes", "index_table", "mask"}
            rows, heads, sq, s = rec["probs"].shape
            assert heads == 2
            assert rec["nodes"].shape == (rows, sq)
            assert rec["index_table"].shape == rec["mask"].shape == (rows, s)
        local = [rec for rec in records if rec["kind"] == "local"]
        assert all(rec["nodes"].shape[1] == 1 for rec in local)
        (glob,) = [rec for rec in records if rec["kind"] == "global"]
        assert glob["probs"].shape == (1, 2, g.n, g.n)

    def test_chunked_reduction_matches_whole_records(self, monkeypatch):
        g = bridge_of_cliques([4, 3])
        lgt, ggt = lgt_and_ggt_records(g, [0, 0, 0, 0, 1, 1, -1], layers=2)
        records = lgt + ggt
        whole = an.attention_distance_profile(records, g)
        monkeypatch.setattr(an, "CHUNK_ELEMENTS", 5)  # one or two pairs per chunk
        chunked = an.attention_distance_profile(records, g)
        assert_same_profile(chunked, whole)

    def test_unassigned_nodes_skipped(self):
        g = complete_graph(6)
        records = cluster_records(g, [0, 0, 0, -1, -1, 1], d=4, heads=2)
        # cluster of size 1 is legal in a prebuilt batch; nodes 3 and 4 are out
        profile = an.attention_distance_profile(records, g)
        nodes = {e.node for e in profile.entries}
        assert nodes == {0, 1, 2, 5}
        assert len(profile.entries) == 4 * 2

    def test_cluster_average_bounded_by_induced_diameter(self):
        for seed in range(5):
            g = erdos_renyi(12, 0.3, seed=seed)
            rng = np.random.default_rng(seed + 50)
            assignment = rng.integers(-1, 3, size=12)
            if (assignment >= 0).sum() < 2:
                assignment[:2] = 0
            records = cluster_records(g, assignment, d=4, heads=2, seed=seed)
            profile = an.attention_distance_profile(records, g)
            dists = sp_distances(g)
            for e in profile.entries:
                members = np.where(np.asarray(assignment) == assignment[e.node])[0]
                block = dists[np.ix_(members, members)]
                diam = block[np.isfinite(block)].max()
                assert e.avg_distance <= diam + 1e-12

    def test_unreachable_renormalized_and_counted(self):
        g = bridge_of_cliques([3, 3])
        # two triangles, bridge removed: drop the bridge by rebuilding
        edges = g.edge_array()
        keep = ~((edges[:, 0] == 2) & (edges[:, 1] == 3))
        from clatt.graphs import from_edges

        g2 = from_edges(edges[keep, 0], edges[keep, 1], n=6)
        profile = an.attention_distance_profile([global_record(np.full((1, 6, 6), 1 / 6))], g2)
        for e in profile.entries:
            assert abs(e.avg_distance - 2 / 3) < 1e-12
        assert profile.unreachable_pairs == 6 * 1 * 3

    def test_deterministic(self):
        g = erdos_renyi(10, 0.4, seed=1)
        records = cluster_records(g, [0, 0, 0, 1, 1, 1, -1, 2, 2, 2], d=4, seed=3)
        a = an.attention_distance_profile(records, g)
        b = an.attention_distance_profile(records, g)
        assert_same_profile(a, b)

    def test_unknown_kind_error(self):
        with pytest.raises(ValueError, match="kind"):
            an.attention_distance_profile([{"kind": "banana", "layer": 0, "probs": None}], cycle_graph(3))

    def test_distances_filter(self):
        g = cycle_graph(5)
        recs = [global_record(np.full((1, 5, 5), 0.2))] + cluster_records(g, [0, 0, 0, 0, 0], d=4, seed=0)
        profile = an.attention_distance_profile(recs, g)
        assert profile.distances("global").size == 5
        assert profile.distances("cluster", "LA").size == 10
        assert profile.distances().size == 15

    def test_entries_are_a_view_of_the_records(self):
        g = bridge_of_cliques([4, 3])
        lgt, ggt = lgt_and_ggt_records(g, [0, 0, 0, 0, 1, 1, -1], layers=2)
        profile = an.attention_distance_profile(lgt + ggt, g)
        want = []
        for r in profile.records:
            assert r.nodes.shape == (r.avg.shape[0],) and r.avg.dtype == np.float64
            for p in range(r.nodes.size):
                for h in range(r.avg.shape[1]):
                    want.append((int(r.nodes[p]), r.layer, h, r.kind, r.clustering_tag, float(r.avg[p, h])))
        entries = profile.entries
        assert [tuple(e) for e in entries] == want
        assert all(type(e.node) is int and type(e.avg_distance) is float for e in entries)
        assert len(entries) == profile.distances().size
        assert profile.distances().tolist() == [e.avg_distance for e in entries]
        for kind, tag in {(e.kind, e.clustering_tag) for e in entries}:
            picked = [e.avg_distance for e in entries if e.kind == kind and e.clustering_tag == tag]
            assert profile.distances(kind, tag).tolist() == picked

    def test_zero_pair_record_adds_no_rows_and_no_group(self, tmp_path):
        g = cycle_graph(5)
        records = [dead_record(), local_cycle_record(5, 0), global_record(np.full((1, 5, 5), 0.2)), local_cycle_record(5, 1)]
        profile = an.attention_distance_profile(records, g)
        dead = profile.records[0]
        assert dead.nodes.shape == (0,) and dead.avg.shape == (0, 2)
        assert (dead.kind, dead.clustering_tag) == ("cluster", "KM")
        assert profile.distances("cluster").size == 0
        assert len(profile.entries) == profile.distances().size == 5 + 5 + 5
        groups = [line.split()[0] for line in an.quantile_table(profile).splitlines()[1:]]
        assert groups == ["local", "global"]  # first appearance; no cluster[KM]
        an.export_profile(profile, tmp_path / "profile.csv")
        with open(tmp_path / "profile.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 15
        assert [row[3] for row in rows[1:]] == ["local"] * 5 + ["global"] * 5 + ["local"] * 5

    def test_profile_without_pairs_has_empty_distances(self):
        dead = an.attention_distance_profile([dead_record()], cycle_graph(4))
        for profile in (an.AttentionProfile([]), dead):
            got = profile.distances()
            assert got.dtype == np.float64 and got.shape == (0,)
            assert profile.entries == []
            assert "\n" not in an.quantile_table(profile)  # the header alone


class TestProfileModel:
    def test_cluster_and_conv_capture_through_predict(self):
        g = bridge_of_cliques([8, 8])
        labels = np.repeat(np.array([0, 1]), 8)
        data = tr.TrainData(
            g,
            np.random.default_rng(0).normal(size=(16, 4)),
            labels,
            "multiclass",
            num_classes=2,
            clusterings={"LA": fc(labels)},
        )
        spec = nn.ModelSpec(conv_type="LGT", use_clatt=True, clusterings=("LA",), layers=2, hidden=8, heads=2)
        params = {k: v.data for k, v in nn.init_params(spec, 4, 2, seed=0).items()}
        profile = an.profile_model(spec, params, data)
        kinds = {e.kind for e in profile.entries}
        assert kinds == {"local", "cluster"}
        # 2 layers x (16 nodes x 2 heads) per attention site
        assert len(profile.entries) == 2 * (16 * 2) * 2
        assert profile.unreachable_pairs == 0
        layers = {e.layer for e in profile.entries}
        assert layers == {0, 1}


class TestQuantiles:
    def test_median_example(self):
        assert an.quantiles([1, 2, 3, 4, 5], qs=(0.5,)) == [3.0]

    def test_constant_list(self):
        assert an.quantiles([7.0] * 9) == [7.0] * 5

    def test_matches_interpolation_oracle(self):
        vals = np.random.default_rng(0).uniform(size=100)
        got = an.quantiles(vals, qs=(0.95,))[0]
        v = np.sort(vals)
        h = 0.95 * (v.size - 1)
        lo = int(math.floor(h))
        expect = v[lo] + (h - lo) * (v[lo + 1] - v[lo])
        assert got == expect

    def test_non_decreasing(self):
        vals = np.random.default_rng(3).normal(size=57)
        qs = an.quantiles(vals)
        assert all(a <= b for a, b in zip(qs, qs[1:]))

    def test_empty_error(self):
        with pytest.raises(ValueError, match="empty"):
            an.quantiles([])

    def test_quantile_table_renders_groups(self):
        g = cycle_graph(5)
        recs = [global_record(np.full((1, 5, 5), 0.2))]
        profile = an.attention_distance_profile(recs, g)
        text = an.quantile_table(profile)
        assert "global" in text and "q0.5" in text
        assert "1.20" in text


class TestExports:
    def test_histogram_counts_sum(self, tmp_path):
        vals = np.random.default_rng(1).normal(size=200)
        path = tmp_path / "hist.csv"
        an.export_histogram(vals, bins=12, path=path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12
        assert sum(int(r["count"]) for r in rows) == 200
        lefts = [float(r["bin_left"]) for r in rows]
        assert lefts == sorted(lefts)

    def test_histogram_empty_error(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            an.export_histogram([], bins=4, path=tmp_path / "x.csv")

    def test_similarity_matrix_csv(self, tmp_path):
        a = fc([0, 0, 1, 1, 2, 2], tag="LA")
        b = fc([0, 0, 1, 1, 2, 2], tag="BPP")
        singletons = fc([0, 1, 2, 3, 4, 5], tag="KM")  # degenerate
        path = tmp_path / "cc.csv"
        an.export_similarity_matrix([a, b, singletons], path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["tag", "LA", "BPP", "KM"]
        assert float(rows[1][1]) == 1.0 and float(rows[2][2]) == 1.0
        assert rows[1][2] == rows[2][1]
        assert float(rows[1][2]) == 1.0
        assert rows[1][3].startswith("null: ") and rows[3][1] == rows[1][3]
        assert rows[3][3].startswith("null: ")

    def test_similarity_matrix_needs_two(self, tmp_path):
        with pytest.raises(ValueError, match="at least 2"):
            an.export_similarity_matrix([fc([0, 0, 1, 1])], tmp_path / "cc.csv")

    def test_profile_csv_rows(self, tmp_path):
        g = cycle_graph(5)
        recs = [global_record(np.full((1, 5, 5), 0.2))]
        profile = an.attention_distance_profile(recs, g)
        path = tmp_path / "profile.csv"
        an.export_profile(profile, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["node", "layer", "head", "kind", "clustering", "avg_distance"]
        assert len(rows) == 1 + len(profile.entries)
        assert rows[1][3] == "global"

    def test_profile_csv_bytes_match_per_entry_csv_writer(self, tmp_path):
        # several layers and kinds, no tag, tags csv must quote (a comma, a
        # quote) and one with format braces, 1 and 3 heads, a record with no
        # live pairs, and values that exercise the .10g format
        nan = float("nan")
        profile = an.AttentionProfile(
            [
                an.ProfileRecord(0, "local", None, np.array([3, 0, 7]), np.array([[0.0], [2.0], [1e-7]])),
                an.ProfileRecord(
                    0, "cluster", "LA,BPP", np.array([1, 4]), np.array([[123456.78901234, nan, 0.0], [2.0, 1e-7, 1 / 3]])
                ),
                an.ProfileRecord(1, "cluster", "LA,BPP", np.zeros(0, np.int64), np.zeros((0, 3))),
                an.ProfileRecord(1, "cluster", 'K"M{0}}', np.array([2]), np.array([[nan, 123456.78901234, 2.0]])),
                an.ProfileRecord(12, "global", None, np.array([5, 1999]), np.array([[1e-7], [0.0]])),
            ],
            unreachable_pairs=3,
        )
        an.export_profile(profile, tmp_path / "got.csv")
        per_entry_csv_oracle(profile, tmp_path / "want.csv")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert got.count(b"\r\n") == 1 + 3 + 6 + 3 + 2
        assert b',"LA,BPP",nan\r\n' in got and b',"K""M{0}}",' in got
        assert got.endswith(b"5,12,0,global,,1e-07\r\n1999,12,0,global,,0\r\n")

    def test_profile_csv_bytes_match_per_entry_csv_writer_on_model_records(self, tmp_path):
        g = erdos_renyi(30, 0.1, seed=5)
        assignment = np.random.default_rng(5).integers(-1, 4, size=g.n)
        lgt, ggt = lgt_and_ggt_records(g, assignment, layers=2)
        profile = an.attention_distance_profile(lgt + ggt, g)
        an.export_profile(profile, tmp_path / "got.csv")
        per_entry_csv_oracle(profile, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
