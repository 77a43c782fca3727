import math

import numpy as np
import pytest

import scipy.sparse as sp

from clatt import nn, pe
from clatt import tensor as T
from clatt.errors import InputError
from clatt.graphs import from_edges
from clatt.partition import Clustering
from clatt.pe import deepwalk_pe, laplacian_pe
from clatt.stats import connected_components
from clatt.synthetic import bridge_of_cliques, complete_graph, cycle_graph, erdos_renyi, path_graph, sbm_graph, star_graph


def fc(assignment):
    return Clustering(assignment)


def softmax_rows(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def naive_cluster_attention(x, assignment, prm, heads):
    """Loop-over-clusters dense attention, no padding anywhere."""
    n, d = x.shape
    dh = d // heads
    q = x @ prm["wq"] + prm["bq"]
    k = x @ prm["wk"]
    v = x @ prm["wv"] + prm["bv"]
    out = np.zeros((n, d))
    for cid in np.unique(assignment[assignment >= 0]):
        members = np.where(assignment == cid)[0]
        for h in range(heads):
            sl = slice(h * dh, (h + 1) * dh)
            logits = q[members][:, sl] @ k[members][:, sl].T / math.sqrt(dh)
            out[np.ix_(members, range(h * dh, (h + 1) * dh))] = softmax_rows(logits) @ v[members][:, sl]
    return out


def rand_qkv(rng, d, d_in=None):
    d_in = d if d_in is None else d_in
    return {
        "wq": rng.standard_normal((d_in, d)) * 0.3,
        "bq": rng.standard_normal(d) * 0.1,
        "wk": rng.standard_normal((d_in, d)) * 0.3,
        "wv": rng.standard_normal((d_in, d)) * 0.3,
        "bv": rng.standard_normal(d) * 0.1,
    }


def as_tensors(prm, requires_grad=False):
    return {k: T.Tensor(v, requires_grad=requires_grad) for k, v in prm.items()}


class TestClusterBatch:
    def test_two_cluster_layout(self):
        batch = nn.build_cluster_batch(fc([0, 0, 0, 0, 1, 1, 1, 1, 1]))
        assert batch.index_table.shape == (2, 5)
        assert batch.mask.sum() == 9
        np.testing.assert_array_equal(batch.index_table[0], [0, 1, 2, 3, 0])
        np.testing.assert_array_equal(batch.mask[0], [True] * 4 + [False])
        np.testing.assert_array_equal(batch.index_table[1], [4, 5, 6, 7, 8])

    def test_equal_sizes_no_padding(self):
        batch = nn.build_cluster_batch(fc([0, 1, 0, 1]))
        assert batch.mask.all()

    def test_slots_sorted_by_node_id(self):
        batch = nn.build_cluster_batch(fc([1, 0, 1, 0, 1]))
        np.testing.assert_array_equal(batch.index_table[0, :2], [1, 3])
        np.testing.assert_array_equal(batch.index_table[1], [0, 2, 4])

    def test_scatter_roundtrip_identity(self):
        rng = np.random.default_rng(0)
        assignment = np.array([0, -1, 0, 1, 1, 1, -1, 0])
        batch = nn.build_cluster_batch(fc(assignment))
        x = rng.standard_normal((8, 3))
        back = np.zeros_like(x)
        for c in batch.classes:
            gathered = x[np.maximum(c.nodes, 0)] * (c.nodes >= 0)[:, :, None]
            back += c.scatter @ gathered.reshape(-1, 3)
        retained = assignment >= 0
        np.testing.assert_array_equal(back[retained], x[retained])
        np.testing.assert_array_equal(back[~retained], 0.0)

    def test_membership_maps(self):
        assignment = np.array([2, -1, 0, 0, 2])
        batch = nn.build_cluster_batch(fc(assignment))
        queries = np.concatenate([c.nodes.ravel() for c in batch.classes])
        for node in range(5):
            slots = np.argwhere((batch.index_table == node) & batch.mask)
            if assignment[node] < 0:
                assert slots.size == 0 and node not in queries
            else:
                (r, s), = slots
                assert batch.index_table[r, s] == node and batch.mask[r, s]
                assert np.count_nonzero(queries == node) == 1
                members = batch.index_table[r, batch.mask[r]]
                np.testing.assert_array_equal(members, np.nonzero(assignment == assignment[node])[0])

    def test_no_retained_clusters_errors(self):
        with pytest.raises(ValueError, match="no retained"):
            nn.build_cluster_batch(fc([-1, -1, -1]))


class TestClattForward:
    def test_output_shape_concat(self):
        rng = np.random.default_rng(1)
        x = T.Tensor(rng.standard_normal((6, 4)))
        batches = [nn.build_cluster_batch(fc([0, 0, 0, 1, 1, 1])), nn.build_cluster_batch(fc([0, 1, 0, 1, 0, 1]))]
        groups = [as_tensors(rand_qkv(rng, 4)) for _ in range(2)]
        y = nn.clatt_forward(x, batches, groups, heads=2)
        assert y.data.shape == (6, 8)

    def test_singleton_cluster_returns_value(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 6))
        prm = rand_qkv(rng, 6)
        batch = nn.build_cluster_batch(fc([0, 1, 1, 1]))
        y = nn.clatt_forward(T.Tensor(x), [batch], [as_tensors(prm)], heads=3)
        want = x[0] @ prm["wv"] + prm["bv"]
        np.testing.assert_allclose(y.data[0], want, atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            n, d, heads = 20, 8, 4
            x = rng.standard_normal((n, d))
            assignment = rng.integers(0, 3, n)
            assignment[rng.random(n) < 0.2] = -1
            if (assignment >= 0).sum() == 0:
                assignment[0] = 0
            prm = rand_qkv(rng, d)
            batch = nn.build_cluster_batch(fc(assignment))
            got = nn.clatt_forward(T.Tensor(x), [batch], [as_tensors(prm)], heads=heads).data
            want = naive_cluster_attention(x, assignment, prm, heads)
            assert np.abs(got - want).max() <= 1e-10

    def test_unassigned_rows_exactly_zero(self):
        rng = np.random.default_rng(4)
        x = T.Tensor(rng.standard_normal((7, 4)))
        batch = nn.build_cluster_batch(fc([0, -1, 0, 0, -1, 0, 0]))
        y = nn.clatt_forward(x, [batch], [as_tensors(rand_qkv(rng, 4))], heads=2)
        assert (y.data[1] == 0.0).all() and (y.data[4] == 0.0).all()

    def test_probability_mass_stays_in_cluster(self):
        rng = np.random.default_rng(5)
        x = T.Tensor(rng.standard_normal((10, 4)))
        assignment = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1, -1])
        batch = nn.build_cluster_batch(fc(assignment))
        cap = []
        nn.clatt_forward(x, [batch], [as_tensors(rand_qkv(rng, 4))], heads=2, capture=cap, tags=("LA",), layer=0)
        assert len(cap) == 2  # sizes 4 and 5 fall in different size classes
        for rec in cap:
            p, mask = rec["probs"], rec["mask"]  # (rows, heads, S, S), (rows, S)
            pad = ~mask
            assert (p[np.broadcast_to(pad[:, None, None, :], p.shape)] == 0.0).all()
            live_rows = np.broadcast_to(mask[:, None, :], (p.shape[0], p.shape[1], p.shape[2]))
            sums = p.sum(axis=-1)
            np.testing.assert_allclose(sums[live_rows], 1.0, atol=1e-6)

    def test_padding_and_unassigned_inert(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((9, 4))
        assignment = np.array([0, 0, 0, 0, -1, 1, 1, 1, 1])
        batch = nn.build_cluster_batch(fc(assignment))
        groups = [as_tensors(rand_qkv(rng, 4))]
        base = nn.clatt_forward(T.Tensor(x), [batch], groups, heads=2).data
        x2 = x.copy()
        x2[4] += rng.standard_normal(4) * 100
        bumped = nn.clatt_forward(T.Tensor(x2), [batch], groups, heads=2).data
        retained = assignment >= 0
        assert np.abs(bumped[retained] - base[retained]).max() <= 1e-12

    def test_query_key_scale_law(self):
        rng = np.random.default_rng(7)
        x = T.Tensor(rng.standard_normal((8, 4)))
        assignment = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        batch = nn.build_cluster_batch(fc(assignment))
        prm = rand_qkv(rng, 4)
        prm["bq"][:] = 0.0
        cap1, cap2 = [], []
        nn.clatt_forward(x, [batch], [as_tensors(prm)], heads=2, capture=cap1, layer=0)
        scaled = dict(prm)
        scaled["wq"] = prm["wq"] * 3.0
        scaled["wk"] = prm["wk"] / 3.0
        nn.clatt_forward(x, [batch], [as_tensors(scaled)], heads=2, capture=cap2, layer=0)
        np.testing.assert_allclose(cap1[0]["probs"], cap2[0]["probs"], atol=1e-8)

    def test_heads_must_divide(self):
        rng = np.random.default_rng(8)
        x = T.Tensor(rng.standard_normal((4, 6)))
        batch = nn.build_cluster_batch(fc([0, 0, 0, 0]))
        with pytest.raises(ValueError, match="divisible"):
            nn.clatt_forward(x, [batch], [as_tensors(rand_qkv(rng, 6))], heads=4)


class TestFuse:
    def test_identity_block_returns_mp(self):
        rng = np.random.default_rng(9)
        mp = rng.standard_normal((5, 3))
        cl = rng.standard_normal((5, 6))
        w = np.vstack([np.eye(3), np.zeros((6, 3))])
        out = nn.fuse(T.Tensor(mp), T.Tensor(cl), T.Tensor(w), T.Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, mp, atol=1e-12)

    def test_grad_check(self):
        rng = np.random.default_rng(10)
        mp = T.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        cl = T.Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        w = T.Tensor(rng.standard_normal((9, 3)), requires_grad=True)
        b = T.Tensor(rng.standard_normal(3), requires_grad=True)
        err = T.grad_check(lambda: T.tsum(nn.fuse(mp, cl, w, b)), [mp, cl, w, b])
        assert err < 1e-5


def coo_graph_matrices(g):
    """gcn_matrix, mean_matrix and neighborhood_table built entry by entry
    from COO triples and a lexsort: the oracle of their CSR construction."""
    n = g.n
    rows = np.repeat(np.arange(n), g.degrees)
    dinv = 1.0 / np.sqrt(g.degrees.astype(np.float64) + 1.0)
    loop_rows = np.concatenate([rows, np.arange(n)])
    loop_cols = np.concatenate([g.neighbors, np.arange(n)])
    gcn = sp.csr_matrix((dinv[loop_rows] * dinv[loop_cols], (loop_rows, loop_cols)), shape=(n, n))
    mean = sp.csr_matrix((1.0 / g.degrees.astype(np.float64)[rows], (rows, g.neighbors)), shape=(n, n))
    order = np.lexsort((loop_cols, loop_rows))
    ids, vals = loop_rows[order], loop_cols[order]
    slots = np.arange(ids.size) - np.concatenate(([0], np.cumsum(g.degrees + 1)))[ids]
    table = np.zeros((n, int(g.degrees.max()) + 1), dtype=np.int64)
    mask = np.zeros(table.shape, dtype=bool)
    table[ids, slots] = vals
    mask[ids, slots] = True
    return gcn, mean, table, mask


def csr_bytes(m):
    return [(a.dtype, a.tobytes()) for a in (m.indptr, m.indices, m.data)] + [m.shape]


class TestConvs:
    @pytest.mark.parametrize(
        "g",
        [cycle_graph(7), star_graph(9), erdos_renyi(40, 0.1, seed=2), from_edges([0, 2, 5], [1, 3, 6], n=9)],
        ids=["cycle", "star", "er", "isolated-nodes"],
    )
    def test_graph_matrices_equal_coo_construction(self, g):
        gcn, mean, table, mask = coo_graph_matrices(g)
        assert csr_bytes(nn.gcn_matrix(g)) == csr_bytes(gcn)
        assert csr_bytes(nn.mean_matrix(g)) == csr_bytes(mean)
        got_table, got_mask = nn.neighborhood_table(g)
        assert got_table.tobytes() == table.tobytes() and got_mask.tobytes() == mask.tobytes()
        assert got_table.shape == table.shape and got_table.dtype == table.dtype

    def test_gcn_single_edge_symmetry(self):
        g = from_edges(np.array([0]), np.array([1]), 2)
        x = T.Tensor(np.eye(2))
        w = T.Tensor(np.eye(2))
        b = T.Tensor(np.zeros(2))
        out = nn.gcn_conv(x, nn.gcn_matrix(g), w, b).data
        np.testing.assert_allclose(out[0], out[1][::-1], atol=1e-12)

    def test_gcn_matches_dense_formula(self):
        rng = np.random.default_rng(11)
        g = cycle_graph(6)
        x = rng.standard_normal((6, 3))
        w = rng.standard_normal((3, 3))
        deg = g.degrees + 1.0
        dense = np.zeros((6, 6))
        for u in range(6):
            dense[u, g.neighbors_of(u)] = 1.0
            dense[u, u] = 1.0
        s = dense / np.sqrt(np.outer(deg, deg))
        want = s @ x @ w
        got = nn.gcn_conv(T.Tensor(x), nn.gcn_matrix(g), T.Tensor(w), T.Tensor(np.zeros(3))).data
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_sage_self_selecting_weight(self):
        rng = np.random.default_rng(12)
        g = cycle_graph(5)
        x = rng.standard_normal((5, 3))
        w = np.vstack([np.eye(3), np.zeros((3, 3))])
        got = nn.sage_conv(T.Tensor(x), nn.mean_matrix(g), T.Tensor(w), T.Tensor(np.zeros(3))).data
        np.testing.assert_allclose(got, x, atol=1e-12)

    def test_sage_isolated_node_zero_mean(self):
        g = from_edges(np.array([0]), np.array([1]), 3)  # node 2 isolated
        x = np.ones((3, 2))
        w = np.vstack([np.zeros((2, 2)), np.eye(2)])  # select the neighbor-mean part
        got = nn.sage_conv(T.Tensor(x), nn.mean_matrix(g), T.Tensor(w), T.Tensor(np.zeros(2))).data
        np.testing.assert_array_equal(got[2], [0.0, 0.0])
        np.testing.assert_allclose(got[0], [1.0, 1.0], atol=1e-12)

    def test_lgt_triangle_uniform_attention(self):
        g = complete_graph(3)
        x = T.Tensor(np.ones((3, 4)))
        rng = np.random.default_rng(13)
        prm = as_tensors(rand_qkv(rng, 4))
        classes = nn.neighborhood_classes(*nn.neighborhood_table(g))
        cap = []
        nn.local_attention_conv(x, classes, prm, heads=2, capture=cap, layer=0)
        p = cap[0]["probs"]  # (n, heads, 1, S)
        np.testing.assert_allclose(p, 1.0 / 3.0, atol=1e-12)

    def test_lgt_matches_per_node_oracle(self):
        assert_lgt_matches_per_node_oracle(bridge_of_cliques([4, 5]), np.random.default_rng(14))

    def test_lgt_single_layer_receptive_field(self):
        rng = np.random.default_rng(15)
        g = path_graph(6)
        x = rng.standard_normal((6, 4))
        prm = as_tensors(rand_qkv(rng, 4))
        classes = nn.neighborhood_classes(*nn.neighborhood_table(g))
        base = nn.local_attention_conv(T.Tensor(x), classes, prm, heads=2).data
        x2 = x.copy()
        x2[5] += 10.0  # far from node 0
        bumped = nn.local_attention_conv(T.Tensor(x2), classes, prm, heads=2).data
        np.testing.assert_array_equal(base[0], bumped[0])
        assert np.abs(bumped[4] - base[4]).max() > 1e-6


def assert_lgt_matches_per_node_oracle(g, rng):
    """Neighbourhood attention equals a per-node softmax over N(i) and i."""
    x = rng.standard_normal((g.n, 6))
    prm = rand_qkv(rng, 6)
    classes = nn.neighborhood_classes(*nn.neighborhood_table(g))
    got = nn.local_attention_conv(T.Tensor(x), classes, as_tensors(prm), heads=3).data
    q = x @ prm["wq"] + prm["bq"]
    k = x @ prm["wk"]
    v = x @ prm["wv"] + prm["bv"]
    dh = 2
    for i in range(g.n):
        hood = np.sort(np.concatenate([g.neighbors_of(i), [i]]))
        for h in range(3):
            sl = slice(h * dh, (h + 1) * dh)
            logits = q[i, sl] @ k[hood][:, sl].T / math.sqrt(dh)
            p = softmax_rows(logits[None, :])[0]
            np.testing.assert_allclose(got[i, sl], p @ v[hood][:, sl], atol=1e-10)


def star_and_path():
    """Hub 0 with leaves 1..12, a path 12..20, and node 16 with two extra leaves:
    neighbourhood sizes 2, 3, 5 and 13 fall in four different size classes."""
    src = [0] * 12 + list(range(12, 20)) + [16, 16]
    dst = list(range(1, 13)) + list(range(13, 21)) + [21, 22]
    return from_edges(np.array(src), np.array(dst), 23)


def spread_assignment(rng, sizes, unassigned=3):
    """Random node order, clusters of the given sizes plus a few unassigned nodes."""
    a = np.concatenate([np.repeat(np.arange(len(sizes)), sizes), -np.ones(unassigned, dtype=np.int64)])
    return rng.permutation(a)


class TestSizeClasses:
    SIZES = [1, 2, 3, 6, 12]  # five size classes

    def test_classes_partition_rows(self):
        rng = np.random.default_rng(30)
        batch = nn.build_cluster_batch(fc(spread_assignment(rng, self.SIZES)))
        assert [c.table.shape[1] for c in batch.classes] == sorted(self.SIZES)

        def members(table, mask):
            return sorted(tuple(t[m]) for t, m in zip(table, mask))

        class_rows = []
        for c in batch.classes:
            np.testing.assert_array_equal(c.nodes, np.where(c.mask, c.table, -1))
            class_rows += members(c.table, c.mask)
        assert sorted(class_rows) == members(batch.index_table, batch.mask)

    def test_power_of_two_boundaries(self):
        # sizes 3 and 4 share (2, 4]; 5 starts (4, 8]
        batch = nn.build_cluster_batch(fc(np.repeat([0, 1, 2], [3, 4, 5])))
        assert [c.table.shape for c in batch.classes] == [(2, 4), (1, 5)]

    def test_matches_naive_oracle_across_classes(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(10):
            heads = int(rng.choice([1, 2, 4]))
            d = 4 * heads
            x = rng.standard_normal((sum(self.SIZES) + 3, d))
            a = spread_assignment(rng, self.SIZES)
            prm = rand_qkv(rng, d)
            batch = nn.build_cluster_batch(fc(a))
            assert len(batch.classes) >= 3
            got = nn.clatt_forward(T.Tensor(x), [batch], [as_tensors(prm)], heads=heads).data
            worst = max(worst, float(np.abs(got - naive_cluster_attention(x, a, prm, heads)).max()))
        assert worst <= 1e-10

    def test_clatt_grad_check_across_classes(self):
        rng = np.random.default_rng(32)
        a = spread_assignment(rng, [1, 2, 5], unassigned=2)
        batch = nn.build_cluster_batch(fc(a))
        assert len(batch.classes) == 3
        x = T.Tensor(rng.standard_normal((a.size, 4)), requires_grad=True)
        prm = as_tensors(rand_qkv(rng, 4), requires_grad=True)
        w = T.Tensor(rng.standard_normal((a.size, 4)))

        # the key bias has an exactly-zero gradient; keep its finite-difference
        # noise under the checker's floor
        def f():
            return T.scale(T.tsum(T.mul(nn.clatt_forward(x, [batch], [prm], heads=2), w)), 1e-4)

        assert T.grad_check(f, [x, *prm.values()]) <= 1e-5

    def test_lgt_grad_check_across_classes(self):
        rng = np.random.default_rng(33)
        g = star_and_path()
        classes = nn.neighborhood_classes(*nn.neighborhood_table(g))
        assert len(classes) == 4
        x = T.Tensor(rng.standard_normal((g.n, 4)), requires_grad=True)
        prm = as_tensors(rand_qkv(rng, 4), requires_grad=True)
        w = T.Tensor(rng.standard_normal((g.n, 4)))

        def f():
            return T.scale(T.tsum(T.mul(nn.local_attention_conv(x, classes, prm, heads=2), w)), 1e-4)

        assert T.grad_check(f, [x, *prm.values()]) <= 1e-5

    def test_lgt_matches_per_node_oracle_on_degree_spread(self):
        assert_lgt_matches_per_node_oracle(star_and_path(), np.random.default_rng(34))

    def test_lgt_capture_names_attending_nodes(self):
        rng = np.random.default_rng(35)
        g = star_and_path()
        classes = nn.neighborhood_classes(*nn.neighborhood_table(g))
        cap = []
        prm = as_tensors(rand_qkv(rng, 4))
        nn.local_attention_conv(T.Tensor(rng.standard_normal((g.n, 4))), classes, prm, heads=2, capture=cap, layer=0)
        assert len(cap) == 4
        nodes = np.concatenate([rec["nodes"] for rec in cap])
        assert nodes.shape == (g.n, 1)
        np.testing.assert_array_equal(np.sort(nodes[:, 0]), np.arange(g.n))
        for rec in cap:
            for r, i in enumerate(rec["nodes"][:, 0]):
                hood = np.sort(np.concatenate([g.neighbors_of(i), [i]]))
                np.testing.assert_array_equal(rec["index_table"][r, rec["mask"][r]], hood)


def composed_slot_attention(x, cls, prm, heads):
    """The fused ops' oracle: one class of slot attention as separate tape
    ops (gather, split heads, scale, QK^T, masked softmax, PV, scatter)."""
    d = x.data.shape[1]
    rows, sq = cls.nodes.shape

    def slotted(t, table):
        g = T.take_rows(t, table)
        return T.swap_axes(T.reshape(g, table.shape + (heads, d // heads)), 1, 2)

    q = slotted(T.linear(x, prm["wq"], prm["bq"]), np.maximum(cls.nodes, 0))
    k = slotted(T.linear(x, prm["wk"]), cls.table)
    v = slotted(T.linear(x, prm["wv"], prm["bv"]), cls.table)
    logits = T.matmul(T.scale(q, 1.0 / math.sqrt(d // heads)), T.swap_axes(k, -1, -2))
    p = T.masked_softmax(logits, np.broadcast_to(cls.mask[:, None, None, :], logits.data.shape))
    ctx = T.reshape(T.swap_axes(T.matmul(p, v), 1, 2), (rows * sq, d))
    return T.spmm(cls.scatter, ctx)


def fused_test_classes():
    """A partial-mask cluster class, an Sq = 1 neighbourhood class (LGT)
    and an all-node class (GGT), each over 9 nodes."""
    a = np.array([0, 0, 1, 1, 1, -1, 0, 1, 2])
    partial = nn.build_cluster_batch(fc(a)).classes[-1]
    assert not partial.mask.all() and (partial.nodes < 0).any()
    hood = nn.neighborhood_classes(*nn.neighborhood_table(star_graph(9)))[0]
    assert hood.nodes.shape[1] == 1
    everyone = np.arange(9)[None, :]
    return {
        "partial": partial,
        "lgt": hood,
        "ggt": nn.SlotClass(everyone, everyone, np.ones((1, 9), dtype=bool), 9),
    }


class TestFusedSlotAttention:
    @pytest.mark.parametrize("name", ["partial", "lgt", "ggt"])
    def test_matches_composed_oracle(self, name):
        cls = fused_test_classes()[name]
        rng = np.random.default_rng(40)
        x = T.Tensor(rng.standard_normal((9, 4)), requires_grad=True)
        prm = as_tensors(rand_qkv(rng, 4), requires_grad=True)
        w = T.Tensor(rng.standard_normal((9, 4)))
        leaves = [x, *prm.values()]

        def fused():
            return T.tsum(T.mul(nn._slot_attention(x, [cls], prm, 2, None, {}), w))

        def composed():
            return T.tsum(T.mul(composed_slot_attention(x, cls, prm, 2), w))

        grads = []
        for f in (fused, composed):
            T.zero_grad(leaves)
            loss = f()
            T.backward(loss)
            grads.append((loss.data, [p.grad.copy() for p in leaves]))
        (lf, gf), (lc, gc) = grads
        assert lf == lc
        for a, b in zip(gf, gc):
            np.testing.assert_array_equal(a, b)

        def scaled():
            return T.scale(fused(), 1e-4)

        assert T.grad_check(scaled, leaves) <= 1e-5

    def test_three_tape_ops_per_class(self):
        cls = fused_test_classes()["partial"]
        rng = np.random.default_rng(41)
        x = T.Tensor(rng.standard_normal((9, 4)), requires_grad=True)
        y = nn._slot_attention(x, [cls], as_tensors(rand_qkv(rng, 4)), 2, None, {})
        names = [node._backward.__qualname__.split(".")[0] for node in y._tape.nodes]
        assert names[-3:] == ["slot_logits", "masked_softmax", "slot_context"]

    def test_slot_class_rejects_row_without_live_key(self):
        table = np.array([[0, 1], [2, 0]])
        mask = np.array([[True, True], [False, False]])
        with pytest.raises(ValueError, match="row 1 has no live key"):
            nn.SlotClass(np.where(mask, table, -1), table, mask, 3)


class TestNeighborhoodGuard:
    def test_star_over_bound_fails_before_allocating(self, monkeypatch):
        import tracemalloc

        monkeypatch.setattr(nn, "NEIGHBORHOOD_TABLE_MAX_SLOTS", 1000)
        g = star_graph(2000)  # a 2000 x 2000 table: 32 MB of ids
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"2000 x 2000 table \(4000000 slots\).*1000 slots"):
                nn.neighborhood_table(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_under_bound_builds(self, monkeypatch):
        monkeypatch.setattr(nn, "NEIGHBORHOOD_TABLE_MAX_SLOTS", 25)
        table, mask = nn.neighborhood_table(star_graph(5))
        assert table.shape == (5, 5) and mask.sum() == 5 + 2 * 4


class TestGlobalAttention:
    @staticmethod
    def make_params(rng, d, pe_dim):
        dx = d // 2
        prm = {
            "wx": rng.standard_normal((d, dx)) * 0.3,
            "bx": rng.standard_normal(dx) * 0.1,
            "wpe": rng.standard_normal((pe_dim, d - dx)) * 0.3,
            "bpe": rng.standard_normal(d - dx) * 0.1,
        }
        prm.update(rand_qkv(rng, d))
        return prm

    def test_single_node_is_value_projection(self):
        rng = np.random.default_rng(16)
        prm = self.make_params(rng, 4, 3)
        x = rng.standard_normal((1, 4))
        pe = rng.standard_normal((1, 3))
        got = nn.global_attention(T.Tensor(x), T.Tensor(pe), as_tensors(prm), heads=2).data
        u = np.concatenate([x @ prm["wx"] + prm["bx"], pe @ prm["wpe"] + prm["bpe"]], axis=1)
        np.testing.assert_allclose(got, u @ prm["wv"] + prm["bv"], atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(17)
        n, d = 7, 4
        prm = self.make_params(rng, d, 2)
        x = rng.standard_normal((n, d))
        pe = rng.standard_normal((n, 2))
        perm = rng.permutation(n)
        base = nn.global_attention(T.Tensor(x), T.Tensor(pe), as_tensors(prm), heads=2).data
        permuted = nn.global_attention(T.Tensor(x[perm]), T.Tensor(pe[perm]), as_tensors(prm), heads=2).data
        np.testing.assert_allclose(permuted, base[perm], atol=1e-10)

    def test_equals_single_cluster_clatt(self):
        rng = np.random.default_rng(18)
        n, d = 9, 6
        prm = self.make_params(rng, d, 3)
        x = rng.standard_normal((n, d))
        pe = rng.standard_normal((n, 3))
        got = nn.global_attention(T.Tensor(x), T.Tensor(pe), as_tensors(prm), heads=3).data
        u = np.concatenate([x @ prm["wx"] + prm["bx"], pe @ prm["wpe"] + prm["bpe"]], axis=1)
        batch = nn.build_cluster_batch(fc(np.zeros(n, dtype=int)))
        qkv_only = {k: prm[k] for k in ("wq", "bq", "wk", "wv", "bv")}
        want = nn.clatt_forward(T.Tensor(u), [batch], [as_tensors(qkv_only)], heads=3).data
        assert np.abs(got - want).max() <= 1e-10

    def test_desk_scale_guard(self, monkeypatch):
        monkeypatch.setattr(nn, "GLOBAL_ATTENTION_MAX_NODES", 4)
        rng = np.random.default_rng(19)
        prm = self.make_params(rng, 4, 2)
        x = T.Tensor(rng.standard_normal((5, 4)))
        pe = T.Tensor(rng.standard_normal((5, 2)))
        with pytest.raises(ValueError, match="desk-scale"):
            nn.global_attention(x, pe, as_tensors(prm), heads=2)


class TestLaplacianPE:
    def test_cycle4_spectrum(self):
        res = laplacian_pe(cycle_graph(4), k=3)
        assert res.num_valid == 3
        np.testing.assert_allclose(res.values, [1.0, 1.0, 2.0], atol=1e-10)

    def test_values_sorted_in_range(self):
        res = laplacian_pe(bridge_of_cliques([5, 4]), k=6)
        vals = res.values[: res.num_valid]
        assert (np.diff(vals) >= -1e-12).all()
        assert (vals >= -1e-10).all() and (vals <= 2.0 + 1e-10).all()

    def test_orthonormal(self):
        res = laplacian_pe(bridge_of_cliques([5, 5]), k=6)
        v = res.vectors[:, : res.num_valid]
        gram = v.T @ v
        np.testing.assert_allclose(gram, np.eye(res.num_valid), atol=1e-8)

    def test_sign_convention(self):
        res = laplacian_pe(bridge_of_cliques([4, 6]), k=5)
        for j in range(res.num_valid):
            v = res.vectors[:, j]
            assert v[np.argmax(np.abs(v))] > 0

    def test_disconnected_flag_and_supports(self):
        g = from_edges(np.array([0, 1, 3, 4]), np.array([1, 2, 4, 5]), 6)  # two paths
        res = laplacian_pe(g, k=4)
        assert res.disconnected
        assert res.num_valid == 4
        for j in range(res.num_valid):
            support = np.nonzero(np.abs(res.vectors[:, j]) > 1e-12)[0]
            assert set(support) <= {0, 1, 2} or set(support) <= {3, 4, 5}

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="k < n"):
            laplacian_pe(cycle_graph(4), k=4)

    def test_component_adjacency_equals_per_node_fill(self, monkeypatch):
        # a triangle, two paths and isolated nodes, numbered out of order
        g = from_edges([0, 0, 5, 7, 7, 9, 2, 3], [5, 9, 9, 4, 8, 5, 3, 11], n=13)
        seen = []
        eigs = pe._component_eigs
        monkeypatch.setattr(pe, "_component_eigs", lambda adj: seen.append(adj.copy()) or eigs(adj))
        laplacian_pe(g, k=6)
        labels, count = connected_components(g)
        comps = [c for c in (np.flatnonzero(labels == i) for i in range(count)) if c.size > 1]
        assert len(seen) == len(comps) == 3
        for nodes, adj in zip(comps, seen):
            pos = np.full(g.n, -1)
            pos[nodes] = np.arange(nodes.size)
            want = np.zeros((nodes.size, nodes.size))
            for i, u in enumerate(nodes):
                want[i, pos[g.neighbors_of(u)]] = 1.0
            assert adj.flags.c_contiguous and adj.dtype == want.dtype
            assert adj.tobytes() == want.tobytes()

    def test_in_place_laplacian_matches_formula(self, monkeypatch):
        # a self-loop and an isolated node (zero degree) alongside plain edges
        adj = np.array([[1.0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 0, 0]])
        dinv = np.zeros(4)
        dinv[:3] = 1.0 / np.sqrt(adj[:3].sum(axis=1))
        want = np.eye(4) - (dinv[:, None] * adj) * dinv[None, :]
        eigh, seen = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda m: seen.append(m.copy()) or eigh(m))
        vals, vecs = pe._component_eigs(adj.copy())
        assert seen[0].tobytes() == want.tobytes()
        want_vals, want_vecs = eigh(want)
        assert vals.tobytes() == want_vals.tobytes() and vecs.tobytes() == want_vecs.tobytes()

    def test_dense_path_peak_memory(self):
        import tracemalloc

        g, _ = sbm_graph([250] * 4, 0.05, 0.005, seed=0)
        # the first call's imports and g's cached adjacency stay out of the peak
        laplacian_pe(bridge_of_cliques([4, 4]), k=2)
        g.adjacency
        tracemalloc.start()
        try:
            res = laplacian_pe(g, k=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.num_valid == 64
        # the component matrix, turned into the Laplacian in place, and eigh's
        # eigenvectors; the out-of-place formula peaked at about 32 n^2
        assert peak < 20 * g.n**2

    def test_deterministic(self):
        g = bridge_of_cliques([4, 4])
        a = laplacian_pe(g, k=4)
        b = laplacian_pe(g, k=4)
        np.testing.assert_array_equal(a.vectors, b.vectors)


def enumerated_walk_counts(g, walk_len, window):
    """(center, context) counts of every walk of walk_len nodes, one from
    each start node, weighted by its probability; a walk stops early only
    at a node with no neighbours."""
    counts = np.zeros((g.n, g.n))

    def extend(walk, prob):
        nbrs = g.neighbors_of(walk[-1])
        if len(walk) < walk_len and nbrs.size:
            for v in nbrs:
                extend(walk + [int(v)], prob / nbrs.size)
            return
        for off in range(1, window + 1):
            for u, v in zip(walk, walk[off:]):
                counts[u, v] += prob
                counts[v, u] += prob

    for start in range(g.n):
        extend([start], 1.0)
    return counts


def enumerated_deepwalk(g, walk_len, window, neg):
    """Eigenpairs (by descending |lambda|) of log max(C vol / (neg c c^T), 1)
    for the enumerated counts C."""
    counts = enumerated_walk_counts(g, walk_len, window)
    c = counts.sum(axis=1)
    ratio = np.divide(counts * c.sum(), neg * np.outer(c, c), out=np.zeros_like(counts), where=counts > 0)
    vals, vecs = np.linalg.eigh(np.log(np.maximum(ratio, 1.0)))
    order = np.argsort(-np.abs(vals))
    return vals[order], vecs[:, order]


class TestDeepwalkPE:
    # a triangle with a two-edge tail, and a triangle with a pendant plus an
    # isolated node: every nonzero |lambda| below is apart from the others
    ORACLE_GRAPHS = {
        "tailed_triangle": lambda: from_edges([0, 0, 1, 2, 3], [1, 2, 2, 3, 4], n=5),
        "paw_and_isolated": lambda: from_edges([0, 0, 1, 2], [1, 2, 2, 3], n=5),
    }

    @pytest.mark.parametrize("walk_len, window", [(5, 2), (6, 3), (4, 5)])
    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_matches_enumerated_walks(self, name, walk_len, window):
        g = self.ORACLE_GRAPHS[name]()
        vals, vecs = enumerated_deepwalk(g, walk_len, window, neg=1)
        k = int((np.abs(vals) > 1e-8).sum())
        assert k >= 4 and np.all(np.abs(np.diff(np.abs(vals[:k]))) > 1e-3)
        want = vecs[:, :k] * np.sqrt(np.abs(vals[:k]))
        got = deepwalk_pe(g, dim=k, walk_len=walk_len, window=window, neg=1)
        peaks = got[np.abs(got).argmax(axis=0), np.arange(k)]
        assert np.all(peaks > 0)
        # an automorphism can tie a column's two largest |entries|, so the
        # oracle's signs are matched to deepwalk_pe's, not fixed on their own
        signs = np.sign((want * got).sum(axis=0))
        np.testing.assert_allclose(got, want * signs, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("neg", [1, 2])
    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_gram_matches_enumerated_walks(self, name, neg):
        # E E^T = U |Lambda| U^T whatever the signs and ties of the columns
        g = self.ORACLE_GRAPHS[name]()
        vals, vecs = enumerated_deepwalk(g, walk_len=3, window=1, neg=neg)
        assert np.abs(vals).max() > 0.05
        got = deepwalk_pe(g, dim=g.n, walk_len=3, window=1, neg=neg)
        np.testing.assert_allclose(got @ got.T, (vecs * np.abs(vals)) @ vecs.T, rtol=0, atol=1e-10)

    def test_shape_and_determinism(self):
        g = cycle_graph(12)
        a = deepwalk_pe(g, dim=8, walk_len=10, window=2, neg=2)
        b = deepwalk_pe(g, dim=8, walk_len=10, window=2, neg=2)
        assert a.shape == (12, 8)
        assert np.isfinite(a).all()
        assert a.tobytes() == b.tobytes()

    def test_dim_past_n_pads_zero_columns(self):
        g = bridge_of_cliques([4, 4])
        emb = deepwalk_pe(g, dim=12, walk_len=10, window=3, neg=1)
        assert emb.shape == (8, 12)
        assert np.abs(emb[:, :8]).max() > 0
        assert not emb[:, 8:].any()
        np.testing.assert_array_equal(emb[:, :8], deepwalk_pe(g, dim=8, walk_len=10, window=3, neg=1))

    def test_walk_and_epoch_counts_do_not_change_result(self):
        g = erdos_renyi(30, 0.2, seed=3)
        base = deepwalk_pe(g, dim=8, walk_len=12, window=3, neg=1)
        for walks_per_node, epochs in [(1, 1), (2, 7), (50, 3)]:
            emb = deepwalk_pe(g, dim=8, walks_per_node=walks_per_node, walk_len=12, window=3, neg=1, epochs=epochs)
            assert emb.tobytes() == base.tobytes()

    def test_clique_structure_separates(self):
        g = bridge_of_cliques([20, 20])
        # neg >= 3 clips every entry of the target to log 1 = 0 on this graph
        emb = deepwalk_pe(g, dim=16, walk_len=20, window=3, neg=1)
        norms = np.linalg.norm(emb, axis=1, keepdims=True)
        unit = emb / np.maximum(norms, 1e-12)
        sims = unit @ unit.T
        labels = np.array([0] * 20 + [1] * 20)
        same = labels[:, None] == labels[None, :]
        off_diag = ~np.eye(40, dtype=bool)
        intra = sims[same & off_diag].mean()
        inter = sims[~same].mean()
        assert intra > inter


class TestPEGuards:
    def test_deepwalk_over_bound_fails_before_walking(self, monkeypatch):
        import tracemalloc

        monkeypatch.setattr(pe, "PE_MAX_NODES", 1000)
        g = star_graph(3000)  # a dense 3000 x 3000 count matrix: 72 MB
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match=r"has 3000 nodes, past the desk-scale limit of 1000"):
                deepwalk_pe(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_deepwalk_at_bound_runs(self, monkeypatch):
        kw = dict(dim=4, walk_len=10, window=2, neg=2)
        monkeypatch.setattr(pe, "PE_MAX_NODES", 12)
        assert deepwalk_pe(cycle_graph(12), **kw).shape == (12, 4)
        with pytest.raises(InputError, match="desk-scale limit of 12"):
            deepwalk_pe(cycle_graph(13), **kw)

    def test_laplacian_over_bound_fails_before_dense_matrix(self, monkeypatch):
        import tracemalloc

        monkeypatch.setattr(pe, "PE_MAX_NODES", 1000)
        monkeypatch.setattr(pe, "_component_eigs", lambda adj: pytest.fail("dense eigh ran"))
        g = star_graph(3000)  # a dense 3000 x 3000 component: 72 MB
        g.adjacency  # the cached CSR is built before tracing starts
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match=r"largest has 3000 nodes, past the desk-scale limit of 1000"):
                laplacian_pe(g, k=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_laplacian_bound_is_per_component(self, monkeypatch):
        monkeypatch.setattr(pe, "PE_MAX_NODES", 5)
        two_paths = from_edges(np.array([0, 1, 2, 3, 5, 6, 7, 8]), np.array([1, 2, 3, 4, 6, 7, 8, 9]), 10)
        assert laplacian_pe(two_paths, k=4).num_valid == 4
        pe.check_laplacian_size(two_paths)
        with pytest.raises(InputError, match="largest has 6 nodes"):
            pe.check_laplacian_size(cycle_graph(6))


class TestModelSpec:
    def test_validation_errors(self):
        with pytest.raises(ValueError, match="conv_type"):
            nn.ModelSpec(conv_type="GAT").validate()
        with pytest.raises(ValueError, match="clusterings"):
            nn.ModelSpec(conv_type="GCN", use_clatt=True).validate()
        with pytest.raises(ValueError, match="positional"):
            nn.ModelSpec(conv_type="GGT").validate()
        with pytest.raises(ValueError, match="divisible"):
            nn.ModelSpec(conv_type="LGT", hidden=6, heads=4).validate()

    def test_json_roundtrip(self):
        spec = nn.ModelSpec(conv_type="GCN", use_clatt=True, clusterings=("LA", "KM"), hidden=64, heads=4, dropout=0.1)
        again = nn.ModelSpec.from_json(spec.to_json())
        assert again == spec

    def test_name(self):
        assert nn.ModelSpec(conv_type="GCN").name == "GCN"
        assert nn.ModelSpec(conv_type="SAGE", use_clatt=True, clusterings=("LA",)).name == "SAGE-CLATT(LA)"


def tiny_graph_and_clusterings():
    g = bridge_of_cliques([6, 6])
    assignment = np.array([0] * 6 + [1] * 6)
    return g, {"LA": fc(assignment)}


class TestModelForward:
    def test_output_shape(self):
        rng = np.random.default_rng(20)
        g, cl = tiny_graph_and_clusterings()
        spec = nn.ModelSpec(conv_type="GCN", use_clatt=True, clusterings=("LA",), layers=2, hidden=8, heads=2)
        x = rng.standard_normal((g.n, 5))
        params = nn.init_params(spec, 5, 3, seed=0)
        inp = nn.prepare_inputs(g, x, spec, cl)
        out = nn.model_forward(spec, params, inp)
        assert out.data.shape == (g.n, 3)

    def test_zero_blocks_reduce_to_encoded_head(self):
        rng = np.random.default_rng(21)
        g, cl = tiny_graph_and_clusterings()
        spec = nn.ModelSpec(conv_type="GCN", layers=2, hidden=8)
        x = rng.standard_normal((g.n, 4))
        params = nn.init_params(spec, 4, 2, seed=1)
        for name, p in params.items():
            if ".conv." in name or ".mlp." in name or ".fuse." in name:
                p.data[...] = 0.0
        inp = nn.prepare_inputs(g, x, spec)
        got = nn.model_forward(spec, params, inp).data
        h = x @ params["enc.w"].data + params["enc.b"].data
        mu = h.mean(axis=1, keepdims=True)
        var = h.var(axis=1, keepdims=True)
        hn = (h - mu) / np.sqrt(var + 1e-5) * params["final_norm.g"].data + params["final_norm.b"].data
        want = hn @ params["head.w"].data + params["head.b"].data
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_permutation_equivariance_full_stack(self):
        rng = np.random.default_rng(22)
        g, cl = tiny_graph_and_clusterings()
        spec = nn.ModelSpec(conv_type="GCN", use_clatt=True, clusterings=("LA",), layers=2, hidden=8, heads=2)
        x = rng.standard_normal((g.n, 4))
        params = nn.init_params(spec, 4, 3, seed=2)
        base = nn.model_forward(spec, params, nn.prepare_inputs(g, x, spec, cl)).data

        perm = rng.permutation(g.n)
        inv = np.argsort(perm)
        edges = g.edge_array()
        g2 = from_edges(inv[edges[:, 0]], inv[edges[:, 1]], g.n)
        cl2 = {"LA": fc(cl["LA"].assignment[perm])}
        permuted = nn.model_forward(spec, params, nn.prepare_inputs(g2, x[perm], spec, cl2)).data
        np.testing.assert_allclose(permuted, base[perm], atol=1e-9)

    def test_deterministic_forward(self):
        rng = np.random.default_rng(23)
        g, cl = tiny_graph_and_clusterings()
        spec = nn.ModelSpec(conv_type="SAGE", layers=2, hidden=8)
        x = rng.standard_normal((g.n, 4))
        params = nn.init_params(spec, 4, 2, seed=3)
        inp = nn.prepare_inputs(g, x, spec)
        a = nn.model_forward(spec, params, inp).data
        b = nn.model_forward(spec, params, inp).data
        np.testing.assert_array_equal(a, b)

    def test_dropout_needs_rng(self):
        rng = np.random.default_rng(24)
        g, cl = tiny_graph_and_clusterings()
        spec = nn.ModelSpec(conv_type="GCN", layers=1, hidden=8, dropout=0.2)
        x = rng.standard_normal((g.n, 4))
        params = nn.init_params(spec, 4, 2, seed=4)
        inp = nn.prepare_inputs(g, x, spec)
        with pytest.raises(ValueError, match="dropout_rng"):
            nn.model_forward(spec, params, inp, training=True)

    def test_mlp_layers_mix_only_cluster_attention(self):
        rng = np.random.default_rng(27)
        g, cl = tiny_graph_and_clusterings()
        cl["KM"] = fc(np.tile([0, 1], 6))
        x = rng.standard_normal((g.n, 4))
        plain = nn.ModelSpec(conv_type="MLP", layers=2, hidden=8)
        params = nn.init_params(plain, 4, 3, seed=7)
        assert not [k for k in params if ".norm1." in k or ".conv." in k or ".fuse." in k]
        # graph-agnostic: the graph does not change the outputs
        hidden, logits = nn.hidden_and_logits(plain, params, nn.prepare_inputs(g, x, plain))
        other = nn.prepare_inputs(cycle_graph(g.n), x, plain)
        np.testing.assert_array_equal(nn.model_forward(plain, params, other).data, logits.data)
        np.testing.assert_array_equal(logits.data, hidden.data @ params["head.w"].data + params["head.b"].data)

        spec = nn.ModelSpec(conv_type="MLP", use_clatt=True, clusterings=("LA", "KM"), layers=2, hidden=8, heads=2)
        params = nn.init_params(spec, 4, 3, seed=7)
        assert params["layer1.norm1.g"].data.shape == (8,)
        assert params["layer1.fuse.w"].data.shape == (2 * 8, 8)  # cluster attention outputs only
        assert nn.model_forward(spec, params, nn.prepare_inputs(g, x, spec, cl)).data.shape == (g.n, 3)

    def test_full_stack_grad_check(self):
        rng = np.random.default_rng(25)
        g = bridge_of_cliques([6, 6])
        assignment = np.array([0] * 6 + [1] * 6)
        x = rng.standard_normal((g.n, 3))
        labels = np.array([0] * 6 + [1] * 6)
        idx = np.arange(g.n)
        for conv_type in ("GCN", "MLP"):
            spec = nn.ModelSpec(conv_type=conv_type, use_clatt=True, clusterings=("LA",), layers=2, hidden=4, heads=2)
            params = nn.init_params(spec, 3, 2, seed=5)
            inp = nn.prepare_inputs(g, x, spec, {"LA": fc(assignment)})

            # The key bias is a flat direction of attention (a uniform key
            # shift moves each row's logits by a per-query constant, which
            # softmax cancels), so its analytic gradient is exactly zero and
            # the central difference returns pure rounding noise. Gradient
            # correctness is scale-free; keep the loss small so that noise
            # sits below the checker's 1e-8 absolute floor.
            def f():
                return T.scale(T.softmax_cross_entropy(nn.model_forward(spec, params, inp), labels, idx), 1e-4)

            err = T.grad_check(f, list(params.values()))
            assert err < 1e-5, conv_type

    def test_ggt_forward_runs(self):
        rng = np.random.default_rng(26)
        g = cycle_graph(8)
        pe = laplacian_pe(g, k=3).vectors
        spec = nn.ModelSpec(conv_type="GGT", pe="laplacian", layers=1, hidden=8, heads=2)
        x = rng.standard_normal((g.n, 4))
        params = nn.init_params(spec, 4, 2, seed=6, pe_dim=3)
        inp = nn.prepare_inputs(g, x, spec, pe=pe)
        out = nn.model_forward(spec, params, inp)
        assert out.data.shape == (8, 2)
        assert np.isfinite(out.data).all()
