"""Edge-list ingestion, CSR invariants and node-table handling."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clatt.graphs import (
    Graph,
    GraphFormatError,
    NodeData,
    TableSchema,
    WeightedGraph,
    from_edges,
    load_edge_list,
    load_node_table,
    transform_features,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestFromEdges:
    def test_dedup_selfloop_symmetrise(self):
        g = from_edges([0, 1, 1, 2, 0], [1, 0, 2, 2, 0], n=3)
        assert g.n == 3 and g.m == 2
        assert list(g.neighbors_of(0)) == [1]
        assert list(g.neighbors_of(1)) == [0, 2]
        g.validate()

    def test_degrees_sum(self):
        g = from_edges([0, 1, 2], [1, 2, 3], n=4)
        assert int(g.degrees.sum()) == 2 * g.m

    def test_out_of_range(self):
        with pytest.raises(GraphFormatError):
            from_edges([0], [5], n=3)

    @given(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_csr_invariants(self, pairs):
        if pairs:
            src, dst = zip(*pairs)
        else:
            src, dst = [], []
        g = from_edges(list(src), list(dst), n=12)
        g.validate()
        undirected = {(min(a, b), max(a, b)) for a, b in pairs if a != b}
        assert g.m == len(undirected)
        assert int(g.degrees.sum()) == 2 * g.m
        # symmetry: j in N(i) iff i in N(j)
        for i in range(g.n):
            for j in g.neighbors_of(i):
                assert i in g.neighbors_of(int(j))


class TestWeightedGraph:
    @staticmethod
    def totals(wg):
        """(edge weight between nodes counted once + loop weight, total size)."""
        return float(wg.weights.sum()) / 2.0 + float(wg.loops.sum()), float(wg.sizes.sum())

    @given(
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=60),
        st.lists(st.integers(0, 4), min_size=12, max_size=12),
        st.lists(st.integers(0, 2), min_size=5, max_size=5),
    )
    @settings(max_examples=80, deadline=None)
    def test_quotient_preserves_edge_weight_and_size(self, pairs, first, second):
        src, dst = zip(*pairs) if pairs else ([], [])
        g = from_edges(list(src), list(dst), n=12)
        wg = WeightedGraph.from_graph(g)
        assert self.totals(wg) == (g.m, g.n)
        coarse = wg.quotient(np.array(first))
        assert coarse.n == max(first) + 1
        assert self.totals(coarse) == (g.m, g.n)
        # a second level carries the first level's loops and sizes along
        coarser = coarse.quotient(np.array(second)[: coarse.n])
        assert self.totals(coarser) == (g.m, g.n)
        assert np.all(coarser.indices != np.repeat(np.arange(coarser.n), np.diff(coarser.indptr)))


class TestLoadEdgeList:
    def test_basic(self, tmp_path):
        p = write(tmp_path, "e.csv", "node_1,node_2\n10,20\n20,30\n10,30\n")
        g = load_edge_list(p)
        assert g.n == 3 and g.m == 3
        assert list(g.node_ids) == [10, 20, 30]

    def test_first_appearance_compaction(self, tmp_path):
        p = write(tmp_path, "e.txt", "7 3\n3 99\n99 7\n")
        g = load_edge_list(p)
        assert list(g.node_ids) == [7, 3, 99]
        # edge (7,3) becomes (0,1)
        assert 1 in g.neighbors_of(0)

    def test_comments_blank_dup(self, tmp_path):
        p = write(tmp_path, "e.txt", "# hello\n\n1 2\n2 1\n1 2\n")
        g = load_edge_list(p)
        assert g.m == 1

    def test_non_integer_id(self, tmp_path):
        p = write(tmp_path, "e.txt", "1 2\nfoo 2\n")
        with pytest.raises(GraphFormatError, match="not an integer"):
            load_edge_list(p)

    def test_empty(self, tmp_path):
        p = write(tmp_path, "e.txt", "# nothing\n")
        with pytest.raises(GraphFormatError, match="no edges"):
            load_edge_list(p)

    def test_roundtrip_random(self, tmp_path):
        rng = np.random.default_rng(3)
        src = rng.integers(0, 30, size=80)
        dst = rng.integers(0, 30, size=80)
        lines = "\n".join(f"{a} {b}" for a, b in zip(src, dst))
        g = load_edge_list(write(tmp_path, "r.txt", lines))
        ref = {(min(a, b), max(a, b)) for a, b in zip(src, dst) if a != b}
        assert g.m == len(ref)
        back = {(min(int(g.node_ids[u]), int(g.node_ids[v])),
                 max(int(g.node_ids[u]), int(g.node_ids[v])))
                for u, v in g.edge_array()}
        assert back == ref


class TestNodeTable:
    def make_graph(self):
        return from_edges([0, 1], [1, 2], n=3, node_ids=[10, 20, 30])

    def test_alignment_and_labels(self, tmp_path):
        g = self.make_graph()
        p = write(tmp_path, "t.csv", "id,f1,f2,y\n30,3.0,1,b\n10,1.0,0,a\n20,2.0,1,a\n")
        nd = load_node_table(p, TableSchema(target_column="y"), g)
        assert nd.features[:, 0].tolist() == [1.0, 2.0, 3.0]
        assert nd.targets.tolist() == [0, 0, 1]
        assert nd.num_classes == 2

    def test_imputation_flagged(self, tmp_path):
        g = self.make_graph()
        p = write(tmp_path, "t.csv", "id,f1\n10,2.0\n20,\n30,4.0\n")
        nd = load_node_table(p, TableSchema(), g)
        assert nd.features[1, 0] == pytest.approx(3.0)
        assert nd.imputed[1, 0] and not nd.imputed[0, 0]

    def test_all_missing_column_imputes_zero_without_warning(self, tmp_path):
        g = self.make_graph()
        p = write(tmp_path, "t.csv", "id,f1,f2\n10,1.0,\n20,,NA\n30,5.0,nan\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nd = load_node_table(p, TableSchema(), g)
        np.testing.assert_array_equal(nd.features, [[1.0, 0.0], [3.0, 0.0], [5.0, 0.0]])
        np.testing.assert_array_equal(nd.imputed, [[False, True], [True, True], [False, True]])

    def test_non_numeric_feature(self, tmp_path):
        g = self.make_graph()
        p = write(tmp_path, "t.csv", "id,f1\n10,x\n20,1\n30,2\n")
        with pytest.raises(GraphFormatError, match="non-numeric"):
            load_node_table(p, TableSchema(), g)

    def test_unknown_id(self, tmp_path):
        g = self.make_graph()
        p = write(tmp_path, "t.csv", "id,f1\n10,1\n20,1\n99,1\n")
        with pytest.raises(GraphFormatError, match="not in graph"):
            load_node_table(p, TableSchema(), g)

    def test_row_count_mismatch(self, tmp_path):
        g = self.make_graph()
        p = write(tmp_path, "t.csv", "id,f1\n10,1\n20,1\n")
        with pytest.raises(GraphFormatError, match="rows"):
            load_node_table(p, TableSchema(), g)

    def test_regression_targets(self, tmp_path):
        g = self.make_graph()
        p = write(tmp_path, "t.csv", "id,f1,y\n10,1,0.5\n20,1,1.5\n30,1,2.5\n")
        nd = load_node_table(p, TableSchema(target_column="y", task="regression"), g)
        assert nd.targets.dtype == np.float64
        assert nd.targets.tolist() == [0.5, 1.5, 2.5]


class TestTransforms:
    def test_standard(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 2.0, size=(200, 4))
        z = transform_features(x, "standard")
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_standard_constant_column(self):
        x = np.ones((10, 2))
        z = transform_features(x, "standard")
        assert np.allclose(z, 0.0)

    def test_quantile_monotone_and_ties(self):
        x = np.array([[3.0], [1.0], [1.0], [7.0], [5.0]])
        z = transform_features(x, "quantile_normal")[:, 0]
        assert z[1] == z[2]
        assert z[1] < z[0] < z[4] < z[3]

    def test_quantile_is_gaussian_like(self):
        rng = np.random.default_rng(1)
        x = rng.exponential(size=(4000, 1))
        z = transform_features(x, "quantile_normal")[:, 0]
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            transform_features(np.ones((2, 2)), "whiten")

    def test_none_copies(self):
        x = np.ones((2, 2))
        z = transform_features(x, "none")
        z[0, 0] = 5.0
        assert x[0, 0] == 1.0
