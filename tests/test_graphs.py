"""Edge-list ingestion, CSR invariants and node-table handling."""

import re
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import ndtri

from clatt.graphs import (
    Graph,
    GraphFormatError,
    NodeData,
    TableSchema,
    WeightedGraph,
    average_ranks,
    from_edges,
    load_edge_list,
    load_node_table,
    transform_features,
)


def check_csr(g: Graph) -> None:
    """The CSR invariants of a Graph: offsets start at 0, grow and cover the
    neighbor array; each node's neighbors are in range, strictly sorted and
    never the node itself."""
    assert g.offsets.shape == (g.n + 1,) and g.offsets[0] == 0
    assert g.offsets[-1] == g.neighbors.shape[0]
    assert np.all(np.diff(g.offsets) >= 0)
    assert g.neighbors.size == 0 or (g.neighbors.min() >= 0 and g.neighbors.max() < g.n)
    for i in range(g.n):
        nb = g.neighbors_of(i)
        assert np.all(np.diff(nb) > 0) and not np.any(nb == i)


def quantile_normal_oracle(x):
    """The former per-column loop of transform_features("quantile_normal"):
    stable 0-based ranks, averaged over ties, at their midpoints."""
    n = x.shape[0]
    out = np.empty_like(x)
    for j in range(x.shape[1]):
        col = x[:, j]
        order = np.argsort(col, kind="stable")
        ranks = np.empty(n, dtype=np.float64)
        ranks[order] = np.arange(n, dtype=np.float64)
        vals, inv = np.unique(col, return_inverse=True)
        sums = np.zeros(vals.shape[0])
        cnts = np.zeros(vals.shape[0])
        np.add.at(sums, inv, ranks)
        np.add.at(cnts, inv, 1.0)
        ranks = (sums / cnts)[inv]
        out[:, j] = ndtri((ranks + 0.5) / n)
    return out


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
        check_csr(g)

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
        check_csr(g)
        undirected = {(min(a, b), max(a, b)) for a, b in pairs if a != b}
        assert g.m == len(undirected)
        assert int(g.degrees.sum()) == 2 * g.m
        # symmetry: j in N(i) iff i in N(j)
        for i in range(g.n):
            for j in g.neighbors_of(i):
                assert i in g.neighbors_of(int(j))
        dense = np.zeros((12, 12))
        for a, b in undirected:
            dense[a, b] = dense[b, a] = 1.0
        assert np.array_equal(g.adjacency.toarray(), dense)

    def test_adjacency_built_once_and_read_only(self):
        g = from_edges([0, 1], [1, 2], n=3)
        assert g.adjacency is g.adjacency
        with pytest.raises(ValueError, match="read-only"):
            g.adjacency.data[0] = 2.0


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
        with pytest.raises(GraphFormatError, match="e.txt:2: node id 'foo' is not a 64-bit integer"):
            load_edge_list(p)

    def test_header_after_comments_and_blank_lines(self, tmp_path):
        g = load_edge_list(write(tmp_path, "e1.csv", "# graph\n\nsrc,dst\n0,1\n1,2\n"))
        assert g.n == 3 and g.m == 2
        # only the first such line may be a header
        p = write(tmp_path, "e2.csv", "# graph\nsrc,dst\n0,1\na,b\n")
        with pytest.raises(GraphFormatError, match="e2.csv:4: node id 'a' is not a 64-bit integer"):
            load_edge_list(p)

    def test_signed_and_underscored_ids_are_no_header(self, tmp_path):
        # the first line is a header only when a token is not an integer as int() reads it
        g = load_edge_list(write(tmp_path, "plus.txt", "+1 +2\n2 3\n3 1\n"))
        assert (g.n, g.m) == (3, 3)
        g = load_edge_list(write(tmp_path, "under.txt", "1_0 2\n10 3\n"))
        assert list(g.node_ids) == [10, 2, 3] and g.m == 2

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

    @pytest.mark.parametrize("cell", ["inf", "-inf", "+nan", "-NaN", "1e999"])
    def test_non_finite_feature_names_file_line_and_column(self, tmp_path, cell):
        g = self.make_graph()
        p = write(tmp_path, "t.csv", f"id,f1,f2\n10,1,0\n\n20,1,{cell}\n30,1,nan\n")
        with pytest.raises(GraphFormatError, match=rf"t\.csv:4: feature '{re.escape(cell)}' is not finite in column 'f2'"):
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

    def test_blank_rows_load_as_without_them(self, tmp_path):
        g = self.make_graph()
        schema = TableSchema(target_column="y")
        plain = load_node_table(write(tmp_path, "a.csv", "id,f1,y\n30,3.0,b\n10,,a\n20,2.0,a\n"), schema, g)
        blank = load_node_table(write(tmp_path, "b.csv", "id,f1,y\n30,3.0,b\n\n , ,\n10,,a\n20,2.0,a\n\n"), schema, g)
        for name in ("features", "targets", "imputed"):
            np.testing.assert_array_equal(getattr(blank, name), getattr(plain, name))
        assert blank.num_classes == plain.num_classes == 2

    def test_error_after_blank_row_names_file_line(self, tmp_path):
        g = self.make_graph()
        p = write(tmp_path, "t.csv", "id,f1\n10,1\n\n20,x\n30,2\n")
        with pytest.raises(GraphFormatError, match=r"t\.csv:4: non-numeric feature 'x' in column 'f1'"):
            load_node_table(p, TableSchema(), g)

    @pytest.mark.parametrize(
        "task, cell, message",
        [("multiclass", "", "missing target '' in column 'y'"),
         ("multiclass", "nan", "missing target 'nan' in column 'y'"),
         ("binary", " NA ", "missing target ' NA ' in column 'y'"),
         ("regression", "null", "missing target 'null' in column 'y'"),
         ("regression", "inf", "regression target 'inf' is not finite"),
         ("regression", "-1e999", "regression target '-1e999' is not finite"),
         ("regression", "x", "non-numeric regression target 'x' in column 'y'")],
    )
    def test_missing_or_non_finite_target_names_file_line(self, tmp_path, task, cell, message):
        g = self.make_graph()
        p = write(tmp_path, "t.csv", f"id,f1,y\n10,1,0\n\n20,1,{cell}\n30,1,1\n")
        with pytest.raises(GraphFormatError, match=r"t\.csv:4: " + message):
            load_node_table(p, TableSchema(target_column="y", task=task), g)

    @pytest.mark.parametrize(
        "header, schema, message",
        [("id,f,f,target", TableSchema(target_column="target"), "header repeats 'f' (columns 2 and 3)"),
         ("id,f0,target,target", TableSchema(target_column="target"), "header repeats 'target' (columns 3 and 4)"),
         ("id,id,target", TableSchema(target_column="target"), "header repeats 'id' (columns 1 and 2)"),
         ("id,f0,f1,target", TableSchema(feature_columns=("f1", "f0", "f1"), target_column="target"),
          "feature_columns repeats 'f1' (entries 1 and 3)")],
    )
    def test_repeated_column_name_is_refused(self, tmp_path, header, schema, message):
        # a repeated name would load one column twice, or a target or id as a feature
        g = self.make_graph()
        cells = ",".join(["1"] * header.count(","))
        p = write(tmp_path, "t.csv", header + "".join(f"\n{node},{cells}" for node in (10, 20, 30)) + "\n")
        with pytest.raises(GraphFormatError, match=re.escape(f"t.csv: {message}")):
            load_node_table(p, schema, g)

    @pytest.mark.parametrize(
        "features, message",
        [(("f0", "target"), "feature column 'target' is the target column"),
         (("f0", "id"), "feature column 'id' is the id column")],
    )
    def test_id_or_target_as_feature_is_refused(self, tmp_path, features, message):
        g = self.make_graph()
        p = write(tmp_path, "t.csv", "id,f0,target\n10,1,0\n20,2,1\n30,3,0\n")
        with pytest.raises(GraphFormatError, match=re.escape(f"t.csv: {message}")):
            load_node_table(p, TableSchema(feature_columns=features, target_column="target"), g)
        # without a target column, a column named "target" is a feature like any other
        nd = load_node_table(p, TableSchema(feature_columns=("f0", "target")), g)
        assert nd.features.shape == (3, 2) and nd.targets is None


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

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 60).flatmap(
            lambda n: arrays(
                np.float64,
                st.tuples(st.just(n), st.integers(1, 4)),
                elements=st.one_of(st.integers(-3, 3).map(float), st.floats(-1e6, 1e6)),
            )
        ),
        st.booleans(),
    )
    def test_quantile_equals_oracle(self, x, constant_first):
        if constant_first:
            x[:, 0] = x[0, 0]
        got = transform_features(x, "quantile_normal")
        want = quantile_normal_oracle(x)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_quantile_is_gaussian_like(self):
        rng = np.random.default_rng(1)
        x = rng.exponential(size=(4000, 1))
        z = transform_features(x, "quantile_normal")[:, 0]
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            transform_features(np.ones((2, 2)), "whiten")


class TestAverageRanks:
    """``average_ranks`` against ``scipy.stats.rankdata``, kept here only as
    the oracle: the two must agree bit for bit."""

    @staticmethod
    def check(x):
        got = average_ranks(x)
        want = scipy.stats.rankdata(x, axis=0)
        assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()

    def test_integer_columns_with_many_ties(self):
        rng = np.random.default_rng(0)
        self.check(rng.integers(0, 4, size=(500, 6)).astype(np.float64))
        self.check(rng.integers(-2, 3, size=(7, 3)).astype(np.float64))

    def test_signed_zeros_tie(self):
        x = np.array([[0.0, 1.0], [-0.0, -0.0], [1.0, 0.0], [-0.0, -1.0], [0.0, -0.0]])
        self.check(x)
        assert average_ranks(x)[:, 0].tolist() == [2.5, 2.5, 5.0, 2.5, 2.5]

    def test_one_row_and_constant_column(self):
        self.check(np.array([[3.0, -1.0, 0.0]]))
        self.check(np.full((9, 2), 4.0))
        x = np.random.default_rng(1).standard_normal((11, 3))
        x[:, 1] = -2.5
        self.check(x)

    def test_random_normals(self):
        rng = np.random.default_rng(2)
        self.check(rng.standard_normal((2000, 4)))
        self.check(rng.standard_normal((1, 1)))

    def test_empty(self):
        self.check(np.empty((0, 3)))

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 40), st.integers(1, 3)),
            elements=st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e6, 1e6)),
        )
    )
    def test_equals_rankdata(self, x):
        self.check(x)

    def test_none_copies(self):
        x = np.ones((2, 2))
        z = transform_features(x, "none")
        z[0, 0] = 5.0
        assert x[0, 0] == 1.0
