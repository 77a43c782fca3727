"""Clustering algorithms against exhaustive and brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clatt.blockmodel import hierarchical_fit, planted_partition_fit
from clatt.graphs import from_edges
from clatt.kmeans import kmeans
from clatt.leiden import cpm_quality, default_gamma, leiden_cpm
from clatt.partition import (
    Clustering,
    FilteredClustering,
    filter_clusters,
    load_clustering,
    relabel_by_first_occurrence,
    save_clustering,
)
from clatt.similarity import (
    DegenerateClusteringError,
    correlation_coefficient,
    pair_counts,
    similarity_matrix,
)
from clatt.synthetic import (
    bridge_of_cliques,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    sbm_graph,
    star_graph,
)


def set_partitions(elems):
    """All partitions of a list (Bell-number many)."""
    if not elems:
        yield []
        return
    first, rest = elems[0], elems[1:]
    for p in set_partitions(rest):
        for i in range(len(p)):
            yield p[:i] + [p[i] + [first]] + p[i + 1 :]
        yield p + [[first]]


def exhaustive_cpm_optimum(g, gamma):
    best = -np.inf
    best_parts = []
    for parts in set_partitions(list(range(g.n))):
        assign = np.empty(g.n, dtype=np.int64)
        for cid, block in enumerate(parts):
            assign[block] = cid
        q = cpm_quality(g, assign, gamma)
        if q > best + 1e-12:
            best, best_parts = q, [parts]
        elif q > best - 1e-12:
            best_parts.append(parts)
    return best, best_parts


def as_sets(assignment):
    assignment = np.asarray(assignment)
    return {frozenset(np.where(assignment == c)[0].tolist())
            for c in np.unique(assignment) if c >= 0}


class TestCpmQuality:
    def test_triangle_values(self):
        g = complete_graph(3)
        one = np.zeros(3, dtype=np.int64)
        singles = np.arange(3)
        assert cpm_quality(g, one, 1e-9) == pytest.approx(3.0)
        assert cpm_quality(g, one, 1.0) == pytest.approx(0.0)
        assert cpm_quality(g, singles, 0.7) == pytest.approx(0.0)

    def test_gamma_positive_required(self):
        with pytest.raises(ValueError):
            cpm_quality(complete_graph(3), np.zeros(3, dtype=np.int64), 0.0)


class TestLeiden:
    def test_two_cliques_bridge_exact(self):
        g = bridge_of_cliques([5, 5])
        c = leiden_cpm(g, gamma=0.3, seed=0)
        assert as_sets(c.assignment) == {frozenset(range(5)), frozenset(range(5, 10))}

    def test_attains_exhaustive_optimum_on_clique_chains(self):
        for sizes in ([3, 3], [4, 4], [5, 5], [3, 4], [3, 3, 3]):
            g = bridge_of_cliques(sizes)
            for gamma in (0.1, 0.3, 0.5):
                opt, _ = exhaustive_cpm_optimum(g, gamma)
                got = cpm_quality(g, leiden_cpm(g, gamma=gamma, seed=1).assignment, gamma)
                assert got == pytest.approx(opt, abs=1e-9), (sizes, gamma)

    def test_never_beats_exhaustive_optimum(self):
        for seed in range(6):
            g = erdos_renyi(7, 0.4, seed=seed)
            for gamma in (0.2, 0.6):
                opt, _ = exhaustive_cpm_optimum(g, gamma)
                q = cpm_quality(g, leiden_cpm(g, gamma=gamma, seed=seed).assignment, gamma)
                assert q <= opt + 1e-9

    def test_edgeless_all_singletons(self):
        g = from_edges([], [], n=5)
        c = leiden_cpm(g, gamma=0.4)
        assert c.num_clusters == 5

    def test_complete_one_cluster(self):
        c = leiden_cpm(complete_graph(6), gamma=0.5, seed=0)
        assert c.num_clusters == 1

    @given(st.integers(0, 10_000), st.sampled_from([0.1, 0.3, 0.8]))
    @settings(max_examples=40, deadline=None)
    def test_quality_nondecreasing_and_valid(self, seed, gamma):
        g = erdos_renyi(25, 0.15, seed=seed)
        c = leiden_cpm(g, gamma=gamma, seed=seed)
        c.validate()
        qs = c.params["pass_qualities"]
        assert all(b >= a - 1e-9 for a, b in zip(qs, qs[1:]))

    def test_deterministic(self):
        g = erdos_renyi(40, 0.1, seed=3)
        a = leiden_cpm(g, seed=11).assignment
        b = leiden_cpm(g, seed=11).assignment
        assert np.array_equal(a, b)

    def test_permutation_stability_on_separated_graph(self):
        # strongly separated optimum: permuting ids permutes the partition
        g = bridge_of_cliques([5, 4])
        base = leiden_cpm(g, gamma=0.3, seed=5).assignment
        rng = np.random.default_rng(8)
        perm = rng.permutation(g.n)
        edges = g.edge_array()
        g2 = from_edges(perm[edges[:, 0]], perm[edges[:, 1]], n=g.n)
        permuted = leiden_cpm(g2, gamma=0.3, seed=5).assignment
        assert as_sets(permuted) == {frozenset(perm[list(s)].tolist()) for s in as_sets(base)}

    def test_default_gamma_is_density(self):
        g = bridge_of_cliques([5, 5])
        assert default_gamma(g) == pytest.approx(2 * 21 / (10 * 9))

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            leiden_cpm(complete_graph(3), gamma=-1.0)


class TestPlantedPartition:
    def test_recovers_four_blocks(self):
        g, planted = sbm_graph([50, 50, 50, 50], 0.3, 0.02, seed=7)
        c = planted_partition_fit(g, k_max=8, seed=0)
        assert correlation_coefficient(c.assignment, planted) >= 0.9

    def test_complete_graph_single_cluster(self):
        c = planted_partition_fit(complete_graph(8), k_max=5, seed=0)
        assert c.num_clusters == 1

    def test_edgeless_single_cluster(self):
        g = from_edges([], [], n=8)
        c = planted_partition_fit(g, k_max=5, seed=0)
        assert c.num_clusters == 1

    def test_deterministic(self):
        g, _ = sbm_graph([30, 30], 0.3, 0.05, seed=1)
        a = planted_partition_fit(g, k_max=4, seed=9).assignment
        b = planted_partition_fit(g, k_max=4, seed=9).assignment
        assert np.array_equal(a, b)

    def test_bad_kmax(self):
        with pytest.raises(ValueError):
            planted_partition_fit(complete_graph(3), k_max=0)

    def test_permutation_stability_on_separated_graph(self):
        g, planted = sbm_graph([40, 40], 0.4, 0.01, seed=2)
        base = planted_partition_fit(g, k_max=4, seed=3).assignment
        perm = np.random.default_rng(4).permutation(g.n)
        edges = g.edge_array()
        g2 = from_edges(perm[edges[:, 0]], perm[edges[:, 1]], n=g.n)
        permuted = planted_partition_fit(g2, k_max=4, seed=3).assignment
        assert as_sets(permuted) == {frozenset(perm[list(s)].tolist()) for s in as_sets(base)}


class TestHierarchical:
    def test_two_cliques_top_level(self):
        g = bridge_of_cliques([5, 5])
        c = hierarchical_fit(g, seed=0)
        assert c.num_clusters == 2
        assert as_sets(c.assignment) == {frozenset(range(5)), frozenset(range(5, 10))}

    def test_six_cycle_small_nontrivial_level(self):
        c = hierarchical_fit(cycle_graph(6), seed=0)
        assert 2 <= c.num_clusters <= 3

    def test_bipartite_roles(self):
        # two stars: hubs 0 and 9; disassortative structure
        hubs = np.array([0] * 8 + [9] * 8)
        leaves = np.array(list(range(1, 9)) + list(range(10, 18)))
        g = from_edges(hubs, leaves, n=18)
        c = hierarchical_fit(g, seed=0)
        roles = np.ones(18, dtype=np.int64)
        roles[[0, 9]] = 0
        assert correlation_coefficient(c.assignment, roles) >= 0.8

    def test_deterministic(self):
        g, _ = sbm_graph([20, 20, 20], 0.3, 0.02, seed=5)
        a = hierarchical_fit(g, seed=2).assignment
        b = hierarchical_fit(g, seed=2).assignment
        assert np.array_equal(a, b)

    def test_disassortative_blocks(self):
        g, planted = sbm_graph([40, 40], 0.02, 0.4, seed=6)
        c = hierarchical_fit(g, seed=1)
        assert correlation_coefficient(c.assignment, planted) >= 0.9


class TestRecordedAssignments:
    """Golden fixed-seed LA/BPP/H1 assignments: a rewrite of the clustering
    or coarsening code must reproduce them exactly."""

    @staticmethod
    def digits(c):
        return "".join(map(str, c.assignment.tolist()))

    def test_leiden(self):
        g, _ = sbm_graph([10, 14, 8, 16], 0.3, 0.05, seed=11)
        a = leiden_cpm(g, seed=0)
        assert self.digits(a) == "000012320224444454444444052202551111111131131111"
        assert len(a.params["pass_qualities"]) == 3  # two aggregation steps
        assert self.digits(leiden_cpm(g, seed=1)) == "011220230034344433444444150010113555555555525555"

    def test_planted_partition(self):
        g, _ = sbm_graph([10, 14, 8, 16], 0.3, 0.05, seed=11)
        c = planted_partition_fit(g, k_max=6, seed=0, restarts=2)
        assert self.digits(c) == "000010100022222222222222000000001111111111111111"

    def test_hierarchical(self):
        g, _ = sbm_graph([10, 14, 8, 16], 0.3, 0.05, seed=11)
        c = hierarchical_fit(g, k_max=6, seed=0, restarts=2)
        assert self.digits(c) == "000000010011111111111111000000000000000000000000"
        assert c.params["levels"] == [2, 2]
        g, _ = sbm_graph([8] * 6, 0.6, 0.05, seed=5)
        c = hierarchical_fit(g, k_max=6, seed=0, restarts=2)
        assert self.digits(c) == "000000001111111111111111111111110000000000000000"
        assert c.params["levels"] == [5, 2, 2]  # two quotients, the second with loops


class TestKmeans:
    def test_two_tight_groups(self):
        pts = np.array([[0.0], [0.1], [10.0], [10.1]])
        c, inertia = kmeans(pts, k=2, seed=0)
        assert as_sets(c.assignment) == {frozenset([0, 1]), frozenset([2, 3])}
        assert inertia == pytest.approx(0.01)

    def test_k_equals_n(self):
        pts = np.random.default_rng(0).normal(size=(6, 3))
        c, inertia = kmeans(pts, k=6, seed=1)
        assert inertia == pytest.approx(0.0, abs=1e-12)
        assert c.num_clusters == 6

    def test_k_one(self):
        pts = np.random.default_rng(1).normal(size=(20, 2))
        _, inertia = kmeans(pts, k=1, seed=0)
        expected = ((pts - pts.mean(axis=0)) ** 2).sum()
        assert inertia == pytest.approx(expected)

    def test_k_too_big(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), k=4)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_inertia_nonincreasing(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(40, 3))
        c, _ = kmeans(pts, k=4, seed=seed)
        hist = c.params["inertia_history"]
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
        c.validate()

    def test_deterministic(self):
        pts = np.random.default_rng(2).normal(size=(50, 4))
        a, _ = kmeans(pts, k=5, seed=3)
        b, _ = kmeans(pts, k=5, seed=3)
        assert np.array_equal(a.assignment, b.assignment)


class TestFilter:
    def build(self, sizes):
        assignment = np.repeat(np.arange(len(sizes)), sizes)
        return Clustering(assignment=assignment, algorithm_tag="LA")

    def test_boundaries_inclusive(self):
        c = self.build([3, 4, 512, 513])
        f = filter_clusters(c)
        f.validate()
        kept = [len(cl) for cl in f.clusters()]
        assert kept == [4, 512]
        assert f.unassigned.size == 3 + 513

    def test_all_singletons_unassigned(self):
        c = self.build([1] * 6)
        f = filter_clusters(c)
        assert f.num_clusters == 0 and f.unassigned.size == 6

    def test_in_range_identity(self):
        c = self.build([5, 10, 7])
        f = filter_clusters(c)
        assert f.unassigned.size == 0
        assert np.array_equal(f.assignment, c.assignment)

    def test_membership_unchanged(self):
        c = self.build([2, 6, 3, 8])
        f = filter_clusters(c, min_size=4, max_size=512)
        for cl in f.clusters():
            orig = np.unique(c.assignment[cl])
            assert orig.size == 1
            assert np.array_equal(np.where(c.assignment == orig[0])[0], np.sort(cl))


def brute_pair_counts(a, b):
    n = len(a)
    n11 = n10 = n01 = n00 = 0
    for i in range(n):
        for j in range(i + 1, n):
            sa, sb = a[i] == a[j], b[i] == b[j]
            n11 += sa and sb
            n10 += sa and not sb
            n01 += sb and not sa
            n00 += not sa and not sb
    return n11, n10, n01, n00


class TestPairCounts:
    def test_tiny_examples(self):
        pc = pair_counts(np.array([0, 0, 1]), np.array([0, 0, 1]))
        assert (pc.n11, pc.n10, pc.n01, pc.n00) == (1, 0, 0, 2)
        pc = pair_counts(np.arange(3), np.zeros(3, dtype=np.int64))
        assert (pc.n11, pc.n10, pc.n01, pc.n00) == (0, 0, 3, 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pair_counts(np.zeros(3, dtype=np.int64), np.zeros(4, dtype=np.int64))

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = 60
        a = rng.integers(0, 5, size=n)
        b = rng.integers(0, 7, size=n)
        pc = pair_counts(a, b)
        assert (pc.n11, pc.n10, pc.n01, pc.n00) == brute_pair_counts(a, b)
        assert pc.total == n * (n - 1) // 2


class TestCorrelationCoefficient:
    def test_self_similarity_exactly_one(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 10, size=500)
        assert correlation_coefficient(a, a) == 1.0

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 6, size=300)
        b = rng.integers(0, 4, size=300)
        assert correlation_coefficient(a, b) == correlation_coefficient(b, a)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateClusteringError):
            correlation_coefficient(np.zeros(5, dtype=np.int64), np.array([0, 0, 1, 1, 2]))
        with pytest.raises(DegenerateClusteringError):
            correlation_coefficient(np.arange(5), np.array([0, 0, 1, 1, 2]))

    def test_independent_assignments_near_zero(self):
        vals = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a = rng.integers(0, 10, size=500)
            b = rng.integers(0, 10, size=500)
            vals.append(correlation_coefficient(a, b))
        assert abs(np.mean(vals)) < 0.05
        assert all(abs(v) < 0.1 for v in vals)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_range(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 4, size=40)
        b = rng.integers(0, 3, size=40)
        try:
            cc = correlation_coefficient(a, b)
        except DegenerateClusteringError:
            return
        assert -1.0 <= cc <= 1.0

    def test_similarity_matrix_degenerate_cell(self):
        good = np.array([0, 0, 1, 1])
        bad = np.zeros(4, dtype=np.int64)
        mat, reasons = similarity_matrix([good, bad])
        assert mat[0, 0] == 1.0
        assert np.isnan(mat[0, 1]) and np.isnan(mat[1, 1])
        assert (0, 1) in reasons


class TestSerialization:
    def test_roundtrip_with_unassigned(self, tmp_path):
        c = Clustering(assignment=np.array([0, 0, 1, 1, 1, 2]), algorithm_tag="BPP",
                       params={"seed": 3})
        f = filter_clusters(c, min_size=2, max_size=3)
        path = tmp_path / "clusters.csv"
        save_clustering(path, f, node_ids=np.array([10, 11, 12, 13, 14, 15]))
        ids, assignment, meta = load_clustering(path)
        assert ids.tolist() == [10, 11, 12, 13, 14, 15]
        assert assignment.tolist() == f.assignment.tolist()
        assert meta["algorithm_tag"] == "BPP"
        assert meta["num_unassigned"] == 1

    def test_header_required(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1,2\n3,4\n")
        with pytest.raises(ValueError, match="header"):
            load_clustering(p)

    def test_relabel_by_first_occurrence(self):
        out = relabel_by_first_occurrence(np.array([7, 2, 7, 5, 2]))
        assert out.tolist() == [0, 1, 0, 2, 1]
