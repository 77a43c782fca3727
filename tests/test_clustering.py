"""Clustering algorithms against exhaustive and brute-force oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clatt import blockmodel
from clatt import training as tr
from clatt.blockmodel import hierarchical_fit, planted_partition_fit
from clatt.errors import InputError
from clatt.graphs import WeightedGraph, from_edges
from clatt.kmeans import kmeans
from clatt.leiden import cpm_quality, default_gamma, leiden_cpm
from clatt.partition import (
    Clustering,
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
    noisy_onehot_features,
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

    def test_library_defaults_six_blocks(self):
        g, _ = sbm_graph([20, 22, 24, 26, 28, 30], 0.3, 0.03, seed=3)
        c = planted_partition_fit(g, seed=0)  # k_max 10, restarts 5, sweeps 50
        assert self.digits(c) == (
            "00000000010000000000222222222222222222221233333333333333333333333344444444444444444444"
            "4444445555555555555555555555555555666666666166616666666666666666")
        assert c.params["score"] == float.fromhex("-0x1.477db02903949p+11")
        c = hierarchical_fit(g, seed=0)  # k_max round(sqrt(150)) = 12, restarts 5, sweeps 30
        assert self.digits(c) == (
            "00000000000000000000111111111111111111111100000000000000000000000022222222222222222222"
            "2222223333333333333333333333333333444444444444444444444444444444")
        assert c.params["levels"] == [5, 5]

    def test_planted_partition_k_max_10(self):
        g, _ = sbm_graph([30] * 8, 0.3, 0.03, seed=4)
        c = planted_partition_fit(g, k_max=10, seed=0)
        assert self.digits(c) == (
            "000000000000000000000000000000111111111111111111111111111111222222222222222222222222222222"
            "333333333333333333333333333333444444444444444444444444444444555555555555555555555555555555"
            "666666666666666666606666666666777777777777777777777777777777")
        assert c.params["score"] == float.fromhex("-0x1.6493214349c69p+12")

    def test_kmeans_on_resmlp_representations(self):
        g, labels = sbm_graph([10, 14, 8, 16], 0.3, 0.05, seed=11)
        x = noisy_onehot_features(labels, 4, flip_rate=0.3, sigma=0.5, seed=0)
        data = tr.TrainData(g, x, labels, "multiclass", num_classes=4)
        reps = tr.resmlp_representations(data, tr.make_split(labels, seed=0), seed=0, hidden=8, layers=2, steps=40)
        assert reps.shape == (48, 8)
        assert [reps[i, j].hex() for i, j in [(0, 0), (17, 3), (47, 7)]] == [
            "-0x1.b92e2c6907aaap-1", "-0x1.d2907e5272cddp+0", "-0x1.f736cbb784734p-2"]
        c, inertia = kmeans(reps, k=4, seed=0)
        assert self.digits(c) == "010213313110121111310011001010333322231312323322"
        assert inertia == float.fromhex("0x1.e105c30f7451ap+6")


def pp_sweeps_oracle(g, comm, k, m, total_pairs, sweeps):
    """One planted-partition run on its own, as the fitter ran before the
    lockstep loop: (assignment, score, sweeps run)."""
    bern, occupied = blockmodel._bern, blockmodel._occupied
    sizes = np.bincount(comm, minlength=k).astype(np.float64)
    edges = g.edge_array()
    m_in = float((comm[edges[:, 0]] == comm[edges[:, 1]]).sum()) if edges.size else 0.0
    t_in = float((sizes * (sizes - 1)).sum() / 2.0)
    ids = np.arange(k)
    done = 0
    for _ in range(sweeps):
        done += 1
        changed = False
        for v in range(g.n):
            a = int(comm[v])
            w = np.bincount(comm[g.neighbors_of(v)], minlength=k).astype(np.float64)
            base_m = m_in - w[a]
            base_t = t_in - (sizes[a] - 1.0)
            kocc = occupied(sizes)
            cand_m = base_m + w
            cand_t = base_t + sizes - (ids == a)
            cand_k = kocc - (sizes[a] == 1.0) + (sizes == 0.0)
            cand_k[a] = kocc
            score = (bern(cand_m, cand_t)
                     + bern(m - cand_m, total_pairs - cand_t)
                     - 0.5 * (cand_k * (cand_k + 1) / 2.0) * np.log(max(total_pairs, 2.0)))
            gain = score - score[a]
            top = float(gain.max())
            if top > blockmodel._TOL:
                b = int(np.where(gain >= top - blockmodel._TOL)[0].min())
                if b != a:
                    comm[v] = b
                    sizes[a] -= 1.0
                    sizes[b] += 1.0
                    m_in = float(cand_m[b])
                    t_in = float(cand_t[b])
                    changed = True
        if not changed:
            break
    like = bern(m_in, t_in) + bern(m - m_in, total_pairs - t_in)
    return comm, float(like) - blockmodel._penalty(occupied(sizes), total_pairs), done


def general_fit_oracle(units, comm, k, sweeps, total_pairs):
    """One full rate-matrix run on its own, as the fitter ran before the
    lockstep loop: (assignment, score, sweeps run)."""
    bern, occupied, tol = blockmodel._bern, blockmodel._occupied, blockmodel._TOL
    n_orig = float(units.sizes.sum())
    M, sizes = blockmodel._block_matrices(units, comm, k)
    log_pairs = np.log(max(total_pairs, 2.0))
    done = 0
    for _ in range(sweeps):
        done += 1
        changed = False
        for v in range(units.n):
            a = int(comm[v])
            s_v = units.sizes[v]
            l_v = units.loops[v]
            nbrs, wts = units.neighbor_data(v)
            w = np.zeros(k)
            np.add.at(w, comm[nbrs], wts)
            M0 = M.copy()
            M0[a, :] -= w
            M0[:, a] -= w
            M0[a, a] += w[a] - l_v
            sizes0 = sizes.copy()
            sizes0[a] -= s_v
            base_rows = bern(M0, blockmodel._pair_matrix(sizes0))
            base_like = float(np.triu(base_rows).sum())
            new_rows = M0 + w[None, :]
            new_rows[np.diag_indices(k)] = np.diag(M0) + w + l_v
            grown = sizes0 + s_v
            new_T = np.outer(grown, sizes0)
            new_T[np.diag_indices(k)] = grown * (grown - 1) / 2.0
            occ_after = occupied(sizes0) + (sizes0 == 0).astype(np.int64)
            gains = (base_like
                     - base_rows.sum(axis=1)
                     + bern(new_rows, new_T).sum(axis=1)
                     - 0.5 * (occ_after * (occ_after + 1) / 2.0) * log_pairs
                     - n_orig * np.log(occ_after))
            top = float(gains.max())
            b = int(np.where(gains >= top - tol)[0].min())
            if b != a and gains[b] > gains[a] + tol:
                comm[v] = b
                M[a, :] -= w
                M[:, a] -= w
                M[a, a] += w[a] - l_v
                M[b, :] += w
                M[:, b] += w
                M[b, b] += l_v - w[b]
                sizes[a] -= s_v
                sizes[b] += s_v
                changed = True
        if not changed:
            break
    return comm, blockmodel._general_score(units, comm, k, total_pairs), done


def random_starts(n, ladder, restarts, seed):
    """(k, initial assignment) of every run, drawn as the fitters draw them."""
    root = np.random.SeedSequence(seed)
    runs = []
    for k in ladder:
        for sub in root.spawn(restarts):
            runs.append((k, np.random.default_rng(sub).integers(0, k, size=n).astype(np.int64)))
    return runs


class TestLockstepFits:
    """Every lockstep run equals the same run fitted on its own."""

    @staticmethod
    def check_pp(g, ladder, restarts, sweeps, seed=0):
        runs = random_starts(g.n, ladder, restarts, seed)
        total_pairs, m = g.n * (g.n - 1) / 2.0, float(g.m)
        ks = [k for k, _ in runs]
        comm, scores = blockmodel._pp_lockstep(g, ks, np.stack([c.copy() for _, c in runs]), m, total_pairs, sweeps)
        done = set()
        for r, (k, start) in enumerate(runs):
            want, want_score, n_sweeps = pp_sweeps_oracle(g, start.copy(), k, m, total_pairs, sweeps)
            assert np.array_equal(comm[r], want), (k, r)
            assert scores[r] == want_score, (k, r)  # bitwise
            done.add(n_sweeps)
        return done

    @staticmethod
    def check_general(units, ladder, restarts, sweeps, total_pairs, seed=0):
        runs = random_starts(units.n, ladder, restarts, seed)
        ks = [k for k, _ in runs]
        comm = blockmodel._general_lockstep(units, ks, np.stack([c.copy() for _, c in runs]), sweeps, total_pairs)
        done = set()
        for r, (k, start) in enumerate(runs):
            want, want_score, n_sweeps = general_fit_oracle(units, start.copy(), k, sweeps, total_pairs)
            assert np.array_equal(comm[r], want), (k, r)
            assert blockmodel._general_score(units, comm[r], k, total_pairs) == want_score
            done.add(n_sweeps)
        return done

    def test_planted_partition_runs_with_wide_ladder(self):
        g, _ = sbm_graph([12] * 6, 0.4, 0.04, seed=21)
        done = self.check_pp(g, list(range(1, 11)), restarts=2, sweeps=50)
        assert len(done) > 1  # runs converge at different sweeps

    def test_planted_partition_single_sweep(self):
        g, _ = sbm_graph([15, 10, 20], 0.3, 0.05, seed=22)
        assert self.check_pp(g, [1, 2, 3, 4, 5], restarts=3, sweeps=1) == {1}

    def test_general_runs_with_wide_ladder(self):
        g, _ = sbm_graph([10] * 5, 0.5, 0.05, seed=23)
        done = self.check_general(WeightedGraph.from_graph(g), list(range(1, 10)), 2, 30, g.n * (g.n - 1) / 2.0)
        assert len(done) > 1

    def test_general_runs_on_weighted_quotient_with_loops(self):
        g, _ = sbm_graph([12] * 5, 0.5, 0.03, seed=24)
        units = WeightedGraph.from_graph(g).quotient(np.arange(g.n) % 20)
        assert units.loops.sum() > 0 and (units.weights > 1).any()
        done = self.check_general(units, [1, 2, 3, 4, 6, 8, 10], 2, 30, g.n * (g.n - 1) / 2.0)
        assert len(done) > 1

    def test_general_single_sweep(self):
        g, _ = sbm_graph([10, 15, 10], 0.4, 0.05, seed=25)
        assert self.check_general(WeightedGraph.from_graph(g), [2, 3, 4], 3, 1, g.n * (g.n - 1) / 2.0) == {1}

    def test_run_batches_split_by_cell_budget(self, monkeypatch):
        g, _ = sbm_graph([10, 12, 14], 0.4, 0.05, seed=26)
        bpp = planted_partition_fit(g, k_max=6, seed=1, restarts=2)
        h1 = hierarchical_fit(g, k_max=6, seed=1, restarts=2)
        monkeypatch.setattr(blockmodel, "LOCKSTEP_MAX_CELLS", 1)  # one run per batch
        assert blockmodel._run_batches([1, 1, 2], lambda k: 5) == [slice(0, 1), slice(1, 2), slice(2, 3)]
        one = planted_partition_fit(g, k_max=6, seed=1, restarts=2)
        assert np.array_equal(one.assignment, bpp.assignment) and one.params["score"] == bpp.params["score"]
        assert np.array_equal(hierarchical_fit(g, k_max=6, seed=1, restarts=2).assignment, h1.assignment)

    def test_k_max_below_two_is_input_error(self):
        # every H1 level fits at least two blocks, so k_max 1 would leave an
        # empty ladder and a one-block fallback that looks like a fit
        g, _ = sbm_graph([6, 6], 0.6, 0.1, seed=27)
        for k_max in (1, 0, -3):
            with pytest.raises(InputError, match=f"k_max must be at least 2, got {k_max}"):
                hierarchical_fit(g, k_max=k_max, seed=0)


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

    def test_unassigned_nodes_in_one_type(self):
        c = Clustering(np.array([1, -1, 0, 1, -1, 0, 1]))
        c.validate()
        assert c.num_clusters == 2
        assert c.sizes().tolist() == [2, 3]
        assert [cl.tolist() for cl in c.clusters()] == [[2, 5], [0, 3, 6]]
        assert c.unassigned.tolist() == [1, 4]
        assert Clustering(np.full(3, -1)).num_clusters == 0
        Clustering(np.full(3, -1)).validate()

    @pytest.mark.parametrize("assignment, message", [([0, -2, 0], "below -1"), ([0, -1, 2], "gap"), ([], "empty")])
    def test_validate_rejects(self, assignment, message):
        with pytest.raises(ValueError, match=message):
            Clustering(np.array(assignment, dtype=np.int64)).validate()

    def test_refilter_keeps_unassigned(self):
        f = filter_clusters(self.build([2, 6, 5]), min_size=4)
        g = filter_clusters(f, min_size=6)
        assert g.unassigned.tolist() == list(range(2)) + list(range(8, 13))
        assert g.num_clusters == 1 and g.params["min_size"] == 6


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

    def test_cluster_ids_only_name_clusters(self):
        a = np.array([3, 3, 0, 7, 0, 3])
        b = np.array([1, 1, 1, 2, 0, 0])
        far_a = np.array([10**12, 10**12, -(2**62), 2**63 - 1, -(2**62), 10**12])
        far_b = b * 10**15 - 5
        assert pair_counts(far_a, far_b) == pair_counts(a, b)

    def test_memory_linear_in_n_for_singletons(self):
        n = 3000
        a = np.arange(n)
        tracemalloc.start()
        try:
            pc = pair_counts(a, a[::-1].copy())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (pc.n11, pc.n00) == (0, n * (n - 1) // 2)
        assert peak < 200 * n  # a dense ka x kb contingency table would take 8 n^2 bytes


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
