"""Clustering algorithms against exhaustive and brute-force oracles."""

import tracemalloc
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clatt import blockmodel, leiden
from clatt import training as tr
from clatt.blockmodel import hierarchical_fit, planted_partition_fit
from clatt.errors import InputError
from clatt.graphs import WeightedGraph, from_edges, relabel_by_first_occurrence
from clatt.kmeans import kmeans
from clatt.leiden import cpm_quality, default_gamma, leiden_cpm
from clatt.partition import (
    Clustering,
    filter_clusters,
    load_clustering,
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


    def test_geometric_ladder_past_twelve_blocks(self):
        g, planted = sbm_graph([50] * 4, 0.3, 0.01, seed=0)
        c = planted_partition_fit(g, k_max=20, seed=0, restarts=2)
        assert correlation_coefficient(c.assignment, planted) == pytest.approx(1.0)


class TestHierarchical:
    def test_k_ladder_is_geometric_past_twelve(self):
        assert blockmodel._k_ladder(12) == list(range(1, 13))
        assert blockmodel._k_ladder(25) == [1, 2, 3, 4, 6, 7, 9, 12, 15, 20, 25]

    def test_default_k_max_takes_the_geometric_ladder(self):
        g, planted = sbm_graph([50] * 4, 0.3, 0.01, seed=0)  # default k_max round(sqrt(200)) = 14
        c = hierarchical_fit(g, seed=0, restarts=1, sweeps=5)
        assert c.params["k_max"] == 14
        assert correlation_coefficient(c.assignment, planted) == pytest.approx(1.0)

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

    def test_single_edge_collapses_to_one_block(self):
        c = hierarchical_fit(from_edges(np.array([0]), np.array([1]), n=2), seed=0)
        assert c.params["collapsed"] and c.params["levels"] == [1]
        assert c.assignment.tolist() == [0, 0]

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

    def test_leiden_aggregates_onto_weighted_levels(self):
        # three aggregation steps; the later levels carry edge weights up to 17
        g, _ = sbm_graph([20] * 6, 0.25, 0.03, seed=5)
        a = leiden_cpm(g, gamma=0.1, seed=2)
        assert self.digits(a) == (
            "000000000010000000001121121111211111311144444444444444444444"
            "222222222222222222425555505505655555553566666666666666666622")
        assert [q.hex() for q in a.params["pass_qualities"]] == [
            "0x1.72cccccccccccp+7", "0x1.859999999999ap+7", "0x1.8f33333333333p+7", "0x1.8f33333333333p+7"]

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


def occupied(sizes):
    return int((sizes > 0).sum())


def pair_matrix(sizes):
    T = np.outer(sizes, sizes)
    np.fill_diagonal(T, sizes * (sizes - 1) / 2.0)
    return T


def block_matrices_oracle(units, comm, k):
    """The former H1 block state of a partition into k blocks, aggregated
    with its own np.add.at pass: edge-weight matrix M (loops on the
    diagonal) and block sizes."""
    src = np.repeat(np.arange(units.n), np.diff(units.indptr))
    rows, cols = comm[src], comm[units.indices]
    M = np.zeros((k, k))
    np.add.at(M, (rows, cols), units.weights)
    M = (M + M.T) / 2.0  # symmetric; off-diagonal now holds undirected weight
    M[np.diag_indices(k)] /= 2.0
    M[np.diag_indices(k)] += np.bincount(comm, weights=units.loops, minlength=k)
    sizes = np.bincount(comm, weights=units.sizes, minlength=k)
    return M, sizes


def general_score_oracle(units, comm, k, total_pairs):
    """Penalised likelihood of a full rate-matrix partition into k blocks,
    from scratch: block matrices of the assignment, the likelihood over
    their upper triangle, the model-order penalty and the code length
    n log k of the assignment."""
    M, sizes = block_matrices_oracle(units, comm, k)
    like = float(np.triu(blockmodel._bern(M, pair_matrix(sizes))).sum())
    kocc = occupied(sizes)
    return float(like - blockmodel._penalty(kocc, total_pairs) - float(units.sizes.sum()) * np.log(kocc))


def pp_sweeps_oracle(g, comm, k, m, total_pairs, sweeps):
    """One planted-partition run on its own, as the fitter ran before the
    lockstep loop: (assignment, score, sweeps run)."""
    bern = blockmodel._bern
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
    bern, tol = blockmodel._bern, blockmodel._TOL
    n_orig = float(units.sizes.sum())
    M, sizes = block_matrices_oracle(units, comm, k)
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
            base_rows = bern(M0, pair_matrix(sizes0))
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
    return comm, general_score_oracle(units, comm, k, total_pairs), done


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
        comm, scores = blockmodel._general_lockstep(units, ks, np.stack([c.copy() for _, c in runs]), sweeps, total_pairs)
        done = set()
        for r, (k, start) in enumerate(runs):
            want, want_score, n_sweeps = general_fit_oracle(units, start.copy(), k, sweeps, total_pairs)
            assert np.array_equal(comm[r], want), (k, r)
            assert scores[r] == want_score, (k, r)  # bitwise
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
        # the least budget H1 with k_max 6 accepts (6 x 6 blocks): one run per
        # batch on the first level, whose runs hold 36 + k * k cells each
        monkeypatch.setattr(blockmodel, "LOCKSTEP_MAX_CELLS", 36)
        assert np.array_equal(hierarchical_fit(g, k_max=6, seed=1, restarts=2).assignment, h1.assignment)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_block_state_matches_former_aggregation_bitwise(self, seed, levels, runs):
        # weighted levels with loops, and runs whose blocks stop short of the batch's K
        rng = np.random.default_rng(seed)
        g = erdos_renyi(int(rng.integers(2, 30)), 0.25, seed=seed)
        units = WeightedGraph.from_graph(g)
        for _ in range(levels):
            units = units.quotient(relabel_by_first_occurrence(rng.integers(0, max(units.n // 2, 1), size=units.n)))
        ks = sorted(int(k) for k in rng.integers(1, units.n + 1, size=runs))
        comm = np.stack([rng.integers(0, k, size=units.n) for k in ks])
        start = {}
        real = blockmodel._lockstep

        def spy(state, n, sweeps, visit):
            start.update(M=state["M"].copy(), sizes=state["sizes"].copy())
            return real(state, n, sweeps, visit)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blockmodel, "_lockstep", spy)
            blockmodel._general_lockstep(units, ks, comm.copy(), 0, max(g.n * (g.n - 1) / 2.0, 1.0))
        for r, c in enumerate(comm):
            M, sizes = block_matrices_oracle(units, c, max(ks))
            assert start["M"][r].tobytes() == M.tobytes() and start["sizes"][r].tobytes() == sizes.tobytes()

    def test_h1_refuses_a_run_past_the_cell_budget_before_fitting(self, monkeypatch):
        # one run's K x K state would otherwise be allocated whatever its size
        g, _ = sbm_graph([10, 12, 14], 0.4, 0.05, seed=26)

        class Fitting(Exception):
            pass

        def fit(*args):
            raise Fitting

        monkeypatch.setattr(blockmodel, "_fit_ladder", fit)
        monkeypatch.setattr(blockmodel, "LOCKSTEP_MAX_CELLS", 24)
        with pytest.raises(InputError, match="H1 fits up to 5 blocks: a 5 x 5 block matrix exceeds the 24 cell bound"):
            hierarchical_fit(g, k_max=5, seed=0)
        monkeypatch.setattr(blockmodel, "LOCKSTEP_MAX_CELLS", 25)
        with pytest.raises(Fitting):
            hierarchical_fit(g, k_max=5, seed=0)

    def test_k_max_below_two_is_input_error(self):
        # every H1 level fits at least two blocks, so k_max 1 would leave an
        # empty ladder and a one-block fallback that looks like a fit
        g, _ = sbm_graph([6, 6], 0.6, 0.1, seed=27)
        for k_max in (1, 0, -3):
            with pytest.raises(InputError, match=f"k_max must be at least 2, got {k_max}"):
                hierarchical_fit(g, k_max=k_max, seed=0)


def local_move_oracle(level, comm, gamma, rng):
    """Leiden's local-move sweep as numpy calls per visit, with free ids in
    a deque re-sorted on every emptying; mutates ``comm``, returns moved."""
    eps = leiden._EPS
    n = level.n
    cap = int(comm.max()) + 1
    comm_size = np.bincount(comm, weights=level.sizes, minlength=cap).astype(np.float64)
    free = deque(sorted(np.where(comm_size[: cap] == 0)[0].tolist()))
    order = rng.permutation(n)
    queue = deque(order.tolist())
    queued = np.ones(n, dtype=bool)
    moved_any = False
    while queue:
        v = queue.popleft()
        queued[v] = False
        a = comm[v]
        s_v = level.sizes[v]
        nbrs, wts = level.neighbor_data(v)
        w_to = np.zeros(comm_size.shape[0])
        np.add.at(w_to, comm[nbrs], wts)
        cands = np.unique(comm[nbrs])
        cands = cands[cands != a]
        base = -w_to[a] + gamma * s_v * (comm_size[a] - s_v)
        best_c, best_gain = a, 0.0
        if cands.size:
            gains = base + w_to[cands] - gamma * s_v * comm_size[cands]
            top = float(gains.max())
            if top > best_gain + eps:
                best_c = int(cands[gains >= top - eps].min())
                best_gain = top
        if comm_size[a] > s_v and base > best_gain + eps:
            if not free:
                comm_size = np.append(comm_size, 0.0)
                free.append(comm_size.shape[0] - 1)
            best_c, best_gain = free[0], float(base)
        if best_c == a:
            continue
        if free and best_c == free[0]:
            free.popleft()
        comm_size[a] -= s_v
        comm_size[best_c] += s_v
        comm[v] = best_c
        if comm_size[a] == 0:
            free.appendleft(a)
            free = deque(sorted(free))
        moved_any = True
        for u in nbrs[comm[nbrs] != best_c]:
            if not queued[u]:
                queue.append(int(u))
                queued[u] = True
    return moved_any


def refine_oracle(level, comm, gamma, rng):
    """Leiden's refinement sweep as numpy calls per visit."""
    eps = leiden._EPS
    n = level.n
    sub = np.arange(n, dtype=np.int64)
    sub_size = level.sizes.copy()
    comm_size = np.bincount(comm, weights=level.sizes).astype(np.float64)
    for v in rng.permutation(n):
        if sub_size[sub[v]] != level.sizes[v]:
            continue
        a = comm[v]
        s_v = level.sizes[v]
        nbrs, wts = level.neighbor_data(v)
        inside = comm[nbrs] == a
        if not inside.any():
            continue
        w_comm = float(wts[inside].sum())
        if w_comm < gamma * s_v * (comm_size[a] - s_v) - eps:
            continue
        w_to = {}
        for u, w in zip(nbrs[inside], wts[inside]):
            t = sub[u]
            if t != sub[v]:
                w_to[t] = w_to.get(t, 0.0) + w
        if not w_to:
            continue
        cands = np.array(sorted(w_to))
        gains = np.array([w_to[t] - gamma * s_v * sub_size[t] for t in cands])
        top = gains.max()
        if top <= eps:
            continue
        t = int(cands[gains >= top - eps].min())
        sub_size[t] += s_v
        sub_size[sub[v]] -= s_v
        sub[v] = t
    return sub


class TestLeidenSweeps:
    """The list-based sweeps make the numpy oracles' decisions, bit for bit."""

    @staticmethod
    def check(level, start, gamma, seed):
        """Both local moves from ``start``, then both refinements of the
        result; returns the local-move assignment."""
        got, want = start.copy(), start.copy()
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        assert leiden._local_move(level, got, gamma, rng_got) == local_move_oracle(level, want, gamma, rng_want)
        assert np.array_equal(got, want)
        comm = relabel_by_first_occurrence(got)
        sub = leiden._refine(level, comm, gamma, rng_got)
        assert np.array_equal(sub, refine_oracle(level, comm, gamma, rng_want))
        assert rng_got.bit_generator.state == rng_want.bit_generator.state
        return want

    @given(st.integers(0, 10_000), st.integers(2, 40), st.sampled_from([0.05, 0.15, 0.4]),
           st.sampled_from([0.125, 0.25, 0.5, 1.0, 1 / 3, None]), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_random_graphs_and_quotient_levels(self, seed, n, p, gamma, coarsen):
        # dyadic gammas times whole sizes and weights make exact ties
        g = erdos_renyi(n, p, seed=seed)
        level = WeightedGraph.from_graph(g)
        rng = np.random.default_rng(seed)
        for _ in range(coarsen):
            level = level.quotient(relabel_by_first_occurrence(rng.integers(0, max(level.n // 2, 1), size=level.n)))
        gamma = default_gamma(g) if gamma is None else gamma
        # singletons as in a pass, or a random start with empty ids
        start = np.arange(level.n) if seed % 2 else rng.integers(0, level.n + 2, size=level.n)
        self.check(level, start.astype(np.int64), gamma, seed)

    def test_empties_communities_and_splits_into_fresh_ids(self):
        # the sweep splits node 11 off into id 3, past the last id, empties
        # community 1, splits node 2 off into that freed id, then empties 0
        g = bridge_of_cliques([4, 4, 4])
        start = np.array([2, 0, 0, 0, 0, 2, 2, 1, 0, 0, 0, 1], dtype=np.int64)
        got = self.check(WeightedGraph.from_graph(g), start, 0.5, seed=3)
        assert got.tolist() == [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]


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

    @pytest.mark.parametrize("seed", range(10))
    def test_repair_keeps_every_cluster_when_points_repeat(self, seed):
        # fewer distinct points than k: a repair must not empty a cluster it
        # has just re-seeded, or the next mean runs over an empty slice
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c, _ = kmeans([[0.0], [0.0], [0.0], [1.0]], k=4, seed=seed)
        assert np.bincount(c.assignment, minlength=4).min() == 1
        hist = c.params["inertia_history"]
        assert len(hist) < 100 and all(b <= a for a, b in zip(hist, hist[1:]))

    @pytest.mark.parametrize("features", [2, 8, 16, 64])
    @pytest.mark.parametrize("seed", range(3))
    def test_stops_on_many_repeated_points(self, features, seed):
        # identical centres get distances that differ by rounding, so a
        # point can move between them on every pass and the assignment
        # need never repeat; the inertia stops falling instead
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(20, features))[rng.integers(0, 20, 1000)]
        c, _ = kmeans(pts, k=50, seed=seed)
        hist = c.params["inertia_history"]
        assert len(hist) < 100 and all(b <= a for a, b in zip(hist, hist[1:]))
        assert np.bincount(c.assignment, minlength=50).min() >= 1

    def test_deterministic(self):
        pts = np.random.default_rng(2).normal(size=(50, 4))
        a, _ = kmeans(pts, k=5, seed=3)
        b, _ = kmeans(pts, k=5, seed=3)
        assert np.array_equal(a.assignment, b.assignment)

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_max_iters_below_one_is_input_error(self, max_iters):
        with pytest.raises(InputError, match=f"^max_iters must be an integer >= 1, got {max_iters}$"):
            kmeans(np.zeros((4, 2)), k=2, max_iters=max_iters)


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
        assert pc.n11 + pc.n10 + pc.n01 + pc.n00 == n * (n - 1) // 2

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

    @given(st.lists(st.integers(-6, 6), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_relabel_numbers_values_in_order_of_first_appearance(self, values):
        order = list(dict.fromkeys(values))
        out = relabel_by_first_occurrence(np.array(values, np.int64))
        assert out.dtype == np.int64 and out.tolist() == [order.index(v) for v in values]
