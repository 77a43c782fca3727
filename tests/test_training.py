"""Splits, metrics, the training loop, model selection, aggregation."""

import ctypes
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from clatt import nn
from clatt import tensor as T
from clatt import training as tr
from clatt.errors import InputError
from clatt.graphs import transform_features
from clatt.kmeans import kmeans
from clatt.partition import Clustering
from clatt.similarity import correlation_coefficient
from clatt.synthetic import bridge_of_cliques, erdos_renyi, gaussian_features, noisy_onehot_features, sbm_graph


def perfect_clustering(labels, tag):
    return Clustering(labels, algorithm_tag=tag)


def toy_classification(n_per=16, sigma=0.05, clusterings=False):
    """Two bridged cliques, nearly one-hot class features."""
    g = bridge_of_cliques([n_per, n_per])
    labels = np.repeat(np.array([0, 1]), n_per)
    x = noisy_onehot_features(labels, 2, sigma=sigma, seed=7)
    cl = {"LA": perfect_clustering(labels, "LA")} if clusterings else {}
    return tr.TrainData(g, x, labels, "multiclass", num_classes=2, clusterings=cl)


def unstratified_split_oracle(n, ratios, seed):
    """The former unstratified branch of make_split: one permutation of the
    n nodes, cut by largest-remainder apportionment of n * ratios."""
    quotas = n * np.asarray(ratios, dtype=np.float64)
    counts = np.floor(quotas).astype(np.int64)
    short = n - counts.sum()
    if short > 0:
        order = np.argsort(-(quotas - counts), kind="stable")
        counts[order[:short]] += 1
    idx = np.random.default_rng(seed).permutation(n)
    stops = np.cumsum(counts)
    return [np.sort(part) for part in (idx[: stops[0]], idx[stops[0] : stops[1]], idx[stops[1] :])]


def small_spec(**kw):
    base = dict(conv_type="GCN", layers=1, hidden=8, heads=2, lr=3e-3)
    base.update(kw)
    return nn.ModelSpec(**base)


class TestMakeSplit:
    def test_balanced_half_quarter_quarter(self):
        labels = np.arange(100) % 2
        s = tr.make_split(labels, ratios=(0.5, 0.25, 0.25), seed=0)
        assert (s.train.size, s.val.size, s.test.size) == (50, 25, 25)
        for cls in (0, 1):
            assert (labels[s.train] == cls).sum() == 25

    def test_default_ratio_sizes(self):
        labels = np.repeat(np.arange(10), 760)
        s = tr.make_split(labels, seed=1)
        assert (s.train.size, s.val.size, s.test.size) == (760, 760, 6080)

    def test_uneven_classes_track_overall_sizes(self):
        labels = np.random.default_rng(3).integers(0, 10, size=7600)
        s = tr.make_split(labels, seed=1)
        assert abs(s.train.size - 760) <= 5
        assert abs(s.val.size - 760) <= 5

    def test_deterministic(self):
        labels = np.random.default_rng(0).integers(0, 4, size=200)
        a = tr.make_split(labels, seed=11)
        b = tr.make_split(labels, seed=11)
        c = tr.make_split(labels, seed=12)
        for part in ("train", "val", "test"):
            assert np.array_equal(getattr(a, part), getattr(b, part))
        assert any(
            not np.array_equal(getattr(a, p), getattr(c, p)) for p in ("train", "val", "test")
        )

    def test_small_class_error(self):
        with pytest.raises(ValueError, match="fewer than the 3 subsets"):
            tr.make_split(np.array([0, 0, 0, 1, 1]))

    def test_bad_ratios_error(self):
        with pytest.raises(ValueError, match="summing to 1"):
            tr.make_split(np.zeros(10, dtype=int), ratios=(0.5, 0.2, 0.2))

    @pytest.mark.parametrize("ratios", [(1.2, -0.1, -0.1), (math.nan, 0.5, 0.5), (math.inf, 0.5, 0.5), (0.5, 0.5)])
    def test_ratios_the_config_refuses_are_input_errors(self, ratios):
        # the config's rule: 3 finite, non-negative values summing to 1
        with pytest.raises(InputError, match="finite, non-negative values summing to 1"):
            tr.make_split(np.zeros(40, dtype=int), ratios=ratios, stratified=False)

    def test_unstratified_ignores_tiny_classes(self):
        s = tr.make_split(np.array([0, 0, 0, 1, 1]), ratios=(0.4, 0.2, 0.4), stratified=False)
        assert s.train.size + s.val.size + s.test.size == 5

    def test_unstratified_needs_three_nodes(self):
        with pytest.raises(InputError, match="^the split has 2 nodes, fewer than the 3 subsets$"):
            tr.make_split(np.array([0.5, 1.5]), stratified=False)

    @settings(deadline=None, max_examples=200)
    @given(
        n=st.integers(3, 300),
        seed=st.integers(0, 2**32 - 1),
        ratios=st.one_of(
            # each of these ties on the remainder for some n
            st.sampled_from([(1 / 3, 1 / 3, 1 / 3), (0.25, 0.25, 0.5), (0.4, 0.2, 0.4), (0.1, 0.1, 0.8), (0.5, 0.25, 0.25), (0.0, 0.5, 0.5)]),
            st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(1, 9)).map(lambda w: tuple(v / sum(w) for v in w)),
        ),
    )
    def test_unstratified_equals_oracle(self, n, seed, ratios):
        labels = np.random.default_rng(seed).integers(0, 5, size=n)  # ignored: one class holds every node
        s = tr.make_split(labels, ratios=ratios, seed=seed, stratified=False)
        for got, want in zip((s.train, s.val, s.test), unstratified_split_oracle(n, ratios, seed)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_split_checked_when_made(self):
        s = tr.make_split(np.arange(12) % 2, ratios=(0.5, 0.25, 0.25))
        with pytest.raises(ValueError, match="overlap"):
            replace(s, val=s.train[:1])

    @settings(deadline=None, max_examples=60)
    @given(
        sizes=st.lists(st.integers(3, 25), min_size=1, max_size=4),
        seed=st.integers(0, 5),
        ratios=st.sampled_from([(0.1, 0.1, 0.8), (0.5, 0.25, 0.25), (1 / 3, 1 / 3, 1 / 3)]),
    )
    def test_partition_and_stratification(self, sizes, seed, ratios):
        labels = np.random.default_rng(seed).permutation(np.repeat(np.arange(len(sizes)), sizes))
        s = tr.make_split(labels, ratios=ratios, seed=seed)
        combined = np.sort(np.concatenate([s.train, s.val, s.test]))
        assert np.array_equal(combined, np.arange(labels.size))
        for cls, m in enumerate(sizes):
            got = np.array([(labels[part] == cls).sum() for part in (s.train, s.val, s.test)])
            assert np.all(np.abs(got - m * np.asarray(ratios)) <= 1 + 1e-9)


class TestMetrics:
    def test_perfect_predictions(self):
        idx = np.arange(4)
        assert tr.accuracy([0, 1, 2, 1], [0, 1, 2, 1], idx) == 1.0
        assert tr.average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0], idx) == 1.0
        t = np.array([1.0, -2.0, 0.5, 3.0])
        assert tr.r_squared(t, t, idx) == 1.0

    def test_ap_hand_ranked(self):
        got = tr.average_precision([0.9, 0.8, 0.1], [1, 0, 1], np.arange(3))
        assert abs(got - (1 / 1 + 2 / 3) / 2) < 1e-12

    def test_ap_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            scores = rng.integers(0, 6, size=n) / 4.0  # ties likely
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[int(rng.integers(0, n))] = 1
            order = sorted(range(n), key=lambda i: (-scores[i], i))
            hits, total = 0, 0.0
            for rank, i in enumerate(order, start=1):
                if labels[i] == 1:
                    hits += 1
                    total += hits / rank
            expect = total / labels.sum()
            got = tr.average_precision(scores, labels, np.arange(n))
            assert abs(got - expect) < 1e-12

    def test_ap_zero_positives_error(self):
        with pytest.raises(ValueError, match="at least one positive"):
            tr.average_precision([0.3, 0.2], [0, 0], np.arange(2))

    def test_constant_mean_predictor_r2_zero(self):
        t = np.array([1.0, 2.0, 3.0, 10.0])
        idx = np.array([0, 1, 2])
        pred = np.full(4, t[idx].mean())
        assert tr.r_squared(pred, t, idx) == 0.0

    def test_r2_zero_variance_error(self):
        with pytest.raises(ValueError, match="zero target variance"):
            tr.r_squared([1.0, 2.0], [3.0, 3.0], np.arange(2))

    def test_empty_mask_errors(self):
        empty = np.empty(0, dtype=np.int64)
        for fn in (tr.accuracy, tr.average_precision, tr.r_squared):
            with pytest.raises(ValueError, match="selects no nodes"):
                fn([1.0], [1], empty)

    def test_mask_restricts(self):
        pred = np.array([0, 1, 9, 9])
        labels = np.array([0, 1, 2, 3])
        assert tr.accuracy(pred, labels, np.array([0, 1])) == 1.0
        assert tr.accuracy(pred, labels, np.array([2, 3])) == 0.0

    @settings(deadline=None, max_examples=40)
    @given(st.permutations(list(range(8))), st.integers(0, 3))
    def test_accuracy_permutation_invariant(self, perm, seed):
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, 3, 8)
        labels = rng.integers(0, 3, 8)
        p = np.asarray(perm)
        idx = np.arange(8)
        assert tr.accuracy(pred, labels, idx) == tr.accuracy(pred[p], labels[p], idx)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 100))
    def test_ap_monotone_transform_invariant(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 20))
        scores = rng.integers(-4, 5, size=n) / 2.0
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[0] = 1
        idx = np.arange(n)
        base = tr.average_precision(scores, labels, idx)
        assert tr.average_precision(2.0 * scores + 5.0, labels, idx) == base
        assert tr.average_precision(np.exp(scores), labels, idx) == base

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(0, 100),
        st.floats(0.1, 10.0, allow_nan=False),
        st.floats(-5.0, 5.0, allow_nan=False),
    )
    def test_r2_affine_invariant(self, seed, a, b):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 20))
        t = rng.normal(size=n)
        if t.std() < 1e-3:
            t[0] += 1.0
        pred = rng.normal(size=n)
        idx = np.arange(n)
        base = tr.r_squared(pred, t, idx)
        got = tr.r_squared(a * pred + b, a * t + b, idx)
        assert abs(got - base) < 1e-8 * max(1.0, abs(base))


class TestTrain:
    def test_zero_lr_keeps_initial_params(self):
        data = toy_classification()
        split = tr.make_split(data.targets, ratios=(0.5, 0.25, 0.25), seed=0)
        spec = small_spec(lr=0.0)
        result = tr.train(spec, data, split, seed=3, steps=20)
        init = nn.init_params(spec, data.features.shape[1], 2, seed=3)
        assert set(result.params) == set(init)
        for k, v in init.items():
            assert np.array_equal(result.params[k], v.data)
        # all evals tie, so the strictly-better rule keeps the first one
        assert result.best_step == 10

    def test_loss_decreases_on_separable_toy(self):
        data = toy_classification()
        split = tr.make_split(data.targets, ratios=(0.5, 0.25, 0.25), seed=0)
        result = tr.train(small_spec(), data, split, seed=0, steps=60, eval_every=1)
        assert result.history[0]["step"] == 1
        assert result.history[-1]["train_loss"] <= result.history[0]["train_loss"]
        assert result.test_metric > 0.9

    def test_same_seed_identical_trajectories(self):
        data = toy_classification()
        split = tr.make_split(data.targets, ratios=(0.5, 0.25, 0.25), seed=0)
        spec = small_spec(dropout=0.1)
        a = tr.train(spec, data, split, seed=5, steps=40)
        b = tr.train(spec, data, split, seed=5, steps=40)
        assert a.history == b.history
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_best_val_is_history_max(self):
        data = toy_classification()
        split = tr.make_split(data.targets, ratios=(0.5, 0.25, 0.25), seed=0)
        result = tr.train(small_spec(), data, split, seed=1, steps=40)
        assert result.best_val == max(h["val_metric"] for h in result.history)

    @pytest.mark.parametrize("steps, forwards", [(3, 4), (0, 1)])
    def test_test_metric_reuses_best_eval_forward(self, monkeypatch, steps, forwards):
        data = toy_classification(clusterings=True)
        split = tr.make_split(data.targets, ratios=(0.5, 0.25, 0.25), seed=0)
        spec = small_spec(use_clatt=True, clusterings=("LA",), dropout=0.1)
        calls = []
        real_forward = nn.model_forward

        def counting_forward(*args, **kwargs):
            calls.append(kwargs.get("training", False))
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(nn, "model_forward", counting_forward)
        result = tr.train(spec, data, split, seed=2, steps=steps, eval_every=3)
        # one forward per step, one per eval, none of its own for the test split
        assert len(calls) == forwards and calls.count(True) == steps
        monkeypatch.undo()
        logits = tr.predict(spec, result.params, data)
        assert result.test_metric == tr.accuracy(logits.argmax(axis=1), data.targets, split.test)
        assert result.best_val == tr.accuracy(logits.argmax(axis=1), data.targets, split.val)

    @pytest.mark.parametrize("kw, message", [
        ({"eval_every": 0}, "eval_every must be an integer >= 1, got 0"),
        ({"eval_every": -1}, "eval_every must be an integer >= 1, got -1"),
        ({"steps": -5}, "steps must be an integer >= 0, got -5"),
    ])
    def test_loop_bounds_the_config_refuses_are_input_errors(self, kw, message):
        data = toy_classification()
        split = tr.make_split(data.targets, ratios=(0.5, 0.25, 0.25), seed=0)
        with pytest.raises(InputError, match=f"^{message}$"):
            tr.train(small_spec(), data, split, **{"steps": 5, **kw})

    def test_divergence_raises_with_step(self):
        g = erdos_renyi(20, 0.2, seed=0)
        x = gaussian_features(20, 3, seed=0)
        data = tr.TrainData(g, x, x[:, 0], "regression")
        split = tr.make_split(np.zeros(20, dtype=int), ratios=(0.5, 0.25, 0.25), seed=0)
        with np.errstate(all="ignore"), pytest.raises(tr.TrainingDiverged, match=r"diverged at step 2 \(loss nan\)"):
            tr.train(small_spec(lr=1e200), data, split, steps=5)

    def test_regression_with_target_scaling(self):
        rng = np.random.default_rng(2)
        g = erdos_renyi(40, 0.0, seed=2)  # edgeless: conv reduces to self features
        x = rng.normal(size=(40, 3))
        targets = 50.0 + 20.0 * x @ np.array([1.0, -2.0, 0.5])
        data = tr.TrainData(g, x, targets, "regression")
        split = tr.make_split(np.zeros(40, dtype=int), ratios=(0.5, 0.25, 0.25), seed=0)
        result = tr.train(small_spec(), data, split, seed=0, steps=150)
        assert result.test_metric > 0.5

    def test_binary_task_trains(self):
        data = toy_classification()
        data = replace(data, task="binary", num_classes=None)
        split = tr.make_split(data.targets, ratios=(0.5, 0.25, 0.25), seed=0)
        result = tr.train(small_spec(), data, split, seed=0, steps=60)
        assert result.test_metric > 0.9


class TestGridSearch:
    def setup_method(self):
        self.data = toy_classification()
        self.split = tr.make_split(self.data.targets, ratios=(0.5, 0.25, 0.25), seed=0)

    def test_singleton_grid_returned(self):
        spec, transform, val, trials = tr.grid_search(
            small_spec(), self.data, self.split,
            lrs=(1e-3,), dropouts=(0.1,), transforms=("standard",), steps=10,
        )
        assert (spec.lr, spec.dropout, transform) == (1e-3, 0.1, "standard")
        assert len(trials) == 1

    def test_planted_winner_selected(self):
        spec, _, val, _ = tr.grid_search(
            small_spec(), self.data, self.split, lrs=(0.0, 3e-3), dropouts=(0.0,), steps=60,
        )
        assert spec.lr == 3e-3
        assert val > 0.9

    def test_scan_order_does_not_change_winner(self):
        a, _, _, _ = tr.grid_search(
            small_spec(), self.data, self.split, lrs=(0.0, 3e-3), dropouts=(0.1, 0.0), steps=60,
        )
        b, _, _, _ = tr.grid_search(
            small_spec(), self.data, self.split, lrs=(3e-3, 0.0), dropouts=(0.0, 0.1), steps=60,
        )
        assert a == b

    def test_ties_prefer_lower_lr_then_dropout(self):
        # steps=0 leaves every config at its (identical) initial weights
        spec, _, _, trials = tr.grid_search(small_spec(), self.data, self.split, steps=0)
        assert len(trials) == len(tr.GRID_LRS) * len(tr.GRID_DROPOUTS)
        assert (spec.lr, spec.dropout) == (min(tr.GRID_LRS), min(tr.GRID_DROPOUTS))

    def test_pool_returns_what_one_process_returns(self):
        grid = dict(lrs=(0.0, 3e-3), dropouts=(0.0, 0.1), transforms=("none", "standard"), steps=20)
        one = tr.grid_search(small_spec(), self.data, self.split, **grid)
        assert len(one[3]) == 8
        assert tr.grid_search(small_spec(), self.data, self.split, jobs=2, **grid) == one

    def test_empty_grid_error(self):
        with pytest.raises(ValueError, match="non-empty"):
            tr.grid_search(small_spec(), self.data, self.split, lrs=())

    def test_unknown_transform_error(self):
        with pytest.raises(ValueError, match="transform"):
            tr.grid_search(small_spec(), self.data, self.split, transforms=("whiten",))


def four_block_noise_data(n_per=12, dim=8, seed=0):
    """Labels follow four planted groups whose mean feature shift is small
    next to the per-node noise; the graph itself is uncorrelated, so the
    signal only becomes usable once attention averages within a group."""
    n = 4 * n_per
    g = erdos_renyi(n, 0.1, seed=seed)
    labels = np.repeat(np.arange(4), n_per)
    rng = np.random.default_rng(seed + 1)
    mus = rng.normal(size=(4, dim))
    mus /= np.linalg.norm(mus, axis=1, keepdims=True)
    x = 0.6 * mus[labels] + 1.2 * rng.normal(size=(n, dim))
    cl = {tag: perfect_clustering(labels, tag) for tag in tr.CANONICAL_TAGS}
    return tr.TrainData(g, x, labels, "multiclass", num_classes=4, clusterings=cl)


class TestSelectClusterings:
    def test_all_improve_canonical_order(self):
        data = four_block_noise_data()
        split = tr.make_split(data.targets, ratios=(0.4, 0.3, 0.3), seed=0)
        base = small_spec()
        selected, details = tr.select_clusterings(base, data, split, steps=150)
        assert selected == tr.CANONICAL_TAGS
        for tag in tr.CANONICAL_TAGS:
            assert details[tag] > details["baseline"]
        again, _ = tr.select_clusterings(base, data, split, steps=150)
        assert again == selected

    def test_no_improvement_empty(self):
        data = four_block_noise_data()
        data = replace(data, features=np.zeros_like(data.features))
        split = tr.make_split(data.targets, ratios=(0.4, 0.3, 0.3), seed=0)
        selected, details = tr.select_clusterings(small_spec(), data, split, steps=0)
        assert selected == ()
        for tag in tr.CANONICAL_TAGS:
            assert details[tag] == details["baseline"]

    def test_block_structured_labels_pick_la(self):
        data = four_block_noise_data()
        labels = data.targets
        rng = np.random.default_rng(9)
        for tag in ("BPP", "H1", "KM"):
            # scrambled groups: attention averages across classes, no signal
            data.clusterings[tag] = perfect_clustering(rng.integers(0, 4, size=labels.size), tag)
        split = tr.make_split(labels, ratios=(0.4, 0.3, 0.3), seed=0)
        selected, details = tr.select_clusterings(small_spec(), data, split, steps=150)
        assert "LA" in selected
        assert details["LA"] > details["baseline"]

    def test_missing_candidate_error(self):
        data = four_block_noise_data()
        data.clusterings.pop("KM")
        split = tr.make_split(data.targets, ratios=(0.4, 0.3, 0.3), seed=0)
        with pytest.raises(ValueError, match="not precomputed"):
            tr.select_clusterings(small_spec(), data, split, steps=0)


class TestWelch:
    def test_identical_never_significant(self):
        sig, p = tr.welch_test([0.8] * 5, [0.8] * 5)
        assert not sig
        assert p > 0.9

    def test_separated_constant_sets_significant(self):
        sig, p = tr.welch_test([0.9] * 10, [0.5] * 10)
        assert sig
        assert p < 1e-6

    def test_matches_scipy_on_generic_data(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(0.0, 1.0, size=7)
            b = rng.normal(0.4, 2.0, size=9)
            _, p = tr.welch_test(a, b)
            expect = scipy.stats.ttest_ind(a, b, equal_var=False).pvalue
            assert abs(p - expect) < 1e-10

    def test_p_is_scipy_t_sf_bitwise(self):
        # scipy.stats stays only as the oracle: over a grid of sample sizes
        # (hence df) and mean shifts (hence t, from 0 to far in the tail),
        # p must equal 2 * t.sf(|t|, df) bit for bit
        rng = np.random.default_rng(3)
        for na in (2, 3, 5, 10, 40):
            for nb in (2, 4, 9, 25):
                for shift in (0.0, 0.05, 0.3, 1.0, -2.0, 8.0, 50.0):
                    a = rng.normal(0.0, 1.0, size=na)
                    b = rng.normal(shift, 0.5, size=nb)
                    va = max(float(a.var(ddof=1)), 1e-12)
                    vb = max(float(b.var(ddof=1)), 1e-12)
                    se2 = va / a.size + vb / b.size
                    t = (a.mean() - b.mean()) / math.sqrt(se2)
                    df = se2**2 / ((va / a.size) ** 2 / (a.size - 1) + (vb / b.size) ** 2 / (b.size - 1))
                    _, p = tr.welch_test(a, b)
                    assert p == 2.0 * float(scipy.stats.t.sf(abs(t), df))

    def test_needs_two_values(self):
        with pytest.raises(ValueError, match="at least 2"):
            tr.welch_test([0.5], [0.4, 0.3])


class TestRunExperiment:
    def setup_method(self):
        self.data = toy_classification(clusterings=True)
        self.split = tr.make_split(self.data.targets, ratios=(0.5, 0.25, 0.25), seed=0)
        self.specs = [small_spec(), small_spec(use_clatt=True, clusterings=("LA",))]

    def test_rows_and_significance_pairing(self):
        rows = tr.run_experiment(self.data, self.specs, self.split, seeds=(0, 1), steps=30)
        assert [r.model for r in rows] == ["GCN", "GCN-CLATT(LA)"]
        assert rows[0].significant is None
        assert isinstance(rows[1].significant, bool)
        for r in rows:
            assert r.metric == "accuracy"
            assert len(r.values) == 2
            assert abs(r.mean - np.mean(r.values)) < 1e-15
            assert abs(r.std - np.std(r.values, ddof=1)) < 1e-15

    def test_deterministic(self):
        a = tr.run_experiment(self.data, self.specs, self.split, seeds=(0, 1), steps=30)
        b = tr.run_experiment(self.data, self.specs, self.split, seeds=(0, 1), steps=30)
        assert [r.values for r in a] == [r.values for r in b]

    def test_parallel_matches_serial(self):
        a = tr.run_experiment(self.data, self.specs[:1], self.split, seeds=(0, 1), steps=20)
        b = tr.run_experiment(self.data, self.specs[:1], self.split, seeds=(0, 1), steps=20, jobs=2)
        assert [r.values for r in a] == [r.values for r in b]

    def test_rows_keep_first_seed_params(self):
        rows = tr.run_experiment(self.data, self.specs, self.split, seeds=(1, 0), steps=20)
        for row, spec in zip(rows, self.specs):
            ref = tr.train(spec, self.data, self.split, seed=1, steps=20).params
            assert sorted(row.params) == sorted(ref)
            assert all(np.array_equal(row.params[k], ref[k]) for k in ref)

    def test_needs_two_seeds(self):
        with pytest.raises(ValueError, match="at least 2 seeds"):
            tr.run_experiment(self.data, self.specs, self.split, seeds=(0,))

    def test_per_spec_data_pairs_across_transforms(self):
        standard = replace(self.data, features=transform_features(self.data.features, "standard"))
        rows = tr.run_experiment([standard, self.data], self.specs, self.split, seeds=(0, 1), steps=30)
        assert rows[0].significant is None
        assert isinstance(rows[1].significant, bool)
        for row, spec, data in zip(rows, self.specs, [standard, self.data]):
            ref = tr.train(spec, data, self.split, seed=0, steps=30)
            assert row.values[0] == ref.test_metric
            assert all(np.array_equal(row.params[k], ref.params[k]) for k in ref.params)

    def test_pairing_needs_the_same_pe_kind(self):
        data = replace(self.data, pe=np.random.default_rng(0).normal(size=(self.data.g.n, 4)))
        plain = small_spec(conv_type="GGT", pe="deepwalk")
        clatt = small_spec(conv_type="GGT", pe="laplacian", use_clatt=True, clusterings=("LA",))
        rows = tr.run_experiment(data, [plain, clatt], self.split, seeds=(0, 1), steps=5)
        assert [r.significant for r in rows] == [None, None]


class TestTableFormat:
    def test_percent_two_decimals(self):
        assert tr.format_value(0.5905, 0.0016) == "59.05 ± 0.16"
        assert tr.format_value(1.0, 0.0) == "100.00 ± 0.00"

    def test_render_marks_significant(self):
        rows = [
            tr.ResultRow("GCN", "accuracy", 0.5905, 0.0016, [0.59], None),
            tr.ResultRow("GCN-CLATT(LA)", "accuracy", 0.61, 0.001, [0.61], True),
        ]
        table = tr.render_table(rows)
        lines = table.splitlines()
        assert "model" in lines[0]
        assert "59.05 ± 0.16" in lines[1] and not lines[1].endswith("*")
        assert lines[2].endswith("61.00 ± 0.10 *")


def resmlp_full_rows_oracle(data, split, seed=0, hidden=64, layers=2, steps=300, lr=3e-4, eval_every=10):
    """The former resmlp_representations: every training step and every eval
    runs the MLP over all rows, and the loss and the metric mask them."""
    spec = nn.ModelSpec("MLP", layers=layers, hidden=hidden, lr=lr)
    out_dim = data.num_classes if data.task == "multiclass" else 1
    params = nn.init_params(spec, data.features.shape[1], out_dim, seed=seed)
    inp = nn.ModelInputs(x=data.features.astype(np.float64))
    target_scale, loss_targets = None, data.targets
    if data.task == "regression":
        t_train = data.targets[split.train].astype(np.float64)
        target_scale = (float(t_train.mean()), max(float(t_train.std()), 1e-12))
        loss_targets = (data.targets - target_scale[0]) / target_scale[1]

    def loss():
        logits = nn.hidden_and_logits(spec, params, inp)[1]
        if data.task == "multiclass":
            return T.softmax_cross_entropy(logits, data.targets, split.train)
        flat = T.reshape(logits, (data.g.n,))
        if data.task == "binary":
            return T.binary_cross_entropy_with_logits(flat, loss_targets.astype(np.float64), split.train)
        return T.mse(flat, loss_targets, split.train)

    def val_metric():
        with T.no_grad():
            logits = nn.hidden_and_logits(spec, params, inp)[1].data
        if data.task == "multiclass":
            return tr.accuracy(logits.argmax(axis=1), data.targets, split.val)
        if data.task == "binary":
            return tr.average_precision(logits[:, 0], data.targets, split.val)
        return tr.r_squared(logits[:, 0] * target_scale[1] + target_scale[0], data.targets, split.val)

    plist = list(params.values())
    state = T.adam_init(plist)
    best_val, best = -math.inf, {k: v.data.copy() for k, v in params.items()}
    for step in range(1, steps + 1):
        T.zero_grad(plist)
        T.backward(loss())
        T.adam_step(plist, state, lr=lr)
        if step % eval_every == 0 or step == steps:
            val = val_metric()
            if val > best_val:
                best_val, best = val, {k: v.data.copy() for k, v in params.items()}
    for k, p in params.items():
        p.data[...] = best[k]
    with T.no_grad():
        return nn.hidden_and_logits(spec, params, inp)[0].data


def blob_data(task="multiclass"):
    """60 nodes in two Gaussian blobs; regression targets are a noisy linear
    function of the features."""
    rng = np.random.default_rng(0)
    labels = np.repeat(np.array([0, 1]), 30)
    centers = np.array([[2.0, 0.0, -1.0, 0.5], [-2.0, 1.0, 1.0, -0.5]])
    x = centers[labels] + 0.3 * rng.normal(size=(60, 4))
    g = erdos_renyi(60, 0.05, seed=1)
    if task == "regression":
        return tr.TrainData(g, x, 10.0 + x @ np.array([1.0, -2.0, 0.5, 3.0]) + 0.1 * rng.normal(size=60), task)
    return tr.TrainData(g, x, labels, task, num_classes=2 if task == "multiclass" else None)


class TestResMLP:
    @pytest.mark.parametrize("task", ["multiclass", "binary", "regression"])
    @pytest.mark.parametrize("ratios", [(0.4, 0.3, 0.3), (0.1, 0.1, 0.8)])
    def test_matches_full_row_oracle(self, task, ratios):
        data = blob_data(task)
        split = tr.make_split(data.targets, ratios=ratios, seed=2, stratified=task != "regression")
        kw = dict(seed=1, hidden=16, layers=2, steps=60, lr=3e-3, eval_every=7)
        got = tr.resmlp_representations(data, split, **kw)
        want = resmlp_full_rows_oracle(data, split, **kw)
        assert got.shape == want.shape == (60, 16)
        assert np.abs(got - want).max() <= 1e-12
        assert np.array_equal(kmeans(got, k=3, seed=0)[0].assignment, kmeans(want, k=3, seed=0)[0].assignment)

    def test_passes_compute_only_the_rows_they_read(self, monkeypatch):
        data = blob_data()
        split = tr.make_split(data.targets, ratios=(0.5, 0.2, 0.3), seed=0)
        rows = []
        real = nn.hidden_and_logits

        def counting(spec, params, inp, *args, **kwargs):
            rows.append(inp.x.shape[0])
            return real(spec, params, inp, *args, **kwargs)

        monkeypatch.setattr(nn, "hidden_and_logits", counting)
        tr.resmlp_representations(data, split, hidden=8, layers=1, steps=20, eval_every=10)
        # each step over the train rows, each eval over the val rows, then one pass over all
        assert rows == [30] * 10 + [12] + [30] * 10 + [12] + [60]

    @pytest.mark.parametrize("kw, message", [
        ({"eval_every": 0}, "eval_every must be an integer >= 1, got 0"),
        ({"eval_every": -1}, "eval_every must be an integer >= 1, got -1"),
        ({"steps": -5}, "steps must be an integer >= 0, got -5"),
    ])
    def test_loop_bounds_the_config_refuses_are_input_errors(self, kw, message):
        data = blob_data()
        split = tr.make_split(data.targets, ratios=(0.4, 0.3, 0.3), seed=0)
        with pytest.raises(InputError, match=f"^{message}$"):
            tr.resmlp_representations(data, split, hidden=8, layers=1, **{"steps": 5, **kw})

    def test_shape_and_determinism(self):
        data = blob_data()
        split = tr.make_split(data.targets, ratios=(0.4, 0.3, 0.3), seed=0)
        a = tr.resmlp_representations(data, split, hidden=16, layers=1, steps=60)
        b = tr.resmlp_representations(data, split, hidden=16, layers=1, steps=60)
        assert a.shape == (60, 16)
        assert np.array_equal(a, b)

    def test_layers_below_one_is_input_error(self):
        data = blob_data()
        split = tr.make_split(data.targets, ratios=(0.4, 0.3, 0.3), seed=0)
        with pytest.raises(InputError, match="layers must be >= 1"):
            tr.resmlp_representations(data, split, layers=0)

    def test_kmeans_on_representations_recovers_classes(self):
        data = blob_data()
        split = tr.make_split(data.targets, ratios=(0.4, 0.3, 0.3), seed=0)
        reps = tr.resmlp_representations(data, split, hidden=16, layers=1, steps=80)
        clustering, _ = kmeans(reps, k=2, seed=0)
        assert correlation_coefficient(clustering, data.targets) >= 0.8


class TestTrainData:
    def test_validation(self):
        g = erdos_renyi(5, 0.5, seed=0)
        with pytest.raises(ValueError, match="task"):
            tr.TrainData(g, np.zeros((5, 2)), np.zeros(5), "ranking")
        with pytest.raises(ValueError, match="num_classes"):
            tr.TrainData(g, np.zeros((5, 2)), np.zeros(5, dtype=int), "multiclass")
        with pytest.raises(ValueError, match="row count"):
            tr.TrainData(g, np.zeros((4, 2)), np.zeros(5, dtype=int), "multiclass", num_classes=2)

    def test_replace_is_checked(self):
        data = tr.TrainData(erdos_renyi(5, 0.5, seed=0), np.zeros((5, 2)), np.zeros(5, dtype=int), "multiclass", num_classes=2)
        with pytest.raises(ValueError, match="row count"):
            replace(data, features=np.zeros((4, 2)))

    def test_metric_names(self):
        assert tr.metric_name_for("multiclass") == "accuracy"
        assert tr.metric_name_for("binary") == "average_precision"
        assert tr.metric_name_for("regression") == "r2"


def run_python(code: str) -> str:
    """Run code in a fresh interpreter that imports clatt from src; its stdout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Replays real training steps: a plain alloc/free loop does not show the
# setting, since glibc's dynamic mmap threshold already reuses a repeated
# array. Without the setting this probe reads about 4 700 minor faults a step.
STEP_FAULTS = """
import json, resource
import numpy as np
from clatt import nn, tensor as T, training as tr
from clatt.partition import Clustering
from clatt.synthetic import noisy_onehot_features, sbm_graph

setting = tr.keep_freed_memory()
g, labels = sbm_graph([100] * 4, 0.1, 0.01, seed=0)
x = noisy_onehot_features(labels, 4, sigma=0.5, seed=0)
spec = nn.ModelSpec("GCN", use_clatt=True, clusterings=("LA",), layers=2, hidden=64, heads=4, lr=3e-3)
params = nn.init_params(spec, x.shape[1], 4, seed=0)
inp = nn.prepare_inputs(g, x, spec, {"LA": Clustering(labels, algorithm_tag="LA")})
plist = list(params.values())
state = T.adam_init(plist)
rng = np.random.default_rng(0)

def step():
    T.zero_grad(plist)
    logits = nn.model_forward(spec, params, inp, training=True, dropout_rng=rng)
    T.backward(T.softmax_cross_entropy(logits, labels, np.arange(g.n)))
    T.adam_step(plist, state, lr=spec.lr)
    with T.no_grad():
        nn.model_forward(spec, params, inp)

step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    step()
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps({"setting": setting, "faults_per_step": faults / 5}))
"""

TRAIN_RUNS_UNDER_SPAWN = """
import multiprocessing as mp
import numpy as np
from clatt import nn, training as tr
from clatt.partition import Clustering
from clatt.synthetic import bridge_of_cliques, noisy_onehot_features

if __name__ == "__main__":
    mp.set_start_method("spawn")
    labels = np.repeat([0, 1], 16)
    x = noisy_onehot_features(labels, 2, sigma=0.05, seed=7)
    data = tr.TrainData(bridge_of_cliques([16, 16]), x, labels, "multiclass", num_classes=2,
                        clusterings={"LA": Clustering(labels, algorithm_tag="LA")})
    split = tr.make_split(labels, ratios=(0.5, 0.25, 0.25), seed=0)
    specs = [nn.ModelSpec("GCN", layers=1, hidden=8, heads=2, lr=3e-3),
             nn.ModelSpec("GCN", use_clatt=True, clusterings=("LA",), layers=1, hidden=8, heads=2, lr=3e-3)]
    runs = [(spec, data, split, seed, 10, 5, seed == 0) for spec in specs for seed in (0, 1)]
    serial, pooled = tr.train_runs(runs, jobs=1), tr.train_runs(runs, jobs=2)
    for (val, test, params), (pval, ptest, pparams) in zip(serial, pooled, strict=True):
        assert (val, test) == (pval, ptest), ((val, test), (pval, ptest))
        assert (params is None) == (pparams is None)
        if params is not None:
            assert sorted(params) == sorted(pparams)
            assert all(np.array_equal(params[k], pparams[k]) for k in params)
    print(len(pooled))
"""


class TestAllocator:
    def test_training_steps_stop_refaulting_their_arrays(self):
        result = json.loads(run_python(STEP_FAULTS))
        if result["setting"] is None:
            pytest.skip("no glibc mallopt")
        assert result["setting"] == {"M_MMAP_THRESHOLD": tr.MMAP_THRESHOLD, "M_TRIM_THRESHOLD": tr.TRIM_THRESHOLD}
        assert result["faults_per_step"] <= 200

    def test_without_mallopt_it_changes_nothing_and_says_nothing(self, monkeypatch, capfd):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        before = tr.malloc_setting
        assert tr.keep_freed_memory() is None
        assert tr.malloc_setting == before
        assert capfd.readouterr() == ("", "")

    def test_spawn_pool_returns_what_serial_runs_return(self):
        # the pool pickles the run tuples and starts every worker with
        # keep_freed_memory; neither may change a result
        assert run_python(TRAIN_RUNS_UNDER_SPAWN).split() == ["4"]
