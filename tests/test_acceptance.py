"""Release gate: nine numbered end-to-end checks, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Check 1 needs the LastFM Asia data on disk (see scripts/fetch_lastfm_asia.py)
and skips loudly when it is absent; everything else is self-contained.
"""

import itertools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from clatt import analysis as an
from clatt import cli
from clatt import nn
from clatt import tensor as T
from clatt import training as tr
from clatt.blockmodel import hierarchical_fit
from clatt.graphs import TableSchema, load_edge_list, load_node_table
from clatt.leiden import leiden_cpm
from clatt.partition import Clustering, filter_clusters
from clatt.similarity import correlation_coefficient, pair_counts
from clatt.stats import compute_graph_stats
from clatt.synthetic import bridge_of_cliques, erdos_renyi, noisy_onehot_features, sbm_graph

DATA_ENV = "CLATT_DATA_DIR"


def _verdict(num: int, msg: str) -> None:
    print(f"criterion {num}: PASS  {msg}")


def fc(assignment, tag="LA"):
    return Clustering(assignment, algorithm_tag=tag)


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_lastfm_asia_statistics():
    root = Path(os.environ.get(DATA_ENV, Path(__file__).resolve().parent.parent / "data" / "lastfm_asia"))
    edges_path = root / "lastfm_asia_edges.csv"
    target_path = root / "lastfm_asia_target.csv"
    if not (edges_path.exists() and target_path.exists()):
        pytest.skip(
            f"criterion 1: SKIPPED, LastFM Asia data not found under {root}. "
            "Run `python3 scripts/fetch_lastfm_asia.py` (needs network), or download "
            "https://snap.stanford.edu/data/lasftm_asia.zip yourself and place "
            "lastfm_asia_edges.csv and lastfm_asia_target.csv in that directory "
            f"(override the location with ${DATA_ENV})."
        )
    t0 = time.perf_counter()
    g = load_edge_list(edges_path)
    nd = load_node_table(target_path, TableSchema(id_column="id", target_column="target"), g)
    s = compute_graph_stats(g, targets=nd.targets, task="multiclass")
    elapsed = time.perf_counter() - t0

    assert s.num_nodes == 7624
    assert abs(s.avg_degree - 7.29) <= 0.01
    assert s.median_degree == 4
    assert s.diameter == 15
    assert abs(s.avg_distance - 5.23) <= 0.02
    assert abs(s.global_clustering - 0.18) <= 0.01
    assert abs(s.avg_local_clustering - 0.22) <= 0.01
    assert abs(s.degree_assortativity - 0.02) <= 0.01
    assert abs(s.unbiased_homophily - 0.97) <= 0.01
    assert elapsed < 120.0
    _verdict(1, f"all 8 statistics in tolerance, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2


def naive_cluster_attention(x, assignments, groups, heads):
    """Dense per-cluster attention, one cluster at a time, plain numpy."""
    n, d = x.shape
    dh = d // heads
    outs = []
    for a, prm in zip(assignments, groups):
        out = np.zeros((n, d))
        for c in np.unique(a[a >= 0]):
            m = np.nonzero(a == c)[0]
            q = x[m] @ prm["wq"] + prm["bq"]
            k = x[m] @ prm["wk"]
            v = x[m] @ prm["wv"] + prm["bv"]
            ctx = np.empty_like(q)
            for h in range(heads):
                sl = slice(h * dh, (h + 1) * dh)
                z = (q[:, sl] @ k[:, sl].T) / math.sqrt(dh)
                p = np.exp(z - z.max(axis=1, keepdims=True))
                p /= p.sum(axis=1, keepdims=True)
                ctx[:, sl] = p @ v[:, sl]
            out[m] = ctx
        outs.append(out)
    return np.concatenate(outs, axis=1)


def _random_assignment(rng, n):
    while True:
        a = rng.integers(0, rng.integers(1, 6), size=n)
        a[rng.random(n) < 0.2] = -1
        if (a >= 0).any():
            return a


def _random_qkv(rng, d):
    prm = {}
    for name in ("q", "k", "v"):
        prm[f"w{name}"] = rng.standard_normal((d, d)) / math.sqrt(d)
        if name != "k":
            prm[f"b{name}"] = rng.standard_normal(d) * 0.2
    return prm


def test_criterion_2_padded_equals_naive_attention():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        heads = int(rng.choice([1, 2, 4]))
        d = heads * int(rng.integers(1, 16 // heads + 1))
        n = int(rng.integers(4, 65))
        routes = int(rng.integers(1, 4))
        assignments = [_random_assignment(rng, n) for _ in range(routes)]
        groups = [_random_qkv(rng, d) for _ in range(routes)]
        x = rng.standard_normal((n, d))

        batches = [nn.build_cluster_batch(fc(a)) for a in assignments]
        tgroups = [{k: T.Tensor(v) for k, v in prm.items()} for prm in groups]
        got = nn.clatt_forward(T.Tensor(x), batches, tgroups, heads).data
        want = naive_cluster_attention(x, assignments, groups, heads)
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= 1e-10
    _verdict(2, f"50 random instances, max abs diff {worst:.2e}")


# ---------------------------------------------------------------- criterion 3


def _op_cases():
    """One well-conditioned finite-difference case per differentiable op."""
    rng = np.random.default_rng(7)

    def t(*shape, scale=1.0):
        return T.Tensor(rng.standard_normal(shape) * scale, requires_grad=True)

    def weighted(y, w):
        return T.tsum(T.mul(y, w))

    cases = {}

    a, b = t(3, 4), t(4)
    cases["add"] = (lambda: T.tsum(T.add(a, b)), [a, b])
    a2, b2 = t(3, 4), t(4)
    cases["sub"] = (lambda: T.tsum(T.sub(a2, b2)), [a2, b2])
    a3, b3 = t(3, 4), t(4)
    cases["mul"] = (lambda: T.tsum(T.mul(a3, b3)), [a3, b3])
    a4 = t(3, 4)
    cases["scale"] = (lambda: T.tsum(T.scale(a4, 1.7)), [a4])
    m1, m2 = t(2, 3, 4), t(2, 4, 2)
    cases["matmul"] = (lambda: T.tsum(T.matmul(m1, m2)), [m1, m2])
    xl, wl, bl = t(5, 3), t(3, 4), t(4)
    cases["linear"] = (lambda: T.tsum(T.linear(xl, wl, bl)), [xl, wl, bl])
    c1, c2 = t(3, 2), t(3, 3)
    cases["concat_last_dim"] = (lambda: T.tsum(T.concat_last_dim([c1, c2])), [c1, c2])

    xg = t(4, 4)
    cases["gelu"] = (lambda: T.tsum(T.gelu(xg)), [xg])

    # softmax rows sum to one, so weight the output to get a usable signal
    zs = t(3, 5)
    ms = np.ones((3, 5), dtype=bool)
    ms[0, 3:] = False
    ms[2, :2] = False
    ws = T.Tensor(rng.standard_normal((3, 5)))
    cases["masked_softmax"] = (lambda: weighted(T.masked_softmax(zs, ms), ws), [zs])

    xn, gn, bn = t(4, 6), t(6), t(6)
    wn = T.Tensor(rng.standard_normal((4, 6)))
    cases["layer_norm"] = (lambda: weighted(T.layer_norm(xn, gn, bn), wn), [xn, gn, bn])

    zc = t(5, 3)
    yc = np.array([0, 2, 1, 0, 1])
    cases["softmax_cross_entropy"] = (lambda: T.softmax_cross_entropy(zc, yc, np.array([0, 1, 3])), [zc])
    zb = t(6)
    tb = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0])
    cases["binary_cross_entropy_with_logits"] = (
        lambda: T.binary_cross_entropy_with_logits(zb, tb, np.arange(5)),
        [zb],
    )
    zm = t(5, 1)
    tm = rng.standard_normal((5, 1))
    cases["mse"] = (lambda: T.mse(zm, tm, np.arange(1, 5)), [zm])

    mat = sp.random(4, 6, density=0.5, random_state=3, format="csr")
    xs = t(6, 3)
    cases["spmm"] = (lambda: T.tsum(T.spmm(mat, xs)), [xs])

    xt = t(5, 3)
    cases["take_rows"] = (lambda: T.tsum(T.take_rows(xt, np.array([0, 2, 2, 4]))), [xt])

    # slot ops on 2 rows x 2 heads, 2 query and 3 key slots over 5 nodes;
    # the scatters are the gathers' exact transposes, repeated nodes included
    def gather_map(idx):
        return sp.csr_matrix((np.ones(idx.size), (idx.ravel(), np.arange(idx.size))), shape=(5, idx.size))

    qi, ki = np.array([[0, 2], [4, 4]]), np.array([[1, 2, 3], [0, 4, 1]])
    qa, ka = t(5, 4), t(5, 4)
    wsl = T.Tensor(rng.standard_normal((2, 2, 2, 3)))
    cases["slot_logits"] = (
        lambda: weighted(T.slot_logits(qa, ka, qi, ki, 2, gather_map(qi), gather_map(ki)), wsl),
        [qa, ka],
    )
    pa, va = t(2, 2, 2, 3), t(5, 4)
    wsc = T.Tensor(rng.standard_normal((5, 4)))
    cases["slot_context"] = (
        lambda: weighted(T.slot_context(pa, va, ki, gather_map(ki), gather_map(qi)), wsc),
        [pa, va],
    )
    xre = t(4, 6)
    wre = T.Tensor(rng.standard_normal((2, 12)))
    cases["reshape"] = (lambda: weighted(T.reshape(xre, (2, 12)), wre), [xre])
    xsw = t(2, 3, 4)
    wsw = T.Tensor(rng.standard_normal((4, 3, 2)))
    cases["swap_axes"] = (lambda: weighted(T.swap_axes(xsw, 0, 2), wsw), [xsw])
    xts = t(3, 3)
    cases["tsum"] = (lambda: T.tsum(xts), [xts])
    return cases


def test_criterion_3_gradient_suite():
    worst_op, worst_err = None, 0.0
    cases = _op_cases()
    for name, (f, params) in cases.items():
        err = T.grad_check(f, params)
        if err > worst_err:
            worst_op, worst_err = name, err
        assert err <= 1e-5, f"{name}: rel err {err:.2e}"

    # full three-layer model with two attention routes on a 12-node graph
    rng = np.random.default_rng(31)
    g = bridge_of_cliques([6, 6])
    labels = np.repeat([0, 1], 6)
    spec = nn.ModelSpec(conv_type="GCN", use_clatt=True, clusterings=("LA", "KM"),
                        layers=3, hidden=4, heads=2)
    x = rng.standard_normal((g.n, 3))
    params = nn.init_params(spec, 3, 2, seed=5)
    clusterings = {"LA": fc(labels), "KM": fc(np.tile([0, 1], 6), tag="KM")}
    inp = nn.prepare_inputs(g, x, spec, clusterings)
    idx = np.arange(g.n)

    # a uniform key-bias shift cancels inside softmax, so that direction's
    # analytic gradient is exactly zero; keep the loss small enough that
    # the finite-difference noise there stays under the checker's floor
    def f():
        return T.scale(T.softmax_cross_entropy(nn.model_forward(spec, params, inp), labels, idx), 1e-4)

    model_err = T.grad_check(f, list(params.values()))
    assert model_err <= 1e-5
    _verdict(3, f"{len(cases)} ops (worst {worst_op} {worst_err:.2e}) and "
                f"3-layer model ({model_err:.2e}) within 1e-5")


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_mask_invariants():
    rng = np.random.default_rng(11)
    worst_sum = 0.0
    for _ in range(100):
        heads = int(rng.choice([1, 2]))
        d = heads * int(rng.integers(1, 5))
        n = int(rng.integers(5, 41))
        a = _random_assignment(rng, n)
        batch = nn.build_cluster_batch(fc(a))
        prm = {k: T.Tensor(v) for k, v in _random_qkv(rng, d).items()}
        x = rng.standard_normal((n, d))

        capture = []
        out = nn.clatt_forward(T.Tensor(x), [batch], [prm], heads, capture=capture, tags=("LA",), layer=0).data
        # one record per size class of the cluster table
        for rec in capture:
            probs, mask = rec["probs"], rec["mask"]
            for r in range(mask.shape[0]):
                assert np.all(probs[r][:, :, ~mask[r]] == 0.0)
                if mask[r].any():
                    sums = probs[r][:, mask[r], :].sum(axis=-1)
                    worst_sum = max(worst_sum, float(np.abs(sums - 1.0).max()))

        unassigned = np.nonzero(a < 0)[0]
        assert np.all(out[unassigned] == 0.0)

        # touching unassigned nodes' features must not move any retained row
        x2 = x.copy()
        x2[unassigned] += rng.standard_normal((unassigned.size, d)) * 10.0
        out2 = nn.clatt_forward(T.Tensor(x2), [batch], [prm], heads).data
        assert float(np.abs(out2 - out).max()) <= 1e-12

        # neither must the node ids parked in padding slots
        table2 = batch.index_table.copy()
        pads = ~batch.mask
        retained = np.nonzero(a >= 0)[0]
        table2[pads] = rng.choice(retained, size=int(pads.sum()))
        batch2 = nn.ClusterBatch(table2, batch.mask, batch.n)
        out3 = nn.clatt_forward(T.Tensor(x), [batch2], [prm], heads).data
        assert float(np.abs(out3 - out).max()) <= 1e-12
    assert worst_sum <= 1e-6
    _verdict(4, f"100 configurations, worst row-sum error {worst_sum:.2e}")


# ---------------------------------------------------------------- criterion 5

_rgs_cache = {}


def all_set_partitions(n):
    """Every partition of range(n) as restricted growth strings, (Bell(n), n)."""
    if n not in _rgs_cache:
        rows = [[0]]
        for _ in range(n - 1):
            rows = [r + [c] for r in rows for c in range(max(r) + 2)]
        _rgs_cache[n] = np.array(rows, dtype=np.int8)
    return _rgs_cache[n]


def clique_chains(max_n, min_clique=3):
    """All ordered clique-size tuples with >= 2 cliques and <= max_n nodes."""
    out = []

    def rec(prefix, left):
        if len(prefix) >= 2:
            out.append(tuple(prefix))
        for p in range(min_clique, left + 1):
            rec(prefix + [p], left - p)

    rec([], max_n)
    return out


def test_criterion_5_cpm_quality():
    rng = np.random.default_rng(3)
    for i in range(200):
        n = int(rng.integers(2, 31))
        g = erdos_renyi(n, float(rng.uniform(0.05, 0.6)), seed=i)
        qs = leiden_cpm(g, gamma=float(rng.uniform(0.05, 1.0)), seed=i).params["pass_qualities"]
        assert all(b >= a - 1e-9 for a, b in zip(qs, qs[1:])), f"graph {i}: {qs}"

    # exhaustive optimality on chains of proper cliques (single-edge
    # "cliques" excluded: splitting one across two communities is beyond
    # any sequence of single-node moves, for this and every greedy mover)
    instances = clique_chains(10)
    checked = 0
    for sizes in instances:
        n = sum(sizes)
        g = bridge_of_cliques(list(sizes))
        rgs = all_set_partitions(n)
        same = lambda u, v: rgs[:, u] == rgs[:, v]
        e_in = sum(same(u, v).astype(np.int64) for u, v in g.edge_array())
        pairs = sum(same(u, v).astype(np.int64) for u, v in itertools.combinations(range(n), 2))
        for gamma in (0.1, 0.3, 0.5):
            scores = e_in - gamma * pairs
            a = leiden_cpm(g, gamma=gamma, seed=0).assignment
            got = sum(1 for u, v in g.edge_array() if a[u] == a[v])
            counts = np.bincount(a)
            got -= gamma * float((counts * (counts - 1) // 2).sum())
            assert abs(got - float(scores.max())) <= 1e-9, (sizes, gamma)
            checked += 1
    _verdict(5, f"monotone on 200 random graphs; optimum on {len(instances)} "
                f"clique chains x 3 resolutions ({checked} checks)")


# ---------------------------------------------------------------- criterion 6


def brute_pair_counts(a, b):
    iu = np.triu_indices(a.size, k=1)
    sa = (a[:, None] == a[None, :])[iu]
    sb = (b[:, None] == b[None, :])[iu]
    return (int((sa & sb).sum()), int((sa & ~sb).sum()),
            int((~sa & sb).sum()), int((~sa & ~sb).sum()))


def test_criterion_6_correlation_measure():
    rng = np.random.default_rng(19)
    for _ in range(20):
        a = rng.integers(0, int(rng.integers(2, 12)), size=200)
        b = rng.integers(0, int(rng.integers(2, 12)), size=200)
        pc = pair_counts(a, b)
        assert (pc.n11, pc.n10, pc.n01, pc.n00) == brute_pair_counts(a, b)
        assert correlation_coefficient(a, a) == 1.0
        assert correlation_coefficient(b, b) == 1.0
        assert correlation_coefficient(a, b) == correlation_coefficient(b, a)

    ccs = []
    for seed in range(20):
        r = np.random.default_rng(100 + seed)
        a = r.integers(0, int(r.integers(2, 21)), size=500)
        b = r.integers(0, int(r.integers(2, 21)), size=500)
        ccs.append(correlation_coefficient(a, b))
    assert abs(float(np.mean(ccs))) < 0.05
    _verdict(6, f"pair counts exact on 20 pairs; independent-clustering mean "
                f"CC {float(np.mean(ccs)):+.4f}")


# ---------------------------------------------------------------- criterion 7


@pytest.fixture(scope="module")
def assortative_sbm():
    g, blocks = sbm_graph([200] * 4, 0.3, 0.02, seed=0)
    la = filter_clusters(leiden_cpm(g, seed=0), min_size=4, max_size=512)
    x = noisy_onehot_features(blocks, 4, flip_rate=0.2, sigma=6.0, seed=1)
    data = tr.TrainData(g, x, blocks, "multiclass", num_classes=4, clusterings={"LA": la})
    split = tr.make_split(blocks, seed=0)
    specs = [
        nn.ModelSpec(conv_type="GCN", layers=2, hidden=16, heads=4, lr=3e-3),
        nn.ModelSpec(conv_type="GCN", layers=2, hidden=16, heads=4, lr=3e-3,
                     use_clatt=True, clusterings=("LA",)),
    ]
    return data, split, specs


def test_criterion_7_cluster_attention_lift(assortative_sbm):
    t0 = time.perf_counter()
    data, split, specs = assortative_sbm
    base, cl = tr.run_experiment(data, specs, split, seeds=range(5), steps=200, eval_every=10)
    gap_a = cl.mean - base.mean
    _, p_a = tr.welch_test(np.asarray(cl.values), np.asarray(base.values))
    assert gap_a >= 0.03
    assert p_a < 0.05

    g2, blocks2 = sbm_graph([200, 200], 0.02, 0.3, seed=0)  # disassortative
    h1 = filter_clusters(hierarchical_fit(g2, seed=0, k_max=6), min_size=4, max_size=512)
    x2 = noisy_onehot_features(blocks2, 2, flip_rate=0.2, sigma=4.0, seed=1)
    data2 = tr.TrainData(g2, x2, blocks2, "multiclass", num_classes=2, clusterings={"H1": h1})
    split2 = tr.make_split(blocks2, seed=0)
    specs2 = [
        nn.ModelSpec(conv_type="GCN", layers=2, hidden=16, heads=4, lr=3e-3),
        nn.ModelSpec(conv_type="GCN", layers=2, hidden=16, heads=4, lr=3e-3,
                     use_clatt=True, clusterings=("H1",)),
    ]
    base2, cl2 = tr.run_experiment(data2, specs2, split2, seeds=range(5), steps=200, eval_every=10)
    gap_b = cl2.mean - base2.mean
    _, p_b = tr.welch_test(np.asarray(cl2.values), np.asarray(base2.values))
    assert gap_b >= 0.03
    assert p_b < 0.05

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _verdict(7, f"assortative +{100*gap_a:.1f}pts (p={p_a:.1e}), "
                f"disassortative +{100*gap_b:.1f}pts (p={p_b:.1e}), {elapsed:.0f}s")


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_attention_distance_bound(assortative_sbm):
    g = bridge_of_cliques([8, 8])
    labels = np.repeat([0, 1], 8)
    x = noisy_onehot_features(labels, 2, sigma=0.1, seed=3)
    small = tr.TrainData(g, x, labels, "multiclass", num_classes=2, clusterings={})
    spec = nn.ModelSpec(conv_type="LGT", layers=1, hidden=8, heads=2, lr=3e-3)
    split = tr.make_split(labels, ratios=(0.5, 0.25, 0.25), seed=0)
    res = tr.train(spec, small, split, seed=0, steps=50, eval_every=10)
    profile = an.profile_model(spec, res.params, small)
    local = np.asarray(profile.distances("local"))
    assert local.size and float(local.max()) <= 1.0 + 1e-12

    data, sbm_split, specs = assortative_sbm
    res2 = tr.train(specs[1], data, sbm_split, seed=0, steps=200, eval_every=10)
    profile2 = an.profile_model(specs[1], res2.params, data)
    (q75,) = an.quantiles(profile2.distances("cluster"), (0.75,))
    assert q75 > 1.0
    _verdict(8, f"local max {float(local.max()):.3f} <= 1; cluster 0.75-quantile {q75:.2f} > 1")


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_rerun_determinism(tmp_path):
    import json

    g = bridge_of_cliques([8, 8])
    labels = np.repeat([0, 1], 8)
    x = noisy_onehot_features(labels, 2, sigma=0.1, seed=3)
    with open(tmp_path / "edges.csv", "w") as fh:
        for u, v in g.edge_array():
            fh.write(f"{u},{v}\n")
    with open(tmp_path / "nodes.csv", "w") as fh:
        fh.write("id," + ",".join(f"f{j}" for j in range(x.shape[1])) + ",target\n")
        for i in range(g.n):
            fh.write(f"{i}," + ",".join(f"{v:.8g}" for v in x[i]) + f",{labels[i]}\n")
    cfg = {
        "dataset": {"edges": "edges.csv", "nodes": "nodes.csv", "target_column": "target"},
        "split": {"ratios": [0.5, 0.25, 0.25], "seed": 0},
        "models": [
            {"conv_type": "GCN", "layers": 1, "hidden": 8, "heads": 2, "lr": 3e-3},
            {"conv_type": "GCN", "layers": 1, "hidden": 8, "heads": 2, "lr": 3e-3,
             "use_clatt": True, "clusterings": ["LA"]},
        ],
        "clusterings": {"LA": {"seed": 0}},
        "seeds": [0, 1],
        "steps": 30,
        "output_dir": "out",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))

    assert cli.main(["train", str(path)]) == 0
    first = (tmp_path / "out" / "results.csv").read_bytes()
    assert cli.main(["train", str(path)]) == 0
    second = (tmp_path / "out" / "results.csv").read_bytes()
    assert first == second
    # the rerun loads the clustering the first run recorded in output_dir
    records = json.loads((tmp_path / "out" / "manifest.json").read_text())["records"]
    assert [(r["name"], r["status"]) for r in records] == [("LA", "reused")]
    _verdict(9, f"results identical across reruns ({len(first)} bytes), LA reused from the run directory")
