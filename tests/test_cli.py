"""End-to-end command tests plus config schema validation."""

import argparse
import csv
import hashlib
import importlib
import inspect
import io
import json
import math
import multiprocessing
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import clatt
from clatt import cli
from clatt import config as cf
from clatt import nn
from clatt import partition
from clatt import pe
from clatt import tensor
from clatt import training as tr
from clatt.analysis import export_profile, profile_model
from clatt.checkpoint import load_checkpoint, save_checkpoint
from clatt.graphs import GraphFormatError, TableSchema, from_edges, load_edge_list, load_node_table, transform_features
from clatt.kmeans import kmeans
from clatt.partition import load_clustering
from clatt.synthetic import bridge_of_cliques, noisy_onehot_features, sbm_graph


def write_edges(path, g):
    with open(path, "w") as fh:
        fh.write("src,dst\n")
        for u, v in g.edge_array():
            fh.write(f"{u},{v}\n")
    return str(path)


def write_nodes(path, features, targets=None):
    n, d = features.shape
    with open(path, "w") as fh:
        cols = ["id"] + [f"f{j}" for j in range(d)] + (["target"] if targets is not None else [])
        fh.write(",".join(cols) + "\n")
        for i in range(n):
            row = [str(i)] + [f"{v:.8g}" for v in features[i]]
            if targets is not None:
                row.append(str(targets[i]))
            fh.write(",".join(row) + "\n")
    return str(path)


def recorded_checkpoint(path, model: dict) -> str:
    """A checkpoint without arrays that records ``model`` as `clatt train` would."""
    save_checkpoint(path, {}, spec=nn.ModelSpec(**model), transform="none")
    return str(path)


def fail_on_call(*args, **kwargs):
    pytest.fail("called too early")


def triangle_edges(tmp_path):
    path = tmp_path / "tri.csv"
    with open(path, "w") as fh:
        fh.write("0,1\n1,2\n0,2\n")
    return str(path)


FUZZ_TEXT = st.text(alphabet="0123456789-,.#x \t\"", max_size=10)


@st.composite
def edge_list_and_node_table(draw):
    """Edge-list lines, id pairs and at most one fuzzed line, and node-table
    rows for the ids they name, in any order, plus at most one fuzzed row
    and two blank ones; target cells may be missing or non-finite."""
    node_id = st.integers(-2, 6) | st.integers(-(2**70), 2**70)
    lines = draw(st.lists(st.tuples(node_id, node_id).map(lambda e: f"{e[0]} {e[1]}"), max_size=8))
    for junk in draw(st.lists(FUZZ_TEXT, max_size=1)):
        lines.insert(draw(st.integers(0, len(lines))), junk)
    ids = list(dict.fromkeys(tok for line in lines for tok in line.replace(",", " ").split()[:2]))
    cell = st.sampled_from(["0", "1.5", "", "nan", "1e999", "a", "b"])
    target = cell | st.sampled_from(["NA", " null ", "inf"]) | FUZZ_TEXT
    rows = [f"{i},{draw(cell)},{draw(target)}" for i in draw(st.permutations(ids))]
    blank = st.sampled_from(["", " ", ",,", " ,\t,"])
    for junk in draw(st.lists(FUZZ_TEXT, max_size=1)) + draw(st.lists(blank, max_size=2)):
        rows.insert(draw(st.integers(0, len(rows))), junk)
    return lines, rows


class TestStats:
    def test_triangle_stats_json(self, tmp_path, capsys):
        rc = cli.main(["stats", triangle_edges(tmp_path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["global_clustering"] == 1.0
        assert payload["num_nodes"] == 3
        assert payload["avg_degree"] == 2.0
        assert payload["diameter"] == 1.0

    def test_missing_file_exit_2(self, capsys):
        rc = cli.main(["stats", "/no/such/file.csv"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_out_file_and_homophily(self, tmp_path, capsys):
        g = bridge_of_cliques([4, 4])
        labels = np.repeat([0, 1], 4)
        edges = write_edges(tmp_path / "e.csv", g)
        nodes = write_nodes(tmp_path / "n.csv", np.zeros((8, 2)), labels)
        out = tmp_path / "stats.json"
        rc = cli.main(["stats", edges, "--nodes", nodes, "--target-column", "target", "--out", str(out)])
        assert rc == 0
        saved = json.loads(out.read_text())
        assert saved["unbiased_homophily"] is not None
        assert out.read_text() == capsys.readouterr().out  # the bytes printed

    def test_undecodable_edge_list_exit_2(self, tmp_path, capsys):
        edges = tmp_path / "e.csv"
        edges.write_bytes(b"0 1\n\xff\xfe 2\n")
        assert cli.main(["stats", str(edges)]) == 2
        assert str(edges) in capsys.readouterr().err

    def test_id_outside_int64_exit_2(self, tmp_path, capsys):
        edges = tmp_path / "e.csv"
        edges.write_text(f"0 1\n{2**66} 1\n")
        with pytest.raises(GraphFormatError, match=r"e\.csv:2: node id '73786976294838206464' is not a 64-bit integer"):
            load_edge_list(edges)
        assert cli.main(["stats", str(edges)]) == 2
        assert f"{edges}:2:" in capsys.readouterr().err

    def test_field_over_csv_limit_exit_2(self, tmp_path, capsys):
        edges, nodes, clusters = tmp_path / "e.csv", tmp_path / "n.csv", tmp_path / "c.csv"
        edges.write_text("0 1\n")
        long = "1" * (csv.field_size_limit() + 1)
        nodes.write_text(f"id,f0\n0,1\n1,{long}\n")
        clusters.write_text(f"node_id,cluster_id\n0,0\n1,{long}\n")
        assert cli.main(["stats", str(edges), "--nodes", str(nodes)]) == 2
        assert cli.main(["compare", str(clusters), str(clusters), "--out", str(tmp_path / "cc.csv")]) == 2
        err = capsys.readouterr().err
        assert f"{nodes}:3: field larger than field limit" in err and f"{clusters}:3: field larger" in err

    @given(edge_list_and_node_table())
    @example(([f"{2**66} 1"], [f"{2**66},0,a", "1,0,b"]))
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_edge_list_and_node_table_exit_0_or_2(self, files):
        edge_lines, node_rows = files
        with tempfile.TemporaryDirectory() as tmp:
            edges, nodes = Path(tmp) / "e.csv", Path(tmp) / "n.csv"
            edges.write_text("".join(line + "\n" for line in edge_lines))
            nodes.write_text("id,f0,target\n" + "".join(row + "\n" for row in node_rows))
            rc = cli.main(["stats", str(edges), "--nodes", str(nodes), "--target-column", "target"])
            assert rc in (0, 2)


@st.composite
def clustering_rows(draw):
    """Rows for node ids 0..5 in any order, cluster ids anywhere in int64,
    plus at most one row with an arbitrary int64 node id."""
    cluster_id = st.integers(-2, 3) | st.integers(-(2**63), 2**63 - 1)
    lines = [f"{node},{draw(cluster_id)}" for node in draw(st.permutations(range(6)))]
    for node in draw(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=1)):
        lines.insert(draw(st.integers(0, len(lines))), f"{node},{draw(cluster_id)}")
    return lines


class TestCluster:
    def test_leiden_on_bridge_of_cliques(self, tmp_path, capsys):
        g = bridge_of_cliques([5, 5])
        edges = write_edges(tmp_path / "e.csv", g)
        out = tmp_path / "la.csv"
        rc = cli.main(["cluster", edges, "--algo", "LA", "--out", str(out)])
        assert rc == 0
        ids, assignment, meta = load_clustering(out)
        assert meta["algorithm_tag"] == "LA"
        assert len(set(assignment.tolist())) == 2
        # the two cliques come out exactly
        assert len(set(assignment[:5].tolist())) == 1
        assert len(set(assignment[5:].tolist())) == 1
        assert "2 clusters" in capsys.readouterr().out

    def test_unknown_algo_exit_2(self, tmp_path):
        edges = triangle_edges(tmp_path)
        assert cli.main(["cluster", edges, "--algo", "XX", "--out", "x.csv"]) == 2

    @pytest.mark.parametrize(
        "flags, message",
        [(["--algo", "H1", "--set", "k_max=1"], "--set k_max: must be >= 2, got 1"),
         (["--algo", "KM", "--set", "layers=-1"], "--set layers: must be >= 1, got -1"),
         (["--algo", "KM", "--set", "steps=-5"], "--set steps: must be >= 0, got -5"),
         (["--algo", "KM", "--set", "layers=0"], "--set layers: must be >= 1, got 0")],
    )
    def test_bad_flags_exit_2_and_save_nothing(self, tmp_path, capsys, flags, message):
        edges = write_edges(tmp_path / "e.csv", bridge_of_cliques([5, 5]))
        out = tmp_path / "c.csv"
        assert cli.main(["cluster", edges, "--out", str(out), *flags]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_km_matches_resmlp_then_kmeans(self, tmp_path, capsys):
        edges, nodes = classification_fixture(tmp_path)
        out = tmp_path / "km.csv"
        rc = cli.main(["cluster", edges, "--algo", "KM", "--out", str(out), "--nodes", nodes, "--target-column", "target",
                       "--set", "seed=3", "--set", "k=3", "--set", "hidden=8", "--set", "layers=1", "--set", "steps=20"])
        assert rc == 0
        g = load_edge_list(edges)
        nd = load_node_table(nodes, TableSchema(target_column="target"), g)
        data = tr.TrainData(g, nd.features, nd.targets, "multiclass", num_classes=nd.num_classes)
        split = tr.make_split(nd.targets, seed=3)
        reps = tr.resmlp_representations(data, split, seed=3, hidden=8, layers=1, steps=20)
        want, _ = kmeans(reps, k=3, seed=3)
        ids, assignment, meta = load_clustering(out)
        assert ids.tolist() == g.node_ids.tolist()
        assert assignment.tolist() == want.assignment.tolist()
        assert meta["params"]["inertia"] == want.params["inertia"]
        assert "KM: 3 clusters" in capsys.readouterr().out

    @pytest.mark.parametrize("algo, k_max", [("H1", 8), ("BPP", 10)])  # H1: round(sqrt(60))
    def test_k_max_defaults_as_the_library_does(self, tmp_path, algo, k_max):
        g, _ = sbm_graph([20, 20, 20], 0.4, 0.03, seed=2)
        edges = write_edges(tmp_path / "e.csv", g)
        out = tmp_path / "c.csv"
        assert cli.main(["cluster", edges, "--algo", algo, "--out", str(out)]) == 0
        g = load_edge_list(edges)
        want = cli._cluster(algo, g, {"seed": 0})
        assert want.params["k_max"] == k_max
        ids, assignment, meta = load_clustering(out)
        assert dict(zip(ids.tolist(), assignment.tolist())) == dict(zip(g.node_ids.tolist(), want.assignment.tolist()))
        assert meta["params"]["k_max"] == k_max

    def test_km_without_nodes_exit_2(self, tmp_path, capsys):
        edges = triangle_edges(tmp_path)
        rc = cli.main(["cluster", edges, "--algo", "KM", "--out", str(tmp_path / "km.csv")])
        assert rc == 2
        assert "--nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("algo, setting, message", [("H1", "k_max=1", "--set k_max: must be >= 2, got 1"),
                                                         ("KM", "k=0", "--set k: must be >= 1, got 0"),
                                                         ("LA", "fanciness=3", "--set fanciness: unknown config key")])
    def test_bad_setting_is_refused_before_any_fit(self, tmp_path, capsys, monkeypatch, algo, setting, message):
        def fit(*args, **kwargs):
            raise AssertionError("a fit ran")

        for name in ("leiden_cpm", "planted_partition_fit", "hierarchical_fit", "kmeans"):
            monkeypatch.setattr(cli, name, fit)
        monkeypatch.setattr(cli.tr, "resmlp_representations", fit)
        edges, nodes = classification_fixture(tmp_path)
        out = tmp_path / "c.csv"
        rc = cli.main(["cluster", edges, "--algo", algo, "--set", setting, "--out", str(out), "--nodes", nodes, "--target-column", "target"])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    # one valid value other than the default for every key of config.CLUSTERING_PARAMS
    SETTINGS = {
        "LA": {"gamma": 0.5, "seed": 1, "max_passes": 2},
        "BPP": {"k_max": 3, "seed": 1, "sweeps": 5, "restarts": 2},
        "H1": {"k_max": 3, "seed": 1, "sweeps": 5, "restarts": 2},
        "KM": {"k": 3, "seed": 1, "hidden": 8, "layers": 1, "steps": 5, "lr": 0.01, "max_iters": 5},
    }

    @pytest.mark.parametrize("algo, key", [(algo, key) for algo, params in cf.CLUSTERING_PARAMS.items() for key in params])
    def test_every_config_key_reaches_its_algorithm(self, tmp_path, capsys, algo, key):
        assert set(self.SETTINGS[algo]) == set(cf.CLUSTERING_PARAMS[algo])
        edges, nodes = classification_fixture(tmp_path)
        sets = ["--set", f"{key}={json.dumps(self.SETTINGS[algo][key])}"]
        if algo == "KM" and key != "steps":
            sets += ["--set", "steps=5"]
        rc = cli.main(["cluster", edges, "--algo", algo, *sets, "--out", str(tmp_path / "c.csv"), "--nodes", nodes, "--target-column", "target"])
        assert rc == 0, capsys.readouterr().err

    def test_removed_flags_exit_2(self, tmp_path, capsys):
        removed = ("--seed", "--gamma", "--k-max", "--k", "--km-hidden", "--km-layers", "--km-steps", "--min-size", "--max-size")
        assert cli.main(["cluster", "--help"]) == 0
        listed = set(re.findall(r"--[a-z][\w-]*", capsys.readouterr().out))
        assert "--set" in listed and not listed & set(removed)
        edges = triangle_edges(tmp_path)
        for flag in removed:
            assert cli.main(["cluster", edges, "--algo", "LA", "--out", str(tmp_path / "c.csv"), flag, "1"]) == 2
            assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        config = str(base_config(tmp_path))
        for args in (["train", config], ["select-clusterings", config], ["analyze-attention", config, "x.ckpt"]):
            assert cli.main([*args, "--pe-dim", "16"]) == 2
            assert "unrecognized arguments: --pe-dim 16" in capsys.readouterr().err
            assert cli.main([args[0], "--help"]) == 0
            assert "--pe-dim" not in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    def test_cluster_writes_the_bytes_train_records(self, tmp_path, capsys):
        # perfbench's uniform inputs, and clustering blocks that keep H1 and BPP to about a second each
        root = Path(__file__).resolve().parent.parent
        subprocess.run([sys.executable, str(root / "perfbench" / "inputs.py"), "--workload", "uniform", "--seed", "0",
                        "--out", str(tmp_path)], check=True, stdout=subprocess.DEVNULL)
        blocks = {"LA": {"seed": 1}, "BPP": {"k_max": 8, "restarts": 1}, "H1": {"k_max": 8, "sweeps": 3, "restarts": 2}}
        raw = json.loads((tmp_path / "config.json").read_text())
        raw.update(models=[{"conv_type": "GCN", "layers": 1, "hidden": 8, "heads": 2, "use_clatt": True, "clusterings": list(blocks)}],
                   clusterings=blocks, steps=1, output_dir="out")
        (tmp_path / "config.json").write_text(json.dumps(raw))
        assert cli.main(["train", str(tmp_path / "config.json")]) == 0
        for tag, block in blocks.items():
            sets = [arg for key, value in block.items() for arg in ("--set", f"{key}={value}")]
            out = tmp_path / f"{tag}.csv"
            assert cli.main(["cluster", str(tmp_path / "edges.csv"), "--algo", tag, *sets, "--out", str(out)]) == 0
            assert out.read_bytes() == (tmp_path / "out" / "clusterings" / f"{tag}.csv").read_bytes()
        capsys.readouterr()


class TestCompare:
    def test_self_comparison_diagonal(self, tmp_path, capsys):
        g = bridge_of_cliques([5, 5])
        edges = write_edges(tmp_path / "e.csv", g)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["cluster", edges, "--algo", "LA", "--out", str(a)]) == 0
        assert cli.main(["cluster", edges, "--algo", "LA", "--out", str(b), "--set", "seed=1"]) == 0
        capsys.readouterr()
        out = tmp_path / "cc.csv"
        rc = cli.main(["compare", str(a), str(b), "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert float(rows[1][1]) == 1.0 and float(rows[2][2]) == 1.0
        assert rows[1][2] == rows[2][1]
        assert "1.000000" in capsys.readouterr().out

    def test_same_tag_files_labelled_by_stem_then_path(self, tmp_path, capsys):
        g = bridge_of_cliques([5, 5])
        edges = write_edges(tmp_path / "e.csv", g)
        (tmp_path / "x").mkdir()
        paths = [tmp_path / f"seed{s}.csv" for s in range(3)]
        for seed, path in enumerate(paths):
            assert cli.main(["cluster", edges, "--algo", "LA", "--set", f"seed={seed}", "--out", str(path)]) == 0
        out = tmp_path / "cc.csv"

        def header(files):
            assert cli.main(["compare", *map(str, files), "--out", str(out)]) == 0
            with open(out) as fh:
                rows = list(csv.reader(fh))
            assert [row[0] for row in rows[1:]] == rows[0][1:]
            return rows[0][1:]

        assert header(paths) == ["seed0", "seed1", "seed2"]
        clash = tmp_path / "x" / "seed0.csv"
        for suffix in ("", ".meta.json"):
            Path(str(clash) + suffix).write_bytes(Path(str(paths[0]) + suffix).read_bytes())
        assert header([paths[0], clash, paths[2]]) == [str(paths[0]), str(clash), str(paths[2])]
        bpp = tmp_path / "x" / "seed1.csv"
        assert cli.main(["cluster", edges, "--algo", "BPP", "--set", "k_max=3", "--out", str(bpp)]) == 0
        assert header([paths[0], bpp]) == ["LA", "BPP"]  # distinct tags stay as they are
        capsys.readouterr()

    def test_single_file_exit_2(self, tmp_path):
        g = bridge_of_cliques([5, 5])
        edges = write_edges(tmp_path / "e.csv", g)
        a = tmp_path / "a.csv"
        cli.main(["cluster", edges, "--algo", "LA", "--out", str(a)])
        assert cli.main(["compare", str(a), "--out", str(tmp_path / "cc.csv")]) == 2

    @pytest.mark.parametrize(
        "bad_row, message",
        [("3", "bad.csv:4: expected node_id,cluster_id, got 1 field"),
         ("3,x", "bad.csv:4: cluster id 'x' is not a 64-bit integer"),
         ("2.5,1", "bad.csv:4: node id '2.5' is not a 64-bit integer"),
         ("99999999999999999999,1", "bad.csv:4: node id '99999999999999999999' is not a 64-bit integer"),
         (f"{-(2**63) - 1},1", f"bad.csv:4: node id '{-(2**63) - 1}' is not a 64-bit integer"),
         (f"3,{2**63}", f"bad.csv:4: cluster id '{2**63}' is not a 64-bit integer"),
         ("1,0", "bad.csv:4: node 1 already assigned on line 3"),
         ("3,-7", "bad.csv:4: cluster_id -7 is below -1, the id of an unassigned node")],
        # each case by its row and what is wrong on line 4
        ids=["3-line 4: expected node_id,cluster_id, got 1 field",
             "3,x-line 4: node_id and cluster_id must be 64-bit integers",
             "2.5,1-line 4: node_id and cluster_id must be 64-bit integers",
             "99999999999999999999,1-line 4: node_id and cluster_id must be 64-bit integers",
             "-9223372036854775809,1-line 4: node_id and cluster_id must be 64-bit integers",
             "3,9223372036854775808-line 4: node_id and cluster_id must be 64-bit integers",
             "1,0-line 4: node 1 already assigned on line 3",
             "3,-7-line 4: cluster_id -7 is below -1, the id of an unassigned node"],
    )
    def test_malformed_clustering_row_exit_2(self, tmp_path, capsys, bad_row, message):
        good = tmp_path / "good.csv"
        good.write_text("node_id,cluster_id\n0,0\n1,0\n2,1\n3,1\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("node_id,cluster_id\n0,0\n1,0\n" + bad_row + "\n")
        with pytest.raises(ValueError, match=message):
            load_clustering(bad)
        rc = cli.main(["compare", str(good), str(bad), "--out", str(tmp_path / "cc.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(bad) in err and message in err

    def test_far_cluster_ids_compare_like_dense_ones(self, tmp_path, capsys):
        dense = {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: -1}
        far = {0: 10**12, 1: 10**12, 2: 2**63 - 1, 3: 2**63 - 1, 4: 0, 5: -1}
        good = tmp_path / "good.csv"
        good.write_text("node_id,cluster_id\n" + "".join(f"{i},{i % 2}\n" for i in range(6)))
        matrices = []
        for name, rows in (("dense", dense), ("far", far)):
            (tmp_path / name).mkdir()
            path = tmp_path / name / "c.csv"
            path.write_text("node_id,cluster_id\n" + "".join(f"{i},{c}\n" for i, c in rows.items()))
            out = tmp_path / name / "cc.csv"
            assert cli.main(["compare", str(good), str(path), "--out", str(out)]) == 0
            matrices.append(out.read_text())
        assert matrices[0] == matrices[1]
        capsys.readouterr()

    def test_int64_minimum_node_id_clusters_and_compares(self, tmp_path, capsys):
        edges = tmp_path / "e.csv"
        edges.write_text(f"{-(2**63)},1\n1,2\n2,{-(2**63)}\n2,3\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["cluster", str(edges), "--algo", "LA", "--out", str(a)]) == 0
        assert cli.main(["cluster", str(edges), "--algo", "LA", "--set", "seed=1", "--out", str(b)]) == 0
        assert load_clustering(a)[0].tolist() == [-(2**63), 1, 2, 3]
        assert cli.main(["compare", str(a), str(b), "--out", str(tmp_path / "cc.csv")]) == 0
        capsys.readouterr()

    @given(st.lists(st.text(alphabet="0123456789-,.x \"", max_size=8), max_size=6) | clustering_rows())
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_clustering_rows_exit_0_or_2(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            good, bad = Path(tmp) / "good.csv", Path(tmp) / "bad.csv"
            good.write_text("node_id,cluster_id\n" + "".join(f"{i},{i % 2}\n" for i in range(6)))
            bad.write_text("node_id,cluster_id\n" + "".join(line + "\n" for line in lines))
            assert cli.main(["compare", str(good), str(bad), "--out", str(Path(tmp) / "cc.csv")]) in (0, 2)


def classification_fixture(tmp_path, n_per=8):
    """Two bridged cliques with informative features; returns file paths."""
    g = bridge_of_cliques([n_per, n_per])
    labels = np.repeat([0, 1], n_per)
    x = noisy_onehot_features(labels, 2, sigma=0.1, seed=3)
    edges = write_edges(tmp_path / "edges.csv", g)
    nodes = write_nodes(tmp_path / "nodes.csv", x, labels)
    return edges, nodes


def base_config(tmp_path, **extra):
    edges, nodes = classification_fixture(tmp_path)
    raw = {
        "dataset": {"edges": "edges.csv", "nodes": "nodes.csv", "target_column": "target", "task": "multiclass"},
        "split": {"ratios": [0.5, 0.25, 0.25], "seed": 0},
        "models": [
            {"conv_type": "GCN", "layers": 1, "hidden": 8, "heads": 2, "lr": 3e-3},
            {"conv_type": "GCN", "layers": 1, "hidden": 8, "heads": 2, "lr": 3e-3, "use_clatt": True, "clusterings": ["LA"]},
        ],
        "clusterings": {"LA": {"seed": 0}},
        "seeds": [0, 1],
        "steps": 30,
        "eval_every": 10,
        "output_dir": "out",
    }
    raw.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


class TestConfig:
    def test_valid_config_parses(self, tmp_path):
        cfg = cf.load_config(base_config(tmp_path))
        assert len(cfg.models) == 2
        assert cfg.needed_tags() == ("LA",)
        assert cfg.output_dir == tmp_path / "out"
        assert cfg.split.ratios == (0.5, 0.25, 0.25)

    def test_selection_model_adds_no_clusterings_to_train(self, tmp_path, capsys):
        path = base_config(tmp_path, steps=3, selection_model={"conv_type": "GCN", "layers": 1, "hidden": 8})
        assert cf.load_config(path).needed_tags() == ("LA",)
        assert cli.main(["train", str(path)]) == 0
        assert re.findall(r"^clustering (\S+):", capsys.readouterr().out, re.M) == ["LA"]

    def test_missing_config_file(self):
        with pytest.raises(cf.ConfigError, match="config: file not found"):
            cf.load_config("/no/such/config.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(cf.ConfigError, match="invalid JSON"):
            cf.load_config(path)

    def test_field_path_errors(self, tmp_path):
        cases = [
            ({"models": []}, r"models: must list"),
            ({"seeds": []}, r"seeds: must be non-empty"),
            ({"dataset": {"edges": "missing.csv"}}, r"dataset\.edges: file not found"),
            ({"dataset": {"edges": "edges.csv", "task": "ranking"}}, r"dataset\.task"),
            ({"split": {"ratios": [0.5, 0.5]}}, r"split\.ratios"),
            ({"clusterings": {"XX": {}}}, r"clusterings\.XX: unknown tag"),
            ({"clusterings": {"LA": {"fanciness": 3}}}, r"clusterings\.LA\.fanciness: unknown"),
            ({"grid": {"transforms": ["whiten"]}}, r"grid\.transforms\[0\]"),
            ({"banana": 1}, r"banana: unknown config key"),
            ({"models": [{"layers": 2}]}, r"models\[0\]\.conv_type: required"),
            ({"models": [{"conv_type": "GGT", "pe": "none"}]}, r"models\[0\]: GGT"),
            ({"models": [{"conv_type": "GCN", "pe": "laplacian"}]}, r"models\[0\]: pe 'laplacian' applies only to GGT"),
        ]
        for extra, pattern in cases:
            path = base_config(tmp_path, **extra)
            with pytest.raises(cf.ConfigError, match=pattern):
                cf.load_config(path)

    def test_duplicate_model_names(self, tmp_path, capsys):
        gcn = {"conv_type": "GCN", "layers": 1, "hidden": 8}
        path = base_config(tmp_path, models=[{**gcn, "lr": 1e-3}, {**gcn, "lr": 3e-3}])
        with pytest.raises(cf.ConfigError, match=r"models\[1\]: duplicate model name 'GCN', also models\[0\]"):
            cf.load_config(path)
        assert cli.main(["train", str(path)]) == 2
        assert "models[1]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_regression_needs_unstratified(self, tmp_path):
        path = base_config(
            tmp_path,
            dataset={"edges": "edges.csv", "nodes": "nodes.csv", "target_column": "target", "task": "regression"},
            split={"stratified": True},
        )
        with pytest.raises(cf.ConfigError, match=r"split\.stratified"):
            cf.load_config(path)

    @pytest.mark.parametrize(
        "override, field",
        [('models.1.use_clatt="false"', "models[1].use_clatt: expected true or false"),
         ("models.0.layers=2.9", "models[0].layers: expected an integer"),
         ('models.0.hidden="16"', "models[0].hidden: expected an integer"),
         ('models.0.lr="1e-3"', "models[0].lr: expected a finite number"),
         pytest.param("models.0.lr=1" + "0" * 400, "models[0].lr: expected a finite number", id="lr-too-large-for-float"),
         ('models.1.clusterings="LA"', "models[1].clusterings: expected a list"),
         ('models.1.clusterings=["LA","XX"]', "models[1].clusterings[1]: must be one of"),
         ('split.stratified="false"', "split.stratified: expected true or false"),
         ('dataset.directed="false"', "dataset.directed: unknown config key"),
         ("max_cluster_size=513", f"max_cluster_size: must be <= {nn.MAX_CLUSTER_SLOTS}, got 513"),
         ("pe_dim=0", "pe_dim: must be >= 1, got 0"),
         ('pe_dim="16"', "pe_dim: expected an integer"),
         ("min_cluster_size=600", f"min_cluster_size 600 exceeds max_cluster_size {nn.MAX_CLUSTER_SLOTS}")],
    )
    def test_fields_are_checked_not_coerced(self, tmp_path, capsys, override, field):
        assert cli.main(["train", str(base_config(tmp_path, steps=3)), "--set", override]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields, error",
        [({"edges": ["edges.csv"]}, "dataset.edges: expected a path string, got ['edges.csv']"),
         ({"nodes": 3}, "dataset.nodes: expected a path string, got 3"),
         ({"id_column": None}, "dataset.id_column: expected a string, got NoneType"),
         ({"id_column": 0}, "dataset.id_column: expected a string, got int"),
         ({"target_column": 7}, "dataset.target_column: expected a string or null, got int"),
         ({"feature_columns": "f0"}, "dataset.feature_columns: expected a list, got str"),
         ({"feature_columns": [1, None]}, "dataset.feature_columns[0]: expected a string, got int"),
         ({"feature_columns": ["f0", None]}, "dataset.feature_columns[1]: expected a string, got NoneType")],
        ids=["edges-list", "nodes-int", "id-null", "id-int", "target-int", "features-str", "feature-int", "feature-null"],
    )
    def test_dataset_fields_are_checked_not_coerced(self, tmp_path, capsys, fields, error):
        dataset = {"edges": "edges.csv", "nodes": "nodes.csv", "target_column": "target", **fields}
        assert cli.main(["train", str(base_config(tmp_path, dataset=dataset))]) == 2
        assert error in capsys.readouterr().err

    def test_size_filter_defaults_are_stated_once(self):
        lib = inspect.signature(partition.filter_clusters).parameters
        cfg = {f.name: f.default for f in fields(cf.ExperimentConfig)}
        assert (lib["min_size"].default, lib["max_size"].default) == (cfg["min_cluster_size"], cfg["max_cluster_size"])
        assert (cfg["min_cluster_size"], cfg["max_cluster_size"]) == (partition.MIN_CLUSTER_SIZE, partition.MAX_CLUSTER_SLOTS)
        assert nn.MAX_CLUSTER_SLOTS is partition.MAX_CLUSTER_SLOTS

    def test_readme_config_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        raw = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
        for name in ("edges.csv", "nodes.csv"):
            (tmp_path / name).write_text("")
        cfg = cf.parse_config(raw, tmp_path)
        assert cfg.output_dir == tmp_path / "out" and len(cfg.models) == 2

    @pytest.mark.parametrize(
        "features, message",
        [("f0,target", "feature column 'target' is the target column"), ("f0,id", "feature column 'id' is the id column")],
    )
    def test_id_or_target_as_feature_exit_2(self, tmp_path, capsys, features, message):
        edges, nodes = classification_fixture(tmp_path)
        table = ["--nodes", nodes, "--target-column", "target", "--feature-columns", features]
        dataset = {"edges": "edges.csv", "nodes": "nodes.csv", "target_column": "target", "feature_columns": features.split(",")}
        for args in (["train", str(base_config(tmp_path, dataset=dataset))],
                     ["stats", edges, *table],
                     ["cluster", edges, "--algo", "KM", "--out", str(tmp_path / "km.csv"), *table]):
            assert cli.main(args) == 2
            assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists() and not (tmp_path / "km.csv").exists()

    def test_overrides(self, tmp_path):
        path = base_config(tmp_path)
        cfg = cf.load_config(path, overrides=["steps=50", "split.seed=3", "models.0.lr=0.001"])
        assert cfg.steps == 50
        assert cfg.split.seed == 3
        assert cfg.models[0].lr == 0.001

    def test_bad_override(self, tmp_path):
        path = base_config(tmp_path)
        with pytest.raises(cf.ConfigError, match="expected key=value"):
            cf.load_config(path, overrides=["steps"])
        with pytest.raises(cf.ConfigError, match="bad list index"):
            cf.load_config(path, overrides=["models.9.lr=0.1"])


class TestTrainCommand:
    def test_train_writes_results_and_checkpoints(self, tmp_path, capsys):
        path = base_config(tmp_path)
        rc = cli.main(["train", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "GCN-CLATT(LA)" in out
        results = tmp_path / "out" / "results.csv"
        with open(results) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["model", "metric", "mean", "std", "significant"]
        assert [r[0] for r in rows[1:]] == ["GCN", "GCN-CLATT(LA)"]
        assert rows[1][4] == "" and rows[2][4] in ("True", "False")
        for name in ("GCN", "GCN-CLATT_LA"):
            params = load_checkpoint(tmp_path / "out" / f"{name}.ckpt")
            assert "enc.w" in params

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_rerun_bitwise_identical(self, tmp_path, capsys, jobs):
        # a rerun writes the same bytes, whether its grid trials and runs share a pool or not
        grid = {"lrs": [3e-3, 3e-5], "dropouts": [0.0], "transforms": ["none", "standard"]}
        path = base_config(tmp_path, steps=10, grid=grid)
        outputs = []
        for run_jobs in ("1", jobs):
            assert cli.main(["train", str(path), "--jobs", run_jobs]) == 0
            grid_lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("grid ")]
            files = [(tmp_path / "out" / name).read_bytes() for name in ("results.csv", "GCN.ckpt", "GCN-CLATT_LA.ckpt")]
            outputs.append((grid_lines, files))
        assert len(outputs[0][0]) == 2
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_checkpoints_are_first_seed_runs(self, tmp_path, jobs):
        path = base_config(tmp_path, seeds=[3, 1])
        assert cli.main(["train", str(path), "--jobs", jobs]) == 0
        # an independent run of the first seed, on the same data and split
        cfg = cf.load_config(path)
        data, split, _ = cli._prepare_run(cfg, cfg.models)
        datas, _ = cli._model_data(cfg, data, split, cfg.models, cfg.needed_tags())
        for spec, spec_data in zip(cfg.models, datas):
            result = tr.train(spec, spec_data, split, seed=3, steps=cfg.steps, eval_every=cfg.eval_every)
            ref = tmp_path / "ref.ckpt"
            save_checkpoint(ref, result.params, spec=spec, transform="none")
            name = cli._safe_name(spec.name)
            assert (tmp_path / "out" / f"{name}.ckpt").read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2(self, tmp_path, capsys, jobs):
        assert cli.main(["train", str(base_config(tmp_path)), "--jobs", jobs]) == 2
        assert f"must be >= 1, got {jobs}" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, pools", [
        ({}, [4]),  # two models times two seeds
        # each model's six grid trials, then the four (model, seed) runs
        ({"grid": {"lrs": [3e-3, 3e-5], "dropouts": [0.0], "transforms": ["none", "standard", "quantile_normal"]}}, [6, 6, 4]),
    ], ids=["runs", "grid"])
    def test_pool_no_larger_than_task_count(self, tmp_path, monkeypatch, extra, pools):
        sizes = []

        class SequentialPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        monkeypatch.setattr(multiprocessing, "Pool", SequentialPool)
        assert cli.main(["train", str(base_config(tmp_path, steps=5, **extra)), "--jobs", "1000"]) == 0
        assert sizes == pools

    def test_set_override_changes_run(self, tmp_path):
        path = base_config(tmp_path)
        rc = cli.main(["train", str(path), "--set", "seeds=[0,1,2]", "--set", "steps=20"])
        assert rc == 0
        assert (tmp_path / "out" / "results.csv").exists()

    def test_divergent_config_exit_2(self, tmp_path, capsys):
        edges, nodes = classification_fixture(tmp_path)
        raw = json.loads(base_config(tmp_path).read_text())
        raw["dataset"]["task"] = "regression"
        raw["split"] = {"ratios": [0.5, 0.25, 0.25], "seed": 0, "stratified": False}
        raw["models"] = [{"conv_type": "GCN", "layers": 1, "hidden": 8, "lr": 1e300}]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        with np.errstate(over="ignore", invalid="ignore"):
            rc = cli.main(["train", str(path)])
        assert rc == 2
        assert "diverged" in capsys.readouterr().err

    def test_unstratified_split_of_two_nodes_exit_2(self, tmp_path, capsys):
        raw = json.loads(base_config(tmp_path).read_text())
        (tmp_path / "edges.csv").write_text("1 2\n")
        (tmp_path / "nodes.csv").write_text("id,f,target\n1,0.5,0\n2,0.1,1\n")
        raw["split"]["stratified"] = False
        raw["models"] = raw["models"][:1]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["train", str(path)]) == 2
        assert "the split has 2 nodes, fewer than the 3 subsets" in capsys.readouterr().err

    def test_ggt_deepwalk_pe_trains_bitwise_identical(self, tmp_path):
        ggt = {"conv_type": "GGT", "pe": "deepwalk", "layers": 1, "hidden": 8, "heads": 2, "lr": 3e-3}
        path = base_config(tmp_path, models=[ggt])
        assert cli.main(["train", str(path)]) == 0
        first = (tmp_path / "out" / "results.csv").read_bytes()
        assert first.decode().splitlines()[1].startswith("GGT,")
        assert np.abs(np.load(tmp_path / "out" / "pe" / "deepwalk_64.npy")).max() > 0  # the model sees an encoding
        assert cli.main(["train", str(path)]) == 0
        assert (tmp_path / "out" / "results.csv").read_bytes() == first

    def test_ggt_grid_search_trains_bitwise_identical(self, tmp_path):
        # the grid tunes each model on its own data, which holds its PE
        ggt = {"conv_type": "GGT", "pe": "laplacian", "layers": 1, "hidden": 8, "heads": 2, "lr": 3e-3}
        path = base_config(tmp_path, models=[ggt], steps=5, grid={"lrs": [3e-3], "dropouts": [0.0]})
        assert cli.main(["train", str(path)]) == 0
        first = (tmp_path / "out" / "results.csv").read_bytes()
        assert first.decode().splitlines()[1].startswith("GGT,")
        assert cli.main(["train", str(path)]) == 0
        assert (tmp_path / "out" / "results.csv").read_bytes() == first

    def test_significance_pairs_models_whose_grid_transforms_differ(self, tmp_path, capsys):
        grid = {"lrs": [3e-3, 3e-5], "dropouts": [0.0], "transforms": ["none", "quantile_normal", "standard"]}
        assert cli.main(["train", str(base_config(tmp_path, steps=5, grid=grid))]) == 0
        chosen = dict(re.findall(r"grid (\S+): .* transform=(\S+)", capsys.readouterr().out))
        assert chosen["GCN"] != chosen["GCN-CLATT(LA)"]  # the two models train on different features
        with open(tmp_path / "out" / "results.csv") as fh:
            rows = {r["model"]: r["significant"] for r in csv.DictReader(fh)}
        assert rows == {"GCN": "", "GCN-CLATT(LA)": rows["GCN-CLATT(LA)"]}
        assert rows["GCN-CLATT(LA)"] in ("True", "False")

    def test_lgt_table_over_bound_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(nn, "NEIGHBORHOOD_TABLE_MAX_SLOTS", 10)
        path = base_config(tmp_path, models=[{"conv_type": "LGT", "layers": 1, "hidden": 8, "heads": 2, "lr": 3e-3}])
        assert cli.main(["train", str(path)]) == 2
        assert "desk-scale limit of 10 slots" in capsys.readouterr().err


# every key of the config schema, drawn from its tables, so a key the schema gains is fuzzed too
SET_KEYS = sorted(
    [*cf.TOP_FIELDS]
    + [f"dataset.{k}" for k in cf.DATASET_FIELDS]
    + [f"split.{k}" for k in cf.SPLIT_FIELDS]
    + [f"grid.{k}" for k in cf.GRID_FIELDS]
    + [f"{prefix}.{k}" for prefix in ("models.0", "selection_model") for k in cf.MODEL_FIELDS]
    + [f"clusterings.{tag}.{k}" for tag, params in cf.CLUSTERING_PARAMS.items() for k in params]
)
# "taken" names a file beside the config, so output_dir=taken is not a directory;
# free text has no "/", "\\" or ".", so an output_dir stays inside the test's directory
WORDS = st.sampled_from(["GCN", "LGT", "SAGE", "GGT", "LA", "laplacian", "none", "taken"])
SCALARS = (
    st.integers(-2, 8)
    | st.floats(-2, 8)
    | st.sampled_from([math.nan, math.inf])
    | WORDS
    | st.text(st.characters(blacklist_characters="/\\.", blacklist_categories=("Cs",)), max_size=3)
    | st.none()
    | st.booleans()
)
SET_VALUES = SCALARS | st.lists(SCALARS, max_size=3)


class TestSetOverrides:
    @given(st.lists(st.tuples(st.sampled_from(SET_KEYS), SET_VALUES), min_size=1, max_size=3))
    @example([("clusterings.LA.gamma", "x")])
    @example([("clusterings.LA.seed", -1)])
    @example([("split.ratios", [0, 0.5, 0.5])])
    @example([("seeds", [0])])
    @example([("output_dir", "taken")])
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_set_overrides_exit_0_or_2(self, overrides):
        with tempfile.TemporaryDirectory() as tmp:
            config = base_config(Path(tmp), steps=3)
            (Path(tmp) / "taken").write_text("")
            args = ["train", str(config)]
            for key, value in overrides:
                args += ["--set", f"{key}={json.dumps(value)}"]
            with np.errstate(all="ignore"):
                assert cli.main(args) in (0, 2)

    @pytest.mark.parametrize(
        "override, message",
        [("clusterings.LA.gamma=\"x\"", "clusterings.LA.gamma: expected a finite number"),
         ("clusterings.LA.seed=-1", "clusterings.LA.seed: must be >= 0"),
         ('clusterings={"H1":{"k_max":1}}', "clusterings.H1.k_max: must be >= 2, got 1"),
         ('clusterings={"KM":{"layers":0}}', "clusterings.KM.layers: must be >= 1, got 0"),
         ("split.ratios=[0,0.5,0.5]", "leave the train subset empty"),
         ("seeds=[0]", "at least 2 seeds"),
         ("seeds=[0,1,0]", "seed 0 is repeated"),
         ("grid.dropouts=[0.0,1.5]", "grid.dropouts[1]: dropout must be in [0, 1)"),
         ("grid.lrs=[-1]", "grid.lrs[0]: lr must be a finite number >= 0, got -1.0"),
         ("grid.transforms=[]", "grid.transforms: must be non-empty"),
         ("output_dir=taken", "taken exists and is not a directory"),
         pytest.param("steps=" + "[" * 5000 + "]" * 5000, "steps: expected an integer", id="too-deep-json")],
    )
    def test_bad_override_names_the_fault(self, tmp_path, capsys, override, message):
        (tmp_path / "taken").write_text("")
        assert cli.main(["train", str(base_config(tmp_path, steps=3)), "--set", override]) == 2
        assert message in capsys.readouterr().err


class TestCheapChecksFirst:
    @pytest.mark.parametrize(
        "command, override",
        [("train", "seeds=[0]"), ("train", "seeds=[0,0]"), ("train", "output_dir=\"taken\""), ("select-clusterings", "output_dir=\"taken\"")],
    )
    def test_fails_before_clustering(self, tmp_path, capsys, command, override):
        (tmp_path / "taken").write_text("")
        assert cli.main([command, str(base_config(tmp_path, steps=3)), "--set", override]) == 2
        assert "clustering LA:" not in capsys.readouterr().out

    def test_clusterings_without_use_clatt_fail_before_clustering(self, tmp_path, capsys):
        gcn = {"conv_type": "GCN", "layers": 1, "hidden": 8, "heads": 2, "lr": 3e-3, "clusterings": ["LA", "BPP"]}
        assert cli.main(["train", str(base_config(tmp_path, steps=3, models=[gcn]))]) == 2
        captured = capsys.readouterr()
        assert "models[0]: clusterings apply only with use_clatt" in captured.err
        assert "clustering" not in captured.out

    def test_repeated_clustering_fails_before_clustering(self, tmp_path, capsys):
        # one q/k/v set per tag: a repeated tag would share one set under two sites
        gcn = {"conv_type": "GCN", "layers": 1, "hidden": 8, "heads": 2, "lr": 3e-3}
        twice = {**gcn, "use_clatt": True, "clusterings": ["LA", "BPP", "LA"]}
        assert cli.main(["train", str(base_config(tmp_path, steps=3, models=[gcn, twice]))]) == 2
        captured = capsys.readouterr()
        assert "models[1]: clusterings lists 'LA' more than once" in captured.err
        assert "clustering" not in captured.out

    def test_missing_target_fails_before_clustering(self, tmp_path, capsys):
        path = base_config(tmp_path, steps=3)
        nodes = tmp_path / "nodes.csv"
        lines = nodes.read_text().splitlines(keepends=True)
        lines[2] = lines[2].rsplit(",", 1)[0] + ",nan\n"
        nodes.write_text("".join(lines))
        assert cli.main(["train", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"{nodes}:3: missing target 'nan' in column 'target'" in captured.err
        assert "clustering LA:" not in captured.out

    def test_missing_checkpoint_fails_before_clustering(self, tmp_path, capsys):
        clatt = {"conv_type": "GCN", "layers": 1, "hidden": 8, "heads": 2, "lr": 3e-3, "use_clatt": True, "clusterings": ["LA"]}
        missing = tmp_path / "missing.ckpt"
        assert cli.main(["analyze-attention", str(base_config(tmp_path, steps=3, models=[clatt])), str(missing)]) == 2
        captured = capsys.readouterr()
        assert str(missing) in captured.err
        assert "clustering LA:" not in captured.out

    @pytest.mark.parametrize("command", ["train", "select-clusterings", "analyze-attention"])
    def test_graph_over_global_attention_bound_fails_before_clustering(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(nn, "GLOBAL_ATTENTION_MAX_NODES", 4)
        pe_calls = []
        monkeypatch.setattr(cli, "laplacian_pe", lambda *args, **kw: pe_calls.append(args))
        ggt = {"conv_type": "GGT", "pe": "laplacian", "layers": 1, "hidden": 8, "heads": 2, "lr": 3e-3}
        args = [command, str(base_config(tmp_path, steps=3, models=[ggt]))]
        if command == "analyze-attention":
            args.append(recorded_checkpoint(tmp_path / "GGT.ckpt", ggt))
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert "desk-scale limit of 4" in captured.err
        assert "clustering LA:" not in captured.out and not pe_calls

    @pytest.mark.parametrize("command", ["train", "select-clusterings", "analyze-attention"])
    def test_graph_over_neighborhood_bound_fails_before_clustering(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(nn, "NEIGHBORHOOD_TABLE_MAX_SLOTS", 10)
        lgt = {"conv_type": "LGT", "layers": 1, "hidden": 8, "heads": 2, "lr": 3e-3}
        clatt = {"conv_type": "GCN", "layers": 1, "hidden": 8, "heads": 2, "lr": 3e-3, "use_clatt": True, "clusterings": ["LA"]}
        args = [command, str(base_config(tmp_path, steps=3, models=[lgt, clatt]))]
        if command == "analyze-attention":  # select-clusterings takes the LGT model as its base
            args += [recorded_checkpoint(tmp_path / "LGT.ckpt", lgt), "--model", "LGT"]
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert "desk-scale limit of 10 slots" in captured.err
        assert "clustering LA:" not in captured.out

    @pytest.mark.parametrize("command", ["train", "select-clusterings", "analyze-attention"])
    @pytest.mark.parametrize("kind", ["deepwalk", "laplacian"])
    def test_graph_over_pe_bound_fails_before_clustering(self, tmp_path, capsys, monkeypatch, command, kind):
        monkeypatch.setattr(pe, "PE_MAX_NODES", 4)
        pe_calls = []
        monkeypatch.setattr(cli, f"{kind}_pe", lambda *args, **kw: pe_calls.append(args))
        model = {"conv_type": "GGT", "pe": kind, "layers": 1, "hidden": 8, "heads": 2, "lr": 3e-3}
        args = [command, str(base_config(tmp_path, steps=3, models=[model]))]
        if command == "analyze-attention":
            args.append(recorded_checkpoint(tmp_path / "GGT.ckpt", model))
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert "desk-scale limit of 4" in captured.err
        assert "clustering LA:" not in captured.out and not pe_calls


class TestSelectCommand:
    def test_sbm_fixture_selects_la(self, tmp_path, capsys):
        g, blocks = sbm_graph([15, 15, 15, 15], 0.5, 0.02, seed=1)
        rng = np.random.default_rng(5)
        mus = rng.normal(size=(4, 8))
        mus /= np.linalg.norm(mus, axis=1, keepdims=True)
        x = 0.5 * mus[blocks] + 1.5 * rng.normal(size=(60, 8))
        edges = write_edges(tmp_path / "edges.csv", g)
        nodes = write_nodes(tmp_path / "nodes.csv", x, blocks)
        raw = {
            "dataset": {"edges": "edges.csv", "nodes": "nodes.csv", "target_column": "target"},
            "split": {"ratios": [0.4, 0.3, 0.3], "seed": 0},
            "models": [{"conv_type": "GCN", "layers": 1, "hidden": 8, "heads": 2, "lr": 3e-3}],
            "clusterings": {"LA": {"seed": 0}},
            "seeds": [0],
            "steps": 150,
            "output_dir": "out",
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        rc = cli.main(["select-clusterings", str(path)])
        assert rc == 0
        saved = json.loads((tmp_path / "out" / "selected_clusterings.json").read_text())
        assert "LA" in saved["selected"]
        assert saved["details"]["LA"] > saved["details"]["baseline"]
        assert "selected" in capsys.readouterr().out

    def test_selection_model_is_the_base(self, tmp_path):
        sage = {"conv_type": "SAGE", "layers": 1, "hidden": 8, "lr": 3e-3}
        assert cli.main(["select-clusterings", str(base_config(tmp_path, steps=3, selection_model=sage))]) == 0
        saved = json.loads((tmp_path / "out" / "selected_clusterings.json").read_text())
        assert saved["base_model"] == "SAGE"


class TestAnalyzeCommand:
    def lgt_config(self, tmp_path):
        return base_config(
            tmp_path,
            models=[{"conv_type": "LGT", "layers": 1, "hidden": 8, "heads": 2, "lr": 3e-3}],
            steps=20,
        )

    def test_single_local_layer_distances_bounded(self, tmp_path, capsys):
        path = self.lgt_config(tmp_path)
        assert cli.main(["train", str(path)]) == 0
        capsys.readouterr()
        ckpt = tmp_path / "out" / "LGT.ckpt"
        rc = cli.main(["analyze-attention", str(path), str(ckpt)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "local" in out
        with open(tmp_path / "out" / "attention_profile_LGT.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert all(float(r["avg_distance"]) <= 1.0 + 1e-12 for r in rows)
        assert (tmp_path / "out" / "attention_histogram_LGT.csv").exists()

    def test_mlp_models_train_and_plain_mlp_has_no_sites(self, tmp_path, capsys):
        mlp = {"conv_type": "MLP", "layers": 1, "hidden": 8, "heads": 2, "lr": 3e-3}
        path = base_config(tmp_path, models=[mlp, {**mlp, "use_clatt": True, "clusterings": ["LA"]}], steps=20)
        assert cli.main(["train", str(path)]) == 0
        with open(tmp_path / "out" / "results.csv") as fh:
            assert [r["model"] for r in csv.DictReader(fh)] == ["MLP", "MLP-CLATT(LA)"]
        capsys.readouterr()
        assert cli.main(["analyze-attention", str(path), str(tmp_path / "out" / "MLP.ckpt"), "--model", "MLP"]) == 2
        assert "model MLP has no attention sites" in capsys.readouterr().err
        ckpt = tmp_path / "out" / "MLP-CLATT_LA.ckpt"
        assert cli.main(["analyze-attention", str(path), str(ckpt), "--model", "MLP-CLATT(LA)"]) == 0
        with open(tmp_path / "out" / "attention_profile_MLP-CLATT_LA.csv") as fh:
            assert {r["kind"] for r in csv.DictReader(fh)} == {"cluster"}

    def test_wrong_model_name_exit_2(self, tmp_path, capsys):
        path = self.lgt_config(tmp_path)
        assert cli.main(["train", str(path)]) == 0
        ckpt = tmp_path / "out" / "LGT.ckpt"
        rc = cli.main(["analyze-attention", str(path), str(ckpt), "--model", "SAGE"])
        assert rc == 2
        assert "LGT" in capsys.readouterr().err

    def test_corrupt_checkpoint_exit_2(self, tmp_path, capsys):
        path = self.lgt_config(tmp_path)
        assert cli.main(["train", str(path)]) == 0
        ckpt = tmp_path / "out" / "LGT.ckpt"
        raw = ckpt.read_bytes()
        ckpt.write_bytes(raw[:4] + (2**62).to_bytes(8, "little") + raw[12:])
        rc = cli.main(["analyze-attention", str(path), str(ckpt)])
        assert rc == 2
        assert "header length" in capsys.readouterr().err

    def test_checkpoint_model_need_not_be_in_the_config(self, tmp_path):
        lgt = self.lgt_config(tmp_path)
        assert cli.main(["train", str(lgt)]) == 0
        profile = tmp_path / "out" / "attention_profile_LGT.csv"
        assert cli.main(["analyze-attention", str(lgt), str(tmp_path / "out" / "LGT.ckpt")]) == 0
        want = profile.read_bytes()
        profile.unlink()
        gcn_raw = json.loads(lgt.read_text())
        gcn_raw["models"] = [{"conv_type": "GCN", "layers": 2, "hidden": 8, "lr": 3e-3}]
        gcn = tmp_path / "gcn.json"
        gcn.write_text(json.dumps(gcn_raw))
        assert cli.main(["analyze-attention", str(gcn), str(tmp_path / "out" / "LGT.ckpt")]) == 0
        assert profile.read_bytes() == want

    def test_global_attention_across_components_notes_unreachable_targets(self, tmp_path, capsys):
        ggt = {"conv_type": "GGT", "pe": "laplacian", "layers": 1, "hidden": 8, "heads": 2, "lr": 3e-3}
        path = base_config(tmp_path, models=[ggt], steps=5)
        e = bridge_of_cliques([8, 8]).edge_array()
        e = e[(e[:, 0] < 8) == (e[:, 1] < 8)]  # drop the bridge: two components
        write_edges(tmp_path / "edges.csv", from_edges(e[:, 0], e[:, 1], n=16))
        assert cli.main(["train", str(path)]) == 0
        capsys.readouterr()
        assert cli.main(["analyze-attention", str(path), str(tmp_path / "out" / "GGT.ckpt")]) == 0
        assert re.search(r"^note: [1-9]\d* attended targets were unreachable", capsys.readouterr().out, re.M)

    def test_two_model_config_needs_no_model_flag(self, tmp_path):
        path = base_config(tmp_path, steps=20)
        assert cli.main(["train", str(path)]) == 0
        ckpt = tmp_path / "out" / "GCN-CLATT_LA.ckpt"
        assert cli.main(["analyze-attention", str(path), str(ckpt)]) == 0
        assert cli.main(["analyze-attention", str(path), str(ckpt), "--model", "GCN-CLATT(LA)"]) == 0

    def test_model_flag_naming_another_model_exit_2(self, tmp_path, capsys, monkeypatch):
        path = base_config(tmp_path, steps=20)
        assert cli.main(["train", str(path)]) == 0
        ckpt = tmp_path / "out" / "GCN-CLATT_LA.ckpt"
        capsys.readouterr()
        monkeypatch.setattr(cli, "load_edge_list", fail_on_call)
        assert cli.main(["analyze-attention", str(path), str(ckpt), "--model", "GCN"]) == 2
        err = capsys.readouterr().err
        assert "'GCN'" in err and "'GCN-CLATT(LA)'" in err

    def test_bins_over_bound_exit_2_before_any_file_is_read(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_config", fail_on_call)
        for bins in (str(10**15), str(cli.MAX_BINS + 1)):
            assert cli.main(["analyze-attention", "config.json", "x.ckpt", "--bins", bins]) == 2
            assert f"argument --bins: must be <= {cli.MAX_BINS}, got {bins}" in capsys.readouterr().err
        args = cli.build_parser().parse_args(["analyze-attention", "config.json", "x.ckpt", "--bins", str(cli.MAX_BINS)])
        assert args.bins == cli.MAX_BINS

    def test_checkpoint_shape_mismatch_exit_2(self, tmp_path, capsys):
        path = self.lgt_config(tmp_path)
        assert cli.main(["train", str(path)]) == 0
        capsys.readouterr()
        ckpt = tmp_path / "out" / "LGT.ckpt"
        rc = cli.main(["analyze-attention", str(path), str(ckpt), "--set", 'dataset.feature_columns=["f0"]'])
        assert rc == 2
        assert "enc.w has shape (2, 8), the model needs (1, 8)" in capsys.readouterr().err
        assert not (tmp_path / "out" / "attention_profile_LGT.csv").exists()

    def test_checkpoint_with_key_bias_exit_2(self, tmp_path, capsys):
        path = self.lgt_config(tmp_path)
        assert cli.main(["train", str(path)]) == 0
        capsys.readouterr()
        ckpt = tmp_path / "out" / "LGT.ckpt"
        params = load_checkpoint(ckpt)
        params["layer0.conv.bk"] = np.zeros(8)
        save_checkpoint(ckpt, params, spec=params.spec, transform=params.transform)
        assert cli.main(["analyze-attention", str(path), str(ckpt)]) == 2
        assert "unexpected array layer0.conv.bk" in capsys.readouterr().err


class TestCheckpointSpec:
    def lgt_config(self, tmp_path, **extra):
        model = {"conv_type": "LGT", "layers": 1, "hidden": 8, "heads": 2, "lr": 3e-3}
        return base_config(tmp_path, models=[model], steps=20, **extra)

    def test_config_model_fields_are_not_read(self, tmp_path, capsys):
        path = self.lgt_config(tmp_path)
        assert cli.main(["train", str(path)]) == 0
        ckpt = tmp_path / "out" / "LGT.ckpt"
        assert load_checkpoint(ckpt).spec == cf.load_config(path).models[0]
        profile = tmp_path / "out" / "attention_profile_LGT.csv"
        assert cli.main(["analyze-attention", str(path), str(ckpt)]) == 0
        want = profile.read_bytes()
        for edit in ("models.0.heads=4", "models.0.hidden=16", 'models.0.conv_type="GCN"'):
            profile.unlink()
            assert cli.main(["analyze-attention", str(path), str(ckpt), "--set", edit]) == 0, capsys.readouterr().err
            assert profile.read_bytes() == want

    def test_tuned_fields_may_differ(self, tmp_path):
        path = self.lgt_config(tmp_path)
        assert cli.main(["train", str(path)]) == 0
        ckpt = tmp_path / "out" / "LGT.ckpt"
        assert cli.main(["analyze-attention", str(path), str(ckpt), "--set", "models.0.lr=0.1", "--set", "models.0.dropout=0.5"]) == 0

    def test_checkpoint_without_spec_exit_2_before_reading_edges(self, tmp_path, capsys, monkeypatch):
        path = self.lgt_config(tmp_path)
        assert cli.main(["train", str(path)]) == 0
        ckpt = tmp_path / "out" / "LGT.ckpt"
        raw = ckpt.read_bytes()
        end = 12 + int.from_bytes(raw[4:12], "little")
        header = json.loads(raw[12:end])
        capsys.readouterr()
        monkeypatch.setattr(cli, "load_edge_list", fail_on_call)
        for dropped in (["spec"], ["transform"], ["spec", "transform"]):
            kept = json.dumps({k: v for k, v in header.items() if k not in dropped}).encode()
            ckpt.write_bytes(raw[:4] + len(kept).to_bytes(8, "little") + kept + raw[end:])
            assert cli.main(["analyze-attention", str(path), str(ckpt)]) == 2
            assert f"checkpoint {ckpt} records no model {dropped[0]}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "attention_profile_LGT.csv").exists()

    @pytest.mark.parametrize("conv_type", ["GCN", "SAGE", "MLP"])
    def test_model_without_attention_exit_2_before_reading_edges(self, tmp_path, capsys, monkeypatch, conv_type):
        model = {"conv_type": conv_type, "layers": 1, "hidden": 8, "heads": 2, "lr": 3e-3}
        path = base_config(tmp_path, models=[model])
        ckpt = recorded_checkpoint(tmp_path / "plain.ckpt", model)
        monkeypatch.setattr(cli, "load_edge_list", fail_on_call)
        assert cli.main(["analyze-attention", str(path), ckpt]) == 2
        assert f"model {conv_type} has no attention sites" in capsys.readouterr().err

    def test_profile_uses_the_grid_transform(self, tmp_path):
        grid = {"lrs": [3e-3], "dropouts": [0.0], "transforms": ["quantile_normal"]}
        path = self.lgt_config(tmp_path, grid=grid)
        assert cli.main(["train", str(path)]) == 0
        ckpt = tmp_path / "out" / "LGT.ckpt"
        params = load_checkpoint(ckpt)
        assert params.transform == "quantile_normal"
        assert cli.main(["analyze-attention", str(path), str(ckpt)]) == 0
        cfg = cf.load_config(path)
        data, split, _ = cli._prepare_run(cfg, cfg.models)
        (data,), _ = cli._model_data(cfg, data, split, cfg.models, ())
        refs = {}
        for transform in ("quantile_normal", "none"):
            variant = replace(data, features=transform_features(data.features, transform))
            refs[transform] = tmp_path / f"{transform}.csv"
            export_profile(profile_model(cfg.models[0], params, variant), refs[transform])
        profile = (tmp_path / "out" / "attention_profile_LGT.csv").read_bytes()
        assert profile == refs["quantile_normal"].read_bytes()
        assert profile != refs["none"].read_bytes()


# a GGT model with cluster attention: one clustering and one PE record
RECORDED_MODEL = {"conv_type": "GGT", "pe": "laplacian", "use_clatt": True, "clusterings": ["LA"],
                  "layers": 1, "hidden": 8, "heads": 2, "lr": 3e-3}
RECORD_FILES = ("clusterings/LA.csv", "clusterings/LA.csv.meta.json", "pe/laplacian_64.npy", "pe/laplacian_64.npy.meta.json")
ANALYZE_OUTPUTS = ("attention_profile_GGT-CLATT_LA.csv", "attention_histogram_GGT-CLATT_LA.csv")


@pytest.fixture(scope="class")
def trained_run(tmp_path_factory):
    """A config with RECORDED_MODEL, trained once into its out/."""
    tmp = tmp_path_factory.mktemp("run")
    path = base_config(tmp, models=[RECORDED_MODEL], steps=20)
    assert cli.main(["train", str(path)]) == 0
    return path


def counted_builders(monkeypatch) -> dict:
    """Count the calls of the clustering and PE functions clatt looks up."""
    calls = {"leiden_cpm": 0, "laplacian_pe": 0}
    for name in calls:
        def counted(*args, fn=getattr(cli, name), name=name, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    return calls


class TestRunDirectory:
    @staticmethod
    def analyze(config, out, *extra) -> dict:
        args = ["analyze-attention", str(config), str(out / "GGT-CLATT_LA.ckpt"), "--set", f"output_dir={json.dumps(str(out))}"]
        assert cli.main(args + list(extra)) == 0
        return {name: (out / name).read_bytes() for name in ANALYZE_OUTPUTS}

    @staticmethod
    def copy_run(config, dest) -> Path:
        shutil.copytree(config.parent / "out", dest)
        return dest

    @staticmethod
    def forget(out) -> None:
        """Delete the record files: the next command recomputes them."""
        for name in RECORD_FILES:
            (out / name).unlink(missing_ok=True)

    def test_analyze_reuses_what_train_recorded(self, trained_run, tmp_path, monkeypatch, capsys):
        out = self.copy_run(trained_run, tmp_path / "out")
        calls = counted_builders(monkeypatch)
        reused = self.analyze(trained_run, out)
        assert calls == {"leiden_cpm": 0, "laplacian_pe": 0}
        assert "(reused " in capsys.readouterr().out
        self.forget(out)
        assert self.analyze(trained_run, out) == reused
        assert calls == {"leiden_cpm": 1, "laplacian_pe": 1}
        assert "(reused " not in capsys.readouterr().out

    @staticmethod
    def restamp(path, raw=None, **meta) -> None:
        """Write ``raw`` over a record file and ``meta`` into its sidecar,
        which keeps its key and gets the new bytes' sha256: the record still
        matches, so only the checks on its contents can refuse it."""
        if raw is not None:
            path.write_bytes(raw)
        sidecar = path.with_suffix(path.suffix + ".meta.json")
        doc = {**json.loads(sidecar.read_text()), **meta, "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
        sidecar.write_text(json.dumps(doc))

    @pytest.mark.parametrize(
        "damage, extra, stale",
        [
            (None, ["--set", "clusterings.LA.seed=1"], "leiden_cpm"),
            ("csv_row", [], "leiden_cpm"),
            ("npy_byte", [], "laplacian_pe"),
            ("meta_json", [], "leiden_cpm"),
            ("tag", [], "leiden_cpm"),
            ("node_id", [], "leiden_cpm"),
            ("id_past_size", [], "leiden_cpm"),
            ("id_gap", [], "leiden_cpm"),
            ("pe_shape", [], "laplacian_pe"),
        ],
    )
    def test_stale_record_is_recomputed_once(self, trained_run, tmp_path, monkeypatch, damage, extra, stale):
        out = self.copy_run(trained_run, tmp_path / "out")
        csv_path, npy = out / "clusterings" / "LA.csv", out / "pe" / "laplacian_64.npy"
        ids, assignment, _ = load_clustering(csv_path)
        if damage == "csv_row":
            lines = csv_path.read_text().splitlines(keepends=True)
            node, cluster = lines[1].strip().split(",")
            lines[1] = f"{node},{1 - int(cluster)}\r\n"
            csv_path.write_text("".join(lines))
        elif damage == "npy_byte":
            raw = bytearray(npy.read_bytes())
            raw[-3] ^= 0x10
            npy.write_bytes(bytes(raw))
        elif damage == "meta_json":
            (out / "clusterings" / "LA.csv.meta.json").write_text('{"key": ')
        # the rest keep a matching key and sha256: the record's contents are at fault
        elif damage == "tag":
            self.restamp(csv_path, algorithm_tag="BPP")
        elif damage == "pe_shape":
            buf = io.BytesIO()
            np.save(buf, np.load(npy)[:, 1:])
            self.restamp(npy, buf.getvalue())
        elif damage is not None:
            if damage == "node_id":
                ids[0] = ids.max() + 1
            elif damage == "id_past_size":  # a bincount up to this id would need 8 TB
                assignment[0] = 10**12
            else:
                assert assignment.min() >= 0 and 2 * assignment.max() < assignment.size
                assignment *= 2  # no node in the odd ids
            rows = "".join(f"{i},{c}\r\n" for i, c in zip(ids, assignment))
            self.restamp(csv_path, f"node_id,cluster_id\r\n{rows}".encode())
        calls = counted_builders(monkeypatch)
        fresh = self.analyze(trained_run, out, *extra)
        assert calls == {name: int(name == stale) for name in calls}
        assert self.analyze(trained_run, out, *extra) == fresh  # the record was written over
        assert calls == {name: int(name == stale) for name in calls}
        self.forget(out)
        assert self.analyze(trained_run, out, *extra) == fresh

    @given(name=st.sampled_from(RECORD_FILES), raw=st.binary(max_size=64))
    @example(name=RECORD_FILES[1], raw=b'{"key": null, "sha256": []}')
    @example(name=RECORD_FILES[3], raw=b"[1e999999]")
    @example(name=RECORD_FILES[2], raw=b"")
    @settings(max_examples=25, deadline=None)
    def test_fuzzed_record_files_exit_0(self, trained_run, name, raw):
        with tempfile.TemporaryDirectory() as tmp:
            out = self.copy_run(trained_run, Path(tmp) / "out")
            (out / name).write_bytes(raw)
            self.analyze(trained_run, out)

    def test_mismatched_checkpoint_builds_nothing(self, trained_run, tmp_path, monkeypatch, capsys):
        calls = counted_builders(monkeypatch)
        out = tmp_path / "fresh"
        args = ["analyze-attention", str(trained_run), str(trained_run.parent / "out" / "GGT-CLATT_LA.ckpt"),
                "--set", f"output_dir={json.dumps(str(out))}"]
        assert cli.main(args + ["--set", "pe_dim=4"]) == 2  # a narrower PE than the checkpoint's
        assert "the model needs" in capsys.readouterr().err
        assert calls == {"leiden_cpm": 0, "laplacian_pe": 0}
        assert not any(out.iterdir())

    @pytest.mark.parametrize("kind", ["laplacian", "deepwalk"])
    def test_pe_dim_is_shared_by_the_config_commands(self, tmp_path, capsys, kind):
        path = base_config(tmp_path, models=[{**RECORDED_MODEL, "pe": kind}], steps=5, pe_dim=4)
        assert cli.main(["train", str(path)]) == 0
        assert cli.main(["analyze-attention", str(path), str(tmp_path / "out" / "GGT-CLATT_LA.ckpt")]) == 0
        assert sorted(p.name for p in (tmp_path / "out" / "pe").iterdir()) == [f"{kind}_4.npy", f"{kind}_4.npy.meta.json"]
        assert np.load(tmp_path / "out" / "pe" / f"{kind}_4.npy").shape == (16, 4)
        assert "(reused " in capsys.readouterr().out

    def test_pe_dim_over_bound_exit_2_before_reading_edges(self, tmp_path, capsys, monkeypatch):
        path = base_config(tmp_path, models=[{**RECORDED_MODEL, "pe": "deepwalk"}])
        monkeypatch.setattr(cli, "load_edge_list", fail_on_call)
        assert cli.main(["train", str(path), "--set", "pe_dim=20001"]) == 2
        assert f"pe_dim: must be <= {nn.GLOBAL_ATTENTION_MAX_NODES}, got 20001" in capsys.readouterr().err

    def test_train_manifest(self, tmp_path):
        path = base_config(tmp_path, models=[RECORDED_MODEL], steps=20)
        out = tmp_path / "out"
        manifests, outputs = [], []
        for _ in range(2):
            assert cli.main(["train", str(path)]) == 0
            manifests.append(json.loads((out / "manifest.json").read_text()))
            outputs.append([(out / name).read_bytes() for name in ("results.csv", "GGT-CLATT_LA.ckpt")])
        assert outputs[0] == outputs[1]
        first, second = manifests
        assert [(r["artifact"], r["name"], r["path"]) for r in first["records"]] == [
            ("clustering", "LA", "clusterings/LA.csv"), ("pe", "laplacian", "pe/laplacian_64.npy")]
        assert [r["status"] for r in first["records"]] == ["computed", "computed"]
        assert [r["status"] for r in second["records"]] == ["reused", "reused"]
        assert [r["key"] for r in first["records"]] == [r["key"] for r in second["records"]]
        assert first["seeds"] == {"runs": [0, 1], "split": 0, "clusterings": {"LA": 0}}
        assert set(first["versions"]) == {"numpy", "scipy", "blas", "blas_threads", "clatt_sources"}
        assert set(first["versions"]["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert {"setup", "training", "checkpoints"} <= set(first["phases_s"])

    def test_records_are_keyed_on_the_blas_thread_setting(self, tmp_path):
        # a record written at another BLAS thread count is recomputed once, then reused
        path = base_config(tmp_path, models=[RECORDED_MODEL], steps=2)
        src = str(Path(__file__).resolve().parent.parent / "src")
        statuses = []
        for threads in ("1", "2", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-m", "clatt.cli", "train", str(path)],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
            assert manifest["versions"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == threads
            statuses.append([r["status"] for r in manifest["records"]])
        assert statuses == [["computed"] * 2, ["computed"] * 2, ["reused"] * 2]


class TestExitCodes:
    def test_internal_error_exit_3(self, tmp_path, capsys, monkeypatch):
        def boom(*a, **k):
            raise TypeError("impossible state")

        monkeypatch.setattr(cli, "compute_graph_stats", boom)
        rc = cli.main(["stats", triangle_edges(tmp_path)])
        assert rc == 3
        assert "internal error" in capsys.readouterr().err

    def test_stray_runtime_error_in_train_exit_3(self, tmp_path, capsys, monkeypatch):
        # a bare ValueError is an internal fault too, e.g. a numpy shape bug
        for error in (RuntimeError("backward was already called on this tape"),
                      ValueError("operands could not be broadcast together")):
            def broken_backward(loss, error=error):
                raise error

            monkeypatch.setattr(tensor, "backward", broken_backward)
            rc = cli.main(["train", str(base_config(tmp_path))])
            assert rc == 3
            assert f"internal error: {type(error).__name__}" in capsys.readouterr().err

    def test_closed_stdout_exit_0_and_files_written(self, tmp_path):
        # the stats JSON is echoed before it is saved
        out = tmp_path / "s.json"
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "clatt.cli", "stats", triangle_edges(tmp_path), "--out", str(out)],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 0, proc.stderr
        assert "internal error" not in proc.stderr
        assert json.loads(out.read_text())["num_nodes"] == 3

    def test_help_exits_zero(self):
        assert cli.main(["--help"]) == 0
        assert cli.main(["train", "--help"]) == 0


def test_readme_cli_section_names_every_flag_and_no_other():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {f for sp in sub.choices.values() for a in sp._actions for f in a.option_strings if f.startswith("--")}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme[readme.index("\n## CLI\n"):readme.index("\n## Run directory\n")]
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section))
    assert named - flags == set(), "README names flags no subcommand has"
    assert flags - named == set(), "README's CLI section leaves these flags out"


def test_readme_layout_names_every_module_and_no_other():
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    block = readme[readme.index("\n## Layout\n"):readme.index("\n## Install\n")]
    named = re.findall(r"^  (\w+\.py) ", block, re.M)
    assert sorted(named) == sorted(p.name for p in (root / "src" / "clatt").glob("*.py"))


def test_every_all_entry_exists():
    for info in pkgutil.iter_modules(clatt.__path__):
        module = importlib.import_module(f"clatt.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"clatt.{info.name}.__all__ names {missing}"


IMPORT_FLOOR = """
import importlib, json, pkgutil, sys
import clatt, clatt.cli
for mod in pkgutil.iter_modules(clatt.__path__):
    importlib.import_module("clatt." + mod.name)
import gc
print(gc.get_freeze_count())
print(json.dumps(sorted(m for m in sys.modules if m.startswith("clatt.") or m.startswith("scipy.stats"))))
"""


def test_no_module_imports_scipy_stats():
    # scipy.stats costs tens of MB and most of a second at import; every
    # clatt process imports clatt.cli, so no module it can reach may need it.
    # clatt.cli also freezes what the imports made (see its gc.freeze call).
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", IMPORT_FLOOR], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    frozen, loaded = proc.stdout.strip().splitlines()[-2:]
    assert int(frozen) > 0
    loaded = json.loads(loaded)
    assert {"clatt.cli", "clatt.analysis", "clatt.checkpoint", "clatt.similarity"} <= set(loaded)
    assert not [m for m in loaded if m.startswith("scipy.stats")]


STACK_IMPORTS = """
import importlib, json, pkgutil, sys
import numpy, scipy.sparse, scipy.sparse.csgraph, scipy.special, scipy.linalg
before = {m.partition(".")[0] for m in sys.modules}
import clatt
for mod in pkgutil.iter_modules(clatt.__path__):
    importlib.import_module("clatt." + mod.name)
after = {m.partition(".")[0] for m in sys.modules}
print(json.dumps(sorted(after - before - set(sys.stdlib_module_names) - {"clatt"})))
"""


def test_numpy_and_scipy_are_the_whole_stack():
    # numpy, scipy and the standard library are all any clatt module may
    # import. The scipy modules clatt uses are imported first, because scipy
    # itself pulls in modules from outside the standard library.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", STACK_IMPORTS], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []
