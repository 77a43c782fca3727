"""End-to-end command tests plus config schema validation."""

import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from clatt import cli
from clatt import config as cf
from clatt import nn
from clatt import tensor
from clatt import training as tr
from clatt.checkpoint import load_checkpoint, save_checkpoint
from clatt.graphs import GraphFormatError, load_edge_list
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


def triangle_edges(tmp_path):
    path = tmp_path / "tri.csv"
    with open(path, "w") as fh:
        fh.write("0,1\n1,2\n0,2\n")
    return str(path)


FUZZ_TEXT = st.text(alphabet="0123456789-,.#x \t\"", max_size=10)


@st.composite
def edge_list_and_node_table(draw):
    """Edge-list lines, id pairs and at most one fuzzed line, and node-table
    rows for the ids they name, in any order, plus at most one fuzzed row."""
    node_id = st.integers(-2, 6) | st.integers(-(2**70), 2**70)
    lines = draw(st.lists(st.tuples(node_id, node_id).map(lambda e: f"{e[0]} {e[1]}"), max_size=8))
    for junk in draw(st.lists(FUZZ_TEXT, max_size=1)):
        lines.insert(draw(st.integers(0, len(lines))), junk)
    ids = list(dict.fromkeys(tok for line in lines for tok in line.replace(",", " ").split()[:2]))
    cell = st.sampled_from(["0", "1.5", "", "nan", "1e999", "a", "b"])
    rows = [f"{i},{draw(cell)},{draw(cell | FUZZ_TEXT)}" for i in draw(st.permutations(ids))]
    for junk in draw(st.lists(FUZZ_TEXT, max_size=1)):
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
        assert saved == json.loads(capsys.readouterr().out)

    def test_undecodable_edge_list_exit_2(self, tmp_path, capsys):
        edges = tmp_path / "e.csv"
        edges.write_bytes(b"0 1\n\xff\xfe 2\n")
        assert cli.main(["stats", str(edges)]) == 2
        assert str(edges) in capsys.readouterr().err

    def test_id_outside_int64_exit_2(self, tmp_path, capsys):
        edges = tmp_path / "e.csv"
        edges.write_text(f"0 1\n{2**66} 1\n")
        with pytest.raises(GraphFormatError, match=r"e\.csv:2: node id '73786976294838206464' is outside"):
            load_edge_list(edges)
        assert cli.main(["stats", str(edges)]) == 2
        assert f"{edges}:2:" in capsys.readouterr().err

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

    def test_size_filter_flags(self, tmp_path):
        g = bridge_of_cliques([5, 3])
        edges = write_edges(tmp_path / "e.csv", g)
        out = tmp_path / "la.csv"
        rc = cli.main(["cluster", edges, "--algo", "LA", "--out", str(out), "--min-size", "4"])
        assert rc == 0
        _, assignment, meta = load_clustering(out)
        assert meta["num_unassigned"] == 3
        assert (assignment == -1).sum() == 3

    def test_unknown_algo_exit_2(self, tmp_path):
        edges = triangle_edges(tmp_path)
        assert cli.main(["cluster", edges, "--algo", "XX", "--out", "x.csv"]) == 2

    def test_km_without_nodes_exit_2(self, tmp_path, capsys):
        edges = triangle_edges(tmp_path)
        rc = cli.main(["cluster", edges, "--algo", "KM", "--out", str(tmp_path / "km.csv")])
        assert rc == 2
        assert "--nodes" in capsys.readouterr().err


class TestCompare:
    def test_self_comparison_diagonal(self, tmp_path, capsys):
        g = bridge_of_cliques([5, 5])
        edges = write_edges(tmp_path / "e.csv", g)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["cluster", edges, "--algo", "LA", "--out", str(a)]) == 0
        assert cli.main(["cluster", edges, "--algo", "LA", "--out", str(b), "--seed", "1"]) == 0
        capsys.readouterr()
        out = tmp_path / "cc.csv"
        rc = cli.main(["compare", str(a), str(b), "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert float(rows[1][1]) == 1.0 and float(rows[2][2]) == 1.0
        assert rows[1][2] == rows[2][1]
        assert "1.000000" in capsys.readouterr().out

    def test_single_file_exit_2(self, tmp_path):
        g = bridge_of_cliques([5, 5])
        edges = write_edges(tmp_path / "e.csv", g)
        a = tmp_path / "a.csv"
        cli.main(["cluster", edges, "--algo", "LA", "--out", str(a)])
        assert cli.main(["compare", str(a), "--out", str(tmp_path / "cc.csv")]) == 2

    @pytest.mark.parametrize(
        "bad_row, message",
        [("3", "line 4: expected node_id,cluster_id, got 1 field"),
         ("3,x", "line 4: node_id and cluster_id must be 64-bit integers"),
         ("2.5,1", "line 4: node_id and cluster_id must be 64-bit integers"),
         ("99999999999999999999,1", "line 4: node_id and cluster_id must be 64-bit integers"),
         ("1,0", "line 4: node 1 already assigned on line 3")],
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

    @given(st.lists(st.text(alphabet="0123456789-,.x \"", max_size=8), max_size=6))
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

    def test_output_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cf.OUTPUT_DIR_ENV, "env_out")
        raw = json.loads(base_config(tmp_path).read_text())
        del raw["output_dir"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        cfg = cf.load_config(path)
        assert cfg.output_dir == tmp_path / "env_out"


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

    def test_rerun_bitwise_identical(self, tmp_path):
        path = base_config(tmp_path)
        assert cli.main(["train", str(path)]) == 0
        first = (tmp_path / "out" / "results.csv").read_bytes()
        assert cli.main(["train", str(path)]) == 0
        assert (tmp_path / "out" / "results.csv").read_bytes() == first

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_checkpoints_are_first_seed_runs(self, tmp_path, jobs):
        path = base_config(tmp_path, seeds=[3, 1])
        assert cli.main(["train", str(path), "--jobs", jobs]) == 0
        # an independent run of the first seed, on the same data and split
        cfg = cf.load_config(path)
        data = cli._dataset_for_training(cfg)
        split = cli._split_for(cfg, data)
        cli._build_clusterings(cfg, data, split, cfg.needed_tags())
        for spec in cfg.models:
            result = tr.train(spec, data, split, seed=3, steps=cfg.steps, eval_every=cfg.eval_every)
            ref = tmp_path / "ref.ckpt"
            save_checkpoint(ref, result.params)
            name = cli._safe_name(spec.name)
            assert (tmp_path / "out" / f"{name}.ckpt").read_bytes() == ref.read_bytes()

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

    def test_lgt_table_over_bound_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(nn, "NEIGHBORHOOD_TABLE_MAX_SLOTS", 10)
        path = base_config(tmp_path, models=[{"conv_type": "LGT", "layers": 1, "hidden": 8, "heads": 2, "lr": 3e-3}])
        assert cli.main(["train", str(path)]) == 2
        assert "desk-scale limit of 10 slots" in capsys.readouterr().err


SET_KEYS = (
    [
        "dataset", "split", "models", "clusterings", "min_cluster_size", "max_cluster_size",
        "grid", "seeds", "steps", "eval_every", "selection_model", "output_dir",
    ]
    + [f"split.{k}" for k in ("ratios", "seed", "stratified")]
    + [f"models.0.{k}" for k in ("conv_type", "use_clatt", "clusterings", "pe", "layers", "hidden", "heads", "dropout", "lr")]
    + [f"clusterings.LA.{k}" for k in ("gamma", "seed", "max_passes")]
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
         ("split.ratios=[0,0.5,0.5]", "leave the train subset empty"),
         ("seeds=[0]", "at least 2 seeds"),
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
        [("train", "seeds=[0]"), ("train", "output_dir=\"taken\""), ("select-clusterings", "output_dir=\"taken\"")],
    )
    def test_fails_before_clustering(self, tmp_path, capsys, command, override):
        (tmp_path / "taken").write_text("")
        assert cli.main([command, str(base_config(tmp_path, steps=3)), "--set", override]) == 2
        assert "clustering LA:" not in capsys.readouterr().out


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

    def test_checkpoint_model_mismatch_exit_2(self, tmp_path, capsys):
        lgt = self.lgt_config(tmp_path)
        assert cli.main(["train", str(lgt)]) == 0
        gcn_raw = json.loads(lgt.read_text())
        gcn_raw["models"] = [{"conv_type": "GCN", "layers": 2, "hidden": 8, "lr": 3e-3}]
        gcn = tmp_path / "gcn.json"
        gcn.write_text(json.dumps(gcn_raw))
        rc = cli.main(["analyze-attention", str(gcn), str(tmp_path / "out" / "LGT.ckpt")])
        assert rc == 2
        assert "does not match" in capsys.readouterr().err

    def test_checkpoint_shape_mismatch_exit_2(self, tmp_path, capsys):
        path = self.lgt_config(tmp_path)
        assert cli.main(["train", str(path)]) == 0
        capsys.readouterr()
        ckpt = tmp_path / "out" / "LGT.ckpt"
        rc = cli.main(["analyze-attention", str(path), str(ckpt), "--set", "models.0.hidden=16"])
        assert rc == 2
        assert "enc.w has shape (2, 8), the model needs (2, 16)" in capsys.readouterr().err
        assert not (tmp_path / "out" / "attention_profile_LGT.csv").exists()

    def test_checkpoint_with_key_bias_exit_2(self, tmp_path, capsys):
        path = self.lgt_config(tmp_path)
        assert cli.main(["train", str(path)]) == 0
        capsys.readouterr()
        ckpt = tmp_path / "out" / "LGT.ckpt"
        params = load_checkpoint(ckpt)
        params["layer0.conv.bk"] = np.zeros(8)
        save_checkpoint(ckpt, params)
        assert cli.main(["analyze-attention", str(path), str(ckpt)]) == 2
        assert "unexpected array layer0.conv.bk" in capsys.readouterr().err


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

    def test_help_exits_zero(self):
        assert cli.main(["--help"]) == 0
        assert cli.main(["train", "--help"]) == 0
