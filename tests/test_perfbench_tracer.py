"""Smoke test of the benchmark's per-layer tracer (perfbench/tracer.py).

The tracer wraps clatt's public functions at the attribute each caller looks
up and reads the autodiff tape after every backward pass, so a rename or a
tape change can break ``perfbench/run.py --trace 1`` without any other test
noticing. This runs ``clatt train`` and then ``clatt analyze-attention`` under
``tracer.install_all`` in a fresh process, so the wrappers do not leak into
the test session.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from clatt.synthetic import bridge_of_cliques, noisy_onehot_features

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
import tracer
from clatt import cli
t = tracer.Tracer()
tracer.install_all(t)
rc = cli.main(["train", sys.argv[1], "--jobs", "1"])
if rc == 0:
    rc = cli.main(["analyze-attention", sys.argv[1], "out/GCN-CLATT_LA_KM.ckpt", "--model", "GCN-CLATT(LA,KM)"])
print(json.dumps({"rc": rc, "metrics": tracer.layer_metrics(t, int(sys.argv[2]))}))
"""


def tiny_config(tmp_path):
    g = bridge_of_cliques([6, 6, 6])
    labels = np.repeat([0, 1, 2], 6)
    x = noisy_onehot_features(labels, 3, sigma=0.2, seed=1)
    with open(tmp_path / "edges.csv", "w") as fh:
        fh.writelines(f"{u},{v}\n" for u, v in g.edge_array())
    with open(tmp_path / "nodes.csv", "w") as fh:
        fh.write("id,f0,f1,f2,target\n")
        fh.writelines(f"{i},{','.join(f'{v:.8g}' for v in x[i])},{labels[i]}\n" for i in range(g.n))
    model = {"layers": 1, "hidden": 8, "heads": 2, "lr": 3e-3}
    config = {
        "dataset": {"edges": "edges.csv", "nodes": "nodes.csv", "target_column": "target"},
        "split": {"ratios": [0.5, 0.25, 0.25], "seed": 0},
        "models": [{"conv_type": "GCN", "use_clatt": True, "clusterings": ["LA", "KM"], **model}, {"conv_type": "LGT", **model}],
        "clusterings": {"LA": {"seed": 0}, "KM": {"hidden": 8, "steps": 20}},
        "min_cluster_size": 2,
        "seeds": [0, 1],
        "steps": 3,
        "eval_every": 3,
        "output_dir": "out",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path, 2 * 2 * 3


def test_traced_train_gives_finite_layer_metrics(tmp_path):
    path, steps = tiny_config(tmp_path)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(path), str(steps)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["rc"] == 0
    metrics = result["metrics"]
    bad = {k: v for k, v in metrics.items() if not math.isfinite(v)}
    assert not bad
    assert metrics["nn.attention_logits_per_step"] > 0
    assert metrics["tensor.masked_softmax_ms.p50"] > 0
    assert metrics["tensor.tape_nodes"] > 0
    # KM's MLP trains outside training.train and nn.prepare_inputs, so these
    # count only the configured models' runs and the analysis forward
    assert metrics["training.train_calls"] == 4
    assert metrics["nn.prepare_inputs_calls"] == 5
    assert metrics["training.resmlp_s"] > 0
    assert metrics["analysis.entries"] > 0
    assert metrics["stats.bfs_calls"] > 0
