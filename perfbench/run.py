"""Benchmark of record for clatt.

    python3 perfbench/run.py --workload {uniform,skewed,prep,all} --seed N --seconds S --trace {0,1}

Generates the workload's inputs from the seed, then runs repetitions of the
workload, each in a fresh child process, until S seconds have passed and at least three have run. BLAS
and OpenMP are pinned to one thread and training runs with ``--jobs 1``.
Each repetition's outputs are checked; a non-zero exit or a failed check is
a failed operation. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, each the median over
repetitions. With --trace 1 traced and untraced repetitions alternate; the
metrics are the per-layer ones (median over traced repetitions) plus the
tracing overhead. A full report, with the environment, goes to
``.bench_out/`` in the checkout. ``--workload all`` runs every workload in
turn and prefixes each metric with its workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("uniform", "skewed", "prep")
MIN_REPS = 3  # so that every median, set-up time included, has several samples
HARD_LIMIT_S = 170.0  # one workload's run, inputs included, ends within this


def declared_metrics() -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]})


def source_record() -> dict:
    """The git commit when the checkout has one, and a digest of the sources."""
    record = {"git_commit": "unknown (not a git checkout)"}
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        record["git_commit"] = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "clatt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    record["src_sha256"] = digest.hexdigest()
    return record


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
    )
    env.pop("PYTHONPATH", None)
    env.pop("CLATT_OUT_DIR", None)
    return env


def run_child(cmd: list, log: Path, deadline: float):
    """Run cmd to completion or the deadline; return (exit code, peak RSS in MB).

    The peak RSS is the child's own ``ru_maxrss`` from wait4, which covers
    only that process.
    """
    with open(log, "ab") as fh:
        proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """All repetitions of one workload; returns the report."""
    deadline = time.monotonic() + HARD_LIMIT_S
    out_root = ROOT / ".bench_out"
    work = out_root / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work / "log.txt"
    try:
        code, _ = run_child(
            [sys.executable, str(HERE / "inputs.py"), "--workload", workload, "--seed", str(seed), "--out", str(work)],
            log,
            deadline,
        )
        if code != 0:
            raise RuntimeError(f"input generation exited {code}; see {log}")
        env_line = log.read_text().strip().splitlines()[-1]
        report = {"workload": workload, "seed": seed, "trace": trace, **json.loads(env_line), "source": source_record()}

        reps = []
        t0 = time.monotonic()
        while True:
            elapsed = time.monotonic() - t0
            if len(reps) >= MIN_REPS and elapsed >= seconds:
                break
            if reps and time.monotonic() + max(r["child_s"] for r in reps) > deadline:
                break
            k = len(reps)
            traced = bool(trace) and k % 2 == 0
            result_path = work / f"rep{k}.json"
            c0 = time.monotonic()
            code, rss = run_child(
                [sys.executable, str(HERE / "child.py"), "--workload", workload, "--inputs", str(work),
                 "--rep", str(k), "--trace", str(int(traced)), "--out", str(result_path)],
                log,
                deadline,
            )
            rep = {"traced": traced, "exit": code, "peak_rss_mb": rss, "child_s": time.monotonic() - c0}
            if code == 0 and result_path.is_file():
                rep.update(json.loads(result_path.read_text()))
            else:
                rep["ops"] = [{"op": "repetition", "ok": False, "problems": [f"child exited {code}; see {log}"]}]
            reps.append(rep)
        report["repetitions"] = reps
        return summarize(report)
    finally:
        report_dir = out_root / "reports"
        report_dir.mkdir(parents=True, exist_ok=True)
        if (work / "log.txt").is_file():
            shutil.copy(work / "log.txt", report_dir / f"{workload}-seed{seed}-trace{trace}.log")
        shutil.rmtree(work, ignore_errors=True)


def summarize(report: dict) -> dict:
    reps = report["repetitions"]
    ops = [op for r in reps for op in r["ops"]]
    good = [r for r in reps if "timings" in r and all(op["ok"] for op in r["ops"])]
    report["attempted"] = len(ops)
    report["failed"] = sum(not op["ok"] for op in ops)
    report["problems"] = [p for op in ops for p in op["problems"]]

    def e2e(rep):
        t = rep["timings"]
        return {
            "setup_s": t["setup_s"],
            "train_steps_per_s": t["configured_steps"] / t["train_s"],
            "analyze_s": t["analyze_s"],
            "wall_s": t["wall_s"],
            "peak_rss_mb": rep["peak_rss_mb"],
        }

    plain = [e2e(r) for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    report["end_to_end"] = {k: statistics.median(p[k] for p in plain) for k in plain[0]} if plain else {}
    if traced:
        layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        if plain:
            layers["trace.overhead_s"] = statistics.median(r["timings"]["wall_s"] for r in traced) - report["end_to_end"]["wall_s"]
        report["per_layer"] = layers
    return report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # turn a termination request into SystemExit so that run_child stops its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "clatt" / "cli.py").is_file():
        print(f"error: no clatt sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2

    end_to_end, per_layer = declared_metrics()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for w in workloads:
        report = run_workload(w, args.seed, args.seconds, args.trace)
        attempted += report["attempted"]
        failed += report["failed"]
        report["error_rate"] = report["failed"] / report["attempted"]
        out = ROOT / ".bench_out" / "reports" / f"{w}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(report, indent=1))
        print(f"# {w}: {len(report['repetitions'])} repetitions, error_rate {report['error_rate']:.4f} "
              f"({report['failed']}/{report['attempted']}), environment {json.dumps(report['environment'])}, "
              f"source {json.dumps(report['source'])}; report {out.relative_to(ROOT)}")
        for p in report["problems"]:
            print(f"#   problem: {p.strip().splitlines()[-1]}")
        values, units = (report.get("per_layer", {}), per_layer) if args.trace else (report["end_to_end"], end_to_end)
        if not values:
            print(f"error: {w}: no repetition succeeded", file=sys.stderr)
            return 1
        if set(values) != set(units):
            print(f"error: {w}: measured {sorted(values)}, BENCHMARK.json declares {sorted(units)}", file=sys.stderr)
            return 1
        if args.trace:
            for k, v in report["end_to_end"].items():
                print(f"#   untraced {k} = {v:.6g} {end_to_end[k]}")
        prefix = f"{w}." if len(workloads) > 1 else ""
        for k, unit in units.items():
            metrics[prefix + k] = {"value": values[k], "unit": unit}
            print(f"{prefix}{k:<34} {values[k]:>14.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
