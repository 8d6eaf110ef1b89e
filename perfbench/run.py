#!/usr/bin/env python3
"""kosrank benchmark: end-to-end stage times and traced per-layer times.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N            # every workload, one after another

Run from the root of a kosrank source tree.  The inputs are generated from
--seed by the package's own generator (the set-up), then a worker process
runs the timed stages in a closed loop: one caller, each stage started when
the previous one returns, repeated until --seconds have passed.  The outputs
are checked after the run.  Every metric is printed as `name value unit`;
for a single workload the last line is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 1 reports the per-layer
metrics of BENCHMARK.json instead of the end-to-end ones.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
EXPECTED = HERE / "expected.json"

FIRST_MONTH = "2014-01"
# monthly-default drives the CLI on generated files; kernels-1m calls the
# library on the scale scenario (see worker.KERNEL_SCENARIO).  A run of
# kernels-1m takes about 55 s, 17 s of it generating, so its set-up runs once.
WORKLOADS = {
    "monthly-default": {"months": 24, "articles_per_month": 5000, "setup_runs": 3},
    "kernels-1m": {},
}
RANK_STAGES = ("fuse", "trend", "export-plots")
# Untraced stage times of a --trace 1 run, so that its layer times can be
# read against them; ingest, rank and evaluate alone vary too much between
# runs on a shared 2-core machine to carry an end-to-end bound.
STAGE_LAYERS = {"stage.ingest_s": ("ingest",), "stage.compute_s": ("compute",),
                "stage.rank_s": RANK_STAGES, "stage.evaluate_s": ("evaluate",),
                "stage.pipeline_s": ("pipeline",)}
# Operations per check; the others count one.
CHECK_OPS = {"invariants": 4}
SUBPROCESS_TIMEOUT_S = 900


class BenchError(RuntimeError):
    pass


def month_range(first: str, count: int) -> list[str]:
    year, month = map(int, first.split("-"))
    start = year * 12 + month - 1
    return [f"{i // 12:04d}-{i % 12 + 1:02d}" for i in range(start, start + count)]


def child_env() -> dict[str, str]:
    """One numeric thread per process, so load comes from the stated threads only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(),
                          timeout=SUBPROCESS_TIMEOUT_S, cwd=ROOT)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return proc


def worker(mode: str, args, work: Path, extra: list[str]) -> dict:
    out = work / "worker.json"
    proc = run_child([
        sys.executable, str(HERE / "worker.py"), mode, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spans", str(work / "spans.tsv"), "--out", str(out), *extra,
    ])
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"worker {mode} exited with {proc.returncode}")
    return json.loads(out.read_text())


def write_config(work: Path, seed: int, months: list[str]) -> Path:
    inputs = work / "inputs"
    cfg = work / "kosrank.cfg"
    cfg.write_text("\n".join([
        f'hierarchy = "{inputs / "hierarchy.tsv"}"',
        f'articles = "{inputs / "articles.jsonl"}"',
        f'citations = "{inputs / "citations.tsv"}"',
        f'changes = "{inputs / "changes.tsv"}"',
        f'first_month = "{months[0]}"',
        f'last_month = "{months[-1]}"',
        "sample_fraction = 0.1",
        f"base_seed = {seed}",
        f'output_dir = "{work / "out"}"',
    ]) + "\n")
    return cfg


def run_chain(spec: dict, args, work: Path, expected: dict) -> dict:
    months = month_range(FIRST_MONTH, spec["months"])
    cfg = write_config(work, args.seed, months)
    generate = [sys.executable, "-m", "kosrank", "generate", "--months", str(spec["months"]),
                "--articles-per-month", str(spec["articles_per_month"]), "--config", str(cfg)]
    setup_times, counts = [], []
    for _ in range(spec["setup_runs"]):
        start = perf_counter()
        proc = run_child(generate)
        setup_times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed with exit code {proc.returncode}")
        counts.append(checks.parse_generated(proc.stdout))
    result = worker("chain", args, work, ["--config", str(cfg)])
    result["setup_s"] = statistics.median(setup_times)

    recorded = expected["seeds"].get(str(args.seed))
    problems = checks.input_problems(counts[0], expected["inputs"], recorded)
    if any(c != counts[0] for c in counts):
        problems.append("set-up runs generated different inputs")
    result["checks"] = {"inputs": problems}

    # Output check: the recorded digest for this seed, else the invariants.
    out = work / "out"
    if recorded:
        try:
            digest = checks.output_digest(out, months)
        except (OSError, ValueError) as exc:
            digest = f"none, outputs unreadable: {exc}"
        result["checks"]["digest"] = [] if digest == recorded["digest"] else [
            f"output digest {digest} differs from {recorded['digest']} in expected.json"
        ]
    else:
        try:
            invariants = checks.output_invariants(out, months)
        except (OSError, ValueError, KeyError) as exc:
            invariants = [f"outputs unreadable: {exc}"] * CHECK_OPS["invariants"]
        result["checks"]["invariants"] = invariants
    return result


def run_kernels(args, work: Path, expected: dict) -> dict:
    result = worker("kernels", args, work, [])
    recorded = expected["seeds"].get(str(args.seed))
    result["checks"] = {"inputs": checks.input_problems(result["inputs"], expected["inputs"],
                                                        recorded)}
    return result


def metrics_of(result: dict, units: dict[str, str], trace: bool) -> dict[str, float]:
    passes = result["passes"]
    if not passes:
        raise BenchError("no timed pass completed")

    def median_of(*stages: str) -> float:
        return statistics.median(sum(p.get(s, 0.0) for s in stages) for p in passes)

    if trace:
        layers = dict(result.get("layers") or {})
        if result.get("traced"):
            layers["trace.overhead_s"] = result["traced"]["pipeline"] - median_of("pipeline")
        layers.update({name: median_of(*stages) for name, stages in STAGE_LAYERS.items()})
        return {name: layers.get(name, 0) for name in units}
    values = {
        "setup_s": result["setup_s"],
        "compute_s": median_of("compute"),
        "pipeline_s": median_of("pipeline"),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_op_ratio": (result["attempted"] - result["failed"]) / result["attempted"],
    }
    return {name: values[name] for name in units}


def run_workload(name: str, args, bench: dict, expected_all: dict) -> dict:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    expected = expected_all[name]
    spec = WORKLOADS[name]
    result = (run_chain(spec, args, work, expected) if spec
              else run_kernels(args, work, expected))
    for check, problems in result["checks"].items():
        ops = CHECK_OPS.get(check, 1)
        result["attempted"] += ops
        result["failed"] += min(len(problems), ops)
        for problem in problems:
            print(f"{name}: {check} check failed: {problem}", file=sys.stderr)
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[key]}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics_of(result, units, bool(args.trace)).items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kosrank" / "__init__.py").is_file():
        print(f"error: no kosrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected_all = json.loads(EXPECTED.read_text())
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args, bench, expected_all)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:<16} {metric:<44} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:<16} correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
    if args.workload:
        print(json.dumps(results[args.workload]))
        return 0
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
