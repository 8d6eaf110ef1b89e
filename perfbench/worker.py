"""Timed part of a benchmark run, in a process of its own.

    worker.py chain   --config CFG --seconds S --trace 0|1 --out RESULT.json
    worker.py kernels --seed N --seconds S --trace 0|1 --out RESULT.json

`chain` runs the CLI stages ingest, compute, fuse, trend, evaluate and
export-plots in this process, one after another, through `kosrank.cli.main`.
`kernels` generates the 1M-node scenario, then forks one child per timed
pass so that the generator's own memory stays out of the child's peak RSS;
the child runs the kernel path through the library and checks it against
oracles written here.  With --trace 1 one pass runs with every public
function listed in LAYERS wrapped by a `spans.Tracer`.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from kosrank import citegraph, cli, graphmetrics, propagation, synthgen  # noqa: E402
from spans import Tracer, layer_totals, span_cost  # noqa: E402

# module -> public functions traced in the per-layer run ("Class.method" for methods)
LAYERS = {
    "corpus": ["parse_articles"],
    "hierarchy": ["parse_hierarchy", "Hierarchy.treenodes_of"],
    "citegraph": ["parse_citations", "build_graph", "cumulative_snapshot", "sample_nodes"],
    "graphmetrics": ["pagerank", "disruption_all", "aggregate_to_nodes"],
    "propagation": ["propagate"],
    "infometrics": ["mapping_counts", "informativeness", "build_mapping_matrix", "usefulness"],
    "scores": ["write_scores_csv", "read_scores_csv"],
    "fusion": ["rank_by_aspect", "rrf_fuse", "per_level_ranking", "mean_ranks"],
    "evaluate": [
        "retraction_cohorts", "descriptor_scores", "mann_whitney", "aspect_correlation",
        "evolution_cohorts",
    ],
    "pipeline": ["ingest", "compute", "compute_month", "fuse", "trend", "run_evaluate"],
}
# Work counts recorded from return values, beside calls and self time.
COUNTERS = {
    "citegraph.cumulative_snapshot": lambda g: {"edges": g.num_edges},
    "citegraph.sample_nodes": lambda g: {"nodes": g.num_nodes, "edges": g.num_edges},
    "graphmetrics.pagerank": lambda r: {"unconverged": int(not r.converged)},
    "graphmetrics.disruption_all": lambda r: {"nodes": len(r.values)},
}
CHAIN = ["ingest", "compute", "fuse", "trend", "evaluate", "export-plots"]

# The scale scenario of scripts/scale_smoke.py: 10 months x 100,000 articles.
KERNEL_SCENARIO = dict(
    months=10,
    articles_per_month=100_000,
    hierarchy_branching=(8, 6, 4),
    descriptors_per_article_mean=2.0,
    refs_mean=5.8,
    pa_exponent=0.5,
    retraction_rate=0.0005,
)
KERNEL_STEPS = 9  # build, snapshot, pagerank, disruption, codes, aggregate x2, propagate x2
KERNEL_ORACLES = 4  # converged, fixed-point residual, disruption sample, value range
DISRUPTION_SAMPLE = 200


def layer_names() -> list[str]:
    return [f"{mod}.{fn.split('.')[-1]}" for mod, fns in LAYERS.items() for fn in fns]


def install_tracer() -> Tracer:
    tracer = Tracer()
    for mod, fns in LAYERS.items():
        for fn in fns:
            owner = importlib.import_module(f"kosrank.{mod}")
            *cls, attr = fn.split(".")
            if cls:
                owner = getattr(owner, cls[0], None)
            name = f"{mod}.{attr}"
            if owner is not None:
                tracer.install(name, owner, attr, COUNTERS.get(name))
    return tracer


def finish_trace(tracer: Tracer, spans_path: str) -> tuple[dict, int]:
    """Per-layer metrics from the spans; second value counts failed restores."""
    restored = tracer.uninstall()
    cost = span_cost()
    spans = tracer.spans
    totals = layer_totals(spans, cost)
    layers: dict[str, float] = {}
    for name in layer_names():
        calls, self_s = totals.get(name, (0, 0.0))
        layers[f"{name}.calls"] = calls
        layers[f"{name}.self_s"] = self_s
    layers.update(tracer.counts)
    layers["trace.spans"] = len(spans)
    layers["trace.span_cost_us"] = cost * 1e6
    tracer.write(spans_path)
    return layers, 0 if restored else 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_stage(argv: list[str]) -> bool:
    """One CLI call; any exception or non-zero exit is a failed operation."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv) == 0
    except Exception:  # noqa: BLE001 - the benchmark counts the failure and goes on
        traceback.print_exc()
        return False


def chain_pass(argv: dict[str, list[str]], tracer: Tracer | None) -> tuple[dict, int]:
    """One closed-loop pass over the CLI stages; returns (seconds, failed stages)."""
    times = {}
    failed = 0
    chain_start = perf_counter()
    for run_id, stage in enumerate(CHAIN):
        if tracer:
            tracer.run = run_id
        start = perf_counter()
        failed += not run_stage(argv[stage])
        times[stage] = perf_counter() - start
    times["pipeline"] = perf_counter() - chain_start
    return times, failed


def chain(args) -> dict:
    argv = {stage: [stage, "--config", args.config] for stage in CHAIN}
    argv["compute"] += ["--threads", "1"]
    result = {"passes": [], "attempted": 0, "failed": 0}
    began = perf_counter()
    while not result["passes"] or perf_counter() - began < args.seconds:
        times, failed = chain_pass(argv, None)
        result["passes"].append(times)
        result["attempted"] += len(CHAIN)
        result["failed"] += failed
    result["peak_rss_mb"] = peak_rss_mb()
    if args.trace:
        tracer = install_tracer()
        result["traced"], failed = chain_pass(argv, tracer)
        result["layers"], restore_failed = finish_trace(tracer, args.spans)
        result["attempted"] += len(CHAIN) + 1
        result["failed"] += failed + restore_failed
    return result


def kernel_path(h, store, edges, month: str) -> tuple[dict, dict, int]:
    """The scale path; returns (objects, stage seconds, failed steps)."""
    out: dict = {}
    steps = [
        ("graph", lambda: citegraph.build_graph(edges, store)),
        ("snapshot", lambda: citegraph.cumulative_snapshot(out["graph"], store, month)),
        ("pagerank", lambda: graphmetrics.pagerank(out["snapshot"])),
        ("disruption", lambda: graphmetrics.disruption_all(out["snapshot"])),
        ("codes", lambda: article_codes(h, store, out["snapshot"].node_ids)),
        ("seeds_pr", lambda: graphmetrics.aggregate_to_nodes(out["pagerank"], out["codes"])),
        ("seeds_dis", lambda: graphmetrics.aggregate_to_nodes(out["disruption"], out["codes"])),
        ("prop_pr", lambda: propagation.propagate(h, out["seeds_pr"])),
        ("prop_dis", lambda: propagation.propagate(h, out["seeds_dis"])),
    ]
    failed = 0
    start = perf_counter()
    built = None
    for done, (key, step) in enumerate(steps):
        try:
            out[key] = step()
        except Exception:  # noqa: BLE001 - counted; later steps need this result
            traceback.print_exc()
            failed = len(steps) - done
            break
        if key == "graph":
            built = perf_counter()
    end = perf_counter()
    # build_graph is the ingest work at this scale; the rest is compute_month's.
    built = end if built is None else built
    return out, {"ingest": built - start, "compute": end - built, "pipeline": end - start}, failed


def article_codes(h, store, ids) -> dict[int, tuple[str, ...]]:
    mapping = {}
    for raw in ids:
        article_id = int(raw)
        codes, _ = h.treenodes_of(store.articles[article_id].descriptors)
        if codes:
            mapping[article_id] = tuple(sorted(codes))
    return mapping


def kernel_oracles(out: dict, seed: int) -> list[str]:
    """Independent checks of the kernel results; returns the failures."""
    failures = []
    snap, pr, dis = out["snapshot"], out["pagerank"], out["disruption"]
    n = snap.num_nodes
    if not pr.converged:
        failures.append("pagerank did not converge")
    # Fixed point x = alpha * sum_{j cites i} x_j / outdeg(j) + (1 - alpha).
    alpha, tol = 0.85, 1e-9
    x = np.fromiter((pr.values[int(i)] for i in snap.node_ids), dtype=np.float64, count=n)
    citing, cited = snap.edge_arrays()
    src = np.searchsorted(snap.node_ids, citing)
    dst = np.searchsorted(snap.node_ids, cited)
    outdeg = np.bincount(src, minlength=n)
    flow = np.bincount(dst, weights=x[src] / outdeg[src], minlength=n)
    residual = float(np.abs(alpha * flow + (1.0 - alpha) - x).sum())
    if not residual <= tol:
        failures.append(f"pagerank fixed-point residual {residual:.3g} > {tol}")
    rng = np.random.default_rng(seed)
    for focal in rng.choice(snap.node_ids, size=min(DISRUPTION_SAMPLE, n), replace=False):
        expected = graphmetrics.disruption_of(snap, int(focal))
        if not math.isclose(dis.values[int(focal)], expected, rel_tol=0.0, abs_tol=1e-12):
            failures.append(f"disruption of {int(focal)}: {dis.values[int(focal)]} != {expected}")
            break
    values = np.fromiter(dis.values.values(), dtype=np.float64, count=len(dis.values))
    if len(values) != n or not bool(np.all((values >= -1.0) & (values <= 1.0))):
        failures.append("disruption values outside [-1, 1] or missing")
    return failures



def kernel_pass(h, store, edges, month: str, seed: int, spans_path: str | None) -> dict:
    """One pass in a forked child: oracles when untraced, layers when traced."""
    tracer = install_tracer() if spans_path else None
    out, times, failed = kernel_path(h, store, edges, month)
    result = {"times": times, "peak_rss_mb": peak_rss_mb(), "attempted": KERNEL_STEPS,
              "failed": failed}
    if tracer:
        result["layers"], restore_failed = finish_trace(tracer, spans_path)
        result["attempted"] += 1
        result["failed"] += restore_failed
        return result
    result["attempted"] += KERNEL_ORACLES
    if failed:
        result["failed"] += KERNEL_ORACLES
        return result
    problems = kernel_oracles(out, seed)
    for problem in problems:
        print(f"kernel check failed: {problem}", file=sys.stderr)
    result["failed"] += len(problems)
    return result


def in_child(fn, result_path: Path) -> dict:
    """Run fn() in a forked child and return the dict it wrote."""
    if threading.active_count() != 1:
        raise RuntimeError("refusing to fork a process that has threads")
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            result_path.write_text(json.dumps(fn()))
            code = 0
        except Exception:  # noqa: BLE001 - reported by the parent as a failed pass
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not result_path.exists():
        return {"attempted": 1, "failed": 1}
    data = json.loads(result_path.read_text())
    result_path.unlink()
    return data


def kernels(args) -> dict:
    cfg = synthgen.ScenarioConfig(seed=args.seed, **KERNEL_SCENARIO)
    start = perf_counter()
    h, store, edges, changes = synthgen.generate(cfg)
    setup_s = perf_counter() - start
    month = store.months()[-1]
    gc.collect()
    gc.freeze()  # keeps the collector from touching, and so copying, the parent's objects
    child_out = Path(args.out).with_suffix(".child.json")

    def forked(spans_path):
        return in_child(
            lambda: kernel_pass(h, store, edges, month, args.seed, spans_path), child_out
        )

    parts = []
    began = perf_counter()
    while not parts or perf_counter() - began < args.seconds:
        parts.append(forked(None))
    result = {
        "setup_s": setup_s,
        "inputs": {"articles": len(store), "edges": int(len(edges[0])),
                   "nodes": len(h.nodes), "changes": len(changes)},
        "passes": [p["times"] for p in parts if "times" in p],
        "peak_rss_mb": max(p.get("peak_rss_mb", 0.0) for p in parts),
    }
    if args.trace:
        traced = forked(args.spans)
        parts.append(traced)
        result["traced"] = traced.get("times")
        result["layers"] = traced.get("layers")
    result["attempted"] = sum(p["attempted"] for p in parts)
    result["failed"] = sum(p["failed"] for p in parts)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["chain", "kernels"])
    parser.add_argument("--config")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", help="where a traced pass writes its spans")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = chain(args) if args.mode == "chain" else kernels(args)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
