"""The library names that the benchmark's kernel worker calls, on a small scenario.

`perfbench/worker.py` runs the 1M-node kernel path through the library; here
its `kernel_pass` runs on 1,200 articles, once with the worker's own oracles
and once traced, so that a name it calls cannot leave `src/` unnoticed.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

# Every kosrank module the worker imports, loaded here first so that it
# shares them and restoring `sys.modules` drops only what it adds itself.
from kosrank import citegraph, cli, graphmetrics, propagation, synthgen  # noqa: F401

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
SCENARIO = synthgen.ScenarioConfig(
    seed=42, months=3, articles_per_month=400, hierarchy_branching=(8, 6, 4),
    refs_mean=5.8, pa_exponent=0.5,
)


@pytest.fixture(scope="module")
def worker():
    """The worker module, with `sys.path` and `sys.modules` restored after."""
    path, modules = list(sys.path), set(sys.modules)
    spec = importlib.util.spec_from_file_location("benchmark_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)  # prepends perfbench/ and src/ to sys.path
        yield module
    finally:
        sys.path[:] = path
        for name in set(sys.modules) - modules:
            del sys.modules[name]


@pytest.fixture(scope="module")
def scenario():
    h, store, edges, _ = synthgen.generate(SCENARIO)
    return h, store, edges, store.months()[-1]


def test_untraced_pass_meets_its_oracles(worker, scenario):
    result = worker.kernel_pass(*scenario, seed=42, spans_path=None)
    assert result["failed"] == 0
    assert result["attempted"] == worker.KERNEL_STEPS + worker.KERNEL_ORACLES


def test_traced_pass_counts_each_snapshot_node(worker, scenario, tmp_path):
    h, store, edges, month = scenario
    result = worker.kernel_pass(*scenario, seed=42, spans_path=str(tmp_path / "spans.tsv"))
    snapshot = citegraph.cumulative_snapshot(citegraph.build_graph(edges, store), store, month)
    assert result["failed"] == 0
    assert result["layers"]["hierarchy.treenodes_of.calls"] == snapshot.num_nodes > 0
