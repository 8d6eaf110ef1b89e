"""Self-time arithmetic and attribute restoration of the benchmark's tracer.

Run with `python3 -m pytest perfbench/tests`.
"""
import sys
import threading
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Span, Tracer, layer_totals, self_times, span_cost  # noqa: E402


def span(sid, name, start, end, parent=None):
    return Span(sid, name, start, end, parent, 0)


def test_leaf_self_time_is_its_duration():
    assert self_times([span(0, "a", 1.0, 3.5)]) == {0: 2.5}


def test_nested_children_are_subtracted():
    spans = [
        span(0, "outer", 0.0, 10.0),
        span(1, "mid", 1.0, 6.0, parent=0),
        span(2, "leaf", 2.0, 3.0, parent=1),
        span(3, "leaf", 7.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx({0: 3.0, 1: 4.0, 2: 1.0, 3: 2.0})


def test_overlapping_children_count_once():
    # Two worker threads under one parent: [1, 4] and [2, 6] cover [1, 6].
    spans = [
        span(0, "compute", 0.0, 10.0),
        span(1, "month", 1.0, 4.0, parent=0),
        span(2, "month", 2.0, 6.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_children_are_clipped_to_the_parent():
    spans = [
        span(0, "p", 2.0, 8.0),
        span(1, "c", 1.0, 3.0, parent=0),
        span(2, "c", 7.0, 12.0, parent=0),
        span(3, "c", 9.0, 11.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_layer_totals_sum_calls_and_self_time():
    spans = [
        span(0, "outer", 0.0, 10.0),
        span(1, "leaf", 1.0, 2.0, parent=0),
        span(2, "leaf", 3.0, 5.0, parent=0),
    ]
    totals = layer_totals(spans)
    assert totals["outer"] == (1, pytest.approx(7.0))
    assert totals["leaf"] == (2, pytest.approx(3.0))


def test_child_cost_is_taken_once_per_direct_child():
    spans = [
        span(0, "outer", 0.0, 10.0),
        span(1, "mid", 1.0, 6.0, parent=0),
        span(2, "leaf", 2.0, 3.0, parent=1),
        span(3, "leaf", 3.5, 4.0, parent=1),
        span(4, "leaf", 4.0, 4.1, parent=1),
    ]
    totals = layer_totals(spans, child_cost=0.5)
    assert totals["outer"] == (1, pytest.approx(5.0 - 0.5))
    assert totals["mid"] == (1, pytest.approx(3.4 - 1.5))
    assert totals["leaf"] == (3, pytest.approx(1.6))


def test_child_cost_never_makes_self_time_negative():
    spans = [span(0, "p", 0.0, 1.0), span(1, "c", 0.0, 0.9, parent=0)]
    assert layer_totals(spans, child_cost=0.5)["p"] == (1, 0.0)


def test_span_cost_is_a_small_positive_time():
    assert 0.0 < span_cost(calls=2_000, repeats=3) < 1e-3


def test_install_wraps_every_holder_and_uninstall_restores(monkeypatch):
    def work(x):
        return x * 2 + 1

    lib = types.ModuleType("kosrank_fake_lib")
    lib.work = work
    user = types.ModuleType("kosrank_fake_user")
    user.work = work  # as `from .lib import work` would leave it
    monkeypatch.setitem(sys.modules, lib.__name__, lib)
    monkeypatch.setitem(sys.modules, user.__name__, user)

    tracer = Tracer()
    assert tracer.install("lib.work", lib, "work", lambda r: {"value": r})
    assert not tracer.install("lib.missing", lib, "missing")
    assert lib.work is not work and user.work is lib.work
    assert user.work(3) == 7
    assert tracer.uninstall()
    assert lib.work is work and user.work is work
    assert [s.name for s in tracer.spans] == ["lib.work"]
    assert tracer.counts == {"lib.work.value": 7}


def test_worker_thread_spans_are_parented_to_the_blocked_caller():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: None)

    def fan_out():
        threads = [threading.Thread(target=leaf) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)

    tracer.wrap("root", fan_out)()
    root = next(s for s in tracer.spans if s.name == "root")
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 2 and all(s.parent == root.id for s in leaves)
