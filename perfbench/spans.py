"""In-memory span tracing of kosrank's public functions, from outside the package.

`Tracer.install` replaces each named function with a wrapper in every loaded
`kosrank` module that holds it (so `from .corpus import parse_articles` in
`pipeline` is wrapped too) and `Tracer.uninstall` puts the originals back.
A span is (id, name, start, end, parent id, run id); each thread keeps its
own stack of open spans, and a span opened on a worker thread with an empty
stack is parented to the innermost open span of the thread that installed
the tracer, which is the caller blocked on that worker.  `span_cost`
measures what one traced call costs its caller, and `layer_totals` takes
that off each parent's self time.
"""
from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int


Counter = Callable[[object], dict[str, int]]


class Tracer:
    def __init__(self) -> None:
        self._records: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.run = 0
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _main_top(self) -> int | None:
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    @property
    def spans(self) -> list[Span]:
        return [Span(*record) for record in self._records]

    def wrap(self, name: str, fn: Callable, counter: Counter | None = None) -> Callable:
        # Records are plain tuples of atoms, which the garbage collector stops
        # tracking after their first collection; a million Span objects would
        # stay tracked and make every full collection slower.
        append, stacks, ids = self._records.append, self._stacks, self._ids
        get_ident, main_top = threading.get_ident, self._main_top

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stacks.setdefault(get_ident(), [])
            parent = stack[-1] if stack else main_top()
            sid = next(ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                append((sid, name, start, end, parent, self.run))
            if counter is not None:
                increments = counter(result)
                with self._lock:
                    for key, value in increments.items():
                        self.counts[f"{name}.{key}"] += value
            return result

        return traced

    def install(self, name: str, owner: object, attr: str, counter: Counter | None = None) -> bool:
        """Wrap `owner.attr` wherever a kosrank module holds that object.

        Returns False, wrapping nothing, when the attribute does not exist.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return False
        wrapped = self.wrap(name, original, counter)
        holders = [owner] + [
            mod for key, mod in list(sys.modules.items())
            if key.startswith("kosrank") and mod is not owner
        ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patched.append((holder, key, original))
                    setattr(holder, key, wrapped)
        return True

    def uninstall(self) -> bool:
        """Restore every wrapped attribute; True when all are the originals again."""
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        restored = all(vars(h)[k] is o for h, k, o in self._patched)
        self._patched.clear()
        return restored

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\trun\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                fh.write(f"{s.id}\t{s.name}\t{s.start!r}\t{s.end!r}\t{parent}\t{s.run}\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap one another (worker threads) or run past the
    parent's end; only the union of their intervals inside the parent counts.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    result: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(s.id, ())):
            lo, hi = max(start, reach), min(end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[s.id] = (s.end - s.start) - covered
    return result


def layer_totals(spans: list[Span], child_cost: float = 0.0) -> dict[str, tuple[int, float]]:
    """name -> (calls, summed self time in seconds).

    `child_cost` (see `span_cost`) is taken off a span's self time once per
    direct child, so that the wrapper's own bookkeeping around each child is
    not counted as the parent's work; a span's self time stays at least 0.
    """
    own = self_times(spans)
    children: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += 1
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for s in spans:
        entry = totals[s.name]
        entry[0] += 1
        entry[1] += max(own[s.id] - child_cost * children[s.id], 0.0)
    return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}


def span_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds that one traced call adds to its caller's self time.

    The wrapper does part of its work before its span starts and after it
    ends, and the caller's self time takes that part.  It is measured as a
    traced parent that makes `calls` traced no-op calls, against the same
    loop making untraced calls; the result is the median of `repeats`.
    """
    def noop():
        return None

    def loop(fn):
        for _ in range(calls):
            fn()

    costs = []
    for _ in range(repeats):
        tracer = Tracer()
        tracer.wrap("loop", loop)(tracer.wrap("noop", noop))
        traced = layer_totals(tracer.spans)["loop"][1]
        start = perf_counter()
        loop(noop)
        bare = perf_counter() - start
        costs.append((traced - bare) / calls)
    return max(statistics.median(costs), 0.0)
