"""In-memory span tracing around the program's public entry points.

The traced run patches each layer's entry point (at the name through
which callers look it up) with a wrapper that records one span per
call: ``[span_id, parent_id, name, start, end, thread, request]``.
Spans stay in memory and are written out when the run ends.  Nothing
inside ``src/`` changes; the untraced runs never install a wrapper.

Self time is computed per thread: a span's duration minus the part of
it covered by its child spans on the same thread.  Pool tasks run on
other threads; their spans name the submitting span as parent but do
not reduce its self time, since the two overlap in wall time.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: span name -> layer (anything unlisted is its own layer)
LAYER_OF = {
    "sql.parse": "sql",
    "matview.rewrite": "matview",
    "planner.plan": "planner",
    "optimizer.optimize": "optimizer",
    "executor.run": "executor",
    "result.rows": "result",
    "qgen.generate": "qgen",
    "dsdgen.generate": "dsdgen",
    "colstore.save": "colstore",
    "colstore.open": "colstore",
    "colstore.hydrate": "colstore",
    "engine.execute": "engine",
    "pool.task": "pool",
    "pool.inline": "pool",
    "service.submit": "service",
    "maintenance.aux": "maintenance",
}


def layer_of(name: str) -> str:
    if name.startswith("maintenance."):
        return "maintenance"
    return LAYER_OF.get(name, name.split(".", 1)[0])


class Tracer:
    """Collects spans from every thread; installs and removes patches."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.pool_waits: list[float] = []
        #: service request id -> Session.submit to Database.execute
        self.queue_waits: dict[int, float] = {}
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._count_lock = threading.Lock()
        #: service requests: tagged SQL -> (request id, submit time)
        self.submitted: dict[str, tuple[int, float]] = {}

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple[int, int]:
        """``(span id, request id)`` of the innermost open span on this
        thread (``(0, 0)`` when none is open)."""
        stack = self._stack()
        return stack[-1] if stack else (0, 0)

    def new_request(self) -> int:
        return next(self._requests)

    @contextmanager
    def span(self, name: str, request: int = 0, parent: int = 0):
        stack = self._stack()
        top_id, top_request = stack[-1] if stack else (0, 0)
        span_id = next(self._ids)
        request = request or top_request
        record = [span_id, parent or top_id, name, time.perf_counter(), 0.0,
                  threading.get_ident(), request]
        stack.append((span_id, request))
        try:
            yield record
        finally:
            record[4] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def count(self, key: str, value: float = 1.0) -> None:
        with self._count_lock:
            self.counts[key] += value

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr: str, wrapper_factory) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a ``name`` span around every call of ``owner.attr``."""
        def factory(original):
            def traced(*args, **kwargs):
                with self.span(name):
                    return original(*args, **kwargs)
            return traced
        self.patch(owner, attr, factory)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def self_times(self, spans=None) -> dict[int, float]:
        """Span id -> self time (duration minus same-thread children)."""
        spans = self.spans if spans is None else spans
        by_id = {s[0]: s for s in spans}
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            parent = by_id.get(s[1])
            if parent is not None and parent[5] == s[5]:
                child_time[s[1]] += s[4] - s[3]
        return {s[0]: max(s[4] - s[3] - child_time[s[0]], 0.0)
                for s in spans}

    def layer_self(self, spans=None) -> dict[str, float]:
        """Self seconds per layer."""
        spans = self.spans if spans is None else spans
        own = self.self_times(spans)
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            out[layer_of(s[2])] += own[s[0]]
        return dict(out)

    def inclusive(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def export(self) -> list[dict]:
        return [
            {"id": s[0], "parent": s[1], "name": s[2], "start": s[3],
             "end": s[4], "thread": s[5], "request": s[6]}
            for s in sorted(self.spans, key=lambda s: s[3])
        ]


def install(tracer: Tracer) -> None:
    """Patch every layer entry point the benchmark traces."""
    from repro.dsdgen.generator import DsdGen
    from repro.engine import colstore, database
    from repro.engine.batch import Batch
    from repro.engine.catalog import Catalog
    from repro.engine.colstore import ColumnBacking
    from repro.engine.executor import Executor
    from repro.engine.optimizer import Optimizer
    from repro.engine.parallel import WorkerPool, in_worker
    from repro.engine.planner import Planner
    from repro.maintenance.operations import MaintenanceOperation
    from repro.qgen import QGen
    from repro.service.core import Session

    # database.py imports these two by name: patch them there
    tracer.wrap(database, "parse_statement", "sql.parse")

    def rewrite_factory(original):
        def traced(*args, **kwargs):
            with tracer.span("matview.rewrite"):
                rewritten = original(*args, **kwargs)
            tracer.count("matview.calls")
            tracer.count("matview.hits", rewritten is not None)
            return rewritten
        return traced

    tracer.patch(database, "try_rewrite", rewrite_factory)
    tracer.wrap(Planner, "plan_query", "planner.plan")
    tracer.wrap(Optimizer, "optimize", "optimizer.optimize")
    tracer.wrap(Batch, "rows", "result.rows")
    tracer.wrap(QGen, "generate", "qgen.generate")

    def dsdgen_factory(original):
        def traced(*args, **kwargs):
            with tracer.span("dsdgen.generate"):
                data = original(*args, **kwargs)
            tracer.count("dsdgen.rows", sum(data.row_counts.values()))
            return data
        return traced

    tracer.patch(DsdGen, "generate", dsdgen_factory)
    # Database.save / Database.open and the runner's store path all
    # import these at call time from the colstore module
    tracer.wrap(colstore, "save_database", "colstore.save")
    tracer.wrap(colstore, "open_database", "colstore.open")
    tracer.wrap(database.Database, "refresh_matviews", "maintenance.aux")
    tracer.wrap(Catalog, "rebuild_indexes", "maintenance.aux")

    def hydrate_factory(original):
        def traced(backing, *args, **kwargs):
            tracer.count("colstore.columns_hydrated")
            with tracer.span("colstore.hydrate"):
                return original(backing, *args, **kwargs)
        return traced

    tracer.patch(ColumnBacking, "load_numeric", hydrate_factory)
    tracer.patch(ColumnBacking, "load_str", hydrate_factory)

    def prune_factory(original):
        def traced(*args, **kwargs):
            kept, blocks, skipped = original(*args, **kwargs)
            tracer.count("colstore.blocks", blocks)
            tracer.count("colstore.blocks_skipped", skipped)
            return kept, blocks, skipped
        return traced

    from repro.engine import executor as executor_module
    tracer.patch(executor_module, "prune_scan", prune_factory)

    def executor_factory(original):
        local = threading.local()

        def traced(executor, node):
            # one span per outermost run() on a thread: operator
            # recursion stays inside it (operator times come from
            # EXPLAIN ANALYZE, not from per-node spans)
            if getattr(local, "depth", 0):
                return original(executor, node)
            local.depth = 1
            try:
                with tracer.span("executor.run"):
                    batch = original(executor, node)
            finally:
                local.depth = 0
            tracer._local.root_batch = batch
            return batch
        return traced

    tracer.patch(Executor, "run", executor_factory)

    def execute_factory(original):
        def traced(db, sql, *args, **kwargs):
            request = 0
            tagged = tracer.submitted.get(sql)
            if tagged is not None:
                # a service request reaching the engine: the gap since
                # Session.submit is its admission-queue wait
                request = tagged[0]
                with tracer._count_lock:
                    tracer.queue_waits[request] = (
                        time.perf_counter() - tagged[1])
            elif not tracer.current()[1]:
                request = tracer.new_request()
            with tracer.span("engine.execute", request=request):
                return original(db, sql, *args, **kwargs)
        return traced

    tracer.patch(database.Database, "execute", execute_factory)
    tracer.patch(database.Database, "explain_analyze_dict", execute_factory)

    def op_factory(original):
        def traced(operation, *args, **kwargs):
            with tracer.span(f"maintenance.{operation.name}"):
                return original(operation, *args, **kwargs)
        return traced

    tracer.patch(MaintenanceOperation, "execute", op_factory)

    def task(fn, parent, request, submitted, inline):
        def run(*args, **kwargs):
            start = time.perf_counter()
            if not inline:
                with tracer._count_lock:
                    tracer.pool_waits.append(start - submitted)
            name = "pool.inline" if inline else "pool.task"
            with tracer.span(name, request=request, parent=parent):
                return fn(*args, **kwargs)
        return run

    def submit_factory(original):
        def traced(pool, fn, *args, **kwargs):
            inline = in_worker()
            tracer.count("pool.tasks")
            tracer.count("pool.inline", inline)
            parent, request = tracer.current()
            return original(pool, task(fn, parent, request,
                                       time.perf_counter(), inline),
                            *args, **kwargs)
        return traced

    def map_factory(original):
        def traced(pool, fn, items, *args, **kwargs):
            items = list(items)
            inline = len(items) == 1 or pool.workers == 1 or in_worker()
            tracer.count("pool.tasks", len(items))
            tracer.count("pool.inline", len(items) if inline else 0)
            parent, request = tracer.current()
            return original(pool, task(fn, parent, request,
                                       time.perf_counter(), inline),
                            items, *args, **kwargs)
        return traced

    tracer.patch(WorkerPool, "submit", submit_factory)
    tracer.patch(WorkerPool, "map_morsels", map_factory)

    def session_factory(original):
        def traced(session, sql, *args, **kwargs):
            request = tracer.new_request()
            tracer.submitted[sql] = (request, time.perf_counter())
            with tracer.span("service.submit", request=request):
                return original(session, sql, *args, **kwargs)
        return traced

    tracer.patch(Session, "submit", session_factory)


def take_root_batch(tracer: Tracer):
    """The batch the last outermost ``Executor.run`` on this thread
    returned (the statement's answer under EXPLAIN ANALYZE)."""
    batch = getattr(tracer._local, "root_batch", None)
    tracer._local.root_batch = None
    return batch
