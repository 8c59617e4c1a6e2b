"""Span bookkeeping: per-thread self time, pool-task links, and the
EXPLAIN ANALYZE operator fold."""

from __future__ import annotations

import threading

from tracing import Tracer
from workloads import operator_self


def test_self_time_subtracts_only_same_thread_children():
    tracer = Tracer()
    # parent 0..10 on thread 1; child 2..5 on thread 1; a linked pool
    # task 1..9 on thread 2 overlaps but must not reduce the parent
    tracer.spans = [
        [1, 0, "engine.execute", 0.0, 10.0, 1, 7],
        [2, 1, "sql.parse", 2.0, 5.0, 1, 7],
        [3, 1, "pool.task", 1.0, 9.0, 2, 7],
        [4, 3, "executor.run", 1.0, 8.0, 2, 7],
    ]
    own = tracer.self_times()
    assert own == {1: 7.0, 2: 3.0, 3: 1.0, 4: 7.0}
    assert tracer.layer_self() == {"engine": 7.0, "sql": 3.0, "pool": 1.0,
                                   "executor": 7.0}


def test_span_parent_and_request_follow_the_thread_stack():
    tracer = Tracer()
    seen = {}
    with tracer.span("driver.statement", request=5) as outer:
        with tracer.span("sql.parse") as inner:
            pass

        def worker():
            with tracer.span("pool.task", parent=outer[0]) as task:
                seen["task"] = task

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive()
    assert inner[1] == outer[0] and inner[6] == 5
    assert seen["task"][1] == outer[0]
    assert seen["task"][5] != outer[5]


def test_operator_fold_charges_a_memoized_cte_once_and_clamps():
    cte = {"label": "Scan(store_sales as ss)",
           "stats": {"rows": 10, "elapsed": 0.4, "invocations": 1,
                     "memo_hits": 1}}
    plan = {
        "label": "HashJoin[inner] keys=1",
        "stats": {"rows": 5, "elapsed": 1.0, "invocations": 1,
                  "build_rows": 10, "probe_rows": 10},
        "children": [
            # the reference that ran the CTE body
            {"label": "Rename(a)",
             "stats": {"rows": 10, "elapsed": 0.45, "invocations": 1},
             "children": [cte]},
            # the memo-hit reference: its own time is tiny
            {"label": "Rename(b)",
             "stats": {"rows": 10, "elapsed": 0.01, "invocations": 1},
             "children": [cte]},
        ],
    }
    acc = {}
    operator_self(plan, acc)
    assert abs(acc["Scan"]["self_s"] - 0.4) < 1e-9
    assert abs(acc["Rename"]["self_s"] - 0.06) < 1e-9
    assert abs(acc["HashJoin"]["self_s"] - 0.54) < 1e-9
    total = sum(slot["self_s"] for slot in acc.values())
    assert abs(total - 1.0) < 1e-9
    assert acc["HashJoin"]["build_rows"] == 10
