"""An injected slowdown in one layer is charged to that layer alone.

Each case wraps one layer's entry point with a fixed sleep, runs the
same traced statements as the ``power`` workload's traced pass, and
compares the per-layer self times with an undelayed traced run.
"""

from __future__ import annotations

import time

import pytest

from tracing import Tracer
from workloads import operator_totals, traced, traced_pass

DELAY_S = 0.03
STATEMENTS = 24
#: each breakdown is the per-layer minimum over this many traced runs,
#: which keeps the host's speed swings out of the comparison
REPEATS = 2


@pytest.fixture(scope="module")
def env():
    from repro.runner.execution import BenchmarkConfig, BenchmarkRun

    run = BenchmarkRun(BenchmarkConfig(scale_factor=0.004, workers=1))
    run.load_test()
    statements = [
        (str(query.template_id), index, sql)
        for query in run.qgen.generate_stream(0)
        for index, sql in enumerate(query.statements)
    ][:STATEMENTS]
    return run.db, statements


def traced_once(db, statements):
    tracer = Tracer()
    with traced(tracer):
        _, answers, plans, _ = traced_pass(db, statements, tracer)
    assert not any(isinstance(a, Exception) for a in answers)
    counts: dict[str, int] = {}
    for span in tracer.spans:
        counts[span[2]] = counts.get(span[2], 0) + 1
    layers = tracer.layer_self()
    for kind, slot in operator_totals(plans).items():
        layers[f"op.{kind}"] = slot["self_s"]
    return layers, counts


def breakdown(db, statements):
    """(fastest self seconds per layer, span counts by name)."""
    runs = [traced_once(db, statements) for _ in range(REPEATS)]
    layers = {name: min(run[0].get(name, 0.0) for run in runs)
              for name in set().union(*(run[0] for run in runs))}
    return layers, runs[0][1]


def entry_points():
    from repro.engine import database
    from repro.engine.batch import Batch
    from repro.engine.optimizer import Optimizer
    from repro.engine.planner import Planner

    return {
        "sql": (database, "parse_statement", "sql.parse"),
        "planner": (Planner, "plan_query", "planner.plan"),
        "optimizer": (Optimizer, "optimize", "optimizer.optimize"),
        "result": (Batch, "rows", "result.rows"),
    }


@pytest.mark.parametrize("layer", ["sql", "planner", "optimizer", "result"])
def test_injected_delay_is_charged_to_its_layer(env, layer, monkeypatch):
    db, statements = env
    breakdown(db, statements)  # warm-up
    base, _ = breakdown(db, statements)
    owner, attr, span_name = entry_points()[layer]
    original = getattr(owner, attr)

    def slow(*args, **kwargs):
        time.sleep(DELAY_S)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, slow)
    delayed, counts = breakdown(db, statements)
    injected = counts[span_name] * DELAY_S
    assert injected > 0
    moved = delayed[layer] - base[layer]
    assert 0.9 * injected <= moved <= 1.5 * injected, (layer, moved, injected)
    assert_only_moved(base, delayed, layer, injected)


def assert_only_moved(base, delayed, moved_key, injected):
    for other in set(base) | set(delayed):
        if other == moved_key or (
                moved_key.startswith("op.") and other == "executor"):
            continue
        change = delayed.get(other, 0.0) - base.get(other, 0.0)
        assert abs(change) <= 0.2 * injected, (other, change, injected)


def test_injected_operator_delay_is_charged_to_its_kind(env, monkeypatch):
    """A slower Sort kernel shows up as Sort self time (and executor
    time), not under its child operators or any other layer."""
    from repro.engine.executor import Executor

    db, statements = env
    breakdown(db, statements)  # warm-up
    base, _ = breakdown(db, statements)
    original = Executor._sort
    calls = []

    def slow_sort(self, node):
        calls.append(1)
        time.sleep(DELAY_S)
        return original(self, node)

    monkeypatch.setattr(Executor, "_sort", slow_sort)
    calls.clear()
    delayed, _ = breakdown(db, statements)
    injected = len(calls) / REPEATS * DELAY_S
    assert injected > 0
    moved = delayed["op.Sort"] - base["op.Sort"]
    assert 0.9 * injected <= moved <= 1.5 * injected, (moved, injected)
    executor_moved = delayed["executor"] - base["executor"]
    assert 0.9 * injected <= executor_moved <= 1.5 * injected
    assert_only_moved(base, delayed, "op.Sort", injected)
