"""Fault injection: determinism of the injector, and graceful
degradation of a fault-injected multi-stream benchmark run."""

from __future__ import annotations

import pytest

from repro.engine import ColumnDef, Database, TableSchema, integer, varchar
from repro.faults import FaultInjector, InjectedFault, is_transient
from repro.runner import BenchmarkConfig, render_full_disclosure, run_benchmark

SF = 0.002


def _decision_trace(injector, labels):
    """Outcomes ('error' | 'delay' | 'pass') for a label sequence."""
    trace = []
    for label in labels:
        try:
            injector.at_query(label)
            trace.append("pass")
        except InjectedFault:
            trace.append("error")
    return trace


def test_injector_is_deterministic_from_seed():
    labels = [f"q{i}" for i in range(200)]
    first = _decision_trace(FaultInjector(seed=42, error_rate=0.1), labels)
    second = _decision_trace(FaultInjector(seed=42, error_rate=0.1), labels)
    assert first == second
    assert first.count("error") > 0
    different = _decision_trace(FaultInjector(seed=43, error_rate=0.1), labels)
    assert first != different


def test_injected_fault_is_transient():
    assert is_transient(InjectedFault("boom"))
    assert not is_transient(ValueError("boom"))


def test_site_filter_targets_injection():
    injector = FaultInjector(
        seed=1, error_rate=1.0, scope=("operator",), site_filter="HashJoin"
    )
    injector.at_operator("Scan")  # filtered out: no raise
    with pytest.raises(InjectedFault):
        injector.at_operator("HashJoin(probe)")


def test_operator_fault_fires_inside_serial_string_key_join():
    # the serial sorted probe checks the governor once per chunk, so
    # operator-scope faults still reach a (two-column, string) join
    db = Database()
    for name in ("a", "b"):
        table = db.create_table(TableSchema(name, [
            ColumnDef("k", integer()), ColumnDef("s", varchar(1)),
        ]))
        table.append_rows([[i % 3, "xyz"[i % 3]] for i in range(10)])
    sql = "SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.s = b.s"
    assert db.execute(sql).scalar() == 4 * 4 + 3 * 3 + 3 * 3
    injector = FaultInjector(
        seed=1, error_rate=1.0, scope=("operator",), site_filter="HashJoin"
    )
    db.fault_injector = injector
    with pytest.raises(InjectedFault, match="HashJoin\\(probe\\)"):
        db.execute(sql)
    assert injector.injected_errors == 1


def test_scope_gates_injection_points():
    q_only = FaultInjector(seed=1, error_rate=1.0, scope=("query",))
    q_only.at_operator("Scan")  # operator scope off: no raise
    with pytest.raises(InjectedFault):
        q_only.at_query("select 1")


def test_memory_pressure_validation():
    with pytest.raises(ValueError):
        FaultInjector(memory_pressure=0.0)
    half = FaultInjector(memory_pressure=0.5)
    assert half.apply_memory_pressure(1000.0) == 500.0
    forced = FaultInjector(force_budget_bytes=64.0)
    assert forced.apply_memory_pressure(None) == 64.0
    assert forced.apply_memory_pressure(32.0) == 32.0


def test_fault_injected_benchmark_degrades_gracefully():
    """~5% injected errors + random delays across 2 streams: the run
    completes with every query accounted for, retries are reported, and
    the degradation section renders."""
    faults = FaultInjector(
        seed=7, error_rate=0.05, delay_rate=0.1, max_delay_s=0.002,
        scope=("query",),
    )
    config = BenchmarkConfig(
        scale_factor=SF, streams=2, faults=faults, max_query_retries=3
    )
    result, _ = run_benchmark(config)

    expected = result.total_queries  # 198 * streams, both runs
    assert len(result.all_timings) == expected
    assert result.query_run_1.retries + result.query_run_2.retries > 0
    assert result.fault_stats["injected_errors"] > 0

    text = render_full_disclosure(result)
    assert "degradation & recovery" in text
    assert "injected faults" in text
    assert ("COMPLIANT" in text) or ("NOT COMPLIANT" in text)
    # per-query failures (if any survived the retries) are itemized
    failures = [t for t in result.all_timings if t.status != "ok"]
    if failures:
        assert not result.compliant
        assert "FAILED" in text
    else:
        assert result.compliant


def test_hard_failures_are_not_retried():
    """Only transient errors retry; a planning-level failure degrades
    on the first attempt."""
    config = BenchmarkConfig(scale_factor=SF, streams=1, max_query_retries=3)
    from repro.runner.execution import BenchmarkRun

    run = BenchmarkRun(config)
    run.load_test()

    class BrokenQuery:
        template_id = 1
        name = "broken"
        query_class = "reporting"
        channel_part = "store"
        statements = ["SELECT no_such_column FROM date_dim"]

    timing = run._run_query(BrokenQuery(), stream=0, run_label="qr1")
    assert timing.status == "failed"
    assert timing.attempts == 1
    assert "no_such_column" in timing.error


def test_storage_scope_gates_and_raises_oserror():
    """Storage faults are OSError subclasses (the store must translate
    them), gated by the "storage" scope like every other site."""
    from repro.faults import InjectedStorageFault

    q_only = FaultInjector(seed=1, error_rate=1.0, scope=("query",))
    q_only.at_storage("manifest")  # storage scope off: no raise

    storage = FaultInjector(seed=1, error_rate=1.0, scope=("storage",))
    with pytest.raises(InjectedStorageFault) as excinfo:
        storage.at_storage("manifest")
    assert isinstance(excinfo.value, OSError)
    assert is_transient(excinfo.value)
    assert storage.injected_errors == 1
    # ...and the query site stays quiet under storage-only scope
    storage_only = FaultInjector(seed=1, error_rate=1.0, scope=("storage",))
    storage_only.at_query("select 1")


def test_storage_site_filter_targets_paths():
    injector = FaultInjector(
        seed=1, error_rate=1.0, scope=("storage",), site_filter="manifest"
    )
    injector.at_storage("read:ss_item_sk.col:data")  # filtered: no raise
    from repro.faults import InjectedStorageFault

    with pytest.raises(InjectedStorageFault):
        injector.at_storage("manifest")


def test_storage_fault_hook_installs_and_clears():
    from repro.faults import get_storage_faults, set_storage_faults

    assert get_storage_faults() is None
    injector = FaultInjector(seed=1, scope=("storage",))
    set_storage_faults(injector)
    try:
        assert get_storage_faults() is injector
    finally:
        set_storage_faults(None)
    assert get_storage_faults() is None
