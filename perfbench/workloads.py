"""The benchmark's three workloads and the metrics they report.

* ``power`` — one closed-loop client runs the 108 statements of one
  qgen stream serially (``workers=1``) against an in-memory sf=0.01
  database built the way ``BenchmarkRun.load_test`` builds it.
* ``throughput`` — the runner's load -> QR1 -> DM -> QR2 sequence, 2
  streams on the shared 2-worker pool, loading from a column store
  that setup writes.
* ``service`` — ``QueryService`` (2 workers, 4 equal tenants): a
  closed-loop probe, then open-loop traffic from one generator thread
  at three offered rates.

Every workload reports the same end-to-end metrics (``E2E``), measured
untraced; latencies are each statement's fastest in the run (see
``run_power``), except on ``throughput``, which takes each template's
median (see ``run_throughput``).  The workload-specific figures
(``power_s``, ``qphds``, ``dm_s``, ``svc_*``) are printed beside them.
A traced run (``trace=True``) instead reports the per-layer metrics
(``LAYER``), derived from spans recorded around the program's entry
points.
"""

from __future__ import annotations

import gc
import os
import random
import re
import resource
import shutil
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import goldens
from tracing import Tracer, install, take_root_batch

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench")

SF = 0.01
#: the power/service database; qgen substitutions derive from it
DATA_SEED = 19620718
#: throughput data seeds (``--seed`` picks one; each has goldens)
THROUGHPUT_SEEDS = (19620718, 1, 2, 3)
STREAMS = 2
WORKERS = 2
#: set-ups in an untraced run; ``setup_s`` is their median
SETUP_REPEATS = 8
#: fewest timed units in one run: serial passes, runner sequences
MIN_PASSES = 2
MIN_SEQUENCES = 2

TENANTS = 4
#: share of --seconds for the closed-loop probe through the service
PROBE_SHARE = 0.6
#: open-loop phases: (name, offered statements/s, share of --seconds,
#: statement deadline s)
SERVICE_PHASES = (
    ("light", 20.0, 0.12, None),
    ("heavy", 30.0, 0.12, None),
    ("overload", 60.0, 0.16, 0.5),
)
#: per-tenant admission-queue bound, high enough that the light and
#: heavy rates never shed
QUEUE_DEPTH = 64
DRAIN_S = 60.0

#: end-to-end metrics: name -> unit; every workload reports all
E2E = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "stmt_p50_ms": "ms",
    "stmt_p90_ms": "ms",
    "answers_per_s": "1/s",
}

OP_KINDS = ("HashAggregate", "HashJoin", "Scan", "Rollup", "Sort", "Filter",
            "StarFilter", "Window")
DM_OPS = ("DM_CUST", "DM_ADDR", "DM_DEMO", "DM_ITEM", "DM_STORE", "DM_SITES",
          "LF_SS", "LF_CS", "LF_WS", "DF_SS", "DF_CS", "DF_WS")

#: per-layer metrics: name -> unit; every traced run reports all (a
#: layer a workload never calls reads 0)
LAYER = {"executor.busy_s": "s"}
LAYER.update({f"op.{k}.self_s": "s" for k in OP_KINDS + ("other",)})
LAYER.update({f"op.{k}.rows_out": "count" for k in OP_KINDS})
LAYER.update({
    "op.HashJoin.build_rows": "count",
    "op.HashJoin.probe_rows": "count",
    "op.StarFilter.bitmap_hit_frac": "fraction",
    "sql.parse_s": "s",
    "planner.busy_s": "s",
    "optimizer.busy_s": "s",
    "matview.rewrite_s": "s",
    "matview.hit_frac": "fraction",
    "result.materialize_s": "s",
    "pool.tasks": "count",
    "pool.queue_wait_s": "s",
    "pool.busy_s": "s",
    "pool.inline_frac": "fraction",
    "runner.stream_imbalance": "ratio",
})
LAYER.update({f"maintenance.{op}.busy_s": "s" for op in DM_OPS})
LAYER.update({
    "maintenance.aux_s": "s",
    "maintenance.rows_per_s": "1/s",
    "colstore.open_ms": "ms",
    "colstore.save_s": "s",
    "colstore.bytes_written": "bytes",
    "colstore.columns_hydrated": "count",
    "colstore.blocks_skipped_frac": "fraction",
    "runner.load_s": "s",
    "dsdgen.rows_per_s": "1/s",
    "dsdgen.busy_s": "s",
    "qgen.busy_s": "s",
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p95_ms": "ms",
    "service.exec_p50_ms": "ms",
    "service.shed_frac": "fraction",
    "service.timeout_frac": "fraction",
    "service.breaker_trips": "count",
    "service.goodput_qps": "1/s",
    "driver.lag_p50_ms": "ms",
    "driver.lag_max_ms": "ms",
    "trace.overhead_frac": "fraction",
    "trace.accounted_frac": "fraction",
})

#: traced phase + operator self times must cover the traced statement
#: time to within this share
ACCOUNTING_TOLERANCE = 0.05

_KIND = re.compile(r"[A-Za-z]+")


def prepare_imports() -> None:
    """Put the checkout's ``src`` first on the import path; refuse to
    run without it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    #: name -> value; units come from E2E / LAYER / DETAIL_UNITS
    metrics: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    trace: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


#: units of the printed workload-specific figures
DETAIL_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "error_frac": "fraction",
    "power_s": "s", "power_wall_s": "s",
    "stmt_p50_ms": "ms", "stmt_p90_ms": "ms",
    "qphds": "QphDS@SF", "qr1_s": "s", "dm_s": "s", "qr2_s": "s",
    "load_s": "s", "sequences": "count",
    "svc_probe_p50_ms": "ms",
    "svc_light_p50_ms": "ms", "svc_light_p95_ms": "ms",
    "svc_heavy_p50_ms": "ms", "svc_heavy_p95_ms": "ms",
    "svc_goodput_qps": "answers/s", "svc_peak_rss_mb": "MB",
}


def p50(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def p90(values) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=10, method="inclusive")[8])


def p95(values) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=20, method="inclusive")[18])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up --------------------------------------------------------------


def build_memory_db(workers):
    """The in-memory sf=0.01 database with the runner's indexes and
    reporting matviews, plus its query generator."""
    from repro.runner.execution import BenchmarkConfig, BenchmarkRun

    run = BenchmarkRun(BenchmarkConfig(
        scale_factor=SF, seed=DATA_SEED, workers=workers))
    run.load_test()
    return run.db, run.qgen


def build_store(path: str, data_seed: int) -> None:
    """Generate sf=0.01 and write it as a column store (the
    ``dsdgen --store`` path)."""
    from repro.dsdgen import DsdGen, load_tables
    from repro.engine import Database

    shutil.rmtree(path, ignore_errors=True)
    data = DsdGen(SF, seed=data_seed).generate()
    db = Database()
    load_tables(db, data)
    db.gather_stats()
    db.save(path, scale_factor=SF, seed=data_seed)


def timed_setup(build, repeats: int):
    """Run ``build`` ``repeats`` times; (median seconds, last result).
    The first set-up of a process pays for imports and cold caches;
    the median discounts it."""
    times, result = [], None
    for _ in range(repeats):
        result = None
        gc.collect()
        start = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


@contextmanager
def traced(tracer):
    if tracer is None:
        yield
        return
    install(tracer)
    try:
        yield
    finally:
        tracer.uninstall()


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


# -- power -----------------------------------------------------------------


def stream_statements(qgen, stream: int) -> list[tuple[str, int, str]]:
    """``(golden key, statement index, sql)`` in the stream's order."""
    return [
        (f"{stream}:{query.template_id}", index, sql)
        for query in qgen.generate_stream(stream)
        for index, sql in enumerate(query.statements)
    ]


def answer_key(rows) -> list:
    """``[row count, digest]``, the form the pool goldens pin."""
    from repro.qgen.qualification import fingerprint_rows

    return [len(rows), fingerprint_rows(rows)]


def check_answer(out: Outcome, pool: dict, key: str, index: int, rows) -> None:
    want = pool["answers"][key][index]
    got = None if rows is None else answer_key(rows)
    out.check(got == want, f"{key}#{index}: got {got}, want {want}")


def serial_pass(execute, statements):
    """One untraced closed-loop pass, ``execute(i, sql)`` returning a
    Result; (wall s, per-statement s, answers)."""
    latencies, answers = [], []
    start = time.perf_counter()
    for i, (_, _, sql) in enumerate(statements):
        begin = time.perf_counter()
        try:
            answers.append(execute(i, sql).rows())
        except Exception as exc:  # counted as a failed statement
            answers.append(exc)
        latencies.append(time.perf_counter() - begin)
    return time.perf_counter() - start, latencies, answers


def direct(db):
    """``serial_pass`` executor straight into the engine."""
    return lambda _, sql: db.execute(sql)


def traced_pass(db, statements, tracer):
    """One pass under EXPLAIN ANALYZE with spans; (wall s, answers,
    plans, driver lags between statements)."""
    answers, plans, lags = [], [], []
    previous_end = None
    start = time.perf_counter()
    for _, _, sql in statements:
        with tracer.span("driver.statement",
                         request=tracer.new_request()) as span:
            if previous_end is not None:
                lags.append(span[3] - previous_end)
            try:
                plans.append(db.explain_analyze_dict(sql))
                answers.append(take_root_batch(tracer).rows())
            except Exception as exc:  # counted as a failed statement
                plans.append(None)
                answers.append(exc)
        previous_end = span[4]
    return time.perf_counter() - start, answers, plans, lags


def verify_pass(out, pool, statements, answers) -> None:
    for (key, index, _), rows in zip(statements, answers):
        check_answer(out, pool, key, index,
                     None if isinstance(rows, Exception) else rows)


def run_power(seed: int, seconds: float, trace: bool, pool: dict) -> Outcome:
    out = Outcome()
    stream = seed % goldens.POOL_STREAMS
    setup_tracer = Tracer() if trace else None
    with traced(setup_tracer):
        setup_s, (db, qgen) = timed_setup(
            lambda: build_memory_db(workers=1), 1 if trace else SETUP_REPEATS)
        statements = stream_statements(qgen, stream)
    # warm-up: caches fill and lazy state settles before timing
    _, _, answers = serial_pass(direct(db), statements)
    verify_pass(out, pool, statements, answers)
    passes, per_pass = [], []
    tracer = Tracer() if trace else None
    traced_times, plans, lags = [], [], []
    end = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < end:
        wall, lat, answers = serial_pass(direct(db), statements)
        passes.append(wall)
        per_pass.append(lat)
        verify_pass(out, pool, statements, answers)
        if trace:
            with traced(tracer):
                wall, answers, pass_plans, pass_lags = traced_pass(
                    db, statements, tracer)
            traced_times.append(wall)
            lags.extend(pass_lags)
            plans.extend(pass_plans)
            verify_pass(out, pool, statements, answers)
    # each statement's fastest pass: the host's speed swings by a third
    # from second to second, and the minimum over passes is what stays
    # put from run to run (see why_fastest in layers.json)
    best = [min(times) for times in zip(*per_pass)]
    power_s = sum(best)
    out.detail.update(power_s=power_s,
                      power_wall_s=statistics.median(passes),
                      stmt_p50_ms=p50(best) * 1e3,
                      stmt_p90_ms=p90(best) * 1e3)
    if trace:
        units = len(traced_times)
        layers = layer_metrics(setup_tracer, tracer, units)
        layers.update(operator_metrics(plans, units))
        layers["trace.overhead_frac"] = (
            statistics.median(traced_times) / statistics.median(passes) - 1.0)
        accounted = power_accounting(tracer, plans)
        layers["trace.accounted_frac"] = accounted
        out.check(abs(1.0 - accounted) <= ACCOUNTING_TOLERANCE,
                  f"traced layers account for {accounted:.3f} of statement "
                  f"time (tolerance {ACCOUNTING_TOLERANCE})")
        layers["driver.lag_p50_ms"] = p50(lags) * 1e3
        layers["driver.lag_max_ms"] = max(lags, default=0.0) * 1e3
        out.metrics = layers
        out.trace = tracer.export()
    else:
        out.metrics = {
            "setup_s": setup_s,
            "stmt_p50_ms": p50(best) * 1e3,
            "stmt_p90_ms": p90(best) * 1e3,
            "answers_per_s": len(best) / power_s,
        }
    out.detail["setup_s"] = setup_s
    return out


def operator_self(plan: dict, acc: dict) -> None:
    """Fold one EXPLAIN ANALYZE tree into per-kind self time, rows and
    counters.

    A CTE body referenced twice appears under both ``Rename`` nodes
    but ran once (the second reference is a memo hit), so its subtree
    is charged once, under the reference whose own time covers it.
    Self time is clamped at zero."""
    charged = set()

    def key(node):
        stats = node.get("stats") or {}
        if not stats.get("memo_hits"):
            return None
        return (node["label"], stats.get("rows"), stats.get("elapsed"),
                stats.get("invocations"), stats["memo_hits"])

    def walk(node):
        stats = node.get("stats") or {}
        elapsed = stats.get("elapsed", 0.0)
        below = 0.0
        for child in node.get("children", []):
            child_elapsed = (child.get("stats") or {}).get("elapsed", 0.0)
            memo = key(child)
            if memo is not None:
                if memo in charged or child_elapsed > elapsed:
                    continue
                charged.add(memo)
            below += child_elapsed
            walk(child)
        kind = _KIND.match(node["label"]).group(0)
        slot = acc.setdefault(kind, {"self_s": 0.0, "rows_out": 0,
                                     "build_rows": 0, "probe_rows": 0,
                                     "bitmap_hit": 0, "bitmap_dims": 0})
        slot["self_s"] += max(elapsed - below, 0.0)
        slot["rows_out"] += stats.get("rows", 0)
        slot["build_rows"] += stats.get("build_rows", 0)
        slot["probe_rows"] += stats.get("probe_rows", 0)
        if kind == "StarFilter":
            slot["bitmap_hit"] += stats.get("bitmap_hit", 0)
            slot["bitmap_dims"] += node["label"].count(",") + 1

    walk(plan)


def operator_totals(plans) -> dict:
    acc: dict = {}
    for entry in plans:
        if entry is not None:
            operator_self(entry["plan"], acc)
    return acc


def operator_metrics(plans, units: int) -> dict:
    acc = operator_totals(plans)
    zero = {"self_s": 0.0, "rows_out": 0, "build_rows": 0, "probe_rows": 0,
            "bitmap_hit": 0, "bitmap_dims": 0}
    out = {}
    for kind in OP_KINDS:
        slot = acc.get(kind, zero)
        out[f"op.{kind}.self_s"] = slot["self_s"] / units
        out[f"op.{kind}.rows_out"] = slot["rows_out"] / units
    out["op.other.self_s"] = sum(
        slot["self_s"] for kind, slot in acc.items()
        if kind not in OP_KINDS) / units
    join = acc.get("HashJoin", zero)
    out["op.HashJoin.build_rows"] = join["build_rows"] / units
    out["op.HashJoin.probe_rows"] = join["probe_rows"] / units
    star = acc.get("StarFilter", zero)
    out["op.StarFilter.bitmap_hit_frac"] = (
        star["bitmap_hit"] / star["bitmap_dims"] if star["bitmap_dims"]
        else 0.0)
    return out


def power_accounting(tracer: Tracer, plans) -> float:
    """Share of traced statement time that the phase spans plus the
    EXPLAIN ANALYZE operator self times account for."""
    children: dict[int, list] = {}
    for s in tracer.spans:
        children.setdefault(s[1], []).append(s)
    statements = sorted((s for s in tracer.spans if s[2] == "driver.statement"),
                        key=lambda s: s[3])
    total = accounted = 0.0
    for span, entry in zip(statements, plans):
        if entry is None:
            continue
        total += span[4] - span[3]
        for child in children.get(span[0], []):
            if child[2] == "result.rows":
                accounted += child[4] - child[3]
            elif child[2] == "engine.execute":
                for phase in children.get(child[0], []):
                    if phase[2] == "executor.run":
                        acc = {}
                        operator_self(entry["plan"], acc)
                        accounted += sum(v["self_s"] for v in acc.values())
                    else:
                        accounted += phase[4] - phase[3]
    return accounted / total if total else 0.0


# -- throughput ------------------------------------------------------------


def run_sequence(store: str):
    """The runner's load -> QR1 -> DM -> QR2 from the column store."""
    from repro.runner.execution import BenchmarkConfig, run_benchmark

    return run_benchmark(BenchmarkConfig(
        scale_factor=SF, streams=STREAMS, workers=WORKERS, db_path=store))


def stream_imbalance(result) -> float:
    """Slowest stream's summed query time over the mean, averaged over
    both query runs."""
    ratios = []
    for run in (result.query_run_1, result.query_run_2):
        per_stream: dict[int, float] = {}
        for timing in run.timings:
            per_stream[timing.stream] = (
                per_stream.get(timing.stream, 0.0) + timing.elapsed)
        ratios.append(max(per_stream.values())
                      / statistics.mean(per_stream.values()))
    return statistics.mean(ratios)


def run_throughput(seed: int, seconds: float, trace: bool,
                   expected: dict) -> Outcome:
    out = Outcome()
    data_seed = THROUGHPUT_SEEDS[seed % len(THROUGHPUT_SEEDS)]
    want = expected["seeds"][str(data_seed)]
    store = os.path.join(WORK_DIR, f"store-{os.getpid()}")
    setup_tracer = Tracer() if trace else None
    try:
        with traced(setup_tracer):
            setup_s, _ = timed_setup(lambda: build_store(store, data_seed),
                                     1 if trace else SETUP_REPEATS)
        store_bytes = dir_bytes(store)
        sequences, untraced_walls, query_times = [], [], {}
        tracer = Tracer() if trace else None
        traced_results, traced_walls = [], []
        end = time.perf_counter() + seconds
        while (len(sequences) + len(traced_results) < MIN_SEQUENCES
               or time.perf_counter() < end):
            tracing = trace and len(traced_results) < len(sequences)
            with traced(tracer if tracing else None):
                start = time.perf_counter()
                result, run = run_sequence(store)
                wall = time.perf_counter() - start
            check_sequence(out, want, result, run)
            if tracing:
                traced_results.append(result)
                traced_walls.append(wall)
            else:
                sequences.append(result)
                untraced_walls.append(wall)
                # every template runs in each of the 2*STREAMS streams
                for _, timing in goldens.query_timings(result):
                    if timing.status == "ok":
                        query_times.setdefault(
                            timing.template_id, []).append(timing.elapsed)
            run = result = None
    finally:
        shutil.rmtree(store, ignore_errors=True)
    # each phase's fastest run (see run_power), with QphDS computed from
    # the phase times by the runner's own formula; but each template's
    # median run: under two streams a statement's fastest run is the
    # rare one the other stream left the GIL alone, and that luck
    # spreads the p50 of fastest runs more than twice as much across
    # seeds as the p50 of median runs (see stmt_p50_ms in layers.json)
    from repro.runner.metric import MetricInputs, qphds as qphds_formula

    phases = MetricInputs(
        scale_factor=SF, streams=STREAMS,
        t_qr1=min(r.query_run_1.elapsed for r in sequences),
        t_dm=min(r.maintenance.elapsed for r in sequences),
        t_qr2=min(r.query_run_2.elapsed for r in sequences),
        t_load=min(r.load.elapsed for r in sequences),
    )
    qphds = qphds_formula(phases, enforce_min_streams=False)
    typical = [statistics.median(times) for times in query_times.values()]
    out.detail.update(
        qphds=qphds,
        qr1_s=phases.t_qr1,
        dm_s=phases.t_dm,
        qr2_s=phases.t_qr2,
        load_s=phases.t_load,
        sequences=len(sequences),
        setup_s=setup_s,
    )
    if trace:
        units = len(traced_results)
        layers = layer_metrics(setup_tracer, tracer, units)
        layers.update(throughput_layers(tracer, traced_results, units))
        layers["colstore.bytes_written"] = float(store_bytes)
        layers["trace.overhead_frac"] = (
            statistics.median(traced_walls)
            / statistics.median(untraced_walls) - 1.0)
        out.metrics = layers
        out.trace = tracer.export()
    else:
        out.metrics = {
            "setup_s": setup_s,
            "stmt_p50_ms": p50(typical) * 1e3,
            "stmt_p90_ms": p90(typical) * 1e3,
            # the QphDS@SF formula, per second and per unit of scale
            "answers_per_s": qphds / (3600.0 * SF),
        }
    return out


def check_sequence(out: Outcome, want: dict, result, run) -> None:
    out.check(result.compliant, "throughput run not compliant")
    got = {key: t.rows for key, t in goldens.query_timings(result)}
    for key, rows in want["queries"].items():
        out.check(got.get(key) == rows,
                  f"{key}: {got.get(key)} rows, want {rows}")
    tables = goldens.table_rows(run.db)
    for name, rows in want["tables"].items():
        out.check(tables.get(name) == rows,
                  f"table {name}: {tables.get(name)} rows after DM, "
                  f"want {rows}")


def throughput_layers(tracer: Tracer, results, units: int) -> dict:
    out = {}
    op_time = {op: 0.0 for op in DM_OPS}
    for s in tracer.spans:
        op = s[2][len("maintenance."):]
        if op in op_time:
            op_time[op] += s[4] - s[3]
    for op in DM_OPS:
        out[f"maintenance.{op}.busy_s"] = op_time[op] / units
    rows = sum(r.rows_affected for result in results
               for r in result.maintenance.operations if r.operation != "AUX")
    busy = sum(op_time.values())
    out["maintenance.rows_per_s"] = rows / busy if busy else 0.0
    out["runner.stream_imbalance"] = statistics.mean(
        stream_imbalance(r) for r in results)
    out["runner.load_s"] = statistics.mean(r.load.elapsed for r in results)
    return out


# -- service -----------------------------------------------------------------


@dataclass
class Arrival:
    at_s: float
    tenant: int
    key: str
    index: int
    sql: str
    status: str = "lost"
    latency_s: float = 0.0
    lag_s: float = 0.0


class ServiceDriver:
    """One open-loop generator thread over ``Session.submit``.

    Each request's clock starts at its due time, so a late generator
    shows in the latencies; ``lag_s`` records how late each submit
    was."""

    def __init__(self, qgen, seed: int):
        self.rng = random.Random(seed)
        # one pool stream per run, so each statement recurs and its
        # fastest answer can be taken (see run_power)
        self.stream = seed % goldens.POOL_STREAMS
        self.statements = stream_statements(qgen, self.stream)
        self.deck: list = []
        self.requests = 0

    def schedule(self, rate: float, duration_s: float) -> list[Arrival]:
        """Due times ``k / rate``; statements dealt from a reshuffled
        deck of the stream's statements, so every one recurs about
        equally often."""
        arrivals = []
        for k in range(int(round(rate * duration_s))):
            if not self.deck:
                self.deck = list(self.statements)
                self.rng.shuffle(self.deck)
            key, index, sql = self.deck.pop()
            self.requests += 1
            # a trailing comment makes every request's text unique, so
            # the traced run can tie engine spans back to the request
            sql = f"{sql}\n-- request {self.requests}"
            arrivals.append(Arrival(k / rate, self.rng.randrange(TENANTS),
                                    key, index, sql))
        return arrivals

    @staticmethod
    def play(sessions, pool: dict, arrivals: list[Arrival], timeout_s) -> None:
        """Submit every arrival at its due time and wait for all.  Each
        answer is checked as it completes and only the verdict is kept,
        so the run holds no result sets."""
        from repro.engine.errors import QueryTimeout
        from repro.service import AdmissionRejected

        pending = [0]
        settled = threading.Condition()

        def finish(arrival, due, future):
            arrival.latency_s = time.perf_counter() - due
            try:
                error = future.exception()
                if error is None:
                    want = pool["answers"][arrival.key][arrival.index]
                    got = answer_key(future.result().rows())
                    arrival.status = "ok" if got == want else "wrong"
                elif isinstance(error, QueryTimeout):
                    arrival.status = "timeout"
                else:
                    arrival.status = "error"
            finally:
                with settled:
                    pending[0] -= 1
                    settled.notify_all()

        start = time.perf_counter() + 0.01
        for arrival in arrivals:
            due = start + arrival.at_s
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            arrival.lag_s = time.perf_counter() - due
            try:
                future = sessions[arrival.tenant].submit(
                    arrival.sql, timeout_s=timeout_s)
            except AdmissionRejected:
                arrival.status = "shed"
                continue
            with settled:
                pending[0] += 1
            future.add_done_callback(partial(finish, arrival, due))
        with settled:
            settled.wait_for(lambda: pending[0] == 0, timeout=DRAIN_S)

    @staticmethod
    def settle(out: Outcome, arrivals, strict: bool) -> None:
        """Count every arrival's verdict; a request never answered
        stays ``lost``.  With ``strict`` a shed or timed-out request is
        a failure."""
        expected = {"ok"} if strict else {"ok", "shed", "timeout"}
        for arrival in arrivals:
            out.check(arrival.status in expected,
                      f"request {arrival.sql.rsplit(' ', 1)[-1]} "
                      f"({arrival.key}#{arrival.index}): {arrival.status}")


def run_service(seed: int, seconds: float, trace: bool, pool: dict) -> Outcome:
    from repro.service import QueryService, TenantQuota

    out = Outcome()
    setup_tracer = Tracer() if trace else None
    with traced(setup_tracer):
        setup_s, (db, qgen) = timed_setup(
            lambda: build_memory_db(workers=None),
            1 if trace else SETUP_REPEATS)
        driver = ServiceDriver(qgen, seed)
        phases = [(name, driver.schedule(rate, share * seconds), deadline,
                   share * seconds)
                  for name, rate, share, deadline in SERVICE_PHASES]
    statements = driver.statements
    # warm-up: lazy indexes build and caches fill before the clock
    _, _, answers = serial_pass(direct(db), statements)
    verify_pass(out, pool, statements, answers)
    service = QueryService(db, workers=WORKERS, default_quota=TenantQuota(
        max_concurrent=2, max_queue_depth=QUEUE_DEPTH))
    tracer = Tracer() if trace else None
    per_pass, traced_walls, plain_walls = [], [], []
    try:
        sessions = [service.create_session(f"tenant{i}")
                    for i in range(TENANTS)]

        def probe(i, sql):
            # one request at a time, tenants in turn
            return sessions[i % TENANTS].execute(sql)

        end = time.perf_counter() + PROBE_SHARE * seconds
        # traced runs make a fixed number of probe passes, so their
        # per-layer totals cover the same work on every run
        while len(per_pass) < MIN_PASSES or (
                not trace and time.perf_counter() < end):
            wall, latencies, answers = serial_pass(probe, statements)
            verify_pass(out, pool, statements, answers)
            per_pass.append(latencies)
            plain_walls.append(wall)
            if trace:
                with traced(tracer):
                    wall, _, answers = serial_pass(probe, statements)
                verify_pass(out, pool, statements, answers)
                traced_walls.append(wall)
        # the gated footprint: set-up, QueryService, its sessions and
        # worker threads after the probe; the open-loop peak depends on
        # which statements the workers happen to run together, so it is
        # printed (svc_peak_rss_mb), not gated
        out.detail["peak_rss_mb"] = peak_rss_mb()
        with traced(tracer):
            for name, arrivals, deadline, _ in phases:
                driver.play(sessions, pool, arrivals, deadline)
                driver.settle(out, arrivals, strict=deadline is None)
        state = service.as_dict()
    finally:
        service.close()
    out.detail["svc_peak_rss_mb"] = peak_rss_mb()
    ok = {name: [a.latency_s for a in arrivals if a.status == "ok"]
          for name, arrivals, _, _ in phases}
    _, overload, deadline, duration = phases[-1]
    goodput = sum(1 for a in overload
                  if a.status == "ok" and a.latency_s <= deadline) / duration
    # the closed-loop probe's fastest answer per statement (see
    # run_power); the open-loop figures swing with the host's speed,
    # which queueing amplifies, so they are printed, not gated
    best = [min(times) for times in zip(*per_pass)]
    out.detail.update(
        svc_probe_p50_ms=p50(best) * 1e3,
        svc_light_p50_ms=p50(ok["light"]) * 1e3,
        svc_light_p95_ms=p95(ok["light"]) * 1e3,
        svc_heavy_p50_ms=p50(ok["heavy"]) * 1e3,
        svc_heavy_p95_ms=p95(ok["heavy"]) * 1e3,
        svc_goodput_qps=goodput,
        setup_s=setup_s,
    )
    if trace:
        layers = layer_metrics(setup_tracer, tracer, 1)
        every = [a for _, arrivals, _, _ in phases for a in arrivals]
        layers.update(service_layers(tracer, every, state))
        layers["service.goodput_qps"] = goodput
        layers["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(plain_walls)
            - 1.0)
        out.metrics = layers
        out.trace = tracer.export()
    else:
        out.metrics = {
            "setup_s": setup_s,
            "stmt_p50_ms": p50(best) * 1e3,
            "stmt_p90_ms": p90(best) * 1e3,
            "answers_per_s": len(best) / sum(best),
        }
    return out


def service_layers(tracer: Tracer, arrivals, state: dict) -> dict:
    """Service metrics over the open-loop requests (the probe's are
    excluded: it never queues)."""
    requests = {tracer.submitted[a.sql][0] for a in arrivals
                if a.sql in tracer.submitted}
    executes = [s[4] - s[3] for s in tracer.spans
                if s[2] == "engine.execute" and s[6] in requests]
    waits = [wait for request, wait in tracer.queue_waits.items()
             if request in requests]
    admitted = [a for a in arrivals if a.status != "shed"]
    lags = [a.lag_s for a in arrivals]
    return {
        "service.queue_wait_p50_ms": p50(waits) * 1e3,
        "service.queue_wait_p95_ms": p95(waits) * 1e3,
        "service.exec_p50_ms": p50(executes) * 1e3,
        "service.shed_frac": (len(arrivals) - len(admitted)) / len(arrivals),
        "service.timeout_frac": (
            sum(a.status == "timeout" for a in admitted) / len(admitted)
            if admitted else 0.0),
        "service.breaker_trips": float(sum(
            t["breaker_trips"] for t in state["tenants"])),
        "driver.lag_p50_ms": p50(lags) * 1e3,
        "driver.lag_max_ms": max(lags) * 1e3,
    }


# -- per-layer metrics shared by every workload ------------------------------


def layer_metrics(setup: Tracer, tracer: Tracer, units: int) -> dict:
    """Per-layer metrics from span self times and boundary counts.

    Set-up layers (dsdgen, colstore save, qgen before the clock) are
    per set-up; everything else is per ``units`` (traced passes,
    traced sequences, or 1 for a service run).  Layers the workload
    never called read 0."""
    out = {name: 0.0 for name in LAYER}
    own = tracer.layer_self()
    setup_own = setup.layer_self()
    counts = tracer.counts
    out["executor.busy_s"] = own.get("executor", 0.0) / units
    out["sql.parse_s"] = own.get("sql", 0.0) / units
    out["planner.busy_s"] = own.get("planner", 0.0) / units
    out["optimizer.busy_s"] = own.get("optimizer", 0.0) / units
    out["matview.rewrite_s"] = own.get("matview", 0.0) / units
    calls = counts.get("matview.calls", 0.0)
    out["matview.hit_frac"] = counts.get("matview.hits", 0.0) / calls if calls else 0.0
    out["result.materialize_s"] = own.get("result", 0.0) / units
    tasks = counts.get("pool.tasks", 0.0)
    out["pool.tasks"] = tasks / units
    out["pool.queue_wait_s"] = sum(tracer.pool_waits) / units
    out["pool.busy_s"] = sum(tracer.inclusive("pool.task")) / units
    out["pool.inline_frac"] = counts.get("pool.inline", 0.0) / tasks if tasks else 0.0
    out["maintenance.aux_s"] = sum(tracer.inclusive("maintenance.aux")) / units
    out["colstore.open_ms"] = sum(tracer.inclusive("colstore.open")) * 1e3 / units
    out["colstore.save_s"] = sum(setup.inclusive("colstore.save"))
    out["colstore.columns_hydrated"] = counts.get("colstore.columns_hydrated", 0.0) / units
    blocks = counts.get("colstore.blocks", 0.0)
    out["colstore.blocks_skipped_frac"] = (
        counts.get("colstore.blocks_skipped", 0.0) / blocks if blocks else 0.0)
    dsdgen_s = sum(setup.inclusive("dsdgen.generate"))
    out["dsdgen.busy_s"] = dsdgen_s
    out["dsdgen.rows_per_s"] = (
        setup.counts.get("dsdgen.rows", 0.0) / dsdgen_s if dsdgen_s else 0.0)
    out["qgen.busy_s"] = setup_own.get("qgen", 0.0) + own.get("qgen", 0.0) / units
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    os.makedirs(WORK_DIR, exist_ok=True)
    if name == "throughput":
        out = run_throughput(seed, seconds, trace, goldens.load(goldens.THROUGHPUT_PATH))
    else:
        runner = {"power": run_power, "service": run_service}[name]
        out = runner(seed, seconds, trace, goldens.load(goldens.POOL_PATH))
    if "peak_rss_mb" not in out.detail:
        out.detail["peak_rss_mb"] = peak_rss_mb()
    out.detail["error_frac"] = out.failed / max(out.attempted, 1)
    if not trace:
        out.metrics.setdefault("peak_rss_mb", out.detail["peak_rss_mb"])
    return out
