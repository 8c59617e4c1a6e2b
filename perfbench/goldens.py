"""Committed answer goldens for the benchmark, and how to rebuild them.

* ``goldens/pool.json`` — per-statement row count and answer digest
  (``repro.qgen.qualification.fingerprint_rows``) for qgen streams
  ``0 .. POOL_STREAMS-1`` on the sf=0.01 database the ``power`` and
  ``service`` workloads build.
* ``goldens/throughput.json`` — for each throughput data seed: the row
  count of every (query run, stream, template) and the 24 table row
  counts after data maintenance.

The digest path is anchored to the repository's own oracle:
:func:`self_check` runs it at the qualification parameterization
(sf=0.004, stream 0) and must reproduce the pinned
``qualification_answers.json``.

Regenerate with ``python3 perfbench/goldens.py`` from the repository
root (about two minutes); it refuses to write if the self-check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "goldens")
POOL_PATH = os.path.join(GOLDEN_DIR, "pool.json")
THROUGHPUT_PATH = os.path.join(GOLDEN_DIR, "throughput.json")

#: qgen streams whose answers are pinned (power and service run one
#: of them, chosen by --seed)
POOL_STREAMS = 8


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def self_check() -> list[str]:
    """Template ids whose qualification answer the digest path does not
    reproduce (empty when anchored)."""
    from repro.qgen.qualification import (
        build_qualification_environment,
        fingerprint_workload,
        load_reference,
    )

    answers = fingerprint_workload(*build_qualification_environment())
    pinned = load_reference()
    return [template_id for template_id, want in sorted(pinned.items())
            if (answers[template_id]["rows"], answers[template_id]["digest"])
            != (want["rows"], want["digest"])]


def build_pool() -> dict:
    from workloads import DATA_SEED, SF, answer_key, build_memory_db

    db, qgen = build_memory_db(workers=1)
    answers = {}
    for stream in range(POOL_STREAMS):
        for template_id in sorted(qgen.templates):
            query = qgen.generate(template_id, stream=stream)
            answers[f"{stream}:{template_id}"] = [
                answer_key(db.execute(sql).rows())
                for sql in query.statements
            ]
    return {"scale_factor": SF, "seed": DATA_SEED, "streams": POOL_STREAMS,
            "answers": answers}


def build_throughput(workdir: str) -> dict:
    from workloads import SF, THROUGHPUT_SEEDS, build_store, run_sequence

    out = {"scale_factor": SF, "seeds": {}}
    for data_seed in THROUGHPUT_SEEDS:
        store = os.path.join(workdir, f"golden-store-{data_seed}")
        build_store(store, data_seed)
        result, run = run_sequence(store)
        shutil.rmtree(store)
        if not result.compliant:
            raise SystemExit(f"throughput run for seed {data_seed} "
                             "was not compliant")
        out["seeds"][str(data_seed)] = {
            "queries": {key: t.rows for key, t in query_timings(result)},
            "tables": table_rows(run.db),
        }
    return out


def query_timings(result):
    """``(qr<run>:<stream>:<template>, QueryTiming)`` for both query
    runs of a runner result."""
    for label, run in (("qr1", result.query_run_1),
                       ("qr2", result.query_run_2)):
        for timing in run.timings:
            yield f"{label}:{timing.stream}:{timing.template_id}", timing


def table_rows(db) -> dict[str, int]:
    from repro.schema import ALL_TABLES

    return {name: int(db.table(name).num_rows) for name in sorted(ALL_TABLES)}


def main() -> int:
    sys.path.insert(0, HERE)
    from workloads import WORK_DIR, prepare_imports

    prepare_imports()
    bad = self_check()
    if bad:
        print(f"self-check failed for templates {bad}", file=sys.stderr)
        return 1
    print("self-check: qualification answers reproduced")
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    pool = build_pool()
    with open(POOL_PATH, "w", encoding="utf-8") as handle:
        json.dump(pool, handle, indent=0, sort_keys=True)
    print(f"wrote {len(pool['answers'])} pool answers to {POOL_PATH}")
    os.makedirs(WORK_DIR, exist_ok=True)
    throughput = build_throughput(WORK_DIR)
    with open(THROUGHPUT_PATH, "w", encoding="utf-8") as handle:
        json.dump(throughput, handle, indent=0, sort_keys=True)
    print(f"wrote throughput goldens to {THROUGHPUT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
