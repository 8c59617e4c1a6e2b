"""The answer goldens: anchored to the pinned qualification set, and a
corrupted golden is caught."""

from __future__ import annotations

import copy

import goldens
from workloads import (
    Outcome,
    build_memory_db,
    direct,
    serial_pass,
    stream_statements,
    verify_pass,
)


def test_digest_path_reproduces_pinned_qualification_answers():
    assert goldens.self_check() == []


def test_corrupted_golden_counts_as_failure():
    pool = goldens.load(goldens.POOL_PATH)
    db, qgen = build_memory_db(workers=1)
    statements = stream_statements(qgen, 3)
    _, _, answers = serial_pass(direct(db), statements)

    clean = Outcome()
    verify_pass(clean, pool, statements, answers)
    assert clean.attempted == len(statements) == 108
    assert clean.failed == 0

    key, index, _ = statements[7]
    corrupted = copy.deepcopy(pool)
    rows, digest = corrupted["answers"][key][index]
    corrupted["answers"][key][index] = [rows, digest[::-1]]
    dirty = Outcome()
    verify_pass(dirty, corrupted, statements, answers)
    assert dirty.failed == 1
    assert key in dirty.problems[0]


def test_pool_covers_every_template_of_every_stream():
    pool = goldens.load(goldens.POOL_PATH)
    templates = {key.split(":")[1] for key in pool["answers"]}
    streams = {key.split(":")[0] for key in pool["answers"]}
    assert len(templates) == 99
    assert streams == {str(s) for s in range(goldens.POOL_STREAMS)}
    assert sum(len(v) for k, v in pool["answers"].items()
               if k.startswith("0:")) == 108
