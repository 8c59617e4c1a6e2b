"""Parallel generation determinism: jump-ahead, chunking, worker pools.

The kit's ``-parallel``/``-child`` contract is that any partitioning of
the work produces the same data set.  Here that means: (a) the LCG
``jump(n)`` lands exactly where ``n`` scalar draws land, (b) fact
chunks concatenate to the serial tables, (c) a worker pool's output is
byte-identical to serial generation, and (d) the surrogate-key pools a
worker predicts from the scaling model match what the dimension
generators actually register.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.dsdgen import DsdGen
from repro.dsdgen.context import GeneratorContext
from repro.dsdgen.rng import _SLAB, RandomStreamFactory
from repro.dsdgen.scaling import ROW_COUNT_ANCHORS


def _file_checksums(data, directory) -> dict[str, str]:
    data.write_flat_files(str(directory))
    digests = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


@pytest.mark.parametrize("n", [0, 1, 7, 1000, 10**9])
def test_jump_matches_scalar_draws(n):
    factory = RandomStreamFactory(19620718)
    jumped = factory.fresh("jump", "test")
    jumped.jump(n)
    stepped = factory.fresh("jump", "test")
    if n <= 1000:
        for _ in range(n):
            stepped.next_raw()
    else:
        # batch draws advance the state identically to scalar draws;
        # slab-sized batches keep the 10**9 case at a few MB of memory
        for start in range(0, n, _SLAB):
            stepped.raw_batch(min(_SLAB, n - start))
    assert jumped._state == stepped._state
    assert jumped.next_raw() == stepped.next_raw()


def test_raw_batch_matches_scalar_draws():
    factory = RandomStreamFactory(7)
    batched = factory.fresh("batch", "test")
    scalar = factory.fresh("batch", "test")
    values = batched.raw_batch(1000)
    assert [int(v) for v in values] == [scalar.next_raw() for _ in range(1000)]
    assert batched._state == scalar._state


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_parallel_identical_to_serial_small(tmp_path, workers):
    serial = DsdGen(0.001).generate()
    parallel = DsdGen(0.001, workers=workers).generate()
    assert _file_checksums(serial, tmp_path / "serial") == _file_checksums(
        parallel, tmp_path / f"workers{workers}"
    )


def test_parallel_identical_to_serial_bench_scale(tmp_path):
    serial = DsdGen(0.01).generate()
    parallel = DsdGen(0.01, workers=4).generate()
    assert _file_checksums(serial, tmp_path / "serial") == _file_checksums(
        parallel, tmp_path / "workers4"
    )


def test_chunks_concatenate_to_serial(tmp_path):
    serial = DsdGen(0.001).generate()
    serial_sums = _file_checksums(serial, tmp_path / "serial")

    n_chunks = 3
    parts = []
    for chunk in range(1, n_chunks + 1):
        gen = DsdGen(0.001)
        data = gen.generate_chunk(chunk, n_chunks)
        data.write_flat_files(str(tmp_path / "chunks"), suffix=f"_{chunk}_{n_chunks}")
        parts.append(data)

    # chunk 1 carries the dimensions; facts concatenate across chunks
    digests = {}
    for name in serial.tables:
        acc = hashlib.sha256()
        for chunk in range(1, n_chunks + 1):
            path = tmp_path / "chunks" / f"{name}_{chunk}_{n_chunks}.dat"
            if path.exists():
                acc.update(path.read_bytes())
        digests[f"{name}.dat"] = acc.hexdigest()
    assert digests == serial_sums


def test_chunk_index_validated():
    gen = DsdGen(0.001)
    with pytest.raises(ValueError):
        gen.generate_chunk(0, 2)
    with pytest.raises(ValueError):
        gen.generate_chunk(3, 2)


def test_key_pools_match_scaling_model():
    """A worker predicts every dimension's key pool from the scaling
    model alone (``ensure_key_pools``); the dimension generators must
    register exactly that many keys or jump-ahead offsets would drift."""
    predicted = GeneratorContext(0.002)
    predicted.ensure_key_pools()
    data = DsdGen(0.002).generate()
    actual = data.context
    for table in ROW_COUNT_ANCHORS:
        assert actual.key_pools[table] == predicted.key_pools[table], table


def test_worker_row_counts_match_serial():
    serial = DsdGen(0.002, seed=7).generate()
    parallel = DsdGen(0.002, seed=7, workers=2).generate()
    assert parallel.row_counts == serial.row_counts
    assert serial.tables["store_sales"] == parallel.tables["store_sales"]
    assert serial.tables["web_returns"] == parallel.tables["web_returns"]
