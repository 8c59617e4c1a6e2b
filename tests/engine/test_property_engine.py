"""Property-based engine tests: SQL results vs a plain-Python oracle.

Hypothesis generates small random tables; every property compares the
engine's answer against a straightforward Python computation over the
same rows.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import ColumnDef, Database, TableSchema, decimal, integer, varchar

settings.register_profile("engine", deadline=None, max_examples=60)
settings.load_profile("engine")

row_strategy = st.tuples(
    st.one_of(st.none(), st.integers(min_value=-5, max_value=5)),
    st.one_of(st.none(), st.sampled_from(["a", "b", "c"])),
    st.one_of(
        st.none(),
        st.floats(min_value=-100, max_value=100, allow_nan=False, width=32),
    ),
)

table_strategy = st.lists(row_strategy, min_size=0, max_size=40)


def build(rows):
    db = Database()
    t = db.create_table(TableSchema("t", [
        ColumnDef("k", integer()),
        ColumnDef("g", varchar(1)),
        ColumnDef("x", decimal()),
    ]))
    t.append_rows([list(r) for r in rows])
    db.gather_stats()
    return db


@given(table_strategy)
def test_count_star(rows):
    db = build(rows)
    assert db.execute("SELECT COUNT(*) FROM t").scalar() == len(rows)


@given(table_strategy)
def test_filter_matches_python(rows):
    db = build(rows)
    got = db.execute("SELECT COUNT(*) FROM t WHERE k > 0").scalar()
    want = sum(1 for k, _, _ in rows if k is not None and k > 0)
    assert got == want


@given(table_strategy)
def test_sum_matches_python(rows):
    db = build(rows)
    got = db.execute("SELECT SUM(x) FROM t").scalar()
    values = [x for _, _, x in rows if x is not None]
    if not values:
        assert got is None
    else:
        assert got == pytest.approx(sum(values), rel=1e-9, abs=1e-9)


@given(table_strategy)
def test_group_by_matches_python(rows):
    db = build(rows)
    got = {
        (g, c) for g, c in db.execute("SELECT g, COUNT(*) FROM t GROUP BY g").rows()
    }
    want: dict = {}
    for _, g, _ in rows:
        want[g] = want.get(g, 0) + 1
    assert got == set(want.items())


@given(table_strategy)
def test_order_by_is_sorted_nulls_last(rows):
    db = build(rows)
    out = [r[0] for r in db.execute("SELECT k FROM t ORDER BY k").rows()]
    non_null = [v for v in out if v is not None]
    assert non_null == sorted(non_null)
    # nulls trail
    if None in out:
        assert all(v is None for v in out[out.index(None):])


@given(table_strategy)
def test_distinct_matches_python(rows):
    db = build(rows)
    got = set(db.execute("SELECT DISTINCT k, g FROM t").rows())
    want = {(k, g) for k, g, _ in rows}
    assert got == want


@given(table_strategy, table_strategy)
def test_union_all_length(rows_a, rows_b):
    db = Database()
    for name, rows in (("a", rows_a), ("b", rows_b)):
        t = db.create_table(TableSchema(name, [
            ColumnDef("k", integer()), ColumnDef("g", varchar(1)), ColumnDef("x", decimal()),
        ]))
        t.append_rows([list(r) for r in rows])
    out = db.execute("SELECT k FROM a UNION ALL SELECT k FROM b")
    assert len(out) == len(rows_a) + len(rows_b)


def _null_first(row):
    return [(v is not None, v if v is not None else 0) for v in row]


#: equi-join predicates and the (k, g, x) positions they compare; the
#: multi-column and FLOAT keys take the joint-factorized key path, and
#: a NULL in any key column never matches
JOIN_KEYS = [
    ("a.k = b.k", (0,)),
    ("a.k = b.k AND a.g = b.g", (0, 1)),
    ("a.x = b.x", (2,)),
    ("a.g = b.g AND a.x = b.x", (1, 2)),
]


@given(table_strategy, table_strategy)
def test_join_matches_python(rows_a, rows_b):
    db = Database()
    for name, rows in (("a", rows_a), ("b", rows_b)):
        t = db.create_table(TableSchema(name, [
            ColumnDef("k", integer()), ColumnDef("g", varchar(1)), ColumnDef("x", decimal()),
        ]))
        t.append_rows([list(r) for r in rows])
    # the reference joins the stored values (decimal storage may round)
    stored_a = db.execute("SELECT k, g, x FROM a").rows()
    stored_b = db.execute("SELECT k, g, x FROM b").rows()
    for predicate, cols in JOIN_KEYS:
        got = db.execute(
            f"SELECT a.k, a.g, a.x, b.k, b.g, b.x FROM a, b WHERE {predicate}"
        ).rows()
        want = [
            ra + rb
            for ra in stored_a
            for rb in stored_b
            if all(ra[i] is not None and ra[i] == rb[i] for i in cols)
        ]
        assert sorted(got, key=_null_first) == sorted(want, key=_null_first), \
            predicate


@given(table_strategy)
def test_left_join_row_count_at_least_left(rows):
    db = build(rows)
    db2_rows = [r for r in rows if r[0] is not None][:5]
    u = db.create_table(TableSchema("u", [
        ColumnDef("k", integer()), ColumnDef("g", varchar(1)), ColumnDef("x", decimal()),
    ]))
    u.append_rows([list(r) for r in db2_rows])
    out = db.execute("SELECT COUNT(*) FROM t LEFT JOIN u ON t.k = u.k")
    assert out.scalar() >= len(rows)


@given(table_strategy)
def test_min_max_match_python(rows):
    db = build(rows)
    got_min, got_max = db.execute("SELECT MIN(x), MAX(x) FROM t").rows()[0]
    values = [x for _, _, x in rows if x is not None]
    if not values:
        assert got_min is None and got_max is None
    else:
        assert got_min == pytest.approx(min(values))
        assert got_max == pytest.approx(max(values))


@given(table_strategy)
def test_avg_consistent_with_sum_count(rows):
    db = build(rows)
    s, c, a = db.execute("SELECT SUM(x), COUNT(x), AVG(x) FROM t").rows()[0]
    if c == 0:
        assert a is None
    else:
        assert a == pytest.approx(s / c)


@given(table_strategy)
def test_window_sum_equals_group_total(rows):
    db = build(rows)
    out = db.execute("SELECT g, x, SUM(x) OVER (PARTITION BY g) s FROM t").rows()
    totals: dict = {}
    for _, g, x in rows:
        if x is not None:
            totals[g] = totals.get(g, 0.0) + x
    for g, x, s in out:
        if g in totals:
            assert s == pytest.approx(totals[g], rel=1e-9, abs=1e-9)
        else:
            assert s is None


@given(table_strategy)
def test_having_subset_of_groups(rows):
    db = build(rows)
    all_groups = db.execute("SELECT g, COUNT(*) c FROM t GROUP BY g").rows()
    filtered = db.execute("SELECT g, COUNT(*) c FROM t GROUP BY g HAVING COUNT(*) >= 2").rows()
    assert set(filtered) <= set(all_groups)
    assert all(c >= 2 for _, c in filtered)


@given(table_strategy, st.integers(min_value=0, max_value=10))
def test_limit_prefix_of_order(rows, limit):
    db = build(rows)
    full = db.execute("SELECT k, g, x FROM t ORDER BY k, g, x").rows()
    limited = db.execute(f"SELECT k, g, x FROM t ORDER BY k, g, x LIMIT {limit}").rows()
    assert limited == full[:limit]


@given(table_strategy)
def test_delete_then_count(rows):
    db = build(rows)
    deleted = db.execute("DELETE FROM t WHERE k = 1").rowcount
    want_deleted = sum(1 for k, _, _ in rows if k == 1)
    assert deleted == want_deleted
    assert db.execute("SELECT COUNT(*) FROM t").scalar() == len(rows) - want_deleted
