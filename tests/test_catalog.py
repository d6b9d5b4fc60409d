"""Catalog / schema-merge tests (S3, S9, S10 parity)."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from datafusion_orc_ray import fixtures
from datafusion_orc_ray.pipelines import encode as ep
from datafusion_orc_ray.sources import stripes
from datafusion_orc_ray.sources.stripes import Catalog, stripes_schema


@pytest.fixture(scope="module")
def encoded_dir(ray_session, tmp_path_factory):
    base = str(tmp_path_factory.mktemp("cat"))
    os.makedirs(f"{base}/in")
    wt = fixtures.webtext_table(300)
    pq.write_table(wt, f"{base}/in/part-0.parquet", row_group_size=100)
    out = f"{base}/enc"
    ep.encode_parquet(f"{base}/in", out, concurrency=2).take_all()
    return out, wt


@pytest.fixture
def sql_both(monkeypatch):
    """Returns sql(cat, q), which runs q on both executors. Every table
    here is under ``Catalog._LOCAL_SCAN_BYTES``, so under the default
    gate a planned query runs as one fused DuckDB statement and no
    partial runs; under gate 0 every scan runs on Ray and a planned
    query runs the partial/final rewrite (one ``sqlagg.run_partial``
    per-batch function) once. Both runs must agree on plan and answer;
    returns the answer."""
    from datafusion_orc_ray.sources import sqlagg

    calls = []
    run_partial = sqlagg.run_partial

    def spied(*a, **kw):
        calls.append(a)
        return run_partial(*a, **kw)

    monkeypatch.setattr(sqlagg, "run_partial", spied)

    def sql(cat, q):
        fused = cat.sql(q)
        plan = cat.last_plan
        assert not calls, (q, plan)
        with monkeypatch.context() as m:
            m.setattr(Catalog, "_LOCAL_SCAN_BYTES", 0)
            got = cat.sql(q)
        assert cat.last_plan == plan, (q, plan, cat.last_plan)
        assert len(calls) == (plan in stripes._SPLIT_KINDS), (q, plan, len(calls))
        calls.clear()
        assert got.equals(fused), (q, got.to_pydict(), fused.to_pydict())
        return got

    return sql


def test_stripes_schema_merge(encoded_dir):
    out, wt = encoded_dir
    schema = stripes_schema(out)
    assert schema.equals(wt.schema)


def test_stripes_schema_from_manifest_no_footer_io(encoded_dir, monkeypatch):
    """Manifests carry schema_b64 (round 4): schema derivation must not
    read a single footer — at 100-TB stripe counts the old per-stripe
    tail reads were millions of driver GETs."""
    from datafusion_orc_ray import stripe as stripe_mod

    out, wt = encoded_dir

    def boom(path):
        raise AssertionError(f"footer read for {path} — schema should come from manifests")

    monkeypatch.setattr(stripe_mod, "read_footer_from_file", boom)
    assert stripes_schema(out).equals(wt.schema)


def test_catalog_register_and_read(encoded_dir):
    out, wt = encoded_dir
    cat = Catalog()
    cat.register_stripes("webtext", out)
    assert cat.names() == ["webtext"]
    assert cat.schema("webtext").names == ["url", "warc_ts", "html", "text", "lang"]
    ds = cat.table("webtext", columns=["url", "lang"])
    got = pa.concat_tables(ds.iter_batches(batch_format="pyarrow"))
    assert got.num_rows == wt.num_rows
    assert got.column_names == ["url", "lang"]


def test_catalog_rejects_missing_dir():
    cat = Catalog()
    with pytest.raises(FileNotFoundError):
        cat.register_stripes("nope", "/tmp/definitely-not-a-stripe-dir")


def test_catalog_sql(ray_session, tmp_path):
    """SQL over registered stripe tables (register_orc -> SQL parity):
    the query streams decoded batches into DuckDB."""
    import pyarrow.parquet as pq

    from datafusion_orc_ray.pipelines import encode as ep
    from datafusion_orc_ray.sources.stripes import Catalog

    t = pa.table(
        {
            "k": pa.array(["a", "b", "a", "c", "b", "a"]),
            "v": pa.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        }
    )
    pq.write_table(t, f"{tmp_path}/t.parquet", row_group_size=2)
    ep.encode_parquet(f"{tmp_path}/t.parquet", f"{tmp_path}/enc", concurrency=1).take_all()
    cat = Catalog()
    cat.register_stripes("mytbl", f"{tmp_path}/enc")
    out = cat.sql("SELECT k, sum(v) AS total FROM mytbl GROUP BY k ORDER BY k")
    assert out.column("k").to_pylist() == ["a", "b", "c"]
    assert out.column("total").to_pylist() == [10.0, 7.0, 4.0]
    # projection-only query works too
    n = cat.sql("SELECT count(*) AS n FROM mytbl").column("n")[0].as_py()
    assert n == 6


def test_catalog_sql_projection_pushdown(encoded_dir, monkeypatch):
    """A single-column SQL query decodes only that column (S5 through the
    SQL surface, VERDICT r2 missing #2): the scan is created with
    columns=[...], and the result matches the full-width answer."""
    out, wt = encoded_dir
    cat = Catalog()
    cat.register_stripes("webtext", out)
    seen: dict[str, list | None] = {}
    orig = Catalog._scan

    def spy(self, name, columns=None, predicate=None, **kw):
        seen[name] = columns
        return orig(self, name, columns=columns, predicate=predicate, **kw)

    monkeypatch.setattr(Catalog, "_scan", spy)
    langs = set(wt.column("lang").to_pylist())
    res = cat.sql("SELECT count(DISTINCT lang) AS n FROM webtext")
    assert seen["webtext"] == ["lang"]
    assert res.column("n")[0].as_py() == len(langs - {None})  # SQL skips NULL
    # two columns referenced -> exactly those two
    seen.clear()
    res2 = cat.sql("SELECT lang, max(url) AS mx FROM webtext GROUP BY lang ORDER BY lang")
    assert sorted(seen["webtext"]) == ["lang", "url"]
    assert res2.num_rows == len(langs)  # GROUP BY keeps the NULL group
    # count(*) with no WHERE needs ZERO streams now: manifest stats
    # answer it without creating a scan at all (round 5)
    seen.clear()
    n = cat.sql("SELECT count(*) AS n FROM webtext").column("n")[0].as_py()
    assert n == wt.num_rows
    assert cat.last_plan == "stats_answer"
    assert "webtext" not in seen
    # star expansion falls back to full width and stays correct
    seen.clear()
    full = cat.sql("SELECT * FROM webtext ORDER BY url LIMIT 3")
    assert seen["webtext"] is None
    assert full.column_names == list(wt.schema.names)


def test_catalog_sql_filter_pushdown(ray_session, tmp_path, monkeypatch):
    """A simple WHERE conjunct becomes a scan predicate (stats pruning +
    residual filter); unsafe shapes (double WHERE, outer joins, repeated
    table) push nothing; results always match DuckDB's answer."""
    t = pa.table(
        {
            "k": pa.array(["a", "b", "a", "c", "b", "a"]),
            "v": pa.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        }
    )
    pq.write_table(t, f"{tmp_path}/t.parquet", row_group_size=2)
    ep.encode_parquet(f"{tmp_path}/t.parquet", f"{tmp_path}/enc", concurrency=1).take_all()
    cat = Catalog()
    cat.register_stripes("ft", f"{tmp_path}/enc")
    seen = {}
    orig = Catalog._scan

    def spy(self, name, columns=None, predicate=None, **kw):
        seen[name] = predicate
        return orig(self, name, columns=columns, predicate=predicate, **kw)

    monkeypatch.setattr(Catalog, "_scan", spy)
    out = cat.sql("SELECT k, v FROM ft WHERE v >= 4 ORDER BY v")
    assert seen["ft"] == [("v", ">=", 4)]
    assert out.column("v").to_pylist() == [4.0, 5.0, 6.0]
    # string equality pushes too
    out2 = cat.sql("SELECT sum(v) AS s FROM ft WHERE k = 'a'")
    assert seen["ft"] == [("k", "==", "a")]
    assert out2.column("s")[0].as_py() == 10.0
    # conjunct with extra unpushable condition still pushes the safe one
    out3 = cat.sql("SELECT count(*) AS n FROM ft WHERE v > 1 AND k || 'x' = 'ax'")
    assert seen["ft"] == [("v", ">", 1)]
    assert out3.column("n")[0].as_py() == 2
    # ALL safe conjuncts push together (AND semantics end-to-end)
    out3b = cat.sql("SELECT count(*) AS n FROM ft WHERE v >= 2 AND v < 6 AND k = 'a'")
    assert seen["ft"] == [("v", ">=", 2), ("v", "<", 6), ("k", "==", "a")]
    assert out3b.column("n")[0].as_py() == 1
    # OR pushes as a disjunction group (VERDICT r4 #3): pruning is the
    # union of per-disjunct may-match, DuckDB re-applies the exact WHERE
    out4 = cat.sql("SELECT count(*) AS n FROM ft WHERE v > 5 OR k = 'c'")
    assert seen["ft"] == [("or", [[("v", ">", 5)], [("k", "==", "c")]])]
    assert out4.column("n")[0].as_py() == 2
    # BETWEEN rewrites to a pushed range
    out5 = cat.sql("SELECT count(*) AS n FROM ft WHERE v BETWEEN 2 AND 4")
    assert seen["ft"] == [("v", ">=", 2), ("v", "<=", 4)]
    assert out5.column("n")[0].as_py() == 3
    # literal IN-list pushes its [min, max] envelope; DuckDB still
    # applies the exact membership test (5.0 excluded from the answer)
    out6 = cat.sql("SELECT count(*) AS n FROM ft WHERE v IN (2, 6, 4)")
    assert seen["ft"] == [("v", ">=", 2), ("v", "<=", 6)]
    assert out6.column("n")[0].as_py() == 3
    # function-wrapped IN pushes nothing from that conjunct (unsound)
    out7 = cat.sql(
        "SELECT count(*) AS n FROM ft WHERE coalesce(v IN (2, 4), FALSE) AND v > 1"
    )
    assert seen["ft"] == [("v", ">", 1)]
    assert out7.column("n")[0].as_py() == 2
    # string IN envelope
    out8 = cat.sql("SELECT count(*) AS n FROM ft WHERE k IN ('a', 'b')")
    assert seen["ft"] == [("k", ">=", "a"), ("k", "<=", "b")]
    assert out8.column("n")[0].as_py() == 5
    # EXPLAIN-lite: the catalog records what it pushed
    assert cat.last_pushdown["predicates"]["ft"] == [("k", ">=", "a"), ("k", "<=", "b")]
    assert cat.last_pushdown["projections"]["ft"] == ["k"]
    # explain() mirrors sql()'s resolution without executing
    ex = cat.explain("SELECT k, v FROM ft WHERE v >= 4 ORDER BY v")
    assert "plan: stream" in ex and "scan ft:" in ex
    assert "v >= 4" in ex and "columns=[k, v]" in ex and "/3 after stats pruning" in ex
    ex2 = cat.explain("SELECT sum(v) AS s FROM ft")
    assert "aggregate pushdown" in ex2


def test_catalog_is_null_pushdown(ray_session, tmp_path, monkeypatch):
    """IS [NOT] NULL pushes through the NOT guard (marker rewrite) and
    prunes on null-count stats: an all-null stripe vanishes from IS NOT
    NULL scans, only it survives IS NULL scans, and results match
    DuckDB either way."""
    t = pa.table(
        {
            "a": pa.array([1, 2, None, None, 5, 6], pa.int64()),
            "b": pa.array([10.0, 20.0, 30.0, 40.0, 50.0, 60.0]),
        }
    )
    pq.write_table(t, f"{tmp_path}/t.parquet", row_group_size=2)
    ep.encode_parquet(f"{tmp_path}/t.parquet", f"{tmp_path}/enc", concurrency=1).take_all()
    cat = Catalog()
    cat.register_stripes("nt", f"{tmp_path}/enc")
    seen = {}
    orig = Catalog._scan

    def spy(self, name, columns=None, predicate=None, **kw):
        seen[name] = predicate
        return orig(self, name, columns=columns, predicate=predicate, **kw)

    monkeypatch.setattr(Catalog, "_scan", spy)
    out = cat.sql("SELECT b FROM nt WHERE a IS NOT NULL ORDER BY b")
    assert seen["nt"] == [("a", "notnull", None)]
    assert out.column("b").to_pylist() == [10.0, 20.0, 50.0, 60.0]
    assert "stripes=2/3" in cat.explain("SELECT b FROM nt WHERE a IS NOT NULL")
    out2 = cat.sql("SELECT sum(b) AS s FROM nt WHERE a IS NULL")
    assert seen["nt"] == [("a", "isnull", None)]
    assert out2.column("s")[0].as_py() == 70.0
    assert "stripes=1/3" in cat.explain("SELECT b FROM nt WHERE a IS NULL")
    # combines with range conjuncts
    out3 = cat.sql("SELECT count(*) AS n FROM nt WHERE a IS NOT NULL AND a > 1")
    assert seen["nt"] == [("a", "notnull", None), ("a", ">", 1)]
    assert out3.column("n")[0].as_py() == 3


def test_catalog_sql_aggregate_pushdown(ray_session, tmp_path, sql_both):
    """Single-table aggregates: on Ray, per-batch partials via per-worker
    DuckDB, and the driver merges partials only; in the driver, one
    fused statement. Every pushed query must equal DuckDB executed
    directly over the source table on both executors; unsafe shapes
    fall back to the streaming path (and stay correct)."""
    import duckdb

    rows = 600
    t = pa.table(
        {
            "k": pa.array([f"g{i % 7}" for i in range(rows)]),
            "v": pa.array([float(i % 50) for i in range(rows)]),
            "n": pa.array([i % 13 for i in range(rows)], pa.int64()),
        }
    )
    pq.write_table(t, f"{tmp_path}/t.parquet", row_group_size=64)
    ep.encode_parquet(f"{tmp_path}/t.parquet", f"{tmp_path}/enc", concurrency=2).take_all()
    cat = Catalog()
    cat.register_stripes("agt", f"{tmp_path}/enc")

    stats_answered = [
        # no-WHERE count: answered from manifest stats, zero decode
        "SELECT count(*) AS n FROM agt",
    ]
    pushed = [
        "SELECT count(*) AS n FROM agt WHERE v >= 0",
        "SELECT k, sum(v) AS total, count(*) AS c FROM agt GROUP BY k ORDER BY k",
        "SELECT k, min(v) AS lo, max(v) AS hi, avg(n) AS a FROM agt GROUP BY k ORDER BY k",
        "SELECT sum(CASE WHEN n > 6 THEN v ELSE 0 END) AS s FROM agt WHERE v >= 1",
        "SELECT k, round(sum(v) / count(v), 3) AS m FROM agt GROUP BY k ORDER BY m DESC, k LIMIT 3",
    ]
    pushed += [
        # HAVING filters groups on the FINAL merge (round 5): pushed too
        "SELECT k, sum(v) AS s FROM agt GROUP BY k HAVING sum(v) > 100 ORDER BY k",
        "SELECT k, count(*) AS c FROM agt GROUP BY k HAVING count(*) > 80 AND min(v) = 0 ORDER BY k",
    ]
    fallback = [
        "SELECT count(DISTINCT k) AS n FROM agt",
        "SELECT k, v FROM agt WHERE v > 48 ORDER BY v, k, n",
    ]
    con = duckdb.connect()
    con.register("agt", t)
    try:
        for q in stats_answered + pushed + fallback:
            got = sql_both(cat, q)
            want = con.sql(q).fetch_arrow_table()
            expect_plan = (
                "stats_answer"
                if q in stats_answered
                else "aggregate_pushdown"
                if q in pushed
                else "stream"
            )
            assert cat.last_plan == expect_plan, (q, cat.last_plan)
            assert got.equals(want), (q, got.to_pydict(), want.to_pydict())
    finally:
        con.close()


def test_aggregate_planner_shapes():
    """Planner accepts only decomposable single-table aggregates and
    produces partial/final SQL with stable alias naming."""
    from datafusion_orc_ray.sources import sqlagg

    sch = pa.schema([("k", pa.string()), ("v", pa.float64()), ("n", pa.int64())])
    plan = sqlagg.plan_aggregate_pushdown(
        "SELECT k, round(sum(v), 2) AS s, avg(n) AS a FROM t GROUP BY k ORDER BY s DESC",
        "t",
        sch,
    )
    assert plan is not None
    assert plan.partial_sql.startswith("SELECT k, sum(v) AS __p0")
    assert "GROUP BY k" in plan.partial_sql and "__batch" in plan.partial_sql
    assert "round(sum(__p0), 2) AS s" in plan.final_sql
    assert "/ sum(__p1_c))" in plan.final_sql
    rejected = [
        "SELECT k, v FROM t",                                  # no aggregate
        "SELECT sum(v) FROM t",                                # unaliased agg
        "SELECT count(DISTINCT k) AS n FROM t",                # distinct
        "SELECT k, sum(v) OVER () AS s FROM t",                # window
        "SELECT a.k, sum(a.v) AS s FROM t a GROUP BY a.k",     # FROM alias
        "SELECT k, sum(v) AS s FROM t GROUP BY upper(k)",      # expr group key
        "SELECT k, sum(v) AS s FROM t GROUP BY rank",          # unknown col
        "SELECT sum(v) AS s FROM (SELECT * FROM t) x",         # subquery
        "SELECT k, sum(v) AS s FROM t GROUP BY k ORDER BY count(v)",  # agg in ORDER BY
        # an aggregate without a merge rule would re-aggregate partial rows
        "SELECT k, count(*) AS c, string_agg(k, ',') AS s FROM t GROUP BY k",
        # passes every tree gate and the partial binds, but the final's
        # ungrouped `n` does not bind over the partials
        "SELECT k, sum(v) AS s, n FROM t GROUP BY k",
    ]
    for q in rejected:
        assert sqlagg.plan_aggregate_pushdown(q, "t", sch) is None, q


def test_sql_fully_pruned_scan_and_literal_safety(ray_session, tmp_path):
    """Review fixes: (1) a predicate pruning EVERY stripe returns its
    0-row / count-0 answer instead of a TypeError on the schemaless
    dataset; (2) aggregate-looking text inside a string literal is not
    rewritten by the pushdown planner; (3) the WHERE guard keeps plain
    pushdown working."""
    import ray.data as rdata

    out = str(tmp_path / "t")
    ep.encode_dataset(
        rdata.from_arrow(pa.table({"x": pa.array([1, 2, 3, 4], pa.int64())})), out
    ).materialize()
    cat = Catalog()
    cat.register_stripes("t", out)
    assert cat.sql("SELECT count(*) AS c FROM t WHERE x = 999").to_pylist() == [
        {"c": 0}
    ]
    assert cat.sql("SELECT x FROM t WHERE x = 999").num_rows == 0
    got = cat.sql("SELECT 'sum(x)' AS s, count(*) AS c FROM t").to_pylist()
    assert got == [{"s": "sum(x)", "c": 4}]


def test_catalog_sql_quoted_identifier_pushdown(ray_session, tmp_path, monkeypatch):
    """Quoted/exotic identifiers (spaces, keywords, unicode, regex
    metachars, embedded double quotes) still get single-column projection
    pushdown — not the full-width fallback (VERDICT r3 missing #2)."""
    import ray.data

    from datafusion_orc_ray.pipelines import encode as ep
    from datafusion_orc_ray.sources.stripes import Catalog

    t = pa.table(
        {
            "a b": pa.array([1, 2, 3], pa.int64()),
            "sélect": pa.array(["x", "y", "z"]),
            "from": pa.array([1.0, 2.0, 3.0]),
            "c+d": pa.array([4, 5, 6], pa.int64()),
            'we"ird': pa.array([7, 8, 9], pa.int64()),
            "plain": pa.array([10, 11, 12], pa.int64()),
        }
    )
    ep.encode_dataset(ray.data.from_arrow(t), f"{tmp_path}/enc", concurrency=1).materialize()
    cat = Catalog()
    cat.register_stripes("t", f"{tmp_path}/enc")
    seen: dict[str, list | None] = {}
    orig = Catalog._scan

    def spy(self, name, columns=None, predicate=None, **kw):
        seen[name] = columns
        return orig(self, name, columns=columns, predicate=predicate, **kw)

    monkeypatch.setattr(Catalog, "_scan", spy)
    for sql_name, raw, vals in [
        ('"a b"', "a b", [1, 2, 3]),
        ('"sélect"', "sélect", ["x", "y", "z"]),
        ('"from"', "from", [1.0, 2.0, 3.0]),
        ('"c+d"', "c+d", [4, 5, 6]),
        ('"we""ird"', 'we"ird', [7, 8, 9]),
    ]:
        seen.clear()
        got = cat.sql(f"SELECT {sql_name} AS v FROM t ORDER BY {sql_name}")
        assert seen["t"] == [raw], (sql_name, seen)
        assert got.column("v").to_pylist() == vals


def test_catalog_or_pushdown(ray_session, tmp_path, monkeypatch):
    """VERDICT r4 #3: OR/disjunction predicate pushdown. A stripe is
    pruned only when NO disjunct may match its stats (union of
    per-disjunct may-match); the residual filter evaluates the OR with
    SQL (Kleene) semantics; unsafe shapes (cross-table OR, an
    unanalyzable disjunct) push nothing from that group. Model: the
    reference feeds arbitrary DataFusion filter trees above its scan
    (src/file_source.rs:95-102)."""
    t = pa.table(
        {
            "v": pa.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            "k": pa.array(["a", "a", "b", "b", "c", "c"]),
        }
    )
    pq.write_table(t, f"{tmp_path}/t.parquet", row_group_size=2)
    ep.encode_parquet(f"{tmp_path}/t.parquet", f"{tmp_path}/enc", concurrency=1).take_all()
    cat = Catalog()
    cat.register_stripes("ot", f"{tmp_path}/enc")
    seen = {}
    orig = Catalog._scan

    def spy(self, name, columns=None, predicate=None, **kw):
        seen[name] = predicate
        return orig(self, name, columns=columns, predicate=predicate, **kw)

    monkeypatch.setattr(Catalog, "_scan", spy)
    # same-column point disjunction: middle stripe [3,4] pruned
    out = cat.sql("SELECT v FROM ot WHERE v = 1 OR v = 5 ORDER BY v")
    assert seen["ot"] == [("or", [[("v", "==", 1)], [("v", "==", 5)]])]
    assert out.column("v").to_pylist() == [1.0, 5.0]
    ex = cat.explain("SELECT v FROM ot WHERE v = 1 OR v = 5")
    assert "stripes=2/3" in ex and "OR" in ex
    # range disjunction prunes the middle stripe too
    out2 = cat.sql("SELECT count(*) AS n FROM ot WHERE v <= 1 OR v >= 6")
    assert seen["ot"] == [("or", [[("v", "<=", 1)], [("v", ">=", 6)]])]
    assert out2.column("n")[0].as_py() == 2
    # AND of a plain conjunct with a parenthesized OR group — both push
    out3 = cat.sql(
        "SELECT count(*) AS n FROM ot WHERE k = 'a' AND (v < 2 OR v > 5)"
    )
    assert seen["ot"] == [
        ("k", "==", "a"),
        ("or", [[("v", "<", 2)], [("v", ">", 5)]]),
    ]
    assert out3.column("n")[0].as_py() == 1
    # AND INSIDE a disjunct (SQL precedence: AND binds tighter)
    out4 = cat.sql(
        "SELECT count(*) AS n FROM ot WHERE v >= 2 AND v <= 3 OR k = 'c'"
    )
    assert seen["ot"] == [
        ("or", [[("v", ">=", 2), ("v", "<=", 3)], [("k", "==", "c")]])
    ]
    assert out4.column("n")[0].as_py() == 4
    # BETWEEN inside an OR rewrites to its range pair within the disjunct
    out5 = cat.sql(
        "SELECT count(*) AS n FROM ot WHERE v BETWEEN 2 AND 3 OR v = 6"
    )
    assert seen["ot"] == [
        ("or", [[("v", ">=", 2), ("v", "<=", 3)], [("v", "==", 6)]])
    ]
    assert out5.column("n")[0].as_py() == 3
    # IS NULL works as a disjunct (marker rewrite survives the OR split)
    out6 = cat.sql("SELECT count(*) AS n FROM ot WHERE v IS NULL OR v > 5")
    assert seen["ot"] == [("or", [[("v", "isnull", None)], [("v", ">", 5)]])]
    assert out6.column("n")[0].as_py() == 1
    # a disjunct that loses its only atom to an expression kills the
    # whole group (a row could match it despite any stats) — the other
    # conjuncts still push
    out7 = cat.sql(
        "SELECT count(*) AS n FROM ot WHERE v > 0 AND (v + 1 = 3 OR v = 5)"
    )
    assert seen["ot"] == [("v", ">", 0)]
    assert out7.column("n")[0].as_py() == 2
    # direct read_stripes(predicate=) accepts the or-group IR and the
    # residual filter applies exact OR semantics per row
    from datafusion_orc_ray.sources.stripes import read_stripes

    ds = read_stripes(
        f"{tmp_path}/enc",
        columns=["v"],
        predicate=[("or", [[("v", "==", 2.0)], [("k", "==", "c")]])],
    )
    got = sorted(x["v"] for x in ds.take_all())
    assert got == [2.0, 5.0, 6.0]


def test_catalog_sql_topk_pushdown(ray_session, tmp_path, sql_both):
    """Single-table ORDER BY ... LIMIT n runs as top-k: on Ray each
    batch keeps its local top-n (order keys aliased __ob{i} so partials
    can re-sort even when the select list drops them), and the driver
    re-sorts partial rows only; in the driver it is one fused
    statement. Every pushed query must equal DuckDB over the source
    table on both executors; unsafe shapes fall back to streaming."""
    import duckdb
    import math

    rows = 600
    t = pa.table(
        {
            "k": pa.array([f"g{i % 7}" for i in range(rows)]),
            "v": pa.array(
                [None if i % 97 == 0 else float((i * 37) % 211) for i in range(rows)],
                pa.float64(),
            ),
            "n": pa.array([(i * 13) % 401 for i in range(rows)], pa.int64()),
        }
    )
    pq.write_table(t, f"{tmp_path}/t.parquet", row_group_size=64)
    ep.encode_parquet(f"{tmp_path}/t.parquet", f"{tmp_path}/enc", concurrency=2).take_all()
    cat = Catalog()
    cat.register_stripes("tk", f"{tmp_path}/enc")

    pushed = [
        "SELECT k, v FROM tk ORDER BY v DESC NULLS LAST, n, k LIMIT 11",
        "SELECT * FROM tk WHERE n > 50 ORDER BY n DESC, k LIMIT 9",
        "SELECT k FROM tk ORDER BY n, k LIMIT 5",          # order col not selected
        "SELECT n + 1 AS n1, k FROM tk ORDER BY n1 DESC, k LIMIT 4",
        "SELECT k, n FROM tk ORDER BY 2 DESC, 1 LIMIT 7",  # positional keys
        "SELECT k, v FROM tk ORDER BY v ASC NULLS FIRST, n, k LIMIT 6",
        "SELECT k, n FROM tk ORDER BY n % 7, n, k LIMIT 8",  # expression key
        "SELECT n FROM tk ORDER BY n LIMIT 100000",        # limit > rows
    ]
    fallback = [
        "SELECT k, v FROM tk ORDER BY v, k, n",            # no LIMIT
        "SELECT DISTINCT k FROM tk ORDER BY k LIMIT 3",    # DISTINCT
        "SELECT n + 1 FROM tk ORDER BY n LIMIT 3",         # unaliased expression
        "SELECT n + 1 AS n FROM tk ORDER BY n LIMIT 3",    # alias shadows column
    ]

    def eq(got, want):
        ga, wa = got.to_pydict(), want.to_pydict()
        assert list(ga) == list(wa)
        for col in ga:
            for x, y in zip(ga[col], wa[col], strict=True):
                same = (x == y) or (
                    isinstance(x, float) and isinstance(y, float)
                    and math.isnan(x) and math.isnan(y)
                )
                assert same, (col, x, y)

    con = duckdb.connect()
    con.register("tk", t)
    try:
        for q in pushed + fallback:
            got = sql_both(cat, q)
            want = con.sql(q).fetch_arrow_table()
            expect_plan = "topk_pushdown" if q in pushed else "stream"
            assert cat.last_plan == expect_plan, (q, cat.last_plan)
            assert got.num_rows == want.num_rows, q
            eq(got, want)
        assert "distributed top-k pushdown" in cat.explain(pushed[0])
    finally:
        con.close()


def test_topk_planner_shapes():
    """Planner-level gates (no Ray): supported shapes produce a plan,
    unsafe shapes are vetoed."""
    from datafusion_orc_ray.sources import sqlagg

    schema = pa.schema([("a", pa.int64()), ("b", pa.string()), ("c", pa.float64())])
    ok = [
        "SELECT a, b FROM t WHERE c > 1.5 ORDER BY a DESC LIMIT 10",
        "SELECT * FROM t ORDER BY c DESC NULLS LAST, a LIMIT 5",
        "SELECT b FROM t ORDER BY a LIMIT 3",
        "SELECT upper(b) AS ub FROM t ORDER BY ub LIMIT 2",
        "SELECT a, c FROM t ORDER BY 2 DESC LIMIT 7",
    ]
    veto = [
        "SELECT a FROM t LIMIT 5",                      # no ORDER BY
        "SELECT a FROM t ORDER BY a",                   # no LIMIT
        "SELECT count(*) AS n FROM t ORDER BY n LIMIT 1",  # aggregate shape
        "SELECT a FROM t ORDER BY a LIMIT 200000",      # over the row cap
        "SELECT a + 1 FROM t ORDER BY a LIMIT 5",       # unaliased expression
        "SELECT DISTINCT a FROM t ORDER BY a LIMIT 5",
        "SELECT a FROM t ORDER BY 5 LIMIT 5",           # bad position
        "SELECT a FROM t ORDER BY a LIMIT 5 OFFSET 2",  # OFFSET unsupported
        "SELECT a+1 AS a FROM t ORDER BY a LIMIT 5",    # alias shadows column
        "SELECT -a AS A FROM t ORDER BY A LIMIT 5",     # ... in another case
        "SELECT a AS __ob0 FROM t ORDER BY a LIMIT 5",  # synthetic-name collision
        "SELECT a, b FROM t JOIN u USING (a) ORDER BY a LIMIT 5",
        "SELECT list(a) AS l FROM t ORDER BY l LIMIT 1",  # aggregate shape
    ]
    for q in ok:
        assert sqlagg.plan_topk_pushdown(q, "t", schema) is not None, q
    for q in veto:
        assert sqlagg.plan_topk_pushdown(q, "t", schema) is None, q


def test_catalog_sql_stats_answer(ray_session, tmp_path, monkeypatch):
    """count/min/max with no WHERE answer from manifest stats with ZERO
    stripes decoded: results equal DuckDB over the source table, and a
    poisoned decode path proves nothing was read."""
    import duckdb
    import datetime

    t = pa.table(
        {
            "k": pa.array(["b", "a", None, "c", "a", None]),
            "n": pa.array([5, None, 2, 9, -3, 7], pa.int64()),
            "f": pa.array([1.5, 2.5, None, 0.5, 3.5, 4.5], pa.float64()),
            "ts": pa.array(
                [datetime.datetime(2024, 1, 1 + i) for i in range(6)],
                pa.timestamp("us"),
            ),
            "allnull": pa.array([None] * 6, pa.int64()),
        }
    )
    pq.write_table(t, f"{tmp_path}/t.parquet", row_group_size=2)
    ep.encode_parquet(f"{tmp_path}/t.parquet", f"{tmp_path}/enc", concurrency=2).take_all()
    cat = Catalog()
    cat.register_stripes("st", f"{tmp_path}/enc")

    answered = [
        "SELECT count(*) AS n_rows FROM st",
        "SELECT count(k) AS nk, count(n) AS nn, count(allnull) AS na FROM st",
        "SELECT min(n) AS lo, max(n) AS hi FROM st",
        "SELECT min(k) AS lo, max(k) AS hi FROM st",       # string stats
        "SELECT min(ts) AS lo, max(ts) AS hi FROM st",     # temporal stats
        "SELECT min(allnull) AS lo FROM st",               # all-null -> NULL
        "SELECT count(*) AS a, min(n) AS b, max(k) AS c FROM st",
        "SELECT min(n) AS x, max(n) AS x FROM st",         # duplicate aliases
        "SELECT max(n) - min(n) AS span, count(*) AS c FROM st",  # final arithmetic
        "SELECT count(*) AS c FROM st HAVING count(*) > 3 ORDER BY c LIMIT 1",
        "SELECT count(*) AS c FROM st HAVING count(*) > 6",  # drops the only row
    ]
    not_answered = [
        "SELECT count(*) AS n FROM st WHERE n > 0",        # WHERE -> decode
        "SELECT min(f) AS lo FROM st",                     # float: NaN ordering
        "SELECT sum(n) AS s FROM st",                      # not stats-derivable
    ]

    con = duckdb.connect()
    con.register("st", t)
    try:
        # poison the decode path: a stats answer must not build a scan
        import datafusion_orc_ray.sources.datasource as dsrc

        real = dsrc.StripeDatasource.__init__

        def boom(self, *a, **kw):
            raise AssertionError("stats_answer must not touch the decode path")

        monkeypatch.setattr(dsrc.StripeDatasource, "__init__", boom)
        for q in answered:
            got = cat.sql(q)
            assert cat.last_plan == "stats_answer", (q, cat.last_plan)
            want = con.sql(q).fetch_arrow_table()
            assert got.equals(want), (q, got.to_pydict(), want.to_pydict())
        assert cat.sql(answered[-1]).num_rows == 0
        assert "metadata-only stats answer" in cat.explain(answered[0])
        monkeypatch.setattr(dsrc.StripeDatasource, "__init__", real)
        for q in not_answered:
            got = cat.sql(q)
            assert cat.last_plan != "stats_answer", q
            want = con.sql(q).fetch_arrow_table()
            assert got.equals(want), (q, got.to_pydict(), want.to_pydict())
    finally:
        con.close()


def test_stats_answer_temporal_unit_conversion(ray_session, tmp_path):
    """r5 review finding #1: DuckDB binds min(timestamp[ms, tz]) output
    as timestamp[us, tz] — the raw ms epoch int cast as us silently
    shifted the instant by 1000x. Epoch ints must convert exactly to
    the OUTPUT unit (or the planner must refuse)."""
    import datetime
    import duckdb

    ts = [
        datetime.datetime(2023, 11, 14, 22, 13, 20, tzinfo=datetime.timezone.utc)
        + datetime.timedelta(hours=i)
        for i in range(5)
    ]
    t = pa.table(
        {
            "ts_ms": pa.array(ts, pa.timestamp("ms", tz="UTC")),
            "ts_s": pa.array(ts, pa.timestamp("s", tz="UTC")),
            "d64": pa.array([x.date() for x in ts], pa.date64()),
            "d32": pa.array([x.date() for x in ts], pa.date32()),
        }
    )
    pq.write_table(t, f"{tmp_path}/t.parquet", row_group_size=2)
    ep.encode_parquet(f"{tmp_path}/t.parquet", f"{tmp_path}/enc", concurrency=2).take_all()
    cat = Catalog()
    cat.register_stripes("tt", f"{tmp_path}/enc")

    q = (
        "SELECT min(ts_ms) AS a, max(ts_ms) AS b, min(ts_s) AS c, "
        "min(d64) AS d, max(d32) AS e FROM tt"
    )
    got = cat.sql(q)
    con = duckdb.connect()
    try:
        con.register("tt", t)
        want = con.sql(q).fetch_arrow_table()
    finally:
        con.close()
    assert got.equals(want), (got.to_pydict(), want.to_pydict())
    # the point of the test: the values must be the REAL instants
    assert got.column("a")[0].as_py() == ts[0]
    assert cat.last_plan == "stats_answer"


def test_stats_answer_textual_precheck():
    """A stats answer is tried only for an aggregate plan whose
    ``stats`` names a manifest stat for every partial: set for each
    shape the manifest answers, unset (or no plan) for every other."""
    from datafusion_orc_ray.sources import sqlagg

    schema = pa.schema([("a", pa.int64()), ("b", pa.string()), ("k", pa.int64())])
    matching = [
        "SELECT count(*) AS n FROM t",
        "SELECT min(a) AS lo, max(a) AS hi, count(b) AS nb FROM t",
        "select COUNT(*) as n from t;",
    ]
    rejected = [
        "SELECT k FROM t WHERE k < 5",
        "SELECT count(*) AS n FROM t WHERE a > 0",
        "SELECT k, count(*) AS n FROM t GROUP BY k",
        "SELECT a FROM t ORDER BY a LIMIT 5",
        "SELECT sum(a) AS s FROM t",           # no count/min/max call
        "SELECT a, b FROM t",                  # plain projection
        "SELECT count(DISTINCT a) AS n FROM t",
    ]
    for q in matching:
        assert sqlagg.plan_aggregate_pushdown(q, "t", schema).stats, q
    for q in rejected:
        plan = sqlagg.plan_aggregate_pushdown(q, "t", schema)
        assert plan is None or plan.stats is None, q


def test_catalog_sql_semijoin_prefilter(ray_session, tmp_path, monkeypatch, sql_both):
    """Two-table INNER equi-join with a small side: the big scan sheds
    non-joining rows worker-side (semi-join reduction) and every query
    still equals DuckDB over the raw tables; unsafe shapes stay on the
    plain stream path."""
    import duckdb

    n_big, n_small = 5000, 40
    big = pa.table(
        {
            "k": pa.array([i % 400 for i in range(n_big)], pa.int64()),
            "v": pa.array([float(i) for i in range(n_big)]),
        }
    )
    small = pa.table(
        {
            "k": pa.array(list(range(0, 80, 2)), pa.int64()),  # 40 keys: 0..78 even
            "tag": pa.array([f"t{i}" for i in range(n_small)]),
        }
    )
    pq.write_table(big, f"{tmp_path}/big.parquet", row_group_size=500)
    pq.write_table(small, f"{tmp_path}/small.parquet", row_group_size=20)
    ep.encode_parquet(f"{tmp_path}/big.parquet", f"{tmp_path}/ebig", concurrency=2).take_all()
    ep.encode_parquet(f"{tmp_path}/small.parquet", f"{tmp_path}/esmall", concurrency=2).take_all()
    cat = Catalog()
    cat.register_stripes("big_t", f"{tmp_path}/ebig")
    cat.register_stripes("small_t", f"{tmp_path}/esmall")
    # the bench tables are tiny: drop the asymmetry/byte gates so the
    # path engages (their thresholds are exercised by the gate test below)
    monkeypatch.setattr(Catalog, "_PREFILTER_ASYMMETRY", 1)

    prefiltered = [
        # NON-aggregate joins: the join-agg pushdown doesn't apply, the
        # semijoin prefilter does
        "SELECT big_t.k, v, tag FROM big_t JOIN small_t ON big_t.k = small_t.k ORDER BY v",
        "SELECT big_t.k AS k, v, tag FROM big_t JOIN small_t ON small_t.k = big_t.k "
        "WHERE v > 100 ORDER BY v, tag",
    ]
    join_agg = [
        # aggregate joins take the STRONGER distributed join-agg path
        "SELECT b.k AS k, sum(v) AS s FROM big_t b JOIN small_t s ON b.k = s.k GROUP BY b.k ORDER BY k",
        "SELECT count(*) AS n FROM big_t JOIN small_t USING (k)",
        "SELECT tag, count(*) AS n FROM big_t JOIN small_t ON small_t.k = big_t.k "
        "WHERE v > 100 GROUP BY tag ORDER BY tag",
    ]
    plain = [
        "SELECT count(*) AS n FROM big_t LEFT JOIN small_t ON big_t.k = small_t.k",
        "SELECT count(*) AS n FROM big_t, small_t WHERE big_t.k = small_t.k",  # no JOIN kw
    ]
    con = duckdb.connect()
    con.register("big_t", big)
    con.register("small_t", small)
    try:
        for q in prefiltered:
            got = sql_both(cat, q)
            assert cat.last_plan == "stream+semijoin_prefilter", (q, cat.last_plan)
            info = cat.last_pushdown["semijoin_prefilter"]
            assert info["big"] == "big_t" and info["small"] == "small_t"
            assert info["n_keys"] == n_small
            want = con.sql(q).fetch_arrow_table()
            assert got.equals(want), (q, got.to_pydict(), want.to_pydict())
        for q in join_agg:
            got = sql_both(cat, q)
            assert cat.last_plan == "join_aggregate_pushdown", (q, cat.last_plan)
            want = con.sql(q).fetch_arrow_table()
            assert got.equals(want), (q, got.to_pydict(), want.to_pydict())
        for q in plain:
            got = sql_both(cat, q)
            assert cat.last_plan == "stream", (q, cat.last_plan)
            want = con.sql(q).fetch_arrow_table()
            assert got.equals(want), q
        assert "semi-join prefilter candidate" in cat.explain(prefiltered[0])
    finally:
        con.close()


def test_semijoin_prefilter_gates(ray_session, tmp_path, sql_both):
    """Near-symmetric sides refuse the prefilter (the key pass would not
    pay); the result is still correct on the plain path."""
    t = pa.table({"k": pa.array(list(range(100)), pa.int64())})
    pq.write_table(t, f"{tmp_path}/a.parquet")
    pq.write_table(t, f"{tmp_path}/b.parquet")
    ep.encode_parquet(f"{tmp_path}/a.parquet", f"{tmp_path}/ea", concurrency=1).take_all()
    ep.encode_parquet(f"{tmp_path}/b.parquet", f"{tmp_path}/eb", concurrency=1).take_all()
    cat = Catalog()
    cat.register_stripes("ta", f"{tmp_path}/ea")
    cat.register_stripes("tb", f"{tmp_path}/eb")
    # aggregate join: the join-agg pushdown has no asymmetry gate (the
    # partial-agg win doesn't depend on side sizes), only smallness
    got = sql_both(cat, "SELECT count(*) AS n FROM ta JOIN tb ON ta.k = tb.k")
    assert cat.last_plan == "join_aggregate_pushdown"
    assert got.column("n")[0].as_py() == 100
    # non-aggregate join between near-equal sides: the prefilter's
    # asymmetry gate refuses, plain streaming answers
    got2 = sql_both(cat, "SELECT ta.k AS k FROM ta JOIN tb ON ta.k = tb.k ORDER BY ta.k")
    assert cat.last_plan == "stream"
    assert got2.num_rows == 100


def test_join_prefilter_planner_shapes():
    from datafusion_orc_ray.sources import sqlagg

    s1 = pa.schema([("k", pa.int64()), ("v", pa.float64())])
    s2 = pa.schema([("k", pa.int64()), ("tag", pa.string())])
    schemas = {"t1": s1, "t2": s2}
    ok = [
        "SELECT * FROM t1 JOIN t2 ON t1.k = t2.k",
        "SELECT * FROM t1 a JOIN t2 b ON a.k = b.k WHERE v > 0 ORDER BY v LIMIT 5",
        "SELECT * FROM t1 JOIN t2 USING (k)",
        "SELECT * FROM t1 JOIN t2 ON v = tag",  # resolves... type mismatch -> veto
    ]
    assert sqlagg.plan_join_prefilter(ok[0], schemas) == ("t1", "k", "t2", "k")
    assert sqlagg.plan_join_prefilter(ok[1], schemas) == ("t1", "k", "t2", "k")
    assert sqlagg.plan_join_prefilter(ok[2], schemas) == ("t1", "k", "t2", "k")
    assert sqlagg.plan_join_prefilter(ok[3], schemas) is None  # float vs string
    veto = [
        "SELECT * FROM t1 LEFT JOIN t2 ON t1.k = t2.k",
        "SELECT * FROM t1 JOIN t2 ON t1.k = t2.k JOIN t1 x ON x.k = t2.k",
        "SELECT * FROM t1 JOIN t2 ON t1.k < t2.k",          # non-equi
        "SELECT * FROM t1 JOIN t2 ON k = k",                # ambiguous bare refs
        "SELECT * FROM t1 JOIN t1 b ON t1.k = b.k",         # self join
        "SELECT * FROM t1 JOIN t2 ON t1.k = t2.k WHERE k IN (SELECT k FROM t1)",
        "SELECT * FROM t1 JOIN T1 b ON t1.k = b.k",         # self join in another case
        "SELECT * FROM t1 a JOIN t2 ON t1.k = t2.k",        # t1 is known as a: no bind
    ]
    for q in veto:
        assert sqlagg.plan_join_prefilter(q, schemas) is None, q
    # the join planners bind names in any case, as DuckDB does
    assert sqlagg.plan_join_prefilter(
        "SELECT * FROM T1 A JOIN \"T2\" ON a.k = t2.k", schemas
    ) == ("t1", "k", "t2", "k")
    assert sqlagg.plan_join_aggregate(
        "SELECT count(*) AS n FROM t1 a JOIN t2 ON t1.k = t2.k", schemas
    ) is None


def test_catalog_sql_join_aggregate_pushdown(ray_session, tmp_path, sql_both):
    """Two-table inner equi-join + decomposable aggregate: on Ray, a
    broadcast small side, per-batch Acero join + DuckDB partial on the
    workers, and the driver merges partials only; in the driver, one
    fused statement. Every pushed query equals DuckDB over the raw
    tables on both executors; a non-aggregate join takes another plan
    and stays correct."""
    import duckdb

    n_big = 4000
    big = pa.table(
        {
            "k": pa.array([i % 50 for i in range(n_big)], pa.int64()),
            "v": pa.array([float(i % 97) for i in range(n_big)]),
        }
    )
    small = pa.table(
        {
            "ck": pa.array(list(range(50)), pa.int64()),
            "seg": pa.array([f"s{i % 5}" for i in range(50)]),
        }
    )
    pq.write_table(big, f"{tmp_path}/big.parquet", row_group_size=400)
    pq.write_table(small, f"{tmp_path}/small.parquet", row_group_size=20)
    ep.encode_parquet(f"{tmp_path}/big.parquet", f"{tmp_path}/eb", concurrency=2).take_all()
    ep.encode_parquet(f"{tmp_path}/small.parquet", f"{tmp_path}/es", concurrency=2).take_all()
    cat = Catalog()
    cat.register_stripes("big_t", f"{tmp_path}/eb")
    cat.register_stripes("small_t", f"{tmp_path}/es")

    pushed = [
        "SELECT seg, count(*) AS n, sum(v) AS s FROM big_t JOIN small_t ON k = ck "
        "GROUP BY seg ORDER BY seg",
        "SELECT seg, round(avg(v), 3) AS m FROM big_t b JOIN small_t s ON b.k = s.ck "
        "WHERE v > 10 GROUP BY seg ORDER BY m DESC, seg LIMIT 3",
        "SELECT count(*) AS n, min(v) AS lo, max(v) AS hi FROM big_t JOIN small_t ON k = ck",
        "SELECT seg, count(*) AS n FROM big_t JOIN small_t ON small_t.ck = big_t.k "
        "WHERE seg <> 's1' GROUP BY seg ORDER BY seg",
    ]
    con = duckdb.connect()
    con.register("big_t", big)
    con.register("small_t", small)
    try:
        for q in pushed:
            got = sql_both(cat, q)
            assert cat.last_plan == "join_aggregate_pushdown", (q, cat.last_plan)
            want = con.sql(q).fetch_arrow_table()
            assert got.equals(want), (q, got.to_pydict(), want.to_pydict())
        # a filtered-to-empty big side still returns the right identity
        got0 = sql_both(
            cat, "SELECT count(*) AS n FROM big_t JOIN small_t ON k = ck WHERE v > 1e9"
        )
        assert cat.last_plan == "join_aggregate_pushdown"
        assert got0.column("n").to_pylist() == [0]
        # non-aggregate join: another plan (join top-k here), correct
        q2 = "SELECT k, v, seg FROM big_t JOIN small_t ON k = ck ORDER BY v, k, seg LIMIT 7"
        got2 = sql_both(cat, q2)
        assert cat.last_plan != "join_aggregate_pushdown"
        assert got2.equals(con.sql(q2).fetch_arrow_table())
    finally:
        con.close()


def test_explain_join_aggregate(ray_session, tmp_path):
    t = pa.table({"k": pa.array([1, 2], pa.int64())})
    u = pa.table({"ck": pa.array([1], pa.int64()), "g": pa.array(["x"])})
    pq.write_table(t, f"{tmp_path}/t.parquet")
    pq.write_table(u, f"{tmp_path}/u.parquet")
    ep.encode_parquet(f"{tmp_path}/t.parquet", f"{tmp_path}/et", concurrency=1).take_all()
    ep.encode_parquet(f"{tmp_path}/u.parquet", f"{tmp_path}/eu", concurrency=1).take_all()
    cat = Catalog()
    cat.register_stripes("jt", f"{tmp_path}/et")
    cat.register_stripes("ju", f"{tmp_path}/eu")
    plan = cat.explain("SELECT g, count(*) AS n FROM jt JOIN ju ON k = ck GROUP BY g")
    assert "distributed join-aggregate pushdown" in plan


def test_catalog_sql_join_topk_pushdown(ray_session, tmp_path, sql_both):
    """ORDER BY ... LIMIT over a two-table inner equi-join: on Ray each
    batch joins against the broadcast small side and keeps its local
    top-n, and the driver re-sorts partials only; in the driver it is
    one fused statement. Both executors equal DuckDB over the raw
    tables."""
    import duckdb

    big = pa.table(
        {
            "k": pa.array([i % 30 for i in range(2000)], pa.int64()),
            "v": pa.array([float((i * 13) % 997) for i in range(2000)]),
        }
    )
    small = pa.table(
        {
            "ck": pa.array(list(range(30)), pa.int64()),
            "tag": pa.array([f"t{i % 4}" for i in range(30)]),
        }
    )
    pq.write_table(big, f"{tmp_path}/b.parquet", row_group_size=250)
    pq.write_table(small, f"{tmp_path}/s.parquet")
    ep.encode_parquet(f"{tmp_path}/b.parquet", f"{tmp_path}/eb", concurrency=2).take_all()
    ep.encode_parquet(f"{tmp_path}/s.parquet", f"{tmp_path}/es", concurrency=1).take_all()
    cat = Catalog()
    cat.register_stripes("bt", f"{tmp_path}/eb")
    cat.register_stripes("st2", f"{tmp_path}/es")

    con = duckdb.connect()
    con.register("bt", big)
    con.register("st2", small)
    try:
        for q in [
            "SELECT bt.k AS k, v, tag FROM bt JOIN st2 ON k = ck "
            "ORDER BY v DESC, k, tag LIMIT 9",
            "SELECT tag, v FROM bt JOIN st2 ON st2.ck = bt.k "
            "WHERE v > 100 ORDER BY v, tag LIMIT 5",
            # the small side first: a joined batch holds the big side's
            # columns first, the star's output the small side's
            "SELECT * FROM st2 JOIN bt ON ck = k ORDER BY v DESC, k LIMIT 7",
        ]:
            got = sql_both(cat, q)
            assert cat.last_plan == "join_topk_pushdown", (q, cat.last_plan)
            want = con.sql(q).fetch_arrow_table()
            assert got.equals(want), (q, got.to_pydict(), want.to_pydict())
    finally:
        con.close()


def test_having_pushdown_shapes():
    """HAVING rewrites onto the final merge; its aggregates extend the
    partial list; per-batch semantics never leak (a group passing
    globally but failing per batch must survive)."""
    import duckdb

    from datafusion_orc_ray.sources import sqlagg

    schema = pa.schema([("k", pa.string()), ("v", pa.float64())])
    p = sqlagg.plan_aggregate_pushdown(
        "SELECT k, sum(v) AS s FROM t GROUP BY k HAVING count(*) > 2 ORDER BY k",
        "t",
        schema,
    )
    assert p is not None
    assert "HAVING" in p.final_sql and "HAVING" not in p.partial_sql
    assert "__p1" in p.final_sql  # count(*) became its own partial column

    # global-vs-batch semantics: group 'a' fails HAVING in every batch
    # alone but passes on the merged totals
    t = pa.table({"k": pa.array(["a"] * 6), "v": pa.array([1.0] * 6)})
    fn = sqlagg.run_partial(p.partial_sql)
    partials = pa.concat_tables([fn(t.slice(i, 1)) for i in range(6)])
    con = duckdb.connect()
    try:
        con.register("__partials", partials)
        got = con.sql(p.final_sql).fetch_arrow_table()
    finally:
        con.close()
    assert got.column("k").to_pylist() == ["a"] and got.column("s")[0].as_py() == 6.0

    # HAVING on a topk shape (no aggregate) still vetoes the topk planner
    assert (
        sqlagg.plan_topk_pushdown(
            "SELECT k FROM t GROUP BY k HAVING k > 'a' ORDER BY k LIMIT 3", "t", schema
        )
        is None
    )


def test_r5_review2_fixes(ray_session, tmp_path, sql_both):
    """Second-review regressions: (1) qualifier stripping must not touch
    string literals; (2) SELECT * over a same-name ON join vetoes (the
    joined batch coalesces the key, DuckDB's streaming star keeps both);
    (3) explain() reports join top-k exactly as sql() runs it; (4) a
    HAVING referencing an alias that shadows a real column vetoes (the
    streaming path errors — pushdown must not answer)."""
    import duckdb

    from datafusion_orc_ray.sources import sqlagg

    s1 = pa.schema([("k", pa.int64()), ("v", pa.float64()), ("tag", pa.string())])
    s2 = pa.schema([("k", pa.int64()), ("g", pa.string())])
    s3 = pa.schema([("ck", pa.int64()), ("g", pa.string())])

    # (1) literal containing alias-dot survives the rewrite
    q = ("SELECT count(*) AS n FROM t1 o JOIN t2 ON o.k = ck "
         "WHERE tag = 'o.k.' GROUP BY g")
    plan = sqlagg.plan_join_aggregate(q, {"t1": s1, "t2": s3})
    assert plan is not None
    assert "'o.k.'" in plan.agg.partial_sql  # literal untouched

    # (2) same-name ON join + star: veto; USING star: allowed
    assert sqlagg.plan_join_topk(
        "SELECT * FROM t1 JOIN t2 ON t1.k = t2.k ORDER BY v LIMIT 5",
        {"t1": s1, "t2": s2},
    ) is None
    assert sqlagg.plan_join_topk(
        "SELECT * FROM t1 JOIN t2 USING (k) ORDER BY v LIMIT 5",
        {"t1": s1, "t2": s2},
    ) is not None

    # (4) HAVING over a shadowing alias vetoes
    sch = pa.schema([("k", pa.string()), ("v", pa.float64())])
    assert sqlagg.plan_aggregate_pushdown(
        "SELECT k, sum(v) AS v FROM t GROUP BY k HAVING v > 5", "t", sch
    ) is None
    assert sqlagg.plan_aggregate_pushdown(  # the alias shadows v in any case
        "SELECT k, sum(v) AS V FROM t GROUP BY k HAVING V > 5", "t", sch
    ) is None
    # non-shadowing alias in HAVING still pushes
    assert sqlagg.plan_aggregate_pushdown(
        "SELECT k, sum(v) AS s FROM t GROUP BY k HAVING s > 5", "t", sch
    ) is not None

    # (3) explain mirrors sql for a join top-k query
    big = pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                    "v": pa.array([1.0, 2.0, 3.0])})
    small = pa.table({"ck": pa.array([1, 2], pa.int64()),
                      "g": pa.array(["x", "y"])})
    pq.write_table(big, f"{tmp_path}/b.parquet")
    pq.write_table(small, f"{tmp_path}/s.parquet")
    ep.encode_parquet(f"{tmp_path}/b.parquet", f"{tmp_path}/eb", concurrency=1).take_all()
    ep.encode_parquet(f"{tmp_path}/s.parquet", f"{tmp_path}/es", concurrency=1).take_all()
    cat = Catalog()
    cat.register_stripes("bt3", f"{tmp_path}/eb")
    cat.register_stripes("st3", f"{tmp_path}/es")
    jq = "SELECT bt3.k AS k, v, g FROM bt3 JOIN st3 ON k = ck ORDER BY v LIMIT 2"
    assert "distributed join top-k pushdown" in cat.explain(jq)
    got = sql_both(cat, jq)
    assert cat.last_plan == "join_topk_pushdown"
    con = duckdb.connect()
    try:
        con.register("bt3", big)
        con.register("st3", small)
        assert got.equals(con.sql(jq).fetch_arrow_table())
    finally:
        con.close()


def test_join_small_side_projection_applied(ray_session, tmp_path):
    """r5 review #3: the broadcast small side must collect only the
    query's resolved columns + join key, not full width."""
    big = pa.table({"k": pa.array([i % 5 for i in range(2000)], pa.int64()),
                    "v": pa.array([float(i) for i in range(2000)])})
    small = pa.table({
        "ck": pa.array([1, 2], pa.int64()),
        "g": pa.array(["x", "y"]),
        "wide_unused": pa.array(["W" * 64] * 2),
    })
    pq.write_table(big, f"{tmp_path}/b.parquet")
    pq.write_table(small, f"{tmp_path}/s.parquet")
    ep.encode_parquet(f"{tmp_path}/b.parquet", f"{tmp_path}/eb", concurrency=1).take_all()
    ep.encode_parquet(f"{tmp_path}/s.parquet", f"{tmp_path}/es", concurrency=1).take_all()
    cat = Catalog()
    cat.register_stripes("bt4", f"{tmp_path}/eb")
    cat.register_stripes("st4", f"{tmp_path}/es")

    q = "SELECT g, sum(v) AS s FROM bt4 JOIN st4 ON k = ck GROUP BY g ORDER BY g"
    p = cat._plan(q)
    cat.last_pushdown = {"scans": {}}  # the small side's scan records here
    jp = p["plan"]
    prepared = cat._collect_small_side(p, (jp.t1, jp.k1, jp.t2, jp.k2))
    assert prepared is not None
    small_tbl = prepared[-1]
    assert sorted(small_tbl.column_names) == ["ck", "g"]  # wide_unused pruned


def test_join_aggregate_dotted_column_name(ray_session, tmp_path, sql_both):
    """A column whose NAME contains a dot ("t1.x") is not a qualified
    reference: the join rewrite must sum that column, not t1's x."""
    import duckdb
    import ray.data

    t1 = pa.table({
        "k": pa.array([1, 2, 3, 1], pa.int64()),
        "x": pa.array([1000, 2000, 3000, 4000], pa.int64()),
        "t1.x": pa.array([1, 2, 3, 4], pa.int64()),
    })
    t2 = pa.table({"k": pa.array([1, 2, 3], pa.int64()), "g": pa.array(["a", "b", "a"])})
    ep.encode_dataset(ray.data.from_arrow(t1), f"{tmp_path}/e1", concurrency=1).materialize()
    ep.encode_dataset(ray.data.from_arrow(t2), f"{tmp_path}/e2", concurrency=1).materialize()
    cat = Catalog()
    cat.register_stripes("t1", f"{tmp_path}/e1")
    cat.register_stripes("t2", f"{tmp_path}/e2")
    q = 'SELECT g, sum("t1.x") AS s FROM t1 JOIN t2 USING (k) GROUP BY g ORDER BY g'
    got = sql_both(cat, q)
    assert cat.last_plan == "join_aggregate_pushdown"
    con = duckdb.connect()
    try:
        con.register("t1", t1)
        con.register("t2", t2)
        want = con.sql(q).fetch_arrow_table()
    finally:
        con.close()
    assert got.equals(want), (got.to_pydict(), want.to_pydict())


def test_table_name_in_literal_is_not_a_reference(ray_session, tmp_path, sql_both):
    """A registered table's name inside a string literal does not make
    the query a two-table query: the single-table pushdown still runs."""
    import duckdb
    import ray.data

    lineitem = pa.table({
        "l_orderkey": pa.array([1, 2, 3, 4], pa.int64()),
        "l_comment": pa.array(["orders", "x", "orders", "y"]),
    })
    orders = pa.table({"o_orderkey": pa.array([1, 2], pa.int64())})
    ep.encode_dataset(ray.data.from_arrow(lineitem), f"{tmp_path}/l", concurrency=1).materialize()
    ep.encode_dataset(ray.data.from_arrow(orders), f"{tmp_path}/o", concurrency=1).materialize()
    cat = Catalog()
    cat.register_stripes("lineitem", f"{tmp_path}/l")
    cat.register_stripes("orders", f"{tmp_path}/o")
    q = "SELECT count(*) AS n FROM lineitem WHERE l_comment = 'orders'"
    got = sql_both(cat, q)
    assert cat.last_plan == "aggregate_pushdown"
    assert cat.last_pushdown["predicates"] == {"lineitem": [("l_comment", "==", "orders")]}
    con = duckdb.connect()
    try:
        con.register("lineitem", lineitem)
        assert got.equals(con.sql(q).fetch_arrow_table())
    finally:
        con.close()


STATS_Q = "SELECT count(*) AS n, min(k) AS lo, max(k) AS hi, max(s) AS top FROM t"


def _stats_rows(lo: int, hi: int, tag: str = "s") -> pa.Table:
    return pa.table({
        "k": pa.array(range(lo, hi), pa.int64()),
        "s": pa.array([f"{tag}{i:04d}" for i in range(lo, hi)]),
    })


def _stats_catalog(out: str, parts: list) -> Catalog:
    """A catalog whose table ``t`` is one stripe per table of ``parts``."""
    from datafusion_orc_ray.stages.encode import StripeEncoder

    for part in parts:
        StripeEncoder(out).encode_split(part)
    cat = Catalog()
    cat.register_stripes("t", out)
    return cat


def _duckdb(rows: pa.Table, q: str) -> pa.Table:
    import duckdb

    con = duckdb.connect()
    try:
        con.register("t", rows)
        return con.sql(q).fetch_arrow_table()
    finally:
        con.close()


def test_a_kept_stats_answer_reads_no_stats(tmp_path, monkeypatch):
    """A stats answer is kept in the result store: the repeat returns the
    kept table ("reused", still a "stats_answer") without parsing a
    manifest entry's stats or running the final merge, and
    ``last_pushdown["stats"]`` names the table and the manifest rows
    that answered it."""
    from datafusion_orc_ray.state import manifest

    parts = [_stats_rows(0, 50), _stats_rows(50, 100)]
    cat = _stats_catalog(str(tmp_path / "t"), parts)
    first = cat.sql(STATS_Q)
    assert first.equals(_duckdb(pa.concat_tables(parts), STATS_Q))
    record = {"table": "t", "stripes": 2}
    assert (cat.last_plan, cat.last_pushdown["result"]) == ("stats_answer", "stored")
    assert (cat.last_pushdown["stats"], cat.last_pushdown["scans"]) == (record, {})
    calls: list = []
    monkeypatch.setattr(stripes, "_run", lambda *a: calls.append("run"))
    monkeypatch.setattr(manifest, "column_stats", lambda e: calls.append("column_stats"))
    assert cat.sql(STATS_Q) is first
    assert (cat.last_plan, cat.last_pushdown["result"]) == ("stats_answer", "reused")
    assert cat.last_pushdown["stats"] == record
    assert calls == []
    assert cat.store_stats()["results"] == {
        "hits": 1, "misses": 1, "entries": 1, "weight": first.nbytes, "bound": 32 << 20,
    }


def _rewrite_last_stripe(out: str, rows: pa.Table) -> None:
    """Rewrite ``out``'s last stripe with ``rows`` under its own id, path
    and ordinal: the same manifest row name with other stats."""
    from datafusion_orc_ray.stages.encode import StripeEncoder
    from datafusion_orc_ray.state import manifest

    e = manifest.load_manifest(out)[-1]
    blob, row = manifest.stripe_paths(out, e["stripe_id"])
    os.remove(blob)
    os.remove(row)
    StripeEncoder(out).encode_one(rows, e["stripe_id"], e["ordinal"])
    assert manifest.load_manifest(out)[-1]["path"] == e["path"]


@pytest.mark.parametrize("change", ["append", "compact", "rewrite"])
def test_a_kept_stats_answer_follows_its_manifest_rows(ray_session, tmp_path, change):
    """A kept stats answer is keyed on the manifest rows it was computed
    from: after an appended stripe, a compaction or a stripe rewritten
    under its own name with other values, the next call computes and
    stores DuckDB's answer over the new rows, and the one after reuses
    it."""
    out = str(tmp_path / "t")
    parts = [_stats_rows(0, 50), _stats_rows(50, 100)]
    cat = _stats_catalog(out, parts)
    for _ in range(2):
        cat.sql(STATS_Q)
    assert cat.last_pushdown["result"] == "reused"
    if change == "append":
        parts.append(_stats_rows(100, 130, "z"))
        _stats_catalog(out, parts[-1:])
    elif change == "compact":
        assert ep.compact_stripes(out, target_bytes=1 << 30) == 1
    else:
        parts[-1] = _stats_rows(500, 550, "z")
        _rewrite_last_stripe(out, parts[-1])
    want = _duckdb(pa.concat_tables(parts), STATS_Q)
    stripes_used = {"append": 3, "compact": 1, "rewrite": 2}[change]
    for result in ("stored", "reused"):
        assert cat.sql(STATS_Q).equals(want), change
        assert (cat.last_plan, cat.last_pushdown["result"]) == ("stats_answer", result)
        assert cat.last_pushdown["stats"] == {"table": "t", "stripes": stripes_used}


def test_a_stripe_without_an_exact_stat_falls_back(tmp_path, monkeypatch):
    """A stripe appended with a string longer than the exact-stat limit
    records only ``*_bound`` stats for it: the next call is no stats
    answer but an aggregate pushdown that decodes the stripes, and
    gives DuckDB's answer over every row. That verdict is kept under
    the manifest rows, so a repeat parses no manifest entry's stats and
    counts no result-store miss."""
    out = str(tmp_path / "t")
    parts = [_stats_rows(0, 50), _stats_rows(50, 100)]
    cat = _stats_catalog(out, parts)
    cat.sql(STATS_Q)
    assert cat.last_plan == "stats_answer"
    long = pa.table({"k": pa.array([7], pa.int64()), "s": pa.array(["z" * 60])})
    parts.append(long)
    _stats_catalog(out, [long])
    from datafusion_orc_ray.state import manifest

    stats = manifest.column_stats(manifest.load_manifest(out)[-1])["s"]
    assert "max_bound" in stats and "max" not in stats
    column_stats = manifest.column_stats
    parsed: list = []

    def counted(e):
        parsed.append(e["path"])
        return column_stats(e)

    monkeypatch.setattr(manifest, "column_stats", counted)
    for i in range(2):
        misses = cat.store_stats()["results"]["misses"]
        got = cat.sql(STATS_Q)
        assert cat.last_plan == "aggregate_pushdown"
        assert "stats" not in cat.last_pushdown
        assert got.equals(_duckdb(pa.concat_tables(parts), STATS_Q))
        if i:  # the repeat
            assert parsed == []
            assert cat.store_stats()["results"]["misses"] == misses
        parsed.clear()
    assert cat.last_pushdown["result"] == "reused"
    assert got.column("top").to_pylist() == ["z" * 60]


def test_explain_of_a_stats_query_runs_no_duckdb(tmp_path, monkeypatch):
    """explain() plans WITHOUT executing: on a stats query it labels the
    metadata-only answer from whether the stripes' partials build, and
    neither runs the final merge nor touches the result store."""
    cat = _stats_catalog(str(tmp_path / "t"), [_stats_rows(0, 50), _stats_rows(50, 100)])

    def run(*a):
        raise AssertionError("explain ran the final merge")

    monkeypatch.setattr(stripes, "_run", run)
    assert cat.explain(STATS_Q).startswith("plan: metadata-only stats answer")
    results = cat.store_stats()["results"]
    assert (results["hits"], results["misses"]) == (0, 0)


def test_stats_answer_entry_without_row_count_raises():
    """A manifest entry with neither n_rows nor rows is corrupt: the
    stats answer names its stripe instead of silently falling back."""
    from datafusion_orc_ray.sources import sqlagg

    schema = pa.schema([("a", pa.int64())])
    plan = sqlagg.plan_aggregate_pushdown("SELECT count(*) AS n FROM t", "t", schema)
    entries = [{"path": "/data/stripe-00007.orc", "columns_json": "[]"}]
    with pytest.raises(ValueError, match="stripe-00007"):
        sqlagg.plan_stats_answer(plan, schema, entries)


def test_positional_join_pushes_no_filter(ray_session, tmp_path):
    """A POSITIONAL join pairs rows by position: a WHERE on one side
    pushed below the join would shift every later pairing."""
    import duckdb
    import ray.data

    t1 = pa.table({"a": pa.array([1, 2], pa.int64())})
    t2 = pa.table({"b": pa.array([1, 10], pa.int64())})
    ep.encode_dataset(ray.data.from_arrow(t1), f"{tmp_path}/e1", concurrency=1).materialize()
    ep.encode_dataset(ray.data.from_arrow(t2), f"{tmp_path}/e2", concurrency=1).materialize()
    cat = Catalog()
    cat.register_stripes("t1", f"{tmp_path}/e1")
    cat.register_stripes("t2", f"{tmp_path}/e2")
    q = "SELECT a, b FROM t1 POSITIONAL JOIN t2 WHERE b > 5"
    got = cat.sql(q)
    assert cat.last_pushdown["predicates"] == {"t1": None, "t2": None}
    con = duckdb.connect()
    try:
        con.register("t1", t1)
        con.register("t2", t2)
        want = con.sql(q).fetch_arrow_table()
    finally:
        con.close()
    assert want.to_pydict() == {"a": [2], "b": [10]}
    assert got.equals(want), got.to_pydict()


def test_semijoin_prefilter_decodes_small_side_once(tmp_path, monkeypatch):
    """The prefilter takes its keys from the small side's one collected
    scan and hands DuckDB that same table: each small stripe decodes
    once per query."""
    from datafusion_orc_ray import stripe
    from datafusion_orc_ray.stages.encode import StripeEncoder

    big = pa.table({"id": pa.array(range(4000)), "fk": pa.array([i % 50 for i in range(4000)])})
    small = pa.table({"dk": pa.array(range(0, 20, 2)), "name": [f"n{i}" for i in range(10)]})
    enc = StripeEncoder(f"{tmp_path}/big")
    for lo in range(0, 4000, 1000):
        enc.encode_split(big.slice(lo, 1000))
    StripeEncoder(f"{tmp_path}/small").encode_split(small)
    cat = Catalog()
    cat.register_stripes("big", f"{tmp_path}/big")
    cat.register_stripes("small", f"{tmp_path}/small")
    calls = []
    decode_file = stripe.decode_file

    def counted(path, *a, **kw):
        calls.append(path)
        return decode_file(path, *a, **kw)

    monkeypatch.setattr(stripe, "decode_file", counted)
    q = "SELECT id, name FROM big JOIN small ON fk = dk WHERE id >= 10 ORDER BY id"
    got = cat.sql(q)
    assert cat.last_plan == "stream+semijoin_prefilter"
    assert sum(p.startswith(f"{tmp_path}/small") for p in calls) == 1, calls
    assert sum(p.startswith(f"{tmp_path}/big") for p in calls) == 4, calls
    names = dict(zip(small.column("dk").to_pylist(), small.column("name").to_pylist()))
    want = [(i, names[i % 50]) for i in range(10, 4000) if i % 50 in names]
    assert list(zip(got.column("id").to_pylist(), got.column("name").to_pylist())) == want


def test_decimal_predicates_through_sql(ray_session, tmp_path, sql_both):
    """Comparisons of a decimal(15,2) column against fractional literals
    keep the right rows on both executors, for a filtered count and sum,
    an equality, a BETWEEN, a grouped aggregate and a top-k. DuckDB 1.0
    evaluates such a comparison wrongly when it pushes it into its Arrow
    scan (``d > 0.03`` kept 0.01, ``d = 0.05`` kept nothing)."""
    from decimal import Decimal

    t = pa.table({
        "k": pa.array([1, 2, 3], pa.int64()),
        "g": pa.array(["a", "b", "a"]),
        "d": pa.array([Decimal("0.01"), Decimal("0.05"), Decimal("0.10")], pa.decimal128(15, 2)),
    })
    pq.write_table(t, f"{tmp_path}/t.parquet", row_group_size=2)  # two stripes
    ep.encode_parquet(f"{tmp_path}/t.parquet", f"{tmp_path}/enc", concurrency=1).take_all()
    cat = Catalog()
    cat.register_stripes("t", f"{tmp_path}/enc")
    assert len(stripes.manifest.load_manifest(f"{tmp_path}/enc")) == 2
    cases = [
        ("SELECT count(*) AS n FROM t WHERE d > 0.03", {"n": [2]}),
        ("SELECT count(*) AS n FROM t WHERE d = 0.05", {"n": [1]}),
        ("SELECT count(*) AS n FROM t WHERE d BETWEEN 0.02 AND 0.06", {"n": [1]}),
        ("SELECT sum(k) AS s FROM t WHERE d > 0.03", {"s": [5]}),
        (
            "SELECT g, count(*) AS n, sum(k) AS s FROM t WHERE d < 0.07 GROUP BY g ORDER BY g",
            {"g": ["a", "b"], "n": [1, 1], "s": [1, 2]},
        ),
        ("SELECT k, d FROM t WHERE d >= 0.05 ORDER BY d DESC LIMIT 1",
         {"k": [3], "d": [Decimal("0.10")]}),
    ]
    for q, want in cases:
        got = sql_both(cat, q)
        assert got.to_pydict() == want, (q, got.to_pydict())
        assert cat.last_plan != "stats_answer", q


# shapes that read a table more than once: DuckDB scans a registered
# table once per node naming it (in any case), a CTE body once per use,
# and a pivoted table once more for the pivot values
MULTI_READ = [
    "SELECT count(*) AS n FROM c a JOIN c b ON a.g = b.g",
    "SELECT count(*) AS n FROM c WHERE k IN (SELECT k FROM c WHERE v > 70)",
    "SELECT count(*) AS n FROM c WHERE v > (SELECT avg(v) FROM c)",
    "SELECT count(*) AS n FROM c a WHERE v > (SELECT avg(v) FROM c b WHERE b.g = a.g)",
    "SELECT (SELECT count(*) FROM o) AS a, (SELECT count(*) FROM o) AS b",
    "SELECT count(*) AS n FROM (SELECT k FROM c UNION ALL SELECT k FROM c)",
    "WITH x AS (SELECT k, g FROM c) SELECT count(*) AS n FROM x a JOIN x b ON a.g = b.g",
    "SELECT count(*) AS n FROM c WHERE k IN (SELECT k FROM C WHERE g > 4)",
    "SELECT count(*) AS n FROM (SELECT k FROM c UNION ALL SELECT k FROM C)",
    "SELECT * FROM (PIVOT c ON s USING count(*) GROUP BY g) ORDER BY g",
]


@pytest.fixture(scope="module")
def multi_read_tables(tmp_path_factory):
    """Stripe dirs of tables ``c`` and ``o`` (three stripes each) and the
    rows: {name: (dir, table)}."""
    from datafusion_orc_ray.stages.encode import StripeEncoder

    base = tmp_path_factory.mktemp("multi")
    n = 600
    c = pa.table({
        "k": pa.array(range(n), pa.int64()),
        "g": pa.array([i % 7 for i in range(n)], pa.int64()),
        "v": pa.array([float(i * 37 % 101) for i in range(n)]),
        "s": pa.array([f"seg{i % 5}" for i in range(n)]),
    })
    o = pa.table({"ok": pa.array(range(900), pa.int64()), "ck": pa.array([i % n for i in range(900)])})
    out = {}
    for name, t in (("c", c), ("o", o)):
        enc = StripeEncoder(f"{base}/{name}")
        step = -(-t.num_rows // 3)
        for lo in range(0, t.num_rows, step):
            enc.encode_split(t.slice(lo, step))
        out[name] = (f"{base}/{name}", t)
    return out


@pytest.mark.parametrize("q", MULTI_READ)
def test_a_table_read_more_than_once_gives_all_its_rows(ray_session, multi_read_tables, sql_both, q):
    """A table the query reads more than once is collected from its
    planned scan before DuckDB reads it, since a streamed scan serves one
    read: every shape gives DuckDB's answer over the same rows, on both
    executors, on the first and the repeated call."""
    import duckdb

    cat = Catalog()
    con = duckdb.connect()
    for name, (out, t) in multi_read_tables.items():
        cat.register_stripes(name, out)
        con.register(name, t)
    want = con.sql(q).fetch_arrow_table()
    con.close()
    assert want.num_rows > 0
    for _ in range(2):
        got = sql_both(cat, q)
        assert got.equals(want), (got.to_pydict(), want.to_pydict())


def test_single_reads_names_the_tables_a_stream_serves():
    """``sqlagg.single_reads``: a table named once, outside every CTE
    body, of a tree with no PIVOT streams (every benchmark query shape
    does); one named twice, in a CTE body or under a PIVOT does not, nor
    does any table of text that parses into no SELECT tree."""
    from datafusion_orc_ray.sources import sqlagg

    streamed = {
        "SELECT count(*) AS n FROM lineitem": {"lineitem"},
        "SELECT o_orderpriority, count(*) AS n FROM lineitem JOIN orders "
        "ON l_orderkey = o_orderkey WHERE l_quantity > 5 GROUP BY o_orderpriority": {
            "lineitem", "orders"},
        "SELECT o_orderkey FROM orders WHERE o_custkey IN (SELECT c_custkey FROM customer)": {
            "orders", "customer"},
        "SELECT count(*) AS n FROM c a WHERE v > (SELECT avg(x) FROM o WHERE o.g = a.g)": {
            "c", "o"},
        "WITH x AS (SELECT k FROM c) SELECT count(*) AS n FROM x JOIN o ON x.k = o.ck": {"o"},
        "SELECT * FROM c PIVOT (count(*) FOR s IN ('seg0', 'seg1') GROUP BY g)": set(),
    }
    registered = {"lineitem", "orders", "customer", "c", "o"}  # not CTE names
    for q, tables in streamed.items():
        assert sqlagg.single_reads(q) & registered == tables, q
    for q in MULTI_READ:
        assert not sqlagg.single_reads(q) & {"c", "o"}, q
    assert sqlagg.walk(MULTI_READ[-1]) is None  # no SELECT tree


def _catalog_and_duckdb(tables: dict):
    """A Catalog and a DuckDB connection with each of ``tables`` ({name:
    (stripe dir, rows)}) registered under its name."""
    import duckdb

    cat, con = Catalog(), duckdb.connect()
    for name, (out, t) in tables.items():
        cat.register_stripes(name, out)
        con.register(name, t)
    return cat, con


@pytest.mark.parametrize("spelling", ["C", '"C"'])
@pytest.mark.parametrize("q, kind", [
    ("SELECT count(*) AS n, max(k) AS m FROM c", "stats_answer"),
    ("SELECT s, count(*) AS n, sum(v) AS t FROM c GROUP BY s ORDER BY s", "aggregate_pushdown"),
    ("SELECT k, v FROM c ORDER BY v DESC, k LIMIT 5", "topk_pushdown"),
    ("SELECT k, s FROM c WHERE k < 20 ORDER BY k", "stream"),
])
def test_a_table_named_in_another_case_binds_as_in_duckdb(
    ray_session, multi_read_tables, sql_both, q, kind, spelling
):
    """DuckDB binds a table name in any case, quoted or not: a query that
    names registered table ``c`` as ``C`` plans, pushes and answers as
    the lower-case query does, on both executors, with the registered
    name in ``last_pushdown``."""
    cat, con = _catalog_and_duckdb(multi_read_tables)
    want = con.sql(q).fetch_arrow_table()
    con.close()
    got = sql_both(cat, q)
    record = {k: cat.last_pushdown[k] for k in ("projections", "predicates")}
    assert (cat.last_plan, got.equals(want)) == (kind, True)
    got = sql_both(cat, q.replace("FROM c", f"FROM {spelling}"))
    assert (cat.last_plan, got.equals(want)) == (kind, True), got.to_pydict()
    assert {k: cat.last_pushdown[k] for k in record} == record


def test_a_table_registered_with_capitals_streams(multi_read_tables):
    """A table registered as ``Big`` and named ``big`` is one read, so it
    streams; every record keys it by its registered name."""
    out, t = multi_read_tables["o"]
    cat, con = _catalog_and_duckdb({"Big": (out, t)})
    q = "SELECT ok, ck FROM big WHERE ok < 10 ORDER BY ok"
    assert cat._plan(q)["streamed"] == {"Big"}
    assert cat.sql(q).equals(con.sql(q).fetch_arrow_table())
    con.close()
    assert cat.last_plan == "stream"
    assert cat.last_pushdown["projections"] == {"Big": ["ok", "ck"]}
    assert cat.last_pushdown["predicates"] == {"Big": [("ok", "<", 10)]}


def test_a_name_differing_only_in_case_is_refused(multi_read_tables):
    """DuckDB treats ``c`` and ``C`` as one name, so registering both
    would make a query read one of them for the other."""
    cat = Catalog()
    cat.register_stripes("c", multi_read_tables["c"][0])
    with pytest.raises(ValueError, match="'C' differs from registered 'c'"):
        cat.register_stripes("C", multi_read_tables["o"][0])
    cat.register_stripes("c", multi_read_tables["o"][0])  # the same name re-registers
    assert cat.names() == ["c"] and "ok" in cat.schema("c").names


def test_a_column_named_in_another_case_is_pruned(multi_read_tables):
    """``sum(V)`` binds column ``v``: the scan decodes that column only."""
    cat, con = _catalog_and_duckdb({"c": multi_read_tables["c"]})
    q = "SELECT sum(V) AS s FROM c"
    assert cat.sql(q).equals(con.sql(q).fetch_arrow_table())
    con.close()
    assert cat.last_pushdown["projections"] == {"c": ["v"]}


@pytest.mark.parametrize("q", [
    "SELECT s, sum(v) AS total FROM t GROUP BY s ORDER BY s",
    "SELECT k, v FROM t WHERE k >= 5 ORDER BY k",
])
def test_a_corrupt_stream_raises_on_a_first_call(ray_session, tmp_path, monkeypatch, sql_both, q):
    """A first call (no kept answer) over a stripe with one flipped
    stream byte raises StripeCorruptError naming the stripe, the column
    and the stream on both executors, although DuckDB's Arrow scan
    reports the failed scan as its own InvalidInputException."""
    import struct

    from datafusion_orc_ray import stripe
    from datafusion_orc_ray.stages.encode import StripeEncoder
    from datafusion_orc_ray.state import manifest

    out = str(tmp_path / "t")
    enc = StripeEncoder(out)
    for lo in (0, 200):
        enc.encode_split(pa.table({
            "k": pa.array(range(lo, lo + 200), pa.int64()),
            "s": [f"s{i % 3}" for i in range(lo, lo + 200)],
            "v": pa.array([i * 0.5 for i in range(lo, lo + 200)]),
        }))
    cat = Catalog()
    cat.register_stripes("t", out)
    sql_both(cat, q)  # the intact stripes: both executors agree
    path = manifest.load_manifest(out)[1]["path"]
    data = next(c for c in stripe.read_footer_from_file(path)["columns"] if c["path"] == "v")["streams"]["data"]
    blob = bytearray(open(path, "rb").read())
    blob[data["offset"]] ^= 0x01
    with open(path, "wb") as f:
        f.write(bytes(blob))
    assert struct.unpack_from("<I", blob, len(blob) - len(stripe.MAGIC) - 4)  # footer untouched
    for gate in (Catalog._LOCAL_SCAN_BYTES, 0):
        with monkeypatch.context() as m:
            m.setattr(Catalog, "_LOCAL_SCAN_BYTES", gate)
            fresh = Catalog()
            fresh.register_stripes("t", out)
            with pytest.raises(stripe.StripeCorruptError) as ei:
                fresh.sql(q)
        assert (ei.value.stripe, ei.value.column, ei.value.stream) == (path, "v", "data"), gate
