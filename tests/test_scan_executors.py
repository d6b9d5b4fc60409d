"""Where ``Catalog.sql`` scans run: in the driver under the byte gate, as a
Ray Dataset above it. Both executors must give DuckDB's answer with the
same plan; each query loads each table's manifest once; concurrent
queries on the process's one DuckDB database stay apart."""

import os
import struct
import sys
import threading

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from datafusion_orc_ray import stripe
from datafusion_orc_ray.pipelines import encode as ep
from datafusion_orc_ray.sources import sqlagg, stripes
from datafusion_orc_ray.sources.stripes import Catalog, _stats_may_match
from datafusion_orc_ray.state import manifest
from datafusion_orc_ray.util import BoundedStore

N_FACT = 4000
STRIPE_ROWS = 1000

# (query, plan, {table: predicate that decides its kept stripes}); a
# table whose scan is not listed keeps every stripe. Doubles hold
# integer values, so partial sums are exact.
QUERIES = [
    ("SELECT count(*) AS n, min(id) AS lo, max(id) AS hi FROM fact", "stats_answer", {}),
    (
        "SELECT g, sum(v) AS s, count(*) AS n FROM fact WHERE id < 1500 GROUP BY g ORDER BY g",
        "aggregate_pushdown",
        {"fact": ("id", "<", 1500)},
    ),
    ("SELECT id, v FROM fact WHERE v > 50 ORDER BY v DESC, id LIMIT 5", "topk_pushdown", {}),
    (
        "SELECT name, sum(v) AS s, count(*) AS n FROM fact JOIN dim ON fk = dk "
        "GROUP BY name ORDER BY name",
        "join_aggregate_pushdown",
        {},
    ),
    (
        "SELECT id, v, name FROM fact JOIN dim ON fk = dk ORDER BY v DESC, id LIMIT 4",
        "join_topk_pushdown",
        {},
    ),
    (
        "SELECT id, v, name FROM fact JOIN dim ON fk = dk WHERE id >= 3990 ORDER BY id",
        "stream+semijoin_prefilter",
        {"fact": ("id", ">=", 3990)},
    ),
    ("SELECT g, v FROM fact WHERE id >= 3995 ORDER BY id", "stream", {"fact": ("id", ">=", 3995)}),
    ("SELECT id, v FROM fact WHERE id = 999999", "stream", {"fact": ("id", "==", 999999)}),
    # a WHERE on the broadcast small side: its scan takes the predicate
    (
        "SELECT name, sum(v) AS s, count(*) AS n FROM fact JOIN dim ON fk = dk "
        "WHERE dk >= 100 GROUP BY name ORDER BY name",
        "join_aggregate_pushdown",
        {"dim": ("dk", ">=", 100)},
    ),
    (
        "SELECT id, v, name FROM fact JOIN dim ON fk = dk WHERE dk < 3 "
        "ORDER BY v DESC, id LIMIT 4",
        "join_topk_pushdown",
        {"dim": ("dk", "<", 3)},
    ),
]


def _tables(scale: int):
    fact = pa.table({
        "id": pa.array(range(N_FACT), pa.int64()),
        "fk": pa.array([i % 7 for i in range(N_FACT)], pa.int64()),
        "g": pa.array([f"g{i % 3}" for i in range(N_FACT)]),
        "v": pa.array([float(scale * (i % 97)) for i in range(N_FACT)]),
    })
    dim = pa.table({
        "dk": pa.array(range(5), pa.int64()),  # fk 5 and 6 join nothing
        "name": pa.array([f"n{scale}_{i}" for i in range(5)]),
    })
    return {"fact": fact, "dim": dim}


def _catalog(tmp, scale: int):
    tables = _tables(scale)
    cat = Catalog()
    for name, t in tables.items():
        pq.write_table(t, f"{tmp}/{name}.parquet", row_group_size=STRIPE_ROWS)
        ep.encode_parquet(f"{tmp}/{name}.parquet", f"{tmp}/{name}", concurrency=1).take_all()
        cat.register_stripes(name, f"{tmp}/{name}")
    return cat, tables


def _duckdb_answers(tables, queries):
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t)
        return [con.sql(q).fetch_arrow_table() for q in queries]
    finally:
        con.close()


@pytest.fixture(scope="module")
def catalog(ray_session, tmp_path_factory):
    return _catalog(tmp_path_factory.mktemp("exec"), 1)


@pytest.mark.parametrize("gate", ["ray", "mixed", "driver"])
def test_both_executors_match_duckdb(catalog, gate, monkeypatch):
    """Every plan kind gives DuckDB's answer, with the same plan, whether
    its scans run as Ray Datasets (gate forced to 0), in the driver
    (default gate: every table here is under it) or both ("mixed": the
    gate at dim's full size, so unpruned dim and fact scans go to Ray and
    pruned ones stay here). explain() names the executor each scan
    really ran on. The Ray path never asks a Dataset for its schema (a
    hidden execution); the driver path never starts a Dataset. A planned
    shape runs partials (``sqlagg.run_partial``) exactly when one of its scans
    runs on Ray; with every scan in the driver the query runs as one
    statement, and explain()'s plan line says partial and final fuse."""
    import ray.data

    cat, tables = catalog
    dim_bytes = sum(e["raw_bytes"] for e in manifest.load_manifest(cat._tables["dim"]))
    limit = {"ray": 0, "mixed": dim_bytes, "driver": Catalog._LOCAL_SCAN_BYTES}[gate]
    monkeypatch.setattr(Catalog, "_LOCAL_SCAN_BYTES", limit)

    def no_schema(self, *a, **kw):
        raise AssertionError("Dataset.schema() runs a hidden execution")

    monkeypatch.setattr(ray.data.Dataset, "schema", no_schema)
    started: list = []
    read_datasource = ray.data.read_datasource

    def counted(src, **kw):
        started.append(src)
        return read_datasource(src, **kw)

    monkeypatch.setattr(ray.data, "read_datasource", counted)
    partials: list = []
    run_partial = sqlagg.run_partial

    def spied(*a, **kw):
        partials.append(a)
        return run_partial(*a, **kw)

    monkeypatch.setattr(sqlagg, "run_partial", spied)
    # one stripe per row group: the predicates prune some, none or all
    assert len(manifest.load_manifest(cat._tables["fact"])) == N_FACT // STRIPE_ROWS
    wants = _duckdb_answers(tables, [q for q, _, _ in QUERIES])
    executors = set()
    for (q, plan, preds), want in zip(QUERIES, wants):
        started.clear()
        partials.clear()
        got = cat.sql(q)
        assert cat.last_plan == plan, (q, cat.last_plan)
        assert got.equals(want), (q, got.to_pydict(), want.to_pydict())
        scans = cat.last_pushdown["scans"]
        if plan == "stats_answer":
            assert scans == {}
            assert cat.last_pushdown["stats"] == {"table": "fact", "stripes": N_FACT // STRIPE_ROWS}
            continue
        assert set(scans) == ({"fact", "dim"} if "JOIN" in q else {"fact"}), q
        for name, rec in scans.items():
            entries = manifest.load_manifest(cat._tables[name])
            pred = preds.get(name)
            kept = [e for e in entries if pred is None or _stats_may_match(e, pred)]
            raw = sum(e["raw_bytes"] for e in kept)
            assert rec == {
                "executor": "driver" if raw < limit else "ray",
                "stripes": len(kept),
                "stripes_total": len(entries),
                "raw_bytes": raw,
            }, (q, name)
            line = next(ln for ln in cat.explain(q).splitlines() if ln.startswith(f"scan {name}:"))
            assert line.endswith(f", executor={rec['executor']}"), (q, line)
            executors.add(rec["executor"])
        on_ray = "ray" in {r["executor"] for r in scans.values()}
        assert bool(started) == on_ray, q
        assert len(partials) == (plan in stripes._SPLIT_KINDS and on_ray), q
        fused = plan in stripes._SPLIT_KINDS and not on_ray
        assert ("fused" in cat.explain(q).splitlines()[0]) == fused, q
    assert executors == ({"driver", "ray"} if gate == "mixed" else {gate})


def test_each_query_loads_each_manifest_once(catalog, monkeypatch):
    """sql() and explain() load every referenced table's manifest at most
    once per call, for every plan kind (appends stay visible: manifests
    are not cached)."""
    cat, _ = catalog
    orig = manifest.load_manifest
    calls: list[str] = []

    def counted(out_dir):
        calls.append(out_dir)
        return orig(out_dir)

    monkeypatch.setattr(manifest, "load_manifest", counted)
    for q, plan, _ in QUERIES:
        for run in (cat.sql, cat.explain):
            calls.clear()
            run(q)
            assert calls, (q, run.__name__)
            assert all(calls.count(d) == 1 for d in calls), (q, run.__name__, calls)
        assert cat.last_plan == plan


def test_each_query_merges_each_schema_and_parses_each_stats_once(catalog, monkeypatch):
    """sql() and explain() merge every referenced table's schema once per
    call (its scan takes the merged schema) and parse each manifest
    entry's column stats at most once, however many conjuncts prune."""
    cat, _ = catalog
    merge, parse = stripes.stripes_schema, manifest.column_stats
    merged: list[str] = []
    parsed: list[str] = []

    def counted_merge(out_dir, entries=None):
        merged.append(out_dir)
        return merge(out_dir, entries)

    def counted_parse(entry):
        parsed.append(entry["path"])
        return parse(entry)

    monkeypatch.setattr(stripes, "stripes_schema", counted_merge)
    monkeypatch.setattr(manifest, "column_stats", counted_parse)
    queries = [q for q, _, _ in QUERIES] + [
        "SELECT id, v FROM fact WHERE id >= 100 AND id < 2500 AND v > 3 ORDER BY id"
    ]
    for q in queries:
        for run in (cat.sql, cat.explain):
            merged.clear()
            parsed.clear()
            run(q)
            assert merged and all(merged.count(d) == 1 for d in merged), (q, merged)
            assert all(parsed.count(p) == 1 for p in parsed), (q, parsed)
    assert parsed  # the last query pruned by stats


def _fresh(catalog) -> Catalog:
    """A catalog with empty stores over the fixture's tables."""
    cat = Catalog()
    for name, out in catalog[0]._tables.items():
        cat.register_stripes(name, out)
    return cat


@pytest.mark.parametrize("gate", ["ray", "driver"])
def test_repeated_query_reuses_its_plan(catalog, gate, monkeypatch):
    """A catalog plans a query once: a repeated call of every plan kind
    reports ``plan_reused`` and gives the first call's answer, plan and
    pushdown record, on either executor. With every scan in the driver
    the repeat returns the kept answer (``result`` "reused"); with scans
    on Ray nothing is kept but a stats answer, which scans nothing."""
    if gate == "ray":
        monkeypatch.setattr(Catalog, "_LOCAL_SCAN_BYTES", 0)
    cat = _fresh(catalog)
    for q, plan, _ in QUERIES:
        first = cat.sql(q)
        record = dict(cat.last_pushdown)
        assert record.pop("plan_reused") is False, q
        kept = record.pop("result")
        assert cat.last_plan == plan, q
        again = cat.sql(q)
        assert cat.last_pushdown.pop("plan_reused") is True, q
        result = cat.last_pushdown.pop("result")
        if plan == "stats_answer" or gate == "driver":
            assert (kept, result) == ("stored", "reused"), q
        else:
            assert kept == result == "not kept: the scan of fact runs on Ray", q
        assert cat.last_plan == plan, q
        assert again.equals(first), q
        assert cat.last_pushdown == record, q


def test_a_repeat_opens_no_duckdb_cursor(catalog, monkeypatch):
    """With every scan in the driver, a repeated call of every plan kind
    is served from the catalog's stores: it opens no DuckDB cursor, so
    neither plans, binds, merges nor runs a statement."""
    cat = _fresh(catalog)
    opened: list = []
    cursor = sqlagg.cursor

    def counted():
        opened.append(1)
        return cursor()

    monkeypatch.setattr(sqlagg, "cursor", counted)
    for q, plan, _ in QUERIES:
        cat.sql(q)
        assert opened, q
        opened.clear()
        cat.sql(q)
        assert (cat.last_plan, cat.last_pushdown["result"]) == (plan, "reused"), q
        assert opened == [], q


def _spy_footer_reads(monkeypatch) -> list:
    """Records ``("parse", name)`` for each ``stripe._parse_footer`` call
    and ``("read", path)`` for each ``stripe.read_footer_from_file``."""
    calls: list = []
    parse, read = stripe._parse_footer, stripe.read_footer_from_file

    def parsed(payload, name, *a, **kw):
        calls.append(("parse", name))
        return parse(payload, name, *a, **kw)

    def got(path, *a, **kw):
        calls.append(("read", path))
        return read(path, *a, **kw)

    monkeypatch.setattr(stripe, "_parse_footer", parsed)
    monkeypatch.setattr(stripe, "read_footer_from_file", got)
    return calls


def test_repeated_query_serves_kept_columns(catalog, monkeypatch):
    """At the default gate every scan here runs in the driver, and a
    query run on one fresh catalog and repeated on another (so no kept
    answer) gives the first call's answer, plan and pushdown record,
    reading and parsing every scanned stripe's footer again: no process
    keeps a footer."""
    for q, plan, _ in QUERIES:
        cat = _fresh(catalog)
        first = cat.sql(q)
        record = dict(cat.last_pushdown, plan_reused=None)
        cat = _fresh(catalog)
        reads = _spy_footer_reads(monkeypatch)
        again = cat.sql(q)
        monkeypatch.undo()
        assert again.equals(first) and cat.last_plan == plan, q
        assert dict(cat.last_pushdown, plan_reused=None) == record, q
        read = sum(r["stripes"] for r in cat.last_pushdown["scans"].values())
        assert len(reads) == 2 * read, q
        assert sorted(p for fn, p in reads if fn == "parse") == sorted(
            p for fn, p in reads if fn == "read"), q


def test_append_keeps_the_old_stripes_columns(tmp_path, monkeypatch):
    """After an append the next query shows the new rows, misses the
    answer kept before it and reads and parses the footers of the old
    stripe and the new one."""
    out = str(tmp_path / "t")
    _append(out, pa.table({"k": pa.array([7103, 7101], pa.int64()), "v": pa.array([71.03, 71.01])}))
    cat = Catalog()
    cat.register_stripes("t", out)
    q = "SELECT k, v FROM t ORDER BY k"
    assert cat.sql(q).to_pydict() == {"k": [7101, 7103], "v": [71.01, 71.03]}
    _append(out, pa.table({"k": pa.array([7102], pa.int64()), "v": pa.array([71.02])}))
    reads = _spy_footer_reads(monkeypatch)
    assert cat.sql(q).to_pydict() == {"k": [7101, 7102, 7103], "v": [71.01, 71.02, 71.03]}
    assert cat.last_pushdown["scans"]["t"]["stripes"] == 2
    assert cat.last_pushdown["result"] == "stored"
    paths = [e["path"] for e in manifest.load_manifest(out)]
    assert sorted(reads) == sorted((fn, p) for p in paths for fn in ("parse", "read"))

def _append(out: str, table: pa.Table) -> None:
    from datafusion_orc_ray.stages.encode import StripeEncoder

    StripeEncoder(out).encode_split(table)


def test_append_replans_on_a_new_schema(ray_session, tmp_path, monkeypatch):
    """Rows appended to a table show in the next query. An append that
    keeps the merged schema keeps the plan; one that adds a column
    re-plans, so a star top-k selects the new column on both executors
    (its Ray-side final names every output column)."""
    out = str(tmp_path / "t")
    _append(out, pa.table({"k": pa.array([5, 1, 4], pa.int64()), "v": pa.array([0.5, 0.1, 0.4])}))
    cat = Catalog()
    cat.register_stripes("t", out)
    q = "SELECT * FROM t ORDER BY k LIMIT 10"
    driver = Catalog._LOCAL_SCAN_BYTES
    for gate in (driver, 0):
        monkeypatch.setattr(Catalog, "_LOCAL_SCAN_BYTES", gate)
        assert cat.sql(q).to_pydict() == {"k": [1, 4, 5], "v": [0.1, 0.4, 0.5]}
    _append(out, pa.table({"k": pa.array([3], pa.int64()), "v": pa.array([0.3])}))
    want = {"k": [1, 3, 4, 5], "v": [0.1, 0.3, 0.4, 0.5]}
    for gate in (driver, 0):
        monkeypatch.setattr(Catalog, "_LOCAL_SCAN_BYTES", gate)
        assert cat.sql(q).to_pydict() == want
        assert cat.last_plan == "topk_pushdown" and cat.last_pushdown["plan_reused"]
    _append(out, pa.table({
        "k": pa.array([2], pa.int64()), "v": pa.array([0.2]), "w": pa.array(["new"]),
    }))
    want = {"k": [1, 2, 3, 4, 5], "v": [0.1, 0.2, 0.3, 0.4, 0.5],
            "w": [None, "new", None, None, None]}
    for gate, reused in ((0, False), (driver, True)):
        monkeypatch.setattr(Catalog, "_LOCAL_SCAN_BYTES", gate)
        assert cat.sql(q).to_pydict() == want, gate
        assert cat.last_plan == "topk_pushdown"
        assert cat.last_pushdown["plan_reused"] is reused


def test_concurrent_queries_on_shared_database(catalog, tmp_path):
    """Two threads query two catalogs that register the same table names
    over different data: the cursors of the one shared DuckDB database
    keep each query's registered tables apart."""
    cats = [catalog, _catalog(tmp_path, 10)]
    qs = [q for q, _, _ in QUERIES]
    answers = [_duckdb_answers(tables, qs) for _, tables in cats]
    assert not answers[0][1].equals(answers[1][1])  # the data really differ
    errors: list = []

    def run(cat, wants):
        try:
            for _ in range(3):
                for q, want in zip(qs, wants):
                    got = cat.sql(q)
                    if not got.equals(want):
                        errors.append((q, got.to_pydict(), want.to_pydict()))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(cat, wants))
        for (cat, _), wants in zip(cats, answers)
    ]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


# ----------------------------------------------------- the result store
# Each test builds its own catalog, so no kept answer crosses tests.

AGG = "SELECT s, sum(v) AS total, count(*) AS n FROM t GROUP BY s ORDER BY s"


def _rows(lo: int, hi: int, tag: str = "a") -> pa.Table:
    return pa.table({
        "k": pa.array(range(lo, hi), pa.int64()),
        "s": pa.array([f"{tag}{i % 4}" for i in range(lo, hi)]),
        "v": pa.array([float(i) for i in range(lo, hi)]),
    })


def _kept_catalog(out: str, tag: str = "a"):
    """A catalog whose table ``t`` is two stripes of ``_rows``, and the rows."""
    parts = [_rows(0, 50, tag), _rows(50, 100, tag)]
    for part in parts:
        _append(out, part)
    cat = Catalog()
    cat.register_stripes("t", out)
    return cat, pa.concat_tables(parts)


def _answer(table: pa.Table, q: str) -> pa.Table:
    return _duckdb_answers({"t": table}, [q])[0]


def _footer_bytes(out: str) -> int:
    """The stored footer bytes (body and CRC-32) of ``out``'s stripes."""
    total = 0
    for e in manifest.load_manifest(out):
        with open(e["path"], "rb") as f:
            f.seek(-len(stripe.MAGIC) - 4, os.SEEK_END)
            total += struct.unpack("<I", f.read(4))[0]
    return total


def test_result_store_counts_and_reports(tmp_path):
    """A repeat returns the kept answer; ``store_stats()`` counts one
    miss, one hit and the answer's weight: its bytes plus its stripes'
    footer bytes."""
    out = str(tmp_path / "t")
    cat, rows = _kept_catalog(out)
    want = _answer(rows, AGG)
    got = cat.sql(AGG)
    assert got.equals(want) and cat.last_pushdown["result"] == "stored"
    assert cat.sql(AGG) is got and cat.last_pushdown["result"] == "reused"
    assert cat.store_stats() == {
        "plans": {"hits": 1, "misses": 1, "entries": 1, "weight": 1, "bound": 256},
        "results": {"hits": 1, "misses": 1, "entries": 1,
                    "weight": got.nbytes + _footer_bytes(out), "bound": 32 << 20},
    }


def test_a_kept_answer_weighs_its_footer_bytes(tmp_path):
    """A kept answer weighs its bytes plus the footer bytes of every
    stripe its scans read, which it pins to check them on a repeat."""
    out = str(tmp_path / "t")
    cat, _ = _kept_catalog(out)
    q = "SELECT k FROM t ORDER BY k"
    got = cat.sql(q)
    assert cat.last_pushdown["result"] == "stored"
    assert _footer_bytes(out) > 0
    assert cat.store_stats()["results"]["weight"] == got.nbytes + _footer_bytes(out)


def test_a_result_store_hit_parses_no_footer(tmp_path, monkeypatch):
    """A hit compares each stripe's footer bytes with the kept ones: it
    neither reads a footer through ``read_footer_from_file`` nor parses
    one, while the miss before it does both for every stripe."""
    out = str(tmp_path / "t")
    cat, rows = _kept_catalog(out)
    reads = _spy_footer_reads(monkeypatch)
    first = cat.sql(AGG)
    assert len(reads) == 2 * len(manifest.load_manifest(out))
    reads.clear()
    assert cat.sql(AGG) is first and cat.last_pushdown["result"] == "reused"
    assert reads == []


def test_a_stats_answer_is_kept(tmp_path):
    """A stats answer reads no stripe, so it is kept like any other
    answer: stored by the first call and returned by the repeat."""
    cat, rows = _kept_catalog(str(tmp_path / "t"))
    q = "SELECT count(*) AS n FROM t"
    for result in ("stored", "reused"):
        got = cat.sql(q)
        assert (cat.last_plan, cat.last_pushdown["result"]) == ("stats_answer", result)
        assert got.equals(_answer(rows, q))
    assert cat.store_stats()["results"]["entries"] == 1


@pytest.mark.parametrize("q, why", [
    ("SELECT k, random() AS r FROM t ORDER BY k", "function random is not CONSISTENT"),
    ("SELECT k, now() AS r FROM t ORDER BY k", "function now is not CONSISTENT"),
    ("SELECT k, current_date AS d FROM t ORDER BY k", "function current_date is not CONSISTENT"),
    ("SELECT k, range FROM t JOIN range(3) ON k = range ORDER BY k",
     "FROM range() is not a registered table"),
    ("WITH c AS (SELECT k FROM t) SELECT k FROM c ORDER BY k", "FROM c is not a registered table"),
    ("SELECT k FROM t USING SAMPLE 100 PERCENT (bernoulli) ORDER BY k", "the query samples"),
])
def test_a_result_is_never_kept_when(tmp_path, q, why):
    """An answer that depends on more than the query text and the stripes
    it reads is never stored, and each call says which gate refused it."""
    cat, rows = _kept_catalog(str(tmp_path / "t"))
    for _ in range(2):
        got = cat.sql(q)
        assert cat.last_pushdown["result"] == f"not kept: {why}"
        assert got.num_rows == _answer(rows, q).num_rows
    assert cat.store_stats()["results"]["entries"] == 0


def test_a_result_is_not_kept_when_a_scan_stops_early(tmp_path):
    """A LIMIT with no ORDER BY stops DuckDB's read before the last
    stripe: the answer has no footer for every scanned stripe, so it is
    not kept."""
    out = str(tmp_path / "t")
    for lo in range(0, 200_000, 5000):
        _append(out, pa.table({"k": pa.array(range(lo, lo + 5000), pa.int64())}))
    cat = Catalog()
    cat.register_stripes("t", out)
    for _ in range(2):
        assert cat.sql("SELECT k FROM t LIMIT 1").num_rows == 1
        assert cat.last_pushdown["result"] == "not kept: a scan stopped before its last stripe"


def test_a_result_is_not_kept_on_ray_or_over_the_bound(ray_session, tmp_path, monkeypatch):
    """A scan on Ray keeps nothing, and neither does an answer heavier
    than the store's bound."""
    cat, rows = _kept_catalog(str(tmp_path / "t"))
    want = _answer(rows, AGG)
    monkeypatch.setattr(Catalog, "_LOCAL_SCAN_BYTES", 0)
    for _ in range(2):
        assert cat.sql(AGG).equals(want)
        assert cat.last_pushdown["result"] == "not kept: the scan of t runs on Ray"
    monkeypatch.undo()
    cat._results = BoundedStore(16)
    weight = want.nbytes + _footer_bytes(str(tmp_path / "t"))
    for _ in range(2):
        got = cat.sql(AGG)
        assert got.equals(want)
        assert cat.last_pushdown["result"] == f"not kept: {weight} bytes, over the store's 16"
    assert cat.store_stats()["results"]["entries"] == 0


def test_an_append_shows_on_the_next_call(tmp_path):
    """Rows appended after an answer was kept show in the next call,
    whose answer is kept in its turn; an append that widens the schema
    re-plans and misses too."""
    out = str(tmp_path / "t")
    cat, rows = _kept_catalog(out)
    cat.sql(AGG)
    assert cat.sql(AGG).equals(_answer(rows, AGG)) and cat.last_pushdown["result"] == "reused"
    _append(out, _rows(100, 110))
    rows = pa.concat_tables([rows, _rows(100, 110)])
    for result in ("stored", "reused"):
        assert cat.sql(AGG).equals(_answer(rows, AGG))
        assert (cat.last_pushdown["plan_reused"], cat.last_pushdown["result"]) == (True, result)
    q = "SELECT * FROM t ORDER BY k DESC LIMIT 3"
    cat.sql(q)
    wide = _rows(110, 111).append_column("w", pa.array(["new"]))
    _append(out, wide)
    for reused, result in ((False, "stored"), (True, "reused")):
        got = cat.sql(q)
        assert got.column_names == ["k", "s", "v", "w"]
        assert got.column("w").to_pylist() == ["new", None, None]
        assert (cat.last_pushdown["plan_reused"], cat.last_pushdown["result"]) == (reused, result)


def test_a_stripe_rewritten_in_place_gives_its_new_rows(tmp_path):
    """A stripe rewritten with other rows at the same size and mtime
    misses the kept answer and gives the new rows."""
    cat, _ = _kept_catalog(str(tmp_path / "t"), "a")
    _, other = _kept_catalog(str(tmp_path / "u"), "b")
    paths = [[e["path"] for e in manifest.load_manifest(str(tmp_path / d))] for d in ("t", "u")]
    blob = open(paths[1][1], "rb").read()
    assert os.path.getsize(paths[0][1]) == len(blob)
    cat.sql(AGG)
    assert cat.sql(AGG).column("s").to_pylist() == ["a0", "a1", "a2", "a3"]
    st = os.stat(paths[0][1])
    with open(paths[0][1], "wb") as f:
        f.write(blob)
    os.utime(paths[0][1], ns=(st.st_atime_ns, st.st_mtime_ns))
    rows = pa.concat_tables([_rows(0, 50, "a"), _rows(50, 100, "b")])
    for result in ("stored", "reused"):
        assert cat.sql(AGG).equals(_answer(rows, AGG))
        assert cat.last_pushdown["result"] == result


def test_a_flipped_byte_after_a_hit_raises(tmp_path):
    """A hit still reads and CRC-checks every stream the query decodes
    and the footer: a flipped byte in either raises StripeCorruptError
    naming the stripe, the column and the stream, and the restored
    bytes are served the kept answer again."""
    out = str(tmp_path / "t")
    cat, _ = _kept_catalog(out)
    first = cat.sql(AGG)
    cat.sql(AGG)
    path = manifest.load_manifest(out)[1]["path"]
    blob = open(path, "rb").read()
    footer = stripe.read_footer_from_file(path)
    data = next(c for c in footer["columns"] if c["path"] == "v")["streams"]["data"]
    flen = struct.unpack_from("<I", blob, len(blob) - len(stripe.MAGIC) - 4)[0]
    fstart = len(blob) - len(stripe.MAGIC) - 4 - flen
    for at, where in ((data["offset"], ("v", "data")), (fstart + flen // 2, (None, "footer"))):
        bad = bytearray(blob)
        bad[at] ^= 0x01
        with open(path, "wb") as f:
            f.write(bytes(bad))
        with pytest.raises(stripe.StripeCorruptError) as ei:
            cat.sql(AGG)
        assert (ei.value.stripe, ei.value.column, ei.value.stream) == (path, *where)
        with open(path, "wb") as f:
            f.write(blob)
        assert cat.sql(AGG) is first and cat.last_pushdown["result"] == "reused"


def test_catalogs_over_other_data_never_share_a_result(tmp_path):
    """Two catalogs naming other data ``t`` each get their own answer,
    and a name registered again over other stripes of the same schema
    keeps its plan but not its answer."""
    ca, rows_a = _kept_catalog(str(tmp_path / "a"), "a")
    cb, rows_b = _kept_catalog(str(tmp_path / "b"), "b")
    want_a, want_b = _answer(rows_a, AGG), _answer(rows_b, AGG)
    assert not want_a.equals(want_b)
    for _ in range(2):
        assert ca.sql(AGG).equals(want_a) and cb.sql(AGG).equals(want_b)
    ca.register_stripes("t", str(tmp_path / "b"))
    assert ca.sql(AGG).equals(want_b)
    assert (ca.last_pushdown["plan_reused"], ca.last_pushdown["result"]) == (True, "stored")


def test_two_threads_on_one_catalog_get_equal_tables(catalog):
    """Two threads repeating every query on one catalog both get DuckDB's
    answer from each call, kept or not."""
    cat = _fresh(catalog)
    qs = [q for q, _, _ in QUERIES]
    wants = _duckdb_answers(catalog[1], qs)
    errors: list = []

    def run():
        try:
            for _ in range(3):
                for q, want in zip(qs, wants):
                    if not cat.sql(q).equals(want):
                        errors.append(q)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(2)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert cat.store_stats()["results"]["hits"] > 0
