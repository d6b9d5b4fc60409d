"""Where ``Catalog.sql`` scans run: in the driver under the byte gate, as a
Ray Dataset above it. Both executors must give DuckDB's answer with the
same plan; each query loads each table's manifest once; concurrent
queries on the process's one DuckDB database stay apart."""

import sys
import threading

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from datafusion_orc_ray import stripe
from datafusion_orc_ray.pipelines import encode as ep
from datafusion_orc_ray.sources import stripes
from datafusion_orc_ray.sources.stripes import Catalog, _stats_may_match
from datafusion_orc_ray.state import manifest

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
    shape runs partials (``_run_partials``) exactly when one of its scans
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
    run_partials = stripes._run_partials

    def spied(*a, **kw):
        partials.append(a)
        return run_partials(*a, **kw)

    monkeypatch.setattr(stripes, "_run_partials", spied)
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


@pytest.mark.parametrize("gate", ["ray", "driver"])
def test_repeated_query_reuses_its_plan(catalog, gate, monkeypatch):
    """A catalog plans a query once: a repeated call of every plan kind
    reports ``plan_reused`` and gives the first call's answer, plan and
    pushdown record, on either executor."""
    if gate == "ray":
        monkeypatch.setattr(Catalog, "_LOCAL_SCAN_BYTES", 0)
    cat = Catalog()  # an empty plan store over the fixture's tables
    for name, out in catalog[0]._tables.items():
        cat.register_stripes(name, out)
    for q, plan, _ in QUERIES:
        first = cat.sql(q)
        record = dict(cat.last_pushdown)
        assert record.pop("plan_reused") is False, q
        assert cat.last_plan == plan, q
        again = cat.sql(q)
        assert cat.last_pushdown.pop("plan_reused") is True, q
        assert cat.last_plan == plan, q
        assert again.equals(first), q
        assert cat.last_pushdown == record, q


def test_repeated_query_serves_kept_columns(catalog):
    """At the default gate every scan here runs in the driver, and a
    repeated query takes its stripes' decoded columns from the process's
    column store: the repeat gives the first call's answer, plan and
    pushdown record, with column hits and no new column miss."""
    cat, _ = catalog
    hits = 0
    for q, plan, _ in QUERIES:
        first = cat.sql(q)
        record = dict(cat.last_pushdown, plan_reused=None)
        before = stripe.store_stats()["columns"]
        again = cat.sql(q)
        after = stripe.store_stats()["columns"]
        assert again.equals(first) and cat.last_plan == plan, q
        assert dict(cat.last_pushdown, plan_reused=None) == record, q
        assert after["misses"] == before["misses"], q
        read = sum(r["stripes"] for r in cat.last_pushdown["scans"].values())
        assert (after["hits"] > before["hits"]) == (read > 0), q
        hits += after["hits"] - before["hits"]
    assert hits > 0


def test_append_keeps_the_old_stripes_columns(tmp_path):
    """After an append the next query shows the new rows, decodes only the
    new stripe's columns and takes the old stripe's from the store."""
    out = str(tmp_path / "t")
    _append(out, pa.table({"k": pa.array([7103, 7101], pa.int64()), "v": pa.array([71.03, 71.01])}))
    cat = Catalog()
    cat.register_stripes("t", out)
    q = "SELECT k, v FROM t ORDER BY k"
    assert cat.sql(q).to_pydict() == {"k": [7101, 7103], "v": [71.01, 71.03]}
    _append(out, pa.table({"k": pa.array([7102], pa.int64()), "v": pa.array([71.02])}))
    before = stripe.store_stats()["columns"]
    assert cat.sql(q).to_pydict() == {"k": [7101, 7102, 7103], "v": [71.01, 71.02, 71.03]}
    after = stripe.store_stats()["columns"]
    assert cat.last_pushdown["scans"]["t"]["stripes"] == 2
    assert (after["hits"] - before["hits"], after["misses"] - before["misses"]) == (2, 2)

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
