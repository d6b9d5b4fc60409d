"""The closed-loop workloads. Each has one client: the next op starts
when the previous one has returned and been checked.

A workload makes its inputs from the seed in ``setup``, runs one op per
``run_op`` call and checks the op's own output there (the check is not
timed). ``setup`` may be called several times; each call builds the
inputs afresh in a new directory and the last one is used.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import traceback
from dataclasses import dataclass

import numpy as np


@dataclass
class OpResult:
    label: str
    wall: float
    ok: bool
    raw_bytes: int
    start: float = 0.0
    end: float = 0.0
    error: str | None = None
    plan: str | None = None
    op_id: int = 0
    batch: int = 0
    release_s: float = 0.0
    held: bool = False


def census(entries: list[dict]) -> dict:
    """Stream count and stored bytes per codec (and per outer codec)
    over manifest rows, from their ``columns_json``."""
    out: dict[str, dict[str, int]] = {}

    def add(key: str, size: int) -> None:
        c = out.setdefault(key, {"streams": 0, "bytes": 0})
        c["streams"] += 1
        c["bytes"] += size

    def walk(col: dict) -> None:
        for s in col.get("streams", {}).values():
            codec = str(s.get("codec", "none"))
            add(codec.split("+", 1)[0], int(s.get("size", 0)))
            add(f"outer_{s.get('outer', 'none')}", int(s.get("size", 0)))
        for child in col.get("children", []) or []:
            walk(child)

    for e in entries:
        for col in json.loads(e["columns_json"]):
            walk(col)
    return dict(sorted(out.items()))


def _restore_arrow_threads(fn):
    """Run ``fn`` and restore Arrow's thread-pool sizes afterwards (the
    in-process encoder pins them to one)."""
    import pyarrow as pa

    cpu, io_ = pa.cpu_count(), pa.io_thread_count()
    try:
        return fn()
    finally:
        pa.set_cpu_count(cpu)
        pa.set_io_thread_count(io_)


def tpch_tables(sf: float, names: list[str]) -> dict:
    """TPC-H tables from DuckDB's built-in generator (deterministic)."""
    import duckdb

    con = duckdb.connect()
    try:
        con.execute(f"CALL dbgen(sf={sf})")
        return {n: con.execute(f"SELECT * FROM {n}").arrow() for n in names}
    finally:
        con.close()


def _write_parquet(table, path: str, n_row_groups: int, rng=None) -> None:
    """Write ``table`` as ``n_row_groups`` row groups of equal size, or,
    given ``rng``, with each inner boundary moved by up to 2% of a row
    group."""
    import pyarrow.parquet as pq

    n = table.num_rows
    cuts = np.linspace(0, n, n_row_groups + 1)
    if rng is not None:
        cuts[1:-1] += rng.uniform(-0.02, 0.02, n_row_groups - 1) * n / n_row_groups
    cuts = cuts.round().astype(int)
    with pq.ParquetWriter(path, table.schema) as w:
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            w.write_table(table.slice(lo, hi - lo), row_group_size=max(1, hi - lo))


class MixedEncode:
    """One job over two kinds of table. Webtext's long strings load FSST
    training, the bytes selector and zstd; TPC-H ``lineitem`` and
    ``orders`` (sorted and random int64 keys, decimals, dates,
    low-cardinality strings) load the integer suite, bitpack, dictionary
    and bloom codecs. The per-layer codec metrics tell the two apart.

    The TPC-H tables are fixed; the seed draws the webtext rows and moves
    every row-group boundary. It does not pick row-group counts: that
    changes the stored size by several percent, more than a codec change
    may.

    Each op encodes the whole corpus with
    ``pipelines.encode.encode_parquet(corpus, fresh_out, resume=False)``.
    Check: the manifest row count equals the corpus row count, and one
    stripe (drawn from the seed) decodes to exactly its source row group.
    """

    # an op takes ~4 s: five give a median and a p75 that one slow actor
    # start does not decide
    min_batches = 5
    WEBTEXT_FILES = 3
    WEBTEXT_ROWS = 3360  # about 48 MB of raw Arrow
    SF = 0.02  # about 25 MB of raw Arrow

    def __init__(self, name: str, scratch, seed: int) -> None:
        self.name = name
        self.scratch = scratch
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.corpus: list[str] = []
        self.n_rows = 0
        self.last_entries: list[dict] = []

    def _tables(self) -> dict:
        from datafusion_orc_ray import fixtures

        t = fixtures.webtext_table(self.WEBTEXT_ROWS, seed=self.seed)
        per = -(-t.num_rows // self.WEBTEXT_FILES)
        out = {
            f"webtext{i}": (t.slice(i * per, per), 2) for i in range(self.WEBTEXT_FILES)
        }
        tpch = tpch_tables(self.SF, ["lineitem", "orders"])
        out.update(lineitem=(tpch["lineitem"], 4), orders=(tpch["orders"], 2))
        return out

    def setup(self, rep: int) -> float:
        t0 = time.perf_counter()
        d = self.scratch.path(f"corpus{rep}")
        os.makedirs(d)
        paths = []
        rng = np.random.default_rng(self.seed)
        for fname, (table, n_rg) in self._tables().items():
            p = os.path.join(d, f"{fname}.parquet")
            _write_parquet(table, p, n_rg, rng)
            paths.append(p)
        took = time.perf_counter() - t0
        if self.corpus:
            shutil.rmtree(os.path.dirname(self.corpus[0]), ignore_errors=True)
        self.corpus = sorted(paths)
        import pyarrow.parquet as pq

        self.n_rows = sum(pq.ParquetFile(p).metadata.num_rows for p in self.corpus)
        return took

    def source_tables(self) -> dict:
        """name -> pa.Table of the corpus (for the baselines)."""
        import pyarrow.parquet as pq

        return {os.path.basename(p)[: -len(".parquet")]: pq.read_table(p) for p in self.corpus}

    # -- ops
    def next_ops(self) -> list[str]:
        return [self.name]

    def run_op(self, label: str, op_id: int) -> OpResult:
        from datafusion_orc_ray.pipelines import encode as ep

        out = self.scratch.path(f"out{op_id}")
        start = time.time()
        t0 = time.perf_counter()
        try:
            ds = ep.encode_parquet(self.corpus, out, resume=False)
            rows = ds.take_all()
        except Exception:  # the op failed: count it, keep the loop going
            wall = time.perf_counter() - t0
            shutil.rmtree(out, ignore_errors=True)
            return OpResult(label, wall, False, 0, start, time.time(), traceback.format_exc())
        wall = time.perf_counter() - t0
        end = time.time()
        raw = sum(int(r["raw_bytes"]) for r in rows)
        try:
            err = self._check(rows)
        except Exception:  # a check that crashes is a failed check
            err = traceback.format_exc()
        finally:
            shutil.rmtree(out, ignore_errors=True)
        self.last_entries = rows
        return OpResult(label, wall, err is None, raw, start, end, err)

    def _check(self, rows: list[dict]) -> str | None:
        import pyarrow.parquet as pq

        from datafusion_orc_ray import stripe

        got = sum(int(r["n_rows"]) for r in rows)
        if got != self.n_rows:
            return f"manifest rows {got} != corpus rows {self.n_rows}"
        pick = sorted(rows, key=lambda r: r["stripe_id"])[
            int(self.rng.integers(len(rows)))
        ]
        path, rg = pick["lineage"].rsplit(":rg", 1)
        want = pq.ParquetFile(path).read_row_group(int(rg))
        decoded = stripe.decode_file(pick["path"])
        if not decoded.equals(want):
            return f"stripe {pick['stripe_id']} does not decode to {pick['lineage']}"
        return None

    def stored_per_raw(self) -> float:
        rows = self.last_entries
        return sum(int(r["encoded_bytes"]) for r in rows) / max(
            1, sum(int(r["raw_bytes"]) for r in rows)
        )

    def census(self) -> dict:
        return census(self.last_entries)


@dataclass
class Query:
    name: str
    sql: str
    plan: str
    tables: list[str]


class SqlTpch:
    """Each op runs one ``Catalog.sql`` query from a fixed cycle with one
    query per plan kind; it must take the expected plan and return what
    DuckDB returns over the source Parquet."""

    name = "sql_tpch"
    min_batches = 3  # query cycles
    SF = 0.01
    WEBTEXT_ROWS = 600
    ROW_GROUPS = {"lineitem": 4, "orders": 4, "customer": 1, "webtext": 3}

    def __init__(self, name: str, scratch, seed: int) -> None:
        self.scratch = scratch
        self.seed = seed
        self.catalog = None
        self.queries: list[Query] = []
        self.expected: dict = {}
        self.raw_bytes: dict[str, int] = {}
        self.entries: list[dict] = []
        self.parquet: dict[str, str] = {}

    def setup(self, rep: int) -> float:
        import duckdb
        import pyarrow as pa

        from datafusion_orc_ray import fixtures
        from datafusion_orc_ray.pipelines.encode import plan_fragments
        from datafusion_orc_ray.sources.stripes import Catalog
        from datafusion_orc_ray.stages.encode import FragmentEncoder
        from datafusion_orc_ray.state import manifest

        t0 = time.perf_counter()
        d = self.scratch.path(f"sql{rep}")
        os.makedirs(d)
        tables = tpch_tables(self.SF, ["lineitem", "orders", "customer"])
        tables["webtext"] = fixtures.webtext_table(self.WEBTEXT_ROWS, seed=self.seed)
        cat = Catalog()
        parquet, raw, entries = {}, {}, []
        for name, t in tables.items():
            src = os.path.join(d, f"{name}.parquet")
            _write_parquet(t, src, self.ROW_GROUPS[name])
            out = os.path.join(d, f"stripes_{name}")
            specs = pa.Table.from_pylist(plan_fragments(src))
            # the encode actor's own code, run in this process
            _restore_arrow_threads(lambda out=out, specs=specs: FragmentEncoder(out)(specs))
            cat.register_stripes(name, out)
            rows = manifest.load_manifest(out)
            entries.extend(rows)
            raw[name] = sum(int(e["raw_bytes"]) for e in rows)
            parquet[name] = src
        queries = self._cycle(tables)
        con = duckdb.connect()
        try:
            for name, p in parquet.items():
                con.execute(f"CREATE VIEW {name} AS SELECT * FROM read_parquet('{p}')")
            expected = {q.name: con.sql(q.sql).arrow() for q in queries}
        finally:
            con.close()
        took = time.perf_counter() - t0
        if self.parquet:
            shutil.rmtree(os.path.dirname(next(iter(self.parquet.values()))), ignore_errors=True)
        self.catalog, self.queries, self.expected = cat, queries, expected
        self.raw_bytes, self.entries, self.parquet = raw, entries, parquet
        return took

    def _cycle(self, tables: dict) -> list[Query]:
        import pyarrow.compute as pc

        rng = np.random.default_rng(self.seed)
        # filters use date and integer constants: DuckDB 1.0 over Arrow
        # mis-evaluates decimal columns against fractional literals
        # (`d > 0.03` keeps every row), so such a filter would fail the
        # check on every op
        day = np.datetime64("1995-01-01") + int(rng.integers(0, 1300))
        qty_topk = int(rng.integers(20, 45))
        k1, k2 = int(rng.integers(5, 20)), int(rng.integers(5, 20))
        qty = int(rng.integers(10, 45))
        price = int(rng.integers(300_000, 450_000))
        keys = tables["orders"].column("o_orderkey")
        lo, hi = pc.min(keys).as_py(), pc.max(keys).as_py()
        present = set(keys.to_pylist())
        absent = int(rng.integers(lo, hi))
        while absent in present:
            absent += 1
        return [
            Query(
                "stats",
                "SELECT count(*) AS n, min(l_shipdate) AS lo, max(l_shipdate) AS hi "
                "FROM lineitem",
                "stats_answer", ["lineitem"],
            ),
            Query(
                "aggregate",
                "SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty, "
                f"count(*) AS n FROM lineitem WHERE l_shipdate <= DATE '{day}' "
                "GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
                "aggregate_pushdown", ["lineitem"],
            ),
            Query(
                "aggregate_text",
                "SELECT lang, sum(length(text)) AS total_len, count(*) AS n "
                "FROM webtext GROUP BY lang ORDER BY lang",
                "aggregate_pushdown", ["webtext"],
            ),
            Query(
                "topk",
                "SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem "
                f"WHERE l_quantity > {qty_topk} "
                f"ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber LIMIT {k1}",
                "topk_pushdown", ["lineitem"],
            ),
            Query(
                "join_aggregate",
                "SELECT o_orderpriority, count(*) AS n FROM lineitem "
                f"JOIN orders ON l_orderkey = o_orderkey WHERE l_quantity > {qty} "
                "GROUP BY o_orderpriority ORDER BY o_orderpriority",
                "join_aggregate_pushdown", ["lineitem", "orders"],
            ),
            Query(
                "join_topk",
                "SELECT o_orderkey, o_totalprice, c_name FROM orders "
                "JOIN customer ON o_custkey = c_custkey "
                f"ORDER BY o_totalprice DESC, o_orderkey LIMIT {k2}",
                "join_topk_pushdown", ["orders", "customer"],
            ),
            Query(
                "semijoin",
                "SELECT o_orderkey, o_totalprice, c_name FROM orders "
                "JOIN customer ON o_custkey = c_custkey "
                f"WHERE o_totalprice > {price} ORDER BY o_orderkey",
                "stream+semijoin_prefilter", ["orders", "customer"],
            ),
            Query(
                "point",
                "SELECT o_orderkey, o_custkey, o_totalprice FROM orders "
                f"WHERE o_orderkey = {absent}",
                "stream", ["orders"],
            ),
        ]

    def next_ops(self) -> list[str]:
        return [q.name for q in self.queries]

    def run_op(self, label: str, op_id: int) -> OpResult:
        q = next(q for q in self.queries if q.name == label)
        raw = sum(self.raw_bytes[t] for t in q.tables)
        start = time.time()
        t0 = time.perf_counter()
        try:
            got = self.catalog.sql(q.sql)
        except Exception:  # the op failed: count it, keep the loop going
            return OpResult(
                label, time.perf_counter() - t0, False, raw, start, time.time(),
                traceback.format_exc(),
            )
        wall = time.perf_counter() - t0
        end = time.time()
        err = None
        if self.catalog.last_plan != q.plan:
            err = f"{label}: plan {self.catalog.last_plan!r}, expected {q.plan!r}"
        elif not got.equals(self.expected[label]):
            err = f"{label}: result differs from DuckDB over the source Parquet"
        return OpResult(label, wall, err is None, raw, start, end, err, self.catalog.last_plan)

    def stored_per_raw(self) -> float:
        return sum(int(e["encoded_bytes"]) for e in self.entries) / max(
            1, sum(int(e["raw_bytes"]) for e in self.entries)
        )

    def census(self) -> dict:
        return census(self.entries)


WORKLOADS = {
    "encode_mixed": MixedEncode,
    "sql_tpch": SqlTpch,
}
