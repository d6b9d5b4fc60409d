"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship encode->decode pipeline on sf0.001;
``queries()`` exposes one callable per implemented operator/pipeline
(SURVEY.md §2); ``oracle_sql()`` gives the DuckDB-equivalent SQL the
driver checks them against at sf0.01.

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa

_CACHE_ROOT = "/tmp/dfor_cache"


def _table_path(sf_dir: str, table: str) -> str:
    return os.path.join(sf_dir, f"{table}.parquet")


def _encoded(sf_dir: str, table: str) -> str:
    """Encode a driver table into a cached stripe dir (fragment mode,
    resume-aware: second call skips completed fragments)."""
    from datafusion_orc_ray import stripe
    from datafusion_orc_ray.pipelines import encode as ep

    # mtime+size in the key: regenerated test data at the same path must
    # not silently serve stale cached stripes
    st = os.stat(_table_path(sf_dir, table))
    key = hashlib.sha1(
        f"{sf_dir}:{table}:{stripe.FORMAT}:{st.st_mtime_ns}:{st.st_size}".encode()
    ).hexdigest()[:12]
    out_dir = os.path.join(_CACHE_ROOT, key, table)
    ep.encode_parquet(_table_path(sf_dir, table), out_dir).materialize()
    return out_dir


def _decoded(sf_dir: str, table: str, columns: list[str] | None = None):
    from datafusion_orc_ray.pipelines import encode as ep

    return ep.decode_stripes(_encoded(sf_dir, table), columns=columns)


def _ds(sf_dir: str, table: str, columns: list[str] | None = None):
    from datafusion_orc_ray.util import read_parquet_clean

    # metadata-stripped schema at the read: pandas parquet metadata made
    # hash(schema) raise, spamming a WARNING per block (VERDICT r4 #9)
    return read_parquet_clean(_table_path(sf_dir, table), columns=columns)


def entry() -> Any:
    """Flagship: encode sf0.001 documents into stripes (actor-pool
    encoder, manifests, codec auto-selection), decode back, return the
    decoded Dataset."""
    return _decoded("/root/testdata/sf0.001", "documents")


# --------------------------------------------------------------- queries

def _roundtrip(table: str):
    def q(sf_dir: str):
        return _decoded(sf_dir, table)

    return q


def _roundtrip_union(sf_dir: str):
    """Arrow dense-union through the full Ray encode->decode pipeline
    (stripe.py union_dense streams), flattened to plain columns so the
    DuckDB oracle can hash-compare: even doc_ids carry int64 n_chars in
    child "i", odd carry lang in child "s"."""
    import tempfile

    import numpy as np
    import ray.data

    from datafusion_orc_ray.pipelines import encode as ep

    def build(b: pa.Table) -> pa.Table:
        doc_id = b.column("doc_id").to_numpy(zero_copy_only=False)
        tags = (doc_id % 2).astype(np.int8)
        offsets = np.empty(len(tags), np.int32)
        ev = tags == 0
        offsets[ev] = np.arange(int(ev.sum()), dtype=np.int32)
        offsets[~ev] = np.arange(int((~ev).sum()), dtype=np.int32)
        ints = b.column("n_chars").combine_chunks().filter(pa.array(ev))
        strs = b.column("lang").combine_chunks().filter(pa.array(~ev))
        u = pa.UnionArray.from_dense(
            pa.array(tags), pa.array(offsets), [ints, strs], field_names=["i", "s"]
        )
        return pa.table({"doc_id": b.column("doc_id"), "u": u})

    def flatten(b: pa.Table) -> pa.Table:
        # per chunk: concatenating dense unions (combine_chunks) is
        # unimplemented in Arrow, and .type_codes/.offsets are PARENT
        # buffers — not adjusted for the slice views Ray's block splits
        # produce — so window them by (offset, len)
        tag_parts, int_parts, str_parts = [], [], []
        col = b.column("u")
        chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
        for u in chunks:
            start, n = u.offset, len(u)
            codes = np.asarray(u.type_codes)[start : start + n]
            offs = np.asarray(u.offsets)[start : start + n]
            ints = u.field(0).to_numpy(zero_copy_only=False)
            u_int = np.zeros(n, np.int64)
            ev = codes == 0
            u_int[ev] = ints[offs[ev]]
            u_str = np.full(n, None, dtype=object)
            sv = u.field(1).take(pa.array(offs[~ev], pa.int32()))
            u_str[~ev] = np.asarray(sv.to_pylist(), dtype=object)
            tag_parts.append(codes.astype(np.int64))
            int_parts.append(u_int)
            str_parts.append(u_str)
        tags = np.concatenate(tag_parts)
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "u_tag": pa.array(tags),
                "u_int": pa.array(np.concatenate(int_parts), mask=tags != 0),
                "u_str": pa.array(np.concatenate(str_parts), pa.string()),
            }
        )

    out_dir = tempfile.mkdtemp(prefix="rstp_union_")
    ds = _ds(sf_dir, "documents", ["doc_id", "lang", "n_chars"]).map_batches(
        build, batch_format="pyarrow"
    )
    ep.encode_dataset(ds, out_dir, concurrency=2).materialize()
    return ep.decode_stripes(out_dir).map_batches(flatten, batch_format="pyarrow")


def _roundtrip_decimal256(sf_dir: str):
    """>128-bit decimal256 through the full Ray encode->decode pipeline
    (stripe.py decimal_limbs: four int64 limb streams). DuckDB
    DECIMAL caps at 38 digits, so the value under compare is the exact
    decimal STRING: 56+ digits built from (doc_id, n_chars), scale 2."""
    import tempfile

    from decimal import Decimal

    from datafusion_orc_ray.pipelines import encode as ep

    def build(b: pa.Table) -> pa.Table:
        # Decimal(str) is exact at any width; arithmetic (e.g. /100)
        # would round at the default 28-digit context
        vals = [
            Decimal(f"{i + 1}{c // 100:051d}.{c % 100:02d}")
            for i, c in zip(
                b.column("doc_id").to_pylist(), b.column("n_chars").to_pylist()
            )
        ]
        return pa.table(
            {"doc_id": b.column("doc_id"), "d": pa.array(vals, pa.decimal256(76, 2))}
        )

    def flatten(b: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "d_str": _pc.cast(b.column("d"), pa.string()),
            }
        )

    out_dir = tempfile.mkdtemp(prefix="rstp_dec256_")
    ds = _ds(sf_dir, "documents", ["doc_id", "n_chars"]).map_batches(
        build, batch_format="pyarrow"
    )
    ep.encode_dataset(ds, out_dir, concurrency=2).materialize()
    return ep.decode_stripes(out_dir).map_batches(flatten, batch_format="pyarrow")


def _projection_lineitem(sf_dir: str):
    return _decoded(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])


def _count_lineitem(sf_dir: str):
    from datafusion_orc_ray.pipelines import relational as rel

    return rel.count_rows(_decoded(sf_dir, "lineitem", columns=["l_orderkey"]))


def _stats_lineitem(sf_dir: str):
    from datafusion_orc_ray.pipelines import relational as rel

    return rel.manifest_column_stats(_encoded(sf_dir, "lineitem"), "l_quantity")


def _distinct_lang(sf_dir: str):
    from datafusion_orc_ray.pipelines import relational as rel

    return rel.grouped_agg(_ds(sf_dir, "documents", ["lang"]), ["lang"], {"n": ("count", "lang")})


def _topk_orders(sf_dir: str):
    from datafusion_orc_ray.pipelines import relational as rel

    return rel.topk(
        _ds(sf_dir, "orders", ["o_orderkey", "o_totalprice"]),
        key="o_totalprice",
        k=10,
        columns=["o_orderkey", "o_totalprice"],
        tiebreak="o_orderkey",
    )


def _filter_events(sf_dir: str):
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch.column("event_type"), "click"))

    return _ds(sf_dir, "events", ["event_id", "event_type", "value"]).map_batches(
        f, batch_format="pyarrow"
    )


def _q1_lineitem(sf_dir: str):
    from datafusion_orc_ray.pipelines import relational as rel

    out = rel.grouped_agg(
        _ds(sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"]),
        ["l_returnflag", "l_linestatus"],
        {
            "sum_qty": ("sum", "l_quantity"),
            "sum_base": ("sum", "l_extendedprice"),
            "n": ("count", "l_quantity"),
        },
    )
    import pyarrow.compute as pc

    return pa.table(
        {
            "l_returnflag": out.column("l_returnflag"),
            "l_linestatus": out.column("l_linestatus"),
            "sum_qty": pc.round(out.column("sum_qty"), 2, round_mode="half_towards_infinity"),
            "sum_base": pc.round(out.column("sum_base"), 2, round_mode="half_towards_infinity"),
            "n": out.column("n"),
        }
    )


def _filter_pushdown_orders(sf_dir: str):
    """Stats-driven scan pruning: stripes whose manifest min/max exclude
    the predicate are skipped before any IO; survivors get a vectorized
    residual filter (E13/S4 — the reference stubs stats entirely)."""
    from datafusion_orc_ray.sources.stripes import read_stripes

    return read_stripes(
        _encoded(sf_dir, "orders"),
        columns=["o_orderkey", "o_totalprice"],
        predicate=("o_orderkey", "<", 1000),
    )


def _filter_pushdown_multi_orders(sf_dir: str):
    """Multi-conjunct scan pruning (AND semantics end-to-end): every
    conjunct prunes stripes/chunks via stats, the residual filters all
    apply inside decode (sources/datasource.py, stages/decode.py)."""
    from datafusion_orc_ray.sources.stripes import read_stripes

    return read_stripes(
        _encoded(sf_dir, "orders"),
        columns=["o_orderkey", "o_totalprice"],
        predicate=[
            ("o_orderkey", ">=", 500),
            ("o_orderkey", "<", 5000),
            ("o_totalprice", ">", 50000.0),
        ],
    )


def _filter_pushdown_or_orders(sf_dir: str):
    """OR/disjunction scan pruning (VERDICT r4 #3): a stripe survives
    when ANY disjunct may match its stats — pruning is the union of
    per-disjunct may-match — and the residual OR filter applies
    SQL-(Kleene-)exact inside decode. Model: the reference's scan runs
    under arbitrary DataFusion filter trees (src/file_source.rs:95-102);
    this is the disjunctive shape our AND-only round-4 pushdown ran
    unpruned."""
    from datafusion_orc_ray.sources.stripes import read_stripes

    return read_stripes(
        _encoded(sf_dir, "orders"),
        columns=["o_orderkey", "o_totalprice"],
        predicate=[
            (
                "or",
                [
                    [("o_orderkey", "<", 500)],
                    [("o_orderkey", ">=", 14000), ("o_totalprice", ">", 100000.0)],
                ],
            ),
        ],
    )


def _distinct_count_orders(sf_dir: str):
    """Distinct-count: per-batch partial distinct -> distributed groupby
    (never a driver-side unique)."""
    from datafusion_orc_ray.pipelines import relational as rel

    return rel.distinct_count(_ds(sf_dir, "orders", ["o_custkey"]), "o_custkey")


def _group_by_custkey_orders(sf_dir: str):
    """High-cardinality grouped aggregate (one group per customer): the
    partial→final shape round 1 would have merged on the driver."""
    import pyarrow.compute as pc

    from datafusion_orc_ray.pipelines import relational as rel

    out = rel.grouped_agg(
        _ds(sf_dir, "orders", ["o_custkey", "o_totalprice"]),
        ["o_custkey"],
        {"total": ("sum", "o_totalprice"), "n": ("count", "o_totalprice")},
    )
    return pa.table(
        {
            "o_custkey": out.column("o_custkey"),
            "total": pc.round(out.column("total"), 2, round_mode="half_towards_infinity"),
            "n": out.column("n"),
        }
    )


def _string_funcs_documents(sf_dir: str):
    """Vectorized scalar string functions (upper/substr) in map_batches."""
    import pyarrow.compute as pc

    def fn(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "head10": pc.utf8_upper(pc.utf8_slice_codeunits(batch.column("text"), 0, 10)),
            }
        )

    return _ds(sf_dir, "documents", ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow")


def _hash_join_orders_customer(sf_dir: str):
    """Partitioned hash join (both sides shuffled by key bucket)."""
    from datafusion_orc_ray.pipelines import relational as rel

    return rel.collect(
        rel.hash_join(
            _ds(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"]),
            _ds(sf_dir, "customer", ["c_custkey", "c_mktsegment"]),
            "o_custkey",
            "c_custkey",
        )
    )


def _skew_join_events(sf_dir: str):
    """Skewed-key join: every event_type is a hot key (5 values over the
    whole table), so the broadcast hot-key path of hash_join carries ~all
    rows; cold path handles the tail. Right side is the per-type count
    dimension."""
    from datafusion_orc_ray.pipelines import relational as rel

    events = _ds(sf_dir, "events", ["event_id", "event_type"])
    counts = rel.grouped_agg(events, ["event_type"], {"type_count": ("count", "event_type")})
    import ray.data

    joined = rel.hash_join(
        events,
        ray.data.from_arrow(counts),
        "event_type",
        "event_type",
        hot_key_share=0.02,
    )
    return rel.collect(joined)


def _semi_join_customers(sf_dir: str):
    """Left semi join: customers WITH at least one order."""
    from datafusion_orc_ray.pipelines import relational as rel

    return rel.collect(
        rel.hash_join(
            _ds(sf_dir, "customer", ["c_custkey", "c_mktsegment"]),
            _ds(sf_dir, "orders", ["o_custkey"]),
            "c_custkey", "o_custkey", join_type="left semi",
        )
    )


def _anti_join_customers(sf_dir: str):
    """Left anti join: customers with NO orders (NOT EXISTS semantics)."""
    from datafusion_orc_ray.pipelines import relational as rel

    return rel.collect(
        rel.hash_join(
            _ds(sf_dir, "customer", ["c_custkey", "c_mktsegment"]),
            _ds(sf_dir, "orders", ["o_custkey"]),
            "c_custkey", "o_custkey", join_type="left anti",
        )
    )


def _grouped_topk_documents(sf_dir: str):
    """Top-3 documents per lang by n_chars (per-group top-k via
    per-batch combiner + tree reduce)."""
    from datafusion_orc_ray.pipelines import relational as rel

    return rel.grouped_topk(
        _ds(sf_dir, "documents", ["lang", "doc_id", "n_chars"]),
        keys=["lang"], order_col="n_chars", k=3,
        columns=["lang", "doc_id", "n_chars"], tiebreak="doc_id",
    )


def _grouped_median_events(sf_dir: str):
    """Exact per-group median (key-hash co-location + vectorized
    per-bucket offset picks)."""
    import pyarrow.compute as pc

    from datafusion_orc_ray.pipelines import relational as rel

    out = rel.collect(
        rel.grouped_median(_ds(sf_dir, "events", ["event_type", "value"]), ["event_type"], "value")
    )
    return pa.table(
        {"event_type": out.column("event_type"), "med": pc.round(out.column("med"), 4, round_mode="half_towards_infinity")}
    )


def _grouped_median_skewed_events(sf_dir: str):
    """EXACT median for mega-keys without co-location: value-bin counts
    locate the two middle order statistics, one filtered pass fetches
    only those bins (relational._hot_exact_quantile) — closes the last
    'exact quantiles need full co-location' scale limit for hot keys."""
    import pyarrow.compute as pc

    from datafusion_orc_ray.pipelines import relational as rel

    out = rel.collect(
        rel.grouped_median(
            _ds(sf_dir, "events", ["event_type", "value"]), ["event_type"], "value",
            hot_keys="auto", hot_bytes=1 << 16,
        )
    )
    return pa.table(
        {"event_type": out.column("event_type"), "med": pc.round(out.column("med"), 4, round_mode="half_towards_infinity")}
    )


def _running_total_events(sf_dir: str):
    """Cumulative window: sum(value) per user ordered by (ts, event_id)
    — co-locate by user hash, vectorized segmented cumsum per bucket."""
    import pyarrow.compute as pc

    from datafusion_orc_ray.pipelines import relational as rel, windows as w

    out = rel.collect(
        w.running_total(
            _ds(sf_dir, "events", ["event_id", "user_id", "ts", "value"]),
            "user_id", "ts", "value", tiebreak="event_id",
        )
    )
    return pa.table(
        {
            "event_id": out.column("event_id"),
            "running": pc.round(out.column("running"), 4, round_mode="half_towards_infinity"),
        }
    )


def _lag_lead_events(sf_dir: str):
    """lag/lead window: previous and next value per user ordered by
    (ts, event_id) — one co-location shuffle, per-bucket vectorized
    index-shift take (nulls at partition edges, SQL semantics)."""
    from datafusion_orc_ray.pipelines import relational as rel, windows as w

    out = rel.collect(
        w.lag_lead(
            _ds(sf_dir, "events", ["event_id", "user_id", "ts", "value"]),
            "user_id", "ts", "value", tiebreak="event_id",
            lag_col="prev_value", lead_col="next_value",
        )
    )
    return out.select(["event_id", "prev_value", "next_value"])


def _moving_avg_events(sf_dir: str):
    """Rolling mean over the last 4 rows per user (ROWS BETWEEN 3
    PRECEDING AND CURRENT ROW) — prefix-difference frame sums after one
    co-location shuffle."""
    import pyarrow.compute as pc

    from datafusion_orc_ray.pipelines import relational as rel, windows as w

    out = rel.collect(
        w.moving_avg(
            _ds(sf_dir, "events", ["event_id", "user_id", "ts", "value"]),
            "user_id", "ts", "value", preceding=3, tiebreak="event_id",
        )
    )
    return pa.table(
        {
            "event_id": out.column("event_id"),
            "moving_avg": pc.round(out.column("moving_avg"), 4, round_mode="half_towards_infinity"),
        }
    )


def _regex_replace_documents(sf_dir: str):
    """Vectorized regexp_replace (RE2 both sides)."""
    import pyarrow.compute as pc

    def fn(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "redacted": pc.replace_substring_regex(
                    batch.column("text"), pattern="[aeiou]+", replacement="_"
                ),
            }
        )

    return _ds(sf_dir, "documents", ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow")


def _rank_in_lang_documents(sf_dir: str):
    """Grouped window function: row_number() per lang ordered by n_chars
    DESC (key-hash co-location + vectorized per-bucket rank)."""
    from datafusion_orc_ray.pipelines import relational as rel

    return rel.grouped_rank(
        _ds(sf_dir, "documents", ["lang", "doc_id", "n_chars"]),
        keys=["lang"], order_col="n_chars", tiebreak="doc_id",
    )


def _ntile_documents(sf_dir: str):
    """percent_rank + ntile(4) per lang ordered by n_chars DESC — same
    one co-location shuffle as row_number, extra columns are two numpy
    expressions over the segment sizes."""
    import pyarrow.compute as pc

    from datafusion_orc_ray.pipelines import relational as rel

    out = rel.collect(
        rel.grouped_rank(
            _ds(sf_dir, "documents", ["lang", "doc_id", "n_chars"]),
            keys=["lang"], order_col="n_chars", tiebreak="doc_id",
            percent=True, ntile=4,
        )
    )
    return pa.table(
        {
            "doc_id": out.column("doc_id"),
            "pct_rank": pc.round(out.column("pct_rank"), 6, round_mode="half_towards_infinity"),
            "tile": out.column("tile"),
        }
    )


def _rank_skewed_documents(sf_dir: str):
    """row_number + percent_rank + ntile with hot_keys='auto': every
    lang is a mega-key at the small threshold, so ranks come from
    order-value range bins plus driver COUNT offsets (rank is
    decomposable; a dedicated null bin keeps nulls last under DESC) —
    the skew path for 'top-N per domain' style curation."""
    import pyarrow.compute as pc

    from datafusion_orc_ray.pipelines import relational as rel

    out = rel.collect(
        rel.grouped_rank(
            _ds(sf_dir, "documents", ["lang", "doc_id", "n_chars"]),
            keys=["lang"], order_col="n_chars", tiebreak="doc_id",
            percent=True, ntile=4,
            hot_keys="auto", hot_bytes=1 << 14,
        )
    )
    return pa.table(
        {
            "doc_id": out.column("doc_id"),
            "rn": out.column("rn"),
            "pct_rank": pc.round(out.column("pct_rank"), 6, round_mode="half_towards_infinity"),
            "tile": out.column("tile"),
        }
    )


def _zscore_events(sf_dir: str):
    """Group-mean centering: value - avg(value) per event_type via the
    aggregate-then-broadcast-join-back pattern (no row shuffle)."""
    import pyarrow.compute as pc

    from datafusion_orc_ray.pipelines import relational as rel

    out = rel.collect(
        rel.group_mean_center(
            _ds(sf_dir, "events", ["event_id", "event_type", "value"]),
            ["event_type"], "value",
        )
    )
    return pa.table(
        {
            "event_id": out.column("event_id"),
            "event_type": out.column("event_type"),
            "centered": pc.round(out.column("centered"), 4, round_mode="half_towards_infinity"),
        }
    )


def _window_agg_events(sf_dir: str):
    """Tumbling 1-hour window aggregate over the events stream
    (ray_guide "Streaming-shaped workloads": event-time windows as
    grouped aggregation over a computed window key)."""
    import pyarrow.compute as pc

    from datafusion_orc_ray.pipelines import relational as rel

    def add_window(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64())
        w = pc.divide(us, 3_600_000_000)
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "w": w,
                "value": batch.column("value"),
            }
        )

    ds = _ds(sf_dir, "events", ["ts", "event_type", "value"]).map_batches(
        add_window, batch_format="pyarrow"
    )
    out = rel.grouped_agg(ds, ["event_type", "w"], {"total": ("sum", "value"), "n": ("count", "value")})
    return pa.table(
        {
            "event_type": out.column("event_type"),
            "w": out.column("w"),
            "total": pc.round(out.column("total"), 2, round_mode="half_towards_infinity"),
            "n": out.column("n"),
        }
    )


def _sessionize_events(sf_dir: str):
    """Gap-based sessionization (30-min gaps) — the streaming-window
    custom operator as one user-hash-bucket shuffle + vectorized
    per-bucket session assignment."""
    from datafusion_orc_ray.pipelines import relational as rel, windows as w

    out = rel.collect(w.sessionize(_ds(sf_dir, "events", ["user_id", "ts"])))
    return out


def _sessionize_skewed_events(sf_dir: str):
    """Sessionize with hot_keys='auto', keyed on event_type so every
    key is a mega-key at the small threshold: ts-range bin split, thin
    stitch pass for global sid offsets, distributed re-aggregate for
    boundary-spanning sessions (windows._session_offsets)."""
    from datafusion_orc_ray.pipelines import relational as rel, windows as w

    return rel.collect(
        w.sessionize(
            _ds(sf_dir, "events", ["event_type", "ts"]),
            user_col="event_type",
            hot_keys="auto", hot_bytes=1 << 16,
        )
    )


def _sliding_window_events(sf_dir: str):
    """Sliding event-time windows (2h long, 1h slide): vectorized fan-out
    to member windows + partial/tree aggregate."""
    import pyarrow.compute as pc

    from datafusion_orc_ray.pipelines import windows as w

    out = w.sliding_window_agg(
        _ds(sf_dir, "events", ["ts", "event_type", "value"]),
        "ts", "event_type", "value",
        window_us=2 * 3_600_000_000, slide_us=3_600_000_000,
    )
    return pa.table(
        {
            "event_type": out.column("event_type"),
            "w": out.column("w"),
            "total": pc.round(out.column("total"), 2, round_mode="half_towards_infinity"),
            "n": out.column("n"),
        }
    )


def _asof_join_events(sf_dir: str):
    """As-of join: each event picks the latest click-hour mark <= its ts
    (broadcast sorted marks + per-batch searchsorted — no shuffle)."""
    import pyarrow.compute as pc

    from datafusion_orc_ray.pipelines import relational as rel, windows as w

    events = _ds(sf_dir, "events", ["event_id", "ts", "event_type"])

    def to_marks(batch: pa.Table) -> pa.Table:
        clicks = batch.filter(pc.equal(batch.column("event_type"), "click"))
        mts = pc.floor_temporal(clicks.column("ts"), unit="hour")
        return pa.table({"mts": mts.unique()})

    # marks table: bounded dimension (distinct hours of click events)
    marks = rel.collect(events.map_batches(to_marks, batch_format="pyarrow"))
    marks = pa.table({"mts": marks.column("mts").combine_chunks().unique()})
    joined = w.asof_join_broadcast(
        events.map_batches(
            lambda b: b.select(["event_id", "ts"]), batch_format="pyarrow"
        ),
        marks, "ts", "mts",
    )
    out = rel.collect(joined)
    return out.select(["event_id", "mts"])


def _dedup_exact(sf_dir: str):
    from datafusion_orc_ray.pipelines import dedup, relational as rel

    return rel.collect(dedup.exact_dedup_ids(_ds(sf_dir, "documents", ["doc_id", "text"])))


def _token_counts(sf_dir: str):
    from datafusion_orc_ray.pipelines import text as tx

    return tx.token_counts(_ds(sf_dir, "documents", ["doc_id", "text"]))


def _bpe_token_counts(sf_dir: str):
    from datafusion_orc_ray.pipelines import text as tx

    return tx.bpe_token_counts(_ds(sf_dir, "documents", ["doc_id", "text"]))


def _quality(sf_dir: str):
    from datafusion_orc_ray.pipelines import text as tx

    return tx.quality_scores(_ds(sf_dir, "documents", ["doc_id", "text"]))


def _bytes_meta(sf_dir: str):
    from datafusion_orc_ray.pipelines import multimodal as mm

    def to_binary(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "payload": pc.cast(batch.column("text"), pa.binary()),
            }
        )

    ds = _ds(sf_dir, "documents", ["doc_id", "text"]).map_batches(to_binary, batch_format="pyarrow")
    return mm.binary_metadata(ds, "doc_id", "payload")


def _query_vec(sf_dir: str) -> np.ndarray:
    import pyarrow.parquet as pq

    t = pq.read_table(_table_path(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    idx = t.column("vec_id").to_pylist().index(0)
    return np.array(t.column("embedding")[idx].as_py(), dtype=np.float64)


def _embedding_decontam(sf_dir: str):
    """Embedding-space decontamination: every 50th vector plays the
    held-out eval set (broadcast float64 matrix via ray.put); corpus
    rows whose max cosine against it rounds to >= 0.2 are dropped.
    One matmul per batch, zero shuffle — the 100-TB-side op is pure
    streaming."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from datafusion_orc_ray.pipelines import similarity as sim

    ref_tbl = pq.read_table(
        _table_path(sf_dir, "embeddings"), columns=["vec_id", "embedding"]
    )
    mask = pc.equal(_np_mod(ref_tbl.column("vec_id"), 50), 0)
    ref_tbl = ref_tbl.filter(mask)
    flat = ref_tbl.column("embedding").combine_chunks().flatten()
    ref = np.asarray(flat, dtype=np.float64).reshape(ref_tbl.num_rows, -1)
    return sim.embedding_decontam(
        _ds(sf_dir, "embeddings", ["vec_id", "embedding"]), ref, threshold=0.2
    )


def _np_mod(arr, k: int):
    import pyarrow as _pa
    import pyarrow.compute as _pc

    if isinstance(arr, _pa.ChunkedArray):
        arr = arr.combine_chunks()
    return _pa.array(arr.to_numpy(zero_copy_only=False) % k)


def _unnest_embeddings(sf_dir: str):
    """Vectorized list explode (flat_map): one row per (vec_id, element).
    pc.list_parent_indices + list_flatten — no Python row loop."""
    import pyarrow.compute as pc

    def fn(batch: pa.Table) -> pa.Table:
        emb = batch.column("embedding")
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        parents = pc.list_parent_indices(emb)
        return pa.table(
            {
                "vec_id": batch.column("vec_id").take(parents),
                "v": pc.round(
                    pc.cast(pc.list_flatten(emb), pa.float64()),
                    5,
                    round_mode="half_towards_infinity",
                ),
            }
        )

    return _ds(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
        fn, batch_format="pyarrow"
    )


def _knn(sf_dir: str):
    import pyarrow.compute as pc

    from datafusion_orc_ray.pipelines import similarity as sim

    out = sim.knn_cosine(_ds(sf_dir, "embeddings"), _query_vec(sf_dir), k=10)
    return pa.table(
        {"vec_id": out.column("vec_id"), "cos_sim": pc.round(out.column("cos_sim"), 4, round_mode="half_towards_infinity")}
    )


def _join_customer_orders(sf_dir: str):
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from datafusion_orc_ray.pipelines import relational as rel

    cust = pq.read_table(_table_path(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"])
    out = rel.broadcast_join_agg(
        _ds(sf_dir, "orders", ["o_custkey", "o_totalprice"]),
        cust,
        left_key="o_custkey",
        right_key="c_custkey",
        right_val="c_mktsegment",
        agg_val="o_totalprice",
    )
    return pa.table(
        {
            "c_mktsegment": out.column("c_mktsegment"),
            "total": pc.round(out.column("total"), 2, round_mode="half_towards_infinity"),
            "n_rows": out.column("n_rows"),
        }
    )


# ------------------------------------------------- non-SQL-expressible ops

def _minhash_dedup(sf_dir: str):
    from datafusion_orc_ray.pipelines import dedup

    ds = _ds(sf_dir, "documents", ["doc_id", "text"])
    pairs = dedup.minhash_candidate_pairs(ds)
    return dedup.verify_pairs_jaccard(ds, pairs, threshold=0.8)


def _minhash_dedup_corpus(sf_dir: str):
    """End-to-end corpus dedup (LSH candidates -> exact-content verify ->
    survivors). Hard oracle: equals min(doc_id) per exact-text group by
    construction (identical texts share every band hash)."""
    from datafusion_orc_ray.pipelines import dedup

    return dedup.minhash_dedup_corpus(_ds(sf_dir, "documents", ["doc_id", "text"]))


def _jaccard_pairs(sf_dir: str):
    """Exact n-gram (3-word-shingle) Jaccard similarity join over the
    documents table — the ground-truth counterpart to the minhash
    pipeline, hard-oracled against an all-pairs DuckDB gram join."""
    from datafusion_orc_ray.pipelines import dedup

    return dedup.jaccard_similarity_join(
        _ds(sf_dir, "documents", ["doc_id", "text"]), threshold=0.5
    )


def _simhash(sf_dir: str):
    from datafusion_orc_ray.pipelines import dedup

    return dedup.simhashes(_ds(sf_dir, "documents", ["doc_id", "text"]))


def _range_join_orders(sf_dir: str):
    """Interval join (price tiers): broadcast small side + one
    searchsorted per batch — the fact table never shuffles."""
    from datafusion_orc_ray.pipelines import windows as w

    tiers = pa.table(
        {
            "tier_id": pa.array(range(40), pa.int64()),
            "lo": pa.array([i * 15000.0 for i in range(40)]),
            "hi": pa.array([(i + 1) * 15000.0 for i in range(40)]),
        }
    )
    return w.range_join_broadcast(
        _ds(sf_dir, "orders", ["o_orderkey", "o_totalprice"]),
        tiers,
        "o_totalprice",
        "lo",
        "hi",
        right_cols=["tier_id"],
    )


def _shared_spans_documents(sf_dir: str):
    """Span-level dup diagnostic (Lee et al. 2022): per doc, k-token
    window positions whose window recurs in another document."""
    from datafusion_orc_ray.pipelines import dedup

    return dedup.shared_span_counts(_ds(sf_dir, "documents", ["doc_id", "text"]), k=8)


def _training_shards_documents(sf_dir: str):
    """Final-mile shard writer driven END TO END: deterministic Knuth
    epoch-shuffle shard assignment, hive-partitioned parquet output
    (one dir per shard, resume unit), stats computed by reading the
    written files back — the oracle checks the sink, not just the
    assignment."""
    import shutil
    import tempfile

    from datafusion_orc_ray.pipelines import corpus

    out = tempfile.mkdtemp(prefix="train_shards_", dir="/tmp")
    try:
        return corpus.make_training_shards(
            _ds(sf_dir, "documents", ["doc_id", "text"]), out, n_shards=16, seed=0
        )
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _weighted_sample_documents(sf_dir: str):
    """Quality-weighted subsample: 50 docs ranked by the integer
    priority (coin << 20) // n_chars — longer docs draw smaller
    priorities, so selection probability grows with length. One
    combiner+tree top-k pass, zero shuffle, same rows at any
    parallelism."""
    from datafusion_orc_ray.pipelines import corpus

    t = corpus.weighted_sample(
        _ds(sf_dir, "documents", ["doc_id", "n_chars"]), k=50, weight_col="n_chars"
    )
    return t.sort_by("doc_id")


def _pack_blocks_documents(sf_dir: str):
    """GPT-style concat-and-chunk: per deterministic shard, concatenate
    doc token streams (+<eod> per doc) in epoch order and cut fixed
    512-token blocks — sequences cross document boundaries (the
    pretraining data format; pack_sequences is the no-split variant).
    One shard exchange total."""
    from datafusion_orc_ray.pipelines import corpus

    return corpus.pack_blocks(
        _ds(sf_dir, "documents", ["doc_id", "text"]),
        block_tokens=512,
        n_shards=16,
        seed=0,
    )


def _excise_spans_documents(sf_dir: str):
    """Substring-dedup EXCISION (Lee et al. 2022): rewrite each doc so
    every 8-token window shared with another doc survives only in its
    owner (min doc_id); output is whitespace-normalized surviving
    tokens. One h-bucket shuffle + driver-gated rejoin (broadcast below
    the gate, bucket left-outer join above — text never shuffles)."""
    from datafusion_orc_ray.pipelines import dedup

    return dedup.excise_shared_spans(
        _ds(sf_dir, "documents", ["doc_id", "text"]), k=8
    )


def _decontam_documents(sf_dir: str):
    """Benchmark decontamination (GPT-3 appendix-C shape): per training
    doc, 8-token window positions overlapping a held-out eval slice
    (doc_id % 37 == 0 stands in for the benchmark set). Shuffle-free:
    the benchmark's window hashes broadcast once as bloom + sorted
    array; the corpus streams through a vectorized probe."""
    import ray.data

    from datafusion_orc_ray.pipelines import dedup

    import numpy as np
    import pyarrow as pa

    docs = _ds(sf_dir, "documents", ["doc_id", "text"])

    def _slice(want_bench: bool):
        def fn(b):
            ids = b.column("doc_id").to_numpy(zero_copy_only=False)
            m = (ids % 37) == 0
            return b.filter(pa.array(m if want_bench else ~m))

        return fn

    bench = docs.map_batches(_slice(True), batch_format="pyarrow")
    train = docs.map_batches(_slice(False), batch_format="pyarrow")
    return dedup.contamination_counts(train, bench, k=8)


def _curation_pipeline_documents(sf_dir: str):
    """End-to-end curation composition — the engine's flagship shape:
    C4 quality gate (streaming, no shuffle) -> benchmark decontamination
    (broadcast probe, no shuffle) -> exact dedup survivors (one
    (h128, id) exchange) -> survivor semi-join back to attributes.
    Every stage is an existing hard-oracled operator; the oracle mirrors
    the SAME order (dedup runs on the filtered set)."""
    import numpy as np
    import pyarrow as pa

    from datafusion_orc_ray.pipelines import corpus, dedup, relational as rel

    docs = _ds(sf_dir, "documents", ["doc_id", "lang", "text"])

    def _slice(want_bench: bool):
        def fn(b):
            ids = b.column("doc_id").to_numpy(zero_copy_only=False)
            m = (ids % 37) == 0
            return b.filter(pa.array(m if want_bench else ~m))

        return fn

    bench = docs.map_batches(_slice(True), batch_format="pyarrow")
    train = docs.map_batches(_slice(False), batch_format="pyarrow")
    q = corpus.c4_quality_filter(train)
    clean = dedup.decontaminate(q, bench, k=8)
    surv = dedup.exact_dedup_ids(clean)
    attrs = clean.map_batches(
        lambda b: b.select(["doc_id", "lang", "n_tok"]), batch_format="pyarrow"
    )
    return rel.hash_join(attrs, surv, "doc_id", "doc_id", join_type="left semi")


def _dedup_incremental_documents(sf_dir: str):
    """Incremental ingest dedup: even doc_ids play yesterday's corpus,
    odd doc_ids are today's crawl; keep only odd docs whose text is not
    already present in the even slice (exact content match, anti join
    on 16-byte content keys)."""
    import numpy as np
    import pyarrow as pa

    from datafusion_orc_ray.pipelines import dedup

    docs = _ds(sf_dir, "documents", ["doc_id", "text"])

    def _half(want_even: bool):
        def fn(b):
            ids = b.column("doc_id").to_numpy(zero_copy_only=False)
            m = (ids % 2) == 0
            return b.filter(pa.array(m if want_even else ~m))

        return fn

    existing = docs.map_batches(_half(True), batch_format="pyarrow")
    new = docs.map_batches(_half(False), batch_format="pyarrow")
    return dedup.dedup_against(new, existing)


def _quantile_filter_documents(sf_dir: str):
    """Per-language percentile quality gate: keep docs whose char length
    is >= their language's p25 (drop each language's shortest tail
    rather than one global cutoff)."""
    from datafusion_orc_ray.pipelines import corpus

    return corpus.quantile_length_filter(
        _ds(sf_dir, "documents", ["doc_id", "lang", "text"]), q=0.25
    )


def _repetition_documents(sf_dir: str):
    """Gopher/MassiveText repetition signals (dup-line / dup-char /
    top-bigram fractions) — the standard web-corpus quality gate."""
    from datafusion_orc_ray.pipelines import text as tx

    return tx.repetition_signals(_ds(sf_dir, "documents", ["doc_id", "text"]))


def _point_lookup_orders(sf_dir: str):
    """Point lookup over encoded stripes: an == predicate prunes via
    manifest min/max AND the per-stripe footer bloom filters
    (codecs/bloom — absent values proven absent after a footer-only
    read), then the residual row filter keeps results exact."""
    from datafusion_orc_ray.sources.stripes import read_stripes

    return read_stripes(
        _encoded(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
        predicate=("o_orderkey", "==", 777),
    )


def _langid(sf_dir: str):
    from datafusion_orc_ray.pipelines import text as tx

    return tx.langid(_ds(sf_dir, "documents", ["doc_id", "text"]))


def _fingerprints(sf_dir: str):
    from datafusion_orc_ray.pipelines import text as tx

    return tx.fingerprints(_ds(sf_dir, "documents", ["doc_id", "text"]))


def _pii_redact_documents(sf_dir: str):
    """PII scrub: emails then phone-like runs -> typed placeholders (two
    vectorized RE2 passes; DuckDB runs the same patterns)."""
    from datafusion_orc_ray.pipelines import text as tx

    return tx.pii_redact(_ds(sf_dir, "documents", ["doc_id", "text"]))


def _pack_sequences_documents(sf_dir: str):
    """Per-lang greedy sequence packing into 2048-token bins (cumulative
    fill in doc_id order — distributed via the running-total machinery)."""
    from datafusion_orc_ray.pipelines import text as tx

    return tx.pack_sequences(
        _ds(sf_dir, "documents", ["doc_id", "lang", "text"]), capacity=2048
    )


def _ann_ivf(sf_dir: str):
    """Full IVF machinery (centroid build, cell assignment, per-cell
    probe) run with n_probe == n_cells, which makes the result EXACT and
    therefore hard-oracle-able against brute-force SQL top-k. The
    approximate regime (n_probe < n_cells: recall and pruned-bytes
    bounds) is pinned by pytest test_knn_exact_and_ivf /
    test_ivf_disk_index_prunes_reads."""
    import pyarrow.compute as pc

    from datafusion_orc_ray.pipelines import similarity as sim

    out = sim.knn_cosine_ivf(
        _ds(sf_dir, "embeddings"), _query_vec(sf_dir), k=10, n_cells=16, n_probe=16
    )
    return pa.table(
        {"vec_id": out.column("vec_id"), "cos_sim": pc.round(out.column("cos_sim"), 4, round_mode="half_towards_infinity")}
    )


def _ann_ivf_append(sf_dir: str):
    """IVF incremental append (VERDICT r4 #8) in the exact regime: build
    the index on even vec_ids, append the odd half WITHOUT rebuilding
    (frozen centroids; drift logged), probe all cells — the answer must
    equal brute-force top-k over the FULL table, proving appended
    vectors are first-class index members."""
    import pyarrow.compute as pc

    from datafusion_orc_ray.pipelines import similarity as sim

    ds = _ds(sf_dir, "embeddings")

    def half(rem):
        def f(b):
            return b.filter(
                pc.equal(pc.bit_wise_and(b.column("vec_id"), 1), rem)
            )

        return f

    idx = sim.build_ivf_index(ds.map_batches(half(0), batch_format="pyarrow"), n_cells=16)
    idx.append(ds.map_batches(half(1), batch_format="pyarrow"))
    out = idx.query(_query_vec(sf_dir), k=10, n_probe=16)
    return pa.table(
        {
            "vec_id": out.column("vec_id"),
            "cos_sim": pc.round(out.column("cos_sim"), 4, round_mode="half_towards_infinity"),
        }
    )


def _near_dup_embeddings(sf_dir: str):
    """Hard oracle: LSH candidates + exact per-pair cosine vs DuckDB's
    exact all-pairs self-join. Identical vectors collide in every hash
    table by construction; recall at cos>=0.95 is ~1-1e-4 (see
    similarity.embedding_near_dup_pairs)."""
    import pyarrow.compute as pc

    from datafusion_orc_ray.pipelines import similarity as sim

    out = sim.embedding_near_dup_pairs(_ds(sf_dir, "embeddings"), threshold=0.95)
    return pa.table(
        {
            "id_a": out.column("id_a"),
            "id_b": out.column("id_b"),
            "cos_sim": pc.round(out.column("cos_sim"), 4, round_mode="half_towards_infinity"),
        }
    )


def _frame_samples(sf_dir: str):
    """One-to-many media fan-out: each payload -> n_frames rows (frame
    extraction stubbed deterministically; Ray plumbing real)."""
    from datafusion_orc_ray.pipelines import multimodal as mm

    def to_binary(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "payload": pc.cast(batch.column("text"), pa.binary()),
            }
        )

    ds = _ds(sf_dir, "documents", ["doc_id", "text"]).map_batches(to_binary, batch_format="pyarrow")
    out = mm.sample_frames(ds, "payload", "doc_id", n_frames=4)

    def frames_as_text(batch: pa.Table) -> pa.Table:
        # the operator emits BINARY frames; for the driver's value-hash
        # compare cast to utf8 (the stub payloads are text slices) so
        # both engines hash the same logical strings instead of
        # bytes-vs-BLOB representations
        import pyarrow.compute as pc

        return batch.set_column(
            batch.schema.get_field_index("frame_payload"),
            "frame_payload",
            pc.cast(batch.column("frame_payload"), pa.string()),
        )

    return out.map_batches(frames_as_text, batch_format="pyarrow")


def _media_features(sf_dir: str):
    from datafusion_orc_ray.pipelines import multimodal as mm

    def fake_decoder(payload: bytes) -> np.ndarray:
        # deterministic stand-in for the absent image/audio libs (stub
        # seam documented in pipelines/multimodal.py)
        return np.frombuffer(payload[:32], dtype=np.uint8).astype(np.float32)

    def to_binary(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "payload": pc.cast(batch.column("text"), pa.binary()),
            }
        )

    ds = _ds(sf_dir, "documents", ["doc_id", "text"]).map_batches(to_binary, batch_format="pyarrow")
    return mm.extract_media_features(ds, "payload", "doc_id", decoder=fake_decoder)


def _approx_topk_ngrams(sf_dir: str):
    """Bounded-error top-k bigrams (SpaceSaving-merge partials). At this
    scale m exceeds per-batch gram cardinality, so no batch truncates,
    the cut is PROVEN exact and the (gram, n) columns equal the exact
    operator's — which is what the SQL oracle checks; the bounds-and-
    truncation regime is pinned by pytest instead."""
    from datafusion_orc_ray.pipelines import corpus

    t = corpus.approx_ngram_topk(
        _ds(sf_dir, "documents", ["text"]), n=2, k=20, m=1 << 20
    )
    if t.column("exact").to_pylist() != [True] * t.num_rows:
        # explicit raise (not assert: stripped under python -O) — the
        # shared exact-top-k oracle depends on the proven-exact regime
        raise RuntimeError(
            "approx_ngram_topk left the proven-exact regime at this scale; "
            "raise m or use the exact operator"
        )
    return t.select(["gram", "n"])


def _approx_quantile_events(sf_dir: str):
    """Mergeable equi-depth summary quantile (approximate: rank error
    <= 1/(2*bins) of the group mass) — the scale path where exact
    grouped_quantile's full per-key co-location is too heavy."""
    from datafusion_orc_ray.pipelines import corpus

    return corpus.approx_grouped_quantile(
        _ds(sf_dir, "events", ["event_type", "value"]),
        ["event_type"],
        "value",
        q=0.9,
        out_col="p90",
        bins=256,
    )


def _topk_ngrams(sf_dir: str):
    """Exact global top-20 bigrams: per-batch vectorized gram assembly +
    Arrow groupby combiner, size-gated final reduce (distributed groupby
    + per-block top-k beyond the gate, so gram cardinality never bounds
    the driver)."""
    from datafusion_orc_ray.pipelines import corpus

    return corpus.ngram_topk(_ds(sf_dir, "documents", ["text"]), n=2, k=20)


def _vocab_per_lang(sf_dir: str):
    """Exact count(DISTINCT token) per lang via 128-bit token keys:
    per-batch distinct combiner, distributed groupby beyond the gate."""
    from datafusion_orc_ray.pipelines import corpus

    return corpus.vocab_per_lang(_ds(sf_dir, "documents", ["lang", "text"]))


def _hll_vocab(sf_dir: str):
    """Approximate per-lang vocabulary (HyperLogLog p=14): constant
    16 KiB partial per (batch, lang) regardless of token volume — the
    100-TB path for vocabulary stats. ~0.8% std error (pytest-bounded
    vs the exact count; approximate, so no SQL oracle)."""
    from datafusion_orc_ray.pipelines import corpus

    return corpus.hll_vocab_per_lang(_ds(sf_dir, "documents", ["lang", "text"]))


def _c4_filter(sf_dir: str):
    """C4-style rule filter (token count + mean token length bands),
    one streaming vectorized map_batches."""
    from datafusion_orc_ray.pipelines import corpus

    out = corpus.c4_quality_filter(_ds(sf_dir, "documents", ["doc_id", "lang", "text"]))
    return out.map_batches(
        lambda b: b.select(["doc_id", "lang", "n_tok", "mean_tok_len"]),
        batch_format="pyarrow",
    )


_SAMPLE_RATES = {"en": 0.5, "de": 0.25, "fr": 0.25, "es": 0.1, "zh": 0.1}

_MIX_WEIGHTS = {"src0": 2.5, "src1": 0.5, "src2": 0.0, "src3": 1.25}


def _mixture_resample(sf_dir: str):
    """Pre-training mixture weighting: per-source epoch factors (repeat
    floor(w) times + deterministic-hash coin for frac(w)); same replicas
    on every run / partitioning. One streaming expansion pass."""
    from datafusion_orc_ray.pipelines import corpus

    return corpus.mixture_resample(
        _ds(sf_dir, "documents", ["doc_id", "source"]), _MIX_WEIGHTS
    )


def _mixture_oracle_sql() -> str:
    floor_case = " ".join(
        f"WHEN '{s}' THEN {int(w)}" for s, w in _MIX_WEIGHTS.items()
    )
    frac_case = " ".join(
        f"WHEN '{s}' THEN {min(1 << 32, int((w - int(w)) * (1 << 32)))}"
        for s, w in _MIX_WEIGHTS.items()
    )
    max_n = max(int(w) + 1 for w in _MIX_WEIGHTS.values())
    return (
        "WITH w AS (SELECT doc_id, source, "
        f"(CASE source {floor_case} ELSE 1 END) + "
        # mixture's own multiplier (corpus._MULT_MIXTURE): the coin must
        # be independent of stratified_sample's keep decision
        "(CASE WHEN (CAST(doc_id AS HUGEINT) * 3266489909) % 4294967296 < "
        f"(CASE source {frac_case} ELSE 0 END) THEN 1 ELSE 0 END) AS n "
        "FROM documents) "
        f"SELECT doc_id, source, s.r AS replica FROM w "
        f"CROSS JOIN generate_series(0, {max_n - 1}) s(r) WHERE s.r < n"
    )


def _stratified_sample(sf_dir: str):
    """Deterministic multiplicative-hash stratified sample: same rows
    kept on every run / partitioning (resumable sampling)."""
    from datafusion_orc_ray.pipelines import corpus

    return corpus.stratified_sample(
        _ds(sf_dir, "documents", ["doc_id", "lang"]), _SAMPLE_RATES
    )


def _bpe_tokenize(sf_dir: str):
    """Train a real BPE tokenizer on the corpus (distributed word
    counts -> driver merge learning on the vocabulary table, Sennrich
    2016) and apply it corpus-wide (actor pool, per-distinct-word memo,
    numpy gather assembly). Hard-oracled end-to-end by _BPE_FULL_SQL:
    a recursive-CTE DuckDB mirror that learns the same merges (pair
    counts via lead(), max-count/lexicographic tie-break, stop at
    count<2 or 100 merges) and replays them greedily over every
    distinct word; also pinned by pytest (hand-computed merges,
    reconstruction property, partitioning determinism)."""
    from datafusion_orc_ray.pipelines import bpe

    ds = _ds(sf_dir, "documents", ["doc_id", "text"])
    model = bpe.train_bpe(ds, n_merges=100)
    out = bpe.tokenize(ds, model)
    return out.map_batches(
        lambda b: b.select(["doc_id", "n_bpe"]), batch_format="pyarrow"
    )


def _running_total_skewed_events(sf_dir: str):
    """running_total with hot_keys='auto': event_type has ~5 values, so
    at a deliberately small hot_bytes every key is detected hot and
    split across ts-range sub-partitions with exact carry-over bases
    (windows._plan_hot_split) — the 100-TB mega-key path, driven
    against the same SQL window semantics as the hash-bucket variant."""
    import pyarrow.compute as pc

    from datafusion_orc_ray.pipelines import relational as rel, windows as w

    out = rel.collect(
        w.running_total(
            _ds(sf_dir, "events", ["event_id", "event_type", "ts", "value"]),
            "event_type", "ts", "value", tiebreak="event_id",
            hot_keys="auto", hot_bytes=1 << 16,
        )
    )
    return pa.table(
        {
            "event_id": out.column("event_id"),
            "running": pc.round(out.column("running"), 4, round_mode="half_towards_infinity"),
        }
    )


def _moving_avg_skewed_events(sf_dir: str):
    """ROWS-frame moving average with hot_keys='auto': event_type keys
    split across ts-range bins; frames crossing a bin boundary stay
    exact via phantom prev-bin tails (windows._hot_boundary_rows)."""
    import pyarrow.compute as pc

    from datafusion_orc_ray.pipelines import relational as rel, windows as w

    out = rel.collect(
        w.moving_avg(
            _ds(sf_dir, "events", ["event_id", "event_type", "ts", "value"]),
            "event_type", "ts", "value", preceding=3, tiebreak="event_id",
            hot_keys="auto", hot_bytes=1 << 16,
        )
    )
    return pa.table(
        {
            "event_id": out.column("event_id"),
            "moving_avg": pc.round(out.column("moving_avg"), 4, round_mode="half_towards_infinity"),
        }
    )


def _lag_lead_skewed_events(sf_dir: str):
    """lag/lead with hot_keys='auto': event_type keys split across
    ts-range bins; cross-bin shifts are exact via phantom boundary rows
    (windows._hot_boundary_rows) — same SQL window semantics as the
    hash-bucket variant, exercised on the skew path."""
    import pyarrow.compute as pc

    from datafusion_orc_ray.pipelines import relational as rel, windows as w

    out = rel.collect(
        w.lag_lead(
            _ds(sf_dir, "events", ["event_id", "event_type", "ts", "value"]),
            "event_type", "ts", "value", n=1, tiebreak="event_id",
            hot_keys="auto", hot_bytes=1 << 16,
        )
    )
    return pa.table(
        {
            "event_id": out.column("event_id"),
            "lag_v": pc.round(out.column("lag"), 4, round_mode="half_towards_infinity"),
            "lead_v": pc.round(out.column("lead"), 4, round_mode="half_towards_infinity"),
        }
    )


def _daily_rollup_events(sf_dir: str):
    """Events per day (date_trunc rollup): floor_temporal + the standard
    partial->tree grouped aggregate."""
    import pyarrow.compute as _pc

    from datafusion_orc_ray.pipelines import relational as rel

    ds = _ds(sf_dir, "events", ["ts", "value"])
    t = rel.temporal_rollup(
        ds, "ts", "day", {"n": ("count", "ts"), "sum_value": ("sum", "value")},
        out_col="day_ts",
    )
    return t.set_column(
        t.schema.get_field_index("sum_value"),
        "sum_value",
        _pc.round(t.column("sum_value"), 4, round_mode="half_towards_infinity"),
    )


def _asof_partitioned_events(sf_dir: str):
    """Large-large LEFT ASOF self-join: every event annotated with the
    same user's most recent prior-or-equal click time. One shared
    key-hash exchange, composite searchsorted per bucket — no broadcast,
    no per-key loop."""
    from datafusion_orc_ray.pipelines import relational as rel
    from datafusion_orc_ray.pipelines import windows as w

    ev = _ds(sf_dir, "events", ["event_id", "user_id", "ts"])
    import pyarrow.compute as _pc

    clicks = _ds(sf_dir, "events", ["user_id", "ts", "event_type"]).map_batches(
        lambda b: b.filter(_pc.equal(b.column("event_type"), "click")),
        batch_format="pyarrow",
    )
    out = w.asof_join_partitioned(
        ev, clicks, "user_id", "ts", "ts", payload={"last_click_ts": "ts"}
    )
    return out.map_batches(
        lambda b: b.select(["event_id", "user_id", "last_click_ts"]),
        batch_format="pyarrow",
    )


def _asof_skewed_events(sf_dir: str):
    """Large-large ASOF self-join with hot_keys='auto': event_type keys
    split across ts bins; each bin's right side gains the latest right
    row from earlier bins as a phantom (windows._hot_boundary_rows),
    so cross-bin as-of matches stay exact with no mega-key bucket."""
    import pyarrow.compute as _pc

    from datafusion_orc_ray.pipelines import windows as w

    ev = _ds(sf_dir, "events", ["event_id", "event_type", "ts"])
    clicks = _ds(sf_dir, "events", ["event_type", "ts", "user_id"]).map_batches(
        lambda b: b.filter(_pc.equal(_pc.bit_wise_and(b.column("user_id"), 7), 0)),
        batch_format="pyarrow",
    )
    out = w.asof_join_partitioned(
        ev, clicks, "event_type", "ts", "ts", payload={"mark_ts": "ts"},
        hot_keys="auto", hot_bytes=1 << 14,
    )
    return out.map_batches(
        lambda b: b.select(["event_id", "event_type", "mark_ts"]),
        batch_format="pyarrow",
    )


def _entropy_documents(sf_dir: str):
    """Per-doc byte-distribution Shannon entropy (gibberish signal):
    one flat bincount per batch over (doc_index*256 + byte)."""
    from datafusion_orc_ray.pipelines import text as tx

    ds = _ds(sf_dir, "documents", ["doc_id", "text"])
    return tx.byte_entropy(ds)


def _left_outer_orders(sf_dir: str):
    """Customers LEFT OUTER JOIN orders -> per-customer order count
    (zero-order customers kept at 0)."""
    import pyarrow.compute as _pc

    from datafusion_orc_ray.pipelines import relational as rel

    cust = _ds(sf_dir, "customer", ["c_custkey"])
    orders = _ds(sf_dir, "orders", ["o_custkey", "o_orderkey"])
    j = rel.hash_join(cust, orders, "c_custkey", "o_custkey", join_type="left outer")

    def valid(batch):
        return batch.append_column(
            "__v", _pc.cast(_pc.is_valid(batch.column("o_orderkey")), "int64")
        )

    tagged = j.map_batches(valid, batch_format="pyarrow")
    return rel.grouped_agg(tagged, ["c_custkey"], {"n_orders": ("sum", "__v")})


def _full_outer_users(sf_dir: str):
    """Per-user event counts FULL OUTER JOIN customer keys: unmatched
    rows on either side survive null-padded (bucket-path-only join)."""
    from datafusion_orc_ray.pipelines import relational as rel

    ev = _ds(sf_dir, "events", ["user_id", "event_id"])
    g = rel.grouped_agg_ds(ev, ["user_id"], {"n_ev": ("count", "event_id")})
    cust = _ds(sf_dir, "customer", ["c_custkey"])
    return rel.hash_join(g, cust, "user_id", "c_custkey", join_type="full outer")


def _nunique_events(sf_dir: str):
    """Distinct event types per user (pair-dedup combiner, one tiny
    final count)."""
    from datafusion_orc_ray.pipelines import relational as rel

    ds = _ds(sf_dir, "events", ["user_id", "event_type"])
    return rel.grouped_nunique(ds, ["user_id"], "event_type")


def _union_nations(sf_dir: str):
    """SQL UNION (distinct) of customer and supplier nation keys."""
    from datafusion_orc_ray.pipelines import relational as rel

    return rel.union_distinct(
        _ds(sf_dir, "customer", ["c_nationkey"]),
        _ds(sf_dir, "supplier", ["s_nationkey"]),
        ["c_nationkey"],
        ["s_nationkey"],
    )


def _cross_join_region_nation(sf_dir: str):
    """Cartesian product of two dimension tables (broadcast right,
    repeat/tile expansion, no shuffle)."""
    from datafusion_orc_ray.pipelines import relational as rel

    out = rel.cross_join_broadcast(
        _ds(sf_dir, "region", ["r_regionkey", "r_name"]),
        _ds(sf_dir, "nation", ["n_nationkey", "n_name"]),
    )
    return rel.collect(out)


def _multikey_join_events(sf_dir: str):
    """Frequency annotation via a MULTI-KEY join: per-(user, type)
    counts (distributed partial->final) joined back onto every event on
    the composite key."""
    from datafusion_orc_ray.pipelines import relational as rel

    ev = _ds(sf_dir, "events", ["event_id", "user_id", "event_type"])
    g = rel.grouped_agg_ds(ev, ["user_id", "event_type"], {"cnt": ("count", "event_id")})
    return rel.hash_join_on(
        ev, g, ["user_id", "event_type"], ["user_id", "event_type"]
    )


def _mode_documents(sf_dir: str):
    """Per-language modal source (most frequent value, ties -> smallest
    value, deterministic unlike SQL mode())."""
    from datafusion_orc_ray.pipelines import relational as rel

    ds = _ds(sf_dir, "documents", ["lang", "source"])
    return rel.grouped_mode(ds, ["lang"], "source")


def _string_agg_events(sf_dir: str):
    """Per-user ordered event-type trails (string_agg with ORDER BY):
    one co-location shuffle, vectorized bucket assembly."""
    from datafusion_orc_ray.pipelines import windows as w

    ds = _ds(sf_dir, "events", ["user_id", "ts", "event_type", "event_id"])
    return w.grouped_string_agg(
        ds, "user_id", "ts", "event_type", sep=",", tiebreak="event_id", out_col="trail"
    )


def _string_agg_chunked_events(sf_dir: str):
    """Chunked string_agg (VERDICT r4 #2 escape hatch): event trails as
    (user, chunk_idx, trail) rows of <= 50 values, reassembling to the
    whole-key aggregate — the bounded-output path a mega-user needs."""
    from datafusion_orc_ray.pipelines import windows as w

    ds = _ds(sf_dir, "events", ["user_id", "ts", "event_type", "event_id"])
    return w.grouped_string_agg(
        ds, "user_id", "ts", "event_type", sep=",", tiebreak="event_id",
        out_col="trail", chunk_values=50,
    )


def _sample_per_lang(sf_dir: str):
    """Deterministic 5-docs-per-language inspection sample (hash-coin
    ranking, same rows at any parallelism)."""
    from datafusion_orc_ray.pipelines import corpus as co

    ds = _ds(sf_dir, "documents", ["doc_id", "lang"])
    return co.sample_n_per_group(ds, 5, "lang", "doc_id")


def _chunk_documents(sf_dir: str):
    """Context-window chunking: 64-token windows, 16-token overlap,
    vectorized fan-out (one gather + binary_join per batch)."""
    from datafusion_orc_ray.pipelines import text as tx

    ds = _ds(sf_dir, "documents", ["doc_id", "text"])
    return tx.chunk_documents(ds, max_tokens=64, overlap=16)


def _json_extract_events(sf_dir: str):
    """Vectorized flat-JSON field extraction (one RE2 pass; json.loads
    fallback only for rows the fast path provably missed)."""
    from datafusion_orc_ray.pipelines import jsonx

    ds = _ds(sf_dir, "events", ["event_id", "props"])
    out = jsonx.extract_json_field(ds, "props", "k", kind="number")
    return out.map_batches(
        lambda b: b.select(["event_id", "k"]), batch_format="pyarrow"
    )


def _rollup_orders(sf_dir: str):
    """GROUP BY ROLLUP over (status, priority): one corpus pass, coarser
    levels re-aggregated from the leaf table."""
    import pyarrow.compute as _pc

    from datafusion_orc_ray.pipelines import relational as rel

    ds = _ds(sf_dir, "orders", ["o_orderstatus", "o_orderpriority", "o_totalprice"])
    t = rel.rollup_agg(
        ds,
        ["o_orderstatus", "o_orderpriority"],
        {"n": ("count", "o_orderstatus"), "sum_price": ("sum", "o_totalprice")},
    )
    return t.set_column(
        t.schema.get_field_index("sum_price"),
        "sum_price",
        _pc.round(t.column("sum_price"), 2, round_mode="half_towards_infinity"),
    )


def _orc_export_roundtrip(sf_dir: str):
    """ORC write interop (VERDICT r4 #4): the documents table exported
    as real ORC files via write_orc, read back through the external-ORC
    source — closing the write half of the reference's interop loop
    (its ecosystem exchanges ORC bytes, src/lib.rs:107-118). Gated on
    pyarrow's ORC module like the read side."""
    import shutil

    from datafusion_orc_ray.sources import orc as orc_src

    orc_src._require_orc()
    # deterministic scratch path, cleared first: a fresh mkdtemp per
    # invocation accumulated an unbounded pile of table copies in /tmp
    # (r5 review finding #5 — the exact scratch hazard the bench notes
    # warn about) and made repeated runs write to different dirs
    out = os.path.join("/tmp", f"orc_export_{os.path.basename(os.path.normpath(sf_dir))}")
    shutil.rmtree(out, ignore_errors=True)
    mf = orc_src.write_orc(
        _ds(sf_dir, "documents", ["doc_id", "text", "lang", "source", "n_chars"]),
        out,
    )
    mf.materialize()  # files must exist before the read plan lists them
    return orc_src.read_orc(out)


def _cube_orders(sf_dir: str):
    """GROUP BY CUBE over (status, priority): all 4 grouping sets from
    ONE distributed leaf pass (VERDICT r4 #7 — completes the SQL
    grouping shapes next to ROLLUP)."""
    import pyarrow.compute as _pc

    from datafusion_orc_ray.pipelines import relational as rel

    ds = _ds(sf_dir, "orders", ["o_orderstatus", "o_orderpriority", "o_totalprice"])
    t = rel.cube_agg(
        ds,
        ["o_orderstatus", "o_orderpriority"],
        {"n": ("count", "o_orderstatus"), "sum_price": ("sum", "o_totalprice")},
    )
    return t.set_column(
        t.schema.get_field_index("sum_price"),
        "sum_price",
        _pc.round(t.column("sum_price"), 2, round_mode="half_towards_infinity"),
    )


def _grouping_sets_orders(sf_dir: str):
    """Explicit GROUPING SETS (the non-chain, non-cube shape): status
    totals, priority totals, and the grand total — still one corpus
    pass re-aggregated from the leaf."""
    import pyarrow.compute as _pc

    from datafusion_orc_ray.pipelines import relational as rel

    ds = _ds(sf_dir, "orders", ["o_orderstatus", "o_orderpriority", "o_totalprice"])
    t = rel.grouping_sets_agg(
        ds,
        ["o_orderstatus", "o_orderpriority"],
        [["o_orderstatus"], ["o_orderpriority"], []],
        {"n": ("count", "o_orderstatus"), "sum_price": ("sum", "o_totalprice")},
    )
    return t.set_column(
        t.schema.get_field_index("sum_price"),
        "sum_price",
        _pc.round(t.column("sum_price"), 2, round_mode="half_towards_infinity"),
    )


def _topk_sql_orders(sf_dir: str):
    """Distributed SQL top-k pushdown (sources/sqlagg.plan_topk_pushdown):
    ORDER BY ... LIMIT n over one stripe table runs as per-batch local
    top-n partials + a driver re-sort of partials only — the Ray-native
    analogue of DataFusion's SortExec fetch pushdown the reference
    inherits (src/lib.rs:107-169 registers tables for exactly this kind
    of SQL). Unique o_orderkey tie-break keeps the result deterministic."""
    from datafusion_orc_ray.sources.stripes import Catalog

    cat = Catalog()
    cat.register_stripes("orders_t", _encoded(sf_dir, "orders"))
    out = cat.sql(
        "SELECT o_orderkey, o_custkey, o_totalprice FROM orders_t "
        "WHERE o_orderstatus = 'O' "
        "ORDER BY o_totalprice DESC, o_orderkey LIMIT 25"
    )
    assert cat.last_plan == "topk_pushdown", cat.last_plan
    return out


def _stats_sql_orders(sf_dir: str):
    """Metadata-only SQL aggregates (sources/sqlagg.plan_stats_answer):
    count/min/max with no WHERE resolve from manifest stats — zero
    stripes decoded, zero tasks launched. The 100-TB version of
    ``SELECT count(*)`` is a manifest-snapshot GET, not a scan.
    Floats are deliberately excluded (NaN ordering), so the query uses
    int / string / timestamp columns only."""
    from datafusion_orc_ray.sources.stripes import Catalog

    cat = Catalog()
    cat.register_stripes("orders_s", _encoded(sf_dir, "orders"))
    out = cat.sql(
        "SELECT count(*) AS n_rows, count(o_custkey) AS n_cust, "
        "min(o_orderkey) AS min_key, max(o_orderkey) AS max_key, "
        "min(o_orderstatus) AS min_status, max(o_orderstatus) AS max_status, "
        "min(o_orderdate) AS min_date, max(o_orderdate) AS max_date "
        "FROM orders_s"
    )
    assert cat.last_plan == "stats_answer", cat.last_plan
    return out


def _semijoin_sql_orders(sf_dir: str):
    """Two-table SQL with semi-join reduction (sqlagg.plan_join_prefilter):
    a NON-aggregate join, so when the byte/asymmetry gates engage the
    customer side's distinct keys filter the orders scan worker-side
    before batches stream to the query node — DataFusion's
    sideways-information-passing analogue. (Aggregate joins take the
    stronger join_aggregate_pushdown path — see join_agg_sql_orders —
    and ORDER BY + LIMIT joins take join_topk_pushdown — see
    join_topk_sql_orders; this entry keeps the prefilter plan
    oracle-exercised with a no-LIMIT ordered projection.)"""
    from datafusion_orc_ray.sources.stripes import Catalog

    cat = Catalog()
    cat.register_stripes("orders_j", _encoded(sf_dir, "orders"))
    cat.register_stripes("customer_j", _encoded(sf_dir, "customer"))
    out = cat.sql(
        "SELECT o_orderkey, o_totalprice, c_mktsegment "
        "FROM orders_j JOIN customer_j ON o_custkey = c_custkey "
        "WHERE c_mktsegment = 'BUILDING' ORDER BY o_orderkey"
    )
    assert cat.last_plan == "stream+semijoin_prefilter", cat.last_plan
    return out


def _having_sql_orders(sf_dir: str):
    """HAVING through the distributed aggregate pushdown (round 5):
    group filters rewrite onto the driver's FINAL merge (their
    aggregates become extra partial columns), so per-batch partials
    stay plain pre-aggregations and a group passing globally always
    survives — batch-local HAVING would silently drop it."""
    from datafusion_orc_ray.sources.stripes import Catalog

    cat = Catalog()
    cat.register_stripes("orders_h", _encoded(sf_dir, "orders"))
    out = cat.sql(
        "SELECT o_orderstatus, count(*) AS n, max(o_orderkey) AS hi "
        "FROM orders_h GROUP BY o_orderstatus "
        "HAVING count(*) > 1000 ORDER BY o_orderstatus"
    )
    assert cat.last_plan == "aggregate_pushdown", cat.last_plan
    return out


def _join_topk_sql_orders(sf_dir: str):
    """Join top-k pushdown (sqlagg.plan_join_topk): ORDER BY ... LIMIT
    over the join runs as per-batch (join + local top-n) on the
    workers; the driver re-sorts <= n rows per block."""
    from datafusion_orc_ray.sources.stripes import Catalog

    cat = Catalog()
    cat.register_stripes("orders_t", _encoded(sf_dir, "orders"))
    cat.register_stripes("customer_t", _encoded(sf_dir, "customer"))
    out = cat.sql(
        "SELECT o_orderkey, o_totalprice, c_mktsegment "
        "FROM orders_t JOIN customer_t ON o_custkey = c_custkey "
        "ORDER BY o_totalprice DESC, o_orderkey LIMIT 50"
    )
    assert cat.last_plan == "join_topk_pushdown", cat.last_plan
    return out


def _join_agg_sql_orders(sf_dir: str):
    """Distributed join-aggregate pushdown (sqlagg.plan_join_aggregate):
    the customer side broadcasts, each orders batch joins and
    pre-aggregates ON ITS WORKER (Acero join + DuckDB partial), and
    only per-segment partials reach the driver's merge — DataFusion's
    partial-aggregate-above-HashJoinExec analogue. No joined row ever
    leaves its worker."""
    from datafusion_orc_ray.sources.stripes import Catalog

    cat = Catalog()
    cat.register_stripes("orders_g", _encoded(sf_dir, "orders"))
    cat.register_stripes("customer_g", _encoded(sf_dir, "customer"))
    out = cat.sql(
        "SELECT c_mktsegment, count(*) AS n, round(sum(o_totalprice), 2) AS total "
        "FROM orders_g JOIN customer_g ON o_custkey = c_custkey "
        "GROUP BY c_mktsegment ORDER BY c_mktsegment"
    )
    assert cat.last_plan == "join_aggregate_pushdown", cat.last_plan
    return out


def _url_features_documents(sf_dir: str):
    """URL decomposition (text.url_features): host / tld / path_depth /
    is_https via one RE2 pass + Arrow kernels — the webtext table's
    ``url`` column is first-class in the north rule. The driver tables
    carry no URLs, so the entry synthesizes them DETERMINISTICALLY from
    (doc_id, source, lang) — scheme, registrable-domain and path depth
    all vary, every 17th row is malformed (NULL features) — and the
    oracle rebuilds the identical urls in SQL before mirroring the
    extraction with regexp_extract."""
    import pyarrow.compute as pc

    from datafusion_orc_ray.pipelines import text as tx

    ds = _ds(sf_dir, "documents", ["doc_id", "lang", "source"])

    def synth(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id")

        def mod(a, k):  # this pyarrow build ships no modulo kernel
            return pc.subtract(a, pc.multiply(pc.divide(a, k), k))

        scheme = pc.if_else(
            pc.equal(mod(did, 3), 0), pa.scalar("http"), pa.scalar("https")
        )
        tld = pc.if_else(
            pc.equal(mod(did, 2), 0), pa.scalar("com"), pa.scalar("org")
        )
        tail = pc.binary_repeat(pa.scalar("/p"), pc.cast(mod(did, 3), pa.int32()))
        url = pc.binary_join_element_wise(
            scheme, "://", pc.cast(batch.column("source"), pa.string()),
            ".example.", tld, "/", pc.cast(batch.column("lang"), pa.string()),
            tail, "",
        )
        url = pc.if_else(
            pc.equal(mod(did, 17), 0), pa.scalar("not a url"), url
        )
        return pa.table({"doc_id": did, "url": url})

    out = tx.url_features(ds.map_batches(synth, batch_format="pyarrow"))

    def finish(b: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        b = b.select(["doc_id", "host", "tld", "path_depth", "is_https"])
        # nullable bools format as None vs the oracle's NaN in the
        # driver's pandas compare: ship 0/1/NULL ints on both sides
        return b.set_column(
            b.schema.get_field_index("is_https"),
            "is_https",
            _pc.cast(b.column("is_https"), pa.int64()),
        )

    return out.map_batches(finish, batch_format="pyarrow")


def _host_stats_documents(sf_dir: str):
    """Per-host corpus profile: url_features composed with the
    distributed grouped aggregate — docs and total chars per host. The
    standard first question against a web crawl ('which hosts
    dominate?') as one streaming chain + one size-gated reduce."""
    from datafusion_orc_ray.pipelines import relational as rel
    from datafusion_orc_ray.pipelines import text as tx
    import pyarrow.compute as _pc

    ds = _ds(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def synth(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id")

        def mod(a, k):
            return _pc.subtract(a, _pc.multiply(_pc.divide(a, k), k))

        tld = _pc.if_else(
            _pc.equal(mod(did, 2), 0), pa.scalar("com"), pa.scalar("org")
        )
        url = _pc.binary_join_element_wise(
            "https://", _pc.cast(batch.column("source"), pa.string()),
            ".example.", tld, "/p", "",
        )
        return pa.table({"url": url, "n_chars": batch.column("n_chars")})

    feats = tx.url_features(ds.map_batches(synth, batch_format="pyarrow"))
    t = rel.grouped_agg(
        feats,
        ["host"],
        {"n_docs": ("count", "host"), "total_chars": ("sum", "n_chars")},
    )
    return t.sort_by("host")


def _pivot_documents(sf_dir: str):
    """Pivot: per-source document counts with one column per language
    (single grouped pass + driver scatter)."""
    from datafusion_orc_ray.pipelines import relational as rel

    ds = _ds(sf_dir, "documents", ["source", "lang"])
    return rel.pivot_agg(ds, "source", "lang", ("count", "lang"), prefix="n_")


def _nb_quality_documents(sf_dir: str):
    """fasttext/CCNet-shape quality classifier: multinomial-NB log-odds
    trained in ONE corpus pass (sources src0-src9 stand in for the
    curated positive class), scored via broadcast model + one index_in
    gather per batch. score > 0 = looks curated."""
    import pyarrow.compute as _pc

    from datafusion_orc_ray.pipelines import lm

    pos_sources = pa.array([f"src{i}" for i in range(10)], pa.string())

    def label(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "label", _pc.is_in(batch.column("source"), value_set=pos_sources)
        )

    ds = _ds(sf_dir, "documents", ["doc_id", "source", "text"]).map_batches(
        label, batch_format="pyarrow"
    )
    model = lm.train_token_classifier(ds)
    return lm.score_log_odds(ds, model)


def _lm_perplexity(sf_dir: str):
    """CCNet-shape quality signal: train a bigram LM on the corpus (one
    keyed-count pass, vocabulary-sized reduce), broadcast it, score
    every doc's average negative log-likelihood (add-alpha smoothing,
    exactly SQL-expressible)."""
    from datafusion_orc_ray.pipelines import lm

    ds = _ds(sf_dir, "documents", ["doc_id", "text"])
    model = lm.train_bigram_lm(ds)
    return lm.score_avg_nll(ds, model, alpha=0.4)


def _nearest_centroid(sf_dir: str):
    """Nearest-centroid assignment with deterministic fixed centroids
    (the 8 smallest-vec_id embeddings): one broadcast + one matmul per
    batch, zero shuffle. Distances round(4) before the argmin so the
    DOUBLE-precision SQL oracle picks identical winners."""
    from datafusion_orc_ray.pipelines import clustering as cl

    ds = _ds(sf_dir, "embeddings", ["vec_id", "embedding"])
    cent = cl._first_k_by_id(ds, 8, "vec_id", "embedding")
    return cl.kmeans_assign(ds, cent, ndigits=4)


def _kmeans_embeddings(sf_dir: str):
    """Full distributed Lloyd k-means (k=8, <=5 iterations) + final
    assignment. Iterative (non-SQL) — correctness pinned by pytest:
    planted-cluster recovery, partitioning invariance, monotone
    inertia."""
    from datafusion_orc_ray.pipelines import clustering as cl

    ds = _ds(sf_dir, "embeddings", ["vec_id", "embedding"])
    model = cl.kmeans_fit(ds, k=8, n_iter=5)
    out = cl.kmeans_assign(ds, model["centroids"], ndigits=4)
    return out.map_batches(
        lambda b: b.select(["vec_id", "cluster"]), batch_format="pyarrow"
    )


def _moments_lineitem(sf_dir: str):
    """Grouped stddev/variance/covariance/correlation via raw-moment
    partials (one row per key per batch into the reduce)."""
    from datafusion_orc_ray.pipelines import relational as rel

    ds = _ds(sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice"])
    return rel.grouped_moments(ds, ["l_returnflag"], "l_quantity", "l_extendedprice")


def _argmax_orders(sf_dir: str):
    """max_by with deterministic ties: per customer, the max order price
    and the smallest orderkey achieving it."""
    from datafusion_orc_ray.pipelines import relational as rel

    ds = _ds(sf_dir, "orders", ["o_custkey", "o_totalprice", "o_orderkey"])
    return rel.grouped_argbest(ds, ["o_custkey"], "o_totalprice", "o_orderkey")


def _intersect_nations(sf_dir: str):
    """SQL INTERSECT: nation keys present among BOTH customers and
    suppliers (distinct both sides -> semi join on packed key)."""
    from datafusion_orc_ray.pipelines import relational as rel

    return rel.intersect_distinct(
        _ds(sf_dir, "customer", ["c_nationkey"]),
        _ds(sf_dir, "supplier", ["s_nationkey"]),
        ["c_nationkey"],
        ["s_nationkey"],
    )


def _except_custkeys(sf_dir: str):
    """SQL EXCEPT: customers that placed no order (distinct left anti
    right)."""
    from datafusion_orc_ray.pipelines import relational as rel

    # collect(): set-op outputs are distinct-bounded; an empty Dataset
    # loses its schema through to_pandas, an Arrow table does not
    return rel.collect(
        rel.except_distinct(
            _ds(sf_dir, "customer", ["c_custkey"]),
            _ds(sf_dir, "orders", ["o_custkey"]),
            ["c_custkey"],
            ["o_custkey"],
        )
    )


def _tfidf_terms(sf_dir: str):
    """Top-5 distinctive terms per language by TF-IDF (one exploded
    pass, vocabulary-sized partials, size-gated reduce)."""
    from datafusion_orc_ray.pipelines import corpus

    return corpus.tfidf_top_terms(
        _ds(sf_dir, "documents", ["doc_id", "lang", "text"]), k=5
    )


def _boilerplate(sf_dir: str):
    """CCNet-style boilerplate stripping: census of per-token document
    frequency (vectorized explode + Arrow pair-dedup groupby, size-gated
    reduce), broadcast hot set via ray.put, one streaming is_in +
    bincount + binary_join reassembly pass. The synthetic docs carry no
    newlines, so the query runs on the space delimiter (drop tokens in
    >=100 distinct docs) — same machinery, non-trivial output; the
    newline path is pytest-covered with planted multi-line docs."""
    from datafusion_orc_ray.pipelines import corpus

    return corpus.remove_boilerplate_lines(
        _ds(sf_dir, "documents", ["doc_id", "text"]),
        min_docs=100,
        delimiter=" ",
    )


def _q5_revenue(sf_dir: str):
    """TPC-H-Q5-shaped star rollup: revenue per (region, nation) with
    the supplier->nation->region dim chain pre-joined LOCALLY (tiny) and
    broadcast once; the lineitem fact table never shuffles."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from datafusion_orc_ray.pipelines import relational as rel

    sup = pq.read_table(_table_path(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"])
    nat = pq.read_table(_table_path(sf_dir, "nation"))
    reg = pq.read_table(_table_path(sf_dir, "region"))
    dim = (
        sup.join(nat, keys="s_nationkey", right_keys="n_nationkey")
        .join(reg, keys="n_regionkey", right_keys="r_regionkey")
        .select(["s_suppkey", "n_name", "r_name"])
    )

    def revenue(batch: pa.Table) -> pa.Array:
        return pc.multiply(
            batch.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), batch.column("l_discount")),
        )

    out = rel.broadcast_star_agg(
        _ds(sf_dir, "lineitem", ["l_suppkey", "l_extendedprice", "l_discount"]),
        dim,
        "l_suppkey",
        "s_suppkey",
        ["r_name", "n_name"],
        revenue,
    )
    return pa.table(
        {
            "r_name": out.column("r_name"),
            "n_name": out.column("n_name"),
            "total": pc.round(out.column("total"), 2, round_mode="half_towards_infinity"),
            "n": out.column("n"),
        }
    )


def _q3_shipping(sf_dir: str):
    """TPC-H-Q3-shaped pipeline: segment-filtered customers semi-join
    orders (broadcast fast path — no shuffle for the dimension side),
    date-filtered lineitem revenue joined to the surviving orders
    (skew-aware hash_join; bucket exchange only when both sides are
    big), distributed grouped sum per order, then shuffle-free global
    top-10 by revenue (per-batch combiner + tree merge). The full
    scan -> filter -> join -> join -> aggregate -> top-k chain as ONE
    streaming Ray Data plan (reference: the DataFusion plans
    /root/reference/src/file_source.rs feeds would produce this shape)."""
    from datetime import datetime

    import pyarrow.compute as pc

    from datafusion_orc_ray.pipelines import relational as rel

    cut = datetime(1998, 6, 1)

    def building_only(batch: pa.Table) -> pa.Table:
        keep = pc.equal(batch.column("c_mktsegment"), pa.scalar("BUILDING"))
        return batch.filter(keep).select(["c_custkey"])

    cust = _ds(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        building_only, batch_format="pyarrow"
    )

    def early_orders(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.less(batch.column("o_orderdate"), pa.scalar(cut)))

    orders = _ds(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"]
    ).map_batches(early_orders, batch_format="pyarrow")
    orders_b = rel.hash_join(
        orders, cust, "o_custkey", "c_custkey", join_type="left semi"
    ).map_batches(
        lambda b: b.select(["o_orderkey", "o_orderdate", "o_orderpriority"]),
        batch_format="pyarrow",
    )

    def line_revenue(batch: pa.Table) -> pa.Table:
        kept = batch.filter(pc.greater(batch.column("l_shipdate"), pa.scalar(cut)))
        rev = pc.multiply(
            kept.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), kept.column("l_discount")),
        )
        return pa.table({"l_orderkey": kept.column("l_orderkey"), "rev": rev})

    line = _ds(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]
    ).map_batches(line_revenue, batch_format="pyarrow")

    joined = rel.hash_join(line, orders_b, "l_orderkey", "o_orderkey")
    grouped = rel.grouped_agg_ds(
        joined,
        ["l_orderkey", "o_orderdate", "o_orderpriority"],
        {"revenue": ("sum", "rev")},
    )
    top = rel.topk(
        grouped,
        "revenue",
        10,
        ["l_orderkey", "revenue", "o_orderdate", "o_orderpriority"],
        tiebreak="l_orderkey",
    )
    return top.set_column(
        top.schema.get_field_index("revenue"), "revenue", pc.round(top.column("revenue"), 2, round_mode="half_towards_infinity")
    )


def _normalize_documents(sf_dir: str):
    """Unicode NFC + casefold + whitespace-collapse normalization (the
    canonicalization pass before content hashing)."""
    from datafusion_orc_ray.pipelines import text as tx

    out = tx.normalize_text(_ds(sf_dir, "documents", ["doc_id", "text"]))
    return out


def _grouped_p90_events(sf_dir: str):
    """Exact per-group interpolated 90th percentile (quantile_cont)."""
    import pyarrow.compute as pc

    from datafusion_orc_ray.pipelines import relational as rel

    out = rel.collect(
        rel.grouped_quantile(
            _ds(sf_dir, "events", ["event_type", "value"]),
            ["event_type"],
            "value",
            q=0.9,
            out_col="p90",
        )
    )
    return pa.table(
        {
            "event_type": out.column("event_type"),
            "p90": pc.round(out.column("p90"), 4, round_mode="half_towards_infinity"),
        }
    )


_HIST_LO, _HIST_HI, _HIST_BINS = 0.0, 100.0, 20


def _histogram_events(sf_dir: str):
    """Fixed-width value histogram (data-profiling primitive)."""
    from datafusion_orc_ray.pipelines import relational as rel

    return rel.histogram(
        _ds(sf_dir, "events", ["value"]), "value", _HIST_LO, _HIST_HI, _HIST_BINS
    )


def _sort_orders(sf_dir: str):
    """Distributed global sort (Ray Data range-partitioned sort)."""
    return _ds(sf_dir, "orders", ["o_orderkey", "o_totalprice"]).sort(
        ["o_totalprice", "o_orderkey"], descending=[True, False]
    )


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # encode/decode stack (SURVEY.md §2.3)
        "roundtrip_documents": _roundtrip("documents"),
        "roundtrip_lineitem": _roundtrip("lineitem"),
        "roundtrip_events": _roundtrip("events"),
        "roundtrip_embeddings": _roundtrip("embeddings"),
        "roundtrip_union": _roundtrip_union,
        "roundtrip_decimal256": _roundtrip_decimal256,
        "projection_lineitem": _projection_lineitem,
        "stats_lineitem": _stats_lineitem,
        # relational surface (SURVEY.md §2.2)
        "count_lineitem": _count_lineitem,
        "distinct_lang_documents": _distinct_lang,
        "topk_orders": _topk_orders,
        "filter_events": _filter_events,
        "q1_lineitem": _q1_lineitem,
        "join_customer_orders": _join_customer_orders,
        "window_agg_events": _window_agg_events,
        "hash_join_orders_customer": _hash_join_orders_customer,
        "distinct_count_orders": _distinct_count_orders,
        "group_by_custkey_orders": _group_by_custkey_orders,
        "skew_join_events": _skew_join_events,
        "sessionize_events": _sessionize_events,
        "semi_join_customers": _semi_join_customers,
        "anti_join_customers": _anti_join_customers,
        "grouped_topk_documents": _grouped_topk_documents,
        "grouped_median_events": _grouped_median_events,
        "grouped_median_skewed_events": _grouped_median_skewed_events,
        "rank_in_lang_documents": _rank_in_lang_documents,
        "ntile_documents": _ntile_documents,
        "rank_skewed_documents": _rank_skewed_documents,
        "zscore_events": _zscore_events,
        "running_total_events": _running_total_events,
        "running_total_skewed_events": _running_total_skewed_events,
        "lag_lead_skewed_events": _lag_lead_skewed_events,
        "moving_avg_skewed_events": _moving_avg_skewed_events,
        "sessionize_skewed_events": _sessionize_skewed_events,
        "lag_lead_events": _lag_lead_events,
        "moving_avg_events": _moving_avg_events,
        "regex_replace_documents": _regex_replace_documents,
        "sliding_window_events": _sliding_window_events,
        "asof_join_events": _asof_join_events,
        "filter_pushdown_orders": _filter_pushdown_orders,
        "filter_pushdown_multi_orders": _filter_pushdown_multi_orders,
        "filter_pushdown_or_orders": _filter_pushdown_or_orders,
        "string_funcs_documents": _string_funcs_documents,
        # training-data ops
        "dedup_exact_documents": _dedup_exact,
        "minhash_dedup_corpus": _minhash_dedup_corpus,
        "token_count_documents": _token_counts,
        "bpe_token_count_documents": _bpe_token_counts,
        "quality_documents": _quality,
        "bytes_meta_documents": _bytes_meta,
        "knn_embeddings": _knn,
        "embedding_decontam_embeddings": _embedding_decontam,
        "unnest_embeddings": _unnest_embeddings,
        "topk_ngrams_documents": _topk_ngrams,
        "approx_topk_ngrams_documents": _approx_topk_ngrams,
        "vocab_per_lang_documents": _vocab_per_lang,
        "c4_filter_documents": _c4_filter,
        "boilerplate_strip_documents": _boilerplate,
        "tfidf_terms_documents": _tfidf_terms,
        "bpe_tokenize_documents": _bpe_tokenize,
        "moments_lineitem": _moments_lineitem,
        "nearest_centroid_embeddings": _nearest_centroid,
        "lm_perplexity_documents": _lm_perplexity,
        "json_extract_events": _json_extract_events,
        "chunk_documents": _chunk_documents,
        "string_agg_events": _string_agg_events,
        "string_agg_chunked_events": _string_agg_chunked_events,
        "multikey_join_events": _multikey_join_events,
        "nunique_events": _nunique_events,
        "left_outer_orders": _left_outer_orders,
        "entropy_documents": _entropy_documents,
        "asof_partitioned_events": _asof_partitioned_events,
        "asof_skewed_events": _asof_skewed_events,
        "daily_rollup_events": _daily_rollup_events,
        "full_outer_users": _full_outer_users,
        "union_nations": _union_nations,
        "cross_join_region_nation": _cross_join_region_nation,
        "mode_documents": _mode_documents,
        "sample_per_lang_documents": _sample_per_lang,
        "rollup_orders": _rollup_orders,
        "orc_export_roundtrip": _orc_export_roundtrip,
        "cube_orders": _cube_orders,
        "grouping_sets_orders": _grouping_sets_orders,
        "topk_sql_orders": _topk_sql_orders,
        "stats_sql_orders": _stats_sql_orders,
        "semijoin_sql_orders": _semijoin_sql_orders,
        "join_agg_sql_orders": _join_agg_sql_orders,
        "join_topk_sql_orders": _join_topk_sql_orders,
        "having_sql_orders": _having_sql_orders,
        "url_features_documents": _url_features_documents,
        "host_stats_documents": _host_stats_documents,
        "pivot_documents": _pivot_documents,
        "kmeans_embeddings": _kmeans_embeddings,
        "argmax_orders": _argmax_orders,
        "intersect_nations": _intersect_nations,
        "except_custkeys": _except_custkeys,
        "stratified_sample_documents": _stratified_sample,
        "mixture_resample_documents": _mixture_resample,
        "q5_revenue_nation": _q5_revenue,
        "q3_shipping": _q3_shipping,
        "normalize_documents": _normalize_documents,
        "grouped_p90_events": _grouped_p90_events,
        "histogram_events": _histogram_events,
        "sort_orders": _sort_orders,
        "simhash_documents": _simhash,
        "repetition_documents": _repetition_documents,
        "point_lookup_orders": _point_lookup_orders,
        "shared_spans_documents": _shared_spans_documents,
        "excise_spans_documents": _excise_spans_documents,
        "training_shards_documents": _training_shards_documents,
        "pack_blocks_documents": _pack_blocks_documents,
        "nb_quality_documents": _nb_quality_documents,
        "weighted_sample_documents": _weighted_sample_documents,
        "decontam_documents": _decontam_documents,
        "quantile_filter_documents": _quantile_filter_documents,
        "dedup_incremental_documents": _dedup_incremental_documents,
        "curation_pipeline_documents": _curation_pipeline_documents,
        "range_join_orders": _range_join_orders,
        "langid_documents": _langid,
        "fingerprint_documents": _fingerprints,
        "pii_redact_documents": _pii_redact_documents,
        "pack_sequences_documents": _pack_sequences_documents,
        "jaccard_pairs_documents": _jaccard_pairs,
        "ann_ivf_embeddings": _ann_ivf,
        "ann_ivf_append_embeddings": _ann_ivf_append,
        "near_dup_embeddings": _near_dup_embeddings,
        "media_features_documents": _media_features,  # decode seam stubbed; plumbing hard-oracled
        "frame_samples_documents": _frame_samples,  # decode seam stubbed; plumbing hard-oracled
        # non-SQL-expressible (rows-only checks): probabilistic sketches
        # and LSH candidate sets have no SQL mirror by construction
        "hll_vocab_documents": _hll_vocab,
        "minhash_dedup_documents": _minhash_dedup,
        "approx_quantile_events": _approx_quantile_events,
    }


def _langid_oracle_sql() -> str:
    """DuckDB mirror of pipelines.text.LangId, generated from the SAME
    signature patterns (both engines count non-overlapping RE2 matches
    over lower(first 500 chars); the chained CASE reproduces numpy
    argmax's first-max tie-break; denominators are equal per doc, so raw
    hit counts compare identically to normalized scores)."""
    from datafusion_orc_ray.pipelines.text import LangId

    li = LangId()
    langs = li.langs
    scores = ", ".join(
        f"len(regexp_extract_all(lower(substring(text, 1, 500)), '{li.patterns[l]}')) AS s_{l}"
        for l in langs
    )
    whens = []
    for i, l in enumerate(langs[:-1]):
        rest = [f"s_{m}" for m in langs[i + 1 :]]
        g = f"greatest({', '.join(rest)})" if len(rest) > 1 else rest[0]
        whens.append(f"WHEN s_{l} >= {g} THEN '{l}'")
    case = (
        "CASE WHEN text IS NULL THEN NULL "
        + " ".join(whens)
        + f" ELSE '{langs[-1]}' END"
    )
    return (
        f"SELECT doc_id, {case} AS lang_pred "
        f"FROM (SELECT doc_id, text, {scores} FROM documents)"
    )


# Horner-form polynomial rolling hash over the text bytes, mod 2^64, as a
# recursive CTE (VERDICT r2 #9). HUGEINT keeps the 64x41-bit product
# exact; the final CASE reinterprets the uint64 as the int64 the Ray
# pipeline emits. Byte==codepoint holds because the corpus is ASCII (the
# pipeline hashes UTF-8 bytes; ascii() yields codepoints).
_FINGERPRINT_ORACLE_SQL = """
WITH RECURSIVE fp AS (
  SELECT doc_id, text, length(text) AS n, 1 AS i, CAST(0 AS HUGEINT) AS acc
  FROM documents WHERE text IS NOT NULL
  UNION ALL
  SELECT doc_id, text, n, i + 1,
         (acc * 1099511628211 + ascii(substring(text, i, 1)))
           % CAST('18446744073709551616' AS HUGEINT)
  FROM fp WHERE i <= n
)
SELECT doc_id,
       CAST(CASE WHEN acc >= CAST('9223372036854775808' AS HUGEINT)
                 THEN acc - CAST('18446744073709551616' AS HUGEINT)
                 ELSE acc END AS BIGINT) AS fingerprint
FROM fp WHERE i = n + 1
UNION ALL
SELECT doc_id, NULL AS fingerprint FROM documents WHERE text IS NULL
"""


def _simhash_oracle_sql() -> str:
    """DuckDB mirror of pipelines.dedup.SimHasher: FNV-1a (byte-wise, as
    a recursive CTE over each DISTINCT token's chars) + murmur fmix64
    finalizer, then per-(doc, bit) majority votes over the token multiset
    and bit reassembly. The two 64-bit fmix multiplications are split
    into 32-bit partial products so every intermediate fits INT128
    (HUGEINT overflows on a full 64x64 product); byte==codepoint holds
    because the corpus is ASCII (same caveat as the fingerprint oracle).
    Ties (vote sum 0) give bit 0 on both sides; null text -> NULL,
    token-less text -> 0."""
    m64 = f"CAST('{1 << 64}' AS HUGEINT)"

    def mulmod(x: str, c: int) -> str:
        c0, c1 = c & 0xFFFFFFFF, c >> 32
        return (
            f"(({x}) * {c0} + ((({x}) % 4294967296) * {c1}) "
            f"% 4294967296 * 4294967296) % {m64}"
        )

    return f"""
WITH RECURSIVE
toks AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '\\S+')) AS tok
  FROM documents WHERE text IS NOT NULL
),
dtoks AS (SELECT DISTINCT tok FROM toks),
fnv AS (
  SELECT tok, 1 AS i, CAST('{0xCBF29CE484222325}' AS HUGEINT) AS h FROM dtoks
  UNION ALL
  SELECT tok, i + 1,
         (xor(h, CAST(ascii(substring(tok, i, 1)) AS HUGEINT)) * 1099511628211) % {m64}
  FROM fnv WHERE i <= length(tok)
),
hashed AS (SELECT tok, h FROM fnv WHERE i = length(tok) + 1),
x1 AS (SELECT tok, xor(h, h // 8589934592) AS h FROM hashed),
m1 AS (SELECT tok, {mulmod("h", 0xFF51AFD7ED558CCD)} AS h FROM x1),
x2 AS (SELECT tok, xor(h, h // 8589934592) AS h FROM m1),
m2 AS (SELECT tok, {mulmod("h", 0xC4CEB9FE1A85EC53)} AS h FROM x2),
mixed AS (SELECT tok, xor(h, h // 8589934592) AS h FROM m2),
pows AS (SELECT unnest(range(64)) AS b),
votes AS (
  SELECT t.doc_id, p.b,
         SUM(CASE WHEN (m.h // CAST(power(2, p.b) AS HUGEINT)) % 2 = 1
                  THEN 1 ELSE -1 END) AS s
  FROM toks t JOIN mixed m USING (tok) CROSS JOIN pows p
  GROUP BY t.doc_id, p.b
),
sig AS (
  SELECT doc_id, SUM(CASE WHEN s > 0 THEN CAST(power(2, b) AS HUGEINT)
                          ELSE CAST(0 AS HUGEINT) END) AS u
  FROM votes GROUP BY doc_id
)
SELECT d.doc_id,
  CASE WHEN d.text IS NULL THEN NULL
       ELSE CAST(CASE WHEN coalesce(s.u, CAST(0 AS HUGEINT)) >= CAST('{1 << 63}' AS HUGEINT)
                      THEN coalesce(s.u, CAST(0 AS HUGEINT)) - {m64}
                      ELSE coalesce(s.u, CAST(0 AS HUGEINT)) END AS BIGINT) END AS simhash
FROM documents d LEFT JOIN sig s USING (doc_id)
"""


# Mirror of pipelines.text.repetition_signals: identical integer counts
# divided as doubles on both sides -> bit-identical float64 results.
# Lines = string_split on chr(10) with empties dropped; bigrams zipped
# from the '\S+' token list.
_REPETITION_ORACLE_SQL = """
WITH
ls AS (
  SELECT doc_id, unnest(string_split(text, chr(10))) AS line
  FROM documents WHERE text IS NOT NULL
),
nl AS (SELECT doc_id, line, length(line) AS l FROM ls WHERE length(line) > 0),
grp AS (SELECT doc_id, count(*) AS c, max(l) AS l FROM nl GROUP BY doc_id, line),
lstats AS (
  SELECT doc_id,
         CAST(sum(c - 1) AS DOUBLE) / sum(c) AS dup_line_frac,
         CAST(sum((c - 1) * l) AS DOUBLE) / sum(c * l) AS dup_char_frac
  FROM grp GROUP BY doc_id
),
tl AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS ts
       FROM documents WHERE text IS NOT NULL),
grams AS (
  SELECT doc_id, unnest(list_zip(ts[:len(ts)-1], ts[2:])) AS z
  FROM tl WHERE len(ts) >= 2
),
gcnt AS (SELECT doc_id, z, count(*) AS c FROM grams GROUP BY doc_id, z),
gstats AS (SELECT doc_id, CAST(max(c) AS DOUBLE) / sum(c) AS top_bigram_frac
           FROM gcnt GROUP BY doc_id)
SELECT d.doc_id,
  CASE WHEN d.text IS NULL THEN NULL ELSE coalesce(l.dup_line_frac, 0.0) END AS dup_line_frac,
  CASE WHEN d.text IS NULL THEN NULL ELSE coalesce(l.dup_char_frac, 0.0) END AS dup_char_frac,
  CASE WHEN d.text IS NULL THEN NULL ELSE coalesce(g.top_bigram_frac, 0.0) END AS top_bigram_frac
FROM documents d LEFT JOIN lstats l USING (doc_id) LEFT JOIN gstats g USING (doc_id)
"""


# Hard oracles for the multimodal PLUMBING: the pixel/frame decode seam
# stays an injected stub (no PIL/ffmpeg in this container — documented in
# pipelines/multimodal.py), but with the deterministic stand-ins the full
# Ray path (binary cast, actor batching, padding, one-to-many fan-out,
# output layout) is exactly SQL-expressible. byte==codepoint on the ASCII
# corpus, as for the fingerprint/simhash oracles.
_MEDIA_FEATURES_ORACLE_SQL = """
SELECT doc_id,
  list_transform(generate_series(1, 8),
    i -> CAST(CASE WHEN i <= length(text) THEN ascii(substring(text, i, 1))
                   ELSE 0 END AS FLOAT)) AS features
FROM documents WHERE text IS NOT NULL
"""

_FRAME_SAMPLES_ORACLE_SQL = """
WITH f AS (SELECT doc_id, text, greatest(1, length(text) // 4) AS step
           FROM documents WHERE text IS NOT NULL)
SELECT doc_id, CAST(g.i AS INTEGER) AS frame_idx,
       substring(text, g.i * step + 1, step) AS frame_payload
FROM f, generate_series(0, 3) AS g(i)
"""


def _pii_oracle_sql() -> str:
    from datafusion_orc_ray.pipelines.text import EMAIL_RE, PHONE_RE

    return (
        "SELECT doc_id, regexp_replace(regexp_replace(text, "
        f"'{EMAIL_RE}', '<EMAIL>', 'g'), '{PHONE_RE}', '<PHONE>', 'g') AS redacted "
        "FROM documents"
    )


_PACK_ORACLE_SQL = (
    "SELECT doc_id, lang, len(regexp_extract_all(text, '\\S+')) AS n_tok, "
    "CAST(floor((sum(len(regexp_extract_all(text, '\\S+'))) "
    "OVER (PARTITION BY lang ORDER BY doc_id) "
    "- len(regexp_extract_all(text, '\\S+'))) / 2048.0) AS BIGINT) AS bin "
    "FROM documents"
)


# Full Sennrich BPE — train AND apply — in one DuckDB statement, the
# hard oracle for _bpe_tokenize (cleared the r3 `no_oracle` row).
# `learn` carries the segmented vocabulary as its recursive working
# table, one merge learned per iteration: pair counts via lead() over
# (word,pos), best = (max count, then lexicographic), stop when the
# best count < 2 or after 100 merges; the apply step inside each
# iteration is greedy left-to-right with overlap chains resolved by
# alternating selection (rn-parity within consecutive-candidate runs),
# exactly pipelines/bpe.learn_merges. `app` replays the learned merges
# in rank order over every distinct corpus word — equivalent to the
# lowest-rank-first loop in bpe._encode_word because a BPE merge can
# never create a pair an EARLIER merge acts on (its output symbol only
# appears in later-learned pairs). n_bpe per doc = sum of per-word
# token counts over the doc's whitespace tokens.
_BPE_STEP = """
    s1 AS (
      SELECT it, word, freq, pos, sym,
             lead(sym) OVER (PARTITION BY word ORDER BY pos) AS nxt,
             row_number() OVER (PARTITION BY word ORDER BY pos) AS rn
      FROM prev WHERE kind = 's'
    ),
    s2 AS (
      SELECT s1.*, coalesce(s1.sym = best.a AND s1.nxt = best.b, FALSE) AS is_cand
      FROM s1, best
    ),
    s3 AS (
      SELECT *, rn - row_number() OVER (PARTITION BY word, is_cand ORDER BY rn) AS grp
      FROM s2
    ),
    s4 AS (
      SELECT *, is_cand
             AND ((rn - min(rn) OVER (PARTITION BY word, is_cand, grp)) % 2 = 0) AS sel
      FROM s3
    ),
    s5 AS (
      SELECT *, coalesce(lag(sel) OVER (PARTITION BY word ORDER BY rn), FALSE) AS dropped
      FROM s4
    )
"""

_BPE_FULL_SQL = f"""
WITH RECURSIVE
w0 AS (SELECT unnest(regexp_extract_all(text, '\\S+')) AS word FROM documents),
words AS (SELECT word, count(*)::BIGINT AS freq FROM w0 GROUP BY word),
tw AS (SELECT word, freq FROM words ORDER BY freq DESC, word ASC LIMIT 100000),
tbase AS (
  SELECT word, freq, g - 1 AS pos, substring(word, g, 1) AS sym
  FROM tw, LATERAL (SELECT unnest(generate_series(1, length(word))) AS g) gs(g)
),
learn(it, kind, word, freq, pos, sym) AS (
  SELECT 0, 's', word, freq, pos, sym FROM tbase
  UNION ALL
  (
    WITH prev AS (SELECT * FROM learn),
    pairs AS (
      SELECT a, b, sum(freq) AS cnt FROM (
        SELECT freq, sym AS a,
               lead(sym) OVER (PARTITION BY word ORDER BY pos) AS b
        FROM prev WHERE kind = 's'
      ) WHERE b IS NOT NULL GROUP BY a, b
    ),
    best AS (
      SELECT a, b FROM pairs WHERE cnt >= 2
      ORDER BY cnt DESC, a ASC, b ASC LIMIT 1
    ),
{_BPE_STEP}
    SELECT it + 1, 's', word, freq, pos,
           CASE WHEN sel THEN sym || nxt ELSE sym END
      FROM s5 WHERE NOT dropped AND it < 100
    UNION ALL
    SELECT it + 1, 'm', word, freq, pos, sym
      FROM prev, best WHERE kind = 'm' AND it < 100
    UNION ALL
    SELECT g.it + 1, 'm', best.a, 0, g.it + 1, best.b
      FROM best, (SELECT max(it) AS it FROM prev WHERE kind = 's') g
      WHERE g.it < 100
  )
),
merges AS MATERIALIZED (
  -- MATERIALIZED is load-bearing: DuckDB 1.0 inlines plain CTEs, so
  -- `app`'s recursive member would re-run the entire `learn`
  -- recursion once per iteration (measured: 71 s for 20 merges at
  -- sf0.001 vs 12 s for 100 merges materialized).
  SELECT pos AS mi, word AS a, sym AS b FROM learn
  WHERE kind = 'm' AND it = (SELECT max(it) FROM learn)
),
abase AS (
  SELECT word, 0::BIGINT AS freq, g - 1 AS pos, substring(word, g, 1) AS sym
  FROM (SELECT DISTINCT word FROM words) aw,
       LATERAL (SELECT unnest(generate_series(1, length(word))) AS g) gs(g)
),
app(it, kind, word, freq, pos, sym) AS (
  SELECT 0, 's', word, freq, pos, sym FROM abase
  UNION ALL
  (
    WITH prev AS (SELECT * FROM app),
    best AS (
      SELECT a, b FROM merges,
           (SELECT max(it) AS it FROM prev) g
      WHERE mi = g.it + 1
    ),
{_BPE_STEP}
    SELECT it + 1, 's', word, freq, pos,
           CASE WHEN sel THEN sym || nxt ELSE sym END
      FROM s5 WHERE NOT dropped
  )
),
napp AS (
  SELECT word, count(*)::BIGINT AS n FROM app
  WHERE it = (SELECT max(it) FROM app) GROUP BY word
),
docw AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '\\S+')) AS word FROM documents
)
SELECT d.doc_id, coalesce(sum(n.n), 0)::BIGINT AS n_bpe
FROM documents d
LEFT JOIN docw ON d.doc_id = docw.doc_id
LEFT JOIN napp n ON docw.word = n.word
GROUP BY d.doc_id
"""


def oracle_sql() -> dict[str, str]:
    return {
        "pii_redact_documents": _pii_oracle_sql(),
        "pack_sequences_documents": _PACK_ORACLE_SQL,
        "langid_documents": _langid_oracle_sql(),
        "fingerprint_documents": _FINGERPRINT_ORACLE_SQL,
        "simhash_documents": _simhash_oracle_sql(),
        "repetition_documents": _REPETITION_ORACLE_SQL,
        "media_features_documents": _MEDIA_FEATURES_ORACLE_SQL,
        "range_join_orders": """
WITH tiers AS (
  SELECT i AS tier_id, i * 15000.0 AS lo, (i + 1) * 15000.0 AS hi
  FROM generate_series(0, 39) g(i)
)
SELECT o_orderkey, o_totalprice, tier_id FROM orders
JOIN tiers ON o_totalprice >= lo AND o_totalprice < hi
""",
        "frame_samples_documents": _FRAME_SAMPLES_ORACLE_SQL,
        # windows as strings in SQL vs 64-bit rolling hashes in Ray:
        # equal counts unless a hash collision (~10^-15 at this scale)
        "shared_spans_documents": """
WITH tl AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS ts
            FROM documents WHERE text IS NOT NULL),
wins AS (
  SELECT doc_id,
         unnest(list_transform(generate_series(1, len(ts) - 7),
                               i -> array_to_string(ts[i:i+7], ' '))) AS w
  FROM tl
),
shared AS (SELECT w FROM wins GROUP BY w HAVING count(DISTINCT doc_id) >= 2),
cnt AS (SELECT x.doc_id, count(*) AS n FROM wins x JOIN shared USING (w)
        GROUP BY x.doc_id)
SELECT d.doc_id,
  CASE WHEN d.text IS NULL THEN NULL ELSE coalesce(c.n, 0) END AS n_shared_windows
FROM documents d LEFT JOIN cnt c USING (doc_id)
""",
        "training_shards_documents": (
            # same multiplicative-hash shard both sides (HUGEINT mirror
            # of the uint64 Knuth coin, identical mod 2^32)
            "SELECT CAST((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 % 16 "
            "AS BIGINT) AS shard, count(*) AS n_docs, "
            "CAST(sum(len(regexp_extract_all(text, '\\S+'))) AS BIGINT) AS n_tokens "
            "FROM documents GROUP BY 1"
        ),
        "weighted_sample_documents": (
            # integer priority both sides: (coin << 20) // weight in
            # HUGEINT mirrors numpy's exact uint64 arithmetic
            "SELECT doc_id, n_chars FROM ("
            "  SELECT doc_id, n_chars, "
            "  ((CAST(doc_id AS HUGEINT) * 2484345263) % 4294967296) * 1048576 "
            "  // n_chars AS prio "
            "  FROM documents WHERE n_chars > 0"
            ") ORDER BY prio, doc_id LIMIT 50"
        ),
        "nb_quality_documents": """
WITH lab AS (
  SELECT doc_id, source IN ('src0','src1','src2','src3','src4',
                            'src5','src6','src7','src8','src9') AS pos, text
  FROM documents
),
toks AS (SELECT doc_id, pos, unnest(regexp_extract_all(text, '\\S+')) AS w
         FROM lab WHERE text IS NOT NULL),
cnt AS (SELECT w, sum(CASE WHEN pos THEN 1 ELSE 0 END) AS cp,
               sum(CASE WHEN pos THEN 0 ELSE 1 END) AS cn
        FROM toks GROUP BY w),
tot AS (SELECT sum(cp) AS P, sum(cn) AS N, count(*) AS V FROM cnt),
sc AS (
  SELECT t.doc_id, count(*) AS n_tok,
         round(sum( ln((c.cp + 0.5) / (tot.P + 0.5 * tot.V))
                  - ln((c.cn + 0.5) / (tot.N + 0.5 * tot.V)) ), 4) AS score
  FROM toks t JOIN cnt c USING (w) CROSS JOIN tot
  GROUP BY t.doc_id
)
SELECT d.doc_id, coalesce(sc.n_tok, 0) AS n_tok, sc.score
FROM documents d LEFT JOIN sc USING (doc_id)
""",
        "pack_blocks_documents": """
WITH d AS (
  SELECT doc_id,
         (CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 AS h,
         list_append(regexp_extract_all(text, '\\S+'), '<eod>') AS ts
  FROM documents WHERE text IS NOT NULL
),
s AS (
  SELECT CAST(h % 16 AS BIGINT) AS shard,
         flatten(list(ts ORDER BY h, doc_id)) AS toks
  FROM d GROUP BY 1
),
b AS (
  SELECT shard,
         unnest(generate_series(0, CAST(ceil(len(toks) / 512.0) AS BIGINT) - 1)) AS block_id,
         unnest(list_transform(generate_series(0, CAST(ceil(len(toks) / 512.0) AS BIGINT) - 1),
                i -> array_to_string(toks[i*512+1 : least((i+1)*512, len(toks))], ' '))) AS block_text,
         unnest(list_transform(generate_series(0, CAST(ceil(len(toks) / 512.0) AS BIGINT) - 1),
                i -> least((i+1)*512, len(toks)) - i*512)) AS n_tok
  FROM s
)
SELECT shard, block_id, block_text, CAST(n_tok AS BIGINT) AS n_tok FROM b
""",
        "excise_spans_documents": """
WITH tl AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS ts
            FROM documents WHERE text IS NOT NULL),
wins AS (
  SELECT doc_id,
         unnest(generate_series(1, len(ts) - 7)) AS start,
         unnest(list_transform(generate_series(1, len(ts) - 7),
                               i -> array_to_string(ts[i:i+7], ' '))) AS w
  FROM tl
),
owners AS (SELECT w, min(doc_id) AS owner FROM wins
           GROUP BY w HAVING count(DISTINCT doc_id) >= 2),
ex AS (SELECT DISTINCT wins.doc_id, start FROM wins JOIN owners USING (w)
       WHERE wins.doc_id <> owners.owner),
cov AS (SELECT DISTINCT doc_id,
               unnest(generate_series(start, start + 7)) AS pos FROM ex),
toks AS (SELECT doc_id, unnest(ts) AS tok, generate_subscripts(ts, 1) AS pos
         FROM tl),
kept AS (
  SELECT t.doc_id,
         coalesce(string_agg(t.tok, ' ' ORDER BY t.pos)
                  FILTER (WHERE cov.pos IS NULL), '') AS text_excised,
         count(cov.pos) AS n_removed
  FROM toks t LEFT JOIN cov ON cov.doc_id = t.doc_id AND cov.pos = t.pos
  GROUP BY t.doc_id
)
SELECT d.doc_id,
       CASE WHEN d.text IS NULL THEN NULL
            ELSE coalesce(k.text_excised, '') END AS text_excised,
       CASE WHEN d.text IS NULL THEN 0
            ELSE coalesce(k.n_removed, 0) END AS n_removed
FROM documents d LEFT JOIN kept k USING (doc_id)
""",
        "curation_pipeline_documents": """
WITH train AS (SELECT * FROM documents WHERE doc_id % 37 <> 0),
f AS (SELECT doc_id, lang, text, len(regexp_extract_all(text, '\\S+')) AS n_tok
      FROM train WHERE text IS NOT NULL),
g AS (SELECT doc_id, lang, text, n_tok,
      CAST(length(regexp_replace(text, '\\s', '', 'g')) AS DOUBLE) / n_tok AS mean_len
      FROM f WHERE n_tok >= 20),
q AS (SELECT doc_id, lang, text, n_tok FROM g
      WHERE mean_len >= 4.0 AND mean_len <= 4.6),
tl AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS ts FROM q),
wins AS (
  SELECT doc_id,
         unnest(list_transform(generate_series(1, len(ts) - 7),
                               i -> array_to_string(ts[i:i+7], ' '))) AS w
  FROM tl
),
bl AS (SELECT regexp_extract_all(text, '\\S+') AS ts
       FROM documents WHERE text IS NOT NULL AND doc_id % 37 = 0),
bwins AS (
  SELECT DISTINCT unnest(list_transform(generate_series(1, len(ts) - 7),
                                        i -> array_to_string(ts[i:i+7], ' '))) AS w
  FROM bl
),
dirty AS (SELECT DISTINCT x.doc_id FROM wins x JOIN bwins USING (w)),
clean AS (SELECT q.* FROM q
          WHERE NOT EXISTS (SELECT 1 FROM dirty WHERE dirty.doc_id = q.doc_id)),
surv AS (SELECT min(doc_id) AS doc_id FROM clean GROUP BY text)
SELECT c.doc_id, c.lang, c.n_tok FROM clean c JOIN surv USING (doc_id)
""",
        "dedup_incremental_documents": (
            "SELECT d.doc_id FROM documents d WHERE d.doc_id % 2 = 1 "
            "AND (d.text IS NULL OR NOT EXISTS (SELECT 1 FROM documents e "
            "WHERE e.doc_id % 2 = 0 AND e.text = d.text))"
        ),
        "quantile_filter_documents": (
            "SELECT doc_id, lang, n_chars FROM ("
            "SELECT doc_id, lang, length(text) AS n_chars, "
            "quantile_cont(length(text), 0.25) OVER (PARTITION BY lang) AS thr "
            "FROM documents) t WHERE n_chars >= thr"
        ),
        "decontam_documents": """
WITH tl AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS ts
            FROM documents WHERE text IS NOT NULL AND doc_id % 37 <> 0),
wins AS (
  SELECT doc_id,
         unnest(list_transform(generate_series(1, len(ts) - 7),
                               i -> array_to_string(ts[i:i+7], ' '))) AS w
  FROM tl
),
bl AS (SELECT regexp_extract_all(text, '\\S+') AS ts
       FROM documents WHERE text IS NOT NULL AND doc_id % 37 = 0),
bwins AS (
  SELECT DISTINCT unnest(list_transform(generate_series(1, len(ts) - 7),
                                        i -> array_to_string(ts[i:i+7], ' '))) AS w
  FROM bl
),
cnt AS (SELECT x.doc_id, count(*) AS n FROM wins x JOIN bwins USING (w)
        GROUP BY x.doc_id)
SELECT d.doc_id,
  CASE WHEN d.text IS NULL THEN NULL ELSE coalesce(c.n, 0) END
    AS n_contaminated_windows
FROM documents d LEFT JOIN cnt c USING (doc_id) WHERE d.doc_id % 37 <> 0
""",
        "point_lookup_orders": (
            "SELECT o_orderkey, o_custkey, o_totalprice FROM orders "
            "WHERE o_orderkey = 777"
        ),
        "near_dup_embeddings": (
            "SELECT a.vec_id AS id_a, b.vec_id AS id_b, "
            "round(list_cosine_similarity(a.embedding, b.embedding), 4) AS cos_sim "
            "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
            "WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.95"
        ),
        "jaccard_pairs_documents": (
            # exact 3-word-shingle Jaccard >= 0.5, all pairs. Tokenize =
            # whitespace split (corpus is ASCII so RE2 \s == Arrow
            # utf8_split_whitespace); docs with 1-2 tokens get ONE
            # ''-padded shingle, matching tokhash.rolling_shingles.
            "WITH docs AS (SELECT doc_id, list_filter(string_split_regex(text, '\\s+'), "
            "x -> x <> '') AS toks FROM documents), "
            "grams AS (SELECT DISTINCT doc_id, CASE WHEN len(toks) >= 3 THEN "
            "array_to_string(toks[i:i+2], ' ') ELSE "
            "array_to_string((toks || ['', ''])[1:3], ' ') END AS g "
            "FROM docs, LATERAL unnest(generate_series(1, "
            "CASE WHEN len(toks) >= 3 THEN len(toks) - 2 ELSE 1 END)) AS t(i) "
            "WHERE len(toks) >= 1), "
            "szs AS (SELECT doc_id, count(*) AS sz FROM grams GROUP BY doc_id), "
            "inter AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS i "
            "FROM grams a JOIN grams b ON a.g = b.g AND a.doc_id < b.doc_id GROUP BY 1, 2) "
            "SELECT id_a, id_b, CAST(i AS DOUBLE) / (sa.sz + sb.sz - i) AS jaccard "
            "FROM inter JOIN szs sa ON sa.doc_id = id_a JOIN szs sb ON sb.doc_id = id_b "
            "WHERE CAST(i AS DOUBLE) / (sa.sz + sb.sz - i) >= 0.5"
        ),
        "approx_topk_ngrams_documents": (
            # same as the exact top-k oracle: the query runs in the
            # proven-exact regime (asserted in the callable)
            "WITH docs AS (SELECT list_filter(string_split_regex(text, '\\s+'), "
            "x -> x <> '') AS toks FROM documents), "
            "grams AS (SELECT array_to_string(toks[i:i+1], ' ') AS gram "
            "FROM docs, LATERAL unnest(generate_series(1, len(toks) - 1)) AS t(i) "
            "WHERE len(toks) >= 2) "
            "SELECT gram, count(*) AS n FROM grams GROUP BY gram "
            "ORDER BY n DESC, gram LIMIT 20"
        ),
        "topk_ngrams_documents": (
            # bigram construction mirrors the jaccard oracle's shingles
            # (DuckDB list slice is 1-based INCLUSIVE: toks[i:i+1] = 2
            # tokens); ties at the k-cut break on gram ASC both sides.
            "WITH docs AS (SELECT list_filter(string_split_regex(text, '\\s+'), "
            "x -> x <> '') AS toks FROM documents), "
            "grams AS (SELECT array_to_string(toks[i:i+1], ' ') AS gram "
            "FROM docs, LATERAL unnest(generate_series(1, len(toks) - 1)) AS t(i) "
            "WHERE len(toks) >= 2) "
            "SELECT gram, count(*) AS n FROM grams GROUP BY gram "
            "ORDER BY n DESC, gram LIMIT 20"
        ),
        "vocab_per_lang_documents": (
            "SELECT lang, count(DISTINCT tok) AS n_vocab FROM "
            "(SELECT lang, unnest(list_filter(string_split_regex(text, '\\s+'), "
            "x -> x <> '')) AS tok FROM documents) GROUP BY lang"
        ),
        "c4_filter_documents": (
            "WITH f AS (SELECT doc_id, lang, text, "
            "len(regexp_extract_all(text, '\\S+')) AS n_tok FROM documents "
            "WHERE text IS NOT NULL), "
            "g AS (SELECT doc_id, lang, n_tok, "
            "CAST(length(regexp_replace(text, '\\s', '', 'g')) AS DOUBLE) / n_tok "
            "AS mean_len FROM f WHERE n_tok >= 20) "
            "SELECT doc_id, lang, n_tok, round(mean_len, 4) AS mean_tok_len "
            "FROM g WHERE mean_len >= 4.0 AND mean_len <= 4.6"
        ),
        "tfidf_terms_documents": (
            # same whitespace tokenization as the Ray side (empty tokens
            # dropped); score rounded to 4 decimals BEFORE ranking so
            # both sides rank identically; ties break on term ASC
            "WITH toks AS (SELECT doc_id, lang, "
            "unnest(list_filter(string_split_regex(text, '\\s+'), x -> x <> '')) "
            "AS term FROM documents), "
            "tf AS (SELECT lang, term, count(*) AS tf FROM toks GROUP BY lang, term), "
            "df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks GROUP BY term), "
            "n AS (SELECT count(*) AS n FROM documents), "
            "s AS (SELECT lang, tf.term, "
            "round(tf * ln(CAST(n.n AS DOUBLE) / df.df), 4) AS score "
            "FROM tf JOIN df ON tf.term = df.term CROSS JOIN n) "
            "SELECT lang, term, score FROM "
            "(SELECT *, row_number() OVER (PARTITION BY lang "
            "ORDER BY score DESC, term) AS rn FROM s) WHERE rn <= 5"
        ),
        "boilerplate_strip_documents": (
            # explode with ordinality (parallel unnests zip in DuckDB),
            # hot = tokens in >=100 distinct docs, reassemble in order;
            # docs whose every token is hot drop out (no group) — the
            # Ray side filters per_doc > 0 identically
            "WITH exploded AS (SELECT doc_id, "
            "unnest(string_split(text, ' ')) AS line, "
            "unnest(range(1, len(string_split(text, ' ')) + 1)) AS ord "
            "FROM documents), "
            "hot AS (SELECT line FROM exploded GROUP BY line "
            "HAVING count(DISTINCT doc_id) >= 100) "
            "SELECT e.doc_id, string_agg(e.line, ' ' ORDER BY e.ord) AS text "
            "FROM exploded e WHERE e.line NOT IN (SELECT line FROM hot) "
            "GROUP BY e.doc_id "
            # NULL passthrough: a null-text doc has no lines and is not
            # "all boilerplate" — it keeps its row and its NULL
            "UNION ALL SELECT doc_id, NULL AS text FROM documents "
            "WHERE text IS NULL"
        ),
        "mixture_resample_documents": _mixture_oracle_sql(),
        "stratified_sample_documents": (
            # same multiplicative-hash coin both sides; HUGEINT avoids
            # BIGINT overflow for large doc_ids (numpy side wraps uint64,
            # identical mod 2^32)
            "SELECT doc_id, lang FROM documents WHERE "
            "(CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 < "
            + (
                "CASE lang "
                + " ".join(
                    f"WHEN '{l}' THEN {min(1 << 32, int(r * (1 << 32)))}"
                    for l, r in _SAMPLE_RATES.items()
                )
                + " ELSE 0 END"
            )
        ),
        "q5_revenue_nation": (
            "SELECT r_name, n_name, round(sum(l_extendedprice * (1 - l_discount)), 2) "
            "AS total, count(*) AS n FROM lineitem "
            "JOIN supplier ON l_suppkey = s_suppkey "
            "JOIN nation ON s_nationkey = n_nationkey "
            "JOIN region ON n_regionkey = r_regionkey "
            "GROUP BY r_name, n_name"
        ),
        "q3_shipping": (
            "SELECT l_orderkey, "
            "round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue, "
            "o_orderdate, o_orderpriority "
            "FROM customer JOIN orders ON c_custkey = o_custkey "
            "JOIN lineitem ON l_orderkey = o_orderkey "
            "WHERE c_mktsegment = 'BUILDING' "
            "AND o_orderdate < TIMESTAMP '1998-06-01' "
            "AND l_shipdate > TIMESTAMP '1998-06-01' "
            "GROUP BY l_orderkey, o_orderdate, o_orderpriority "
            "ORDER BY sum(l_extendedprice * (1 - l_discount)) DESC, l_orderkey "
            "LIMIT 10"
        ),
        "normalize_documents": (
            "SELECT doc_id, trim(regexp_replace(lower(nfc_normalize(text)), "
            "'\\s+', ' ', 'g')) AS normalized FROM documents"
        ),
        "grouped_p90_events": (
            "SELECT event_type, round(quantile_cont(value, 0.9), 4) AS p90 "
            "FROM events GROUP BY event_type"
        ),
        "histogram_events": (
            # identical double arithmetic both sides: w inlined via
            # Python repr (round-trips to the same IEEE value); the
            # least() mirrors the Ray side's float-edge clip
            f"SELECT least(CAST(floor((value - {_HIST_LO!r}) / "
            f"{(_HIST_HI - _HIST_LO) / _HIST_BINS!r}) AS BIGINT), {_HIST_BINS - 1}) AS bin, "
            f"count(*) AS n FROM events "
            f"WHERE value >= {_HIST_LO!r} AND value < {_HIST_HI!r} GROUP BY 1"
        ),
        "sort_orders": "SELECT o_orderkey, o_totalprice FROM orders",
        "json_extract_events": (
            "SELECT event_id, CAST(json_extract(props, '$.k') AS DOUBLE) AS k "
            "FROM events"
        ),
        "string_agg_events": (
            "SELECT user_id, string_agg(event_type, ',' ORDER BY ts, event_id) "
            "AS trail FROM events GROUP BY user_id"
        ),
        "string_agg_chunked_events": (
            "WITH v AS (SELECT user_id, ts, event_id, event_type, "
            "row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) - 1 "
            "AS rn FROM events WHERE event_type IS NOT NULL) "
            "SELECT user_id, (rn // 50)::BIGINT AS chunk_idx, "
            "string_agg(event_type, ',' ORDER BY ts, event_id) AS trail "
            "FROM v GROUP BY user_id, chunk_idx "
            "UNION ALL SELECT user_id, 0::BIGINT AS chunk_idx, "
            "NULL::VARCHAR AS trail FROM events GROUP BY user_id "
            "HAVING count(event_type) = 0"
        ),
        "nunique_events": (
            "SELECT user_id, count(DISTINCT event_type) AS n_distinct "
            "FROM events GROUP BY user_id"
        ),
        "daily_rollup_events": (
            "SELECT CAST(date_trunc('day', ts) AS TIMESTAMP) AS day_ts, "
            "count(*) AS n, round(sum(value), 4) AS sum_value "
            "FROM events GROUP BY 1"
        ),
        "asof_partitioned_events": (
            "SELECT l.event_id, l.user_id, r.ts AS last_click_ts "
            "FROM events l ASOF LEFT JOIN "
            "(SELECT user_id, ts FROM events WHERE event_type = 'click') r "
            "ON l.user_id = r.user_id AND l.ts >= r.ts"
        ),
        "asof_skewed_events": (
            "SELECT l.event_id, l.event_type, r.ts AS mark_ts "
            "FROM events l ASOF LEFT JOIN "
            "(SELECT event_type, ts FROM events WHERE user_id % 8 = 0) r "
            "ON l.event_type = r.event_type AND l.ts >= r.ts"
        ),
        "entropy_documents": """
WITH pos AS (
  SELECT doc_id, text, unnest(range(1, length(text) + 1)) AS i
  FROM documents WHERE text IS NOT NULL AND length(text) > 0
),
cnt AS (
  SELECT doc_id, substring(text, i, 1) AS c, count(*) AS n
  FROM pos GROUP BY 1, 2
),
tot AS (SELECT doc_id, CAST(sum(n) AS DOUBLE) AS t FROM cnt GROUP BY 1),
e AS (
  SELECT cnt.doc_id, -sum((n / t) * ln(n / t)) AS ent
  FROM cnt JOIN tot USING (doc_id) GROUP BY cnt.doc_id
)
SELECT d.doc_id, round(e.ent, 4) AS entropy
FROM documents d LEFT JOIN e USING (doc_id)
""",
        "left_outer_orders": (
            "SELECT c_custkey, count(o_orderkey) AS n_orders "
            "FROM customer LEFT JOIN orders ON c_custkey = o_custkey "
            "GROUP BY c_custkey"
        ),
        "full_outer_users": (
            "SELECT g.user_id, g.n_ev, c.c_custkey "
            "FROM (SELECT user_id, count(*) AS n_ev FROM events GROUP BY user_id) g "
            "FULL OUTER JOIN customer c ON g.user_id = c.c_custkey"
        ),
        "union_nations": (
            "SELECT c_nationkey FROM customer UNION SELECT s_nationkey FROM supplier"
        ),
        "cross_join_region_nation": (
            "SELECT r_regionkey, r_name, n_nationkey, n_name "
            "FROM region CROSS JOIN nation"
        ),
        "multikey_join_events": (
            "SELECT e.event_id, e.user_id, e.event_type, g.cnt "
            "FROM events e JOIN (SELECT user_id, event_type, count(*) AS cnt "
            "FROM events GROUP BY 1, 2) g USING (user_id, event_type)"
        ),
        "mode_documents": (
            "WITH c AS (SELECT lang, source, count(*) AS n FROM documents "
            "GROUP BY 1, 2), m AS (SELECT lang, max(n) AS mx FROM c GROUP BY 1) "
            "SELECT c.lang, min(c.source) AS source, m.mx AS n "
            "FROM c JOIN m ON c.lang = m.lang AND c.n = m.mx GROUP BY c.lang, m.mx"
        ),
        "sample_per_lang_documents": (
            "SELECT lang, doc_id FROM ("
            "  SELECT lang, doc_id, row_number() OVER ("
            "    PARTITION BY lang "
            "    ORDER BY (CAST(doc_id AS HUGEINT) * 2246822519) % 4294967296, doc_id"
            "  ) AS rn FROM documents"
            ") WHERE rn <= 5"
        ),
        "chunk_documents": """
WITH tok AS (
  SELECT doc_id, regexp_extract_all(coalesce(text, ''), '\\S+') AS ts FROM documents
),
n AS (SELECT doc_id, ts, len(ts) AS nt FROM tok WHERE len(ts) > 0),
-- windowing stops once a chunk reaches the doc end: last start is
-- step*ceil((nt-max)/step), not the ceil(nt/step) grid
st AS (SELECT doc_id, ts, nt,
       unnest(range(0, greatest(CAST(ceil((nt - 64.0) / 48) AS BIGINT), 0) * 48 + 1, 48)) AS s
       FROM n)
SELECT doc_id, CAST(s // 48 AS BIGINT) AS chunk_id,
       least(s + 64, nt) - s AS n_tok,
       array_to_string(ts[s + 1 : least(s + 64, nt)], ' ') AS chunk_text
FROM st
""",
        "rollup_orders": (
            "SELECT o_orderstatus, o_orderpriority, count(*) AS n, "
            "round(sum(o_totalprice), 2) AS sum_price "
            "FROM orders GROUP BY ROLLUP(o_orderstatus, o_orderpriority)"
        ),
        "orc_export_roundtrip": (
            "SELECT doc_id, text, lang, source, n_chars FROM documents"
        ),
        "cube_orders": (
            "SELECT o_orderstatus, o_orderpriority, count(*) AS n, "
            "round(sum(o_totalprice), 2) AS sum_price "
            "FROM orders GROUP BY CUBE(o_orderstatus, o_orderpriority)"
        ),
        "grouping_sets_orders": (
            "SELECT o_orderstatus, o_orderpriority, count(*) AS n, "
            "round(sum(o_totalprice), 2) AS sum_price FROM orders "
            "GROUP BY GROUPING SETS ((o_orderstatus), (o_orderpriority), ())"
        ),
        "pivot_documents": (
            "SELECT source, "
            "count(*) FILTER (lang = 'de') AS n_de, "
            "count(*) FILTER (lang = 'en') AS n_en, "
            "count(*) FILTER (lang = 'es') AS n_es, "
            "count(*) FILTER (lang = 'fr') AS n_fr, "
            "count(*) FILTER (lang = 'zh') AS n_zh "
            "FROM documents GROUP BY source"
        ),
        "lm_perplexity_documents": """
WITH tok AS (
  SELECT doc_id, regexp_extract_all(coalesce(text, ''), '\\S+') AS ts FROM documents
),
uni AS (
  SELECT t AS w, CAST(count(*) AS DOUBLE) AS c
  FROM (SELECT unnest(ts) AS t FROM tok) GROUP BY 1
),
v AS (SELECT CAST(count(*) AS DOUBLE) AS vocab FROM uni),
big AS (
  SELECT z[1] AS w1, z[2] AS w2, CAST(count(*) AS DOUBLE) AS c
  FROM (SELECT unnest(list_zip(ts[:len(ts)-1], ts[2:])) AS z FROM tok WHERE len(ts) >= 2)
  GROUP BY 1, 2
),
trans AS (
  SELECT doc_id, unnest(list_zip(ts[:len(ts)-1], ts[2:])) AS z
  FROM tok WHERE len(ts) >= 2
),
scored AS (
  SELECT tr.doc_id, ln((coalesce(b.c, 0) + 0.4) / (u.c + 0.4 * v.vocab)) AS lp
  FROM trans tr
  JOIN uni u ON u.w = tr.z[1]
  LEFT JOIN big b ON b.w1 = tr.z[1] AND b.w2 = tr.z[2]
  CROSS JOIN v
)
SELECT k.doc_id, k.n_trans,
       CASE WHEN k.n_trans = 0 THEN NULL
            ELSE round(-sum(s.lp) / k.n_trans, 4) END AS avg_nll
FROM (SELECT doc_id, greatest(len(ts) - 1, 0) AS n_trans FROM tok) k
LEFT JOIN scored s USING (doc_id)
GROUP BY k.doc_id, k.n_trans
""",
        "nearest_centroid_embeddings": (
            "WITH cent AS ("
            "  SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cid, embedding"
            "  FROM (SELECT vec_id, embedding FROM embeddings ORDER BY vec_id LIMIT 8)"
            "), d AS ("
            "  SELECT e.vec_id, c.cid, "
            "round(list_distance(CAST(e.embedding AS DOUBLE[]), "
            "CAST(c.embedding AS DOUBLE[])), 4) AS rd "
            "  FROM embeddings e CROSS JOIN cent c"
            ") SELECT vec_id, cluster, dist FROM ("
            "  SELECT vec_id, cid AS cluster, rd AS dist, "
            "row_number() OVER (PARTITION BY vec_id ORDER BY rd, cid) AS rn FROM d"
            ") WHERE rn = 1"
        ),
        "moments_lineitem": (
            "SELECT l_returnflag, count(l_quantity) AS n, "
            "round(avg(l_quantity), 4) AS mean_x, "
            "round(var_samp(l_quantity), 4) AS var_x, "
            "round(stddev_samp(l_quantity), 4) AS std_x, "
            "round(covar_samp(l_quantity, l_extendedprice), 4) AS covar_xy, "
            "round(corr(l_quantity, l_extendedprice), 4) AS corr_xy "
            "FROM lineitem GROUP BY l_returnflag"
        ),
        "argmax_orders": (
            "WITH m AS (SELECT o_custkey, max(o_totalprice) AS mv "
            "FROM orders GROUP BY o_custkey) "
            "SELECT m.o_custkey, m.mv AS o_totalprice, "
            "min(o.o_orderkey) AS o_orderkey "
            "FROM orders o JOIN m ON o.o_custkey = m.o_custkey "
            "AND o.o_totalprice = m.mv GROUP BY m.o_custkey, m.mv"
        ),
        "intersect_nations": (
            "SELECT c_nationkey FROM customer "
            "INTERSECT SELECT s_nationkey FROM supplier"
        ),
        "except_custkeys": (
            "SELECT c_custkey FROM customer "
            "EXCEPT SELECT o_custkey FROM orders"
        ),
        "roundtrip_documents": "SELECT * FROM documents",
        "roundtrip_lineitem": "SELECT * FROM lineitem",
        "roundtrip_events": "SELECT * FROM events",
        "roundtrip_embeddings": "SELECT * FROM embeddings",
        "roundtrip_union": (
            "SELECT doc_id, doc_id % 2 AS u_tag, "
            "CASE WHEN doc_id % 2 = 0 THEN n_chars END AS u_int, "
            "CASE WHEN doc_id % 2 = 1 THEN lang END AS u_str FROM documents"
        ),
        "roundtrip_decimal256": (
            # mirror of _roundtrip_decimal256.build: unscaled digits are
            # (doc_id+1) || lpad(n_chars, 53, '0'), scale 2 -> insert '.'
            # before the last two digits
            "SELECT doc_id, substr(s, 1, length(s) - 2) || '.' || "
            "substr(s, length(s) - 1, 2) AS d_str FROM (SELECT doc_id, "
            "CAST(doc_id + 1 AS VARCHAR) || lpad(CAST(n_chars AS VARCHAR), 53, '0') "
            "AS s FROM documents)"
        ),
        "projection_lineitem": "SELECT l_orderkey, l_quantity FROM lineitem",
        "stats_lineitem": (
            "SELECT min(l_quantity) AS col_min, max(l_quantity) AS col_max, "
            "count(*) AS n, count(*) - count(l_quantity) AS null_count FROM lineitem"
        ),
        "count_lineitem": "SELECT count(*) AS n FROM lineitem",
        "distinct_lang_documents": "SELECT lang, count(*) AS n FROM documents GROUP BY lang",
        "topk_orders": (
            "SELECT o_orderkey, o_totalprice FROM orders "
            "ORDER BY o_totalprice DESC, o_orderkey LIMIT 10"
        ),
        "filter_events": (
            "SELECT event_id, event_type, value FROM events WHERE event_type = 'click'"
        ),
        "q1_lineitem": (
            "SELECT l_returnflag, l_linestatus, round(sum(l_quantity), 2) AS sum_qty, "
            "round(sum(l_extendedprice), 2) AS sum_base, count(*) AS n "
            "FROM lineitem GROUP BY l_returnflag, l_linestatus"
        ),
        "join_customer_orders": (
            "SELECT c_mktsegment, round(sum(o_totalprice), 2) AS total, count(*) AS n_rows "
            "FROM orders JOIN customer ON o_custkey = c_custkey GROUP BY c_mktsegment"
        ),
        "hash_join_orders_customer": (
            "SELECT o_orderkey, o_custkey, o_totalprice, c_custkey, c_mktsegment "
            "FROM orders JOIN customer ON o_custkey = c_custkey"
        ),
        "distinct_count_orders": "SELECT count(DISTINCT o_custkey) AS n FROM orders",
        "group_by_custkey_orders": (
            "SELECT o_custkey, round(sum(o_totalprice), 2) AS total, count(*) AS n "
            "FROM orders GROUP BY o_custkey"
        ),
        "skew_join_events": (
            "SELECT e.event_id, e.event_type, t.type_count FROM events e "
            "JOIN (SELECT event_type, count(*) AS type_count FROM events "
            "GROUP BY event_type) t ON e.event_type = t.event_type"
        ),
        "semi_join_customers": (
            "SELECT c_custkey, c_mktsegment FROM customer c WHERE EXISTS "
            "(SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey)"
        ),
        "anti_join_customers": (
            "SELECT c_custkey, c_mktsegment FROM customer c WHERE NOT EXISTS "
            "(SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey)"
        ),
        "grouped_topk_documents": (
            "SELECT lang, doc_id, n_chars FROM (SELECT lang, doc_id, n_chars, "
            "row_number() OVER (PARTITION BY lang ORDER BY n_chars DESC, doc_id) AS rn "
            "FROM documents) WHERE rn <= 3"
        ),
        "grouped_median_events": (
            "SELECT event_type, round(median(value), 4) AS med FROM events "
            "GROUP BY event_type"
        ),
        "grouped_median_skewed_events": (
            "SELECT event_type, round(median(value), 4) AS med FROM events "
            "GROUP BY event_type"
        ),
        "rank_in_lang_documents": (
            "SELECT lang, doc_id, n_chars, row_number() OVER "
            "(PARTITION BY lang ORDER BY n_chars DESC, doc_id) AS rn FROM documents"
        ),
        "ntile_documents": (
            "SELECT doc_id, round(percent_rank() OVER "
            "(PARTITION BY lang ORDER BY n_chars DESC, doc_id), 6) AS pct_rank, "
            "ntile(4) OVER (PARTITION BY lang ORDER BY n_chars DESC, doc_id) AS tile "
            "FROM documents"
        ),
        "rank_skewed_documents": (
            "SELECT doc_id, row_number() OVER "
            "(PARTITION BY lang ORDER BY n_chars DESC, doc_id) AS rn, "
            "round(percent_rank() OVER "
            "(PARTITION BY lang ORDER BY n_chars DESC, doc_id), 6) AS pct_rank, "
            "ntile(4) OVER (PARTITION BY lang ORDER BY n_chars DESC, doc_id) AS tile "
            "FROM documents"
        ),
        "zscore_events": (
            "SELECT event_id, event_type, round(value - avg(value) OVER "
            "(PARTITION BY event_type), 4) AS centered FROM events"
        ),
        "running_total_events": (
            "SELECT event_id, round(sum(value) OVER (PARTITION BY user_id "
            "ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING), 4) AS running "
            "FROM events"
        ),
        "running_total_skewed_events": (
            "SELECT event_id, round(sum(value) OVER (PARTITION BY event_type "
            "ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING), 4) AS running "
            "FROM events"
        ),
        "moving_avg_events": (
            "SELECT event_id, round(avg(value) OVER (PARTITION BY user_id "
            "ORDER BY ts, event_id ROWS BETWEEN 3 PRECEDING AND CURRENT ROW), 4) "
            "AS moving_avg FROM events"
        ),
        "lag_lead_events": (
            "SELECT event_id, "
            "lag(value, 1) OVER (PARTITION BY user_id ORDER BY ts, event_id) "
            "AS prev_value, "
            "lead(value, 1) OVER (PARTITION BY user_id ORDER BY ts, event_id) "
            "AS next_value FROM events"
        ),
        "moving_avg_skewed_events": (
            "SELECT event_id, round(avg(value) OVER (PARTITION BY event_type "
            "ORDER BY ts, event_id ROWS BETWEEN 3 PRECEDING AND CURRENT ROW), 4) "
            "AS moving_avg FROM events"
        ),
        "lag_lead_skewed_events": (
            "SELECT event_id, "
            "round(lag(value, 1) OVER (PARTITION BY event_type ORDER BY ts, event_id), 4) "
            "AS lag_v, "
            "round(lead(value, 1) OVER (PARTITION BY event_type ORDER BY ts, event_id), 4) "
            "AS lead_v FROM events"
        ),
        "regex_replace_documents": (
            "SELECT doc_id, regexp_replace(text, '[aeiou]+', '_', 'g') AS redacted "
            "FROM documents"
        ),
        "sessionize_events": (
            "WITH l AS (SELECT user_id, ts, lag(ts) OVER "
            "(PARTITION BY user_id ORDER BY ts) AS prev FROM events), "
            "m AS (SELECT user_id, ts, CASE WHEN prev IS NULL OR "
            "ts - prev > INTERVAL 30 MINUTES THEN 1 ELSE 0 END AS new_s FROM l), "
            "s AS (SELECT user_id, ts, sum(new_s) OVER (PARTITION BY user_id "
            "ORDER BY ts ROWS UNBOUNDED PRECEDING) AS sid FROM m) "
            "SELECT user_id, sid::BIGINT AS sid, count(*) AS n_events, "
            "min(ts) AS session_start FROM s GROUP BY user_id, sid"
        ),
        "sessionize_skewed_events": (
            "WITH l AS (SELECT event_type, ts, lag(ts) OVER "
            "(PARTITION BY event_type ORDER BY ts) AS prev FROM events), "
            "m AS (SELECT event_type, ts, CASE WHEN prev IS NULL OR "
            "ts - prev > INTERVAL 30 MINUTES THEN 1 ELSE 0 END AS new_s FROM l), "
            "s AS (SELECT event_type, ts, sum(new_s) OVER (PARTITION BY event_type "
            "ORDER BY ts ROWS UNBOUNDED PRECEDING) AS sid FROM m) "
            "SELECT event_type, sid::BIGINT AS sid, count(*) AS n_events, "
            "min(ts) AS session_start FROM s GROUP BY event_type, sid"
        ),
        "sliding_window_events": (
            "SELECT event_type, w, round(sum(value), 2) AS total, count(*) AS n "
            "FROM (SELECT event_type, (epoch_us(ts) // 3600000000)::BIGINT AS w, value "
            "FROM events UNION ALL SELECT event_type, "
            "(epoch_us(ts) // 3600000000)::BIGINT - 1 AS w, value FROM events) "
            "GROUP BY event_type, w"
        ),
        "asof_join_events": (
            "SELECT e.event_id, m.mts FROM events e ASOF JOIN "
            "(SELECT DISTINCT date_trunc('hour', ts) AS mts FROM events "
            "WHERE event_type = 'click') m ON e.ts >= m.mts"
        ),
        "filter_pushdown_orders": (
            "SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderkey < 1000"
        ),
        "filter_pushdown_multi_orders": (
            "SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderkey >= 500 "
            "AND o_orderkey < 5000 AND o_totalprice > 50000.0"
        ),
        "filter_pushdown_or_orders": (
            "SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderkey < 500 "
            "OR (o_orderkey >= 14000 AND o_totalprice > 100000.0)"
        ),
        "topk_sql_orders": (
            "SELECT o_orderkey, o_custkey, o_totalprice FROM orders "
            "WHERE o_orderstatus = 'O' "
            "ORDER BY o_totalprice DESC, o_orderkey LIMIT 25"
        ),
        "semijoin_sql_orders": (
            "SELECT o_orderkey, o_totalprice, c_mktsegment "
            "FROM orders JOIN customer ON o_custkey = c_custkey "
            "WHERE c_mktsegment = 'BUILDING' ORDER BY o_orderkey"
        ),
        "join_topk_sql_orders": (
            "SELECT o_orderkey, o_totalprice, c_mktsegment "
            "FROM orders JOIN customer ON o_custkey = c_custkey "
            "ORDER BY o_totalprice DESC, o_orderkey LIMIT 50"
        ),
        "having_sql_orders": (
            "SELECT o_orderstatus, count(*) AS n, max(o_orderkey) AS hi "
            "FROM orders GROUP BY o_orderstatus "
            "HAVING count(*) > 1000 ORDER BY o_orderstatus"
        ),
        "join_agg_sql_orders": (
            "SELECT c_mktsegment, count(*) AS n, round(sum(o_totalprice), 2) AS total "
            "FROM orders JOIN customer ON o_custkey = c_custkey "
            "GROUP BY c_mktsegment ORDER BY c_mktsegment"
        ),
        "host_stats_documents": (
            "SELECT lower(source || '.example.' || "
            "(CASE WHEN doc_id % 2 = 0 THEN 'com' ELSE 'org' END)) AS host, "
            "count(*) AS n_docs, sum(n_chars)::BIGINT AS total_chars "
            "FROM documents GROUP BY host ORDER BY host"
        ),
        "url_features_documents": (
            "WITH u AS (SELECT doc_id, CASE WHEN doc_id IS NULL THEN NULL "
            "WHEN doc_id % 17 = 0 THEN 'not a url' "
            "ELSE (CASE WHEN doc_id % 3 = 0 THEN 'http' ELSE 'https' END) || '://' "
            "|| source || '.example.' "
            "|| (CASE WHEN doc_id % 2 = 0 THEN 'com' ELSE 'org' END) || '/' || lang "
            "|| repeat('/p', (doc_id % 3)::INT) END AS url FROM documents), "
            "m AS (SELECT doc_id, url, "
            "coalesce(regexp_matches(url, '^https?://'), FALSE) AS ok, "
            "lower(regexp_extract(url, '^(https?)://([^/?#]+)([^?#]*)', 2)) AS h, "
            "regexp_extract(url, '^(https?)://([^/?#]+)([^?#]*)', 3) AS p, "
            "regexp_extract(url, '^(https?)://([^/?#]+)([^?#]*)', 1) AS s FROM u) "
            "SELECT doc_id, CASE WHEN ok THEN h END AS host, "
            "CASE WHEN ok THEN nullif(regexp_extract(h, '\\.([^.]+)$', 1), '') END AS tld, "
            "CASE WHEN ok THEN length(p) - length(replace(p, '/', '')) END AS path_depth, "
            "CASE WHEN ok THEN (s = 'https')::BIGINT END AS is_https FROM m"
        ),
        "stats_sql_orders": (
            "SELECT count(*) AS n_rows, count(o_custkey) AS n_cust, "
            "min(o_orderkey) AS min_key, max(o_orderkey) AS max_key, "
            "min(o_orderstatus) AS min_status, max(o_orderstatus) AS max_status, "
            "min(o_orderdate) AS min_date, max(o_orderdate) AS max_date "
            "FROM orders"
        ),
        "string_funcs_documents": (
            "SELECT doc_id, upper(substr(text, 1, 10)) AS head10 FROM documents"
        ),
        "window_agg_events": (
            "SELECT event_type, (epoch_us(ts) // 3600000000)::BIGINT AS w, "
            "round(sum(value), 2) AS total, count(*) AS n "
            "FROM events GROUP BY event_type, w"
        ),
        "dedup_exact_documents": "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text",
        "minhash_dedup_corpus": (
            "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text ORDER BY doc_id"
        ),
        "token_count_documents": (
            "SELECT doc_id, len(regexp_extract_all(text, '\\S+')) AS n_tokens FROM documents"
        ),
        "bpe_token_count_documents": (
            "SELECT doc_id, len(regexp_extract_all(text, "
            "$$'(?:[sdmt]|ll|ve|re)| ?[[:alpha:]]+| ?[[:digit:]]+"
            "| ?[^\\s[:alpha:][:digit:]]+|\\s+$$)) AS n_bpe_tokens FROM documents"
        ),
        "bpe_tokenize_documents": _BPE_FULL_SQL,
        "quality_documents": (
            "SELECT doc_id, length(text) AS n_chars_m, "
            "length(text) - length(replace(text, ' ', '')) AS n_spaces FROM documents"
        ),
        "bytes_meta_documents": "SELECT doc_id, strlen(text) AS payload_bytes FROM documents",
        "unnest_embeddings": (
            "SELECT vec_id, round(unnest(embedding)::DOUBLE, 5) AS v FROM embeddings"
        ),
        # all-cells IVF probe == exact top-k, so brute-force SQL is a
        # hard oracle for the full index machinery (see _ann_ivf)
        "ann_ivf_append_embeddings": (
            "SELECT vec_id, round(list_cosine_similarity(embedding, "
            "(SELECT embedding FROM embeddings WHERE vec_id = 0)), 4) AS cos_sim "
            "FROM embeddings "
            "ORDER BY list_cosine_similarity(embedding, "
            "(SELECT embedding FROM embeddings WHERE vec_id = 0)) DESC, vec_id LIMIT 10"
        ),
        "ann_ivf_embeddings": (
            "SELECT vec_id, round(list_cosine_similarity(embedding, "
            "(SELECT embedding FROM embeddings WHERE vec_id = 0)), 4) AS cos_sim "
            "FROM embeddings "
            "ORDER BY list_cosine_similarity(embedding, "
            "(SELECT embedding FROM embeddings WHERE vec_id = 0)) DESC, vec_id LIMIT 10"
        ),
        "embedding_decontam_embeddings": (
            # both sides round the max cosine to 4 decimals BEFORE the
            # threshold compare, so float64 (Ray) vs DuckDB double land
            # on the same side; the eval refs themselves hit 1.0 and drop
            "WITH ref AS (SELECT CAST(embedding AS DOUBLE[]) AS embedding "
            "FROM embeddings WHERE vec_id % 50 = 0), "
            "s AS (SELECT e.vec_id, "
            "round(max(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), "
            "r.embedding)), 4) "
            "AS max_ref_sim FROM embeddings e CROSS JOIN ref r GROUP BY e.vec_id) "
            "SELECT vec_id, max_ref_sim FROM s WHERE max_ref_sim < 0.2"
        ),
        "knn_embeddings": (
            "SELECT vec_id, round(list_cosine_similarity(embedding, "
            "(SELECT embedding FROM embeddings WHERE vec_id = 0)), 4) AS cos_sim "
            "FROM embeddings "
            "ORDER BY list_cosine_similarity(embedding, "
            "(SELECT embedding FROM embeddings WHERE vec_id = 0)) DESC, vec_id LIMIT 10"
        ),
    }
