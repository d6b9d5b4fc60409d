"""Property tests for the SQL pushdown planners (no Ray): for any
generated table/batching and any supported ORDER BY ... LIMIT shape,
simulating the partial/final pipeline over arbitrary batch splits must
equal DuckDB executing the original query over the whole table."""

from __future__ import annotations

import math

import duckdb
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from datafusion_orc_ray.sources import sqlagg

COLS = ["a", "b", "c"]


def _table(rows: list[tuple], ) -> pa.Table:
    return pa.table(
        {
            "a": pa.array([r[0] for r in rows], pa.int64()),
            "b": pa.array([r[1] for r in rows], pa.string()),
            "c": pa.array([r[2] for r in rows], pa.float64()),
        }
    )


row_st = st.tuples(
    st.one_of(st.none(), st.integers(-50, 50)),
    st.one_of(st.none(), st.text(alphabet="abxyz", max_size=3)),
    st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False,
                                   min_value=-1e6, max_value=1e6)),
)

order_item_st = st.tuples(
    st.sampled_from(COLS + ["a % 5", "1", "2"]),
    st.sampled_from(["", " ASC", " DESC", " DESC NULLS FIRST", " ASC NULLS LAST"]),
)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(row_st, min_size=0, max_size=120),
    n_batches=st.integers(1, 6),
    select_cols=st.lists(st.sampled_from(COLS), min_size=1, max_size=3, unique=True),
    order_items=st.lists(order_item_st, min_size=1, max_size=2),
    limit=st.integers(1, 25),
)
def test_topk_pushdown_equals_duckdb(rows, n_batches, select_cols, order_items, limit):
    t = _table(rows)
    # always add the unique-ish full column list as final tie-break so
    # result comparison is deterministic across plans
    ob = ", ".join(f"{e}{sfx}" for e, sfx in order_items)
    ob += (", " if ob else "") + "a NULLS LAST, b NULLS LAST, c NULLS LAST"
    q = f"SELECT {', '.join(select_cols)} FROM t ORDER BY {ob} LIMIT {limit}"
    plan = sqlagg.plan_topk_pushdown(q, "t", t.schema)
    # positional keys referencing a position beyond the select list veto
    if plan is None:
        # only legitimate veto in this generator: a positional order key
        # beyond the select list
        assert any(
            e in ("1", "2") and int(e) > len(select_cols) for e, _ in order_items
        ), q
        return

    step = max(1, (t.num_rows + n_batches - 1) // n_batches)
    batches = [t.slice(i, step) for i in range(0, max(t.num_rows, 1), step)]
    fn = sqlagg.run_partial(plan.partial_sql)
    parts = [fn(b) for b in batches if b.num_rows]
    assert all(x.schema == plan.partial_schema for x in parts), q
    con = duckdb.connect()
    try:
        if parts:
            partials = pa.concat_tables(parts)
        else:
            con.register("t", t.schema.empty_table())
            partials = con.sql(plan.partial_sql.replace("__batch", "t")).fetch_arrow_table()
        con.register("__partials", partials)
        got = con.sql(plan.final_sql).fetch_arrow_table()
        con.register("t", t)
        want = con.sql(q).fetch_arrow_table()
    finally:
        con.close()
    assert got.schema.names == want.schema.names
    g, w = got.to_pydict(), want.to_pydict()
    for col in g:
        for x, y in zip(g[col], w[col], strict=True):
            ok = (x == y) or (
                isinstance(x, float) and isinstance(y, float)
                and math.isnan(x) and math.isnan(y)
            )
            assert ok, (q, col, x, y)


join_agg_exprs = st.lists(
    st.sampled_from([
        "count(*) AS n",
        "sum(v) AS s",
        "min(v) AS lo",
        "max(v) AS hi",
        "round(avg(v), 3) AS m",
        "count(tag) AS nt",
    ]),
    min_size=1,
    max_size=3,
    unique=True,
)


@settings(max_examples=30, deadline=None)
@given(
    big_rows=st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(0, 30)),
            st.one_of(st.none(), st.integers(-100, 100)),
        ),
        min_size=0,
        max_size=150,
    ),
    small_n=st.integers(0, 25),
    n_batches=st.integers(1, 5),
    exprs=join_agg_exprs,
    grouped=st.booleans(),
    where=st.sampled_from(["", " WHERE v > 0", " WHERE tag <> 'g1'"]),
)
def test_join_aggregate_pushdown_equals_duckdb(
    big_rows, small_n, n_batches, exprs, grouped, where
):
    """Simulated worker pipeline (per-batch Acero join + DuckDB partial,
    then the final merge) must equal DuckDB running the original join
    query whole, for arbitrary batchings, null keys, unmatched keys and
    empty sides. v is integer-valued so partial-sum reassociation is
    exact."""
    big = pa.table(
        {
            "k": pa.array([r[0] for r in big_rows], pa.int64()),
            "v": pa.array(
                [None if r[1] is None else float(r[1]) for r in big_rows], pa.float64()
            ),
        }
    )
    small = pa.table(
        {
            "ck": pa.array(list(range(small_n)), pa.int64()),
            "tag": pa.array([f"g{i % 3}" for i in range(small_n)], pa.string()),
        }
    )
    schemas = {"big_t": big.schema, "small_t": small.schema}
    sel = ", ".join((["tag"] if grouped else []) + exprs)
    tail = " GROUP BY tag ORDER BY tag" if grouped else ""
    q = f"SELECT {sel} FROM big_t JOIN small_t ON k = ck{where}{tail}"
    plan = sqlagg.plan_join_aggregate(q, schemas)
    assert plan is not None, q

    step = max(1, (big.num_rows + n_batches - 1) // n_batches)
    batches = [big.slice(i, step) for i in range(0, max(big.num_rows, 1), step)]
    fn = sqlagg.run_partial(plan.agg.partial_sql)
    parts = []
    for b in batches:
        j = b.join(small, keys=["k"], right_keys=["ck"], join_type="inner",
                   coalesce_keys=False)
        parts.append(fn(j))
    assert all(x.schema == plan.agg.partial_schema for x in parts), q
    con = duckdb.connect()
    try:
        if parts:
            partials = pa.concat_tables(parts, promote_options="permissive")
        else:
            empty = big.schema.empty_table().join(
                small, keys=["k"], right_keys=["ck"], join_type="inner",
                coalesce_keys=False)
            con.register("__j", empty)
            partials = con.sql(plan.agg.partial_sql.replace("__batch", "__j")).fetch_arrow_table()
        con.register("__partials", partials)
        got = con.sql(plan.agg.final_sql).fetch_arrow_table()
        con.register("big_t", big)
        con.register("small_t", small)
        want = con.sql(q).fetch_arrow_table()
    finally:
        con.close()
    assert got.schema.names == want.schema.names
    g, w = got.to_pydict(), want.to_pydict()
    assert {k: list(v) for k, v in g.items()} == {k: list(v) for k, v in w.items()}, q
