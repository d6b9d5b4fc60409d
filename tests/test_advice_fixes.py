"""Regression tests for the round-1 ADVICE findings: string-stat
truncation pruning, temporal-predicate pruning, decimal width gating,
and schema-evolution / misspelled-column handling on projected decode."""

import datetime

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from datafusion_orc_ray import stripe as stripe_mod
from datafusion_orc_ray.pipelines import encode as ep
from datafusion_orc_ray.pipelines.relational import collect, manifest_column_stats
from datafusion_orc_ray.sources.stripes import _stats_may_match, read_stripes
from datafusion_orc_ray.state import manifest as man
import ray.data

from datafusion_orc_ray.pipelines import relational as rel
from datafusion_orc_ray.pipelines import windows as w


def _encode_one_table(tbl: pa.Table, base: str) -> str:
    pq.write_table(tbl, f"{base}/in.parquet")
    out = f"{base}/enc"
    ep.encode_parquet(f"{base}/in.parquet", out, concurrency=1).take_all()
    return out


def test_long_string_max_not_prefix_truncated(ray_session, tmp_path):
    """A 60-char max must never be pruned by a >48-char predicate: the
    stored upper bound is prefix+increment (or absent), not a plain
    prefix (ADVICE r1 high)."""
    tbl = pa.table({"s": pa.array(["a" * 60, "m" * 10, "z" * 60]), "i": pa.array([1, 2, 3])})
    out = _encode_one_table(tbl, str(tmp_path))
    entries = man.load_manifest(out)
    assert len(entries) == 1
    for pred in [("s", ">", "z" * 50), ("s", "==", "z" * 60), ("s", ">=", "z" * 60)]:
        assert _stats_may_match(entries[0], pred), pred
        got = collect(read_stripes(out, columns=["s", "i"], predicate=pred))
        assert "z" * 60 in got.column("s").to_pylist(), pred
    # lower bound: a long min must not break < predicates either
    assert _stats_may_match(entries[0], ("s", "<", "a" * 70))
    got = collect(read_stripes(out, columns=["s"], predicate=("s", "<", "b")))
    assert got.column("s").to_pylist() == ["a" * 60]


def test_short_string_stats_exact_and_pruning_works(ray_session, tmp_path):
    tbl = pa.table({"s": pa.array(["apple", "pear"]), "i": pa.array([1, 2])})
    out = _encode_one_table(tbl, str(tmp_path))
    e = man.load_manifest(out)[0]
    st = manifest_column_stats(out, "s")
    assert st.column("col_min")[0].as_py() == "apple"
    assert st.column("col_max")[0].as_py() == "pear"
    assert not _stats_may_match(e, ("s", ">", "zebra"))  # genuinely prunable
    assert _stats_may_match(e, ("s", "==", "pear"))


def test_temporal_predicate_prunes_without_crash(ray_session, tmp_path):
    """Datetime predicate values vs footer stats: stats are epoch ints
    now, so this neither raises TypeError nor mis-prunes (ADVICE r1
    medium)."""
    ts = [datetime.datetime(2024, 1, 1) + datetime.timedelta(hours=h) for h in range(100)]
    tbl = pa.table({"ts": pa.array(ts, pa.timestamp("us")), "v": pa.array(range(100), pa.int64())})
    pq.write_table(tbl, f"{tmp_path}/in.parquet", row_group_size=25)
    out = f"{tmp_path}/enc"
    ep.encode_parquet(f"{tmp_path}/in.parquet", out, concurrency=1).take_all()
    entries = man.load_manifest(out)
    assert len(entries) == 4
    cut = datetime.datetime(2024, 1, 2, 2)  # hour 26 -> keep stripes 2..4
    pred = ("ts", ">=", cut)
    kept = [e for e in entries if _stats_may_match(e, pred)]
    assert len(kept) == 3
    got = collect(read_stripes(out, columns=["ts", "v"], predicate=pred))
    assert got.num_rows == 100 - 26
    assert min(got.column("ts").to_pylist()) == cut
    # date32 column too
    d = pa.table({"d": pa.array([datetime.date(2024, 1, 1 + i) for i in range(9)]), "v": pa.array(range(9))})
    (tmp_path / "d2").mkdir()
    out2 = _encode_one_table(d, str(tmp_path / "d2"))
    e2 = man.load_manifest(out2)[0]
    assert _stats_may_match(e2, ("d", "==", datetime.date(2024, 1, 5)))
    assert not _stats_may_match(e2, ("d", ">", datetime.date(2024, 2, 1)))


def test_decimal256_narrow_fallback_and_wide_limb_split():
    """decimal256 values that fit 128 bits (VERDICT r2 missing #3) and
    values that need more (VERDICT r3 missing #1) round-trip through
    the 4-limb split — including negatives (sign extension across
    limbs), nulls, extremes, scale > 38, and slices."""
    from decimal import Decimal

    arr = pa.array([1, None, 3]).cast(pa.decimal256(50, 2))
    tbl = pa.table({"d": arr})
    out = stripe_mod.decode_table(stripe_mod.encode_table(tbl))
    assert out.equals(tbl)  # type AND values identical
    wide = pa.array(
        [
            Decimal("9" * 45),
            None,
            Decimal("-" + "9" * 74 + "." + "99"),
            Decimal("0.01"),
            -Decimal("12345678901234567890123456789012345678901234567890.55"),
        ],
        pa.decimal256(76, 2),
    )
    t2 = pa.table({"d": wide})
    assert stripe_mod.decode_table(stripe_mod.encode_table(t2)).equals(t2)
    # scale > 38 (cast fallback statically impossible)
    deep = pa.array([Decimal("0." + "9" * 45), None], pa.decimal256(76, 45))
    t3 = pa.table({"d": deep})
    assert stripe_mod.decode_table(stripe_mod.encode_table(t3)).equals(t3)
    # sliced offset through chunked encode (buffer-offset arithmetic)
    t4 = pa.table({"d": wide.slice(1, 3)})
    assert stripe_mod.decode_table(stripe_mod.encode_table(t4)).equals(t4)


def test_decimal128_still_roundtrips():
    from decimal import Decimal

    arr = pa.array([Decimal("12.34"), None, Decimal("-999.99")], pa.decimal128(20, 2))
    tbl = pa.table({"d": arr})
    assert stripe_mod.decode_table(stripe_mod.encode_table(tbl)).equals(tbl)


def test_misspelled_column_raises():
    tbl = pa.table({"a": pa.array([1, 2, 3], pa.int64())})
    blob = stripe_mod.encode_table(tbl)
    with pytest.raises(KeyError, match="not in stripe footer"):
        stripe_mod.decode_table(blob, columns=["a_typo"])


def test_schema_evolution_null_fills(ray_session, tmp_path):
    """Two stripes with different column sets in one directory: reads see
    ONE consistent unified schema, missing columns null-filled."""
    from datafusion_orc_ray.stages.encode import StripeEncoder

    out = str(tmp_path / "enc")
    enc = StripeEncoder(out)
    enc.encode_one(pa.table({"a": pa.array([1, 2], pa.int64())}), stripe_id="s1")
    enc.encode_one(
        pa.table({"a": pa.array([3], pa.int64()), "b": pa.array(["x"])}), stripe_id="s2"
    )
    got = collect(read_stripes(out)).sort_by("a")
    assert got.column_names == ["a", "b"]
    assert got.column("a").to_pylist() == [1, 2, 3]
    assert got.column("b").to_pylist()[:2] == [None, None]
    # projected read including the evolved column is consistent too
    proj = collect(read_stripes(out, columns=["b"]))
    assert proj.column_names == ["b"] and proj.num_rows == 3


def test_decoder_slices_large_stripes(ray_session, tmp_path):
    """One oversized stripe yields bounded blocks downstream (sub-stripe
    batching, reference src/file_source.rs:45)."""
    from datafusion_orc_ray.stages.decode import make_stripe_decoder

    out = str(tmp_path / "enc")
    from datafusion_orc_ray.stages.encode import StripeEncoder

    enc = StripeEncoder(out)
    big = pa.table({"x": pa.array(range(100_000), pa.int64())})
    entry = enc.encode_one(big, stripe_id="big")
    dec = make_stripe_decoder(rows_per_block=8192)
    blocks = list(dec(pa.table({"path": [entry["path"]]})))
    assert len(blocks) == 13  # ceil(100k / 8192)
    assert max(b.num_rows for b in blocks) <= 8192
    assert pa.concat_tables(blocks).equals(big)


def test_stripe_io_via_file_uri(ray_session, tmp_path):
    """Object-store-ready IO: the whole encode/decode/manifest path works
    when the stripe dir is addressed as a pyarrow.fs URI (LocalFileSystem
    here; same code path serves s3://)."""
    from datafusion_orc_ray.pipelines import encode as ep

    tbl = pa.table({"a": pa.array(range(500), pa.int64()), "s": pa.array([f"v{i%7}" for i in range(500)])})
    pq.write_table(tbl, f"{tmp_path}/in.parquet", row_group_size=125)
    out_uri = f"file://{tmp_path}/enc"
    ep.encode_parquet(f"{tmp_path}/in.parquet", out_uri, concurrency=1).take_all()
    assert len(man.completed_ids(out_uri)) == 4
    # resume: second run skips everything
    assert ep.encode_parquet(f"{tmp_path}/in.parquet", out_uri, concurrency=1).count() == 0
    got = collect(read_stripes(out_uri, columns=["a"])).sort_by("a")
    assert got.column("a").to_pylist() == list(range(500))
    # projected + predicate path over the URI too
    pred = collect(read_stripes(out_uri, columns=["a", "s"], predicate=("a", "<", 10)))
    assert pred.num_rows == 10


# ---- round-2 ADVICE regressions ----


def test_running_total_negative_values(ray_session):
    """Negative values: a later segment's base can be LOWER than an
    earlier one; max-accumulate forward fill corrupted it (ADVICE r2
    high)."""
    import ray.data

    from datafusion_orc_ray.pipelines import windows as w

    _t = datetime.datetime(2026, 1, 1)
    t = pa.table(
        {
            "u": pa.array([1, 2], pa.int64()),
            "ts": pa.array([_t, _t], pa.timestamp("us")),
            "v": pa.array([-5.0, 3.0]),
            "id": pa.array([1, 2], pa.int64()),
        }
    )
    out = collect(
        w.running_total(ray.data.from_arrow(t), "u", "ts", "v", tiebreak="id", n_buckets=1)
    ).sort_by("id")
    assert out.column("running").to_pylist() == [-5.0, 3.0]
    # longer mixed-sign sequence, one key after a lower-base key
    t2 = pa.table(
        {
            "u": pa.array([1, 1, 2, 2, 3], pa.int64()),
            "ts": pa.array([_t] * 5, pa.timestamp("us")),
            "v": pa.array([-10.0, 4.0, 1.0, -2.0, 7.0]),
            "id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        }
    )
    out2 = collect(
        w.running_total(ray.data.from_arrow(t2), "u", "ts", "v", tiebreak="id", n_buckets=1)
    ).sort_by("id")
    assert out2.column("running").to_pylist() == [-10.0, -6.0, 1.0, -1.0, 7.0]


def test_group_mean_center_null_values(ray_session):
    """NULL values must not inflate the avg divisor (ADVICE r2 medium):
    avg([1, 3, NULL]) is 2, not 4/3."""
    import ray.data

    from datafusion_orc_ray.pipelines import relational as rel

    t = pa.table(
        {
            "g": pa.array(["a", "a", "a", "b"]),
            "v": pa.array([1.0, 3.0, None, 5.0]),
        }
    )
    out = collect(rel.group_mean_center(ray.data.from_arrow(t), ["g"], "v")).sort_by(
        [("g", "ascending"), ("v", "ascending")]
    )
    cent = out.column("centered").to_pylist()
    assert cent[0] == -1.0 and cent[1] == 1.0  # 1-2, 3-2
    assert cent[2] is None  # NULL value stays NULL
    assert cent[3] == 0.0  # 5 - 5


def test_sliding_window_invalid_slide_raises(ray_session):
    import ray.data

    from datafusion_orc_ray.pipelines import windows as w

    t = pa.table(
        {
            "ts": pa.array([datetime.datetime(2026, 1, 1)], pa.timestamp("us")),
            "k": pa.array(["x"]),
            "v": pa.array([1.0]),
        }
    )
    ds = ray.data.from_arrow(t)
    with pytest.raises(ValueError, match="divide"):
        w.sliding_window_agg(ds, "ts", "k", "v", window_us=10, slide_us=3)
    with pytest.raises(ValueError, match="divide"):
        w.sliding_window_agg(ds, "ts", "k", "v", window_us=10, slide_us=20)


def test_asof_join_unit_mismatch_raises(ray_session):
    import ray.data

    from datafusion_orc_ray.pipelines import windows as w

    _t = datetime.datetime(2026, 1, 1)
    left = pa.table({"ts": pa.array([_t], pa.timestamp("us"))})
    right_ms = pa.table(
        {"mts": pa.array([_t], pa.timestamp("ms")), "mark": pa.array(["a"])}
    )
    with pytest.raises(TypeError, match="mismatch"):
        w.asof_join_broadcast(ray.data.from_arrow(left), right_ms, "ts", "mts")
    # float left key against int right must also be rejected
    leftf = pa.table({"k": pa.array([1.5])})
    righti = pa.table({"k2": pa.array([1], pa.int64()), "m": pa.array(["a"])})
    with pytest.raises(TypeError, match="integer"):
        w.asof_join_broadcast(ray.data.from_arrow(leftf), righti, "k", "k2")


def test_write_bytes_atomic_local_fsync(tmp_path):
    """Local writes go through the os-level temp+fsync+rename path; no
    temp droppings remain and overwrites are atomic replacements."""
    import os

    from datafusion_orc_ray import io as dio

    p = str(tmp_path / "m.json")
    dio.write_bytes_atomic(p, b"one")
    assert open(p, "rb").read() == b"one"
    dio.write_bytes_atomic(p, b"two")
    assert open(p, "rb").read() == b"two"
    assert [f for f in os.listdir(tmp_path) if ".tmp-" in f] == []
    # file:// URI flavor hits the same local path
    dio.write_bytes_atomic(f"file://{tmp_path}/m2.json", b"three")
    assert open(str(tmp_path / "m2.json"), "rb").read() == b"three"


def test_datasource_splits_oversized_stripe(ray_session, tmp_path):
    """A batch over target_stripe_bytes is written as >=8 stripes and
    decodes in one ReadTask per piece (VERDICT r2 missing #1 / reference
    byte-range splitting, src/physical_exec.rs:79-82). Uses a scaled-down
    target; the mechanism is size-relative."""
    import ray.data

    from datafusion_orc_ray.sources.datasource import StripeDatasource
    from datafusion_orc_ray.stages.encode import StripeEncoder

    n = 40000
    t = pa.table(
        {
            "a": pa.array(range(n), pa.int64()),
            "s": pa.array([f"text-{i%997}-{'y'*(i%23)}" for i in range(n)]),
        }
    )
    out = str(tmp_path / "enc")
    entries = StripeEncoder(out, target_stripe_bytes=t.nbytes // 8).encode_split(t)
    assert len(entries) >= 8
    src = StripeDatasource(out)
    tasks = src.get_read_tasks(parallelism=8)
    assert [task.metadata.input_files for task in tasks] == [[e["path"]] for e in entries]
    got = ray.data.read_datasource(src).take_all()
    got_t = pa.Table.from_pylist(got).sort_by("a")
    assert got_t.column("a").to_pylist() == list(range(n))
    # projected read too
    src2 = StripeDatasource(out, columns=["a"])
    got2 = pa.Table.from_pylist(ray.data.read_datasource(src2).take_all())
    assert got2.column_names == ["a"] and got2.num_rows == n


# ---------------- round-3 final-session review fixes (self-review)


def test_asof_null_left_key_drops(ray_session):
    """A NULL left key must never match (SQL): pre-fix it joined to the
    GREATEST right row via NaN searchsorted."""
    left = pa.table(
        {
            "event_id": pa.array([1, 2, 3], pa.int64()),
            "k": pa.array([15, None, 25], pa.int64()),
        }
    )
    right = pa.table(
        {"rk": pa.array([10, 20], pa.int64()), "mark": pa.array([100, 200], pa.int64())}
    )
    out = rel.collect(
        w.asof_join_broadcast(ray.data.from_arrow(left), right, "k", "rk")
    ).sort_by("event_id")
    assert out.column("event_id").to_pylist() == [1, 3]
    assert out.column("mark").to_pylist() == [100, 200]


def test_asof_and_range_reject_clashing_columns(ray_session):
    left = pa.table({"k": pa.array([1], pa.int64()), "mark": pa.array([0], pa.int64())})
    right = pa.table({"rk": pa.array([1], pa.int64()), "mark": pa.array([9], pa.int64())})
    with pytest.raises(ValueError, match="ambiguous"):
        w.asof_join_broadcast(ray.data.from_arrow(left), right, "k", "rk")
    tiers = pa.table(
        {"lo": pa.array([0], pa.int64()), "hi": pa.array([10], pa.int64()),
         "mark": pa.array([7], pa.int64())}
    )
    with pytest.raises(ValueError, match="ambiguous"):
        w.range_join_broadcast(ray.data.from_arrow(left), tiers, "k", "lo", "hi")


def test_range_join_int64_exact_above_2_53(ray_session):
    """Integer edges/keys beyond 2^53 must not round through float64."""
    base = 1 << 60
    tiers = pa.table(
        {
            "tier_id": pa.array([0, 1], pa.int64()),
            "lo": pa.array([base, base + 2], pa.int64()),
            "hi": pa.array([base + 2, base + 4], pa.int64()),
        }
    )
    left = pa.table(
        {"k": pa.array([base, base + 1, base + 2, base + 3, base + 4], pa.int64())}
    )
    out = rel.collect(
        w.range_join_broadcast(ray.data.from_arrow(left), tiers, "k", "lo", "hi")
    ).sort_by("k")
    # float64 rounds all five keys to the same value; exact int64 keeps
    # the half-open boundaries: base+4 is outside every interval
    assert out.column("k").to_pylist() == [base, base + 1, base + 2, base + 3]
    assert out.column("tier_id").to_pylist() == [0, 0, 1, 1]


def test_running_total_null_values_sql_semantics(ray_session):
    """SUM() OVER ignores NULL values; pre-fix one NULL poisoned every
    later row (and every later KEY) in the bucket with NaN."""
    tbl = pa.table(
        {
            "u": pa.array([1, 1, 1, 2], pa.int64()),
            "ts": pa.array([1, 2, 3, 1], pa.int64()),
            "v": pa.array([1.0, None, 2.0, 5.0]),
        }
    )
    out = rel.collect(
        w.running_total(ray.data.from_arrow(tbl).repartition(2), "u", "ts", "v")
    ).sort_by([("u", "ascending"), ("ts", "ascending")])
    assert out.column("running").to_pylist() == [1.0, 1.0, 3.0, 5.0]
    # a key whose window frame has seen ONLY nulls so far is NULL, not 0
    tbl2 = pa.table(
        {
            "u": pa.array([1, 1], pa.int64()),
            "ts": pa.array([1, 2], pa.int64()),
            "v": pa.array([None, 4.0]),
        }
    )
    out2 = rel.collect(
        w.running_total(ray.data.from_arrow(tbl2), "u", "ts", "v")
    ).sort_by("ts")
    assert out2.column("running").to_pylist() == [None, 4.0]


def test_pivot_null_keys(ray_session):
    """NULL row_key is a GROUP BY group (pre-fix: IndexError); NULL
    col_key groups are dropped (the SQL FILTER mirror never matches)."""
    tbl = pa.table(
        {
            "r": pa.array(["a", None, "a", None], pa.string()),
            "c": pa.array(["x", "x", None, "y"], pa.string()),
            "v": pa.array([1.0, 2.0, 3.0, 4.0]),
        }
    )
    out = rel.pivot_agg(ray.data.from_arrow(tbl), "r", "c", ("sum", "v"))
    rows = {r["r"]: r for r in out.to_pylist()}
    assert rows["a"]["x"] == 1.0 and rows[None]["x"] == 2.0
    assert rows[None]["y"] == 4.0 and rows["a"]["y"] == 0.0


def test_emb_to_bin_rejects_nulls_and_ragged(ray_session):
    from datafusion_orc_ray.pipelines.similarity import _emb_to_bin

    with pytest.raises(ValueError, match="null embeddings"):
        _emb_to_bin(pa.array([[1.0, 2.0], None], pa.list_(pa.float32())))
    with pytest.raises(ValueError, match="ragged"):
        _emb_to_bin(pa.array([[1.0, 2.0], [1.0, 2.0, 3.0]], pa.list_(pa.float32())))


def test_json_extract_nested_and_escaped_fall_back(ray_session):
    from datafusion_orc_ray.pipelines.jsonx import extract_json_field

    tbl = pa.table(
        {
            "doc_id": pa.array(range(4), pa.int64()),
            "props": [
                '{"a": {"k": 1}, "k": 2}',   # nested same-named key
                '{"outer": {"k": 1}}',        # key ONLY nested -> NULL
                '{"msg": "a \\"k\\": 7 b", "k": 3}',  # escaped-quote trap
                '{"k": 9}',                   # flat fast path
            ],
        }
    )
    out = rel.collect(
        extract_json_field(ray.data.from_arrow(tbl), "props", "k", kind="number")
    ).sort_by("doc_id")
    assert out.column("k").to_pylist() == [2.0, None, 3.0, 9.0]


def test_sampling_coins_decorrelated():
    """stratified keep and mixture extra-replica must be independent
    decisions: with ONE shared coin, P(extra | kept) was exactly 1."""
    import numpy as np

    from datafusion_orc_ray.pipelines.corpus import (
        _KNUTH,
        _MOD,
        _MULT_MIXTURE,
        _MULT_NPG,
        _knuth_coin,
    )

    assert len({_KNUTH, _MULT_MIXTURE, _MULT_NPG}) == 3
    ids = np.arange(100_000, dtype=np.uint64)
    keep = _knuth_coin(ids) < np.uint64(int(0.5 * _MOD))
    extra = _knuth_coin(ids, mult=_MULT_MIXTURE) < np.uint64(int(0.5 * _MOD))
    p_joint = float((keep & extra).mean())
    assert abs(p_joint - 0.25) < 0.02  # ~independent, not 0.5 or 0.0


def test_hll_vocab_null_lang(ray_session):
    from datafusion_orc_ray.pipelines.corpus import hll_vocab_per_lang

    tbl = pa.table(
        {
            "lang": pa.array(["en", None, "en"], pa.string()),
            "text": ["a b", "c d e", "b f"],
        }
    )
    out = hll_vocab_per_lang(ray.data.from_arrow(tbl).repartition(2))
    got = {r["lang"]: r["n_approx"] for r in out.to_pylist()}
    assert got["en"] == 3 and got[None] == 3  # HLL exact at tiny n


def test_boilerplate_null_passthrough(ray_session):
    from datafusion_orc_ray.pipelines.corpus import remove_boilerplate_lines

    texts = [f"unique{i}\nhot line" for i in range(6)] + [None]
    tbl = pa.table(
        {"doc_id": pa.array(range(7), pa.int64()), "text": texts}
    )
    out = collect(
        remove_boilerplate_lines(
            ray.data.from_arrow(tbl).repartition(2), min_docs=5
        )
    ).sort_by("doc_id")
    rows = {r["doc_id"]: r["text"] for r in out.to_pylist()}
    assert rows[0] == "unique0"  # hot line stripped
    assert rows[6] is None  # NULL doc survives with NULL, not "" / dropped


def test_exact_dedup_null_vs_empty(ray_session):
    """SQL GROUP BY text: all NULLs one group, '' another — they must
    not conflate (pre-fix both hashed as '')."""
    from datafusion_orc_ray.pipelines.dedup import exact_dedup_ids

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": [None, "", None, ""],
        }
    )
    out = collect(
        exact_dedup_ids(ray.data.from_arrow(tbl).repartition(2))
    )
    assert sorted(out.column("doc_id").to_pylist()) == [1, 2]


def test_token_strings_large_string():
    from datafusion_orc_ray.pipelines import tokhash as tk

    flat, offs = tk.token_strings(pa.array(["a b c", "d e"], pa.large_string()))
    assert flat.to_pylist() == ["a", "b", "c", "d", "e"]
    assert list(offs) == [0, 3, 5]


def test_verify_pairs_missing_doc_consistent(ray_session):
    """A candidate pair referencing an id with no shingle row (absent
    or null text) drops on BOTH the driver and distributed paths
    (driver path used LEFT OUTER joins and crashed pre-fix)."""
    from datafusion_orc_ray.pipelines.dedup import verify_pairs_jaccard

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": ["a b c d", "a b c d", None],
        }
    )
    pairs = pa.table(
        {
            "doc_id_a": pa.array([1, 1, 99], pa.int64()),
            "doc_id_b": pa.array([2, 3, 2], pa.int64()),
        }
    )
    out = verify_pairs_jaccard(
        ray.data.from_arrow(docs), pairs, threshold=0.5, shingle=2
    )
    assert out.to_pylist() == [{"doc_id_a": 1, "doc_id_b": 2, "jaccard": 1.0}]


# ---------------- core-stack review fixes (third self-review pass)


def test_encode_table_wide_rows_many_chunks():
    """pieces > sqrt(n_rows): the ceil stride overshoots n_rows, which
    once gave a negative final slice length (ValueError); rows wider
    than half the target still give slices within it."""
    from datafusion_orc_ray.stages.encode import row_slices

    rows = [b"x" * 1_000_000 for _ in range(7)]
    t = pa.table(
        {"b": pa.array(rows, pa.binary()), "i": pa.array(range(7), pa.int64())}
    )
    pieces = row_slices(t, 1_400_000)
    assert [p.num_rows for p in pieces] == [1] * 7
    assert all(p.nbytes <= 1_400_000 for p in pieces)
    out = pa.concat_tables(stripe_mod.decode_table(stripe_mod.encode_table(p)) for p in pieces)
    assert out.equals(t)
    # a sliced dictionary array counts its whole dictionary in nbytes: a
    # 3 MB dictionary must not cut a 6,000-row batch into single rows
    values = pa.array([f"{i:04d}" * 250 for i in range(3000)])
    d = pa.DictionaryArray.from_arrays(pa.array([i % 3000 for i in range(6000)], pa.int32()), values)
    pieces = row_slices(pa.table({"d": d}), 1 << 20)
    assert 6 <= len(pieces) <= 8 and all(p.nbytes <= 1 << 20 for p in pieces)
    assert pa.concat_tables(pieces).column("d").to_pylist() == d.to_pylist()


def test_sql_pushdown_not_below_aggregate(ray_session, tmp_path):
    """WHERE above an aggregate in a derived table must NOT push below
    the aggregation (pre-fix: sum over pre-filtered rows, wrong value)."""
    import ray.data as rdata

    from datafusion_orc_ray.sources.stripes import Catalog

    out = str(tmp_path / "t")
    ep.encode_dataset(
        rdata.from_arrow(pa.table({"x": pa.array([1, 10], pa.int64())})), out
    ).materialize()
    cat = Catalog()
    cat.register_stripes("t", out)
    got = cat.sql("SELECT * FROM (SELECT sum(x) AS x FROM t) WHERE x > 5")
    assert [int(v) for v in got.column("x").to_pylist()] == [11]
    # plain single-select pushdown still prunes and answers correctly
    got2 = cat.sql("SELECT x FROM t WHERE x > 5")
    assert got2.column("x").to_pylist() == [10]


def test_dict_columns_have_no_lengths_stream():
    """Dict decode recomputes lengths from the gathered dictionary, so
    persisting a LENGTHS stream wasted bytes + a decode pass."""
    import json as _json

    t = pa.table({"lang": pa.array(["en", "de", "en", "de", "en"] * 100, pa.string())})
    blob = stripe_mod.encode_table(t)
    foot = stripe_mod.read_footer(blob)
    col = foot["columns"][0]
    assert col["enc"] == "dict"
    assert "lengths" not in col["streams"]
    assert stripe_mod.decode_table(blob).equals(t)


def test_resume_skips_reencode(ray_session, tmp_path):
    """A durable fragment-addressed stripe short-circuits BEFORE the
    encode on resume (write_stripe only discarded the result after)."""
    from datafusion_orc_ray.stages.encode import StripeEncoder

    out = str(tmp_path / "s")
    enc = StripeEncoder.__new__(StripeEncoder)
    enc.out_dir = out
    enc.outer_codec = stripe_mod.outer.ZSTD if hasattr(stripe_mod, "outer") else 1
    enc.lineage = ""
    enc.state = stripe_mod.EncoderState()
    man.ensure_dirs(out)
    t = pa.table({"x": pa.array(range(100), pa.int64())})
    first = enc.encode_one(t, stripe_id="frag0")
    calls = {"n": 0}
    real = stripe_mod.encode_table

    def counting(*a, **k):
        calls["n"] += 1
        return real(*a, **k)

    stripe_mod.encode_table = counting
    try:
        again = enc.encode_one(t, stripe_id="frag0")
    finally:
        stripe_mod.encode_table = real
    assert calls["n"] == 0 and again == first


def test_validate_blob_reports_n_rows():
    t = pa.table({"x": pa.array(range(7), pa.int64())})
    r = stripe_mod.validate_blob(stripe_mod.encode_table(t))
    assert r["ok"] and r["n_rows"] == 7


def test_bloom_unnormalizable_probe_is_conservative():
    """contains_many on a probe type _normalize rejects must say 'maybe
    present' for every valid value — all-False would silently drop every
    row of a bloom-prefiltered join."""
    import numpy as np

    from datafusion_orc_ray.codecs import bloom

    keys = pa.array([1, 2, 3], pa.int64())
    m = bloom.bits_for(3)
    bits = bloom.build_bits(keys, m)
    probe = pa.array([1, 2, None, 3], pa.uint64())  # uint64: unnormalizable
    mask = bloom.contains_many(bits, m, probe)
    assert mask.tolist() == [True, True, False, True]  # null stays False


def test_kmeans_empty_input_raises(ray_session):
    import ray.data as rdata

    from datafusion_orc_ray.pipelines.clustering import kmeans_fit

    empty = rdata.from_arrow(
        pa.table(
            {
                "vec_id": pa.array([], pa.int64()),
                "embedding": pa.array([], pa.list_(pa.float32())),
            }
        )
    )
    with pytest.raises(ValueError, match="empty"):
        kmeans_fit(empty, k=3)


def test_empty_orc_file_reads_as_empty_dataset(ray_session, tmp_path):
    pa_orc = pytest.importorskip("pyarrow.orc")
    import ray.data  # noqa: F401

    from datafusion_orc_ray.sources.orc import read_orc

    p = str(tmp_path / "empty.orc")
    pa_orc.write_table(
        pa.table({"x": pa.array([], pa.int64()), "s": pa.array([], pa.string())}), p
    )
    ds = read_orc(p)
    assert ds.count() == 0
    sch = ds.schema()
    assert getattr(sch, "base_schema", sch).names == ["x", "s"]


def test_outer_incompressible_snappy_stored_raw():
    import os as _os

    from datafusion_orc_ray.codecs import outer

    data = _os.urandom(100_000)
    out = outer.compress_auto(data, outer.SNAPPY)
    total = b"".join(bytes(p) for p in out)
    assert total[0] == outer.NONE  # stored raw, not snappy-expanded
    assert outer.decompress(total) == data


def test_datasource_rejects_bad_predicate_op(ray_session, tmp_path):
    import ray.data as rdata

    out = str(tmp_path / "t")
    ep.encode_dataset(
        rdata.from_arrow(pa.table({"x": pa.array([1, 2], pa.int64())})), out
    ).materialize()
    from datafusion_orc_ray.sources.stripes import read_stripes

    with pytest.raises(ValueError, match="unsupported predicate op"):
        read_stripes(out, predicate=("x", "=", 1))


def test_read_parquet_clean_strips_pandas_metadata(ray_session, tmp_path):
    """VERDICT r4 #9: pandas-written parquet carries a b'pandas' metadata
    dict that makes hash(pa.Schema) raise inside every downstream ray.data
    stage ('Failed to hash the schemas' warning per block, schema-dedup
    fast path lost). read_parquet_clean pins a metadata-stripped schema at
    the read so blocks are hashable everywhere, including read workers."""
    import pandas as pd

    from datafusion_orc_ray.util import read_parquet_clean

    path = str(tmp_path / "pandas.parquet")
    pd.DataFrame({"a": [1, 2, 3], "b": ["x", "y", "z"]}).to_parquet(path)
    assert pq.read_schema(path).metadata  # precondition: pandas metadata present

    ds = read_parquet_clean(path)
    assert ds.schema().base_schema.metadata is None
    hash(ds.schema().base_schema)  # must not raise
    assert ds.count() == 3

    proj = read_parquet_clean(path, columns=["b"])
    assert proj.schema().base_schema.names == ["b"]
    assert proj.take_all() == [{"b": "x"}, {"b": "y"}, {"b": "z"}]


def test_hash_join_byte_cap_streams_not_collects(ray_session):
    """r5 review finding #2: a row-gate-passing but byte-huge right side
    (unknown post-transform estimate) must flip to the bucket path via
    a STREAMED running byte cap — never a full driver collect. The cap
    is set below the right side's bytes so the abort branch runs; the
    join result must still be exact."""
    import ray.data as rdata

    import datafusion_orc_ray.pipelines.relational as rel

    left = rdata.from_arrow(
        pa.table({"k": pa.array(list(range(200)), pa.int64())})
    )
    # post-transform right (size metadata unknown): few rows, wide payload
    wide = pa.table(
        {
            "k": pa.array(list(range(100)), pa.int64()),
            "payload": pa.array([b"x" * 4096] * 100, pa.binary()),
        }
    )

    def ident(b: pa.Table) -> pa.Table:
        return b

    right = rdata.from_arrow(
        [wide.slice(i, 20) for i in range(0, 100, 20)]
    ).map_batches(ident, batch_format="pyarrow")

    decisions = []
    real_log = rel._log_join_decision

    def spy(path, rows, est_bytes):
        decisions.append((path, rows, est_bytes))
        real_log(path, rows, est_bytes)

    orig = rel._log_join_decision
    rel._log_join_decision = spy
    try:
        out = rel.hash_join(
            left, right, "k", "k", broadcast_bytes=64 * 1024  # < 100 * 4 KiB
        )
        got = rel.collect(out).sort_by("k")
    finally:
        rel._log_join_decision = orig

    assert decisions and decisions[0][0] == "bucket"
    assert decisions[0][2] is not None and decisions[0][2] > 64 * 1024
    assert got.num_rows == 100
    assert got.column("k").to_pylist() == list(range(100))

    # and the small case still broadcasts with an exact streamed total
    decisions.clear()
    rel._log_join_decision = spy
    try:
        out2 = rel.hash_join(left, right, "k", "k", broadcast_bytes=256 << 20)
        got2 = rel.collect(out2)
    finally:
        rel._log_join_decision = orig
    assert decisions and decisions[0][0] == "broadcast"
    assert got2.num_rows == 100


def test_datasource_rejects_empty_or_disjunct(ray_session, tmp_path):
    """r5 review finding #3: (empty AND) == TRUE, but the residual
    filter silently skips empty disjuncts — reject the malformed shape
    on the driver before tasks launch."""
    import ray.data as rdata

    from datafusion_orc_ray.sources.stripes import read_stripes

    out = str(tmp_path / "t")
    ep.encode_dataset(
        rdata.from_arrow(pa.table({"x": pa.array([1, 2], pa.int64())})), out
    ).materialize()
    with pytest.raises(ValueError, match="empty disjunct"):
        read_stripes(out, predicate=[("or", [[], [("x", "<", 1)]])])
    with pytest.raises(ValueError, match="empty disjunct"):
        read_stripes(out, predicate=[("or", [])])
    # well-formed groups still work
    ds = read_stripes(out, predicate=[("or", [[("x", "<", 2)], [("x", ">", 1)]])])
    assert ds.count() == 2


def test_read_parquet_clean_directory_and_remote_fallback(ray_session, tmp_path):
    """Directory inputs take the first file's (stripped) schema; non-local
    URIs skip the probe entirely and fall back to the plain reader."""
    import pandas as pd

    from datafusion_orc_ray.util import read_parquet_clean

    d = tmp_path / "dir"
    d.mkdir()
    pd.DataFrame({"a": [1, 2]}).to_parquet(str(d / "p0.parquet"))
    pd.DataFrame({"a": [3]}).to_parquet(str(d / "p1.parquet"))
    ds = read_parquet_clean(str(d))
    assert ds.schema().base_schema.metadata is None
    assert ds.count() == 3

    # a remote URI must not try a local schema probe (it would raise
    # before read_parquet could even start); expect the plain-reader
    # fallback path to surface ray's own error for the fake bucket
    try:
        read_parquet_clean("s3://definitely-not-a-bucket-xyz/t").count()
    except Exception as exc:  # any ray/fs error is fine; probe errors are not
        assert "read_schema" not in str(exc)
