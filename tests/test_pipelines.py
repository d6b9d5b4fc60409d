"""End-to-end Ray Data pipeline tests: fragment encode -> stripes ->
decode, checkpoint/resume, projection pushdown, skew-aware clustering
(SURVEY.md §5 "End-to-end fixture" + "Resume test")."""

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from datafusion_orc_ray import fixtures
from datafusion_orc_ray.pipelines import encode as ep
from datafusion_orc_ray.state import manifest as man


def collect(ds) -> pa.Table:
    return pa.concat_tables(ds.iter_batches(batch_format="pyarrow")).combine_chunks()


@pytest.fixture(scope="module")
def corpus(ray_session, tmp_path_factory):
    base = str(tmp_path_factory.mktemp("corpus"))
    os.makedirs(f"{base}/in")
    wt = fixtures.webtext_table(1500)
    for i in range(3):
        pq.write_table(wt.slice(i * 500, 500), f"{base}/in/part-{i}.parquet", row_group_size=250)
    return base, wt


def test_encode_decode_roundtrip(corpus):
    base, wt = corpus
    out = f"{base}/enc"
    mf = ep.encode_parquet(f"{base}/in", out, concurrency=2)
    rows = mf.take_all()
    assert len(rows) == 6  # 3 files x 2 row groups
    got = collect(ep.decode_stripes(out)).sort_by("url")
    assert got.equals(wt.sort_by("url"))
    # manifest carries lineage + codec metrics
    entries = man.load_manifest(out)
    assert all(e["lineage"].endswith((":rg0", ":rg1")) for e in entries)
    assert all("columns_json" in e for e in entries)


def test_resume_skips_completed(corpus):
    base, _ = corpus
    out = f"{base}/enc_resume"
    ep.encode_parquet(f"{base}/in", out, concurrency=2).take_all()
    # full resume: nothing to do
    assert ep.encode_parquet(f"{base}/in", out, concurrency=2).count() == 0
    # partial resume: drop 2 manifest rows -> exactly 2 re-encoded
    for f in sorted(glob.glob(f"{out}/manifest/*.json"))[:2]:
        os.remove(f)
    assert ep.encode_parquet(f"{base}/in", out, concurrency=2).count() == 2
    # and the final state decodes completely
    _, wt = corpus
    got = collect(ep.decode_stripes(out)).sort_by("url")
    assert got.equals(wt.sort_by("url"))


def test_crash_mid_write_resume(corpus):
    """Kill-after-k simulation (SURVEY.md §5 resume test): a crash leaves
    a stray temp blob and no manifest row; restart re-encodes that
    fragment cleanly, temp junk is ignored, no duplicate stripes."""
    base, wt = corpus
    out = f"{base}/enc_crash"
    ep.encode_parquet(f"{base}/in", out, concurrency=2).take_all()
    entries = man.load_manifest(out)
    victim = entries[0]
    # simulate: the blob write finished as a temp file, manifest missing
    os.rename(victim["path"], victim["path"] + ".tmp-deadbeef")
    os.remove(os.path.join(out, "manifest", f"{victim['stripe_id']}.json"))
    redone = ep.encode_parquet(f"{base}/in", out, concurrency=2).take_all()
    assert len(redone) == 1 and redone[0]["stripe_id"] == victim["stripe_id"]
    final = man.load_manifest(out)
    assert len(final) == len(entries)
    assert len({e["stripe_id"] for e in final}) == len(entries)  # no dupes
    got = collect(ep.decode_stripes(out)).sort_by("url")
    assert got.equals(wt.sort_by("url"))


def test_stale_format_refused(corpus):
    """Blobs from an older format version fail loudly, not silently."""
    import json

    from datafusion_orc_ray import stripe as stripe_mod

    base, _ = corpus
    out = f"{base}/enc"
    if not man.completed_ids(out):
        ep.encode_parquet(f"{base}/in", out, concurrency=2).take_all()
    path = man.load_manifest(out)[0]["path"]
    blob = open(path, "rb").read()
    footer = stripe_mod.read_footer(blob)
    # forge an older version marker (a plain-JSON footer: no bloom bits)
    columns = [{k: v for k, v in c.items() if k != "bloom"} for c in footer["columns"]]
    old = dict(footer, format="rstp0", columns=columns)
    fbytes = json.dumps(old, separators=(",", ":")).encode()
    import struct as st

    flen = st.unpack_from("<I", blob, len(blob) - 9)[0]
    fstart = len(blob) - 9 - flen
    forged = blob[:fstart] + fbytes + st.pack("<I", len(fbytes)) + stripe_mod.MAGIC
    with pytest.raises(ValueError, match="stale blob"):
        stripe_mod.read_footer(forged)


def test_projection_pushdown(corpus):
    base, wt = corpus
    out = f"{base}/enc"
    if not man.completed_ids(out):
        ep.encode_parquet(f"{base}/in", out, concurrency=2).take_all()
    t = collect(ep.decode_stripes(out, columns=["url", "lang"]))
    assert t.column_names == ["url", "lang"]
    assert t.num_rows == wt.num_rows


def test_cluster_for_compression(corpus):
    import ray.data

    base, wt = corpus
    ds = ray.data.read_parquet(f"{base}/in")
    clustered = ep.cluster_for_compression(ds, key="lang", salt_col="url")
    out = f"{base}/enc_clustered"
    mf = ep.encode_dataset(
        clustered.drop_columns(["__shard"]), out, rows_per_stripe=500, concurrency=2
    )
    assert mf.count() >= 1
    got = collect(ep.decode_stripes(out)).sort_by("url")
    assert got.equals(wt.sort_by("url"))


def test_encode_clustered_single_shuffle(corpus):
    """The zero-shuffle clustered encode (each batch sorted and split
    into per-key stripes in one task) round-trips and records shard
    lineage per stripe."""
    import ray.data

    base, wt = corpus
    ds = ray.data.read_parquet(f"{base}/in")
    out = f"{base}/enc_grouped"
    mf = ep.encode_clustered(ds, out, rows_per_stripe=400)
    assert mf.count() >= 1
    entries = man.load_manifest(out)
    assert all(e["lineage"].startswith("shard=") for e in entries)
    got = collect(ep.decode_stripes(out)).sort_by("url")
    assert got.equals(wt.sort_by("url"))


def test_manifest_snapshot_consolidation(ray_session, tmp_path):
    """write_snapshot consolidates manifest rows into one file;
    load_manifest then GETs the snapshot plus only post-snapshot rows,
    returns identical entries, stays correct when rows are ADDED after
    the snapshot, when compaction tombstones snapshot-covered rows, and
    when the snapshot is corrupt (silent per-row fallback)."""
    import pyarrow as pa

    from datafusion_orc_ray import io as dio

    base = str(tmp_path)
    t = pa.table({"x": pa.array(range(400), pa.int64())})
    pq.write_table(t, f"{base}/a.parquet", row_group_size=100)
    out = f"{base}/enc"
    ep.encode_parquet(f"{base}/a.parquet", out, concurrency=2).take_all()
    before = sorted(man.load_manifest(out), key=lambda e: e["stripe_id"])
    assert man.write_snapshot(out) == 4
    # snapshot-covered reads: identical entries, and no per-row GETs
    n_gets = 0
    orig_read = dio.read_bytes

    def counting_read(path, *a, **k):
        nonlocal n_gets
        if str(path).endswith(".json"):
            n_gets += 1
        return orig_read(path, *a, **k)

    try:
        dio.read_bytes = counting_read
        after = sorted(man.load_manifest(out), key=lambda e: e["stripe_id"])
    finally:
        dio.read_bytes = orig_read
    assert after == before and n_gets == 0
    # rows added AFTER the snapshot surface via the delta path
    pq.write_table(t.slice(0, 100), f"{base}/b.parquet")
    ep.encode_parquet(f"{base}/b.parquet", out, concurrency=1).take_all()
    assert len(man.load_manifest(out)) == 5
    # compaction replaces snapshot-covered rows: tombstone filter wins
    # over the (now stale) snapshot, and compaction refreshed it
    merged = ep.compact_stripes(out, target_bytes=1 << 30, min_members=2)
    assert merged == 1
    entries = man.load_manifest(out)
    assert len(entries) == 1 and entries[0]["stripe_id"].startswith("cmp-")
    # corrupt snapshot: readers silently fall back to per-row GETs
    snap = dio.join(out, man.MANIFEST_DIR, man.SNAPSHOT_NAME)
    valid = dio.read_bytes(snap)
    for corrupt in (b"garbage", valid[: len(valid) // 2]):
        dio.write_bytes_atomic(snap, corrupt)
        assert man.load_manifest(out) == entries


def test_multi_conjunct_predicate_pushdown(ray_session, tmp_path):
    """A LIST predicate (AND semantics) prunes stripes with every
    conjunct and applies the residual filters; equivalent to chaining
    plain filters."""
    import pyarrow as pa

    from datafusion_orc_ray.sources.stripes import _stats_may_match, read_stripes

    base = str(tmp_path)
    ids = pa.table(
        {
            "id": pa.array(range(1000), pa.int64()),
            "v": pa.array([float(i % 100) for i in range(1000)]),
        }
    )
    pq.write_table(ids, f"{base}/ids.parquet", row_group_size=250)
    out = f"{base}/enc"
    ep.encode_parquet(f"{base}/ids.parquet", out, concurrency=2).take_all()
    preds = [("id", ">=", 260), ("id", "<", 510), ("v", "<", 50.0)]
    entries = man.load_manifest(out)
    kept = [e for e in entries if all(_stats_may_match(e, p) for p in preds)]
    assert len(entries) == 4 and len(kept) == 2  # id-range prunes 2 of 4
    got = collect(read_stripes(out, columns=["id", "v"], predicate=preds)).sort_by("id")
    want = [i for i in range(260, 510) if (i % 100) < 50]
    assert got.column("id").to_pylist() == want


def test_encode_clustered_dir_input_fragment_fed(corpus):
    """String (parquet dir) input reads each row group inside the
    encode task — no object-store hop — with decode output identical to
    the Dataset-input path."""
    base, wt = corpus
    out = f"{base}/enc_dir"
    mf = ep.encode_clustered(f"{base}/in", out, rows_per_stripe=400)
    assert mf.count() >= 1
    entries = man.load_manifest(out)
    assert all(e["lineage"].startswith("shard=") for e in entries)
    got = collect(ep.decode_stripes(out)).sort_by("url")
    assert got.equals(wt.sort_by("url"))


def test_predicate_pushdown_prunes_stripes(ray_session, tmp_path):
    """E13/S4: manifest min/max skip whole stripes; residual filter
    applied to survivors; result matches a plain filter."""
    import pyarrow as pa

    from datafusion_orc_ray.sources.stripes import _stats_may_match, read_stripes

    base = str(tmp_path)
    ids = pa.table({"id": pa.array(range(1000), pa.int64()), "v": pa.array([float(i) for i in range(1000)])})
    pq.write_table(ids, f"{base}/ids.parquet", row_group_size=250)  # 4 disjoint ranges
    out = f"{base}/enc"
    ep.encode_parquet(f"{base}/ids.parquet", out, concurrency=2).take_all()
    entries = man.load_manifest(out)
    pred = ("id", "<", 260)
    kept = [e for e in entries if _stats_may_match(e, pred)]
    assert len(entries) == 4 and len(kept) == 2  # two stripes pruned by stats
    got = collect(read_stripes(out, columns=["id", "v"], predicate=pred)).sort_by("id")
    assert got.num_rows == 260
    assert got.column("id").to_pylist() == list(range(260))
    # predicate excluding everything -> empty table, schema intact
    from datafusion_orc_ray.pipelines.relational import collect as rel_collect

    none = read_stripes(out, columns=["id"], predicate=("id", ">", 10_000))
    empty = rel_collect(none)
    assert empty.num_rows == 0 and empty.column_names == ["id"]


def test_salt_plan_splits_hot_keys(corpus):
    import ray.data

    base, _ = corpus
    ds = ray.data.read_parquet(f"{base}/in")
    plan = ep.salt_plan(ds, "lang", target_share=0.05)
    # "en" is ~55% of rows -> must be split into ~11 salt buckets
    assert plan.get("en", 0) >= 8
    # cold keys stay unsplit
    assert plan.get("nl", 1) <= 2


def test_fragment_encoder_splits_giant_row_groups(ray_session, tmp_path):
    """A row group bigger than target_stripe_bytes becomes multiple
    stripes; the fragment-hash marker stripe is written last so resume
    stays correct; roundtrip is exact."""
    import pyarrow as pa

    t = pa.table({"x": pa.array(range(40_000), pa.int64()),
                  "s": pa.array([f"row{i}" * 6 for i in range(40_000)])})
    pq.write_table(t, f"{tmp_path}/big.parquet", row_group_size=40_000)  # ONE giant rg
    out = f"{tmp_path}/enc"
    import ray.data

    from datafusion_orc_ray.stages.encode import FragmentEncoder

    ds = ray.data.from_items([{"path": f"{tmp_path}/big.parquet", "row_group": 0}])
    ds.map_batches(
        FragmentEncoder,
        fn_constructor_kwargs={"out_dir": out, "target_stripe_bytes": 512 * 1024},
        batch_format="pyarrow", batch_size=1, concurrency=1,
    ).take_all()
    entries = man.load_manifest(out)
    assert len(entries) > 1                      # split happened
    assert max(e["raw_bytes"] for e in entries) < 2 * 512 * 1024
    got = collect(ep.decode_stripes(out)).sort_by("x")
    assert got.equals(t)
    # resume: the fragment id (chunk-0 stripe id) is in completed_ids
    from datafusion_orc_ray.pipelines.encode import fragment_stripe_id

    assert fragment_stripe_id({"path": f"{tmp_path}/big.parquet", "row_group": 0}) in man.completed_ids(out)


def test_compaction_merges_and_preserves_resume(ray_session, tmp_path):
    """Compaction merges small stripes into big ones; readers see exactly
    the same rows; fragment resume still skips everything (replaced ids
    stay 'completed'); recompaction is a no-op."""
    import pyarrow as pa

    base = str(tmp_path)
    t = pa.table({"x": pa.array(range(4000), pa.int64()),
                  "s": pa.array([f"v{i%5}" for i in range(4000)])})
    pq.write_table(t, f"{base}/in.parquet", row_group_size=250)  # 16 tiny fragments
    out = f"{base}/enc"
    ep.encode_parquet(f"{base}/in.parquet", out, concurrency=2).take_all()
    assert len(man.load_manifest(out)) == 16
    n_merged = ep.compact_stripes(out, target_bytes=64 * 1024)
    assert n_merged >= 1
    entries = man.load_manifest(out)
    assert len(entries) < 16
    got = collect(ep.decode_stripes(out)).sort_by("x")
    assert got.equals(t)
    # resume: all original fragment ids still count as completed
    assert ep.encode_parquet(f"{base}/in.parquet", out, concurrency=2).count() == 0
    # idempotence: nothing left to merge at this target
    again = ep.compact_stripes(out, target_bytes=64 * 1024)
    got2 = collect(ep.decode_stripes(out)).sort_by("x")
    assert got2.equals(t)


def test_job_cli_end_to_end(ray_session, tmp_path):
    """ray-job-submit entry point: encode -> stats -> compact -> decode
    round-trips through the CLI surface."""
    import pyarrow as pa

    from datafusion_orc_ray import job

    t = pa.table({"a": pa.array(range(1000), pa.int64())})
    pq.write_table(t, f"{tmp_path}/in.parquet", row_group_size=100)
    out = f"{tmp_path}/out"
    assert job.main(["encode", "--input", f"{tmp_path}/in.parquet", "--out", out]) == 0
    assert len(man.load_manifest(out)) == 10
    assert job.main(["compact", "--stripes", out, "--target-mb", "1"]) == 0
    assert len(man.load_manifest(out)) == 1
    dec = f"{tmp_path}/dec"
    assert job.main(["decode", "--stripes", out, "--out", dec]) == 0
    got = pq.read_table(dec).sort_by("a")
    assert got.equals(t)
    assert job.main(["stats", "--stripes", out]) == 0
    assert job.main(["lookup", "--stripes", out, "--col", "a", "--value", "7"]) == 0


def test_job_cli_sql(ray_session, tmp_path, capsys):
    """sql subcommand: register NAME=DIR tables, run a query, report
    which execution path answered; --explain prints without running."""
    import json as _json

    import pyarrow as pa

    from datafusion_orc_ray import job

    t = pa.table(
        {
            "a": pa.array(range(100), pa.int64()),
            "k": pa.array([f"g{i % 3}" for i in range(100)]),
        }
    )
    pq.write_table(t, f"{tmp_path}/in.parquet", row_group_size=25)
    out = f"{tmp_path}/out"
    assert job.main(["encode", "--input", f"{tmp_path}/in.parquet", "--out", out]) == 0
    capsys.readouterr()

    assert job.main(["sql", "--table", f"t={out}",
                     "--query", "SELECT count(*) AS n, max(a) AS hi FROM t"]) == 0
    res = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["rows"] == [{"n": 100, "hi": 99}]
    assert res["plan"] == "stats_answer"  # no WHERE: manifest stats, zero decode

    assert job.main(["sql", "--table", f"t={out}", "--limit", "2",
                     "--query", "SELECT k, sum(a) AS s FROM t GROUP BY k ORDER BY k"]) == 0
    res2 = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res2["plan"] == "aggregate_pushdown"
    assert res2["n"] == 3 and res2["truncated"] and len(res2["rows"]) == 2
    # sum(BIGINT) is HUGEINT -> json default=str serializes it
    assert res2["rows"][0]["k"] == "g0" and int(res2["rows"][0]["s"]) == 1683

    assert job.main(["sql", "--table", f"t={out}", "--explain",
                     "--query", "SELECT a FROM t WHERE a < 10 ORDER BY a LIMIT 3"]) == 0
    plan = capsys.readouterr().out
    assert "distributed top-k pushdown" in plan

    with pytest.raises(SystemExit):
        job.main(["sql", "--table", "badspec", "--query", "SELECT 1 AS x"])


def test_compaction_across_schema_evolution(ray_session, tmp_path):
    """Members with different column sets merge through the unified
    schema (null-filled), and the merged stripe decodes consistently."""
    import pyarrow as pa

    from datafusion_orc_ray.stages.encode import StripeEncoder

    out = str(tmp_path / "enc")
    enc = StripeEncoder(out)
    enc.encode_one(pa.table({"a": pa.array([1, 2], pa.int64())}), stripe_id="s1")
    enc.encode_one(
        pa.table({"a": pa.array([3], pa.int64()), "b": pa.array(["x"])}), stripe_id="s2"
    )
    n = ep.compact_stripes(out, target_bytes=1 << 20)
    assert n == 1 and len(man.load_manifest(out)) == 1
    got = collect(ep.decode_stripes(out)).sort_by("a")
    assert got.column("a").to_pylist() == [1, 2, 3]
    assert got.column("b").to_pylist() == [None, None, "x"]


def test_clustering_gain_on_per_key_vocabulary():
    """The clustering mechanism (VERDICT r1 #4): on data whose value
    distributions differ per key (per-lang vocab + per-lang tag set —
    i.e. real multilingual corpora, unlike the shared-vocab bench
    fixture), key-clustered stripes encode ~20% smaller than mixed
    stripes AT EQUAL STRIPE COUNTS. (Equal counts matter: per-stripe
    overhead can eat the gain when clustering multiplies tiny stripes —
    which is why the clustered encoder byte-caps runs and coalesces
    small ones.)"""
    import numpy as np

    from datafusion_orc_ray import stripe as sm

    rng = np.random.default_rng(3)
    langs = ["en", "de", "fr", "es", "zh"]
    n = 20000
    li = rng.integers(0, 5, n)
    tags = [f"{langs[l]}-tag-{rng.integers(0, 50)}" for l in li]
    vocabs = {
        lg: [f"{lg}{w}" for w in ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"] * 4]
        for lg in langs
    }
    texts = [" ".join(rng.choice(vocabs[langs[l]], 60)) for l in li]
    t = pa.table(
        {
            "lang": pa.array([langs[l] for l in li]),
            "tag": pa.array(tags),
            "text": pa.array(texts),
        }
    )

    def total_encoded(tbl, k=5):
        step = tbl.num_rows // k
        return sum(len(sm.encode_table(tbl.slice(i * step, step))) for i in range(k))

    mixed = total_encoded(t)
    clustered = total_encoded(t.sort_by([("lang", "ascending"), ("tag", "ascending")]))
    assert clustered < 0.9 * mixed  # >=10% gain from homogeneous stripes


def test_validate_stripes_audit(corpus):
    """Distributed corpus fsck: all-green on a fresh encode; after one
    byte flip in one stripe, exactly that stripe is flagged with the
    offending stream named, and the CLI exits 3."""
    from datafusion_orc_ray import job
    from datafusion_orc_ray.sources.stripes import validate_stripes

    base, _ = corpus
    out = f"{base}/enc_audit"
    ep.encode_parquet(f"{base}/in", out, concurrency=2).take_all()
    t = collect(validate_stripes(out))
    assert t.column("ok").to_pylist() == [True] * t.num_rows
    assert all(c > 0 for c in t.column("n_checked").to_pylist())
    assert job.main(["validate", "--stripes", out]) == 0

    victim = sorted(t.column("path").to_pylist())[0]
    blob = bytearray(open(victim, "rb").read())
    blob[len(blob) // 2] ^= 0xFF
    open(victim, "wb").write(bytes(blob))
    t2 = collect(validate_stripes(out)).sort_by("path")
    flagged = {
        p: ok
        for p, ok in zip(t2.column("path").to_pylist(), t2.column("ok").to_pylist())
    }
    assert flagged[victim] is False
    assert sum(1 for ok in flagged.values() if not ok) == 1
    assert job.main(["validate", "--stripes", out]) == 3


def test_encode_clustered_after_salted_sort(corpus):
    """Co-location across batches by composition: the skew-aware salted
    sort feeding clustered encode round-trips exactly, labels every
    stripe with its shard, and gives at least one key its own stripe."""
    import ray.data

    base, wt = corpus
    ds = ray.data.read_parquet(f"{base}/in")
    out = f"{base}/enc_sorted"
    sorted_ds = ep.cluster_for_compression(ds, key="lang", salt_col="url")
    mf = ep.encode_clustered(sorted_ds.drop_columns(["__shard"]), out, rows_per_stripe=400)
    assert mf.count() >= 1
    entries = man.load_manifest(out)
    assert all(e["lineage"].startswith("shard=") for e in entries)
    # at least one stripe is single-shard-labelled (not all "mixed")
    assert any("mixed" not in e["lineage"] for e in entries)
    got = collect(ep.decode_stripes(out)).sort_by("url")
    assert got.equals(wt.sort_by("url"))
