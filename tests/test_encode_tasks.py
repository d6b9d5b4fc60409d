"""Encode runs as Ray task stages with a job-scoped codec cache: CPU slots
are free as soon as a job's rows are taken (plain, clustered and
compaction jobs alike), codec decisions are shared by one job's
fragments in a process and never by two jobs, and the bytes codec
trial compares sizes after the stripe's own outer codec."""

import gc
import time
import weakref

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from datafusion_orc_ray import fixtures, stripe
from datafusion_orc_ray.codecs import bytes_codec, fsst, outer
from datafusion_orc_ray.pipelines import encode as ep
from datafusion_orc_ray.stages import encode as se


def _all_cpus_free(within_s: float) -> bool:
    import ray

    total = ray.cluster_resources().get("CPU", 0)
    end = time.monotonic() + within_s
    while ray.available_resources().get("CPU", 0) < total:
        if time.monotonic() > end:
            return False
        time.sleep(0.02)
    return True


def test_encode_jobs_free_cpu_slots_without_gc(ray_session, tmp_path):
    """With the driver's cyclic GC off, every CPU slot is free within 2 s
    of each encode, and the next encode does not wait for one."""
    import ray.data

    t = pa.table({"x": pa.array(range(20_000), pa.int64()),
                  "s": pa.array([f"value-{i % 97}" for i in range(20_000)])})
    src = f"{tmp_path}/in.parquet"
    pq.write_table(t, src, row_group_size=5_000)
    gc.collect()
    assert _all_cpus_free(30.0)  # nothing left over from earlier tests
    gc.disable()
    try:
        ep.encode_parquet(src, f"{tmp_path}/a", resume=False).take_all()
        assert _all_cpus_free(2.0)
        t0 = time.monotonic()
        rows = ep.encode_parquet(src, f"{tmp_path}/b", resume=False).take_all()
        assert time.monotonic() - t0 < 10.0
        assert sum(r["n_rows"] for r in rows) == t.num_rows
        assert _all_cpus_free(2.0)
        rows = ep.encode_dataset(ray.data.from_arrow(t), f"{tmp_path}/c").take_all()
        assert sum(r["n_rows"] for r in rows) == t.num_rows
        assert _all_cpus_free(2.0)
        for i, inp in enumerate([ray.data.from_arrow(t), src]):
            rows = ep.encode_clustered(inp, f"{tmp_path}/k{i}", key="s", salt_col="x").take_all()
            assert sum(r["n_rows"] for r in rows) == t.num_rows
            assert _all_cpus_free(2.0)
        assert ep.compact_stripes(f"{tmp_path}/a", target_bytes=1 << 30) == 1
        assert _all_cpus_free(2.0)
    finally:
        gc.enable()


def test_clustered_encode_runs_mapped_input_once(ray_session, tmp_path):
    """Clustered encode sizes its batches from plan metadata, not by
    probing the input, so every row of a mapped input goes through the
    map exactly once."""
    import ray.data

    t = fixtures.webtext_table(2000, seed=1)
    pq.write_table(t, f"{tmp_path}/in.parquet", row_group_size=500)
    log = f"{tmp_path}/tagged"

    def tag(batch: pa.Table) -> pa.Table:
        with open(log, "a") as fh:
            fh.write(f"{batch.num_rows}\n")
        return batch

    ds = ray.data.read_parquet(f"{tmp_path}/in.parquet").map_batches(tag, batch_format="pyarrow")
    rows = ep.encode_clustered(ds, f"{tmp_path}/out").take_all()
    assert sum(r["n_rows"] for r in rows) == t.num_rows
    with open(log) as fh:
        assert sum(int(n) for n in fh.read().split()) == t.num_rows


def test_key_runs_keep_nulls_in_one_run(tmp_path):
    """Null keys form one run for every key type (dictionary keys too),
    and the clustered encoder writes them as one stripe labelled with
    the null key."""
    t = pa.table({"k": pa.array([1, None, None, 2, None], pa.int64()),
                  "u": pa.array(["e", "d", "c", "b", "a"])})
    body, bounds, labels = ep._key_runs(t, "k", "u")
    assert bounds.tolist() == [0, 1, 2, 5]
    assert labels == ["1", "2", ep._NULL_KEY]
    assert body.column("u").to_pylist() == ["e", "b", "a", "c", "d"]
    s = pa.array(["x", None, "y", None])
    for k in (s, s.dictionary_encode()):
        assert ep._key_runs(pa.table({"k": k}), "k", "url")[2] == ["x", "y", ep._NULL_KEY]

    n = 1200  # 400-row runs: above the 256-row floor for their own stripes
    keys = pa.array([None if i % 3 == 0 else i % 3 for i in range(n)], pa.int64())
    big = pa.table({"k": keys, "u": pa.array([f"u{i}" for i in range(n)])})
    rows = ep._encode_key_runs(
        big, f"{tmp_path}/out", key="k", salt_col="u",
        rows_per_stripe=2048, target_stripe_bytes=32 << 20,
    ).to_pylist()
    assert [r["lineage"] for r in rows] == [
        "shard=1:0", "shard=2:1", f"shard={ep._NULL_KEY}:2",
    ]
    assert [r["n_rows"] for r in rows] == [400, 400, 400]


def test_job_state_scopes_codec_cache(tmp_path, monkeypatch):
    """The task function, called in-process once per fragment: one job
    decides each string column's bytes codec once across its fragments,
    a job for another out_dir decides again, and one state at most is
    alive. Under zstd only the short-valued url column trains FSST."""
    t = fixtures.webtext_table(480, seed=3)
    src = f"{tmp_path}/in.parquet"
    pq.write_table(t, src, row_group_size=120)
    specs = pa.Table.from_pylist(ep.plan_fragments(src))
    assert specs.num_rows == 4

    decided: list[str] = []  # bytes_codec.choose calls: cache misses
    trained: list[str] = []
    path = {}
    real_decide, real_choose, real_train = (
        stripe.EncoderState.decide, bytes_codec.choose, fsst.train
    )

    def decide(self, key, *a):
        path["now"] = key[0]
        return real_decide(self, key, *a)

    def choose(*a, **k):
        decided.append(path["now"])
        return real_choose(*a, **k)

    def train(sample, *a, **k):
        trained.append(path["now"])
        return real_train(sample, *a, **k)

    states: list[weakref.ref] = []
    real_init = stripe.EncoderState.__init__

    def init(self, *a, **k):
        states.append(weakref.ref(self))
        real_init(self, *a, **k)

    monkeypatch.setattr(stripe.EncoderState, "decide", decide)
    monkeypatch.setattr(stripe.EncoderState, "__init__", init)
    monkeypatch.setattr(bytes_codec, "choose", choose)
    monkeypatch.setattr(fsst, "train", train)

    def alive() -> int:
        gc.collect()
        return sum(r() is not None for r in states)

    for i in range(specs.num_rows):  # one task per fragment, same process
        se.encode_fragments(specs.slice(i, 1), out_dir=f"{tmp_path}/a")
        assert alive() == 1
    # one decision per bytes column (lang is stored as a dictionary)
    assert sorted(decided) == ["html", "lang.dict", "text", "url"]
    assert trained == ["url"]
    decided.clear()
    trained.clear()
    se.encode_fragments(specs.slice(0, 1), out_dir=f"{tmp_path}/b")
    assert sorted(decided) == ["html", "lang.dict", "text", "url"]
    assert trained == ["url"]
    assert len(states) == 2 and alive() == 1


def test_bytes_choice_follows_outer_codec():
    """With no outer codec the trial compares plain sizes, so webtext
    urls are stored FSST (about 13 KB of 57.5 KB raw) and round-trip;
    under zstd they stay raw."""
    t = fixtures.webtext_table(2000, seed=1).select(["url"])
    blob = stripe.encode_table(t, outer_codec=outer.NONE)
    data = stripe.read_footer(blob)["columns"][0]["streams"]["data"]
    assert (data["codec"], data["outer"]) == ("fsst", "none")
    assert data["size"] < data["raw_size"] / 3
    assert stripe.decode_table(blob).equals(t)
    zdata = stripe.read_footer(stripe.encode_table(t))["columns"][0]["streams"]["data"]
    assert zdata["codec"] == "raw"


def test_no_outer_codec_stores_large_streams_raw():
    """Under NONE a stream larger than the outer codec's trial sample is
    stored raw without a trial: NONE has no compressor to try."""
    t = pa.table({"x": pa.array(range(100_000), pa.float64())})
    blob = stripe.encode_table(t, outer_codec=outer.NONE)
    assert stripe.read_footer(blob)["columns"][0]["streams"]["data"]["outer"] == "none"
    assert stripe.decode_table(blob).equals(t)


def test_byte_stream_split_trial_follows_outer_codec():
    """Few distinct float64 values split into byte planes that zstd
    packs; with no outer codec the planes would store as many bytes as
    the raw values, so the column stays raw."""
    rng = np.random.RandomState(0)
    t = pa.table({"q": pa.array(rng.randint(1, 51, 4000).astype(np.float64))})
    for codec, enc in ((outer.ZSTD, "float_bss"), (outer.NONE, "float_raw")):
        blob = stripe.encode_table(t, outer_codec=codec)
        assert stripe.read_footer(blob)["columns"][0]["enc"] == enc
        assert stripe.decode_table(blob).equals(t)


def test_a_smooth_float_column_stores_its_planes_compressed():
    """A 100k-row float32 sensor series splits into byte planes that
    zstd packs, though the stream's head is its noisiest plane: the
    planes are stored compressed, in fewer bytes than the plain values
    under zstd."""
    i = np.arange(100_000)
    noise = np.random.default_rng(0).normal(0, 0.01, i.size)
    v = (20 + 5 * np.sin(i / 500) + noise).astype(np.float32)
    t = pa.table({"v": v})
    blob = stripe.encode_table(t)
    col = stripe.read_footer(blob)["columns"][0]
    assert (col["enc"], col["streams"]["data"]["outer"]) == ("float_bss", "zstd")
    assert len(blob) < len(pa.Codec("zstd").compress(v.tobytes(), asbytes=True))
    assert stripe.decode_table(blob).equals(t)


def test_outer_trial_samples_the_whole_stream():
    """The outer codec's trial of a large stream samples it from head to
    tail: a stream whose first 64 KiB are incompressible and whose rest
    compresses is stored compressed, and 8 MiB of random bytes raw."""
    rng = np.random.default_rng(0)
    buf = rng.bytes(65536) + b"sensor reading ok; " * 15_000
    assert len(buf) > 4 * 65536
    out = outer.compress_auto(buf)
    assert out[0][0] == outer.ZSTD
    assert outer.stored_size(buf) < len(buf) / 2
    assert outer.decompress(b"".join(bytes(p) for p in out)) == buf
    assert outer.compress_auto(rng.bytes(8 << 20))[0][0] == outer.NONE


def test_split_pieces_read_back_in_row_order(tmp_path):
    """A row group FragmentEncoder splits 11+ ways, and a batch over the
    target written as encode_batch writes it, read back through
    StripeDatasource in input row order with no sort; every piece is
    within the target."""
    from datafusion_orc_ray.sources.datasource import StripeDatasource
    from datafusion_orc_ray.state import manifest as man

    n = 120_000
    t = pa.table({"x": pa.array(range(n), pa.int64()),
                  "s": pa.array([f"row-{i}" for i in range(n)])})
    pq.write_table(t, f"{tmp_path}/big.parquet", row_group_size=n)
    target = t.nbytes // 11
    cases = {
        "frag": lambda out: se.FragmentEncoder(out, target_stripe_bytes=target)(
            pa.table({"path": [f"{tmp_path}/big.parquet"], "row_group": [0]})
        ),
        "batch": lambda out: se.StripeEncoder(out, target_stripe_bytes=target)(t),
    }
    for name, write in cases.items():
        out = f"{tmp_path}/{name}"
        rows = write(out)
        entries = man.load_manifest(out)
        assert len(entries) >= 11 and rows.num_rows == len(entries), name
        assert all(e["raw_bytes"] <= target for e in entries), name
        src = StripeDatasource(out)
        got = pa.concat_tables(b for task in src.get_read_tasks(1) for b in task())
        assert got.equals(t), name
        # the manifest rows come back in row order too, as does the manifest
        assert rows.column("n_rows").to_pylist() == [e["n_rows"] for e in entries], name
        assert [e["ordinal"][-1] for e in entries] == list(range(len(entries))), name


def test_long_values_trial_fsst_only_without_outer_codec(monkeypatch):
    """Values longer than ``LONG_VALUE_BYTES`` on average stay raw
    untried under zstd, and still train and trial FSST with no outer
    codec (the stripe then round-trips) or under an outer codec other
    than zstd."""
    t = fixtures.webtext_table(200, seed=2).select(["text"])
    data, offs = stripe._binary_parts(t.column(0))
    assert data.size > bytes_codec.LONG_VALUE_BYTES * (offs.size - 1)
    trained = []
    real_train = fsst.train
    monkeypatch.setattr(fsst, "train", lambda s, *a, **k: trained.append(len(s)) or real_train(s, *a, **k))
    assert bytes_codec.choose(data, offs, None, outer.ZSTD) == (bytes_codec.BYTES_RAW, None)
    assert trained == []
    bytes_codec.choose(data, offs, None, outer.NONE)
    assert len(trained) == 1
    blob = stripe.encode_table(t, outer_codec=outer.NONE)
    assert len(trained) == 2
    assert stripe.decode_table(blob).equals(t)
    for codec in (outer.LZ4, outer.SNAPPY, outer.GZIP):
        bytes_codec.choose(data, offs, None, codec)
    assert len(trained) == 5


def test_in_process_encode_leaves_arrow_pools(tmp_path):
    """Encoding in-process (an encoder, or a task function called
    directly) leaves the caller's Arrow pool sizes as they were."""
    before = pa.cpu_count(), pa.io_thread_count()
    pa.set_cpu_count(3)
    pa.set_io_thread_count(5)
    try:
        se.StripeEncoder(f"{tmp_path}/a")(pa.table({"x": list(range(100))}))
        assert (pa.cpu_count(), pa.io_thread_count()) == (3, 5)
        src = f"{tmp_path}/in.parquet"
        pq.write_table(pa.table({"x": list(range(100))}), src)
        se.encode_fragments(pa.Table.from_pylist(ep.plan_fragments(src)), out_dir=f"{tmp_path}/b")
        assert (pa.cpu_count(), pa.io_thread_count()) == (3, 5)
    finally:
        pa.set_cpu_count(before[0])
        pa.set_io_thread_count(before[1])


def test_task_groups_share_tasks_between_small_fragments():
    """Consecutive small fragments share a task, leaving at least 2 tasks
    per CPU slot; a fragment over the byte bound, or of unknown size (an
    ORC stripe), runs alone."""
    mb = 1 << 20
    small = [{"path": "p", "row_group": i, "bytes": 8 * mb} for i in range(12)]
    sizes = lambda groups: [len(g) for g in groups]  # noqa: E731
    assert sizes(ep.task_groups(small, 1, 64 * mb)) == [6, 6]
    assert sizes(ep.task_groups(small, 3, 64 * mb)) == [2] * 6
    assert sizes(ep.task_groups(small, 8, 64 * mb)) == [1] * 12
    assert sizes(ep.task_groups(small, 1, 20 * mb)) == [2] * 6
    mixed = small[:3] + [{"path": "p", "row_group": 3, "bytes": 128 * mb}] + small[4:6]
    assert sizes(ep.task_groups(mixed, 1, 64 * mb)) == [3, 1, 2]
    orc = [{"path": "o", "stripe": i} for i in range(4)]
    assert sizes(ep.task_groups(orc, 1, 64 * mb)) == [1, 1, 1, 1]
    assert [f for g in ep.task_groups(mixed, 1, 64 * mb) for f in g] == mixed


def test_encode_one_takes_the_footer_it_encoded(tmp_path, monkeypatch):
    """A stripe's manifest row comes from the footer ``encode_table``
    built, with no footer read of the blob it just encoded."""
    import json

    t = pa.table({"k": pa.array(range(3000), pa.int64()), "s": pa.array([f"s{i % 9}" for i in range(3000)])})

    def no_read(blob):
        raise AssertionError("footer read back after encode")

    monkeypatch.setattr(stripe, "read_footer", no_read)
    (entry,) = se.StripeEncoder(str(tmp_path / "out")).encode_split(t)
    monkeypatch.undo()
    footer = stripe.read_footer(open(entry["path"], "rb").read())
    assert entry["schema_b64"] == footer["schema_b64"]
    cols = json.loads(entry["columns_json"])
    assert [(c["path"], c["enc"], c["stats"]) for c in cols] == [
        (c["path"], c["enc"], c["stats"]) for c in footer["columns"]
    ]
