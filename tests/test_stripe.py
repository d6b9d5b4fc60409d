"""Stripe blob round-trip tests: every driver table, every fixture type,
golden cross-check vs the Apache ORC corpus files' value domain
(SURVEY.md §5: decoded columns bit-identical)."""

import glob
import io
import json
import os
import struct
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.orc
import pyarrow.parquet as pq
import pytest

from datafusion_orc_ray import fixtures, stripe
from datafusion_orc_ray.util import BoundedStore

SF_DIR = "/root/testdata/sf0.001"
# Apache ORC's Java-written golden files, bundled with pyarrow
ORC_CORPUS = os.path.join(os.path.dirname(pa.__file__), "tests", "data", "orc")


@pytest.mark.parametrize("path", sorted(glob.glob(f"{SF_DIR}/*.parquet")), ids=lambda p: p.split("/")[-1])
def test_testdata_roundtrip(path):
    t = pq.read_table(path)
    blob = stripe.encode_table(t)
    assert stripe.decode_table(blob).equals(t)


def test_alltypes_roundtrip():
    t = fixtures.alltypes_table()
    out = stripe.decode_table(stripe.encode_table(t))
    for c in t.column_names:
        assert out.column(c).equals(t.column(c)), c


def test_nested_roundtrip():
    t = fixtures.nested_table()
    out = stripe.decode_table(stripe.encode_table(t))
    for c in t.column_names:
        assert out.column(c).equals(t.column(c)), c


def test_webtext_roundtrip_and_size_bound():
    """North-rule contract: bit-identical decode at <= the reference's
    compressed size (reference = pyarrow.orc snappy of the same table,
    cf. the in-repo fixtures' SNAPPY framing, BASELINE.md)."""
    t = fixtures.webtext_table(1000)
    blob = stripe.encode_table(t)
    out = stripe.decode_table(blob)
    assert out.equals(t)
    buf = io.BytesIO()
    pa.orc.write_table(t, buf, compression="snappy")
    assert len(blob) <= buf.tell(), f"ours {len(blob)} > reference {buf.tell()}"


def test_webtext_text_html_invariant():
    """Per-row invariant from BASELINE.json input_hint: byte-identical
    extracted text per url after decode."""
    t = fixtures.webtext_table(500)
    out = stripe.decode_table(stripe.encode_table(t))
    url_to_text = dict(zip(out.column("url").to_pylist(), out.column("text").to_pylist()))
    for url, html in zip(out.column("url").to_pylist(), out.column("html").to_pylist()):
        text = url_to_text[url]
        if html is None:
            assert text is None
        else:
            assert fixtures.extract_text(html).decode() == text


def test_projection_pushdown_decode():
    """S5: decoding a projection touches only the requested columns."""
    t = pq.read_table(f"{SF_DIR}/lineitem.parquet")
    blob = stripe.encode_table(t)
    out = stripe.decode_table(blob, columns=["l_orderkey", "l_quantity"])
    assert out.column_names == ["l_orderkey", "l_quantity"]
    assert out.column("l_orderkey").equals(t.column("l_orderkey"))
    assert out.column("l_quantity").equals(t.column("l_quantity"))


def test_projected_decode_reads_only_selected_streams(tmp_path):
    """S5 + S8: a projected decode_file does ranged reads of just the
    selected columns' streams — it must touch a small fraction of the
    blob, never the whole file."""
    t = pq.read_table(f"{SF_DIR}/lineitem.parquet")
    path = str(tmp_path / "x.rstp")
    blob = stripe.encode_table(t)
    with open(path, "wb") as f:
        f.write(blob)
    from datafusion_orc_ray import io as dio

    src = dio.RangedReader(path)
    footer = stripe.read_footer_from_file(path)
    out = stripe._decode_from(footer, src, ["l_orderkey", "l_quantity"])
    src.close()
    assert out.column("l_orderkey").equals(t.column("l_orderkey"))
    assert src.bytes_read < 0.3 * len(blob)
    assert stripe.decode_file(path).equals(t)


def test_small_stripe_decode_file_reads_once(tmp_path, monkeypatch):
    """A stripe under the footer's tail guess is read whole by the tail
    read, so decode_file opens one reader and issues one read, for a
    full and a projected decode."""
    from datafusion_orc_ray import io as dio

    t = pa.table({"i": pa.array(range(3000), pa.int64()), "s": [f"v{i % 13}" for i in range(3000)]})
    path = str(tmp_path / "x.rstp")
    with open(path, "wb") as f:
        f.write(stripe.encode_table(t))
    opened, reads = [], []
    init, read = dio.RangedReader.__init__, dio.RangedReader.read

    def counted_init(self, p):
        opened.append(p)
        init(self, p)

    def counted_read(self, offset, size):
        reads.append((offset, size))
        return read(self, offset, size)

    monkeypatch.setattr(dio.RangedReader, "__init__", counted_init)
    monkeypatch.setattr(dio.RangedReader, "read", counted_read)
    for cols in (None, ["s"]):
        opened.clear()
        reads.clear()
        assert stripe.decode_file(path, columns=cols).equals(t if cols is None else t.select(cols))
        assert (len(opened), len(reads)) == (1, 1), (cols, opened, reads)


def test_stripe_over_tail_guess_reads(tmp_path, monkeypatch):
    """A stripe longer than the footer's tail guess: a full-width decode
    with no predicate is still one read of the whole file, a projected
    decode reads the tail and then its streams, and a point lookup that
    the bloom rules out reads no more than the footer does."""
    from datafusion_orc_ray import io as dio

    t = pa.table({"i": pa.array(range(3000), pa.int64()), "s": [f"v{i % 13}" for i in range(3000)]})
    path = str(tmp_path / "x.rstp")
    with open(path, "wb") as f:
        f.write(stripe.encode_table(t))
    monkeypatch.setattr(stripe, "_TAIL_GUESS", 512)
    reads = []
    read = dio.RangedReader.read

    def counted_read(self, offset, size):
        reads.append((offset, size))
        return read(self, offset, size)

    monkeypatch.setattr(dio.RangedReader, "read", counted_read)

    def decode_reads(**kw):
        reads.clear()
        got = stripe.decode_file(path, **kw)
        return got, list(reads)

    got, full = decode_reads()
    assert got.equals(t) and full == [(0, os.path.getsize(path))]
    got, projected = decode_reads(columns=["s"])
    assert got.equals(t.select(["s"])) and len(projected) > 1
    reads.clear()
    stripe.read_footer_from_file(path, 512)
    footer_reads = list(reads)
    got, point = decode_reads(columns=["s"], predicate=("i", "==", 10**9))
    assert got.num_rows == 0 and point == footer_reads


def test_reference_fixture_values_roundtrip():
    """Golden cross-check (SURVEY.md §5.2): pyarrow.orc's decode of the
    Apache ORC corpus files is the oracle; encoding those same values
    through our stripe format must reproduce them bit-identically."""
    files = sorted(glob.glob(os.path.join(ORC_CORPUS, "*.orc")))
    assert len(files) >= 4, files  # an empty corpus must not pass
    for f in files:
        t = pa.orc.read_table(f)
        out = stripe.decode_table(stripe.encode_table(t))
        for c in t.column_names:
            assert out.column(c).equals(t.column(c)), (f, c)


def test_footer_metrics_present():
    """E17: codec choices + sizes are recorded per stream."""
    t = fixtures.webtext_table(300)
    footer = stripe.read_footer(stripe.encode_table(t))
    assert footer["n_rows"] == 300
    cols = {c["path"]: c for c in footer["columns"]}
    assert set(cols) == {"url", "warc_ts", "html", "text", "lang"}
    for c in cols.values():
        for smeta in c["streams"].values():
            assert {"offset", "size", "codec", "outer", "pre_outer_size"} <= set(smeta)
    assert "stats" in cols["warc_ts"] and cols["warc_ts"]["stats"]["null_count"] == 0


def test_empty_table():
    t = fixtures.webtext_table(5).slice(0, 0)
    out = stripe.decode_table(stripe.encode_table(t))
    assert out.num_rows == 0
    assert out.schema.equals(t.schema)


def test_all_null_columns():
    t = pa.table(
        {
            "a": pa.array([None, None, None], pa.int64()),
            "b": pa.array([None, None, None], pa.string()),
            "c": pa.array([None] * 3, pa.float64()),
        }
    )
    out = stripe.decode_table(stripe.encode_table(t))
    assert out.equals(t)


def test_encoder_state_reuse():
    """E16: a cached decision/table re-encodes later batches correctly and
    each stripe stays independently decodable."""
    state = stripe.EncoderState()
    t1 = fixtures.webtext_table(400, seed=1)
    t2 = fixtures.webtext_table(400, seed=2)
    b1 = stripe.encode_table(t1, state=state)
    b2 = stripe.encode_table(t2, state=state)
    assert stripe.decode_table(b1).equals(t1)
    assert stripe.decode_table(b2).equals(t2)


def test_truncated_blob_fails_loudly(tmp_path):
    """A half-written/truncated stripe file must raise, never return
    partial data (the manifest protocol means truncated blobs only exist
    without a manifest row, but decode must still refuse them)."""
    t = pa.table({"x": pa.array(range(1000), pa.int64())})
    blob = stripe.encode_table(t)
    p = str(tmp_path / "t.rstp")
    with open(p, "wb") as f:
        f.write(blob[: len(blob) // 2])
    with pytest.raises((ValueError, Exception)):
        stripe.decode_file(p)
    # corrupted tail magic
    with open(p, "wb") as f:
        f.write(blob[:-1] + b"X")
    with pytest.raises(ValueError):
        stripe.decode_file(p)


def test_empty_and_single_row_tables_roundtrip():
    t0 = pa.table({"a": pa.array([], pa.int64()), "s": pa.array([], pa.string())})
    assert stripe.decode_table(stripe.encode_table(t0)).equals(t0)
    t1 = pa.table({"a": pa.array([7], pa.int64()), "s": pa.array(["x"])})
    assert stripe.decode_table(stripe.encode_table(t1)).equals(t1)


def _split_write(out, t, target):
    """``t`` written by StripeEncoder.encode_split at ``target`` bytes;
    returns the pieces' manifest entries in row order."""
    from datafusion_orc_ray.stages.encode import StripeEncoder

    return StripeEncoder(str(out), target_stripe_bytes=target).encode_split(t)


def test_chunked_stripe_roundtrip_and_ranges(tmp_path):
    """A table above target_stripe_bytes is written as independently
    decodable stripes; each piece keeps its own exact stats, and the
    pieces' full and projected decodes concatenate to the input."""
    n = 20000
    t = pa.table(
        {
            "a": pa.array(range(n), pa.int64()),
            "s": pa.array([f"value-{i%321}-{'x'*(i%17)}" for i in range(n)]),
            "f": pa.array([float(i) * 0.5 for i in range(n)]),
        }
    )
    entries = _split_write(tmp_path / "t", t, t.nbytes // 4)
    assert len(entries) >= 4
    assert all(e["raw_bytes"] <= t.nbytes // 4 for e in entries)
    # per-piece stats are exact and tile the key range
    row = 0
    for e in entries:
        by = {c["path"]: c for c in stripe.read_footer_from_file(e["path"])["columns"]}
        assert by["a"]["stats"]["min"] == row
        row += e["n_rows"]
        assert by["a"]["stats"]["max"] == row - 1
    parts = [stripe.decode_file(e["path"]) for e in entries]
    assert pa.concat_tables(parts).equals(t)
    assert all(p.num_rows < n for p in parts)
    # projected piece decode
    proj = stripe.decode_file(entries[1]["path"], columns=["s"])
    assert proj.column_names == ["s"] and proj.num_rows == parts[1].num_rows
    # golden-fixture types survive splitting too
    ref = pa.orc.read_table(os.path.join(ORC_CORPUS, "TestOrcFile.test1.orc"))
    ref_entries = _split_write(tmp_path / "ref", ref, max(1, ref.nbytes // 3))
    assert len(ref_entries) > 1
    assert pa.concat_tables(stripe.decode_file(e["path"]) for e in ref_entries).equals(ref)


def test_chunked_stripe_file_ranged_decode(tmp_path):
    """A read of one piece touches only that piece's bytes (bounded
    peak IO per read task)."""
    n = 8000
    t = pa.table({"a": pa.array(range(n), pa.int64()),
                  "s": pa.array([f"w{i%57}" * 9 for i in range(n)])})
    entries = _split_write(tmp_path / "t", t, t.nbytes // 4)
    assert len(entries) >= 4
    one = stripe.decode_file(entries[0]["path"])
    assert one.equals(t.slice(0, one.num_rows))
    assert entries[0]["encoded_bytes"] < sum(e["encoded_bytes"] for e in entries) / 2


def test_chunk_level_predicate_pruning(tmp_path):
    """Row-group-style skipping (reference rowIndexStride parity) at
    stripe granularity: a predicate through StripeDatasource keeps only
    the pieces whose stats may match, and a fully pruned scan yields an
    empty, schema-correct table."""
    from datafusion_orc_ray.sources.datasource import StripeDatasource

    n = 12000
    t = pa.table({"a": pa.array(range(n), pa.int64()),
                  "s": pa.array([f"pad-{i%7}" * 20 for i in range(n)])})
    out = tmp_path / "t"
    entries = _split_write(out, t, t.nbytes // 6)
    k = len(entries)
    assert k >= 6
    # predicate hitting only the last piece
    cut = n - entries[-1]["n_rows"] // 2
    src = StripeDatasource(str(out), predicate=("a", ">=", cut))
    tasks = src.get_read_tasks(1)
    assert len(tasks) == 1
    assert tasks[0].metadata.input_files == [entries[-1]["path"]]
    got = pa.concat_tables(b for task in tasks for b in task())
    assert got.column("a").to_pylist() == list(range(cut, n))
    # fully-pruned predicate yields an empty, schema-correct table
    none = StripeDatasource(str(out), columns=["s"], predicate=("a", ">", n * 2))
    empty = [b for task in none.get_read_tasks(1) for b in task()]
    assert sum(b.num_rows for b in empty) == 0 and empty[0].column_names == ["s"]


def test_stream_crc_validation():
    """Every stream carries a CRC-32; validate_blob passes clean blobs
    (whole and split) and pinpoints the corrupted stream after a single
    byte flip, without ever decoding."""
    from datafusion_orc_ray.stages.encode import row_slices

    t = pq.read_table("/root/testdata/sf0.001/lineitem.parquet")
    pieces = row_slices(t, 1 << 18)
    assert len(pieces) > 1
    for piece in [t, pieces[0], pieces[-1]]:
        blob = stripe.encode_table(piece)
        r = stripe.validate_blob(blob)
        assert r["ok"] and r["n_checked"] == r["n_streams"] > 0
        bb = bytearray(blob)
        bb[len(bb) // 3] ^= 0xFF
        r2 = stripe.validate_blob(bytes(bb))
        assert not r2["ok"] and len(r2["bad"]) >= 1
        # corruption detection never raises, and the clean blob decodes
        assert stripe.decode_table(blob).equals(piece)


def test_corrupt_stream_raises_typed_error_naming_it(tmp_path):
    """A flipped byte inside any stream kind, or a truncated blob, makes
    decode_file raise StripeCorruptError naming the stripe, the column
    path and the stream kind — never return rows."""
    n = 2000
    t = pa.table(
        {
            "i": pa.array([None if i % 7 == 0 else i * 3 for i in range(n)], pa.int64()),
            "s": pa.array([f"text-{i * 7919 % 10007}" for i in range(n)]),
            "d": pa.array([i * 13 for i in range(n)], pa.decimal128(20, 2)),
            "k": pa.array([f"lang{i % 5}" for i in range(n)]),
        }
    )
    blob = stripe.encode_table(t)
    footer = stripe.read_footer(blob)
    streams = [x for c in footer["columns"] for x in stripe._walk_stream_metas(c)]
    kinds = {(cpath, kind) for cpath, kind, _ in streams}
    assert {("i", "present"), ("i", "data"), ("s", "lengths"), ("s", "data"),
            ("d", "data"), ("d", "extra"), ("k", "data")} <= kinds
    assert any(cpath == "k.dict" for cpath, _ in kinds)  # the dict child
    p = str(tmp_path / "x.rstp")
    for cpath, kind, s in streams:
        bb = bytearray(blob)
        bb[s["offset"] + s["size"] // 2] ^= 0x01
        with open(p, "wb") as f:
            f.write(bb)
        with pytest.raises(stripe.StripeCorruptError) as ei:
            stripe.decode_file(p)
        assert (ei.value.stripe, ei.value.column, ei.value.stream) == (p, cpath, kind)
        assert p in str(ei.value) and cpath in str(ei.value) and kind in str(ei.value)
        assert stripe.validate_blob(bytes(bb))["bad"] == [f"{cpath}/{kind}"]
    # a scan's read task names the file on its full and projected paths
    from datafusion_orc_ray.stages.decode import make_stripe_decoder

    cpath, kind, s = streams[0]
    bb = bytearray(blob)
    bb[s["offset"]] ^= 0x01
    with open(p, "wb") as f:
        f.write(bb)
    for cols in (None, [cpath]):
        with pytest.raises(stripe.StripeCorruptError) as ei:
            list(make_stripe_decoder(cols)(pa.table({"path": [p]})))
        assert (ei.value.stripe, ei.value.column, ei.value.stream) == (p, cpath, kind)
    for cut in (1, len(blob) // 2, len(blob) - 8):
        with open(p, "wb") as f:
            f.write(blob[:cut])
        with pytest.raises(stripe.StripeCorruptError) as ei:
            stripe.decode_file(p)
        assert (ei.value.stripe, ei.value.column, ei.value.stream) == (p, None, "footer")
    with pytest.raises(stripe.StripeCorruptError):
        stripe.decode_table(blob[: len(blob) // 2])
    # errors survive pickling (Ray ships task errors that way)
    import pickle

    again = pickle.loads(pickle.dumps(ei.value))
    assert (again.stripe, again.column, again.stream) == (ei.value.stripe, None, "footer")


def _write(path, blob: bytes) -> None:
    with open(path, "wb") as f:
        f.write(blob)


def test_footer_reuse_keys_on_the_footer_bytes(tmp_path):
    """A parsed footer is reused only through the ``(payload, footer)``
    pair a decode reports (``decode_file``'s ``footers``), and only for
    its own bytes: a verify passes for a byte-identical copy at another
    path and fails once the stripe is rewritten in place with other rows
    at the same size and mtime, which then decode. A plain read parses
    every time. A flipped footer or stream byte raises on a read and on
    a verify."""
    p, copy = str(tmp_path / "x.rstp"), str(tmp_path / "copy.rstp")
    t1 = pa.table({"a": pa.array(range(1000), pa.int64()), "s": [f"v{i % 7}" for i in range(1000)]})
    t2 = pa.table({"a": pa.array(range(1, 1001), pa.int64()), "s": [f"w{i % 7}" for i in range(1000)]})
    b1, b2 = stripe.encode_table(t1), stripe.encode_table(t2)
    assert len(b1) == len(b2) and b1 != b2
    flen = stripe.struct.unpack_from("<I", b1, len(b1) - len(stripe.MAGIC) - 4)[0]
    fstart = len(b1) - len(stripe.MAGIC) - 4 - flen
    _write(p, b1)
    first = stripe.read_footer_from_file(p)
    assert stripe.read_footer_from_file(p) is not first
    kept: list = []
    assert stripe.decode_file(p, footers=kept).equals(t1)
    ((path, payload, footer),) = kept
    assert (path, payload) == (p, b1[fstart : fstart + flen])
    _write(copy, b1)
    for cols in (None, ["s"]):
        assert stripe.decode_file(copy, columns=cols, verify=(payload, footer)) is True
    st = os.stat(p)
    _write(p, b2)
    os.utime(p, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert stripe.decode_file(p, verify=(payload, footer)) is False
    assert stripe.decode_file(p).equals(t2)
    assert stripe.decode_file(p, columns=["s"]).equals(t2.select(["s"]))

    stream = footer["columns"][0]["streams"]["data"]
    for at, where in ((fstart + flen // 2, (None, "footer")), (stream["offset"], ("a", "data"))):
        bad = bytearray(b1)
        bad[at] ^= 0x01
        _write(p, bytes(bad))
        for cols in (None, ["a"]):
            for check in (None, (payload, footer)):
                with pytest.raises(stripe.StripeCorruptError) as ei:
                    stripe.decode_file(p, columns=cols, verify=check)
                assert (ei.value.column, ei.value.stream) == where


# ------------------------------------------------ repeated reads of a stripe
# A repeat reads and parses the footer and decodes every column again:
# nothing of a stripe is kept between reads.


def _fresh_table(tag: int, n: int = 2000) -> pa.Table:
    base = 1_000_003 * tag
    return pa.table({
        "i": pa.array([None if j % 7 == 0 else base + 3 * j for j in range(n)], pa.int64()),
        "s": pa.array([f"text-{tag}-{j * 7919 % 10007}" for j in range(n)]),
        "k": pa.array([f"lang{tag}-{j % 5}" for j in range(n)]),  # a dict column
    })


def _fresh_file(tmp_path, tag: int, n: int = 2000):
    t = _fresh_table(tag, n)
    blob = stripe.encode_table(t)
    p = str(tmp_path / f"fresh{tag}.rstp")
    _write(p, blob)
    return p, t, blob


def _spy_decode_column(monkeypatch) -> list:
    calls, real = [], stripe.decode_column

    def spied(blob, cmeta, dtype):
        calls.append(cmeta["path"])
        return real(blob, cmeta, dtype)

    monkeypatch.setattr(stripe, "decode_column", spied)
    return calls


def _spy_parse_footer(monkeypatch) -> list:
    calls, real = [], stripe._parse_footer

    def spied(payload, name):
        calls.append(name)
        return real(payload, name)

    monkeypatch.setattr(stripe, "_parse_footer", spied)
    return calls


def test_store_stats_and_projections_share_kept_columns(tmp_path, monkeypatch):
    """The stripe module keeps no store: every decode_file, repeats
    included, parses the footer once and decodes exactly the projected
    columns."""
    assert not hasattr(stripe, "store_stats")
    p, t, _ = _fresh_file(tmp_path, 1)
    parsed = _spy_parse_footer(monkeypatch)
    calls = _spy_decode_column(monkeypatch)
    for cols in (["i", "s"], ["i", "s"], ["s"], ["s"]):
        calls.clear()
        parsed.clear()
        assert stripe.decode_file(p, columns=cols).equals(t.select(cols))
        assert (calls, parsed) == (cols, [p])
    calls.clear()
    assert stripe.decode_file(p).equals(t)
    assert calls == ["i", "s", "k", "k.dict"]  # the dict column's child too


def test_kept_column_of_a_stripe_rewritten_in_place(tmp_path):
    """A stripe rewritten in place with other rows, at the same size and
    mtime, decodes to its new rows on a projected repeat."""
    p = str(tmp_path / "x.rstp")
    t1 = pa.table({"a": pa.array(range(7000, 8000), pa.int64()), "s": [f"q{i % 7}" for i in range(1000)]})
    t2 = pa.table({"a": pa.array(range(7001, 8001), pa.int64()), "s": [f"r{i % 7}" for i in range(1000)]})
    b1, b2 = stripe.encode_table(t1), stripe.encode_table(t2)
    assert len(b1) == len(b2) and b1 != b2
    _write(p, b1)
    for _ in range(2):
        assert stripe.decode_file(p, columns=["s"]).equals(t1.select(["s"]))
    st = os.stat(p)
    _write(p, b2)
    os.utime(p, ns=(st.st_atime_ns, st.st_mtime_ns))
    for cols in (["s"], ["a", "s"]):
        assert stripe.decode_file(p, columns=cols).equals(t2.select(cols))


def test_kept_column_still_reads_and_checks_every_stream(tmp_path):
    """On a repeated read, a flipped byte in any stream, the dict child's
    included, raises StripeCorruptError naming the stripe, column and
    stream, on a projected and a full-width read."""
    p, t, blob = _fresh_file(tmp_path, 2, n=500)
    streams = [x for c in stripe.read_footer(blob)["columns"] for x in stripe._walk_stream_metas(c)]
    assert ("k.dict", "data") in {(cpath, kind) for cpath, kind, _ in streams}
    for cpath, kind, s in streams:
        for cols in ([cpath.split(".")[0]], None):
            _write(p, blob)
            want = t if cols is None else t.select(cols)
            for _ in range(2):
                assert stripe.decode_file(p, columns=cols).equals(want)
            bad = bytearray(blob)
            bad[s["offset"] + s["size"] // 2] ^= 0x01
            _write(p, bytes(bad))
            with pytest.raises(stripe.StripeCorruptError) as ei:
                stripe.decode_file(p, columns=cols)
            assert (ei.value.stripe, ei.value.column, ei.value.stream) == (p, cpath, kind)


def test_unified_schema_over_a_kept_column(tmp_path):
    """The unified schema's cast and null-fill run on every read, over the
    column as the stripe stores it: each repeat gives what decode_table
    gives."""
    n = 800
    t = pa.table({"a": pa.array(range(-31_000, -31_000 + n), pa.int32()), "s": [f"u{i % 3}" for i in range(n)]})
    blob = stripe.encode_table(t)
    p = str(tmp_path / "x.rstp")
    _write(p, blob)
    unified = pa.schema([("a", pa.int64()), ("s", pa.string()), ("z", pa.float64())])
    want = pa.table({"a": t.column("a").cast(pa.int64()), "z": pa.nulls(n, pa.float64())})
    assert stripe.decode_table(blob, ["a", "z"], unified).equals(want)
    for _ in range(3):
        assert stripe.decode_file(p, columns=["a", "z"], unified_schema=unified).equals(want)
        assert stripe.decode_file(p, columns=["a"]).equals(t.select(["a"]))
        assert stripe.decode_file(p, unified_schema=unified).equals(
            stripe.decode_table(blob, unified_schema=unified))


def test_bloom_pruned_lookup_over_kept_columns(tmp_path, monkeypatch):
    """A point lookup the footer bloom rules out returns the empty table,
    and decodes no column, after the stripe was read in full."""
    p, t, _ = _fresh_file(tmp_path, 3)
    for _ in range(2):
        assert stripe.decode_file(p, columns=["s", "i"]).equals(t.select(["s", "i"]))
    calls = _spy_decode_column(monkeypatch)
    got = stripe.decode_file(p, columns=["s", "i"], predicate=("i", "==", 5))
    assert got.num_rows == 0 and got.schema.equals(t.select(["s", "i"]).schema)
    assert calls == []


def test_column_store_weight_stays_within_its_bound():
    """util.BoundedStore, under the plan and result stores: it
    drops its least recently used entries to keep its weight within its
    bound, stores no value heavier than the bound, counts a ``get`` whose
    ``valid`` is false as a miss, and moves a hit's entry to the end."""
    store = BoundedStore(10)
    for k in range(6):
        store.put(k, k * 100, 4)
        assert 0 < store.weight <= store.bound
    assert list(store._items) == [4, 5]  # room for two: the oldest went first
    assert store.stats() == {"hits": 0, "misses": 0, "entries": 2, "weight": 8, "bound": 10}
    store.put("big", -1, 11)
    assert store.get("big") is None and store.stats()["entries"] == 2
    assert store.get(4, lambda v: v != 400) is None
    assert (store.hits, store.misses) == (0, 2)
    assert store.get(4) == 400 and list(store._items) == [5, 4]
    store.put(6, 600, 4)  # evicts 5, the least recently used now
    assert list(store._items) == [4, 6] and store.weight == 8
    assert (store.hits, store.misses) == (1, 2)


def test_decode_table_keeps_no_column(tmp_path, monkeypatch):
    """Decoding a blob in memory opens no file and parses the blob's
    footer once per call."""
    from datafusion_orc_ray import io as dio

    _, t, blob = _fresh_file(tmp_path, 4)
    parsed = _spy_parse_footer(monkeypatch)

    def no_file(path):
        raise AssertionError(f"opened {path}")

    monkeypatch.setattr(dio, "RangedReader", no_file)
    for cols in (None, ["s"], None):
        assert stripe.decode_table(blob, cols).equals(t if cols is None else t.select(cols))
    assert parsed == [stripe._IN_MEMORY] * 3


def test_threads_reading_the_same_stripes_get_equal_tables(tmp_path):
    """Threads decoding the same stripes, with a short switch interval,
    all get the source rows."""
    import sys
    import threading

    files = [_fresh_file(tmp_path, 20 + j, n=300) for j in range(3)]
    errors: list = []

    def run():
        try:
            for _ in range(10):
                for p, t, _ in files:
                    for cols in (None, ["s", "i"], ["k"]):
                        got = stripe.decode_file(p, columns=cols)
                        if not got.equals(t if cols is None else t.select(cols)):
                            errors.append((p, cols))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert errors == []


def _footer_body(blob: bytes) -> bytes:
    """The CRC-covered footer of ``blob``: JSON, bloom bits, JSON length."""
    flen = struct.unpack_from("<I", blob, len(blob) - len(stripe.MAGIC) - 4)[0]
    fstart = len(blob) - len(stripe.MAGIC) - 4 - flen
    return blob[fstart : fstart + flen - 4]


def _footer_json(blob: bytes) -> bytes:
    body = _footer_body(blob)
    return body[: struct.unpack("<I", body[-4:])[0]]


def _bloom_bits(blob: bytes) -> bytes:
    return _footer_body(blob)[len(_footer_json(blob)) : -4]


def _body(blob: bytes, footer_json: bytes) -> bytes:
    """``blob``'s footer body with its JSON replaced."""
    return footer_json + _bloom_bits(blob) + struct.pack("<I", len(footer_json))


def _sealed(blob: bytes, footer_json: bytes) -> bytes:
    """``blob`` with its footer JSON replaced and CRC-sealed again."""
    streams = blob[: len(blob) - len(stripe.MAGIC) - 8 - len(_footer_body(blob))]
    body = _body(blob, footer_json)
    return streams + body + struct.pack("<II", zlib.crc32(body), len(body) + 4) + stripe.MAGIC


def _padded(blob: bytes, pad: str) -> bytes:
    """The footer JSON of ``blob`` with a field the decoder ignores."""
    return json.dumps({**json.loads(_footer_json(blob)), "pad": pad}).encode()


def _crc_forged(js: bytes, crc: int, suffix: bytes = b"") -> bytes:
    """``js``, which ends in 64 '0' digits and '"}', with some digits
    made '1' so that the CRC-32 of ``js + suffix`` is ``crc``. CRC-32 is
    affine over GF(2): each digit flipped XORs a fixed vector into the
    CRC, so the digits come from Gaussian elimination over those
    vectors."""
    at, c0 = len(js) - 66, zlib.crc32(js + suffix)
    basis: dict[int, tuple[int, int]] = {}  # top bit -> (CRC delta, digits flipped)
    for j in range(64):
        flipped = bytearray(js)
        flipped[at + j] ^= 1
        vec, mask = zlib.crc32(bytes(flipped) + suffix) ^ c0, 1 << j
        while vec and vec.bit_length() - 1 in basis:
            bv, bm = basis[vec.bit_length() - 1]
            vec, mask = vec ^ bv, mask ^ bm
        if vec:
            basis[vec.bit_length() - 1] = (vec, mask)
    want, mask = crc ^ c0, 0
    while want:
        bv, bm = basis[want.bit_length() - 1]
        want, mask = want ^ bv, mask ^ bm
    out = bytearray(js)
    for j in range(64):
        out[at + j] ^= mask >> j & 1
    return bytes(out)


def test_kept_columns_follow_the_footer_not_its_crc(tmp_path):
    """Two stripes whose footers have the same CRC-32 and length but other
    bytes decode to their own rows at one path: a kept footer is served
    only for its own bytes."""
    (t1, b1), (t2, b2) = [(t, stripe.encode_table(t)) for t in (_fresh_table(5, 400), _fresh_table(6, 400))]
    width = max(len(_body(b, _padded(b, ""))) for b in (b1, b2))
    js1, js2 = [
        _padded(b, "x" * (width - len(_body(b, _padded(b, "")))) + "0" * 64) for b in (b1, b2)
    ]
    body1 = _body(b1, js1)
    js2 = _crc_forged(js2, zlib.crc32(body1), _bloom_bits(b2) + struct.pack("<I", len(js2)))
    body2 = _body(b2, js2)
    assert len(body1) == len(body2) and zlib.crc32(body1) == zlib.crc32(body2) and body1 != body2
    p = str(tmp_path / "x.rstp")
    _write(p, _sealed(b1, js1))
    for _ in range(2):
        assert stripe.decode_file(p, columns=["s"]).equals(t1.select(["s"]))
    _write(p, _sealed(b2, js2))
    assert stripe.decode_file(p, columns=["s"]).equals(t2.select(["s"]))
    assert stripe.decode_file(p).equals(t2)


def test_a_kept_answer_misses_on_a_forged_footer_of_its_crc(tmp_path):
    """A stripe rewritten in place with a footer of the same CRC-32 and
    length as the one a kept ``Catalog.sql`` answer was decoded under,
    but other bytes, misses that answer and gives the new rows."""
    import pyarrow.compute as pc

    from datafusion_orc_ray.sources.stripes import Catalog
    from datafusion_orc_ray.stages.encode import StripeEncoder
    from datafusion_orc_ray.state import manifest

    t1, t2 = _fresh_table(7, 400), _fresh_table(8, 400)
    out = str(tmp_path / "t")
    StripeEncoder(out).encode_split(t1)
    (entry,) = manifest.load_manifest(out)
    with open(entry["path"], "rb") as f:
        b1 = f.read()
    b2 = stripe.encode_table(t2)
    width = max(len(_body(b, _padded(b, ""))) for b in (b1, b2))
    js1, js2 = [
        _padded(b, "x" * (width - len(_body(b, _padded(b, "")))) + "0" * 64) for b in (b1, b2)
    ]
    body1 = _body(b1, js1)
    js2 = _crc_forged(js2, zlib.crc32(body1), _bloom_bits(b2) + struct.pack("<I", len(js2)))
    body2 = _body(b2, js2)
    assert len(body1) == len(body2) and zlib.crc32(body1) == zlib.crc32(body2) and body1 != body2
    _write(entry["path"], _sealed(b1, js1))
    cat = Catalog()
    cat.register_stripes("t", out)
    q = "SELECT count(*) AS n, sum(i) AS total, max(s) AS hi FROM t"

    def answer(t: pa.Table) -> dict:
        return {"n": [t.num_rows], "total": [pc.sum(t.column("i")).as_py()],
                "hi": [pc.max(t.column("s")).as_py()]}

    for result in ("stored", "reused"):
        assert cat.sql(q).to_pydict() == answer(t1)
        assert cat.last_pushdown["result"] == result
    _write(entry["path"], _sealed(b2, js2))
    for result in ("stored", "reused"):
        assert cat.sql(q).to_pydict() == answer(t2)
        assert cat.last_pushdown["result"] == result


def test_decimal256_sign_limbs_store_no_stream():
    """decimal256 values that fit 128 bits store limbs 2 and 3 as no
    stream (each only extends the sign of the limb below), for values of
    both signs and with nulls; a value that needs limb 2 keeps its
    stream. Limbs 0 and 1 always keep theirs."""
    from decimal import Decimal

    rng = np.random.default_rng(5)
    vals = rng.integers(-10**14, 10**14, 5000)
    arr = pa.array(
        [None if i % 17 == 0 else Decimal(int(v)).scaleb(-2) for i, v in enumerate(vals)],
        pa.decimal256(50, 2),
    )
    t = pa.table({"d": arr.slice(0, 4990), "s": arr.slice(7, 4990)})  # and a sliced one
    blob = stripe.encode_table(t)
    assert stripe.decode_table(blob).equals(t)
    for cmeta in stripe.read_footer(blob)["columns"]:
        assert set(cmeta["streams"]) == {"present", "data", "extra"}
        assert cmeta["sign_limbs"] == [2, 3]
    wide = pa.table({"d": pa.array([Decimal(-(2**130)), Decimal(3), None], pa.decimal256(50, 0))})
    blob = stripe.encode_table(wide)
    assert stripe.decode_table(blob).equals(wide)
    (cmeta,) = stripe.read_footer(blob)["columns"]
    assert set(cmeta["streams"]) == {"present", "data", "extra", "extra2"}
    assert cmeta["sign_limbs"] == [3]


def test_validate_blob_garbage():
    from datafusion_orc_ray import stripe

    r = stripe.validate_blob(b"definitely not a stripe")
    assert not r["ok"] and r["bad"]


def _pinned_table() -> pa.Table:
    """6,000 rows, one column per encoder path whose bytes are pinned."""
    import duckdb
    from decimal import Decimal

    con = duckdb.connect()
    try:
        con.execute("CALL dbgen(sf=0.03)")
        names = con.execute("SELECT p_name FROM part ORDER BY p_partkey").arrow().column(0)
    finally:
        con.close()
    n = names.length()
    i = np.arange(n)
    rng = np.random.RandomState(7)
    vocab = np.array(["stripe", "column", "codec", "decode", "encode", "bloom", "footer",
                      "manifest", "symbol", "table", "zstd", "limb", "decimal", "runs"])
    modes = ["AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"]
    return pa.table({
        "sorted": pa.array(1000 + 3 * i, pa.int64()),
        "runs": pa.array(i // 50 % 7, pa.int64()),
        "mode": pa.array([None if k % 11 == 0 else modes[k % 7] for k in range(n)]),
        "name": names,  # short strings: FSST wins on 2,000-row stripes
        "text": pa.array([" ".join(vocab[rng.randint(0, vocab.size, 12)]) for _ in range(n)]),
        "ints": pa.array([list(range(k, k + k % 4)) for k in range(n)], pa.list_(pa.int64())),
        "price": pa.array([Decimal(k * 37 - 5000).scaleb(-2) for k in range(n)], pa.decimal128(12, 2)),
        # one value per stripe wider than 128 bits
        "wide": pa.array(
            [Decimal((-1) ** k * 10**60 + k) if k % 2000 == 5 else Decimal(k * 977 - 40_000)
             for k in range(n)],
            pa.decimal256(76, 0),
        ),
    })


# stripe, column path, stream kind, codec, outer codec, stored size, crc32
_PINNED_STREAMS = """
0 sorted data delta none 20 185cd3f5
0 runs data rle none 40 713c92fd
0 mode present bitpack zstd 30 d8d55b36
0 mode data dict+for_bp zstd 133 cb86dcef
0 mode.dict lengths for_bp none 15 b5cb703c
0 mode.dict data raw none 32 a36c3898
0 name lengths patched_for none 1225 50dc9e0f
0 name data fsst zstd 17721 754154ec
0 text lengths for_bp none 1263 b166ef99
0 text data raw zstd 32041 ac682d4d
0 ints lengths for_bp zstd 26 e7b11d3e
0 ints.item data rle zstd 40 c9ff0233
0 price data delta none 20 b521ce9c
0 price extra rle none 29 b4e79064
0 wide data for_bp zstd 5268 27f033f5
0 wide extra rle none 44 ebe6a826
0 wide extra2 rle none 54 e2b6b949
0 wide extra3 rle none 35 e5395ccc
1 sorted data delta none 20 0e16124b
1 runs data rle none 40 10aa0cf9
1 mode present bitpack zstd 30 9859a7e1
1 mode data dict+for_bp zstd 124 e83ada71
1 mode.dict lengths for_bp none 15 a7437ad9
1 mode.dict data raw none 32 1fa4311e
1 name lengths for_bp none 1263 76930ba3
1 name data fsst zstd 17954 b26462e6
1 text lengths for_bp none 1263 10c4e022
1 text data raw zstd 31981 7c24935e
1 ints lengths for_bp zstd 26 e7b11d3e
1 ints.item data rle zstd 41 e41ef901
1 price data delta none 20 ca6659ab
1 price extra for_bp none 12 76b8f5d5
1 wide data for_bp zstd 5301 2c7b8836
1 wide extra rle none 39 2ca775fb
1 wide extra2 rle none 39 fc92e7f0
1 wide extra3 rle none 33 8f2a520b
2 sorted data delta none 20 698f357d
2 runs data rle none 40 973f3ef4
2 mode present bitpack zstd 30 2f5b8ed4
2 mode data dict+for_bp zstd 130 1085c7d1
2 mode.dict lengths for_bp none 15 1b949e2c
2 mode.dict data raw none 32 1519bc0d
2 name lengths patched_for none 1231 18c9d700
2 name data fsst zstd 17878 efb65a7a
2 text lengths for_bp none 1263 597b3e0c
2 text data raw zstd 32023 7b0d8a5a
2 ints lengths for_bp zstd 26 e7b11d3e
2 ints.item data rle zstd 41 2aca0b32
2 price data delta none 20 f2bd6520
2 price extra for_bp none 12 76b8f5d5
2 wide data for_bp zstd 5293 fd337716
2 wide extra rle none 39 2ca775fb
2 wide extra2 rle none 39 fc92e7f0
2 wide extra3 rle none 33 8f2a520b
"""


def test_encoded_streams_are_pinned():
    """Three 2,000-row stripes through one encoder state store exactly
    these streams: a refactor of the encoder must not change one byte."""
    t = _pinned_table()
    state = stripe.EncoderState()
    got = []
    for s in range(3):
        piece = t.slice(s * 2000, 2000)
        blob = stripe.encode_table(piece, state=state)
        assert stripe.decode_table(blob).equals(piece)
        for cmeta in stripe.read_footer(blob)["columns"]:
            for path, kind, m in stripe._walk_stream_metas(cmeta):
                got.append(f"{s} {path} {kind} {m['codec']} {m['outer']} {m['size']} {m['crc32']:08x}")
    assert got == _PINNED_STREAMS.split("\n")[1:-1]


def test_an_rstp7_blob_is_refused_naming_its_format(tmp_path):
    """A blob in the previous layout (its footer JSON alone under the
    CRC, base64 blooms inside it) is refused as stale, naming rstp7."""
    import base64

    t = pa.table({"k": pa.array(range(500), pa.int64()), "s": pa.array([f"s{i}" for i in range(500)])})
    blob = stripe.encode_table(t)
    old = json.loads(_footer_json(blob))
    old["format"] = "rstp7"
    bits = _bloom_bits(blob)
    for c in old["columns"]:
        bl = c["bloom"]
        bl["b64"] = base64.b64encode(bits[bl.pop("offset") :][: bl.pop("nbytes")]).decode()
    js = json.dumps(old, separators=(",", ":")).encode()
    streams = blob[: len(blob) - len(stripe.MAGIC) - 8 - len(_footer_body(blob))]
    blob7 = streams + js + struct.pack("<II", zlib.crc32(js), len(js) + 4) + stripe.MAGIC
    p = str(tmp_path / "old.rstp")
    _write(p, blob7)
    for read in (lambda: stripe.read_footer(blob7), lambda: stripe.decode_file(p)):
        with pytest.raises(stripe.StripeCorruptError, match="format 'rstp7' != 'rstp8'") as ei:
            read()
        assert ei.value.stream == "footer"
    assert "'rstp7'" in stripe.validate_blob(blob7)["bad"][0]
