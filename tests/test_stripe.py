"""Stripe blob round-trip tests: every driver table, every fixture type,
golden cross-check vs the Apache ORC corpus files' value domain
(SURVEY.md §5: decoded columns bit-identical)."""

import glob
import io
import os

import numpy as np
import pyarrow as pa
import pyarrow.orc
import pyarrow.parquet as pq
import pytest

from datafusion_orc_ray import fixtures, stripe

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


def test_chunked_stripe_roundtrip_and_ranges():
    """Row-chunked stripes (VERDICT r2 missing #1): a table above
    chunk_bytes lays out as independently decodable chunks; full decode,
    projected decode, and per-chunk-range decode all agree."""
    import pyarrow.orc  # noqa: F401

    n = 20000
    t = pa.table(
        {
            "a": pa.array(range(n), pa.int64()),
            "s": pa.array([f"value-{i%321}-{'x'*(i%17)}" for i in range(n)]),
            "f": pa.array([float(i) * 0.5 for i in range(n)]),
        }
    )
    blob = stripe.encode_table(t, chunk_bytes=t.nbytes // 4)
    footer = stripe.read_footer(blob)
    assert stripe.n_chunks_of(footer) >= 4
    # merged stripe-level stats survive for pruning
    by = {c["path"]: c for c in footer["columns"]}
    assert by["a"]["stats"]["min"] == 0 and by["a"]["stats"]["max"] == n - 1
    assert by["a"]["merged"]
    # full decode == original
    assert stripe.decode_table(blob).equals(t)
    # chunk ranges partition the rows exactly
    k = stripe.n_chunks_of(footer)
    parts = [stripe.decode_table(blob, chunk_range=(i, i + 1)) for i in range(k)]
    assert pa.concat_tables(parts).equals(t)
    assert all(p.num_rows < n for p in parts)
    # projected chunk decode
    proj = stripe.decode_table(blob, columns=["s"], chunk_range=(1, 3))
    assert proj.column_names == ["s"]
    assert proj.num_rows == parts[1].num_rows + parts[2].num_rows
    # golden-fixture types survive chunking too
    ref = pa.orc.read_table(os.path.join(ORC_CORPUS, "TestOrcFile.test1.orc"))
    blob2 = stripe.encode_table(ref, chunk_bytes=max(1, ref.nbytes // 3))
    assert stripe.decode_table(blob2).equals(ref)


def test_chunked_stripe_file_ranged_decode(tmp_path):
    """decode_file with chunk_range reads only that chunk's stream bytes
    (bounded peak IO for split tasks)."""
    from datafusion_orc_ray import io as dio

    n = 8000
    t = pa.table({"a": pa.array(range(n), pa.int64()),
                  "s": pa.array([f"w{i%57}" * 9 for i in range(n)])})
    blob = stripe.encode_table(t, chunk_bytes=t.nbytes // 4)
    p = str(tmp_path / "c.rstp")
    open(p, "wb").write(blob)
    footer = stripe.read_footer(blob)
    k = stripe.n_chunks_of(footer)
    assert k >= 4
    one = stripe.decode_file(p, chunk_range=(0, 1))
    assert one.equals(t.slice(0, one.num_rows))
    # bounded IO: chunk stream bytes << whole blob
    ch0 = footer["chunks"][0]
    ch0_bytes = sum(s["size"] for c in ch0["columns"] for s in c["streams"].values())
    assert ch0_bytes < len(blob) / 2


def test_chunk_level_predicate_pruning(tmp_path):
    """Row-group-style skipping (reference rowIndexStride parity): a
    predicate decodes only the chunks whose stats may match, with
    bounded IO, and the merged stripe-level stats stay prunable."""
    from datafusion_orc_ray import io as dio

    n = 12000
    t = pa.table({"a": pa.array(range(n), pa.int64()),
                  "s": pa.array([f"pad-{i%7}" * 20 for i in range(n)])})
    blob = stripe.encode_table(t, chunk_bytes=t.nbytes // 6)
    footer = stripe.read_footer(blob)
    k = stripe.n_chunks_of(footer)
    assert k >= 6
    # merged stats survive bound-merging
    by = {c["path"]: c for c in footer["columns"]}
    assert by["a"]["stats"]["min"] == 0 and by["a"]["stats"]["max"] == n - 1
    # predicate hitting only the last chunk
    cut = n - n // k // 2
    got = stripe.decode_table(blob, predicate=("a", ">=", cut))
    # chunk pruning is conservative: superset of matching rows, residual
    # filter is the caller's job — but never MORE than one chunk's worth
    assert got.num_rows <= -(-n // k)
    assert min(got.column("a").to_pylist()) <= cut
    assert max(got.column("a").to_pylist()) == n - 1
    # ranged-file variant reads only the surviving chunks' bytes
    p = str(tmp_path / "c.rstp")
    open(p, "wb").write(blob)
    src = dio.RangedReader(p)
    out = stripe._decode_from(stripe.read_footer_from_file(p), src, None,
                              predicate=("a", ">=", cut))
    bytes_read = src.bytes_read
    src.close()
    assert out.num_rows == got.num_rows
    assert bytes_read < len(blob) / 3
    # fully-pruned predicate yields an empty, schema-correct table
    none = stripe.decode_table(blob, columns=["s"], predicate=("a", ">", n * 2))
    assert none.num_rows == 0 and none.column_names == ["s"]


def test_stream_crc_validation():
    """Every stream carries a CRC-32; validate_blob passes clean blobs
    (single- and multi-chunk) and pinpoints the corrupted stream after a
    single byte flip, without ever decoding."""
    import pyarrow.parquet as pq

    from datafusion_orc_ray import stripe

    t = pq.read_table("/root/testdata/sf0.001/lineitem.parquet")
    for chunk_bytes in (None, 1 << 18):
        blob = stripe.encode_table(t, chunk_bytes=chunk_bytes)
        r = stripe.validate_blob(blob)
        assert r["ok"] and r["n_checked"] == r["n_streams"] > 0
        bb = bytearray(blob)
        bb[len(bb) // 3] ^= 0xFF
        r2 = stripe.validate_blob(bytes(bb))
        assert not r2["ok"] and len(r2["bad"]) >= 1
        # corruption detection never raises, and decode of the CLEAN
        # blob is unaffected by the new footer key
        assert stripe.decode_table(blob).equals(t)


def test_validate_blob_garbage():
    from datafusion_orc_ray import stripe

    r = stripe.validate_blob(b"definitely not a stripe")
    assert not r["ok"] and r["bad"]
