"""Bloom-filter index tests: codec-level guarantees (no false negatives,
useful false-positive rate, eligibility gates) and end-to-end point-lookup
pruning through the stripe footer (ORC attaches optional bloom indexes next
to its row-group stats; the reference shim never surfaces them — here they
prune whole stripes on `==` predicates, SURVEY E13/S4)."""

import base64

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from datafusion_orc_ray import stripe
from datafusion_orc_ray.codecs import bloom


def test_no_false_negatives_ints():
    vals = list(range(0, 5000, 3)) + [-(2**62), 2**62, 0, -1]
    arr = pa.array(vals, pa.int64())
    bl = bloom.build(arr)
    assert bl is not None
    for v in vals:
        assert bloom.may_contain(bl, v, pa.int64())


def test_no_false_negatives_strings_and_fp_rate():
    vals = [f"https://host{i % 97}.example/p/{i}" for i in range(4000)]
    arr = pa.array(vals)
    bl = bloom.build(arr)
    assert bl is not None
    for v in vals[::7]:
        assert bloom.may_contain(bl, v, pa.string())
    absent = [f"https://other{i}.example/q/{i}" for i in range(1000)]
    fp = sum(bloom.may_contain(bl, v, pa.string()) for v in absent)
    assert fp < 50  # ~10 bits/key, k=7 -> <1% expected; 5% hard bound
    # a footer probe answers as the batch probe over the same bitmap
    bits = bl["bits"]
    probes = vals[::7] + absent
    batch = bloom.contains_many(bits, bl["m"], pa.array(probes))
    assert [bloom.may_contain(bl, v, pa.string()) for v in probes] == batch.tolist()


_STRS = ["", "abc", "héllo", "😀", "x" * 300]


def test_strings_hash_as_their_str_objects():
    """Strings hash through their UTF-8 bytes to the values pandas gives
    their ``str`` objects (ASCII, non-ASCII, emoji, empty and a 300-byte
    value, plain and large), so stored blooms, the hash sentinel and join
    prefilters keep their bits; one small bloom is pinned as stored."""
    import pandas as pd

    want = pd.util.hash_array(np.array(_STRS, object), categorize=False)
    for t in (pa.string(), pa.large_string()):
        got = pd.util.hash_array(bloom._normalize(pa.array(_STRS, t)), categorize=False)
        assert got.tolist() == want.tolist(), t
    bl = bloom.build(pa.array([*_STRS, None]))
    assert (bl["m"], bl["k"], bl["has_null"]) == (1024, 7, True)
    assert bl["bits"].tobytes() == base64.b64decode(
        "AACAAQAgAAAAAAAAEAAAAAgAAAAAAAAAAAAAAAEAABACAAAAAAAAAABAAAAAAQAAAIAIAAAAAAAgAAAAAgAA"
        "AAAAGCAAAAAQQCAAAAEAAAAAAAAAACAIBIAAAAAAAAAEAAAAAAAEBACAAQAAAAAABAAAEAACAAAAAABAAAIAAAA="
    )


def test_null_handling():
    arr = pa.array([1, None, 3], pa.int64())
    bl = bloom.build(arr)
    assert bl["has_null"] and bloom.may_contain(bl, None, pa.int64())
    bl2 = bloom.build(pa.array([1, 3], pa.int64()))
    assert not bloom.may_contain(bl2, None, pa.int64())
    assert bloom.build(pa.array([None, None], pa.int64())) is None


def test_eligibility_gates():
    assert bloom.build(pa.array([1.5, 2.5])) is None  # floats: never
    assert bloom.build(pa.array([2**63 - 1], pa.uint64())) is None
    long_strs = pa.array(["x" * 10_000] * 4)  # avg len > 256 gate
    assert bloom.build(long_strs) is None
    assert bloom.build(pa.array([], pa.int64())) is None
    # integer widths all normalize to the int64 canonical form
    bl = bloom.build(pa.array([7, 9], pa.int16()))
    assert bloom.may_contain(bl, 7, pa.int16())
    # probing with a mismatched-type value can't crash or prune wrongly
    assert bloom.may_contain(bl, "7", pa.int16()) in (True, False)


def test_footer_carries_bloom_and_manifest_does_not(ray_session, tmp_path):
    import json

    import pyarrow.parquet as pq

    from datafusion_orc_ray.pipelines import encode as ep
    from datafusion_orc_ray.state import manifest as man

    t = pa.table(
        {
            "k": pa.array([f"key{i}" for i in range(500)]),
            "v": pa.array(list(range(500)), pa.int64()),
        }
    )
    pq.write_table(t, f"{tmp_path}/in.parquet")
    out = f"{tmp_path}/enc"
    ep.encode_parquet(f"{tmp_path}/in.parquet", out, concurrency=1).take_all()
    entries = man.load_manifest(out)
    footer = stripe.read_footer_from_file(entries[0]["path"])
    by = {c["path"]: c for c in footer["columns"]}
    assert "bloom" in by["k"] and "bloom" in by["v"]
    for e in entries:  # driver metadata stays O(stats)
        for c in json.loads(e["columns_json"]):
            assert "bloom" not in c and "bloom" not in c.get("stats", {})


def test_point_lookup_prunes_whole_stripe(tmp_path):
    from datafusion_orc_ray import io as dio

    t = pa.table(
        {
            "url": pa.array([f"https://a{i}.net/{i}" for i in range(2000)]),
            "n": pa.array(list(range(2000)), pa.int64()),
        }
    )
    blob = stripe.encode_table(t)
    p = str(tmp_path / "s.rstp")
    open(p, "wb").write(blob)
    # absent value inside the [min,max] range: stats can't prune, bloom can
    probe = "https://a1.net/zzz"
    assert t.column("url").index(probe).as_py() == -1
    mn, mx = pc.min_max(t.column("url")).values()
    assert mn.as_py() <= probe <= mx.as_py()
    src = dio.RangedReader(p)
    out = stripe._decode_from(
        stripe.read_footer_from_file(p), src, None, predicate=("url", "==", probe)
    )
    bytes_read = src.bytes_read
    src.close()
    assert out.num_rows == 0
    assert out.schema.names == ["url", "n"]
    assert bytes_read < 0.1 * len(blob)  # footer only — no column streams
    # present value: decode proceeds and the residual filter stays exact
    got = stripe.decode_file(p, predicate=("url", "==", "https://a7.net/7"))
    got = got.filter(pc.equal(got.column("url"), "https://a7.net/7"))
    assert got.num_rows == 1 and got.column("n").to_pylist() == [7]


def test_point_lookup_prunes_chunks(tmp_path):
    # a small target_stripe_bytes -> many stripes; a probe present in
    # exactly one of them must decode only the stripes that may hold it
    import numpy as np

    from datafusion_orc_ray.sources.datasource import StripeDatasource
    from datafusion_orc_ray.stages.encode import StripeEncoder

    n = 20_000
    t = pa.table({"a": pa.array(list(range(n)), pa.int64())})
    out = str(tmp_path / "sorted")
    entries = StripeEncoder(out, target_stripe_bytes=16_000).encode_split(t)
    assert len(entries) > 4
    # pieces are range-partitioned here, so min/max stats prune all but one
    src = StripeDatasource(out, predicate=("a", "==", 12_345))
    tasks = src.get_read_tasks(1)
    assert len(tasks) == 1
    assert [b for task in tasks for b in task()][0].column("a").to_pylist() == [12_345]
    # shuffled data defeats stats but not the bloom
    rng = np.random.default_rng(42)
    vals = rng.permutation(n).astype(np.int64)
    out2 = str(tmp_path / "shuffled")
    entries2 = StripeEncoder(out2, target_stripe_bytes=16_000).encode_split(
        pa.table({"a": pa.array(vals)})
    )
    absent = n + 5  # outside -> stats prune every piece
    assert StripeDatasource(out2, predicate=("a", "==", absent)).get_read_tasks(1)[0].metadata.num_rows == 0
    # every value is present exactly once -> no false negative ever, and
    # the footer bloom skips the pieces that lack it before any stream read
    probe = int(vals[777])
    src2 = StripeDatasource(out2, predicate=("a", "==", probe))
    assert len(src2.get_read_tasks(1)) == len(entries2)
    decoded = [
        stripe.decode_file(e["path"], predicate=("a", "==", probe)).num_rows for e in entries2
    ]
    assert sum(1 for d in decoded if d) == 1
    got = [b for task in src2.get_read_tasks(1) for b in task()]
    assert pa.concat_tables(got).column("a").to_pylist() == [probe]


def test_build_bits_or_merge_and_contains_many():
    """Partial bitmaps OR-merge to exactly the single-pass filter; probes
    have no false negatives; null probes are False (never join)."""
    import numpy as np

    keys = pa.array([f"k{i}" for i in range(10_000)])
    m = bloom.bits_for(10_000)
    whole = bloom.build_bits(keys, m)
    merged = np.zeros_like(whole)
    for s in range(0, 10_000, 17):
        merged |= bloom.build_bits(keys.slice(s, 17), m)
    assert np.array_equal(whole, merged)
    probe = pa.array([f"k{i}" for i in range(0, 10_000, 13)] + [None, "absent"])
    got = bloom.contains_many(merged, m, probe)
    assert got[:-2].all()  # no false negatives
    assert not got[-2]  # null never joins
    absent = pa.array([f"zz{i}" for i in range(2000)])
    assert bloom.contains_many(merged, m, absent).mean() < 0.05
    # floats are ineligible as prefilter keys
    assert bloom.build_bits(pa.array([1.5]), m) is None


def test_hash_join_bloom_prefilter_equivalence(ray_session):
    """bloom_prefilter is an optimization only: identical results for
    inner/semi/anti on a selective large-large join with null keys and
    a hot key."""
    import numpy as np
    import ray.data

    from datafusion_orc_ray.pipelines import relational as rel

    rng = np.random.default_rng(7)
    n = 20_000
    lk = rng.integers(0, 5000, n).tolist()
    lk[0] = None
    lk[1:4000] = [42] * 3999  # hot key
    left = pa.table({"k": pa.array(lk, pa.int64()), "lv": pa.array(range(n), pa.int64())})
    # right: only keys 0..99 -> highly selective
    right = pa.table(
        {"k": pa.array(list(range(100)) * 3, pa.int64()),
         "rv": pa.array(range(300), pa.int64())}
    )
    for jt in ("inner", "left semi", "left anti"):
        plain = rel.collect(
            rel.hash_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                          "k", "k", join_type=jt, broadcast_rows=0)
        )
        pre = rel.collect(
            rel.hash_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                          "k", "k", join_type=jt, broadcast_rows=0,
                          bloom_prefilter=True)
        )
        sort_cols = [(c, "ascending") for c in plain.column_names]
        assert plain.sort_by(sort_cols).equals(pre.sort_by(sort_cols)), jt


def test_footer_bloom_is_right_sized_with_no_false_negatives():
    """m is the smallest multiple of 64 bits that is at least
    BITS_PER_KEY (>= 10) bits per distinct key and at least MIN_BITS;
    every key is found, and at n = 10k under 2% of 10k absent probes
    pass."""
    assert bloom.BITS_PER_KEY >= 10
    for n in (1, 5, 93, 94, 100, 1000, 4097, 10_000):
        bl = bloom.build(pa.array(range(0, 3 * n, 3), pa.int64()))
        want = max(bloom.MIN_BITS, bloom.BITS_PER_KEY * n)
        assert bl["m"] % 64 == 0 and want <= bl["m"] < want + 64, (n, bl["m"])
        assert bl["bits"].nbytes * 8 == bl["m"]
    keys = pa.array([f"key-{i}" for i in range(10_000)])
    bl = bloom.build(keys)
    assert bloom.contains_many(bl["bits"], bl["m"], keys).all()
    absent = pa.array([f"absent-{i}" for i in range(10_000)])
    assert bloom.contains_many(bl["bits"], bl["m"], absent).mean() <= 0.02


def test_dictionary_column_takes_stats_and_bloom_from_its_dictionary():
    """A dictionary-encoded string column's footer stats and bloom bits
    equal those of the column's own passes."""
    col = pa.array([None if i % 13 == 0 else f"mode-{i % 7}" for i in range(5000)])
    footer = []
    stripe.encode_table(pa.table({"m": col}), footers=footer)
    cmeta = footer[0]["columns"][0]
    assert cmeta["enc"] == "dict"
    assert cmeta["stats"] == stripe._stats(col)
    want = bloom.build(col)
    got = cmeta["bloom"]
    assert (got["m"], got["has_null"]) == (want["m"], want["has_null"])
    assert np.array_equal(got["bits"], want["bits"])


def test_a_flipped_bloom_bit_raises_footer_corrupt(tmp_path):
    """The bloom bits sit inside the CRC-covered footer payload: one
    flipped byte there is a corrupt footer to decode_file, validate_blob
    and the scan decoder."""
    import struct

    from datafusion_orc_ray.stages.decode import make_stripe_decoder

    t = pa.table({"k": pa.array([f"key{i}" for i in range(3000)]), "v": pa.array(range(3000))})
    blob = stripe.encode_table(t)
    footer = stripe.read_footer(blob)
    bl = footer["columns"][0]["bloom"]
    body_len = struct.unpack_from("<I", blob, len(blob) - len(stripe.MAGIC) - 4)[0] - 4
    body_start = len(blob) - len(stripe.MAGIC) - 8 - body_len
    jlen = struct.unpack_from("<I", blob, body_start + body_len - 4)[0]
    at = body_start + jlen + bl["offset"] + bl["nbytes"] // 2
    assert blob[at] == bl["bits"][bl["nbytes"] // 2]
    bad = bytearray(blob)
    bad[at] ^= 0x10
    p = str(tmp_path / "bad.rstp")
    open(p, "wb").write(bytes(bad))
    for read in (
        lambda: stripe.decode_file(p),
        lambda: stripe.decode_file(p, predicate=("k", "==", "key7")),
        lambda: list(make_stripe_decoder(predicate=("k", "==", "key7"))(pa.table({"path": [p]}))),
    ):
        with pytest.raises(stripe.StripeCorruptError) as ei:
            read()
        assert (ei.value.stripe, ei.value.column, ei.value.stream) == (p, None, "footer")
    audit = stripe.validate_blob(bytes(bad))
    assert not audit["ok"] and audit["bad"][0].startswith("footer: ")
    assert "CRC-32 mismatch" in audit["bad"][0]
