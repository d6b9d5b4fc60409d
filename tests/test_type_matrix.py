"""Full Arrow type matrix through the stripe format — a user of the
reference can bring any column type the shim's schema conversion covers
(SURVEY.md §1.2 + the extra public ORC spec types) plus Arrow-native
extras (large_*, fixed_size_*, unsigned, tz timestamps, dictionary)."""

import numpy as np
import pyarrow as pa
import pytest

from datafusion_orc_ray import stripe

CASES = {
    "large_string": pa.array(["a", None, "bb", ""], pa.large_string()),
    "large_binary": pa.array([b"x", None, b"yy"], pa.large_binary()),
    "large_list": pa.array([[1, 2], [3], None], pa.large_list(pa.int64())),
    "uint8": pa.array([0, 255, None], pa.uint8()),
    "uint16": pa.array([0, 65535, None], pa.uint16()),
    "uint32": pa.array([0, 2**32 - 1, None], pa.uint32()),
    "uint64": pa.array([0, 2**64 - 1, None], pa.uint64()),
    "time32_s": pa.array([1, None, 86399], pa.time32("s")),
    "time64_us": pa.array([1, None, 86399999999], pa.time64("us")),
    "duration_ms": pa.array([5, None, -5], pa.duration("ms")),
    "date64": pa.array([86400000, None, 0], pa.date64()),
    "timestamp_ns_tz": pa.array([1, 2, None], pa.timestamp("ns", tz="UTC")),
    "timestamp_s": pa.array([1, None, 10**9], pa.timestamp("s")),
    "float16": pa.array(np.array([1.5, 0], np.float16), mask=np.array([False, True])),
    "fixed_size_list": pa.array([[1.0, 2.0], None, [3.0, 4.0]], pa.list_(pa.float32(), 2)),
    "fixed_size_binary": pa.array([b"abcd", None, b"wxyz"], pa.binary(4)),
    "decimal_38": pa.array(
        [None, __import__("decimal").Decimal(10**35), -__import__("decimal").Decimal(10**35)],
        pa.decimal128(38, 2),
    ),
    "struct_nested": pa.array(
        [{"a": 1, "b": ["x"]}, None, {"a": None, "b": []}],
        pa.struct([("a", pa.int64()), ("b", pa.list_(pa.string()))]),
    ),
    "list_of_struct": pa.array(
        [[{"k": 1}], None, [{"k": None}, {"k": 3}]],
        pa.list_(pa.struct([("k", pa.int32())])),
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_type_roundtrip(name):
    t = pa.table({"c": CASES[name]})
    out = stripe.decode_table(stripe.encode_table(t))
    assert out.column("c").equals(t.column("c")), out.column("c")


# decode paths CASES lacks: a repeated short string takes the dictionary
# path, a long one the plain path, bool and int64 the bit-packed ones
MORE_CASES = {
    "dict_string": pa.array(["a", "bb", None, "ccc"]),
    "plain_string": pa.array(["x" * 100, None, "y" * 70]),
    "bool": pa.array([True, None, False, True]),
    "int64": pa.array([3, None, -(2**40), 2**62], pa.int64()),
    "float64": pa.array([0.5, None, -2.0], pa.float64()),
    "binary": pa.array([b"\x00", None, b"\xff\xfe"], pa.binary()),
}


@pytest.mark.parametrize("name", list(CASES) + list(MORE_CASES))
def test_type_roundtrip_sliced_with_nulls(name):
    """Each type repeated past the dictionary and float trials' row
    gates, nulls included, then sliced at an odd offset: the decode
    equals the input and passes Arrow's full validation (decode wraps
    numpy buffers without copying)."""
    col = pa.concat_arrays([{**CASES, **MORE_CASES}[name]] * 200).slice(7, 400)
    t = pa.table({"c": col})
    out = stripe.decode_table(stripe.encode_table(t)).column("c")
    out.validate(full=True)
    assert out.equals(t.column("c")), name


def test_dictionary_input_densified():
    """Dictionary-typed input columns are densified at ingest (E9 re-picks
    dict encoding per stripe); values round-trip exactly."""
    arr = pa.array(["a", "b", "a", None]).dictionary_encode()
    t = pa.table({"c": arr})
    out = stripe.decode_table(stripe.encode_table(t))
    assert out.column("c").type.equals(pa.string())
    assert out.column("c").equals(t.column("c").cast(pa.string()))


def test_union_roundtrip_dense_sparse_and_sliced():
    """Arrow unions (the last loud-fail type gap): dense and sparse round
    trip bit-identically, including through split row slices where the
    .type_codes/.offsets properties are not offset-adjusted."""
    import pyarrow as pa

    from datafusion_orc_ray import stripe

    ints = pa.array([5, 7, 9], pa.int64())
    strs = pa.array(["x", "y"], pa.string())
    dense = pa.UnionArray.from_dense(
        pa.array([0, 1, 0, 1, 0], pa.int8()),
        pa.array([0, 0, 1, 1, 2], pa.int32()),
        [ints, strs],
        field_names=["i", "s"],
    )
    t1 = pa.table({"u": dense})
    assert stripe.decode_table(stripe.encode_table(t1)).equals(t1)
    sparse = pa.UnionArray.from_sparse(
        pa.array([0, 1, 0, 1], pa.int8()),
        [pa.array([1, 2, 3, 4], pa.int64()), pa.array(["a", "b", "c", "d"])],
        field_names=["i", "s"],
    )
    t2 = pa.table({"u": sparse})
    assert stripe.decode_table(stripe.encode_table(t2)).equals(t2)
    # row slices from the stripe splitter preserve logical values
    from datafusion_orc_ray.stages.encode import row_slices

    t3 = pa.table({"u": dense, "pad": pa.array([b"x" * 200] * 5, pa.binary())})
    t4 = pa.table({"u": sparse, "pad": pa.array([b"y" * 200] * 4, pa.binary())})
    for t, target in ((t3, 400), (t4, 300)):
        pieces = row_slices(t, target)
        assert len(pieces) > 1
        out = pa.concat_tables(stripe.decode_table(stripe.encode_table(p)) for p in pieces)
        assert out.to_pydict() == t.to_pydict()
