"""Round-trip property tests for the codec kernels (SURVEY.md §5:
adversarial arrays — empty, single value, runs, monotonic, outliers,
2^63 boundaries)."""

import numpy as np
import pytest

from datafusion_orc_ray.codecs import integers as I
from datafusion_orc_ray.codecs.bitpack import (
    pack_bits,
    read_uvarint,
    unpack_bits,
    write_uvarint,
    zigzag_decode,
    zigzag_encode,
)

rng = np.random.default_rng(42)

INT_CASES = {
    "empty": np.empty(0, np.int64),
    "one": np.array([42], np.int64),
    "const": np.full(1000, -7, np.int64),
    "monotonic": np.cumsum(rng.integers(0, 120_000_000, 10_000)).astype(np.int64),
    "runs": np.repeat(rng.integers(-5, 5, 100), rng.integers(1, 50, 100)).astype(np.int64),
    "outliers": np.where(
        rng.random(5000) < 0.02,
        rng.integers(-(2**62), 2**62, 5000),
        rng.integers(0, 100, 5000),
    ).astype(np.int64),
    "extremes": np.array([-(2**63), 2**63 - 1, 0, -1, 1, -(2**63), 2**63 - 1], np.int64),
    "random_full_range": rng.integers(-(2**63), 2**63 - 1, 3000, dtype=np.int64),
    "neg_monotonic": -np.cumsum(rng.integers(0, 1000, 1000)).astype(np.int64),
    "alternating": np.tile([0, 2**40], 500).astype(np.int64),
}


@pytest.mark.parametrize("name", list(INT_CASES))
def test_int_roundtrip_every_codec(name):
    v = INT_CASES[name]
    for codec in I.estimate_sizes(v):
        buf = I.encode_ints_with(v, codec)
        assert np.array_equal(I.decode_ints(buf, v.size), v), I.codec_name(codec)


@pytest.mark.parametrize("name", list(INT_CASES))
def test_int_auto_select_roundtrip_and_estimates(name):
    v = INT_CASES[name]
    sizes = I.estimate_sizes(v)
    buf = I.encode_ints(v)
    assert np.array_equal(I.decode_ints(buf, v.size), v)
    # the selector's estimate for the chosen codec is byte-accurate (+/- varint slack)
    assert abs(sizes[buf[0]] - len(buf)) <= 4


@pytest.mark.parametrize("width", [0, 1, 3, 7, 8, 9, 13, 16, 24, 27, 33, 48, 63, 64])
def test_bitpack_widths(width):
    n = 1000
    hi = (1 << width) if width < 64 else (1 << 64)
    v = rng.integers(0, hi, n, dtype=np.uint64) if width else np.zeros(n, np.uint64)
    buf = pack_bits(v, width)
    assert len(buf) == (n * width + 7) // 8
    assert np.array_equal(unpack_bits(buf, width, n), v)


def _reference_pack(values, width: int) -> bytes:
    """The stored bit-stream format, one value at a time: each value's
    low ``width`` bits MSB first, values back to back, zero bits pad
    the last byte."""
    acc = 0
    for v in values:
        acc = (acc << width) | (int(v) & ((1 << width) - 1))
    nbits = len(values) * width
    pad = -nbits % 8
    return (acc << pad).to_bytes((nbits + pad) // 8, "big")


@pytest.mark.parametrize("width", range(1, 65))
def test_bitpack_matches_the_stored_format(width):
    """pack_bits/unpack_bits output is persisted: every width and length
    (the 1-bit path, the 8-value group path, partial groups and last
    bytes) matches the value-at-a-time reference, and
    values wider than ``width`` keep their low bits."""
    for n in (1, 2, 7, 8, 9, 100, 1001):
        wide = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
        wide[0] = np.uint64(2**64 - 1)
        v = wide & np.uint64((1 << width) - 1) if width < 64 else wide
        ref = _reference_pack(v.tolist(), width)
        assert pack_bits(v, width) == ref, n
        assert pack_bits(wide, width) == ref, n
        assert np.array_equal(unpack_bits(ref, width, n), v), n
        assert np.array_equal(unpack_bits(ref + b"\xff" * 9, width, n), v), n


def test_widths_of_is_exact_at_float_rounding():
    """Widths come from float64 exponents, which round up above 2^53."""
    vals = [0, 1, 2, 3] + [x for k in range(1, 65) for x in ((1 << k) - 1, 1 << (k - 1), (1 << (k - 1)) + 1)]
    vals += rng.integers(0, 2**64, 2000, dtype=np.uint64, endpoint=False).tolist()
    got = I._widths_of(np.array(vals, dtype=np.uint64))
    assert got.tolist() == [int(x).bit_length() for x in vals]


def _reference_bloom_bits(vals: np.ndarray, m: int) -> np.ndarray:
    """The bloom insert as one np.bitwise_or.at per probe round, each
    probe reduced mod m."""
    from datafusion_orc_ray.codecs import bloom

    h1, h2 = bloom._hash_values(vals)
    bits = np.zeros(m >> 3, np.uint8)
    for i in range(bloom.K):
        with np.errstate(over="ignore"):
            pos = (h1 + np.uint64(i) * h2) % np.uint64(m)
        np.bitwise_or.at(
            bits, (pos >> np.uint64(3)).astype(np.int64),
            np.uint8(1) << (pos & np.uint64(7)).astype(np.uint8),
        )
    return bits


@pytest.mark.parametrize("n", [1, 100, 5000, 40_000])
def test_bloom_bitmaps_match_the_reference_insert(n):
    """Footer blooms are persisted and join partials OR-merge, so the
    scatter-and-packbits insert must set exactly the reference bits."""
    import pyarrow as pa

    from datafusion_orc_ray.codecs import bloom

    for arr in (
        pa.array(rng.integers(-(2**40), 2**40, n), pa.int64()),
        pa.array([f"k{x}" if x % 11 else None for x in rng.integers(0, 10**9, n)]),
    ):
        bl = bloom.build(arr)
        if bl is not None:
            want = _reference_bloom_bits(bloom._normalize(pa.compute.unique(arr.drop_null())), bl["m"])
            assert np.array_equal(bl["bits"], want)
        m = bloom.bits_for(n)
        want = _reference_bloom_bits(bloom._normalize(arr.drop_null()), m)
        assert np.array_equal(bloom.build_bits(arr, m), want)


def test_zigzag():
    v = np.array([0, -1, 1, -2, 2, 2**62, -(2**63), 2**63 - 1], np.int64)
    zz = zigzag_encode(v)
    assert np.array_equal(zigzag_decode(zz), v)
    assert zz[0] == 0 and zz[1] == 1 and zz[2] == 2 and zz[3] == 3


def test_uvarint():
    for x in [0, 1, 127, 128, 300, 2**31, 2**63]:
        buf = write_uvarint(x)
        val, pos = read_uvarint(buf)
        assert val == x and pos == len(buf)
