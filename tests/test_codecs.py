"""Round-trip property tests for the codec kernels (SURVEY.md §5:
adversarial arrays — empty, single value, runs, monotonic, outliers,
2^63 boundaries)."""

import zlib

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
    # the selector's estimate for the chosen codec is exact
    assert sizes[buf[0]] == len(buf)


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


# ---------------------------------------------------------------- pinned estimates

def _golden_array(name: str) -> np.ndarray:
    """A seeded array of one of the shapes the size formulas branch on."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    return np.asarray(_GOLDEN[name](rng), dtype=np.int64)


def _repeat_some(v, rng, k):
    """v with k values set to the one before them (runs of 1 or 2)."""
    v = v.copy()
    at = rng.integers(1, v.size, k)
    v[at] = v[at - 1]
    return v


_GOLDEN = {
    "empty": lambda r: [],
    "one": lambda r: [-(2**63)],
    "two": lambda r: [2**63 - 1, -(2**63)],
    "const": lambda r: np.full(300, 12345),
    "runs_of_one_few_repeats": lambda r: _repeat_some(r.integers(0, 2**20, 3000), r, 40),
    "dates_few_repeats": lambda r: _repeat_some(r.integers(8000, 10600, 3000), r, 3),
    "sorted_keys_runs": lambda r: np.sort(r.integers(1, 800, 3000)),
    "low_card_random": lambda r: r.integers(0, 7, 3000),
    "bits_0_1": lambda r: r.integers(0, 2, 3000),
    "long_runs": lambda r: np.repeat(r.integers(-(2**40), 2**40, 60), r.integers(1, 90, 60)),
    "divisor_100": lambda r: r.integers(100, 5001, 3000) // 100 * 100,
    "divisor_ns_seconds": lambda r: 1_600_000_000_000_000_000 + r.integers(0, 86400, 3000) * 10**9,
    "divisor_runs": lambda r: np.repeat(r.integers(0, 50, 500) * 7, 3),
    "outliers_patched": lambda r: np.where(
        r.random(3000) < 0.01, r.integers(2**30, 2**40, 3000), r.integers(0, 64, 3000)
    ),
    "outliers_with_runs": lambda r: _repeat_some(np.where(
        r.random(3000) < 0.02, r.integers(2**20, 2**50, 3000), r.integers(0, 16, 3000)
    ), r, 500),
    "int64_extremes": lambda r: r.choice(np.array([-(2**63), 2**63 - 1, 0, -1, 1], np.int64), 400),
    "full_range": lambda r: r.integers(-(2**63), 2**63 - 1, 500, endpoint=True),
    "wrapping_deltas": lambda r: np.array([-(2**63), 2**63 - 1] * 100 + [0] * 10, np.int64),
    "near_2_53": lambda r: 2**53 + r.integers(-3, 4, 1000),
    "small_deltas_mixed": lambda r: np.cumsum(r.integers(-2, 3, 3000)),
    "monotonic_unique": lambda r: np.cumsum(r.integers(1, 1000, 3000)),
    "lengths_geometric": lambda r: r.geometric(0.05, 2000),
    # PATCHED_FOR a byte or two above plain FOR: its rounding decides
    "patched_near_tie_3": lambda r: [7, 0, 0, 0, 5, 0, 5, 6, 0, 0, 0],
    "patched_near_tie_5": lambda r: [31, 0, 7, 22, 7, 3, 6, 2, 18, 24],
}

# estimate_sizes of each golden array, in codec order: the selector picks
# the first smallest, so a refactor of the size formulas must keep both
_PINNED_SIZES = {
    "empty": [("raw", 1)],
    "one": [("raw", 9), ("for_bp", 10), ("delta", 18)],
    "two": [("raw", 17), ("for_bp", 21), ("delta", 18), ("patched_for", 23)],
    "const": [("raw", 2401), ("for_bp", 10), ("delta", 18), ("rle", 22)],
    "runs_of_one_few_repeats": [("raw", 24001), ("for_bp", 7510), ("delta", 7891), ("rle", 7795)],
    "dates_few_repeats": [("raw", 24001), ("for_bp", 4510), ("delta", 4892), ("rle", 4894)],
    "sorted_keys_runs": [("raw", 24001), ("for_bp", 3760), ("delta", 1143), ("rle", 619)],
    "low_card_random": [("raw", 24001), ("for_bp", 1135), ("delta", 1518), ("rle", 1963)],
    "bits_0_1": [("raw", 24001), ("for_bp", 385), ("delta", 768), ("rle", 972)],
    "long_runs": [("raw", 22337), ("for_bp", 14319), ("delta", 14671), ("rle", 385)],
    "divisor_100": [("raw", 24001), ("for_bp", 2261), ("delta", 5267), ("rle", 2601)],
    "divisor_ns_seconds": [("raw", 24001), ("for_bp", 6390), ("delta", 18012)],
    "divisor_runs": [("raw", 12001), ("for_bp", 1136), ("delta", 1892), ("rle", 454)],
    "outliers_patched": [("raw", 24001), ("for_bp", 15010), ("delta", 15388), ("rle", 3090), ("patched_for", 2373)],
    "outliers_with_runs": [("raw", 24001), ("for_bp", 18760), ("delta", 19137), ("rle", 2642), ("patched_for", 2043)],
    "int64_extremes": [("raw", 3201), ("for_bp", 3210), ("delta", 3210), ("rle", 2501), ("patched_for", 3008)],
    "full_range": [("raw", 4001), ("for_bp", 4010), ("delta", 4010)],
    "wrapping_deltas": [("raw", 1681), ("for_bp", 1690), ("delta", 1690), ("rle", 978), ("patched_for", 1017)],
    "near_2_53": [("raw", 8001), ("for_bp", 385), ("delta", 518), ("rle", 563)],
    "small_deltas_mixed": [("raw", 24001), ("for_bp", 3010), ("delta", 1143), ("rle", 1558)],
    "monotonic_unique": [("raw", 24001), ("for_bp", 7885), ("delta", 4142)],
    "lengths_geometric": [("raw", 16001), ("for_bp", 2010), ("delta", 2267), ("rle", 2139), ("patched_for", 1668)],
    "patched_near_tie_3": [("raw", 89), ("for_bp", 15), ("delta", 23), ("rle", 28), ("patched_for", 18)],
    "patched_near_tie_5": [("raw", 81), ("for_bp", 17), ("delta", 25), ("patched_for", 20)],
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_estimate_sizes_are_pinned(name):
    sizes = I.estimate_sizes(_golden_array(name))
    assert [(I.codec_name(c), s) for c, s in sizes.items()] == [tuple(x) for x in _PINNED_SIZES[name]]
