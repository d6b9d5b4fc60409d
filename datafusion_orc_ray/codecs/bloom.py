"""Per-stripe Bloom filters for equality-predicate pruning.

ORC attaches optional bloom-filter indexes next to its row-group stats so
point lookups on high-cardinality columns (where min/max stats prune
nothing) can skip whole row groups before any column IO; the reference
inherits orc-rust's format but its shim never surfaces them. Here blooms
live in the STRIPE FOOTER — read via the existing tail-ranged footer
fetch — and deliberately NOT in the driver manifests: at 10^12-doc scale
a per-stripe bloom over a ~unique url column is tens of KB, which
belongs in the per-stripe metadata each ReadTask already fetches, not in
the manifest the driver materializes. The footer JSON holds each bloom's
``{m, k, hs, has_null, offset, nbytes}``; its bits are stored raw after
the JSON, inside the CRC-covered footer payload, and a parsed footer
carries them as ``bits`` (``stripe._parse_footer``).

Classic m-bit / k-probe filter with double hashing (Kirsch-Mitzenmacher):
probe_i = (h1 + i*h2) mod m, h2 forced odd. A footer bloom's m is
BITS_PER_KEY bits per distinct key rounded up to 64 bits (at least
MIN_BITS); a join prefilter's m is a power of two (``bits_for``), where
mod m is a mask. h1 is the repo's run-stable siphash (pandas) — the same
hash family the dedup and join stages rely on; h2 is a murmur3-fmix of
h1. 11 bits/key at k=7 gives ~0.5% false positives; false positives only
cost a wasted decode (the residual row filter keeps results exact),
false negatives are impossible.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# 11, not the textbook 10: at 10 a right-sized footer bloom let
# test_bloom.py's absent point-lookup probe through as a false positive
BITS_PER_KEY = 11
K = 7
MAX_DISTINCT = 1 << 17  # past this a useful bloom outgrows the footer
MIN_BITS = 1 << 10
_MAX_AVG_STR = 256  # same key-like-string gate as min/max stats


def _fmix64(h: np.ndarray) -> np.ndarray:
    """murmur3 finalizer: decorrelates h2 from h1."""
    h = h.copy()
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xC4CEB9FE1A85EC53)
    h ^= h >> np.uint64(33)
    return h


_hash_sentinel_cache: int | None = None


def _hash_sentinel() -> int:
    """Fingerprint of the RUNTIME hash function: the hash of one fixed
    probe value. Persisted footer blooms carry it so a reader whose
    pandas hash_array (algorithm or default hash_key) differs from the
    writer's detects the mismatch and declines to prune — without the
    tag a hash drift would return silent FALSE NEGATIVES and point
    lookups would drop existing rows. Runtime-only bitmap uses (join
    prefilters) hash and probe in one process and don't need it."""
    global _hash_sentinel_cache
    if _hash_sentinel_cache is None:
        import pandas as pd

        _hash_sentinel_cache = int(
            pd.util.hash_array(
                np.array(["__bloom_hash_sentinel__"], object), categorize=False
            )[0]
        )
    return _hash_sentinel_cache


def _hash_values(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # deferred: pandas costs ~0.36 s of import that every fresh Ray task
    # worker otherwise pays just to plan a decode (bloom probing is rare)
    import pandas as pd

    with np.errstate(over="ignore"):
        h1 = pd.util.hash_array(vals, categorize=False).astype(np.uint64)
        h2 = _fmix64(h1) | np.uint64(1)  # odd -> full-cycle double hashing
    return h1, h2


def _probe(h1: np.ndarray, h2: np.ndarray, i: int, m: int) -> np.ndarray:
    """Bit position of probe ``i`` per key: (h1 + i*h2) mod m, as a mask
    when m is a power of two (the same bits, ~6x cheaper than a uint64
    modulo)."""
    with np.errstate(over="ignore"):
        h = h1 + np.uint64(i) * h2
    return h & np.uint64(m - 1) if m & (m - 1) == 0 else h % np.uint64(m)


def _insert_probes(bits: np.ndarray, m: int, h1: np.ndarray, h2: np.ndarray) -> None:
    """Set the K double-hash probe bits for every key — the ONE insert
    loop shared by footer blooms (build) and join-prefilter partials
    (build_bits); a drifted copy would make filters and probes silently
    incompatible."""
    hit = np.zeros(m, bool)  # bit p is byte p >> 3, bit p & 7 (LSB first)
    for i in range(K):
        hit[_probe(h1, h2, i, m).astype(np.intp)] = True
    bits |= np.packbits(hit, bitorder="little")


def _normalize(arr: pa.Array) -> np.ndarray | None:
    """Column/probe values -> the exact representation that gets hashed
    (int64 for every integer width, strings as their UTF-8 bytes objects,
    which pandas hashes as it hashes the ``str``, without encoding each
    one). None = ineligible."""
    t = arr.type
    if pa.types.is_integer(t):
        if pa.types.is_unsigned_integer(t) and t.bit_width == 64:
            return None  # uint64 doesn't fit the int64 canonical form
        return arr.cast(pa.int64()).to_numpy(zero_copy_only=False)
    if pa.types.is_string(t):
        return arr.cast(pa.binary()).to_numpy(zero_copy_only=False)
    if pa.types.is_large_string(t):
        return arr.cast(pa.large_binary()).to_numpy(zero_copy_only=False)
    return None


def eligible(t: pa.DataType, nbytes: int = 0, n: int = 1) -> bool:
    """Type gate, checked BEFORE any unique pass: equality probes make
    sense for integers and key-like strings; floats/binary/temporal
    columns never get blooms (min/max stats already cover ranges)."""
    if pa.types.is_integer(t):
        return not (pa.types.is_unsigned_integer(t) and t.bit_width == 64)
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return nbytes // max(n, 1) <= _MAX_AVG_STR
    return False


def build(arr: pa.Array, distinct: pa.Array | None = None) -> dict | None:
    """Bloom dict for a stripe's column — ``{m, k, bits, has_null, hs}``
    with ``bits`` a uint8[m/8] array — or None when ineligible (type,
    width, or distinct-count gates). ``distinct``: the column's distinct
    non-null values when the caller has them (a dictionary column's
    dictionary), else one unique pass finds them; then one vectorized
    hash pass over the distincts."""
    if len(arr) == 0 or arr.null_count == len(arr):
        return None
    if not eligible(arr.type, arr.nbytes, len(arr)):
        return None
    if distinct is None:
        distinct = pc.unique(arr.drop_null())
    if len(distinct) > MAX_DISTINCT:
        return None
    vals = _normalize(distinct)
    if vals is None:
        return None
    # BITS_PER_KEY bits per distinct key, rounded up to 64 bits
    m = max(MIN_BITS, -(-len(distinct) * BITS_PER_KEY // 64) * 64)
    h1, h2 = _hash_values(vals)
    bits = np.zeros(m >> 3, np.uint8)
    _insert_probes(bits, m, h1, h2)
    return {"m": m, "k": K, "bits": bits, "has_null": arr.null_count > 0, "hs": _hash_sentinel()}


def bits_for(n_keys: int, max_bits: int = 1 << 24) -> int:
    """Join-prefilter bitmap size (a power of two, so partials of one
    join share it) for ~BITS_PER_KEY bits/key, capped —
    2^24 bits = 2 MiB, small enough to broadcast as join-prefilter
    state; past the cap the FP rate degrades gracefully (the filter
    stays conservative, never wrong)."""
    m = MIN_BITS
    while m < n_keys * BITS_PER_KEY and m < max_bits:
        m <<= 1
    return m


def build_bits(arr: pa.Array | pa.ChunkedArray, m: int) -> np.ndarray | None:
    """Partial bloom BITMAP (uint8[m/8]) over one batch of keys, for a
    FIXED m so partials from different batches OR-merge associatively
    (set-union of inserted keys == bitwise OR of bitmaps). None when the
    key type is ineligible. Null keys are skipped (SQL join semantics:
    NULL never matches)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    # TYPE-only gate — the per-chunk avg-length gate would vary across
    # batches, and partials that silently skip some batches' keys would
    # make the merged filter WRONG (false negatives). Long join keys
    # just cost hash time.
    if not eligible(arr.type):
        return None
    vals = _normalize(arr.drop_null())
    if vals is None:
        return None
    bits = np.zeros(m >> 3, np.uint8)
    if not len(vals):
        return bits
    h1, h2 = _hash_values(vals)
    _insert_probes(bits, m, h1, h2)
    return bits


def contains_many(bits: np.ndarray, m: int, arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Vectorized membership probe: bool mask per value (True = maybe
    present; null keys False — they can never join). One gather per
    probe round over the whole batch."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    out = np.zeros(len(arr), bool)
    valid = pc.is_valid(arr).to_numpy(zero_copy_only=False)
    vals = _normalize(arr.drop_null())
    if vals is None:
        # un-normalizable probe type (e.g. uint64 keys against an int64
        # filter): we cannot PROVE anything absent — the conservative
        # answer is "maybe present" for every valid value, not all-False
        # (which would silently drop every row of the join)
        out[valid] = True
        return out
    if not len(vals):
        return out
    h1, h2 = _hash_values(vals)
    hit = np.ones(len(vals), bool)
    for i in range(K):
        pos = _probe(h1, h2, i, m)
        byte = bits[(pos >> np.uint64(3)).astype(np.int64)]
        hit &= (byte >> (pos & np.uint64(7)).astype(np.uint8)) & 1 > 0
    out[valid] = hit
    return out


def may_contain(bloom: dict, val, col_type: pa.DataType) -> bool:
    """False only when the filter PROVES val absent from the stripe. Any
    normalization failure (type mismatch etc.) means 'cannot prune'."""
    if val is None:
        return bool(bloom.get("has_null", True))
    if bloom.get("hs") != _hash_sentinel():
        # writer hashed with a different pandas hash (or the bloom
        # predates the tag) — probing would be meaningless; never prune
        return True
    try:
        return bool(contains_many(bloom["bits"], bloom["m"], pa.array([val], type=col_type))[0])
    except (pa.ArrowInvalid, pa.ArrowTypeError, OverflowError):
        return True
