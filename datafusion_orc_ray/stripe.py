"""Stripe blob format: self-describing encoded horizontal partition.

The Ray-Data-native equivalent of an ORC stripe + footer (SURVEY.md §1.1,
§2.3 E14): one blob per encoded batch, holding per-column streams
(PRESENT / DATA / LENGTHS / EXTRA / DICT..., mirroring the stream kinds
parsed from the reference fixtures' stripe footers) followed by a JSON
footer with the stream directory, per-column codec choices and sizes
(E17 metrics), per-column min/max/null-count stats (E13), and the
serialized Arrow schema, then the raw bits of each top-level column's
bloom filter (``codecs.bloom``). Layout::

    b"RSTP1" | stream bytes... | footer_json | bloom bits... | uint32 json_len
             | uint32 footer_crc32 | uint32 footer_len | b"RSTP1"

Decode is the exact inverse and reproduces every column bit-identically
(ORC round-trip contract, reference golden test src/lib.rs:194-207).
Column pruning on decode mirrors the shim's ProjectionMask pushdown
(src/physical_exec.rs:68-78): non-requested columns' streams are never
touched. Every stream carries the CRC-32 of its stored bytes, checked on
each read, and the footer's CRC-32 covers its JSON, bloom bits and JSON
length (``footer_len`` counts those and the CRC); bad bytes raise
``StripeCorruptError``.

Pure pyarrow/numpy — no Ray dependency; the Ray stages in
``datafusion_orc_ray.stages`` wrap these functions in ``map_batches``.
"""

from __future__ import annotations

import base64
import json
import struct
import zlib
from functools import lru_cache

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .codecs import bloom, bytes_codec, outer
from .codecs.bitpack import pack_bits, unpack_bools
from .codecs.integers import codec_name, decode_ints, encode_ints, encode_ints_with, estimate_sizes
from .predicate import may_match, normalize

MAGIC = b"RSTP1"
FORMAT = "rstp8"  # bump on any layout change: decode refuses older blobs
                  # loudly and cached encode dirs key on this string

# stream kinds (cf. ORC stream kinds PRESENT/DATA/LENGTH/SECONDARY/
# DICTIONARY_DATA observed in the reference fixtures)
PRESENT = "present"
DATA = "data"
EXTRA = "extra"  # decimal limb 1 / dense union value offsets
EXTRA2 = "extra2"  # decimal256 limb 2, unless it only extends limb 1's sign
EXTRA3 = "extra3"  # decimal256 limb 3 (highest), unless it only extends limb 2's sign
LENGTHS = "lengths"
_LIMB_STREAMS = (DATA, EXTRA, EXTRA2, EXTRA3)  # a decimal's int64 limbs, lowest first


class EncoderState:
    """Codec decisions of one encode job in one worker process (E16;
    ``stages.encode.job_state`` scopes it to the job's output dir), one
    store keyed by (column path, trial). An int codec is re-tried every
    ``REVALIDATE_EVERY`` stripes; a dictionary or bytes/FSST verdict
    after ``REVALIDATE_BYTES`` of column data (byte-based: clustered
    encodes emit many small stripes, and a per-stripe TTL made FSST
    training dominate wall time), so drifting data retrains instead of
    bloating. The store only saves trials: every stripe still embeds
    the symbol table it used, so stripes stay independently decodable
    (decode-state discipline, SURVEY.md §7 hard part d)."""

    REVALIDATE_EVERY = 16          # int codecs: stripes per trial
    REVALIDATE_BYTES = 256 << 20   # dict/bytes verdicts: column bytes per trial

    def __init__(self) -> None:
        self.decisions: dict[tuple[str, str], list] = {}  # key -> [decision, budget left]

    def decide(self, key: tuple[str, str], spend: int, budget: int, trial):
        """The decision stored under ``key`` while its budget lasts, each
        call spending ``spend`` of it; else ``trial(previous decision or
        None)``, stored with a fresh ``budget``."""
        cached = self.decisions.get(key)
        if cached is not None and cached[1] > 0:
            cached[1] -= spend
            return cached[0]
        decision = trial(None if cached is None else cached[0])
        self.decisions[key] = [decision, budget]
        return decision


# --------------------------------------------------------------------- helpers

def _validity(arr: pa.Array) -> tuple[bytes | None, int]:
    nulls = arr.null_count
    if nulls == 0:
        return None, 0
    return pack_bits(arr.is_valid().to_numpy(zero_copy_only=False), 1), nulls


def _np_nonnull_ints(arr: pa.Array) -> np.ndarray:
    """Non-null values as int64 (bit-exact for all integer/temporal types)."""
    t = arr.type
    v = arr.drop_null()
    if pa.types.is_timestamp(t) or pa.types.is_duration(t) or pa.types.is_time64(t):
        v = v.view(pa.int64())
    elif pa.types.is_date32(t) or pa.types.is_time32(t):
        v = v.view(pa.int32())
    elif pa.types.is_date64(t):
        v = v.view(pa.int64())
    elif pa.types.is_uint64(t):
        v = v.view(pa.int64())
    out = v.to_numpy(zero_copy_only=False)
    return out.astype(np.int64, copy=False) if out.dtype != np.int64 else out


def _raw_binary_parts(v: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    big = pa.types.is_large_string(v.type) or pa.types.is_large_binary(v.type)
    off_dtype = np.int64 if big else np.int32
    off_buf = v.buffers()[1]
    if off_buf is None or len(v) == 0:
        return np.empty(0, np.uint8), np.zeros(1, np.int64)
    offs = np.frombuffer(off_buf, dtype=off_dtype)[v.offset : v.offset + len(v) + 1].astype(np.int64)
    data_buf = v.buffers()[2]
    data = (
        np.frombuffer(data_buf, dtype=np.uint8)[offs[0] : offs[-1]]
        if data_buf is not None
        else np.empty(0, np.uint8)
    )
    return data, offs - offs[0]


def _binary_parts(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(concatenated value bytes, row_offsets int64) of non-null slots.

    Zero-copy fast path: when every null slot spans zero bytes (the
    normal Arrow layout), the data buffer already IS the concatenation of
    non-null values — only the (small) offsets need reshaping. Falls back
    to drop_null's copy only for arrays whose null slots own bytes."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if arr.null_count == 0:
        return _raw_binary_parts(arr)
    data, offs = _raw_binary_parts(arr)
    lengths = np.diff(offs)
    mask = arr.is_valid().to_numpy(zero_copy_only=False)
    if int(lengths[~mask].sum()) == 0:
        valid_lengths = lengths[mask]
        return data, np.concatenate([[0], np.cumsum(valid_lengths)]).astype(np.int64)
    return _raw_binary_parts(arr.drop_null())


def _scatter(values: np.ndarray, mask: np.ndarray | None, n: int, fill=0) -> np.ndarray:
    if mask is None:
        return values
    out = np.full((n,) + values.shape[1:], fill, dtype=values.dtype)
    out[mask] = values
    return out


def _arrow_validity_buffer(mask: np.ndarray | None) -> pa.Buffer | None:
    if mask is None:
        return None
    return pa.py_buffer(np.packbits(mask, bitorder="little"))


_STR_STAT_LIMIT = 48


def _inc_prefix(s: str, limit: int) -> str | None:
    """ORC/Parquet-style truncated UPPER bound: take a prefix then bump its
    last code point so the bound is >= every string sharing the prefix.
    Returns None when no representable bound exists (all-max code points) —
    callers must then treat the max as unbounded. A plain prefix is only
    safe for the LOWER bound (prefix <= full string); using it as a max
    silently pruned matching stripes (ADVICE r1, high)."""
    cps = list(s[:limit])
    while cps:
        o = ord(cps[-1])
        if o < 0x10FFFF:
            nxt = o + 1
            if 0xD800 <= nxt <= 0xDFFF:  # skip the surrogate gap
                nxt = 0xE000
            cps[-1] = chr(nxt)
            return "".join(cps)
        cps.pop()
    return None


def _temporal_unit(t: pa.DataType) -> str:
    if pa.types.is_timestamp(t):
        return t.unit  # "s" | "ms" | "us" | "ns"
    if pa.types.is_date32(t):
        return "date32"  # days
    return "date64"  # ms


def _stats(arr: pa.Array, distinct: pa.Array | None = None, ints: np.ndarray | None = None) -> dict:
    """Per-column min/max/null-count (E13). Contract for the pruning code
    in predicate.stats_may_match: ``min``/``max`` are EXACT values;
    ``min_bound``/``max_bound`` are safe outer bounds for truncated string
    stats (bound-only stats never appear in manifest_column_stats output).
    Temporal stats are epoch integers + a ``temporal_unit`` marker so the
    pruner can compare against datetime predicate values without the
    str-vs-datetime TypeError (ADVICE r1, medium). A string column's
    min/max come from ``distinct`` (its dictionary) when given, a
    temporal column's from ``ints`` (its ``_np_nonnull_ints``) when given."""
    st: dict = {"n": len(arr), "null_count": arr.null_count}
    t = arr.type
    try:
        if pa.types.is_integer(t) or pa.types.is_floating(t):
            mm = pc.min_max(arr)
            st["min"], st["max"] = mm["min"].as_py(), mm["max"].as_py()
        elif pa.types.is_timestamp(t) or pa.types.is_date(t):
            v = _np_nonnull_ints(arr) if ints is None else ints
            if v.size:
                st["min"], st["max"] = int(v.min()), int(v.max())
            st["temporal_unit"] = _temporal_unit(t)
        elif pa.types.is_string(t) or pa.types.is_large_string(t):
            # skip min/max for long-text columns: little pruning value,
            # real scan cost (E13 keeps stats for short/key-like strings)
            if len(arr) == 0 or arr.nbytes // max(len(arr), 1) <= 256:
                mm = pc.min_max(arr if distinct is None else distinct)
                mn, mx = mm["min"].as_py(), mm["max"].as_py()
                if mn is not None:
                    if len(mn) <= _STR_STAT_LIMIT:
                        st["min"] = mn
                    else:  # prefix is a valid (inexact) lower bound
                        st["min_bound"] = mn[:_STR_STAT_LIMIT]
                if mx is not None:
                    if len(mx) <= _STR_STAT_LIMIT:
                        st["max"] = mx
                    else:
                        ub = _inc_prefix(mx, _STR_STAT_LIMIT)
                        if ub is not None:
                            st["max_bound"] = ub
    except pa.ArrowNotImplementedError:
        pass
    return st


# --------------------------------------------------------------------- encode

def _planes(v: np.ndarray) -> np.ndarray:
    """Byte-stream split: byte i of every value in plane i."""
    return np.ascontiguousarray(v.view(np.uint8).reshape(-1, v.dtype.itemsize).T)


def _add(meta: dict, blobs: list, kind: str, smeta: dict, payload: bytes) -> None:
    meta.setdefault("streams", {})[kind] = smeta
    blobs.append((smeta, payload))


def _is_bytes(t: pa.DataType) -> bool:
    return (
        pa.types.is_string(t)
        or pa.types.is_large_string(t)
        or pa.types.is_binary(t)
        or pa.types.is_large_binary(t)
    )


def encode_column(
    arr: pa.Array,
    path: str,
    state: EncoderState,
    outer_codec: int = outer.ZSTD,
    index: bool = False,
) -> tuple[dict, list[tuple[dict, bytes]]]:
    """Encode one array. Returns (column_meta, [(stream_meta, bytes)]).

    ``stream_meta`` dicts are shared with ``column_meta["streams"]`` so the
    stripe assembler can patch in offsets/sizes after outer compression;
    they carry codec decisions + raw/encoded sizes for the manifest
    metrics (E17). Child columns own their stream directories.
    ``outer_codec`` is the stripe's outer codec, which the bytes codec
    and byte-stream-split trials compare sizes after. ``index`` adds
    the column's bloom filter as ``column_meta["bloom"]`` (a probe names
    a top-level column, so only ``encode_table``'s columns ask).
    """
    t = arr.type
    n = len(arr)
    meta: dict = {"path": path, "n": n, "streams": {}}
    blobs: list[tuple[dict, bytes]] = []
    present, null_count = _validity(arr)
    meta["null_count"] = null_count
    if present is not None:
        _add(meta, blobs, PRESENT, {"codec": "bitpack"}, present)
    dct = None
    if _is_bytes(t):
        data, offs = _binary_parts(arr)
        n_valid = offs.size - 1
        spend = int(data.size)

        # dictionary trial (E9): sample distinct ratio. Long values never
        # pay for a dictionary and hashing them is the trial's whole cost,
        # so the probe is gated on average length (the bytes codec's FSST
        # gate under zstd, too)
        def dict_pays(_) -> bool:
            if n_valid < 64 or data.size > bytes_codec.LONG_VALUE_BYTES * n_valid:
                return False
            sample = arr.drop_null().slice(0, min(4096, n_valid))
            return pc.count_distinct(sample).as_py() / len(sample) <= 0.4

        if state.decide((path, "dict"), spend, state.REVALIDATE_BYTES, dict_pays):
            dct = pc.dictionary_encode(arr.drop_null())
            if isinstance(dct, pa.ChunkedArray):
                dct = dct.combine_chunks()
    # a dictionary column's stats and bloom take its distinct values
    # from the dictionary: the column is not hashed again
    distinct = None if dct is None else dct.dictionary
    # an int or temporal column's values as int64, shared by its stats and its DATA stream
    is_int = pa.types.is_integer(t) or (pa.types.is_temporal(t) and not pa.types.is_interval(t))
    ints = _np_nonnull_ints(arr) if is_int else None
    meta["stats"] = (
        _stats(arr, distinct, ints) if not pa.types.is_nested(t) else {"n": n, "null_count": null_count}
    )
    if index:
        bl = bloom.build(arr, distinct)
        if bl is not None:
            meta["bloom"] = bl

    if pa.types.is_null(t):
        meta["enc"] = "null"
        return meta, blobs

    if pa.types.is_boolean(t):
        vals = arr.drop_null().to_numpy(zero_copy_only=False)
        meta["enc"] = "bool_bitpack"
        _add(meta, blobs, DATA, {"codec": "bitpack"}, pack_bits(vals, 1))
        return meta, blobs

    if is_int:
        trial = []  # this stripe's sizes when it runs the trial: the winner encodes from them

        def smallest(_) -> int:
            trial.append(estimate_sizes(ints))
            return trial[0].best

        codec = state.decide((path, "int"), 1, state.REVALIDATE_EVERY, smallest)
        buf = trial[0].encode(codec) if trial else encode_ints_with(ints, codec)
        meta["enc"] = "int"
        _add(meta, blobs, DATA, {"codec": codec_name(buf[0]), "raw_size": 8 * ints.size}, buf)
        return meta, blobs

    if pa.types.is_floating(t):
        v = arr.drop_null().to_numpy(zero_copy_only=False)
        # byte-stream-split trial: grouping sign/exponent byte planes often
        # makes otherwise-incompressible floats compressible by the outer
        # codec (same role as ORC's DIRECT float stream + block codec, E6,
        # with the Parquet BYTE_STREAM_SPLIT idea applied per stripe).
        # With no outer codec both layouts store the same bytes: a tie
        # keeps plain
        use_bss = False
        if v.size >= 256:
            sample = v[: 16384 // v.dtype.itemsize]
            bss = outer.stored_size(_planes(sample), outer_codec)
            use_bss = bss < 0.95 * outer.stored_size(sample, outer_codec)
        if use_bss:
            meta["enc"] = "float_bss"
            _add(meta, blobs, DATA, {"codec": "bss"}, _planes(v))
        else:
            meta["enc"] = "float_raw"
            _add(meta, blobs, DATA, {"codec": "raw"}, v)  # buffer view, no copy
        return meta, blobs

    if pa.types.is_fixed_size_binary(t):
        # whole-buffer encode (all slots, null slots included verbatim)
        start = arr.offset * t.byte_width
        data = np.frombuffer(arr.buffers()[1], dtype=np.uint8)[
            start : start + len(arr) * t.byte_width
        ]
        meta["enc"] = "fixed_binary"
        _add(meta, blobs, DATA, {"codec": "raw", "raw_size": int(data.size)}, data)
        return meta, blobs

    if pa.types.is_fixed_size_list(t):
        child = arr.values.slice(arr.offset * t.list_size, len(arr) * t.list_size)
        child_meta, child_blobs = encode_column(child, path + ".item", state, outer_codec)
        meta["enc"] = "fixed_list"
        meta["list_size"] = t.list_size
        meta["children"] = [child_meta]
        blobs.extend(child_blobs)
        return meta, blobs

    if pa.types.is_decimal(t):
        # little-endian int64 limbs, one stream each through the int
        # codecs. A limb above the second that only extends the sign of
        # the limb below (every value fits under it) stores no stream:
        # ``sign_limbs`` lists it and decode rebuilds it
        v = arr.drop_null()
        limbs = t.bit_width // 64
        raw = np.frombuffer(v.buffers()[1], np.int64)[v.offset * limbs :][: len(v) * limbs]
        meta["enc"] = "decimal_limbs"
        for i, kind in enumerate(_LIMB_STREAMS[:limbs]):
            limb = raw[i::limbs]
            if i >= 2 and np.array_equal(limb, raw[i - 1 :: limbs] >> 63):
                meta.setdefault("sign_limbs", []).append(i)
                continue
            buf = encode_ints(limb)
            _add(meta, blobs, kind, {"codec": codec_name(buf[0])}, buf)
        return meta, blobs

    if _is_bytes(t):  # data, offs and the dictionary trial's dct: above
        if dct is not None:
            idx_np = dct.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            idx_buf = encode_ints(idx_np)
            meta["enc"] = "dict"
            meta["dict_size"] = len(dct.dictionary)
            _add(
                meta,
                blobs,
                DATA,
                {"codec": "dict+" + codec_name(idx_buf[0]), "raw_size": int(data.size)},
                idx_buf,
            )
            child_meta, child_blobs = encode_column(dct.dictionary, path + ".dict", state, outer_codec)
            meta["children"] = [child_meta]
            blobs.extend(child_blobs)
            return meta, blobs
        # plain: RAW vs FSST by sampled trial (E8/E16/E17). LENGTHS is
        # written only here — a dict column's lengths are recomputed
        # from the gathered dictionary values at decode, so persisting
        # them wasted stream bytes and a decode pass per dict stripe
        len_buf = encode_ints(np.diff(offs))
        _add(meta, blobs, LENGTHS, {"codec": codec_name(len_buf[0])}, len_buf)
        codec_id, table = state.decide(
            (path, "bytes"), spend, state.REVALIDATE_BYTES,
            lambda prev: bytes_codec.choose(data, offs, None if prev is None else prev[1], outer_codec),
        )
        payload = bytes_codec.encode(data, offs, codec_id, table)
        meta["enc"] = "plain"
        _add(
            meta,
            blobs,
            DATA,
            {"codec": bytes_codec.bytes_codec_name(codec_id), "raw_size": int(data.size)},
            payload,
        )
        return meta, blobs

    if pa.types.is_list(t) or pa.types.is_large_list(t):
        lengths = pc.list_value_length(arr).drop_null().to_numpy(zero_copy_only=False).astype(np.int64)
        len_buf = encode_ints(lengths)
        _add(meta, blobs, LENGTHS, {"codec": codec_name(len_buf[0])}, len_buf)
        child_meta, child_blobs = encode_column(pc.list_flatten(arr), path + ".item", state, outer_codec)
        meta["enc"] = "list"
        meta["children"] = [child_meta]
        blobs.extend(child_blobs)
        return meta, blobs

    if pa.types.is_map(t):
        as_list = arr.cast(pa.list_(pa.struct([("key", t.key_type), ("value", t.item_type)])))
        inner_meta, inner_blobs = encode_column(as_list, path + ".entries", state, outer_codec)
        meta["enc"] = "map_as_list"
        meta["children"] = [inner_meta]
        blobs.extend(inner_blobs)
        return meta, blobs

    if pa.types.is_struct(t):
        meta["enc"] = "struct"
        meta["children"] = []
        for i, field in enumerate(t):
            child_meta, child_blobs = encode_column(arr.field(i), path + "." + field.name, state, outer_codec)
            meta["children"].append(child_meta)
            blobs.extend(child_blobs)
        return meta, blobs

    if pa.types.is_dictionary(t):
        return encode_column(arr.cast(t.value_type), path, state, outer_codec, index)

    if pa.types.is_union(t):
        # unions carry no top-level validity in Arrow; streams are the
        # int8 type-code ids (+ int32 value offsets for dense), children
        # encoded recursively. Dense children keep their full length
        # (offsets index into them); sparse children are row-aligned.
        dense = t.mode == "dense"
        # read type codes / value offsets from the raw buffers with
        # explicit offset slicing: the .type_codes/.offsets properties are
        # NOT offset-adjusted on sliced arrays (they return the buffer
        # head), which silently corrupts encodes of sliced stripes
        tc = np.frombuffer(arr.buffers()[1], dtype=np.int8)[arr.offset : arr.offset + n]
        tc_buf = encode_ints(tc.astype(np.int64))
        _add(meta, blobs, DATA, {"codec": codec_name(tc_buf[0])}, tc_buf)
        if dense:
            offs_np = np.frombuffer(arr.buffers()[2], dtype=np.int32)[
                arr.offset : arr.offset + n
            ]
            off_buf = encode_ints(offs_np.astype(np.int64))
            _add(meta, blobs, EXTRA, {"codec": codec_name(off_buf[0])}, off_buf)
        meta["enc"] = "union_dense" if dense else "union_sparse"
        meta["children"] = []
        for i, field in enumerate(t):
            # field(i) IS offset-adjusted for sparse (row-aligned child)
            # and returns the full child for dense (offsets index into it)
            child = arr.field(i)
            if not dense and len(child) != n:
                child = child.slice(arr.offset, n)
            child_meta, child_blobs = encode_column(child, path + "." + field.name, state, outer_codec)
            meta["children"].append(child_meta)
            blobs.extend(child_blobs)
        return meta, blobs

    raise NotImplementedError(f"unsupported type {t} at {path}")


def encode_table(
    table: pa.Table,
    state: EncoderState | None = None,
    outer_codec: int = outer.ZSTD,
    footers: list | None = None,
) -> bytes:
    """Encode a pyarrow Table into one self-describing stripe blob.
    ``stages.encode.StripeEncoder`` bounds the table's size first.
    With no ``state`` every trial runs: a column path occurs once per
    table. ``footers`` (a list) gets the blob's footer, as
    ``read_footer`` would parse it."""
    if state is None:
        state = EncoderState()
    table = table.combine_chunks()
    parts: list[bytes] = [MAGIC]
    pos = len(MAGIC)
    columns_meta = []
    fields = []
    for name in table.column_names:
        col = table.column(name)
        # one chunk after combine_chunks: take it as is (a slice keeps its
        # offset), since concat_arrays would copy even a single chunk
        if col.num_chunks == 1:
            col = col.chunk(0)
        else:
            col = pa.concat_arrays(col.chunks) if col.num_chunks else pa.array([], type=col.type)
        # densify dictionary input (dict encoding is re-chosen per stripe
        # by the E9 trial); the footer schema records the value type
        if pa.types.is_dictionary(col.type):
            col = col.cast(col.type.value_type)
        fields.append(pa.field(name, col.type))
        # with its bloom-filter index for point-lookup pruning. Footer
        # only: the manifest writer copies path/enc/streams/stats and
        # drops it, keeping driver metadata O(stats) while each
        # ReadTask's footer fetch gets the filter
        cmeta, blobs = encode_column(col, name, state, outer_codec, index=True)
        for smeta, payload in blobs:
            framed_parts = outer.compress_auto(payload, outer_codec)
            framed_len = sum(len(p) for p in framed_parts)
            smeta["offset"] = pos
            smeta["size"] = framed_len
            smeta["pre_outer_size"] = len(memoryview(payload).cast("B"))
            smeta["outer"] = outer.outer_name(framed_parts[0][0])
            crc = 0
            for p in framed_parts:
                crc = zlib.crc32(p, crc)
            smeta["crc32"] = crc
            parts.extend(framed_parts)
            pos += framed_len
        columns_meta.append(cmeta)
    schema = pa.schema(fields, metadata=table.schema.metadata)
    footer = {
        "format": FORMAT,
        "n_rows": table.num_rows,
        "schema_b64": base64.b64encode(schema.serialize().to_pybytes()).decode(),
        "columns": columns_meta,
    }
    # bloom bits leave the JSON: raw, after it, each at its offset
    bits = []
    at = 0
    for cmeta in columns_meta:
        bl = cmeta.get("bloom")
        if bl is not None:
            bits.append(bl.pop("bits"))
            bl["offset"], bl["nbytes"] = at, bits[-1].nbytes
            at += bits[-1].nbytes
    fbytes = json.dumps(footer, separators=(",", ":")).encode()
    payload = b"".join([fbytes, *bits, struct.pack("<I", len(fbytes))])
    parts.append(payload)
    parts.append(struct.pack("<II", zlib.crc32(payload), len(payload) + 4))
    parts.append(MAGIC)
    if footers is not None:
        footers.append(_attach_blooms(footer, payload, len(fbytes), _IN_MEMORY))
    return b"".join(parts)


# --------------------------------------------------------------------- decode

class StripeCorruptError(ValueError):
    """Bad stripe bytes: a stream whose CRC-32 does not match, bad magic,
    a torn footer or a truncated blob. ``stripe`` is the file path when
    decoding a file; ``column`` is the column path (None for the footer)
    and ``stream`` the stream kind."""

    def __init__(self, stripe: str, column: str | None, stream: str, detail: str) -> None:
        self.stripe, self.column, self.stream, self.detail = stripe, column, stream, detail
        where = stream if column is None else f"column {column!r} stream {stream!r}"
        super().__init__(f"corrupt stripe {stripe}: {where}: {detail}")

    def __reduce__(self):  # task errors travel pickled
        return type(self), (self.stripe, self.column, self.stream, self.detail)


_IN_MEMORY = "<in-memory blob>"  # the stripe name of a decode from bytes


@lru_cache(maxsize=256)
def schema_of(schema_b64: str) -> pa.Schema:
    """The Arrow schema a footer's or manifest row's ``schema_b64`` holds."""
    return pa.ipc.read_schema(pa.py_buffer(base64.b64decode(schema_b64)))


def _footer_payload(tail: bytes, name: str, read_tail=None) -> bytes:
    """The stored footer payload (its body, then the body's CRC-32) from
    a blob's last bytes: the whole blob, or a tail read that
    ``read_tail(n)`` re-reads when the footer is longer. Unchecked."""
    if len(tail) < 2 * len(MAGIC) + 4 or tail[-len(MAGIC) :] != MAGIC:
        raise StripeCorruptError(name, None, "footer", "bad magic: not a stripe blob, or truncated")
    (flen,) = struct.unpack_from("<I", tail, len(tail) - len(MAGIC) - 4)
    if flen + 4 + 2 * len(MAGIC) > len(tail) and read_tail is not None:
        tail = read_tail(flen + 4 + 2 * len(MAGIC))
    fstart = len(tail) - len(MAGIC) - 4 - flen
    if fstart < len(MAGIC):
        raise StripeCorruptError(name, None, "footer", "torn footer: longer than the blob")
    return tail[fstart : fstart + flen]


def _parse_footer(payload: bytes, name: str) -> dict:
    """The footer a ``_footer_payload`` holds, once its CRC-32 matches."""
    body = memoryview(payload)[:-4]  # footer JSON | bloom bits | uint32 JSON length
    if len(payload) < 4 or zlib.crc32(body) != struct.unpack("<I", payload[-4:])[0]:
        # before rstp7 the footer was plain JSON with no CRC after it
        raise StripeCorruptError(name, None, "footer", _footer_mismatch(payload))
    (jlen,) = struct.unpack_from("<I", body, len(body) - 4) if len(body) >= 4 else (len(body),)
    footer = _json_object(bytes(body[:jlen])) if jlen <= len(body) - 4 else None
    if footer is None or footer.get("format") != FORMAT:
        # an rstp7 footer is its JSON alone, which names its format
        why = _footer_mismatch(bytes(body if footer is None else body[:jlen]))
        raise StripeCorruptError(name, None, "footer", why)
    return _attach_blooms(footer, body, jlen, name)


def _json_object(js: bytes) -> dict | None:
    try:
        obj = json.loads(js)
    except ValueError:
        return None
    return obj if isinstance(obj, dict) else None


def _footer_mismatch(footer_json: bytes) -> str:
    """Why a footer is refused: JSON naming another format (an older
    blob's) names it; anything else is bad bytes."""
    fmt = (_json_object(footer_json) or {}).get("format", FORMAT)
    if fmt == FORMAT:
        return "CRC-32 mismatch"
    return f"format {fmt!r} != {FORMAT!r} — stale blob; re-encode"


def _attach_blooms(footer: dict, body, jlen: int, name: str) -> dict:
    """``footer`` with each bloom's ``bits``: a read-only uint8 view of
    the footer ``body`` (JSON, bloom bits from ``jlen``, JSON length)."""
    end = len(body) - 4
    for cmeta in footer["columns"]:
        bl = cmeta.get("bloom")
        if bl is not None:
            at = jlen + bl["offset"]
            if at + bl["nbytes"] > end or bl["nbytes"] * 8 != bl["m"]:
                raise StripeCorruptError(name, None, "footer", "bloom bits outside the footer")
            bl["bits"] = np.frombuffer(body, np.uint8, bl["nbytes"], at)
    return footer


def read_footer(blob: bytes) -> dict:
    if blob[: len(MAGIC)] != MAGIC:
        raise StripeCorruptError(_IN_MEMORY, None, "footer", "bad magic: not a stripe blob")
    return _parse_footer(_footer_payload(blob, _IN_MEMORY), _IN_MEMORY)


# bytes one footer read takes from a stripe file's end (a smaller stripe whole)
_TAIL_GUESS = 1 << 20


def read_footer_from_file(path: str, tail_guess: int = _TAIL_GUESS, src=None, payloads=None) -> dict:
    """Footer via tail-ranged reads only — metadata ops never scan stripe
    bodies (mirrors the reference's postscript/footer tail reads,
    src/object_store_reader.rs:48-58 + ArrowReaderBuilder). ``path`` may
    be a local path or any pyarrow.fs URI (file://, s3://...). ``src``:
    an open ``io.RangedReader`` on ``path`` to read through; the caller
    closes it. Every call checks and parses the footer it reads, as the
    reference's opener does; ``payloads`` (a list) gets its stored bytes
    (``_footer_payload``)."""
    from . import io as dio

    reader = dio.RangedReader(path) if src is None else src
    try:
        payload = _footer_payload(reader.read_tail(tail_guess), path, reader.read_tail)
        if payloads is not None:
            payloads.append(payload)
        return _parse_footer(payload, path)
    finally:
        if src is None:
            reader.close()


def _walk_stream_metas(cmeta: dict):
    """Yield (column_path, stream_kind, stream_meta) depth-first,
    including nested children's streams."""
    for kind, s in cmeta.get("streams", {}).items():
        yield cmeta.get("path", "?"), kind, s
    for child in cmeta.get("children", []):
        yield from _walk_stream_metas(child)


def _stored_stream(blob, cpath: str, kind: str, s: dict):
    """A stream's stored (framed) bytes from a blob or a ``RangedReader``,
    checked against the CRC-32 recorded at encode."""
    if isinstance(blob, (bytes, bytearray, memoryview)):
        raw, name = blob[s["offset"] : s["offset"] + s["size"]], _IN_MEMORY
    else:
        raw, name = blob.get(s["offset"], s["size"]), blob.path
    if len(raw) != s["size"]:
        raise StripeCorruptError(name, cpath, kind, f"truncated: {len(raw)} of {s['size']} bytes")
    if zlib.crc32(raw) != s["crc32"]:
        raise StripeCorruptError(name, cpath, kind, "CRC-32 mismatch")
    return raw


def validate_blob(blob: bytes) -> dict:
    """Integrity audit of one stripe blob: magic framing, footer parse
    and every stream's CRC-32 (the same check decode makes). Returns
    ``{"ok", "n_streams", "n_checked", "n_rows", "bad"}`` where ``bad``
    lists the ``column/stream`` names that fail. Never decompresses or
    decodes, so the audit cost is one crc32 pass over the file bytes
    (~GB/s/core)."""
    try:
        footer = read_footer(blob)
    except StripeCorruptError as exc:
        return _audit_failed(f"footer: {exc}")
    streams = [x for cmeta in footer["columns"] for x in _walk_stream_metas(cmeta)]
    bad: list[str] = []
    for cpath, kind, s in streams:
        try:
            _stored_stream(blob, cpath, kind, s)
        except StripeCorruptError:
            bad.append(f"{cpath}/{kind}")
    return {
        "ok": not bad,
        "n_streams": len(streams),
        "n_checked": len(streams),
        # the audit already parsed the footer — surfacing n_rows here
        # saves callers a second (tail-ranged) footer read per stripe
        "n_rows": int(footer.get("n_rows", -1)),
        "bad": bad,
    }


def validate_file(path: str) -> dict:
    """``validate_blob`` over a local path or pyarrow.fs URI. One full
    sequential read (an audit touches every byte by definition) — no
    per-stream GETs."""
    from . import io as dio

    try:
        blob = dio.read_bytes(path)
    except OSError as exc:
        return _audit_failed(f"read: {exc}")
    return validate_blob(blob)


def _audit_failed(why: str) -> dict:
    return {"ok": False, "n_streams": 0, "n_checked": 0, "n_rows": -1, "bad": [why]}


def _get_stream(blob, cmeta: dict, kind: str) -> bytes | None:
    s = cmeta["streams"].get(kind)
    if s is None:
        return None
    return outer.decompress(_stored_stream(blob, cmeta["path"], kind, s))


def _check_streams(blob, cmeta: dict) -> None:
    """Read and CRC-check every stream of a column, children included."""
    for cpath, kind, s in _walk_stream_metas(cmeta):
        _stored_stream(blob, cpath, kind, s)


def decode_column(blob: bytes, cmeta: dict, dtype: pa.DataType) -> pa.Array:
    n = cmeta["n"]
    present = _get_stream(blob, cmeta, PRESENT)
    mask = None if present is None else unpack_bools(present, n)
    n_valid = n - cmeta["null_count"]
    vbuf = _arrow_validity_buffer(mask)
    enc = cmeta["enc"]

    if enc == "null":
        return pa.nulls(n, type=dtype)

    if enc == "bool_bitpack":
        bits = unpack_bools(_get_stream(blob, cmeta, DATA), n_valid)
        full = _scatter(bits, mask, n, fill=False)
        return pa.Array.from_buffers(
            pa.bool_(), n, [vbuf, pa.py_buffer(np.packbits(full, bitorder="little"))]
        )

    if enc == "int":
        v = decode_ints(_get_stream(blob, cmeta, DATA), n_valid)
        full = _scatter(v, mask, n)
        bw = dtype.bit_width // 8
        if pa.types.is_unsigned_integer(dtype):
            data = full.view(np.uint64).astype(f"u{bw}", copy=False)
        else:
            data = full.astype(f"i{bw}", copy=False)
        return pa.Array.from_buffers(dtype, n, [vbuf, pa.py_buffer(data)])

    if enc == "float_raw":
        np_dtype = {2: np.float16, 4: np.float32, 8: np.float64}[dtype.bit_width // 8]
        v = np.frombuffer(_get_stream(blob, cmeta, DATA), dtype=np_dtype)
        full = _scatter(v, mask, n, fill=np_dtype(0.0))
        return pa.Array.from_buffers(dtype, n, [vbuf, pa.py_buffer(full)])

    if enc == "float_bss":
        np_dtype = {2: np.float16, 4: np.float32, 8: np.float64}[dtype.bit_width // 8]
        itemsize = np.dtype(np_dtype).itemsize
        planes = np.frombuffer(_get_stream(blob, cmeta, DATA), dtype=np.uint8)
        v = np.ascontiguousarray(planes.reshape(itemsize, -1).T).view(np_dtype).reshape(-1)
        full = _scatter(v, mask, n, fill=np_dtype(0.0))
        return pa.Array.from_buffers(dtype, n, [vbuf, pa.py_buffer(full)])

    if enc == "fixed_binary":
        data = _get_stream(blob, cmeta, DATA)
        return pa.Array.from_buffers(dtype, n, [vbuf, pa.py_buffer(data)])

    if enc == "fixed_list":
        child = decode_column(blob, cmeta["children"][0], dtype.value_type)
        return pa.Array.from_buffers(dtype, n, [vbuf], children=[child])

    if enc == "decimal_limbs":
        limbs = dtype.bit_width // 64
        v = np.empty((n_valid, limbs), np.int64)
        sign_limbs = cmeta.get("sign_limbs", ())
        for i, kind in enumerate(_LIMB_STREAMS[:limbs]):
            if i in sign_limbs:
                v[:, i] = v[:, i - 1] >> 63
            else:
                v[:, i] = decode_ints(_get_stream(blob, cmeta, kind), n_valid)
        return pa.Array.from_buffers(dtype, n, [vbuf, pa.py_buffer(_scatter(v, mask, n))])

    if enc in ("union_dense", "union_sparse"):
        codes = pa.array(
            decode_ints(_get_stream(blob, cmeta, DATA), n).astype(np.int8), pa.int8()
        )
        children = [
            decode_column(blob, cm, dtype.field(i).type)
            for i, cm in enumerate(cmeta["children"])
        ]
        names = [f.name for f in dtype]
        if enc == "union_dense":
            offs = pa.array(
                decode_ints(_get_stream(blob, cmeta, EXTRA), n).astype(np.int32),
                pa.int32(),
            )
            return pa.UnionArray.from_dense(
                codes, offs, children, field_names=names, type_codes=dtype.type_codes
            )
        return pa.UnionArray.from_sparse(
            codes, children, field_names=names, type_codes=dtype.type_codes
        )

    if enc == "dict":
        # no LENGTHS stream: one take of the dictionary values, its
        # indices null where the column is
        idx = decode_ints(_get_stream(blob, cmeta, DATA), n_valid)
        dict_vals = decode_column(blob, cmeta["children"][0], dtype)
        return dict_vals.take(pa.array(_scatter(idx, mask, n), mask=None if mask is None else ~mask))

    if enc == "plain":
        lengths = decode_ints(_get_stream(blob, cmeta, LENGTHS), n_valid)
        values_bytes = bytes_codec.decode(
            _get_stream(blob, cmeta, DATA), cmeta["streams"][DATA]["codec"]
        )
        # rebuild full offsets with zero-length at null slots
        full_lengths = _scatter(lengths, mask, n)
        offsets = np.concatenate([[0], np.cumsum(full_lengths)])
        big = pa.types.is_large_string(dtype) or pa.types.is_large_binary(dtype)
        off_np = offsets.astype(np.int64 if big else np.int32)
        return pa.Array.from_buffers(
            dtype, n, [vbuf, pa.py_buffer(off_np), pa.py_buffer(values_bytes)]
        )

    if enc == "list":
        lengths = decode_ints(_get_stream(blob, cmeta, LENGTHS), n_valid)
        child = decode_column(blob, cmeta["children"][0], dtype.value_type)
        full_lengths = _scatter(lengths.astype(np.int64), mask, n)
        offsets = np.concatenate([[0], np.cumsum(full_lengths)])
        big = pa.types.is_large_list(dtype)
        off_np = offsets.astype(np.int64 if big else np.int32)
        return pa.Array.from_buffers(
            dtype, n, [vbuf, pa.py_buffer(off_np)], children=[child]
        )

    if enc == "map_as_list":
        inner = decode_column(
            blob,
            cmeta["children"][0],
            pa.list_(pa.struct([("key", dtype.key_type), ("value", dtype.item_type)])),
        )
        offs_np = np.frombuffer(inner.buffers()[1], dtype=np.int32)[: len(inner) + 1]
        if inner.null_count:
            valid = inner.is_valid().to_numpy(zero_copy_only=False)
            offsets_arr = pa.array(offs_np, mask=np.concatenate([~valid, [False]]))
        else:
            offsets_arr = pa.array(offs_np)
        entries = inner.values
        m = pa.MapArray.from_arrays(offsets_arr, entries.field(0), entries.field(1))
        return m.cast(dtype) if not m.type.equals(dtype) else m

    if enc == "struct":
        children = []
        for i, field in enumerate(dtype):
            children.append(decode_column(blob, cmeta["children"][i], field.type))
        return pa.Array.from_buffers(dtype, n, [vbuf], children=children)

    raise ValueError(f"unknown column encoding {enc}")


def _decode_from(
    footer: dict,
    blob,
    columns: list[str] | None,
    unified_schema: pa.Schema | None = None,
    predicate: tuple | list | None = None,
    check: bool = False,
) -> pa.Table | None:
    """``unified_schema`` (the directory-wide merged schema from
    stripes_schema) makes schema-evolved directories decode consistently:
    requested columns absent from THIS stripe's footer are null-filled to
    the unified type instead of silently dropped, and a column unknown to
    both the footer and the unified schema raises (misspelling guard —
    ADVICE r1, low). ``predicate`` skips the whole stripe when a footer
    bloom proves a point lookup absent (the caller still applies the
    residual row filter). ``check`` stops before decompress: every
    stream the decode would read is read and CRC-checked, and nothing is
    returned."""
    schema = schema_of(footer["schema_b64"])
    by_name = {c["path"]: c for c in footer["columns"]}

    def _footer_conj_ok(col: str, op: str, val) -> bool:
        # point lookup: the footer's bloom can prove the value absent
        # from this whole stripe before ANY column-stream read (footer
        # already fetched via tail range); other ops cannot prune here
        if op != "==":
            return True
        cmeta = by_name.get(col)
        return not (
            cmeta is not None
            and "bloom" in cmeta
            and col in schema.names
            and not bloom.may_contain(cmeta["bloom"], val, schema.field(col).type)
        )

    if not may_match(normalize(predicate), _footer_conj_ok):
        if check:
            return None
        base = unified_schema if unified_schema is not None else schema
        wanted = columns if columns is not None else list(base.names)
        return pa.schema(
            [base.field(n) if n in base.names else schema.field(n) for n in wanted]
        ).empty_table()
    if columns is not None:
        wanted = list(columns)
    elif unified_schema is not None:
        wanted = list(unified_schema.names)
    else:
        wanted = [c["path"] for c in footer["columns"]]
    n_rows = footer["n_rows"]
    arrays, fields = [], []
    for name in wanted:
        cmeta = by_name.get(name)
        if cmeta is None:
            if unified_schema is not None and name in unified_schema.names:
                field = unified_schema.field(name)
                arrays.append(pa.nulls(n_rows, type=field.type))
                fields.append(field)
                continue
            raise KeyError(
                f"column {name!r} not in stripe footer "
                f"(has: {sorted(by_name)}) and no unified schema to null-fill from"
            )
        field = schema.field(name)
        if check:
            _check_streams(blob, cmeta)
            continue
        arr = decode_column(blob, cmeta, field.type)
        if unified_schema is not None and name in unified_schema.names:
            ufield = unified_schema.field(name)
            if not ufield.type.equals(field.type):
                arr = arr.cast(ufield.type)
            field = ufield
        arrays.append(arr)
        fields.append(field)
    return None if check else pa.Table.from_arrays(arrays, schema=pa.schema(fields))


def decode_table(
    blob: bytes,
    columns: list[str] | None = None,
    unified_schema: pa.Schema | None = None,
    predicate: tuple | list | None = None,
) -> pa.Table:
    """Decode a stripe blob; ``columns`` prunes decoding to the requested
    top-level columns (projection pushdown, S5); ``predicate`` skips the
    stripe when its bloom proves a point lookup absent (the caller still
    applies the residual row filter)."""
    return _decode_from(read_footer(blob), blob, columns, unified_schema, predicate)


def decode_file(
    path: str,
    columns: list[str] | None = None,
    unified_schema: pa.Schema | None = None,
    predicate: tuple | list | None = None,
    footers: list | None = None,
    verify: tuple | None = None,
) -> pa.Table | bool:
    """Decode straight from a stripe file through one reader: footer via
    tail read, then only the projected columns' streams (S5 + S8), each
    sliced from the tail read when it holds it (a stripe under the tail
    guess takes one read in all), else range-read; ``predicate`` as in
    ``decode_table``, so a stripe its bloom rules out costs the footer
    read alone. Every column with no predicate reads the whole file in
    one sequential read. ``path`` may be local or any pyarrow.fs URI.
    ``footers`` (a list) gets ``(path, payload, footer)``: the stored
    footer bytes the decode ran under and their parse.

    With ``verify`` (a ``(payload, footer)`` pair from ``footers``) the
    read stops before decompress and returns a bool: False when this
    file's footer bytes differ from ``payload`` (the footer read and
    parsed alone), else True after every stream the decode would read
    under ``footer`` is read and CRC-checked, with the same reads: equal
    footer bytes are neither checked nor parsed again."""
    from . import io as dio

    src = dio.RangedReader(path)
    try:
        tail = src.size() if columns is None and not predicate else _TAIL_GUESS
        if verify is not None:
            payload, footer = verify
            got = _footer_payload(src.read_tail(tail), path, src.read_tail)
            if got != payload:
                _parse_footer(got, path)  # a corrupt footer raises, as on a read
                return False
            _decode_from(footer, src, columns, unified_schema, predicate, check=True)
            return True
        payloads: list = []
        footer = read_footer_from_file(path, tail, src, payloads)
        if footers is not None:
            footers.append((path, payloads[0], footer))
        return _decode_from(footer, src, columns, unified_schema, predicate)
    finally:
        src.close()
