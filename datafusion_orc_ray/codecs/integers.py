"""Integer codec suite: RAW / FOR+bitpack / DELTA / RLE / PATCHED_FOR.

Ray-Data-native re-expression of ORC RLEv2 semantics (SURVEY.md §2.3 E5:
DIRECT == FOR+bitpack, DELTA == delta runs, PATCHED_BASE == PATCHED_FOR,
SHORT_REPEAT generalized by RLE). Evidence for the reference semantics:
stripe-footer parses of /root/reference/tests/basic/data/alltypes.snappy.orc
(cols 3,4,5,11 DIRECT_V2) — we keep the *capability* (run-length, delta,
bit-pack, frame-of-reference, outlier patching) but define our own
byte layout, chosen per chunk by exact size formulas (E17 auto-selector).

All kernels are vectorized NumPy over int64; arithmetic is done on the
uint64 view with wraparound so the full int64 domain (±2^63) round-trips
bit-identically. Values-with-nulls are handled by the caller (only
non-null slots are encoded, mirroring ORC's PRESENT/DATA split).
"""

from __future__ import annotations

import struct

import numpy as np

from .bitpack import (
    pack_bits,
    read_uvarint,
    unpack_bits,
    write_uvarint,
    zigzag_decode,
    zigzag_encode,
)

# codec ids (first byte of every encoded integer stream)
RAW = 0
FOR_BP = 1
DELTA = 2
RLE = 3
PATCHED_FOR = 4

_GCD_FLAG = 0x80  # FOR_BP width byte: a GCD divisor follows (widths are <= 64)

_NAMES = {RAW: "raw", FOR_BP: "for_bp", DELTA: "delta", RLE: "rle", PATCHED_FOR: "patched_for"}


def codec_name(codec_id: int) -> str:
    return _NAMES[codec_id]


def _as_i64(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.int64)


def _widths_of(offsets: np.ndarray) -> np.ndarray:
    """bit width of each uint64 offset (0 for 0): the binary exponent of
    its float64, exact below 2^53. Above that the cast may round up to
    the next power of two, so those take 32 + the high word's width."""
    widths = np.frexp(offsets.astype(np.float64))[1].astype(np.int64)
    big = np.flatnonzero(offsets >> np.uint64(53))
    if big.size:
        high = (offsets[big] >> np.uint64(32)).astype(np.float64)
        widths[big] = 32 + np.frexp(high)[1]
    return widths


def _offsets(v: np.ndarray) -> tuple[int, np.ndarray]:
    base = int(v.min())
    off = v.view(np.uint64) - np.array(base, dtype=np.int64).view(np.uint64)
    return base, off


def _runs(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(run_values, run_lengths) for int64 v."""
    n = v.size
    if n == 0:
        return v[:0], np.empty(0, dtype=np.int64)
    change = np.flatnonzero(v[1:] != v[:-1])
    starts = np.concatenate([[0], change + 1])
    lengths = np.diff(np.concatenate([starts, [n]]))
    return v[starts], lengths.astype(np.int64)


def _wrapped_deltas(v: np.ndarray) -> np.ndarray:
    """uint64 wrapped first-differences, zigzagged to small magnitudes."""
    u = v.view(np.uint64)
    d = (u[1:] - u[:-1]).view(np.int64)  # wraparound difference, reinterpreted signed
    return zigzag_encode(d)  # shared bitpack zigzag (one convention)


# ---------------------------------------------------------------- encoders

def _enc_raw(v: np.ndarray) -> bytes:
    return bytes([RAW]) + v.astype("<i8").tobytes()


def _gcd(off: np.ndarray) -> int:
    """Exact GCD of the uint64 offsets (0 when all are 0): the GCD of a
    ~256-value strided sample, then the full reduce only when the
    sample's is not 1 (the full GCD divides it)."""
    g = int(np.gcd.reduce(off[:: max(1, off.size // 256)]))
    return g if g == 1 else int(np.gcd.reduce(off))


def _for_plan(off: np.ndarray) -> tuple[int, int, int]:
    """(width, divisor, encoded size) of the FOR_BP block over the uint64
    offsets: divided by their GCD when that makes the block smaller
    (decimal cents that are whole units, second timestamps in ns)."""
    n, top = off.size, int(off.max(initial=0))
    w = top.bit_length()
    size = 10 + (n * w + 7) // 8
    if w > 1:
        g = _gcd(off)
        if g > 1:
            gw = (top // g).bit_length()
            gsize = 10 + len(write_uvarint(g)) + (n * gw + 7) // 8
            if gsize < size:
                return gw, g, gsize
    return w, 1, size


def _enc_for_bp(v: np.ndarray) -> bytes:
    """``FOR_BP | <q base> | <B width> | bits``; width's high bit
    (``_GCD_FLAG``) says a uvarint divisor follows it and every offset
    is stored divided by it."""
    if v.size == 0:
        return bytes([FOR_BP]) + struct.pack("<qB", 0, 0)
    base, off = _offsets(v)
    w, g, _ = _for_plan(off)
    if g == 1:
        return bytes([FOR_BP]) + struct.pack("<qB", base, w) + pack_bits(off, w)
    return (
        bytes([FOR_BP])
        + struct.pack("<qB", base, w | _GCD_FLAG)
        + write_uvarint(g)
        + pack_bits(off // np.uint64(g), w)
    )


def _enc_delta(v: np.ndarray) -> bytes:
    zz = _wrapped_deltas(v)
    zmin = int(zz.min()) if zz.size else 0
    off = zz - np.uint64(zmin)
    w = int(off.max(initial=0)).bit_length()
    head = struct.pack("<qQB", int(v[0]) if v.size else 0, zmin, w)
    return bytes([DELTA]) + head + pack_bits(off, w)


def _enc_rle(v: np.ndarray) -> bytes:
    rv, rl = _runs(v)
    vals_block = encode_ints(rv, allow_rle=False)
    lens_block = _enc_for_bp(rl)
    return (
        bytes([RLE])
        + write_uvarint(rv.size)
        + write_uvarint(len(vals_block))
        + vals_block
        + lens_block
    )


def _patched_plan(off: np.ndarray, n: int) -> tuple[int, int, int, int] | None:
    """Choose (w, patch_width, n_patches, size_bytes) minimizing size, or
    None when plain FOR is at least as good."""
    widths = _widths_of(off)
    full_w = int(widths.max(initial=0))
    if full_w <= 1 or n == 0:
        return None
    pos_w = max(n - 1, 0).bit_length()
    counts = np.bincount(widths, minlength=full_w + 1)
    tail = np.cumsum(counts[::-1])[::-1]  # tail[w] = #values with width >= w
    best = None
    for w in range(1, full_w + 1):
        n_patch = int(tail[w + 1]) if w + 1 <= full_w else 0
        pw = full_w - w
        size = (
            11
            + len(write_uvarint(n_patch))
            + (n * w + 7) // 8
            + (n_patch * pos_w + 7) // 8
            + (n_patch * pw + 7) // 8
        )
        if best is None or size < best[3]:
            best = (w, pw, n_patch, size)
    if best is None or best[0] == full_w:
        return None
    return best


def _enc_patched_for(v: np.ndarray) -> bytes:
    if v.size == 0:
        return _enc_for_bp(v)
    base, off = _offsets(v)
    plan = _patched_plan(off, v.size)
    if plan is None:
        return _enc_for_bp(v)
    w, pw, _, _ = plan
    widths = _widths_of(off)
    patch_idx = np.flatnonzero(widths > w).astype(np.uint64)
    pos_w = max(v.size - 1, 0).bit_length()
    low = off & ((np.uint64(1) << np.uint64(w)) - np.uint64(1)) if w < 64 else off
    high = off[patch_idx] >> np.uint64(w)
    head = struct.pack("<qBBB", base, w, pw, pos_w)
    return (
        bytes([PATCHED_FOR])
        + head
        + write_uvarint(patch_idx.size)
        + pack_bits(low, w)
        + pack_bits(patch_idx, pos_w)
        + pack_bits(high, pw)
    )


# ---------------------------------------------------------------- size estimates (exact)

def estimate_sizes(v: np.ndarray) -> dict[int, int]:
    """Exact encoded size per codec, computed from vectorized stats without
    materializing any encoding (E17 selector)."""
    v = _as_i64(v)
    n = v.size
    sizes = {RAW: 1 + 8 * n}
    if n == 0:
        return sizes
    _, off = _offsets(v)
    sizes[FOR_BP] = _for_plan(off)[2]

    zz = _wrapped_deltas(v)
    if zz.size:
        zoff = zz - zz.min()
        dw = int(zoff.max()).bit_length()
    else:
        dw = 0
    sizes[DELTA] = 1 + 17 + ((n - 1) * dw + 7) // 8

    rv, rl = _runs(v)
    if rv.size < n:  # only worth evaluating when there are actual runs
        rv_sizes = estimate_sizes(rv)
        rv_best = min(s for c, s in rv_sizes.items() if c != RLE)
        lens_block = _for_plan(_offsets(rl)[1])[2]
        sizes[RLE] = (
            1
            + len(write_uvarint(rv.size))
            + len(write_uvarint(rv_best))
            + rv_best
            + lens_block
        )

    plan = _patched_plan(off, n)
    if plan is not None:
        sizes[PATCHED_FOR] = 1 + plan[3]
    return sizes


# ---------------------------------------------------------------- public API

def choose_codec(values: np.ndarray, allow_rle: bool = True) -> int:
    """The codec whose estimated encoding of ``values`` is smallest."""
    sizes = estimate_sizes(_as_i64(values))
    if not allow_rle:
        sizes.pop(RLE, None)
    return min(sizes, key=sizes.get)


def encode_ints(values: np.ndarray, allow_rle: bool = True) -> bytes:
    """Encode int64 array with the minimal-size codec (auto-selected)."""
    v = _as_i64(values)
    return _ENCODERS[choose_codec(v, allow_rle)](v)


def encode_ints_with(values: np.ndarray, codec: int) -> bytes:
    return _ENCODERS[codec](_as_i64(values))


def decode_ints(buf: bytes, n: int) -> np.ndarray:
    """Decode to int64[n]."""
    if n == 0:
        return np.empty(0, dtype=np.int64)
    codec = buf[0]
    body = memoryview(buf)[1:]
    if codec == RAW:
        return np.frombuffer(body, dtype="<i8", count=n).astype(np.int64)
    if codec == FOR_BP:
        base, w = struct.unpack_from("<qB", body, 0)
        g, pos = read_uvarint(body, 9) if w & _GCD_FLAG else (1, 9)
        off = unpack_bits(body[pos:], w & ~_GCD_FLAG, n)
        if g != 1:
            off *= np.uint64(g)
        return (off + np.array(base, dtype=np.int64).view(np.uint64)).view(np.int64)
    if codec == DELTA:
        first, zmin, w = struct.unpack_from("<qQB", body, 0)
        off = unpack_bits(body[17:], w, n - 1)
        zz = off + np.uint64(zmin)
        d = zigzag_decode(zz).view(np.uint64)  # shared bitpack un-zigzag
        out = np.empty(n, dtype=np.uint64)
        out[0] = np.array(first, dtype=np.int64).view(np.uint64)
        out[1:] = np.cumsum(d, dtype=np.uint64) + out[0]
        return out.view(np.int64)
    if codec == RLE:
        n_runs, pos = read_uvarint(body, 0)
        vlen, pos = read_uvarint(body, pos)
        vals = decode_ints(body[pos : pos + vlen], n_runs)
        lens = decode_ints(body[pos + vlen :], n_runs)
        return np.repeat(vals, lens)
    if codec == PATCHED_FOR:
        base, w, pw, pos_w = struct.unpack_from("<qBBB", body, 0)
        n_patch, pos = read_uvarint(body, 11)
        low_nbytes = (n * w + 7) // 8
        idx_nbytes = (n_patch * pos_w + 7) // 8
        low = unpack_bits(body[pos : pos + low_nbytes], w, n)
        idx = unpack_bits(body[pos + low_nbytes : pos + low_nbytes + idx_nbytes], pos_w, n_patch)
        high = unpack_bits(body[pos + low_nbytes + idx_nbytes :], pw, n_patch)
        low[idx.astype(np.int64)] |= high << np.uint64(w)
        return (low + np.array(base, dtype=np.int64).view(np.uint64)).view(np.int64)
    raise ValueError(f"unknown int codec id {codec}")


_ENCODERS = {
    RAW: _enc_raw,
    FOR_BP: _enc_for_bp,
    DELTA: _enc_delta,
    RLE: _enc_rle,
    PATCHED_FOR: _enc_patched_for,
}
