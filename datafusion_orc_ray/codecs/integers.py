"""Integer codec suite: RAW / FOR+bitpack / DELTA / RLE / PATCHED_FOR.

Ray-Data-native re-expression of ORC RLEv2 semantics (SURVEY.md §2.3 E5:
DIRECT == FOR+bitpack, DELTA == delta runs, PATCHED_BASE == PATCHED_FOR,
SHORT_REPEAT generalized by RLE). Evidence for the reference semantics:
stripe-footer parses of /root/reference/tests/basic/data/alltypes.snappy.orc
(cols 3,4,5,11 DIRECT_V2) — we keep the *capability* (run-length, delta,
bit-pack, frame-of-reference, outlier patching) but define our own
byte layout, chosen per chunk by exact size formulas (E17 auto-selector).

One set of statistics per array (:class:`_Stats`: the extremes, the
first differences, the offsets' GCD, counts of wide offsets) sizes every
codec exactly, from bounds where they decide a size and from a full
array where they do not, and the winning codec's kernel encodes from the
same statistics and plan (:class:`Sizes`). RLE's run values need no
statistics of their own: they hold the column's set of values (so its
minimum, maximum and GCD), their deltas are the column's nonzero deltas
and their widths are the column's at the run starts (:class:`_RunValues`).

All kernels are vectorized NumPy over int64; arithmetic is done on the
uint64 view with wraparound so the full int64 domain (±2^63) round-trips
bit-identically. Values-with-nulls are handled by the caller (only
non-null slots are encoded, mirroring ORC's PRESENT/DATA split).
"""

from __future__ import annotations

import math
import struct
import weakref
from functools import cached_property

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


def _zigzag(d: int) -> int:
    """A signed delta's zigzag value (as ``bitpack.zigzag_encode``)."""
    return 2 * d if d >= 0 else -2 * d - 1


def _widths_of(offsets: np.ndarray, top: int | None = None) -> np.ndarray:
    """Bit width of each uint64 offset (0 for 0): its float64's biased
    exponent less 1022, exact below 2^53. Above that the cast may round
    up to the next power of two, so those take 32 + the high word's.
    ``top``, the offsets' maximum when known, skips what it rules out."""
    signed = top is not None and top < 1 << 63  # int64 casts to float faster
    widths = (offsets.view(np.int64) if signed else offsets).astype(np.float64).view(np.int64)
    widths >>= np.int64(52)
    widths -= 1022
    np.maximum(widths, 0, out=widths)
    if top is None or top >> 53:
        big = np.flatnonzero(offsets >> np.uint64(53))
        if big.size:
            widths[big] = 32 + _widths_of(offsets[big] >> np.uint64(32))
    return widths


def _smallest_zigzag(d: np.ndarray, zz: list[int]) -> int:
    """The smallest of the zigzag values ``zz`` (of nonzero deltas) and
    those of the nonzero ones among ~64 of the deltas ``d`` (uint64): an
    upper bound on the smallest of every nonzero delta."""
    sample = d[:: max(1, d.size // 64)].view(np.int64).tolist()
    return min(zz + [_zigzag(x) for x in sample if x])


def _delta_width(zmax: int, lo: int, hi: int, stats: _Stats) -> int:
    """Bit width of ``zmax - zmin`` for a smallest zigzag value ``zmin``
    known to lie in ``[lo, hi]``: from the bounds when they agree, else
    from ``stats``' exact plan."""
    w = (zmax - lo).bit_length()
    return w if (zmax - hi).bit_length() == w else stats.delta_plan[1]


def _uvarint_len(x: int) -> int:
    return (x.bit_length() + 6) // 7 or 1


def _patched_plan(hist: list[int], n: int) -> tuple[int, int, int] | None:
    """(w, patch_width, size_bytes) of the smallest PATCHED_FOR block over
    ``n`` offsets whose bit widths have histogram ``hist`` (``hist[k]``
    offsets are k bits wide, up to the widest), or None when plain FOR is
    at least as good. Ties take the narrowest ``w``."""
    full_w = len(hist) - 1
    if full_w <= 1 or n == 0:
        return None
    pos_w = (n - 1).bit_length()
    best = None
    n_patch = n - hist[0]
    for w in range(1, full_w + 1):
        n_patch -= hist[w]  # offsets wider than w
        size = (
            11
            + _uvarint_len(n_patch)
            + (n * w + 7) // 8
            + (n_patch * pos_w + 7) // 8
            + (n_patch * (full_w - w) + 7) // 8
        )
        if best is None or size < best[2]:
            best = (w, full_w - w, size)
    return None if best[0] == full_w else best


def _patched_ruled_out(n: int, full_w: int, wider) -> bool:
    """True when no PATCHED_FOR width below ``full_w`` makes the block
    over ``n`` offsets smaller than no patching does, shown from one or
    two lower bounds ``wider(t)`` on how many offsets are wider than t
    bits. Narrowing to ``w = full_w - k`` saves k bits per value and
    costs ``pos_w + k`` bits per patched one, so it loses when
    ``c * (pos_w + k) > n * k + 7`` for ``c`` at most the number patched
    (the 7: rounding to bytes); ``wider(t)`` bounds that number for every
    ``w <= t`` at once."""
    pos_w = (n - 1).bit_length()
    k = 1
    for _ in range(2):
        c = wider(full_w - k)
        if c >= n:
            return n * pos_w > 7
        k_next = -(-(c * pos_w - 7) // (n - c))  # the first k this c cannot rule out
        if k_next <= k:
            return False
        if k_next >= full_w:
            return True
        k = k_next
    return False


class _Stats:
    """What every codec's size and kernel read of one int64 array, each
    computed once, on first use: a codec's kernel called without an
    estimate computes only what that codec reads. Sizing reads only the
    extremes, the first differences and a count or two of wide values
    when those bound a size exactly; the zigzagged deltas and the width
    histogram are computed when they do not."""

    def __init__(self, v: np.ndarray) -> None:
        self.v = v
        self.n = v.size
        self.first = int(v[0]) if v.size else 0
        # the offsets' minimum is 0; ``top`` is their maximum
        self.base = int(v.min()) if v.size else 0
        self.top = int(v.max()) - self.base if v.size else 0
        self._wide: dict[int, np.ndarray] = {}

    @cached_property
    def off(self) -> np.ndarray:
        """uint64 offsets from the minimum (wrapping)."""
        return self.v.view(np.uint64) - np.array(self.base, dtype=np.int64).view(np.uint64)

    @cached_property
    def gcd(self) -> int:
        """Exact GCD of the offsets (0 when all are 0): that of ``top`` and
        a ~256-value strided sample, while it divides every offset; while
        one is left over, the GCD of it and the remainder."""
        sample = self.v[:: max(1, self.n // 256)].view(np.uint64)
        base = np.array(self.base, dtype=np.int64).view(np.uint64)
        g = math.gcd(self.top, int(np.gcd.reduce(sample - base)))
        while g > 1:
            rest = self.off % np.uint64(g)
            r = int(rest[rest.argmax()])
            if r == 0:
                break
            g = math.gcd(g, r)
        return g

    def wide(self, t: int) -> np.ndarray:
        """bool per value: its offset is wider than ``t`` bits (``2^t <= top``)."""
        mask = self._wide.get(t)
        if mask is None:
            mask = self._wide[t] = self.v >= self.base + (1 << t)
        return mask

    def wider(self, t: int) -> int:
        return int(np.count_nonzero(self.wide(t)))

    @cached_property
    def d(self) -> np.ndarray:
        """uint64 wrapped first differences."""
        u = self.v.view(np.uint64)
        return u[1:] - u[:-1]

    @cached_property
    def d_range(self) -> tuple[int, int]:
        """The smallest and largest first difference, signed."""
        d = self.d.view(np.int64)
        return int(d.min()), int(d.max())

    @cached_property
    def zz(self) -> np.ndarray:
        """The first differences zigzagged to small magnitudes (bitpack's
        convention)."""
        return zigzag_encode(self.d.view(np.int64))

    @cached_property
    def steps(self) -> np.ndarray:
        """bool per delta: ``v[i + 1] != v[i]``, so a run starts at ``i + 1``."""
        return self.v[1:] != self.v[:-1]

    @cached_property
    def hist(self) -> np.ndarray:
        """hist[k]: how many offsets are k bits wide, k = 0 .. top's width."""
        return np.bincount(self.widths, minlength=self.top.bit_length() + 1)

    @cached_property
    def widths(self) -> np.ndarray:
        return _widths_of(self.off, self.top)

    # ------------------------------------------------------------ plans

    @cached_property
    def for_plan(self) -> tuple[int, int, int]:
        """(width, divisor, encoded size) of the FOR_BP block: the offsets
        divided by their GCD when that makes the block smaller (decimal
        cents that are whole units, second timestamps in ns)."""
        n, top = self.n, self.top
        w = top.bit_length()
        size = 10 + (n * w + 7) // 8
        if w > 1:
            g = self.gcd
            if g > 1:
                gw = (top // g).bit_length()
                gsize = 10 + _uvarint_len(g) + (n * gw + 7) // 8
                if gsize < size:
                    return gw, g, gsize
        return w, 1, size

    @cached_property
    def delta_plan(self) -> tuple[int, int]:
        """(smallest zigzagged delta, width of the others above it)."""
        zz = self.zz
        if zz.size == 0:
            return 0, 0
        zmin = int(zz.min())
        return zmin, (int(zz.max()) - zmin).bit_length()

    def delta_width(self) -> int:
        """``delta_plan``'s width from the signed extremes: zigzag grows
        with |d|, so they hold the largest zigzag value. The smallest is 0
        with runs, an extreme's when the deltas share a sign, and else from
        1 up to an extreme's or a sampled one's."""
        if self.n < 2:
            return 0
        dmin, dmax = self.d_range
        z = [_zigzag(dmin), _zigzag(dmax)]
        if self.has_runs:
            return _delta_width(max(z), 0, 0, self)
        if dmin >= 0 or dmax < 0:
            return _delta_width(max(z), min(z), min(z), self)
        return _delta_width(max(z), 1, _smallest_zigzag(self.d, z), self)

    @cached_property
    def patched_plan(self) -> tuple[int, int, int] | None:
        """``_patched_plan`` over the width histogram."""
        if self.top.bit_length() <= 1:
            return None
        return _patched_plan(self.hist.tolist(), self.n)

    def patched_size(self) -> int | None:
        """PATCHED_FOR's encoded size, None when plain FOR is at least as
        small: ruled out from counts of wide offsets when they can, else
        planned from the width histogram."""
        full_w = self.top.bit_length()
        if full_w <= 1 or _patched_ruled_out(self.n, full_w, self.wider):
            return None
        plan = self.patched_plan
        return None if plan is None else 1 + plan[2]

    @cached_property
    def rle_plan(self) -> tuple[_RunValues, int, int, _Stats]:
        """(run values, their codec, its block size, run lengths)."""
        runs = _RunValues(self)
        sizes = runs.sizes()
        codec = min(sizes, key=sizes.get)
        nz = runs.nz  # run j ends at nz[j] (inclusive) but the last, at n - 1
        lengths = np.empty(runs.n, dtype=np.int64)
        if nz.size:
            np.subtract(nz[1:], nz[:-1], out=lengths[1:-1])
            lengths[0] = nz[0] + 1
            lengths[-1] = self.n - 1 - nz[-1]
        else:
            lengths[:] = self.n
        return runs, codec, sizes[codec], _Stats(lengths)

    # ------------------------------------------------------------ sizes

    @cached_property
    def has_runs(self) -> bool:
        """Some value repeats the one before it."""
        return self.n > 1 and not self.steps.all()

    def sizes(self) -> dict[int, int]:
        """Exact encoded size per codec, in codec order (a tie goes to the
        earlier codec). RLE is sized only when some value repeats,
        PATCHED_FOR only when patching some offsets narrows the block."""
        n = self.n
        sizes = {RAW: 1 + 8 * n}
        if n == 0:
            return sizes
        sizes[FOR_BP] = self.for_plan[2]
        sizes[DELTA] = 18 + ((n - 1) * self.delta_width() + 7) // 8
        if self.has_runs:
            runs, _, block, lens = self.rle_plan
            sizes[RLE] = 1 + _uvarint_len(runs.n) + _uvarint_len(block) + block + lens.for_plan[2]
        patched = self.patched_size()
        if patched is not None:
            sizes[PATCHED_FOR] = patched
        return sizes


class _RunValues(_Stats):
    """The run values ``v[starts]`` of a column, their statistics taken
    from the column's: the same minimum, maximum and GCD, the nonzero
    deltas and the widths at the run starts."""

    def __init__(self, col: _Stats) -> None:
        self.col = weakref.proxy(col)  # col keeps this in its rle_plan: no cycle
        self.nz = np.flatnonzero(col.steps)  # run j + 1 starts at nz[j] + 1
        self.n = self.nz.size + (col.n > 0)
        self.first, self.base, self.top = col.first, col.base, col.top

    has_runs = False

    def wider(self, t: int) -> int:
        """Counted from the column's mask at the run starts."""
        wide = self.col.wide(t)
        return int(wide[0]) + int(np.count_nonzero(wide[1:] & self.col.steps))

    def delta_width(self) -> int:
        """Their deltas are the column's nonzero ones: the same largest
        zigzag value, and a smallest one from 1 up to that of a nonzero
        extreme or sample. Without the column's extremes (an RLE kernel
        called with no estimate), their own exact plan."""
        if self.n < 2:
            return 0
        if "d_range" not in vars(self.col):
            return self.delta_plan[1]
        z = [_zigzag(d) for d in self.col.d_range if d]
        return _delta_width(max(z), 1, _smallest_zigzag(self.col.d, z), self)

    @cached_property
    def starts(self) -> np.ndarray:
        starts = np.empty(self.n, dtype=np.int64)
        starts[:1] = 0
        np.add(self.nz, 1, out=starts[1:])
        return starts

    @cached_property
    def v(self) -> np.ndarray:
        return self.col.v[self.starts]

    @cached_property
    def gcd(self) -> int:
        return self.col.gcd

    @cached_property
    def zz(self) -> np.ndarray:
        u = self.col.v.view(np.uint64)
        return zigzag_encode((u[self.nz + 1] - u[self.nz]).view(np.int64))

    @cached_property
    def hist(self) -> np.ndarray:
        """The column's widths counted at the run starts."""
        return np.bincount(self.col.widths[self.starts], minlength=self.top.bit_length() + 1)


# ---------------------------------------------------------------- kernels

def _enc_raw(s: _Stats) -> bytes:
    return bytes([RAW]) + s.v.astype("<i8").tobytes()


def _enc_for_bp(s: _Stats) -> bytes:
    """``FOR_BP | <q base> | <B width> | bits``; width's high bit
    (``_GCD_FLAG``) says a uvarint divisor follows it and every offset
    is stored divided by it."""
    if s.n == 0:
        return bytes([FOR_BP]) + struct.pack("<qB", 0, 0)
    w, g, _ = s.for_plan
    if g == 1:
        return bytes([FOR_BP]) + struct.pack("<qB", s.base, w) + pack_bits(s.off, w)
    return (
        bytes([FOR_BP])
        + struct.pack("<qB", s.base, w | _GCD_FLAG)
        + write_uvarint(g)
        + pack_bits(s.off // np.uint64(g), w)
    )


def _enc_delta(s: _Stats) -> bytes:
    zmin, w = s.delta_plan
    head = struct.pack("<qQB", s.first, zmin, w)
    return bytes([DELTA]) + head + pack_bits(s.zz - np.uint64(zmin) if zmin else s.zz, w)


def _enc_rle(s: _Stats) -> bytes:
    runs, codec, block, lens = s.rle_plan
    return (
        bytes([RLE])
        + write_uvarint(runs.n)
        + write_uvarint(block)
        + _KERNELS[codec](runs)
        + _enc_for_bp(lens)
    )


def _enc_patched_for(s: _Stats) -> bytes:
    """Low ``w`` bits of every offset, then the positions and high bits
    of the offsets wider than ``w``."""
    plan = s.patched_plan
    if plan is None:
        return _enc_for_bp(s)
    w, pw, _ = plan
    off = s.off
    patch_idx = np.flatnonzero(off >> np.uint64(w))
    pos_w = (s.n - 1).bit_length()
    head = struct.pack("<qBBB", s.base, w, pw, pos_w)
    return (
        bytes([PATCHED_FOR])
        + head
        + write_uvarint(patch_idx.size)
        + pack_bits(off, w)
        + pack_bits(patch_idx.astype(np.uint64), pos_w)
        + pack_bits(off[patch_idx] >> np.uint64(w), pw)
    )


_KERNELS = {
    RAW: _enc_raw,
    FOR_BP: _enc_for_bp,
    DELTA: _enc_delta,
    RLE: _enc_rle,
    PATCHED_FOR: _enc_patched_for,
}


# ---------------------------------------------------------------- public API

class Sizes(dict):
    """Codec id -> exact encoded size (E17 selector), in codec order;
    ``stats`` keeps the statistics and plans the sizes came from, so
    :meth:`encode` emits a codec's bytes without deriving them again."""

    def __init__(self, stats: _Stats) -> None:
        super().__init__(stats.sizes())
        self.stats = stats

    @property
    def best(self) -> int:
        """The smallest codec (the earlier one on a tie)."""
        return min(self, key=self.get)

    def encode(self, codec: int | None = None) -> bytes:
        """``codec``'s encoding (the best one's by default)."""
        return _KERNELS[self.best if codec is None else codec](self.stats)


def estimate_sizes(values: np.ndarray) -> Sizes:
    """Exact encoded size per codec, from one set of shared statistics
    and without materializing any encoding."""
    return Sizes(_Stats(_as_i64(values)))


def encode_ints(values: np.ndarray) -> bytes:
    """Encode int64 array with the minimal-size codec (auto-selected)."""
    return estimate_sizes(values).encode()


def encode_ints_with(values: np.ndarray, codec: int) -> bytes:
    """Encode with ``codec``, computing only the statistics it reads."""
    return _KERNELS[codec](_Stats(_as_i64(values)))


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
