"""Bit-level primitives: bit-packing, zigzag, varint.

Vectorized NumPy kernels used by every integer codec (SURVEY.md §2.3
E2-E5; reference semantics pinned by the ORC v1 spec streams observed in
/root/reference/tests/basic/data/*.orc stripe footers). No Ray
dependency — pure functions so they unit-test in microseconds.

All packing is MSB-first within a value and values are laid out
back-to-back in the bit stream (same convention as ORC bit-packed
DIRECT runs).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bit_width",
    "pack_bits",
    "unpack_bits",
    "unpack_bools",
    "zigzag_encode",
    "zigzag_decode",
    "write_uvarint",
    "read_uvarint",
]


def bit_width(max_value: int) -> int:
    """Number of bits needed to represent ``max_value`` (an unsigned int)."""
    if max_value < 0:
        raise ValueError("bit_width takes an unsigned magnitude")
    return int(max_value).bit_length()


def _slots(width: int) -> list[tuple[int, int]]:
    """Where each of 8 consecutive ``width``-bit values sits. Eight
    values fill exactly ``width`` bytes, read as big-endian 64-bit
    lanes (the last one zero-padded): value j starts at bit j*width of
    its group, in lane (j*width) >> 6, and ``over`` is how many of its
    bits run on into the next lane (<= 0: it ends ``-over`` bits before
    its lane's end)."""
    return [((j * width) >> 6, (j * width) % 64 + width - 64) for j in range(8)]


def pack_bits(values: np.ndarray, width: int) -> bytes:
    """Pack unsigned ``values`` (uint64) into ``width``-bit big-endian slots,
    keeping each value's low ``width`` bits.

    width == 0 encodes an all-zeros array as zero bytes. The output is a
    persisted format. Widths 2-64 work on groups of 8 values, one
    column of the group at a time (:func:`_slots`).
    """
    if width == 0:
        return b""
    if width > 64:
        raise ValueError(f"width {width} > 64")
    if width == 1:  # PRESENT and bool streams
        return np.packbits(np.asarray(values) & 1).tobytes()
    n = np.size(values)
    if n == 0:
        return b""
    groups = np.zeros((-(-n // 8), 8), dtype=np.uint64)
    groups.reshape(-1)[:n] = values
    if width < 64:
        groups &= np.uint64((1 << width) - 1)
    lanes = np.zeros((groups.shape[0], -(-width // 8)), dtype=np.uint64)
    for j, (lane, over) in enumerate(_slots(width)):
        if over <= 0:
            lanes[:, lane] |= groups[:, j] << np.uint64(-over)
        else:
            lanes[:, lane] |= groups[:, j] >> np.uint64(over)
            lanes[:, lane + 1] |= groups[:, j] << np.uint64(64 - over)
    # each group's first `width` lane bytes, copied as one opaque item per
    # group: a uint8 column slice would copy byte by byte (5-40x slower)
    be = lanes.astype(">u8")
    packed = np.ndarray(groups.shape[:1], dtype=f"V{width}", buffer=be, strides=be.strides[:1])
    return packed.tobytes()[: (n * width + 7) // 8]


def unpack_bits(buf: bytes, width: int, n: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns uint64[n]."""
    if width == 0:
        return np.zeros(n, dtype=np.uint64)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    if width == 1:
        return unpack_bools(buf, n).astype(np.uint64)
    raw = np.frombuffer(buf, dtype=np.uint8)
    g = -(-n // 8)
    nbytes = min(raw.size, (n * width + 7) // 8)
    packed = np.zeros(g * width, dtype=np.uint8)
    packed[:nbytes] = raw[:nbytes]
    lane_bytes = np.zeros((g, 8 * -(-width // 8)), dtype=np.uint8)
    lane_bytes[:, :width] = packed.reshape(g, width)
    lanes = lane_bytes.view(">u8").astype(np.uint64)
    out = np.empty((g, 8), dtype=np.uint64)
    for j, (lane, over) in enumerate(_slots(width)):
        if over <= 0:
            out[:, j] = lanes[:, lane] >> np.uint64(-over)
        else:
            out[:, j] = (lanes[:, lane] << np.uint64(over)) | (lanes[:, lane + 1] >> np.uint64(64 - over))
    if width < 64:
        out &= np.uint64((1 << width) - 1)
    return out.reshape(-1)[:n]


def unpack_bools(buf: bytes, n: int) -> np.ndarray:
    """A width-1 :func:`pack_bits` stream (PRESENT, bool DATA) as bool[n]."""
    return np.unpackbits(np.frombuffer(buf, dtype=np.uint8), count=n).view(bool)


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """int64 -> uint64 zigzag (0,-1,1,-2 -> 0,1,2,3). Wrap-safe."""
    v = np.ascontiguousarray(values, dtype=np.int64)
    u = v.view(np.uint64)
    sign = (v >> np.int64(63)).view(np.uint64)  # 0 or 0xFFFF...
    return (u << np.uint64(1)) ^ sign


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    """uint64 zigzag -> int64."""
    u = np.ascontiguousarray(values, dtype=np.uint64)
    return ((u >> np.uint64(1)) ^ (np.uint64(0) - (u & np.uint64(1)))).view(np.int64)


def write_uvarint(value: int) -> bytes:
    """LEB128 unsigned varint (scalar — used only in headers)."""
    out = bytearray()
    v = int(value)
    if v < 0:
        raise ValueError("uvarint takes unsigned")
    while True:
        b = v & 0x7F
        v >>= 7
        if v:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def read_uvarint(buf: bytes, pos: int = 0) -> tuple[int, int]:
    """Returns (value, new_pos)."""
    shift = 0
    value = 0
    while True:
        b = buf[pos]
        pos += 1
        value |= (b & 0x7F) << shift
        if not b & 0x80:
            return value, pos
        shift += 7
