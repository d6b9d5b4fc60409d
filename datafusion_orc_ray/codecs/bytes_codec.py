"""Value-bytes codecs for string/binary columns: RAW vs FSST.

The per-column-chunk choice (SURVEY.md §2.3 E8/E16/E17) between storing
the concatenated UTF-8/byte buffer raw (ORC DIRECT_V2 DATA stream
semantics, fixture evidence: alltypes cols 9,10) or FSST-compressed is
made here by a sampled trial; the outer general-purpose codec is layered
on top by the stripe writer either way.

Framing: [bytes_codec u8] + payload
  RAW : payload = the buffer
  FSST: payload = [uvarint symtab_len][symtab][codes]
"""

from __future__ import annotations

import numpy as np

from . import fsst, outer
from .bitpack import read_uvarint, write_uvarint

BYTES_RAW = 0
BYTES_FSST = 1

_NAMES = {BYTES_RAW: "raw", BYTES_FSST: "fsst"}

_TRAIN_SAMPLE = 16384  # training sample budget, bytes
_TRAIN_STRATA = 16     # at least this many rows share the budget
_TRIAL_SAMPLE = 65536

# average value length (bytes) past which a trial cannot pay: such
# columns get no dictionary trial (stripe.encode_column) and, under
# zstd, no FSST trial, since zstd alone wins on long text (every
# long-valued column in tools/selector_regret.py). No other outer codec
# was measured, so under those the FSST trial still runs.
LONG_VALUE_BYTES = 64


def bytes_codec_name(codec_id: int) -> str:
    return _NAMES[codec_id]


def _train_sample(data: np.ndarray, row_offsets: np.ndarray) -> bytes:
    """Up to ``_TRAIN_SAMPLE`` bytes of rows stratified across the column
    (EDBT 2019, Stratified Random Sampling): the middle row of each of k
    equal strata, k set so average rows fill the budget. A row gives at
    most 1/``_TRAIN_STRATA`` of it, so long documents still spread over
    that many strata. Systematic, so re-encodes are identical."""
    n = row_offsets.size - 1
    if data.size <= _TRAIN_SAMPLE:
        return data.tobytes()
    k = min(n, max(_TRAIN_STRATA, n * _TRAIN_SAMPLE // data.size))
    rows = (2 * np.arange(k) + 1) * n // (2 * k)
    starts = row_offsets[rows].astype(np.int64)
    lens = np.minimum(row_offsets[rows + 1] - starts, _TRAIN_SAMPLE // _TRAIN_STRATA)
    gather = np.repeat(starts - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())
    return data[gather[:_TRAIN_SAMPLE]].tobytes()


def choose(data: np.ndarray, row_offsets: np.ndarray, table: fsst.SymbolTable | None = None,
           outer_codec: int = outer.ZSTD):
    """Sampled trial: returns (codec_id, trained_table_or_None).

    The decision compares FINAL stream sizes — i.e. after the stripe's
    ``outer_codec`` — because FSST only earns its decode state when
    fsst+outer beats raw+outer (long documents: outer zstd alone
    usually wins; short repetitive strings like urls, or no outer codec:
    FSST wins). Values longer than ``LONG_VALUE_BYTES`` on average under
    zstd stay raw untried. A caller holding a cached table
    (the job's encoder state) passes it in; it is re-validated on this
    chunk's sample before reuse, so drifting data retrains instead of
    bloating (E16)."""
    n = int(data.size)
    if n < 64 or (outer_codec == outer.ZSTD and n > LONG_VALUE_BYTES * (row_offsets.size - 1)):
        return BYTES_RAW, None
    sample_end = int(np.searchsorted(row_offsets, min(n, _TRIAL_SAMPLE)))
    sample_end = max(1, min(sample_end, row_offsets.size - 1))
    s_data = data[: row_offsets[sample_end]]
    s_offsets = row_offsets[: sample_end + 1]
    if table is None:
        table = fsst.train(_train_sample(data, row_offsets))
    enc, _ = fsst.encode(table, s_data, s_offsets)
    raw_final = outer.stored_size(s_data, outer_codec)
    # the table is stored once per stream: charge the sample its share
    fsst_final = outer.stored_size(enc, outer_codec) + len(table.to_bytes()) * s_data.size / n
    if fsst_final >= 0.98 * raw_final:
        return BYTES_RAW, None
    return BYTES_FSST, table


def encode(
    data: np.ndarray,
    row_offsets: np.ndarray,
    codec_id: int,
    table: fsst.SymbolTable | None,
):
    """Returns the stream payload. RAW returns ``data`` itself (zero copy
    — the outer codec layer consumes buffer views); the codec id lives in
    the stream meta, not a payload prefix."""
    if codec_id == BYTES_RAW:
        return data
    assert table is not None
    enc, _ = fsst.encode(table, data, row_offsets)
    tab = table.to_bytes()
    return write_uvarint(len(tab)) + tab + enc


def decode(buf: bytes, codec_name: str) -> np.ndarray:
    if codec_name == "raw":
        return np.frombuffer(buf, dtype=np.uint8)
    if codec_name == "fsst":
        tab_len, pos = read_uvarint(buf, 0)
        table = fsst.SymbolTable.from_bytes(buf[pos : pos + tab_len])
        return fsst.decode(table, buf[pos + tab_len :])
    raise ValueError(f"unknown bytes codec {codec_name}")
