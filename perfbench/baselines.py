"""Size and single-core write/read time of standard formats on the same
tables, reported beside ``stored_bytes_per_raw_byte`` (not gated)."""

from __future__ import annotations

import io
import time


def _parquet(t):
    import pyarrow.parquet as pq

    def write():
        buf = io.BytesIO()
        pq.write_table(t, buf, compression="zstd")
        return buf.getvalue()

    return write, lambda b: pq.read_table(io.BytesIO(b))


def _ipc(t):
    import pyarrow as pa

    def write():
        sink = pa.BufferOutputStream()
        opts = pa.ipc.IpcWriteOptions(compression="zstd")
        with pa.ipc.new_file(sink, t.schema, options=opts) as w:
            w.write_table(t)
        return sink.getvalue().to_pybytes()

    return write, lambda b: pa.ipc.open_file(pa.py_buffer(b)).read_all()


def _orc(t):
    import pyarrow.orc as orc

    def write():
        buf = io.BytesIO()
        orc.write_table(t, buf, compression="snappy")
        return buf.getvalue()

    return write, lambda b: orc.read_table(io.BytesIO(b))


FORMATS = {"parquet_zstd": _parquet, "ipc_zstd": _ipc, "orc_snappy": _orc}


def measure(tables: dict, ours: float) -> dict:
    """{format: {bytes, bytes_per_raw_byte, write_s, read_s}} summed over
    ``tables``, with Arrow pinned to one thread; ``ours`` is the
    program's stored bytes per raw byte on the same tables."""
    import pyarrow as pa

    raw = sum(t.nbytes for t in tables.values())
    cpu, io_ = pa.cpu_count(), pa.io_thread_count()
    pa.set_cpu_count(1)
    pa.set_io_thread_count(1)
    out: dict = {"raw_bytes": raw, "ours_bytes_per_raw_byte": ours}
    try:
        for fmt, make in FORMATS.items():
            size = w_s = r_s = 0.0
            for t in tables.values():
                write, read = make(t)
                t0 = time.perf_counter()
                blob = write()
                t1 = time.perf_counter()
                read(blob)
                t2 = time.perf_counter()
                size += len(blob)
                w_s += t1 - t0
                r_s += t2 - t1
            out[fmt] = {
                "bytes": int(size),
                "bytes_per_raw_byte": size / raw,
                "write_s": w_s,
                "read_s": r_s,
            }
    finally:
        pa.set_cpu_count(cpu)
        pa.set_io_thread_count(io_)
    return out
