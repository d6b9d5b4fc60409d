"""Selector regret of the string/binary bytes codec (RAW vs FSST).

For every string/binary column of three sources — ``fixtures.webtext_table``,
TPC-H sf 0.01 (DuckDB's built-in ``dbgen``) and pyarrow's bundled Apache
ORC corpus — prints:

* the codec ``bytes_codec.choose`` picks for the whole column;
* the final stored size of that choice (bytes codec, then the outer codec
  as the stripe writer applies it, ``outer.compress_auto``);
* the exhaustive best: the smaller of raw+outer and FSST+outer with a
  table trained on a full 32 KB prefix, both over the whole column;
* regret = chosen / best (1.0 = the selector found the best).

This measures the bytes codec alone: a column the stripe writer would
dictionary-encode is still trialled here on its value bytes.

Usage: python tools/selector_regret.py [--outer zstd|none]
"""

from __future__ import annotations

import argparse
import os
import sys

import pyarrow as pa
import pyarrow.orc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

from datafusion_orc_ray import fixtures, stripe  # noqa: E402
from datafusion_orc_ray.codecs import bytes_codec, fsst, outer  # noqa: E402

EXHAUSTIVE_TRAIN = 32768
ORC_CORPUS = os.path.join(os.path.dirname(pa.__file__), "tests", "data", "orc")


def _is_bytes(t: pa.DataType) -> bool:
    return any(f(t) for f in (pa.types.is_string, pa.types.is_large_string,
                              pa.types.is_binary, pa.types.is_large_binary))


def _string_columns(source: str, table: pa.Table):
    """(name, array) for each string/binary column, struct fields included."""
    todo = [(f"{source}.{f.name}", table.column(f.name).combine_chunks()) for f in table.schema]
    while todo:
        name, arr = todo.pop(0)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        if pa.types.is_struct(arr.type):
            todo.extend((f"{name}.{arr.type.field(i).name}", arr.field(i))
                        for i in range(arr.type.num_fields))
        elif _is_bytes(arr.type):
            yield name, arr


def webtext_columns(rows: int = 2000, seed: int = 1):
    return list(_string_columns("webtext", fixtures.webtext_table(rows, seed=seed)))


def tpch_columns(sf: float = 0.01):
    import duckdb

    con = duckdb.connect()
    try:
        con.execute(f"CALL dbgen(sf={sf})")
        names = [r[0] for r in con.execute("SHOW TABLES").fetchall()]
        tables = {n: con.execute(f"SELECT * FROM {n}").arrow() for n in sorted(names)}
    finally:
        con.close()
    return [c for n, t in tables.items() for c in _string_columns(f"tpch.{n}", t)]


def orc_corpus_columns():
    out = []
    for fn in sorted(os.listdir(ORC_CORPUS)):
        if fn.endswith(".orc"):
            t = pa.orc.read_table(os.path.join(ORC_CORPUS, fn))
            out.extend(_string_columns(f"orc.{fn[:-len('.orc')]}", t))
    return out


def _stored(payload, outer_codec: int) -> int:
    return sum(len(memoryview(p).cast("B")) for p in outer.compress_auto(payload, outer_codec))


def regret(arr: pa.Array, outer_codec: int = outer.ZSTD) -> dict:
    """Selector choice against the exhaustive best for one column."""
    data, offs = stripe._binary_parts(arr)
    codec, table = bytes_codec.choose(data, offs, None, outer_codec)
    chosen = _stored(bytes_codec.encode(data, offs, codec, table), outer_codec)
    raw = _stored(data, outer_codec)
    best = raw
    if data.size:
        full = fsst.train(data[:EXHAUSTIVE_TRAIN].tobytes())
        fsst_size = _stored(bytes_codec.encode(data, offs, bytes_codec.BYTES_FSST, full), outer_codec)
        best = min(raw, fsst_size)
    return {
        "codec": bytes_codec.bytes_codec_name(codec),
        "raw_bytes": int(data.size),
        "chosen": chosen,
        "best": best,
        "regret": chosen / best if best else 1.0,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outer", choices=("zstd", "none"), default="zstd")
    args = ap.parse_args()
    oc = outer.ZSTD if args.outer == "zstd" else outer.NONE
    cols = webtext_columns() + tpch_columns() + orc_corpus_columns()
    print(f"{'column':42s} {'codec':>5s} {'raw':>10s} {'chosen':>10s} {'best':>10s} {'regret':>7s}")
    worst = 1.0
    for name, arr in cols:
        r = regret(arr, oc)
        worst = max(worst, r["regret"])
        print(f"{name:42s} {r['codec']:>5s} {r['raw_bytes']:10d} {r['chosen']:10d} "
              f"{r['best']:10d} {r['regret']:7.3f}")
    print(f"max regret {worst:.3f} over {len(cols)} columns (outer={args.outer})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
