"""``ray job submit`` entry point (north rule: the encode job runs via
ray job submit on a fixed-size multi-node cluster).

    ray job submit --working-dir . -- \
        python -m datafusion_orc_ray.job encode \
            --input s3://bucket/cc-parquet --out s3://bucket/stripes

Subcommands:
    encode   Parquet -> stripes (resumable fragment mode; reruns skip
             completed fragments via the manifest checkpoint)
    encode-clustered  key-clustered stripes (local zero-shuffle mode)
    decode   stripes -> Parquet (streaming sink, partitioned output)
    compact  merge small stripes (crash-safe replaces-tombstones)
    stats    print manifest totals (rows/bytes/ratio) without data IO
    lookup   point lookup (== predicate): manifest min/max prune stripes,
             footer bloom filters prove absent values absent after a
             footer-only read, survivors decode with a residual filter
    sql      SQL over registered stripe dirs (--table name=dir, repeat
             for joins); prints rows as JSON plus which execution path
             ran (stats_answer / aggregate_pushdown / topk_pushdown /
             stream); --explain prints the plan without executing

Inside a submitted job the cluster is already running; this script only
calls ray.init() when nothing else has (the library itself never does —
driver contract)."""

from __future__ import annotations

import argparse
import json


def _ensure_ray(local: bool) -> None:
    import ray

    if not ray.is_initialized():
        ray.init(address="local" if local else "auto")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="datafusion_orc_ray.job")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--local", action="store_true",
        help="start a local Ray instead of joining the cluster (dev only)",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    enc = sub.add_parser("encode", parents=[common])
    enc.add_argument("--input", required=True)
    enc.add_argument("--out", required=True)
    enc.add_argument("--columns", default=None, help="comma-separated projection")
    enc.add_argument("--no-resume", action="store_true")

    encc = sub.add_parser("encode-clustered", parents=[common])
    encc.add_argument("--input", required=True)
    encc.add_argument("--out", required=True)
    encc.add_argument("--key", default="lang")
    encc.add_argument("--salt-col", default="url")

    dec = sub.add_parser("decode", parents=[common])
    dec.add_argument("--stripes", required=True)
    dec.add_argument("--out", required=True)
    dec.add_argument("--columns", default=None)

    cmp_ = sub.add_parser("compact", parents=[common])
    cmp_.add_argument("--stripes", required=True)
    cmp_.add_argument("--target-mb", type=int, default=64)

    st = sub.add_parser("stats", parents=[common])
    st.add_argument("--stripes", required=True)

    va = sub.add_parser("validate", parents=[common])
    va.add_argument("--stripes", required=True)

    sn = sub.add_parser("snapshot", parents=[common])
    sn.add_argument("--stripes", required=True)

    lk = sub.add_parser("lookup", parents=[common])
    lk.add_argument("--stripes", required=True)
    lk.add_argument("--col", required=True)
    lk.add_argument("--value", required=True)
    lk.add_argument("--columns", default=None, help="comma-separated projection")
    lk.add_argument("--limit", type=int, default=20)

    sq = sub.add_parser("sql", parents=[common])
    sq.add_argument(
        "--table", action="append", required=True, metavar="NAME=DIR",
        help="register a stripe dir under NAME (repeatable)",
    )
    sq.add_argument("--query", required=True)
    sq.add_argument("--limit", type=int, default=1000, help="max rows printed")
    sq.add_argument("--explain", action="store_true", help="print the plan, don't run")

    args = p.parse_args(argv)
    from .pipelines import encode as ep
    from .state import manifest as man

    if args.cmd == "stats":  # metadata only — no Ray needed
        entries = man.load_manifest(args.stripes)
        raw = sum(e.get("raw_bytes", 0) for e in entries)
        enc_b = sum(e.get("encoded_bytes", 0) for e in entries)
        print(json.dumps({
            "n_stripes": len(entries),
            "rows": sum(e.get("n_rows", 0) for e in entries),
            "raw_bytes": raw,
            "encoded_bytes": enc_b,
            "ratio": round(raw / enc_b, 3) if enc_b else None,
        }))
        return 0

    _ensure_ray(getattr(args, "local", False))
    if args.cmd == "encode":
        cols = args.columns.split(",") if args.columns else None
        n = ep.encode_parquet(
            args.input, args.out, columns=cols, resume=not args.no_resume
        ).count()
        print(json.dumps({"stripes_written": n}))
    elif args.cmd == "encode-clustered":
        from .util import read_parquet_clean

        ds = read_parquet_clean(args.input)
        n = ep.encode_clustered(ds, args.out, key=args.key, salt_col=args.salt_col).count()
        print(json.dumps({"stripes_written": n}))
    elif args.cmd == "decode":
        cols = args.columns.split(",") if args.columns else None
        ep.decode_to_parquet(args.stripes, args.out, columns=cols)
        print(json.dumps({"ok": True}))
    elif args.cmd == "compact":
        n = ep.compact_stripes(args.stripes, target_bytes=args.target_mb << 20)
        print(json.dumps({"merged_stripes": n}))
    elif args.cmd == "snapshot":
        print(json.dumps({"snapshotted_rows": man.write_snapshot(args.stripes)}))
    elif args.cmd == "validate":
        import pyarrow.compute as pc

        from .pipelines.relational import collect
        from .sources.stripes import validate_stripes

        t = collect(validate_stripes(args.stripes))
        bad = t.filter(pc.invert(t.column("ok")))
        print(json.dumps({
            "n_stripes": t.num_rows,
            "n_streams_checked": int(pc.sum(t.column("n_checked")).as_py() or 0),
            "n_bad": bad.num_rows,
            "bad": [
                {"path": p, "why": w}
                for p, w in zip(
                    bad.column("path").to_pylist(), bad.column("bad").to_pylist()
                )
            ][:50],
        }))
        return 0 if bad.num_rows == 0 else 3
    elif args.cmd == "lookup":
        import pyarrow as pa

        from .sources.stripes import read_stripes, stripes_schema

        t = stripes_schema(args.stripes).field(args.col).type
        val: object = args.value
        if pa.types.is_integer(t):
            val = int(val)
        elif pa.types.is_floating(t):
            val = float(val)
        elif pa.types.is_boolean(t):
            if args.value.lower() not in ("true", "false", "0", "1"):
                raise SystemExit(f"--value {args.value!r} is not a boolean")
            val = args.value.lower() in ("true", "1")
        elif not (pa.types.is_string(t) or pa.types.is_large_string(t)):
            # temporal/decimal/binary predicates would hit an Arrow
            # kernel error inside a remote decode task — refuse here
            raise SystemExit(f"lookup on column type {t} is not supported")
        cols = args.columns.split(",") if args.columns else None
        ds = read_stripes(
            args.stripes, columns=cols, predicate=(args.col, "==", val)
        )
        rows = ds.limit(args.limit).take_all()
        print(json.dumps({"n": len(rows), "rows": rows}, default=str))
    elif args.cmd == "sql":
        from .sources.stripes import Catalog

        cat = Catalog()
        for spec in args.table:
            name, _, path = spec.partition("=")
            if not path:
                raise SystemExit(f"--table {spec!r}: expected NAME=DIR")
            cat.register_stripes(name, path)
        if args.explain:
            print(cat.explain(args.query))
            return 0
        t = cat.sql(args.query)
        out_rows = t.slice(0, args.limit).to_pylist()
        print(
            json.dumps(
                {
                    "n": t.num_rows,
                    "plan": cat.last_plan,
                    "rows": out_rows,
                    "truncated": t.num_rows > args.limit,
                },
                default=str,
            )
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
