"""External-ORC ingest: read real ORC files (written by any ORC writer)
as a ``ray.data.Dataset`` and re-encode them into RSTP stripes.

This closes the interop loop with the reference, which reads
external-writer ORC (its golden fixture tests/basic/data/
alltypes.snappy.orc — the same file our conformance test uses): a user
of the reference can point this engine at their existing ORC data and
keep their pipelines. One decode task per (file, stripe) — the ORC
stripe is the parallelism unit, mirroring the reference's
stripe-granular scan (src/physical_exec.rs:79-82).

Gated on pyarrow's optional orc module (import-try per the environment
rules); everything else in the engine works without it.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data

try:
    from pyarrow import orc as pa_orc

    HAVE_ORC = True
except ImportError:  # pragma: no cover - environment without pyarrow.orc
    pa_orc = None
    HAVE_ORC = False


def _require_orc() -> None:
    if not HAVE_ORC:
        raise NotImplementedError(
            "pyarrow was built without ORC support; external-ORC ingest is "
            "unavailable in this environment"
        )


def plan_orc_stripes(paths: list[str] | str) -> list[dict]:
    """Deterministic work list: one spec per (file, stripe), sorted by
    path (same sort-for-determinism as parquet fragment planning). A
    valid ORC file CAN hold zero stripes (an empty table): it gets one
    spec with stripe -1, which reads as the file's empty, typed table."""
    from ..pipelines.encode import input_files

    _require_orc()
    specs = []
    for p in input_files(paths, ".orc"):
        n = pa_orc.ORCFile(p).nstripes
        specs.extend({"path": p, "stripe": i} for i in (range(n) if n else [-1]))
    if not specs:
        raise FileNotFoundError(f"no ORC files under {paths!r}")
    return specs


def read_orc(
    paths: list[str] | str,
    columns: list[str] | None = None,
    concurrency: int | None = None,
) -> ray.data.Dataset:
    """External ORC -> Dataset; one decode task per ORC stripe, column
    pruning pushed into the ORC reader."""
    from ..stages.encode import read_fragment

    return ray.data.from_items(plan_orc_stripes(paths)).map_batches(
        lambda spec: read_fragment(spec.to_pylist()[0], columns),
        batch_format="pyarrow", batch_size=1, concurrency=concurrency,
    )


def write_orc(
    ds: ray.data.Dataset,
    out_dir: str,
    compression: str = "snappy",
    batch_rows: int | None = None,
    concurrency: int | None = None,
) -> ray.data.Dataset:
    """Dataset -> directory of real ORC files consumable by ANY external
    ORC reader (VERDICT r4 #4: the reference's whole ecosystem assumes
    ORC bytes exist — register_orc/read_orc over files on disk,
    src/lib.rs:107-118 — so emitting them closes the write half of the
    interop loop our read_orc opened). One ORC file per input block
    (``batch_rows`` regroups first when set), written inside the task
    that holds the block — no driver materialization, files land in
    parallel, and the returned manifest Dataset (path, rows, bytes) is
    the resumable-output record. Compression defaults to snappy to
    mirror the reference fixtures' codec. Type note: ORC's native
    timestamp precision is nanoseconds, so external readers hand
    non-ns timestamp columns back as timestamp[ns] — values identical,
    cast to recover the original unit."""
    _require_orc()
    from .. import io as dio

    dio.makedirs(out_dir)
    schema = pa.schema([("path", pa.string()), ("rows", pa.int64()), ("bytes", pa.int64())])

    def write_batch(batch):
        import uuid

        if batch.num_rows == 0:
            return schema.empty_table()
        path = dio.join(out_dir, f"part-{uuid.uuid4().hex}.orc")
        fs, p = dio.resolve(path)
        with fs.open_output_stream(p) as sink:
            pa_orc.write_table(batch, sink, compression=compression)
        row = {"path": path, "rows": batch.num_rows, "bytes": dio.file_size(path)}
        return pa.Table.from_pylist([row], schema=schema)

    kwargs = {"batch_format": "pyarrow", "concurrency": concurrency}
    if batch_rows is not None:
        kwargs["batch_size"] = batch_rows
    return ds.map_batches(write_batch, **kwargs)


def ingest_orc(
    paths: list[str] | str,
    out_dir: str,
    columns: list[str] | None = None,
) -> ray.data.Dataset:
    """External ORC -> RSTP stripe dir: ``encode_parquet``'s fragment
    stage over ORC stripes, one task per stripe, each read in-task and
    named by its position, so the stripes scan in file order and a rerun
    skips completed stripes. A zero-stripe file writes one 0-row stripe
    carrying its schema. Returns the manifest Dataset of stripes written
    THIS run."""
    from ..pipelines.encode import encode_fragment_specs

    return encode_fragment_specs(plan_orc_stripes(paths), out_dir, kwargs={"columns": columns})
