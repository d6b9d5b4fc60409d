"""Raw-dump ingest: JSONL / CSV -> columnar stripes.

Web corpora arrive as JSON-lines (Common-Crawl derivatives) or CSV; the
reference only reads its own format (src/file_format.rs), so ingest is a
north-rule addition. Shape: Ray Data's native distributed readers
(`read_json` / `read_csv` — per-file read tasks, streaming) -> an
optional schema-normalization map (JSON type inference can drift
per block: an all-null column infers null-typed, ints become doubles)
-> the composable task-stage stripe encoder. Nothing materializes; a
100-TB dump streams file-by-file into stripes named by (run, task,
batch).
"""

from __future__ import annotations

import pyarrow as pa
import ray.data


def _normalize(schema: pa.Schema):
    """Cast every batch to the target schema (missing columns -> typed
    nulls, extra columns dropped, order fixed) so downstream stripes are
    schema-stable regardless of per-file inference drift."""

    def fn(batch: pa.Table) -> pa.Table:
        cols = []
        for f in schema:
            if f.name in batch.column_names:
                cols.append(batch.column(f.name).cast(f.type))
            else:
                cols.append(pa.nulls(batch.num_rows, f.type))
        return pa.Table.from_arrays(cols, schema=schema)

    return fn


def read_jsonl(
    paths: list[str] | str, schema: pa.Schema | None = None
) -> ray.data.Dataset:
    """Distributed JSON-lines reader (one read task per file/block),
    optionally schema-pinned."""
    ds = ray.data.read_json(paths)
    return ds.map_batches(_normalize(schema), batch_format="pyarrow") if schema else ds


def read_csv(
    paths: list[str] | str, schema: pa.Schema | None = None
) -> ray.data.Dataset:
    """Distributed CSV reader, optionally schema-pinned."""
    ds = ray.data.read_csv(paths)
    return ds.map_batches(_normalize(schema), batch_format="pyarrow") if schema else ds


def ingest_to_stripes(
    ds: ray.data.Dataset,
    out_dir: str,
    rows_per_stripe: int = 32768,
) -> pa.Table:
    """Encode any ingested Dataset into stripes; returns the per-stripe
    manifest rows (id, rows, bytes) the encoder emits. Streaming
    end-to-end: reader tasks feed the encoder task stage under
    backpressure. A retried task rewrites its own stripes; a re-run
    appends (``encode_parquet`` and ``ingest_orc`` resume)."""
    from ..pipelines.encode import encode_dataset
    from ..pipelines.relational import collect

    return collect(encode_dataset(ds, out_dir, rows_per_stripe=rows_per_stripe))
