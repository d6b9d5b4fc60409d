"""Decode stage: manifest rows in, original Arrow batches out.

Mirrors the reference scan hot path (SURVEY.md §3.3 OrcOpener::open):
each task opens its stripe blob, reads the footer, decodes only the
projected columns (ProjectionMask semantics, src/physical_exec.rs:68-78)
and yields a RecordBatch stream. Decoding is stateless (all decode state
— FSST tables, dictionaries — travels inside the blob), so this is a
plain-function stage: cheap elastic tasks, no actor pool needed.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

import pyarrow as pa

from .. import stripe
from ..predicate import filter_table, normalize, read_columns


def make_stripe_decoder(
    columns: list[str] | None = None,
    predicate: tuple | list | None = None,
    unified_schema: pa.Schema | None = None,
    rows_per_block: int = 32768,
    footers: list | None = None,
) -> Callable[[pa.Table], Iterator[pa.Table]]:
    """Returns a map_batches fn. Input batches carry a ``path`` column
    (manifest rows); yields ≤``rows_per_block``-row slices per stripe so
    one oversized stripe never becomes one giant downstream block
    (mirrors the reference's fixed-row batch stream, src/file_source.rs:45
    — a slice of a decoded Arrow table is zero-copy, so this bounds every
    DOWNSTREAM stage's block size while decode memory stays one stripe).
    ``predicate`` applies the residual vectorized row filter after stats
    pruning (see sources.stripes); ``unified_schema`` null-fills columns a
    schema-evolved stripe lacks; ``footers`` (a list) gets each
    stripe's ``(path, payload, footer)`` (``stripe.decode_file``)."""
    preds = normalize(predicate)
    read_cols = read_columns(columns, preds)

    def decode_stripes(batch: pa.Table) -> Iterator[pa.Table]:
        # `batch` is MANIFEST rows (one per stripe assigned to this
        # task), never data rows — to_pylist here is O(files-per-task)
        # metadata, and each loop iteration is one stripe file's reads
        for path in batch.column("path").to_pylist():
            t = stripe.decode_file(
                path, columns=read_cols, unified_schema=unified_schema, predicate=preds,
                footers=footers,
            )
            if preds:
                t = filter_table(t, preds)
                if columns is not None:
                    t = t.select(columns)
            for start in range(0, t.num_rows, rows_per_block):
                yield t.slice(start, rows_per_block)
            if t.num_rows == 0:
                yield t  # keep the (empty, schema-bearing) table flowing

    return decode_stripes
