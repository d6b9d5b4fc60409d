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


def make_stripe_decoder(
    columns: list[str] | None = None,
    predicate: tuple[str, str, object] | list | None = None,
    unified_schema: pa.Schema | None = None,
    rows_per_block: int = 32768,
) -> Callable[[pa.Table], Iterator[pa.Table]]:
    """Returns a map_batches fn. Input batches carry a ``path`` column
    (manifest rows); yields ≤``rows_per_block``-row slices per stripe so
    one oversized stripe never becomes one giant downstream block
    (mirrors the reference's fixed-row batch stream, src/file_source.rs:45
    — a slice of a decoded Arrow table is zero-copy, so this bounds every
    DOWNSTREAM stage's block size while decode memory stays one stripe).
    ``predicate`` applies the residual vectorized row filter after stats
    pruning (see sources.stripes); ``unified_schema`` null-fills columns a
    schema-evolved stripe lacks."""
    from ..stripe import _is_or, _pred_list, pred_flat_conjuncts

    preds = _pred_list(predicate)
    read_cols = columns
    if preds and columns is not None:
        extra = [p[0] for p in pred_flat_conjuncts(preds) if p[0] not in columns]
        if extra:
            read_cols = [*columns, *dict.fromkeys(extra)]

    def decode_stripes(batch: pa.Table) -> Iterator[pa.Table]:
        import pyarrow.compute as pc

        ops = {
            "<": pc.less, "<=": pc.less_equal, ">": pc.greater,
            ">=": pc.greater_equal, "==": pc.equal,
            "isnull": lambda c, _v: pc.is_null(c),
            "notnull": lambda c, _v: pc.is_valid(c),
        }
        # `batch` is MANIFEST rows (one per stripe assigned to this
        # task), never data rows — to_pylist here is O(files-per-task)
        # metadata, and each loop iteration is a full file/range read.
        for path in batch.column("path").to_pylist():
            if read_cols is not None or preds:
                # projected / filtered: ranged reads of just the selected
                # streams, none when the footer bloom rules the stripe out
                t = stripe.decode_file(
                    path, columns=read_cols, unified_schema=unified_schema,
                    predicate=preds or None,
                )
            else:
                from .. import io as dio

                # full decode: one sequential read (any pyarrow.fs URI)
                try:
                    t = stripe.decode_table(dio.read_bytes(path), unified_schema=unified_schema)
                except stripe.StripeCorruptError as e:  # name the file, not the bytes
                    raise stripe.StripeCorruptError(path, e.column, e.stream, e.detail) from None
            if preds:
                # residual AND filter; or-groups combine their disjuncts
                # with SQL (Kleene) OR semantics — null OR true is true —
                # and Table.filter drops null mask slots, matching SQL
                # WHERE for the nulls that remain
                for p in preds:
                    if _is_or(p):
                        m = None
                        for d in p[1]:
                            dm = None
                            for col, op, val in d:
                                c = ops[op](t.column(col), val)
                                dm = c if dm is None else pc.and_kleene(dm, c)
                            m = dm if m is None else pc.or_kleene(m, dm)
                        t = t.filter(m)
                    else:
                        col, op, val = p
                        t = t.filter(ops[op](t.column(col), val))
                if columns is not None:
                    t = t.select(columns)
            for start in range(0, t.num_rows, rows_per_block):
                yield t.slice(start, rows_per_block)
            if t.num_rows == 0:
                yield t  # keep the (empty, schema-bearing) table flowing

    return decode_stripes
