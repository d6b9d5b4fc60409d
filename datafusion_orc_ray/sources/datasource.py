"""StripeDatasource — the stripe format as a first-class
``ray.data.Datasource`` (the user-extension surface SURVEY §2.4 maps to
the reference's FileFormat/FileSource trait impls, src/file_format.rs).

One read task per stripe that survives stats pruning, each carrying its
row/byte metadata from the manifests, so the streaming executor can size
blocks, report progress, and schedule with real size estimates; the
projection and residual filter are pushed into each task's decode. Both
``read_stripes`` and ``Catalog.sql`` scan through it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

from ..state import manifest

if TYPE_CHECKING:  # pragma: no cover
    import pyarrow as pa


class StripeDatasource(Datasource):
    def __init__(
        self,
        out_dir: str,
        columns: list[str] | None = None,
        predicate: tuple | list | None = None,
        entries: list[dict] | None = None,
        schema: pa.Schema | None = None,
    ) -> None:
        """``entries``: the directory's loaded manifest entries, and
        ``schema`` their merged schema (``stripes_schema``), when the
        caller has them."""
        from ..predicate import normalize
        from .stripes import _stats_may_match, stripes_schema

        # a bad shape or op fails here, on the driver, before any task
        self._predicate = preds = normalize(predicate)
        self._columns = columns
        entries = manifest.load_manifest(out_dir) if entries is None else entries
        if not entries:
            raise FileNotFoundError(f"no manifest entries under {out_dir}")
        self._schema = stripes_schema(out_dir, entries) if schema is None else schema
        # ordinal order, one read task per stripe; AND semantics: a
        # stripe survives only if EVERY item may match its stats, which
        # are parsed once per stripe
        self._entries = []
        for e in entries:
            stats = manifest.column_stats(e) if preds else None
            if all(_stats_may_match(e, p, stats) for p in preds):
                self._entries.append(e)
        # set to a list, it collects each decoded stripe's (path, payload,
        # footer) from read tasks run in this process (``stripe.decode_file``)
        self.footers: list | None = None

    def estimate_inmemory_data_size(self) -> int | None:
        return sum(e.get("raw_bytes", 0) for e in self._entries) or None

    def verify(self, footers: list) -> bool:
        """Whether each surviving stripe's footer bytes are still those in
        ``footers`` (a ``(payload, footer)`` per stripe, in order), each
        stream its read task would decode read and CRC-checked on the way,
        with the same reads (``stripe.decode_file``'s verify mode); stops
        at the first stripe whose footer differs."""
        from .. import stripe
        from ..predicate import read_columns

        cols = read_columns(self._columns, self._predicate)
        return all(
            stripe.decode_file(e["path"], columns=cols, unified_schema=self._schema,
                               predicate=self._predicate, verify=footer)
            for e, footer in zip(self._entries, footers, strict=True)
        )

    def get_name(self) -> str:
        return "Stripes"

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        import pyarrow as pa

        from ..stages.decode import make_stripe_decoder

        decoder = make_stripe_decoder(
            self._columns,
            predicate=self._predicate,
            unified_schema=self._schema,
            footers=self.footers,
        )
        out_schema = (
            pa.schema([self._schema.field(c) for c in self._columns])
            if self._columns is not None
            else self._schema
        )
        tasks = []
        for e in self._entries:  # one stripe, one read task
            path = e["path"]
            # with a residual predicate the true output rows are unknown
            # until decode; report size as an estimate only
            meta = BlockMetadata(
                num_rows=None if self._predicate else e.get("n_rows"),
                size_bytes=e.get("raw_bytes"),
                exec_stats=None,
                input_files=[path],
            )
            tasks.append(
                ReadTask(lambda path=path: decoder(pa.table({"path": [path]})), meta, schema=out_schema)
            )
        if not tasks:
            # empty (fully pruned) scan: one no-op task keeps the schema
            empty = pa.Table.from_pylist([], schema=out_schema)
            tasks.append(
                ReadTask(
                    lambda empty=empty: [empty],
                    BlockMetadata(num_rows=0, size_bytes=0, exec_stats=None, input_files=[]),
                    schema=out_schema,
                )
            )
        return tasks
