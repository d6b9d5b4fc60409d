"""Encode stages for ``Dataset.map_batches``.

The pipelines map plain functions (``encode_batch``, ``encode_fragments``),
so Ray runs them as task stages on pooled workers, each CPU slot freed
when its task ends (SURVEY.md §3.3 Ray lifecycle). Their ``EncoderState``
(cached FSST/dict codec decisions, re-validated periodically — E16) is
the worker process's ``job_state``: shared by the tasks of the job writing
one ``out_dir``, never by another job. Every stripe embeds its own symbol
tables, so decode needs no encoder state.

One input batch -> stripe blobs of at most ``target_stripe_bytes`` raw
on disk (``StripeEncoder.encode_split``) + one manifest row each out.
The output of the stage is the manifest Dataset — small rows — so the
pipeline streams: heavy bytes go straight to storage from the worker,
never back through the driver.
"""

from __future__ import annotations

import hashlib
import json

import pyarrow as pa

from .. import stripe
from ..state import manifest


def _content_id(blobs: list[bytes]) -> str:
    h = hashlib.sha1()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()[:20]


def _piece_id(stripe_id: str, i: int, n: int) -> str:
    """Id of piece ``i`` of ``n``: piece 0 keeps the id, and ``_`` sorts
    after the ``.`` of ``<id>.rstp``, so a path sort of the pieces is row
    order (the index is zero-padded to one width per batch)."""
    return stripe_id if i == 0 else f"{stripe_id}_c{i:0{max(4, len(str(n - 1)))}d}"


def row_slices(table: pa.Table, max_bytes: int) -> list[pa.Table]:
    """``table`` cut into ⌈nbytes / max_bytes⌉ even row slices, any slice
    still above ``max_bytes`` (uneven rows) cut again; a single row is
    never cut."""
    if table.nbytes <= max_bytes or table.num_rows <= 1:
        return [table]
    if any(pa.types.is_dictionary(f.type) for f in table.schema):
        # a sliced dictionary array counts its whole dictionary in
        # nbytes; stripes store values densely anyway (encode_table)
        table = table.cast(pa.schema(
            [f.with_type(f.type.value_type) if pa.types.is_dictionary(f.type) else f
             for f in table.schema],
            metadata=table.schema.metadata,
        ))
        return row_slices(table, max_bytes)
    n = min(-(-table.nbytes // max_bytes), table.num_rows)
    step = -(-table.num_rows // n)
    return [
        piece
        for start in range(0, table.num_rows, step)
        for piece in row_slices(table.slice(start, step), max_bytes)
    ]


def manifest_row_schema() -> pa.Schema:
    return pa.schema(
        [
            ("stripe_id", pa.string()),
            ("path", pa.string()),
            ("n_rows", pa.int64()),
            ("raw_bytes", pa.int64()),
            ("encoded_bytes", pa.int64()),
            ("lineage", pa.string()),
            ("columns_json", pa.string()),
            # serialized Arrow schema: schema derivation from manifests
            # alone (stripes_schema) — no per-stripe footer GETs, which
            # at 100 TB / 32 MB stripes would be millions of tail reads
            # on the driver
            ("schema_b64", pa.string()),
        ]
    )


def manifest_rows(entries: list[dict]) -> pa.Table:
    """Manifest entries as rows of ``manifest_row_schema`` (entry keys
    outside it, such as compaction's ``replaces``, are dropped)."""
    names = manifest_row_schema().names
    return pa.Table.from_pylist(
        [{k: e.get(k) for k in names} for e in entries], schema=manifest_row_schema()
    )


_JOB_STATE: tuple[str, stripe.EncoderState] | None = None  # (out_dir, state)


def job_state(out_dir: str) -> stripe.EncoderState:
    """The encoder state of the job writing ``out_dir``, kept in one
    process-level slot: Ray reuses task workers, so a job's fragments
    share codec decisions, and a task of another job replaces the slot."""
    global _JOB_STATE
    slot = _JOB_STATE  # one read: a racing caller cannot hand back its state
    if slot is None or slot[0] != out_dir:
        slot = _JOB_STATE = (out_dir, stripe.EncoderState())
    return slot[1]


class StripeEncoder:
    """Encodes tables into stripes under ``out_dir``; ``encode_batch``
    is its task-stage form. ``target_stripe_bytes`` bounds every stripe
    that ``encode_split`` writes: one stripe is one decode unit and one
    read task, so a 512 MB input batch must never become one 512 MB
    decode block (reference batches at fixed size,
    src/file_source.rs:45)."""

    def __init__(self, out_dir: str, target_stripe_bytes: int = 64 << 20) -> None:
        # a task holds one CPU slot: pin Arrow's internal pools so a
        # num_cpus=N session really uses N cores (otherwise parquet reads
        # fan out to every host core and distort per-stage accounting)
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)
        self.out_dir = out_dir
        self.target_stripe_bytes = target_stripe_bytes
        self.state = job_state(out_dir)
        manifest.ensure_dirs(out_dir)

    def encode_split(
        self, batch: pa.Table, stripe_id: str | None = None, lineage: str = ""
    ) -> list[dict]:
        """Writes ``batch`` as ``row_slices`` of at most
        ``target_stripe_bytes`` raw, one stripe each, and returns their
        manifest entries in row order. Piece ids come from ``_piece_id``.
        Piece 0 is written LAST, so a caller that resumes on
        ``stripe_id`` sees it only once every piece is durable. Without
        ``stripe_id`` the pieces share one content id, hashed over all
        of their blobs."""
        pieces = row_slices(batch, self.target_stripe_bytes)
        if len(pieces) == 1:
            return [self.encode_one(batch, stripe_id, lineage)]
        blobs = None
        if stripe_id is None:  # content-addressed: the id needs every blob
            blobs = [self._encode(p) for p in pieces]
            stripe_id = _content_id(blobs)
        entries = [None] * len(pieces)
        for i in reversed(range(len(pieces))):  # piece 0 (the resume marker) last
            sid, lin = _piece_id(stripe_id, i, len(pieces)), f"{lineage}#c{i}"
            if blobs is None:
                entries[i] = self.encode_one(pieces[i], sid, lin)
            else:
                entries[i] = self._write(pieces[i], blobs[i], sid, lin)
        return entries

    def encode_one(
        self,
        batch: pa.Table,
        stripe_id: str | None = None,
        lineage: str = "",
        extra_entry: dict | None = None,
    ) -> dict:
        """Writes ``batch`` as ONE stripe, whatever its size."""
        if stripe_id is not None:
            # deterministic (fragment-addressed) ids are known BEFORE
            # encoding: a stripe made durable by an interrupted attempt
            # skips the whole re-encode on resume (content-addressed ids
            # genuinely need encode-first to learn their id)
            got = manifest.existing_entry(self.out_dir, stripe_id)
            if got is not None:
                return got
        blob = self._encode(batch)
        if stripe_id is None:
            stripe_id = _content_id([blob])  # content-addressed -> idempotent rewrite
        return self._write(batch, blob, stripe_id, lineage, extra_entry)

    def _encode(self, batch: pa.Table) -> bytes:
        return stripe.encode_table(batch, state=self.state)

    def _write(
        self,
        batch: pa.Table,
        blob: bytes,
        stripe_id: str,
        lineage: str = "",
        extra_entry: dict | None = None,
    ) -> dict:
        footer = stripe.read_footer(blob)
        col_metrics = [
            {
                "path": c["path"],
                "enc": c["enc"],
                "streams": {
                    k: {kk: s[kk] for kk in ("codec", "outer", "size", "pre_outer_size") if kk in s}
                    for k, s in c["streams"].items()
                },
                "stats": c.get("stats", {}),
            }
            for c in footer["columns"]
        ]
        return manifest.write_stripe(
            self.out_dir,
            stripe_id,
            blob,
            {
                "n_rows": batch.num_rows,
                "raw_bytes": batch.nbytes,
                "lineage": lineage,
                "columns_json": json.dumps(col_metrics, separators=(",", ":")),
                "schema_b64": footer["schema_b64"],
                **(extra_entry or {}),
            },
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        return manifest_rows(self.encode_split(batch))


class FragmentEncoder(StripeEncoder):
    """Deterministic-partition variant: the batch rows are fragment specs
    ``{path, row_group}`` (planned by pipelines.encode.plan_fragments);
    the task reads its row group straight from Parquet (columns pruned
    at the read, S5) and writes it through ``encode_split``.

    Resume unit stays the FRAGMENT: piece 0 carries the fragment hash id
    that ``completed_ids`` checks, and it is written LAST, so a fragment
    is only ever marked complete once every piece is durable. The piece
    count is deterministic from the data, so reruns produce identical
    ids."""

    def __init__(self, out_dir: str, columns: list[str] | None = None, **kw) -> None:
        super().__init__(out_dir, **kw)
        self.columns = columns

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        entries = []
        # `batch` is FRAGMENT SPECS (one row per parquet row-group), not
        # data — the loop is O(row-groups-per-task) and each iteration
        # reads + encodes a whole row group.
        for spec in batch.to_pylist():
            path, rg = spec["path"], spec["row_group"]
            frag_key = f"{path}:rg{rg}"
            if spec.get("salt"):  # e.g. bench epochs: distinct stripe per salt
                frag_key += f":{spec['salt']}"
            frag_id = hashlib.sha1(frag_key.encode()).hexdigest()[:20]
            with pq.ParquetFile(path) as pf:
                data = pf.read_row_group(rg, columns=self.columns)
            entries.extend(self.encode_split(data, stripe_id=frag_id, lineage=frag_key))
        return manifest_rows(entries)


def encode_batch(batch: pa.Table, out_dir: str) -> pa.Table:
    """``encode_dataset``'s task stage: one batch -> bounded stripes."""
    return StripeEncoder(out_dir)(batch)


def encode_fragments(specs: pa.Table, out_dir: str, columns: list[str] | None = None) -> pa.Table:
    """``encode_parquet``'s task stage: fragment specs -> stripes."""
    return FragmentEncoder(out_dir, columns=columns)(specs)
