"""Encode stages for ``Dataset.map_batches``.

The pipelines map plain functions (``encode_batch``, ``encode_fragments``),
so Ray runs them as task stages on pooled workers, each CPU slot freed
when its task ends (SURVEY.md §3.3 Ray lifecycle). Their ``EncoderState``
(cached FSST/dict codec decisions, re-validated periodically — E16) is
the worker process's ``job_state``: shared by the tasks of the job writing
one ``out_dir``, never by another job. Every stripe embeds its own symbol
tables, so decode needs no encoder state.

One input batch -> one stripe blob on disk + one manifest row out.
The output of the stage is the manifest Dataset — small rows — so the
pipeline streams: heavy bytes go straight to storage from the worker,
never back through the driver.
"""

from __future__ import annotations

import hashlib
import json

import pyarrow as pa

from .. import stripe
from ..codecs import outer
from ..state import manifest


def _content_id(blob: bytes) -> str:
    return hashlib.sha1(blob).hexdigest()[:20]


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
            # on the driver. Old manifests without it fall back to
            # footer reads.
            ("schema_b64", pa.string()),
        ]
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
    is its task-stage form."""

    def __init__(self, out_dir: str, outer_codec: int = outer.ZSTD, lineage: str = "") -> None:
        # a task holds one CPU slot: pin Arrow's internal pools so a
        # num_cpus=N session really uses N cores (otherwise parquet reads
        # fan out to every host core and distort per-stage accounting)
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)
        self.out_dir = out_dir
        self.outer_codec = outer_codec
        self.lineage = lineage
        self.state = job_state(out_dir)
        manifest.ensure_dirs(out_dir)

    def encode_one(
        self,
        batch: pa.Table,
        stripe_id: str | None = None,
        lineage: str = "",
        extra_entry: dict | None = None,
    ) -> dict:
        if stripe_id is not None:
            # deterministic (fragment-addressed) ids are known BEFORE
            # encoding: a chunk made durable by an interrupted attempt
            # skips the whole re-encode on resume (content-addressed ids
            # genuinely need encode-first to learn their id)
            got = manifest.existing_entry(self.out_dir, stripe_id)
            if got is not None:
                return got
        blob = stripe.encode_table(batch, state=self.state, outer_codec=self.outer_codec)
        if stripe_id is None:
            stripe_id = _content_id(blob)  # content-addressed -> idempotent rewrite
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
                "lineage": lineage or self.lineage,
                "columns_json": json.dumps(col_metrics, separators=(",", ":")),
                "schema_b64": footer["schema_b64"],
                **(extra_entry or {}),
            },
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        entry = self.encode_one(batch)
        # .get: resume can return a pre-upgrade entry without newer keys
        return pa.Table.from_pylist(
            [{k: entry.get(k) for k in manifest_row_schema().names}],
            schema=manifest_row_schema(),
        )


class FragmentEncoder(StripeEncoder):
    """Deterministic-partition variant: the batch rows are fragment specs
    ``{path, row_group}`` (planned by pipelines.encode.plan_fragments);
    the task reads its row group straight from Parquet (columns pruned
    at the read, S5). A row group larger than ``target_stripe_bytes``
    raw is split into multiple stripes (chunk count is deterministic
    from the data, so reruns produce identical ids) — a 512 MB input
    row group must never become one 512 MB stripe/decode block
    (reference batches at fixed size, src/file_source.rs:45).

    Resume unit stays the FRAGMENT: chunk 0 carries the fragment hash id
    that ``completed_ids`` checks, and it is written LAST, so a fragment
    is only ever marked complete once every chunk stripe is durable."""

    def __init__(
        self,
        out_dir: str,
        columns: list[str] | None = None,
        target_stripe_bytes: int = 64 << 20,
        **kw,
    ) -> None:
        super().__init__(out_dir, **kw)
        self.columns = columns
        self.target_stripe_bytes = target_stripe_bytes

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        rows = []
        # `batch` is FRAGMENT SPECS (one row per parquet row-group), not
        # data — the loop is O(row-groups-per-task) and each iteration
        # reads + encodes a whole row group.
        for spec in batch.to_pylist():
            path, rg = spec["path"], spec["row_group"]
            frag_key = f"{path}:rg{rg}"
            if spec.get("salt"):  # e.g. bench epochs: distinct stripe per salt
                frag_key += f":{spec['salt']}"
            frag_id = hashlib.sha1(frag_key.encode()).hexdigest()[:20]
            pf = pq.ParquetFile(path)
            data = pf.read_row_group(rg, columns=self.columns)
            n_chunks = max(1, -(-data.nbytes // self.target_stripe_bytes))
            rows_per_chunk = -(-data.num_rows // n_chunks) if data.num_rows else 1
            chunks = [
                data.slice(s, rows_per_chunk)
                for s in range(0, max(data.num_rows, 1), rows_per_chunk)
            ]
            entries = [None] * len(chunks)
            for i in range(len(chunks) - 1, -1, -1):  # chunk 0 (marker) last
                sid = frag_id if i == 0 else f"{frag_id}-c{i}"
                lineage = frag_key if len(chunks) == 1 else f"{frag_key}#c{i}"
                entries[i] = self.encode_one(chunks[i], stripe_id=sid, lineage=lineage)
            for entry in entries:
                # .get: resume can return pre-upgrade entries lacking
                # newer keys (schema_b64)
                rows.append({k: entry.get(k) for k in manifest_row_schema().names})
        return pa.Table.from_pylist(rows, schema=manifest_row_schema())


def encode_batch(batch: pa.Table, out_dir: str) -> pa.Table:
    """``encode_dataset``'s task stage: one batch -> one stripe."""
    return StripeEncoder(out_dir)(batch)


def encode_fragments(specs: pa.Table, out_dir: str, columns: list[str] | None = None) -> pa.Table:
    """``encode_parquet``'s task stage: fragment specs -> stripes."""
    return FragmentEncoder(out_dir, columns=columns)(specs)
