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

Every stripe is named before it is encoded by where its rows came from
(``fragment_position`` or ``batch_position``, then the piece), so a
rerun or a retried task rewrites the same names and skips durable ones.
"""

from __future__ import annotations

import functools
import itertools
import json
import secrets
import time

import pyarrow as pa

from .. import stripe
from ..state import manifest


def run_token() -> str:
    """A Dataset encode run's token: fixed-width hex nanoseconds, so a
    later run sorts after earlier ones, then random bits."""
    return f"{time.time_ns():016x}-{secrets.token_hex(4)}"


def batch_position(run: str | None) -> tuple[str, int, int] | None:
    """The next Dataset batch's position (run, task, batch). In a Ray
    task, ``task`` is its index in the map operator and ``batch`` counts
    its batches in ``TaskContext.kwargs`` (the private API Ray's own
    ``Dataset.random_sample`` uses), so a retried task rewrites the same
    names. None outside a Ray task or with no ``run``: the encoder then
    numbers the batch as an in-process call."""
    from ray.data._internal.execution.interfaces.task_context import TaskContext

    ctx = TaskContext.get_current()
    if run is None or ctx is None:
        return None
    key = f"datafusion_orc_ray.batches:{run}"
    n = ctx.kwargs.get(key, 0)
    ctx.kwargs[key] = n + 1
    return run, ctx.task_idx, n


def fragment_position(spec: dict) -> tuple[tuple[str, int], str]:
    """A file fragment's position (source, unit) and its lineage. A spec
    is ``{path, row_group}`` (``pipelines.encode.plan_fragments``) or
    ``{path, stripe}`` (``sources.orc.plan_orc_stripes``). A ``salt``
    (bench epochs over one corpus) joins the source, so salted copies
    are distinct stripes."""
    path = spec["path"]
    kind = "stripe" if "stripe" in spec else "row_group"
    source = f"{path}#{spec['salt']}" if spec.get("salt") else path
    lineage = f"{path}:{'stripe' if kind == 'stripe' else 'rg'}{spec[kind]}"
    return (source, spec[kind]), lineage


def fragment_stripe_id(spec: dict) -> str:
    """The id that marks a fragment done: its piece 0, which
    ``StripeEncoder.encode_pieces`` writes last."""
    return manifest.stripe_name(*fragment_position(spec)[0], 0)[0]


def read_fragment(spec: dict, columns: list[str] | None = None) -> pa.Table:
    """A fragment's rows, read inside the task (columns pruned at the
    read, S5): a Parquet row group or an ORC stripe (stripe -1: a
    zero-stripe file, read whole as its schema's empty table)."""
    if "stripe" in spec:
        from pyarrow import orc

        f = orc.ORCFile(spec["path"])
        if spec["stripe"] < 0:
            return f.read(columns=columns)
        return pa.Table.from_batches([f.read_stripe(spec["stripe"], columns=columns)])
    import pyarrow.parquet as pq

    with pq.ParquetFile(spec["path"]) as pf:
        return pf.read_row_group(spec["row_group"], columns=columns)


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


def split(batch: pa.Table, max_bytes: int, lineage: str = "") -> list[tuple[pa.Table, str]]:
    """``batch``'s ``row_slices`` with their lineages: ``lineage`` when
    uncut, else ``lineage#c<i>``."""
    pieces = row_slices(batch, max_bytes)
    if len(pieces) == 1:
        return [(batch, lineage)]
    return [(p, f"{lineage}#c{i}") for i, p in enumerate(pieces)]


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


TARGET_STRIPE_BYTES = 64 << 20  # default raw bytes bound of one stripe


def one_slot(stage):
    """``stage`` run with Arrow's pools pinned to one task's CPU slot,
    then restored: a num_cpus=N session really uses N cores (Parquet
    reads would otherwise fan out to every host core and distort
    per-stage accounting), and an in-process call leaves the caller's
    pools as they were."""

    @functools.wraps(stage)
    def pinned(*args, **kwargs):
        cpu, io = pa.cpu_count(), pa.io_thread_count()
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)
        try:
            return stage(*args, **kwargs)
        finally:
            pa.set_cpu_count(cpu)
            pa.set_io_thread_count(io)

    return pinned


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

    def __init__(self, out_dir: str, target_stripe_bytes: int = TARGET_STRIPE_BYTES) -> None:
        self.out_dir = out_dir
        self.target_stripe_bytes = target_stripe_bytes
        self.state = job_state(out_dir)
        # in-process calls (no Ray task): this encoder's run, and its
        # batches numbered in call order under task -1
        self._run, self._calls = run_token(), itertools.count()
        manifest.ensure_dirs(out_dir)

    def encode_split(
        self, batch: pa.Table, position: tuple | None = None, lineage: str = ""
    ) -> list[dict]:
        """Writes ``batch`` at ``position`` (default: the next in-process
        batch) as ``split`` pieces of at most ``target_stripe_bytes`` raw;
        returns their manifest entries in row order."""
        return self.encode_pieces(split(batch, self.target_stripe_bytes, lineage), position)

    def encode_pieces(
        self, pieces: list[tuple[pa.Table, str]], position: tuple | None = None
    ) -> list[dict]:
        """Writes each ``(table, lineage)`` piece as one stripe at ordinal
        ``(*position, i)`` and returns their manifest entries in order.
        Piece 0 is written LAST, so a fragment whose piece 0 is durable
        (``fragment_stripe_id``) has every piece durable."""
        position = position or (self._run, -1, next(self._calls))
        entries = [None] * len(pieces)
        for i in reversed(range(len(pieces))):
            sid, ordinal = manifest.stripe_name(*position, i)
            entries[i] = self.encode_one(pieces[i][0], sid, ordinal, pieces[i][1])
        return entries

    def encode_one(
        self,
        batch: pa.Table,
        stripe_id: str,
        ordinal: list | None = None,
        lineage: str = "",
        extra_entry: dict | None = None,
    ) -> dict:
        """Writes ``batch`` as ONE stripe, whatever its size, named
        ``stripe_id`` at ``ordinal`` (default ``[stripe_id]``: a stripe
        named by its caller scans in name order), unless an earlier
        attempt made it durable."""
        got = manifest.existing_entry(self.out_dir, stripe_id)
        if got is not None:
            return got
        blob = stripe.encode_table(batch, state=self.state)
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
                "ordinal": ordinal or [stripe_id],
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
    (``fragment_position``); the task reads each fragment itself
    (``read_fragment``) and writes it through ``encode_split``.

    The resume unit stays the FRAGMENT: piece 0 carries the
    ``fragment_stripe_id`` that ``completed_ids`` checks, and it is
    written LAST, so a fragment is only ever marked complete once every
    piece is durable. The piece count is deterministic from the data,
    so reruns produce identical names."""

    def __init__(self, out_dir: str, columns: list[str] | None = None, **kw) -> None:
        super().__init__(out_dir, **kw)
        self.columns = columns

    def __call__(self, batch: pa.Table) -> pa.Table:
        entries = []
        # `batch` is FRAGMENT SPECS (one row per row group or ORC
        # stripe), not data — each iteration reads and encodes one
        for spec in batch.to_pylist():
            position, lineage = fragment_position(spec)
            data = read_fragment(spec, self.columns)
            entries.extend(self.encode_split(data, position, lineage))
        return manifest_rows(entries)


@one_slot
def encode_batch(batch: pa.Table, out_dir: str, run: str | None = None) -> pa.Table:
    """``encode_dataset``'s task stage: one batch of run ``run`` ->
    bounded stripes."""
    return manifest_rows(StripeEncoder(out_dir).encode_split(batch, batch_position(run)))


@one_slot
def encode_fragments(specs: pa.Table, out_dir: str, columns: list[str] | None = None) -> pa.Table:
    """``encode_parquet``'s and ``ingest_orc``'s task stage: fragment
    specs -> stripes."""
    return FragmentEncoder(out_dir, columns=columns)(specs)
