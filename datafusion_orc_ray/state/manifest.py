"""Per-partition lineage manifests = the checkpoint (SURVEY.md §4 rows
"Retries" and "Checkpoint / resume").

Each encoded stripe gets one small JSON manifest file written
durably (temp name + move) AFTER its blob is durable, so:
  * a failed run never leaves a manifest row for a half-written stripe;
  * restart lists ``manifest/``, skips completed partition ids, and
    re-runs only the missing ones;
  * stripe writes are idempotent: a stripe is named by its ordinal,
    where its rows came from, before it is encoded (``stripe_name``);
  * ``load_manifest`` returns ordinal order, so every reader scans in
    source order, as the reference scans an ORC file's stripes in file
    order (src/physical_exec.rs:79-82).

All IO goes through ``datafusion_orc_ray.io`` (pyarrow.fs), so an
out_dir may be a local path, file:// URI, or object-store URI — the
reference's object_store abstraction (src/object_store_reader.rs:39-59).
The reference itself has no checkpointing (read-only engine, SURVEY.md
§4); this is the north-rule addition "resumable from checkpointed
manifests".
"""

from __future__ import annotations

import hashlib
import json

from .. import io as dio

MANIFEST_DIR = "manifest"
STRIPE_DIR = "stripes"


def stripe_name(source: str, *position: int) -> tuple[str, list]:
    """(id, ordinal) of the stripe at ``position`` in ``source`` (an input
    path or a Dataset run token): the ordinal ``[source, *position]`` is
    its place in scan order, and the id hashes it."""
    ordinal = [source, *(int(p) for p in position)]
    return hashlib.sha1(json.dumps(ordinal).encode()).hexdigest()[:20], ordinal


def _scan_order(entry: dict) -> tuple[list, str]:
    if "ordinal" not in entry:
        raise ValueError(
            f"manifest entry for stripe {entry.get('path')} has no ordinal: "
            "written by an older format; re-encode the directory"
        )
    return entry["ordinal"], entry["stripe_id"]


def stripe_paths(out_dir: str, stripe_id: str) -> tuple[str, str]:
    return (
        dio.join(out_dir, STRIPE_DIR, f"{stripe_id}.rstp"),
        dio.join(out_dir, MANIFEST_DIR, f"{stripe_id}.json"),
    )


def ensure_dirs(out_dir: str) -> None:
    dio.makedirs(dio.join(out_dir, STRIPE_DIR))
    dio.makedirs(dio.join(out_dir, MANIFEST_DIR))


def existing_entry(out_dir: str, stripe_id: str) -> dict | None:
    """The manifest entry for ``stripe_id`` if that stripe is already
    durable, else None — lets an encoder skip the whole encode on resume
    or task retry instead of re-compressing just to have write_stripe
    discard the result."""
    _, man_path = stripe_paths(out_dir, stripe_id)
    try:
        return json.loads(dio.read_bytes(man_path))
    except (FileNotFoundError, OSError):
        return None


def write_stripe(out_dir: str, stripe_id: str, blob: bytes, entry: dict) -> dict:
    """Durably write blob then manifest row; returns the manifest entry.
    Callers check ``existing_entry`` first; a racing second attempt
    rewrites the same bytes under the same name."""
    blob_path, man_path = stripe_paths(out_dir, stripe_id)
    dio.write_bytes_atomic(blob_path, blob)
    entry = {
        "stripe_id": stripe_id,
        "path": blob_path,
        "encoded_bytes": len(blob),
        **entry,
    }
    dio.write_bytes_atomic(man_path, json.dumps(entry, separators=(",", ":")).encode())
    return entry


COMPACT_PREFIX = "cmp-"
SNAPSHOT_NAME = "_snapshot.arrow"  # no .json suffix: invisible to row listings


def write_snapshot(out_dir: str) -> int:
    """Consolidate every manifest row into ONE Arrow IPC file so later
    ``load_manifest`` calls GET only the snapshot plus rows written
    since (1 + delta GETs instead of one per stripe — at 100-TB stripe
    counts the per-row GETs are hours of driver metadata IO). Safe by
    construction: rows are immutable once written (append-only, atomic
    rename), stale snapshot names are ignored because readers iterate
    the CURRENT listing, and the replaced-id filter runs after the
    merge — so a snapshot can only be slow (bigger delta), never wrong.
    Returns the number of rows snapshotted. Run it from maintenance
    points (compaction does automatically)."""
    import pyarrow as pa
    import pyarrow.ipc

    mdir = dio.join(out_dir, MANIFEST_DIR)
    names = sorted(f for f in dio.list_dir(mdir) if f.endswith(".json"))
    blobs = [dio.read_bytes(dio.join(mdir, f)) for f in names]
    tbl = pa.table(
        {
            "name": pa.array(names, pa.string()),
            "entry_json": pa.array([b.decode() for b in blobs], pa.string()),
        }
    )
    import io as _io

    buf = _io.BytesIO()
    with pa.ipc.new_file(buf, tbl.schema) as w:
        w.write_table(tbl)
    dio.write_bytes_atomic(dio.join(mdir, SNAPSHOT_NAME), buf.getvalue())
    return len(names)


def _read_snapshot(mdir: str) -> dict[str, str]:
    """{manifest name -> entry json} from the snapshot, {} when absent
    or unreadable (readers fall back to per-row GETs)."""
    import pyarrow as pa
    import pyarrow.ipc

    try:
        raw = dio.read_bytes(dio.join(mdir, SNAPSHOT_NAME))
    except (FileNotFoundError, OSError):
        return {}
    try:
        tbl = pa.ipc.open_file(pa.py_buffer(raw)).read_all()
        return dict(
            zip(tbl.column("name").to_pylist(), tbl.column("entry_json").to_pylist())
        )
    except (pa.ArrowInvalid, KeyError):
        return {}  # torn/corrupt snapshot: correctness never depends on it


def _replaced_ids(out_dir: str, names: list[str], snap: dict[str, str]) -> set[str]:
    """Stripe ids superseded by compacted stripes: each ``cmp-*``
    manifest lists the member ids it replaces. Reading only those
    manifests keeps the common path names-only; snapshot-covered rows
    need no GET at all."""
    mdir = dio.join(out_dir, MANIFEST_DIR)
    replaced: set[str] = set()
    for f in names:
        if f.startswith(COMPACT_PREFIX) and f.endswith(".json"):
            raw = snap.get(f)
            entry = json.loads(raw if raw is not None else dio.read_bytes(dio.join(mdir, f)))
            replaced.update(entry.get("replaces", []))
    return replaced


def completed_ids(out_dir: str) -> set[str]:
    """Ids that need no re-encode: present manifests PLUS ids replaced by
    compaction (their files may be gone, but the data lives on in the
    merged stripes — resume must not redo those fragments)."""
    mdir = dio.join(out_dir, MANIFEST_DIR)
    names = [f for f in dio.list_dir(mdir) if f.endswith(".json")]
    ids = {f[: -len(".json")] for f in names}
    return ids | _replaced_ids(out_dir, names, _read_snapshot(mdir))


def load_manifest(out_dir: str) -> list[dict]:
    """Current manifest entries in ordinal (scan) order; an entry with no
    ordinal raises ``ValueError``. Entries whose id is listed in a
    compacted stripe's ``replaces`` are EXCLUDED even if their files
    still exist — the compaction commit point is the merged manifest
    write, so a crash between that write and member cleanup never
    surfaces duplicate rows."""
    mdir = dio.join(out_dir, MANIFEST_DIR)
    snap = _read_snapshot(mdir)
    entries = [
        json.loads(snap[f] if f in snap else dio.read_bytes(dio.join(mdir, f)))
        for f in dio.list_dir(mdir)
        if f.endswith(".json")
    ]
    replaced = {rid for e in entries for rid in e.get("replaces", [])}
    return sorted((e for e in entries if e["stripe_id"] not in replaced), key=_scan_order)
