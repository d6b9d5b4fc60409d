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


class ManifestCorruptError(ValueError):
    """A manifest row that does not parse as an entry (a torn or
    truncated write); ``row`` is its path."""

    def __init__(self, row: str, detail: str) -> None:
        self.row, self.detail = row, detail
        super().__init__(f"corrupt manifest row {row}: {detail}")

    def __reduce__(self):  # task errors travel pickled
        return type(self), (self.row, self.detail)


def _parse_row(row: str, raw) -> dict:
    """The entry in manifest row ``row`` (its bytes or JSON text)."""
    try:
        entry = json.loads(raw)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ManifestCorruptError(row, str(exc)) from None
    if not isinstance(entry, dict) or "stripe_id" not in entry:
        raise ManifestCorruptError(row, "no stripe_id")
    return entry


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
    discard the result. A torn row counts as absent, so the encode
    rewrites it."""
    _, man_path = stripe_paths(out_dir, stripe_id)
    try:
        return _parse_row(man_path, dio.read_bytes(man_path))
    except (OSError, ManifestCorruptError):
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
    the CURRENT listing, the replaced-id filter runs after the merge,
    and a torn row is left out (it stays in the delta until rewritten)
    — so a snapshot can only be slow (bigger delta), never wrong.
    Costs the old snapshot's GET plus one per row it does not hold.
    Returns the number of rows snapshotted. Run it from maintenance
    points (compaction and resume do automatically)."""
    mdir = dio.join(out_dir, MANIFEST_DIR)
    return _write_snapshot(mdir, _rows(mdir, _read_snapshot(mdir)))


def _write_snapshot(mdir: str, rows: dict[str, dict | ManifestCorruptError]) -> int:
    import io as _io

    import pyarrow as pa
    import pyarrow.ipc

    names = sorted(f for f, e in rows.items() if isinstance(e, dict))
    tbl = pa.table(
        {
            "name": pa.array(names, pa.string()),
            "entry_json": pa.array(
                [json.dumps(rows[f], separators=(",", ":")) for f in names], pa.string()
            ),
        }
    )
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


def _rows(mdir: str, snap: dict[str, str]) -> dict[str, dict | ManifestCorruptError]:
    """Row name -> entry of every listed manifest row, or the error of a
    row that does not parse. Rows the snapshot ``snap`` holds need no
    GET."""
    rows: dict[str, dict | ManifestCorruptError] = {}
    for f in dio.list_dir(mdir):
        if not f.endswith(".json"):
            continue
        path = dio.join(mdir, f)
        try:
            rows[f] = _parse_row(path, snap[f] if f in snap else dio.read_bytes(path))
        except ManifestCorruptError as exc:
            rows[f] = exc
    return rows


def completed_ids(out_dir: str) -> set[str]:
    """The ids a resume may skip: rows that parse, less the first piece
    of a source position one of whose later pieces is torn (the first
    piece marks a fragment done), PLUS ids replaced by compaction (their
    files may be gone, but the data lives on in the merged stripes).

    Costs one snapshot GET plus one per row the snapshot does not hold,
    as ``load_manifest`` does. When it GETs any, it folds the rows that
    parse into a new snapshot (one PUT), so a row written since the last
    snapshot is read by one resume, not by every later one."""
    mdir = dio.join(out_dir, MANIFEST_DIR)
    snap = _read_snapshot(mdir)
    rows = _rows(mdir, snap)
    if any(f not in snap for f in rows):
        _write_snapshot(mdir, rows)
    by_id = {f[: -len(".json")]: e for f, e in rows.items()}
    done = {sid for sid, e in by_id.items() if isinstance(e, dict)}
    if len(done) < len(by_id):
        for sid in list(done):
            *position, piece = by_id[sid].get("ordinal", [None])
            i = 1
            while piece == 0 and (later := stripe_name(*position, i)[0]) in by_id:
                if later not in done:
                    done.discard(sid)
                    break
                i += 1
    return done | {rid for sid in done for rid in by_id[sid].get("replaces", [])}


def column_stats(entry: dict) -> dict[str, dict]:
    """``{column path: stats}`` of one manifest entry, parsed from its
    ``columns_json``."""
    return {c["path"]: c.get("stats", {}) for c in json.loads(entry.get("columns_json", "[]"))}


def load_manifest(out_dir: str) -> list[dict]:
    """Current manifest entries in ordinal (scan) order; an entry with no
    ordinal raises ``ValueError``, a row that does not parse
    ``ManifestCorruptError``. Entries whose id is listed in a
    compacted stripe's ``replaces`` are EXCLUDED even if their files
    still exist — the compaction commit point is the merged manifest
    write, so a crash between that write and member cleanup never
    surfaces duplicate rows."""
    mdir = dio.join(out_dir, MANIFEST_DIR)
    entries = list(_rows(mdir, _read_snapshot(mdir)).values())
    for e in entries:
        if isinstance(e, ManifestCorruptError):
            raise e
    replaced = {rid for e in entries for rid in e.get("replaces", [])}
    return sorted((e for e in entries if e["stripe_id"] not in replaced), key=_scan_order)
