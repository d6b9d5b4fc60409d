"""Manifest scale proof (VERDICT r4 task 5): a synthetic 100k-stripe
manifest must load with ONE snapshot GET plus a bounded delta, with
bounded driver memory, and schema derivation must stay metadata-only
(zero stripe-blob reads). At 100-TB stripe counts the per-row GET
alternative is hours of driver metadata IO — these tests pin the shape,
not just the result.

The 100k-row directory is built ONCE (module fixture — 3× rebuilds cost
~45 s of suite time) and the tests run in file order, each documenting
the rows the previous one appended."""

from __future__ import annotations

import base64
import json
import os
import tracemalloc

import pyarrow as pa
import pytest

from datafusion_orc_ray import io as dio
from datafusion_orc_ray.state import manifest as man

N_SNAP = 100_000
N_DELTA = 32


@pytest.fixture(scope="module")
def big_manifest(tmp_path_factory):
    """100k manifest rows + snapshot, written directly (plain open():
    the atomic temp+rename path is exercised elsewhere; here volume
    matters)."""
    out = str(tmp_path_factory.mktemp("manscale") / "big")
    mdir = os.path.join(out, man.MANIFEST_DIR)
    os.makedirs(mdir, exist_ok=True)
    schema_b64 = base64.b64encode(
        pa.schema([("url", pa.string()), ("text", pa.string())]).serialize().to_pybytes()
    ).decode()
    for i in range(N_SNAP):
        sid = f"frag-{i:07d}"
        row = {
            "stripe_id": sid,
            "ordinal": ["/corpus/in.parquet", i, 0],
            "path": os.path.join(out, man.STRIPE_DIR, f"{sid}.rstp"),
            "encoded_bytes": 1 << 20,
            "rows": 10_000,
            "schema_b64": schema_b64,
        }
        with open(os.path.join(mdir, f"{sid}.json"), "w") as f:
            f.write(json.dumps(row, separators=(",", ":")))
    assert man.write_snapshot(out) == N_SNAP
    return out


class _GetCounter:
    """Counts dio.read_bytes calls = object-store GETs. manifest.py and
    sources/stripes.py hold `dio` by module ref, so one setattr covers
    both."""

    def __init__(self, monkeypatch):
        self.count = 0
        self.paths = []
        real = dio.read_bytes

        def counted(path, *a, **kw):
            self.count += 1
            self.paths.append(path)
            return real(path, *a, **kw)

        monkeypatch.setattr(dio, "read_bytes", counted)


def test_manifest_100k_schema_is_metadata_only(big_manifest, monkeypatch):
    """stripes_schema over 100k rows must do zero stripe-blob reads:
    schema_b64 rides in the manifest rows, so the only GET is the
    snapshot that load_manifest itself needs."""
    from datafusion_orc_ray.sources import stripes as src

    src._SCHEMA_CACHE.pop(big_manifest, None)
    ctr = _GetCounter(monkeypatch)
    schema = src.stripes_schema(big_manifest)
    assert schema.names == ["url", "text"]
    assert ctr.count == 1  # snapshot only; no per-stripe footer/tail reads
    assert not any(p.endswith(".rstp") for p in ctr.paths)
    src._SCHEMA_CACHE.pop(big_manifest, None)  # don't leak into later tests


def test_manifest_100k_snapshot_one_get_plus_delta(big_manifest, monkeypatch):
    # post-snapshot writers append N_DELTA more rows (the delta)
    mdir = os.path.join(big_manifest, man.MANIFEST_DIR)
    for i in range(N_DELTA):
        sid = f"late-{i:03d}"
        with open(os.path.join(mdir, f"{sid}.json"), "w") as f:
            f.write(json.dumps({"stripe_id": sid, "path": f"/x/{sid}.rstp",
                                "ordinal": ["/corpus/late.parquet", i, 0],
                                "encoded_bytes": 1}))

    ctr = _GetCounter(monkeypatch)
    tracemalloc.start()
    entries = man.load_manifest(big_manifest)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert len(entries) == N_SNAP + N_DELTA
    # ONE snapshot GET + one GET per delta row; never one per stripe
    assert ctr.count == 1 + N_DELTA
    # driver memory stays bounded: ~100k small dicts; the bound is
    # generous but catches any per-row re-buffering of the snapshot
    # bytes (O(rows x snapshot))
    assert peak < 256 * 1024 * 1024


def test_snapshot_refresh_rebounds_delta(big_manifest, monkeypatch):
    """A second write_snapshot after deltas folds them in: load is back
    to exactly one GET. (The previous test left N_DELTA late- rows.)
    The refresh itself GETs the old snapshot and the delta rows only."""
    ctr0 = _GetCounter(monkeypatch)
    assert man.write_snapshot(big_manifest) == N_SNAP + N_DELTA
    assert ctr0.count == 1 + N_DELTA
    ctr = _GetCounter(monkeypatch)
    assert len(man.load_manifest(big_manifest)) == N_SNAP + N_DELTA
    assert ctr.count == 1


def test_resume_ids_cost_one_get_plus_delta(big_manifest, monkeypatch):
    """``completed_ids``, resume's skip list, reads rows as
    ``load_manifest`` does: the snapshot plus one GET per row written
    since (it must parse them: a torn row is not done). It folds those
    rows into the snapshot, so the next resume GETs the snapshot alone.
    (The previous test snapshotted every row so far.)"""
    mdir = os.path.join(big_manifest, man.MANIFEST_DIR)
    for i in range(N_DELTA):
        sid = f"resume-{i:03d}"
        with open(os.path.join(mdir, f"{sid}.json"), "w") as f:
            f.write(json.dumps({"stripe_id": sid, "path": f"/x/{sid}.rstp",
                                "ordinal": ["/corpus/resume.parquet", i, 0],
                                "encoded_bytes": 1}))

    ctr = _GetCounter(monkeypatch)
    ids = man.completed_ids(big_manifest)
    assert len(ids) == N_SNAP + 2 * N_DELTA
    assert ctr.count == 1 + N_DELTA
    ctr2 = _GetCounter(monkeypatch)
    assert man.completed_ids(big_manifest) == ids
    assert ctr2.count == 1
