"""Stripes are named and ordered by where their rows came from: a scan
returns rows in source order (no sort), identical batches keep every
row, an empty ORC file decodes to its schema, compaction merges source
neighbours, and an interrupted encode resumes to the manifest a clean
run writes."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from datafusion_orc_ray.pipelines import encode as ep
from datafusion_orc_ray.pipelines.relational import collect
from datafusion_orc_ray.stages import encode as se
from datafusion_orc_ray.state import manifest as man

pa_orc = pytest.importorskip("pyarrow.orc")

ORC_DIR = os.path.join(os.path.dirname(pa.__file__), "tests", "data", "orc")
DATE1900 = os.path.join(ORC_DIR, "TestOrcFile.testDate1900.orc")  # 8 stripes, 70k rows
EMPTY = os.path.join(ORC_DIR, "TestOrcFile.emptyFile.orc")  # 0 stripes


def _ten_row_groups(path: str) -> pa.Table:
    n = 20_000
    t = pa.table({"x": pa.array(range(n), pa.int64()),
                  "s": pa.array([f"v{i % 13}" for i in range(n)])})
    pq.write_table(t, path, row_group_size=n // 10)
    return t


def _orc_spec_table(path: str) -> pa.Table:
    from datafusion_orc_ray.sources.orc import plan_orc_stripes

    return pa.Table.from_pylist(plan_orc_stripes(path))


def test_parquet_row_groups_decode_in_source_order(ray_session, tmp_path):
    t = _ten_row_groups(f"{tmp_path}/in.parquet")
    ep.encode_parquet(f"{tmp_path}/in.parquet", f"{tmp_path}/out").take_all()
    assert collect(ep.decode_stripes(f"{tmp_path}/out")).equals(t)
    entries = man.load_manifest(f"{tmp_path}/out")
    assert [e["ordinal"][1] for e in entries] == list(range(10))


def test_dataset_encode_keeps_source_order(ray_session, tmp_path):
    import ray.data

    t = pa_orc.read_table(DATE1900)
    ep.encode_dataset(ray.data.from_arrow(t), f"{tmp_path}/out", rows_per_stripe=8192).take_all()
    assert len(man.load_manifest(f"{tmp_path}/out")) == 9  # ceil(70k / 8192)
    assert collect(ep.decode_stripes(f"{tmp_path}/out")).equals(t)


def test_ingest_orc_keeps_file_order(ray_session, tmp_path):
    from datafusion_orc_ray.sources.orc import ingest_orc

    rows = ingest_orc(DATE1900, f"{tmp_path}/out").take_all()
    assert len(rows) == 8  # one stripe per ORC stripe
    assert collect(ep.decode_stripes(f"{tmp_path}/out")).equals(pa_orc.read_table(DATE1900))


def test_identical_batches_keep_every_row(ray_session, tmp_path):
    """Four byte-identical 1,024-row batches are four stripes, through
    the plain and the clustered Dataset encoder."""
    import ray.data

    t = pa.table({"x": pa.array([7] * 4096, pa.int64())})
    runs = {
        "plain": lambda out: ep.encode_dataset(
            ray.data.from_arrow(t), out, rows_per_stripe=1024
        ).take_all(),
        "clustered": lambda out: ep._encode_key_runs(
            t, out, key="x", salt_col="x", rows_per_stripe=1024, target_stripe_bytes=32 << 20
        ).to_pylist(),
    }
    for name, run in runs.items():
        out = f"{tmp_path}/{name}"
        rows = run(out)
        entries = man.load_manifest(out)
        assert len(rows) == len(entries) == 4, name
        assert sum(e["n_rows"] for e in entries) == 4096, name
        assert collect(ep.decode_stripes(out)).equals(t), name


def test_rerun_of_dataset_encode_appends(ray_session, tmp_path):
    """A second encode_dataset into the same directory is a new run: its
    stripes are added, and scan after the first run's."""
    import ray.data

    out = f"{tmp_path}/out"
    first = pa.table({"x": pa.array(range(100), pa.int64())})
    second = pa.table({"x": pa.array(range(100, 150), pa.int64())})
    for t in (first, second):
        ep.encode_dataset(ray.data.from_arrow(t), out).take_all()
    assert collect(ep.decode_stripes(out)).equals(pa.concat_tables([first, second]))


def test_empty_orc_file_decodes_to_its_schema(ray_session, tmp_path):
    from datafusion_orc_ray.sources.orc import ingest_orc

    rows = ingest_orc(EMPTY, f"{tmp_path}/out").take_all()
    assert [r["n_rows"] for r in rows] == [0]  # one 0-row stripe
    got = collect(ep.decode_stripes(f"{tmp_path}/out"))
    assert got.num_rows == 0
    assert got.schema.equals(pa_orc.ORCFile(EMPTY).schema)


def test_compaction_merges_source_neighbours(ray_session, tmp_path):
    t = _ten_row_groups(f"{tmp_path}/in.parquet")
    out = f"{tmp_path}/out"
    ep.encode_parquet(f"{tmp_path}/in.parquet", out).take_all()
    per_stripe = max(e["raw_bytes"] for e in man.load_manifest(out))
    assert ep.compact_stripes(out, target_bytes=3 * per_stripe) == 3  # 3+3+3, one left
    assert collect(ep.decode_stripes(out)).equals(t)
    entries = man.load_manifest(out)
    assert len(entries) == 4
    assert [e["ordinal"][1] for e in entries] == [0, 3, 6, 9]


def _manifest(out: str) -> list[tuple]:
    return [
        (e["stripe_id"], e["ordinal"], e["n_rows"], e["encoded_bytes"], e["lineage"])
        for e in man.load_manifest(out)
    ]


def test_parquet_resume_after_interrupt_equals_clean_run(ray_session, tmp_path):
    """``encode_parquet`` stopped after 4 of 10 fragments (their tasks
    ran, the rest never started), then resumed, writes the manifest of a
    clean run. The data is the same in every row group, so each
    fragment's codec choice is the same in either run."""
    src = f"{tmp_path}/in.parquet"
    _ten_row_groups(src)
    ep.encode_parquet(src, f"{tmp_path}/clean").take_all()
    frags = ep.plan_fragments(src)
    se.encode_fragments(pa.Table.from_pylist(frags[:4]), out_dir=f"{tmp_path}/resumed")
    redone = ep.encode_parquet(src, f"{tmp_path}/resumed").take_all()
    assert len(redone) == 6
    assert _manifest(f"{tmp_path}/resumed") == _manifest(f"{tmp_path}/clean")


def test_torn_manifest_row_is_named_and_resume_rewrites_it(ray_session, tmp_path):
    """A truncated manifest row: ``load_manifest`` names it, resume
    re-encodes its fragment alone and ends with a clean run's rows."""
    import pickle

    src = f"{tmp_path}/in.parquet"
    t = _ten_row_groups(src)
    ep.encode_parquet(src, f"{tmp_path}/clean").take_all()
    out = f"{tmp_path}/torn"
    ep.encode_parquet(src, out).take_all()
    sid = se.fragment_stripe_id(ep.plan_fragments(src)[3])
    _, row = man.stripe_paths(out, sid)
    with open(row, "rb") as f:
        raw = f.read()
    with open(row, "wb") as f:
        f.write(raw[: len(raw) // 2])
    with pytest.raises(man.ManifestCorruptError) as err:
        man.load_manifest(out)
    assert err.value.row == row and row in str(err.value)
    assert str(pickle.loads(pickle.dumps(err.value))) == str(err.value)
    assert sid not in man.completed_ids(out)
    # completed_ids snapshotted the rows it read, all but the torn one
    assert f"{sid}.json" not in man._read_snapshot(f"{out}/{man.MANIFEST_DIR}")
    assert man.existing_entry(out, sid) is None
    redone = ep.encode_parquet(src, out).take_all()
    assert [r["stripe_id"] for r in redone] == [sid]
    assert _manifest(out) == _manifest(f"{tmp_path}/clean")
    assert collect(ep.decode_stripes(out)).equals(t)


def test_torn_later_piece_reopens_its_fragment(tmp_path):
    """The first piece marks a fragment done, so a torn later piece
    takes the first out of ``completed_ids``; re-encoding the fragment
    rewrites only the torn piece."""
    src = f"{tmp_path}/in.parquet"
    _ten_row_groups(src)
    specs = pa.Table.from_pylist(ep.plan_fragments(src)).slice(0, 2)
    out = f"{tmp_path}/out"
    se.FragmentEncoder(out, target_stripe_bytes=8 << 10)(specs)
    entries = man.load_manifest(out)
    first = se.fragment_stripe_id(specs.to_pylist()[0])
    later = next(e for e in entries if e["ordinal"][1:] == [0, 2])
    _, row = man.stripe_paths(out, later["stripe_id"])
    with open(row, "r+b") as f:
        f.truncate(10)
    done = man.completed_ids(out)
    assert first not in done and later["stripe_id"] not in done
    assert len(done) == len(entries) - 2
    rows = se.FragmentEncoder(out, target_stripe_bytes=8 << 10)(specs.slice(0, 1))
    assert man.load_manifest(out) == entries
    assert rows.num_rows == len([e for e in entries if e["ordinal"][1] == 0])


def test_ingest_orc_resume_after_interrupt_equals_clean_run(ray_session, tmp_path):
    """The same for ``ingest_orc`` over the 8-stripe ORC file, stopped
    after 3 stripes."""
    from datafusion_orc_ray.sources.orc import ingest_orc

    ingest_orc(DATE1900, f"{tmp_path}/clean").take_all()
    se.encode_fragments(_orc_spec_table(DATE1900).slice(0, 3), out_dir=f"{tmp_path}/resumed")
    redone = ingest_orc(DATE1900, f"{tmp_path}/resumed").take_all()
    assert len(redone) == 5
    assert _manifest(f"{tmp_path}/resumed") == _manifest(f"{tmp_path}/clean")
    assert ingest_orc(DATE1900, f"{tmp_path}/resumed").count() == 0  # all done


@pytest.mark.parametrize("encoder", ["plain", "clustered"])
def test_dataset_encode_keeps_order_of_a_concurrent_input(ray_session, tmp_path, encoder):
    """Blocks that a concurrent stage finishes out of order still encode
    in source order: the first block's task sleeps longest. Each block
    is one key run, already sorted, so clustering leaves it as it is."""
    import time

    import ray.data

    blocks = [
        pa.table({"k": pa.array([f"k{b}"] * 1000), "x": pa.array(range(b * 1000, (b + 1) * 1000))})
        for b in range(8)
    ]

    def late_first(batch: pa.Table) -> pa.Table:
        time.sleep(1.0 if batch.column("x")[0].as_py() == 0 else 0.0)
        return batch

    ds = ray.data.from_arrow(blocks).map_batches(
        late_first, batch_format="pyarrow", batch_size=None, concurrency=4
    )
    out = f"{tmp_path}/out"
    if encoder == "plain":
        ep.encode_dataset(ds, out, rows_per_stripe=1000, concurrency=2).take_all()
    else:
        ep.encode_clustered(ds, out, key="k", salt_col="x", rows_per_stripe=1000).take_all()
    assert collect(ep.decode_stripes(out)).equals(pa.concat_tables(blocks))
