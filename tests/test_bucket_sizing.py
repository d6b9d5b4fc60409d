"""Co-location bucket sizing (VERDICT r3 'What's wrong' #1): the
window/median/sessionize/bucket-join family must size its __bucket
modulus from SAMPLED INPUT BYTES, not CPU count — a CPU-derived count
makes one map_groups task hold corpus/(2 x CPUs) bytes, which is ~50 GB
per task at 100 TB on 1000 CPUs."""

import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data

from datafusion_orc_ray.util import bytes_scaled_buckets, estimate_size_bytes


def _big_table(mb: int) -> pa.Table:
    n = (mb << 20) // 16  # two int64 columns = 16 B/row
    ids = np.arange(n, dtype=np.int64)
    return pa.table({"user_id": ids % 5000, "v": ids})


def test_bucket_count_scales_with_bytes(ray_session):
    tbl = _big_table(32)
    ds = ray.data.from_arrow(tbl)
    est = estimate_size_bytes(ds)
    assert est is not None and est >= tbl.nbytes * 0.9
    # 32 MB at 1 MB/bucket -> ~32 buckets, beyond a floor of 4
    n = bytes_scaled_buckets(ds, target_bucket_bytes=1 << 20, floor=4)
    assert 28 <= n <= 40, n
    # floor dominates for small inputs
    small = ray.data.from_arrow(_big_table(1))
    assert bytes_scaled_buckets(small, target_bucket_bytes=1 << 30, floor=4) == 4


def test_bucket_count_scales_through_map_transforms(ray_session):
    """VERDICT r4 #1: a post-transform input must NOT silently revert to
    the CPU floor (the r3 scale-killer shape). The deep estimate walks
    the logical plan to the nearest size-known ancestor, so bucket count
    scales with the upstream bytes of a large post-map input."""
    from datafusion_orc_ray.util import estimate_size_bytes_deep

    ds = ray.data.from_arrow(_big_table(32)).map_batches(
        lambda b: b, batch_format="pyarrow"
    )
    assert estimate_size_bytes(ds) is None  # shallow: map output unknown
    est = estimate_size_bytes_deep(ds)
    assert est is not None and est >= (32 << 20) * 0.9
    n = bytes_scaled_buckets(ds, target_bucket_bytes=1 << 20, floor=4)
    assert 28 <= n <= 40, n


class _Node:
    def __init__(self, size, deps=()):
        self._size = size
        self.input_dependencies = list(deps)

    def infer_metadata(self):
        node = self

        class _M:
            size_bytes = node._size

        return _M()


class _FakeDs:
    def __init__(self, dag):
        class _P:
            pass

        self._logical_plan = _P()
        self._logical_plan.dag = dag


def test_deep_estimate_resolution_semantics():
    from datafusion_orc_ray.util import estimate_size_bytes_deep

    # nearest-known-ancestor wins over deeper leaves
    assert estimate_size_bytes_deep(_FakeDs(_Node(None, [_Node(64)]))) == 64
    assert estimate_size_bytes_deep(_FakeDs(_Node(100, [_Node(1)]))) == 100
    # multi-input (union/join) nodes sum their resolved inputs
    dag = _Node(None, [_Node(None, [_Node(40)]), _Node(60)])
    assert estimate_size_bytes_deep(_FakeDs(dag)) == 100
    # ANY size-unknown leaf poisons the sum -> None (floor stands)
    dag = _Node(None, [_Node(None), _Node(60)])
    assert estimate_size_bytes_deep(_FakeDs(dag)) is None


def test_a_failing_metadata_read_propagates():
    """Only a node or metadata without the field means "unknown": an
    error raised while inferring metadata (here an unreadable file) is
    not turned into a silent fallback."""
    from datafusion_orc_ray.util import estimate_size_bytes_deep

    class _Unreadable(_Node):
        def infer_metadata(self):
            raise OSError("footer read failed")

    with pytest.raises(OSError, match="footer read failed"):
        estimate_size_bytes_deep(_FakeDs(_Node(None, [_Unreadable(None)])))
    assert estimate_size_bytes_deep(_FakeDs(_Node(None, [object()]))) is None


def test_bucket_count_unknown_leaves_fall_back_to_floor():
    assert bytes_scaled_buckets(_FakeDs(_Node(None)), floor=24) == 24


def test_bucket_count_joins_sum_both_sides(ray_session):
    left = ray.data.from_arrow(_big_table(8))
    right = ray.data.from_arrow(_big_table(8))
    n = bytes_scaled_buckets(left, right, target_bucket_bytes=1 << 20, floor=4)
    assert 14 <= n <= 20, n


def test_bucket_task_bytes_bounded(ray_session):
    """The per-task (= per-bucket) byte bound the sizing exists for:
    tag a 32 MB input with the default-derived modulus at a 1 MB target
    and assert no bucket holds more than a few target units."""
    from datafusion_orc_ray.pipelines.relational import _stable_hash64

    tbl = _big_table(32)
    ds = ray.data.from_arrow(tbl)
    n_buckets = bytes_scaled_buckets(ds, target_bucket_bytes=1 << 20, floor=4)
    per_row = tbl.nbytes / tbl.num_rows
    b = (_stable_hash64(tbl.column("user_id")) % n_buckets).astype(np.int64)
    counts = np.bincount(b, minlength=n_buckets)
    peak = counts.max() * per_row
    assert peak <= 3 * (1 << 20), f"peak bucket {peak/2**20:.1f} MB"


def test_sessionize_result_invariant_to_bucket_count(ray_session):
    """More buckets must never change results — keys hash into buckets
    whole, so sessionization is bucket-count-invariant."""
    from datafusion_orc_ray.pipelines.windows import sessionize

    rng = np.random.default_rng(7)
    n = 20000
    users = rng.integers(0, 300, n)
    ts = rng.integers(0, 10**9, n).astype("datetime64[us]")
    tbl = pa.table({"user_id": users, "ts": pa.array(ts)})

    def run(nb):
        out = sessionize(
            ray.data.from_arrow(tbl), "user_id", "ts", gap_us=10**6, n_buckets=nb
        )
        t = pa.concat_tables([ray.get(r) for r in out.to_arrow_refs()])
        return t.sort_by([("user_id", "ascending"), ("sid", "ascending")])

    assert run(4).equals(run(97))
