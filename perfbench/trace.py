"""Span recorder for the traced run.

``install()`` replaces the public functions of each layer of
``datafusion_orc_ray`` with timing wrappers, in the calling process. The
benchmark calls it in the driver, and Ray calls ``worker_hook`` (named in
``runtime_env["worker_process_setup_hook"]``) in every worker process, so
actor and read-task work is timed too.

A span is ``(name, start, end, parent, op, nbytes, pid)``: ``start`` and
``end`` are wall-clock seconds (one clock for every process on the host),
``parent`` is the index of the enclosing span in the same thread of the
same process, ``op`` is the op id (set in the driver; worker spans are
matched to ops by time when the trace is read back) and ``nbytes`` is the
input size the wrapper measured. Spans stay in memory; a worker appends
its spans to ``<span dir>/spans-<pid>.jsonl`` each time its outermost span
ends, because Ray may kill an actor without running exit handlers.

Wrappers record nothing unless recording is on: in the driver that is
``RECORDER.enabled``; in a worker it is the existence of the flag file
``<span dir>/on``, checked at most every 50 ms.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time

SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"
FLAG_NAME = "on"
PACKAGE = "datafusion_orc_ray"


def _nb(x) -> int:
    """Byte size of a bytes-like object or array, 0 when unknown."""
    n = getattr(x, "nbytes", None)
    if n is not None:
        return int(n)
    try:
        return memoryview(x).nbytes
    except TypeError:
        return 0


def _arg(i):
    return lambda a, kw, r: _nb(a[i]) if len(a) > i else 0


def _result(a, kw, r) -> int:
    return _nb(r)


def _count(a, kw, r) -> int:
    return len(r)


def _pruned(a, kw, r) -> int:
    return 0 if r else 1


# (module, attribute or Class.method, span name, amount): the amount is
# the input's bytes for a kernel and a count where the name says so
TARGETS = [
    # L0 codecs
    ("codecs.fsst", "train", "codecs.fsst.train", _arg(0)),
    ("codecs.fsst", "encode", "codecs.fsst.encode", _arg(1)),
    ("codecs.fsst", "decode", "codecs.fsst.decode", _arg(1)),
    ("codecs.bytes_codec", "choose", "codecs.bytes_codec.choose", _arg(0)),
    ("codecs.outer", "compress_auto", "codecs.outer.compress", _arg(0)),
    ("codecs.outer", "decompress", "codecs.outer.decompress", _arg(0)),
    ("codecs.integers", "estimate_sizes", "codecs.integers.estimate_sizes", _arg(0)),
    ("codecs.integers", "encode_ints", "codecs.integers.encode_ints", _arg(0)),
    ("codecs.integers", "decode_ints", "codecs.integers.decode_ints", _arg(0)),
    ("codecs.bloom", "build", "codecs.bloom.build", _arg(0)),
    # L1 stripe
    ("stripe", "encode_table", "stripe.encode_table", _arg(0)),
    ("stripe", "encode_column", "stripe.encode_column", None),
    ("stripe", "decode_table", "stripe.decode_table", _arg(0)),
    ("stripe", "decode_file", "stripe.decode_file", None),
    ("stripe", "decode_column", "stripe.decode_column", None),
    ("stripe", "read_footer", "stripe.read_footer", _arg(0)),
    ("stripe", "read_footer_from_file", "stripe.read_footer_from_file", None),
    # L2 stages / state / io
    ("stages.encode", "StripeEncoder.encode_one", "stages.encode.encode_one", None),
    ("stages.encode", "FragmentEncoder.__call__", "stages.encode.fragment", None),
    ("state.manifest", "write_stripe", "state.manifest.write_stripe", _arg(2)),
    ("state.manifest", "load_manifest", "state.manifest.load_manifest", None),
    ("io", "RangedReader.read", "io.ranged_read", _result),
    ("io", "RangedReader.read_tail", "io.ranged_read", _result),
    ("io", "read_bytes", "io.read_bytes", _result),
    # L3 pipelines / datasource
    ("pipelines.encode", "encode_parquet", "pipelines.encode_parquet", None),
    ("sources.datasource", "StripeDatasource.get_read_tasks",
     "sources.datasource.read_tasks", _count),
    # a stripe is pruned when one predicate conjunct rules it out
    ("sources.stripes", "_stats_may_match", "sources.datasource.stripes_pruned", _pruned),
    # L4 sql front end
    ("sources.stripes", "Catalog.sql", "sources.stripes.sql", None),
    ("sources.sqlagg", "plan_stats_answer", "sources.sqlagg.plan", None),
    ("sources.sqlagg", "plan_aggregate_pushdown", "sources.sqlagg.plan", None),
    ("sources.sqlagg", "plan_topk_pushdown", "sources.sqlagg.plan", None),
    ("sources.sqlagg", "plan_join_prefilter", "sources.sqlagg.plan", None),
    ("sources.sqlagg", "plan_join_aggregate", "sources.sqlagg.plan", None),
    ("sources.sqlagg", "plan_join_topk", "sources.sqlagg.plan", None),
]

# factories whose returned function runs in a worker: the returned
# function (or generator function) is wrapped, not the factory
FACTORIES = [
    ("stages.decode", "make_stripe_decoder", "stages.decode", True),
    ("sources.sqlagg", "run_partial", "sources.sqlagg.partial", False),
]


class Recorder:
    """Per-process span store."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self.op: int | None = None
        self.span_dir: str | None = None
        self.flushed = 0
        self._local = threading.local()
        self._flag_checked = 0.0

    def on(self) -> bool:
        if self.span_dir is None:
            return self.enabled
        now = time.monotonic()
        if now - self._flag_checked > 0.05:
            self._flag_checked = now
            self.enabled = os.path.exists(os.path.join(self.span_dir, FLAG_NAME))
        return self.enabled

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def enter(self, name: str) -> int:
        st = self._stack()
        parent = st[-1] if st else None
        span = [name, time.time(), None, parent, self.op, 0, os.getpid()]
        self.spans.append(span)
        idx = len(self.spans) - 1
        st.append(idx)
        return idx

    def exit(self, idx: int, nbytes: int) -> None:
        span = self.spans[idx]
        span[2] = time.time()
        span[5] = nbytes
        st = self._stack()
        st.pop()
        if not st and self.span_dir is not None:
            self.flush()

    def flush(self) -> None:
        """Append the spans not yet written to this process's span file."""
        new = self.spans[self.flushed:]
        if not new or self.span_dir is None:
            return
        # a span still open (end is None) is written once it closes
        done = len(new)
        for i, s in enumerate(new):
            if s[2] is None:
                done = i
                break
        if done == 0:
            return
        path = os.path.join(self.span_dir, f"spans-{os.getpid()}.jsonl")
        base = self.flushed
        with open(path, "a") as f:
            for i, s in enumerate(new[:done]):
                f.write(json.dumps(s + [base + i]) + "\n")
        self.flushed += done


RECORDER = Recorder()


def _wrap(fn, name: str, size):
    @functools.wraps(fn)
    def traced(*a, **kw):
        rec = RECORDER
        if not rec.on():
            return fn(*a, **kw)
        idx = rec.enter(name)
        r = None
        try:
            r = fn(*a, **kw)
            return r
        finally:
            rec.exit(idx, size(a, kw, r) if size is not None else 0)

    traced.__wrapped_by_perfbench__ = True
    return traced


def _traced_next(name: str, it):
    """Iterate ``it``, timing each step as one span (time spent by the
    consumer between steps is not the generator's)."""
    rec = RECORDER
    while True:
        idx = rec.enter(name) if rec.on() else None
        try:
            item = next(it)
        except StopIteration:
            return
        finally:
            if idx is not None:
                rec.exit(idx, 0)
        yield item


def _wrap_factory(factory, name: str, is_gen: bool):
    # the returned functions are pickled by value to the workers; they
    # reach the recorder through module-level functions, which pickle by
    # reference and so use the worker's own recorder
    @functools.wraps(factory)
    def make(*a, **kw):
        inner = factory(*a, **kw)
        if is_gen:

            def gen_fn(batch, _inner=inner, _name=name):
                return _traced_next(_name, iter(_inner(batch)))

            return gen_fn

        def fn(batch, _inner=inner, _name=name):
            return _call_traced(_name, _inner, batch)

        return fn

    make.__wrapped_by_perfbench__ = True
    return make


def _call_traced(name: str, fn, batch):
    rec = RECORDER
    if not rec.on():
        return fn(batch)
    idx = rec.enter(name)
    try:
        return fn(batch)
    finally:
        rec.exit(idx, _nb(batch))


def _resolve(mod, attr: str):
    owner = mod
    parts = attr.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


def install() -> None:
    """Wrap every target in this process (idempotent)."""
    originals: dict[int, object] = {}
    for modname, attr, name, size in TARGETS:
        mod = importlib.import_module(f"{PACKAGE}.{modname}")
        owner, leaf = _resolve(mod, attr)
        fn = owner.__dict__[leaf]
        if getattr(fn, "__wrapped_by_perfbench__", False):
            continue
        w = _wrap(fn, name, size)
        setattr(owner, leaf, w)
        if owner is mod:
            originals[id(fn)] = (fn, w)
    for modname, attr, name, is_gen in FACTORIES:
        mod = importlib.import_module(f"{PACKAGE}.{modname}")
        fn = getattr(mod, attr)
        if getattr(fn, "__wrapped_by_perfbench__", False):
            continue
        w = _wrap_factory(fn, name, is_gen)
        setattr(mod, attr, w)
        originals[id(fn)] = (fn, w)
    # names bound by `from x import f` elsewhere in the package
    for mname, m in list(sys.modules.items()):
        if not mname.startswith(PACKAGE) or m is None:
            continue
        for k, v in list(vars(m).items()):
            hit = originals.get(id(v))
            if hit is not None and hit[0] is v:
                setattr(m, k, hit[1])
    _install_parquet_read()


def _install_parquet_read() -> None:
    """The fragment encoder's Parquet row-group read (L2 read phase)."""
    import pyarrow.parquet as pq

    fn = pq.ParquetFile.__dict__["read_row_group"]
    if getattr(fn, "__wrapped_by_perfbench__", False):
        return
    pq.ParquetFile.read_row_group = _wrap(fn, "stages.encode.read", _result)


def worker_hook() -> None:
    """Ray ``worker_process_setup_hook``: record this worker's spans."""
    span_dir = os.environ.get(SPAN_DIR_ENV)
    if not span_dir:
        return
    RECORDER.span_dir = span_dir
    install()


def load_worker_spans(span_dir: str) -> list[list]:
    """Every span the workers wrote, with its parent index made global."""
    out: list[list] = []
    for fn in sorted(os.listdir(span_dir)):
        if not fn.startswith("spans-"):
            continue
        local: dict[int, int] = {}
        with open(os.path.join(span_dir, fn)) as f:
            for line in f:
                s = json.loads(line)
                local_idx = s.pop()
                local[local_idx] = len(out)
                out.append(s)
        for s in out[len(out) - len(local):]:
            if s[3] is not None:
                s[3] = local.get(s[3])
    return out


# Dataset objects an op created, so their ``stats()`` can be read after
# the op (driver only)
CAPTURE = [
    ("pipelines.encode", "encode_parquet", "result"),
    ("sources.stripes", "Catalog.table", "result"),
    ("sources.stripes", "_dataset_reader", "arg0"),
]


def install_capture(sink: list) -> None:
    """Append to ``sink`` every Dataset the targets create or stream
    while recording is on."""
    for modname, attr, where in CAPTURE:
        mod = importlib.import_module(f"{PACKAGE}.{modname}")
        owner, leaf = _resolve(mod, attr)
        fn = getattr(owner, leaf)

        def cap(*a, _fn=fn, _where=where, **kw):
            r = _fn(*a, **kw)
            if RECORDER.enabled:
                sink.append(r if _where == "result" else a[0])
            return r

        functools.update_wrapper(cap, fn)
        setattr(owner, leaf, cap)


_UNITS = {"us": 1e-6, "ms": 1e-3, "s": 1.0, "min": 60.0, "h": 3600.0}


def remote_wall_s(stats_text: str) -> float:
    """Sum of the ``Remote wall time: ... total`` of every operator in a
    ``Dataset.stats()`` text."""
    import re

    total = 0.0
    for line in stats_text.splitlines():
        if "Remote wall time:" not in line:
            continue
        m = re.search(r"([\d.]+)\s*(us|ms|s|min|h) total", line)
        if m:
            total += float(m.group(1)) * _UNITS[m.group(2)]
    return total


def summarize(spans: list[list], ops: list[tuple[int, float, float]]) -> tuple[dict, int]:
    """Totals per span name over the spans that belong to an op.

    ``ops`` is ``[(op_id, start, end)]`` with the op's timed interval
    (its output check runs after ``end``). An outermost span, in any
    process, belongs to the op whose interval holds its start, and its
    descendants follow it. Returns
    ``({name: {"calls", "incl_s", "self_s", "bytes"}}, spans counted)``.
    ``incl_s`` and ``bytes`` count only spans with no enclosing span of the
    same name (recursion is not counted twice); ``self_s`` is each span's
    duration minus the time its child spans cover."""
    import bisect

    ops = sorted(ops, key=lambda o: o[1])
    starts = [o[1] for o in ops]

    def op_at(t: float):
        i = bisect.bisect_right(starts, t) - 1
        if i >= 0 and t <= ops[i][2]:
            return ops[i][0]
        return None

    n = len(spans)
    op_of: list = [None] * n
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] is not None:
            op_of[i] = op_of[s[3]]
        else:
            op_of[i] = op_at(s[1])
        if s[3] is not None:
            child[s[3]] += s[2] - s[1]
    out: dict[str, dict] = {}
    counted = 0
    for i, s in enumerate(spans):
        if op_of[i] is None:
            continue
        counted += 1
        name = s[0]
        d = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "bytes": 0})
        dur = s[2] - s[1]
        d["calls"] += 1
        d["self_s"] += dur - child[i]
        p = s[3]
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            d["incl_s"] += dur
            d["bytes"] += s[5]
    return out, counted
