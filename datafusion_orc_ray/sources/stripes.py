"""read_stripes: our table-of-stripes equivalent of the reference's
``read_orc`` DataFrame API (SURVEY.md S10, src/lib.rs:122-156).

A stripe directory (blobs + manifests) becomes a ``ray.data.Dataset``:
the manifest list is the file listing, one decode task per stripe, with
column pruning pushed into the decoder (S5). Schema comes from the
manifests' serialized Arrow schema — deterministic merge across stripes
in manifest (ordinal) order, mirroring infer_schema's
sort-for-determinism (src/file_format.rs:90-103).
"""

from __future__ import annotations

import contextlib

import ray.data

from ..state import manifest
from ..util import BoundedStore

_PLANS_KEPT = 256  # plans one Catalog keeps (``Catalog._plans``)
_RESULTS_KEPT = 32 << 20  # result bytes one Catalog keeps (``Catalog._results``)


def stripes_schema(out_dir: str, entries: list[dict] | None = None):
    """Merged Arrow schema across all stripes (S3: deterministic — the
    manifests' schemas taken in ordinal order, merged with
    pa.unify_schemas, mirroring the reference's sort-for-determinism +
    Schema::try_merge at src/file_format.rs:90-103), over ``entries`` if
    the caller loaded them. The schemas come from the manifest rows, so
    no stripe footer is read (millions of tail reads at 100-TB stripe
    counts)."""
    import pyarrow as pa

    from ..stripe import schema_of

    entries = entries or manifest.load_manifest(out_dir)
    distinct = dict.fromkeys(e.get("schema_b64") for e in entries)
    if None in distinct:
        e = next(e for e in entries if e.get("schema_b64") is None)
        raise ValueError(
            f"manifest entry for stripe {e['path']} has no schema_b64: "
            "written by an older format; re-encode the directory"
        )
    if not distinct:
        raise FileNotFoundError(f"no manifest entries under {out_dir}")
    return pa.unify_schemas([schema_of(b64) for b64 in distinct])


class Catalog:
    """Named-table registration over stripe directories (S9/S10 parity:
    the reference's register_orc / read_orc surface, src/lib.rs:107-169).
    Registered names resolve to Datasets; schemas come from the manifest
    rows (``stripes_schema``)."""

    def __init__(self) -> None:
        self._tables: dict[str, str] = {}
        # the path the last sql() ran: 'stats_answer', 'aggregate_pushdown',
        # 'topk_pushdown', 'join_aggregate_pushdown', 'join_topk_pushdown',
        # 'stream' or 'stream+semijoin_prefilter'
        self.last_plan: str | None = None
        # EXPLAIN-lite: per-table pushed projections + predicate
        # conjuncts of the LAST sql() call (None = full width / nothing)
        self.last_pushdown: dict | None = None
        self._plans = BoundedStore(_PLANS_KEPT)  # _plan's kept half
        self._results = BoundedStore(_RESULTS_KEPT)  # sql()'s kept answers

    def register_stripes(self, name: str, out_dir: str) -> None:
        """DuckDB binds a name in any case: one that differs from a
        registered name only in case raises ``ValueError``."""
        clash = [n for n in self._tables if n.lower() == name.lower() and n != name]
        if clash:
            raise ValueError(f"table {name!r} differs from registered {clash[0]!r} only in case")
        stripes_schema(out_dir)  # validates the directory eagerly
        self._tables[name] = out_dir

    def schema(self, name: str):
        return stripes_schema(self._tables[name])

    def table(
        self,
        name: str,
        columns: list[str] | None = None,
        predicate: tuple[str, str, object] | list | None = None,
    ) -> ray.data.Dataset:
        return read_stripes(self._tables[name], columns=columns, predicate=predicate)

    def names(self) -> list[str]:
        return sorted(self._tables)

    def store_stats(self) -> dict:
        """Counters of this catalog's plan and result stores: ``{"plans":
        {...}, "results": {...}}``, each with ``hits``, ``misses``,
        ``entries``, ``weight`` and ``bound``."""
        return {"plans": self._plans.stats(), "results": self._results.stats()}

    def _scan(self, name: str, columns=None, predicate=None, *, entries: list[dict], schema):
        """A scan (read via ``_reader``): the StripeDatasource
        (validation, stats pruning) over ``name``'s loaded manifest
        ``entries`` and merged ``schema``, and its ``_executor``."""
        from .datasource import StripeDatasource

        src = StripeDatasource(
            self._tables[name], columns=columns, predicate=predicate, entries=entries,
            schema=schema,
        )
        return src, self._executor(src.estimate_inmemory_data_size() or 0)

    def _executor(self, raw: int) -> str:
        """Where a scan of ``raw`` surviving bytes runs: ``"driver"``
        under ``_LOCAL_SCAN_BYTES``, else ``"ray"``."""
        return "driver" if raw < self._LOCAL_SCAN_BYTES else "ray"

    def _plan(self, query: str, answers: bool = True) -> dict:
        """The one planning cascade behind sql() and explain():
        referenced tables (the registered ones ``sqlagg.walk`` finds named
        in any case, as DuckDB binds them, under their names), their manifest
        entries (loaded once per call, so appends stay visible) and
        schemas, the projections and predicates pushed into each scan,
        the first planner whose gates the query passes — ``kind`` is
        the ``last_plan`` value sql() records for it (join kinds still
        face sql()'s byte gate; a single-table aggregate whose
        ``AggPlan.stats`` the manifest rows answer is a "stats_answer",
        see ``_stats_answer``, its ``stats`` what answers it) — and each
        table's ``scans`` entry (none for a stats answer, which decodes
        no stripe).
        ``fused``: a planned shape whose scans all run in this process,
        so sql() runs partial and final as the one original statement.
        ``prefilter``: a two-table query's semi-join candidate.
        ``streamed``: the tables one run reads once (``sqlagg.single_reads``).

        What depends only on the query text and the referenced tables'
        names and merged schemas (projections, predicates, prefilter,
        the pushdown planners' verdict and ``refusal``, why the answer
        may not be kept: ``sqlagg.keep_refusal``) is kept in ``_plans``
        under exactly those (``key``); ``reused`` says that this call
        found all it needed there. The entries, schemas, stats pruning
        and executors are worked out on every call. ``answers``: look
        a stats answer (or the verdict that there is none) up in
        ``_results`` (explain() does not)."""
        from . import sqlagg

        w = sqlagg.walk(query)
        # each registered table the query names, in any case
        bound = {n.lower(): n for n in self._tables if w is None or n.lower() in w.tables}
        referenced = list(bound.values())
        entries = {name: manifest.load_manifest(self._tables[name]) for name in referenced}
        schemas = {name: stripes_schema(self._tables[name], entries[name]) for name in referenced}
        key = (query, *((name, schemas[name].serialize().to_pybytes()) for name in referenced))
        kept = self._plans.get(key)
        reused = kept is not None
        if not reused:
            kept = {
                "projections": sqlagg.resolve_projections(query, referenced, schemas),
                "predicates": sqlagg.resolve_filter_pushdown(query, referenced, schemas),
                "prefilter": (
                    sqlagg.plan_join_prefilter(query, schemas) if len(referenced) == 2 else None
                ),
                "refusal": sqlagg.keep_refusal(query, schemas),
                "verdict": _verdict(query, referenced, schemas),
                "streamed": {bound[n] for n in sqlagg.single_reads(query) if n in bound},
            }
        kind, plan = kept["verdict"]
        stats = None
        if kind == "aggregate_pushdown" and plan.stats:  # metadata-only answer?
            name = referenced[0]
            stats = self._stats_answer(
                key, plan, name, entries[name], schemas[name],
                answers and kept["refusal"] is None,
            )
            if stats is not None:
                kind = "stats_answer"
        if not reused:
            self._plans.put(key, kept)
        p = {
            "referenced": referenced,
            "entries": entries,
            "schemas": schemas,
            "projections": kept["projections"],
            "predicates": kept["predicates"],
            "prefilter": kept["prefilter"],
            "kind": kind,
            "plan": plan,
            "reused": reused,
            "key": key,
            "refusal": kept["refusal"],
            "streamed": kept["streamed"],
            "stats": stats,
        }
        p["scans"] = {
            name: self._scan(name, p["projections"][name], p["predicates"][name],
                             entries=entries[name], schema=schemas[name])
            for name in referenced
            if p["kind"] != "stats_answer"
        }
        p["fused"] = p["kind"] in _SPLIT_KINDS and all(
            executor == "driver" for _, executor in p["scans"].values()
        )
        return p

    def _stats_answer(self, key, plan, name: str, entries: list[dict], schema, lookup: bool):
        """How ``plan`` (an ``AggPlan`` with ``stats``) is answered from
        table ``name``'s manifest ``entries`` alone, or None when a
        stripe's stats cannot (``sqlagg.plan_stats_answer``): the
        ``table``, the manifest rows used (``stripes``), the ``key`` the
        answer is kept under in ``_results``, and what ``_keep`` kept
        there (``kept``, looked up when ``lookup``) or else the
        ``partials`` the plan's final runs over. The key adds to the
        plan's ``key`` the table's name, directory and stripe paths and a
        SHA-256 over each row's row count and column stats: an append, a
        compaction or a stripe rewritten with other stats makes a new
        key, so a kept answer needs no check. Rows that cannot answer
        keep that verdict (False) under the same key, so a repeat over
        them parses no stats either."""
        import hashlib

        from . import sqlagg

        rows = repr([(e.get("n_rows", e.get("rows")), e.get("columns_json")) for e in entries])
        paths = tuple(e["path"] for e in entries)
        digest = hashlib.sha256(rows.encode()).digest()
        stats = {"table": name, "stripes": len(entries),
                 "key": (key, (name, self._tables[name], paths, digest))}
        kept = self._results.get(stats["key"]) if lookup else None
        if kept is False:  # these rows were found not to answer it
            return None
        if kept is not None:
            return dict(stats, kept=kept)
        partials = sqlagg.plan_stats_answer(plan, schema, entries)
        if partials is None and lookup:
            self._results.put(stats["key"], False)
        return None if partials is None else dict(stats, partials=partials)

    def explain(self, query: str) -> str:
        """Plan summary WITHOUT executing: per referenced table the
        pushed projection and predicate conjuncts, surviving/total
        stripes after stats pruning, and which distributed path would
        run. The text comes from the same planning function as
        ``sql()``; ``executor`` is where the table's scan (with its
        pushed predicate) would run."""
        from ..predicate import describe

        p = self._plan(query, answers=False)
        fused = " (partial and final fused: one DuckDB statement in this process)"
        lines = ["plan: " + _EXPLAIN[p["kind"]] + (fused if p["fused"] else "")]
        for name in p["referenced"]:
            cols, preds = p["projections"][name], p["predicates"][name]
            line = (
                f"scan {name}: columns="
                + ("ALL" if cols is None else f"[{', '.join(cols)}]")
                + ", predicate="
                + describe(preds)
            )
            if name in p["scans"]:
                src, executor = p["scans"][name]
                line += (
                    f", stripes={len(src._entries)}/{len(p['entries'][name])} after stats"
                    f" pruning, executor={executor}"
                )
            lines.append(line)
        if p["kind"] == "stream" and p["prefilter"] is not None:
            ta, ka, tb, kb = p["prefilter"]
            lines.append(
                f"semi-join prefilter candidate: {ta}.{ka} = {tb}.{kb} "
                "(small side's distinct keys filter the big scan "
                "worker-side, subject to the byte/asymmetry gates)"
            )
        return "\n".join(lines)

    # small side must fit comfortably on the query node, and the big
    # side must be meaningfully bigger for the extra key pass to pay
    _PREFILTER_SMALL_BYTES = 256 << 20
    _PREFILTER_ASYMMETRY = 4
    # scans of fewer surviving raw bytes decode in this process, larger ones
    # as a Ray Dataset (0 = all Ray). An estimate, not a measured crossover:
    # on one core a Ray scan only adds cost (~0.04 s plus ~0.01 s per decoded
    # MB it ships back); where Ray decodes in parallel it is unmeasured
    _LOCAL_SCAN_BYTES = 32 << 20

    def _collect_small_side(self, p, sides, asymmetry=1):
        """The smaller side, by manifest raw bytes, of a join of
        ``sides`` = (t1, k1, t2, k2) on ``t1.k1 = t2.k2`` (``p``: its
        ``_plan``), collected onto the driver from its planned scan (the
        resolved columns, which hold the join key, and its pushed
        predicate): (small, skey, big, bkey, small_table). None when
        the small side is over ``_PREFILTER_SMALL_BYTES`` — by manifest
        or, as it streams in, by batch bytes — or the big side is under
        ``asymmetry`` times its bytes. An empty table keeps the schema."""
        import pyarrow as pa

        t1, k1, t2, k2 = sides
        b1, b2 = _raw_bytes(p["entries"][t1]), _raw_bytes(p["entries"][t2])
        small, skey, big, bkey = (t1, k1, t2, k2) if b1 <= b2 else (t2, k2, t1, k1)
        lo, hi = sorted((b1, b2))
        if lo > self._PREFILTER_SMALL_BYTES or hi < asymmetry * lo:
            return None
        schema = _projected(p["schemas"][small], p["projections"][small])
        batches: list[pa.RecordBatch] = []
        got = 0
        for b in _reader(p["scans"][small], schema):
            batches.append(b)
            got += b.nbytes
            if got > self._PREFILTER_SMALL_BYTES:
                return None  # the byte estimate lied: don't broadcast it
        return small, skey, big, bkey, pa.Table.from_batches(batches, schema).combine_chunks()

    def sql(self, query: str):
        """SQL over registered stripe tables (the reference's headline UX:
        ``register_orc`` -> DataFusion SQL, src/lib.rs:107-169); returns
        a pyarrow.Table. Each table the query names, in any case, is
        scanned (``_scan``) with the query's columns and WHERE
        conjuncts (``sqlagg.resolve_*``) pushed in (S5): in this
        process when its surviving stripes' raw bytes are under
        ``_LOCAL_SCAN_BYTES`` (as DataFusion opens each partition in the
        query's process), else as a Ray Dataset. ``_execute`` picks the
        one DuckDB statement that answers the query, and ``_run`` runs
        it. ``self.last_plan`` names the planner that accepted the query
        (a ``_plan`` kind), or 'stream' / 'stream+semijoin_prefilter'.

        With no scan on Ray, every answer is kept in ``_results``
        (``_keep``). A stats answer, which scans nothing, is keyed on the
        manifest rows it was computed from (``_stats_answer``), so a
        repeat over the same rows reads no stats and runs no DuckDB;
        ``last_pushdown["stats"]`` names its table and those rows. Any
        other answer is keyed on the plan and the stripes each scan reads
        after stats pruning: a repeat returns it once each stripe's footer
        bytes equal those it was decoded under, and every stream a decode
        would read is read and CRC-checked (``StripeDatasource.verify``):
        only the footer parse, decompress, decode and DuckDB are skipped.
        ``last_pushdown["result"]`` says "reused", "stored" or
        "not kept: <why>"."""
        import copy

        p = self._plan(query)
        scans, stats = p["scans"], p["stats"]
        # observability: what this query actually pushed into each
        # scan, where each scan ran (last_plan: which path ran) and
        # whether its planning was kept from an earlier call. Copies:
        # the plan store's values stay the store's
        pushdown = self.last_pushdown = {
            "projections": copy.deepcopy(p["projections"]),
            "predicates": copy.deepcopy(p["predicates"]),
            "plan_reused": p["reused"],
            "scans": {
                name: dict(
                    executor=executor, stripes=len(src._entries),
                    stripes_total=len(p["entries"][name]),
                    raw_bytes=src.estimate_inmemory_data_size() or 0,
                )
                for name, (src, executor) in scans.items()
            },
        }
        self.last_plan = p["kind"]
        if stats is not None:
            pushdown["stats"] = {"table": stats["table"], "stripes": stats["stripes"]}
        why = p["refusal"] or next(
            (f"the scan of {name} runs on Ray" for name, (_, ex) in scans.items() if ex == "ray"),
            None,
        )
        if why is None:
            if stats is not None:  # _plan looked it up under the manifest rows
                key, got = stats["key"], stats.get("kept")
            else:
                key = (p["key"], *(
                    (name, self._tables[name], tuple(e["path"] for e in src._entries))
                    for name, (src, _) in scans.items()
                ))
                got = self._results.get(
                    key,
                    lambda got: all(src.verify(got[0][name]) for name, (src, _) in scans.items()),
                )
            if got is not None:
                _, table, self.last_plan, semijoin = got
                if semijoin is not None:
                    pushdown["semijoin_prefilter"] = dict(semijoin)
                pushdown["result"] = "reused"
                return table
            for src, _ in scans.values():
                src.footers = []
        table, label = self._execute(query, p, pushdown)
        self.last_plan = label
        pushdown["result"] = (
            f"not kept: {why}" if why is not None
            else self._keep(key, scans, table, label, pushdown.get("semijoin_prefilter"))
        )
        return table

    def _execute(self, query: str, p, pushdown: dict):
        """Runs (``_run``) the one statement that answers ``query`` as
        planned by ``_plan`` (``p``) over its inputs, and returns (the
        answer, the ``last_plan`` label of the path that ran). It picks:

        * a stats answer: the plan's final over the manifest partials;
        * a single-table plan whose scan is on Ray: the final over the
          scan, each batch pre-aggregated (or cut to its local top-n)
          where the scan runs (DataFusion's partial/final split and
          SortExec fetch pushdown);
        * a join plan whose small side was collected here
          (``_collect_small_side``): the final over the big scan, each
          batch joined to the small table and pre-aggregated where it runs;
        * anything else: the query as written over its scans (with every
          scan here a planned shape too: partial and final fuse, as
          DataFusion folds them when no exchange sits between). When a
          streamed two-table join (``p["prefilter"]``) collects its small
          side, gated on asymmetry too (the key pass must pay), DuckDB
          reads that table and the big scan's batches keep only rows whose
          join key the small side holds (semi-join reduction, recorded in
          ``pushdown["semijoin_prefilter"]``).

        A table the query reads more than once (``sqlagg.single_reads``)
        is collected from its scan first; every other scan streams."""
        import pyarrow.compute as pc

        from . import sqlagg

        kind, plan, scans, fused = p["kind"], p["plan"], p["scans"], p["fused"]
        label, streamed, side = kind, {"__partials"}, None
        if kind == "stats_answer":
            text, inputs = plan.final_sql, {"__partials": p["stats"]["partials"]}
        elif kind in ("aggregate_pushdown", "topk_pushdown") and not fused:
            partial_fn = sqlagg.run_partial(plan.partial_sql)
            scan = scans[p["referenced"][0]]
            text = plan.final_sql
            inputs = {"__partials": (scan, plan.partial_schema, lambda b, _: partial_fn(b), None)}
        elif kind in ("join_aggregate_pushdown", "join_topk_pushdown") and not fused and (
            side := self._collect_small_side(p, (plan.t1, plan.k1, plan.t2, plan.k2))
        ):
            small, skey, big, bkey, small_tbl = side
            same = plan.k1 == plan.k2
            partial_fn = sqlagg.run_partial(plan.agg.partial_sql)

            def join_partial(batch, right):
                return partial_fn(batch.join(
                    right, keys=[bkey], right_keys=[skey], join_type="inner",
                    coalesce_keys=same,
                ))

            text = plan.agg.final_sql
            inputs = {"__partials": (scans[big], plan.agg.partial_schema, join_partial, small_tbl)}
        else:
            text, streamed = query, p["streamed"]
            inputs = {
                name: (scans[name], _projected(p["schemas"][name], p["projections"][name]),
                       None, None)
                for name in p["referenced"]
            }
            if not fused:
                side = p["prefilter"] and self._collect_small_side(
                    p, p["prefilter"], self._PREFILTER_ASYMMETRY
                )
                label = "stream+semijoin_prefilter" if side else "stream"
            if side:
                small, skey, big, bkey, small_tbl = side
                keys = pc.unique(small_tbl.column(skey)).drop_null()

                def prefilter(batch, keys):
                    return batch.filter(pc.is_in(batch.column(bkey), value_set=keys))

                inputs[small], inputs[big] = small_tbl, (*inputs[big][:2], prefilter, keys)
                pushdown["semijoin_prefilter"] = {
                    "big": big, "big_key": bkey, "small": small, "small_key": skey,
                    "n_keys": len(keys),
                }
        return _run(text, inputs, streamed), label

    def _keep(self, key, scans, table, label: str, semijoin) -> str:
        """Keep ``table`` in ``_results`` under ``key`` as (footers, table,
        ``label``, ``semijoin``): the footer bytes, with their parse, that
        each of its driver ``scans`` decoded under (none for a stats
        answer, which scans nothing), its ``last_plan`` label and its
        semi-join record. It weighs the table's bytes plus those footer
        bytes. Returns "stored", or "not kept: <why>"."""
        footers = {}
        for name, (src, _) in scans.items():
            seen: dict = {}
            for path, payload, footer in src.footers:
                if seen.setdefault(path, (payload, footer))[0] != payload:
                    return "not kept: a stripe changed during the query"
            if any(e["path"] not in seen for e in src._entries):
                return "not kept: a scan stopped before its last stripe"
            footers[name] = tuple(seen[e["path"]] for e in src._entries)
        weight = table.nbytes + sum(len(p) for kept in footers.values() for p, _ in kept)
        if weight > self._results.bound:
            return f"not kept: {weight} bytes, over the store's {self._results.bound}"
        self._results.put(key, (footers, table, label, semijoin), max(weight, 1))
        return "stored"


def _verdict(query: str, referenced: list[str], schemas: dict) -> tuple:
    """(kind, plan) of the first pushdown planner that accepts ``query``
    over the ``referenced`` tables' merged ``schemas``, else ("stream",
    None)."""
    from . import sqlagg

    planners = []
    if len(referenced) == 1:
        args = (query, referenced[0], schemas[referenced[0]])
        planners = [
            ("aggregate_pushdown", sqlagg.plan_aggregate_pushdown, args),
            ("topk_pushdown", sqlagg.plan_topk_pushdown, args),
        ]
    elif len(referenced) == 2:
        planners = [
            ("join_aggregate_pushdown", sqlagg.plan_join_aggregate, (query, schemas)),
            ("join_topk_pushdown", sqlagg.plan_join_topk, (query, schemas)),
        ]
    for kind, planner, args in planners:
        plan = planner(*args)
        if plan is not None:
            return kind, plan
    return "stream", None


# the plan kinds that split into a partial and a final
_SPLIT_KINDS = (
    "aggregate_pushdown", "topk_pushdown", "join_aggregate_pushdown", "join_topk_pushdown",
)
_EXPLAIN = {
    "stats_answer": "metadata-only stats answer (zero stripes decoded)",
    "aggregate_pushdown": "distributed aggregate pushdown",
    "topk_pushdown": "distributed top-k pushdown",
    "join_aggregate_pushdown": "distributed join-aggregate pushdown (broadcast "
    "small side, per-batch join + partial agg on workers; subject to the "
    "small-side byte gate)",
    "join_topk_pushdown": "distributed join top-k pushdown (broadcast small "
    "side, per-batch join + local top-n on workers; subject to the "
    "small-side byte gate)",
    "stream": "stream",
}

def _raw_bytes(entries: list[dict]) -> int:
    """Decoded-bytes estimate of a table's manifest rows (metadata only)."""
    return sum(e.get("raw_bytes", 0) for e in entries)


def _projected(schema, columns: list[str] | None):
    """``schema`` narrowed to ``columns`` (None = full width)."""
    import pyarrow as pa

    return schema if columns is None else pa.schema([schema.field(c) for c in columns])


def _run(text: str, inputs: dict, streamed):
    """Run ``text``, the one DuckDB statement of a ``Catalog.sql`` answer,
    on a cursor of the process's one database over ``inputs``: name ->
    an Arrow table, or a ``(scan, schema, fn, side)`` source read through
    ``_reader`` (so a fully pruned scan still has its schema). A source
    whose name is in ``streamed`` is registered as a STREAMING reader,
    which DuckDB can read once; any other is collected first. A failed
    scan raises its own error (``_scan_errors``)."""
    from . import sqlagg

    with sqlagg.cursor() as con, _scan_errors() as failures:
        held = []  # keep every registered input alive until the fetch
        for name, x in inputs.items():
            if isinstance(x, tuple):
                x = _reader(*x, failures)
                x = x if name in streamed else x.read_all()
            held.append(x)
            con.register(name, x)
        return con.sql(text).fetch_arrow_table()


@contextlib.contextmanager
def _scan_errors():
    """Yields the list that scan readers (``_reader``) put what they
    raise in. DuckDB reports an exception from an Arrow stream it reads
    as its own ``InvalidInputException``, so a DuckDB error raised after
    a scan failed is replaced by the scan's own exception (a
    ``StripeCorruptError`` names the stripe, column and stream)."""
    import duckdb

    failures: list[BaseException] = []
    try:
        yield failures
    except duckdb.Error:
        if failures:
            raise failures[0]
        raise


def _reader(scan, schema, fn=None, side=None, failures=None):
    """Streaming RecordBatchReader with ``schema`` over a ``Catalog._scan``
    result, applying ``fn(batch, side)`` when given (``side``: a broadcast
    table or key set). A driver scan runs the datasource's read tasks
    here; a Ray scan streams a Dataset of them, ``side`` in the store.
    An exception the scan raises is appended to ``failures`` when given
    (see ``_scan_errors``)."""
    import pyarrow as pa

    src, executor = scan
    if executor == "ray":
        ds = ray.data.read_datasource(src)
        if fn is not None:
            ref = ray.put(side)
            ds = ds.map_batches(lambda b: fn(b, ray.get(ref)), batch_format="pyarrow")
        return _dataset_reader(ds, schema, failures)

    def gen():
        for task in src.get_read_tasks(1):
            for t in task():
                yield from (t if fn is None else fn(t, side)).to_batches()

    return pa.RecordBatchReader.from_batches(schema, _noting(gen(), failures))


def _dataset_reader(ds: ray.data.Dataset, schema, failures=None):
    """ray.data.Dataset -> streaming pyarrow.RecordBatchReader; the caller
    knows ``schema`` (``ds.schema()`` runs a hidden execution)."""
    import pyarrow as pa

    def gen():
        for tbl in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
            yield from tbl.to_batches()

    return pa.RecordBatchReader.from_batches(schema, _noting(gen(), failures))


def _noting(batches, failures):
    """``batches``, appending what they raise to ``failures`` (if a list)."""
    try:
        yield from batches
    except Exception as e:
        if failures is not None:
            failures.append(e)
        raise


def read_stripes(
    out_dir: str,
    columns: list[str] | None = None,
    concurrency: int | None = None,
    predicate: tuple[str, str, object] | list | None = None,
) -> ray.data.Dataset:
    """Stripe scan via ``StripeDatasource`` (a first-class
    ray.data.Datasource: one read task per stripe carrying row/byte
    metadata from the manifests, so the executor schedules with real
    size estimates). ``predicate`` = (column, op, value) with op one of
    <, <=, >, >=, ==, isnull, notnull — or an AND list of such conjuncts
    and ``("or", [conj_list, ...])`` groups (``predicate.py``) — enables
    stats-driven scan pruning (E13/S4: the per-stripe min/max and null
    counts recorded in the manifests — which the reference stubs
    entirely — skip whole stripes before any IO) plus a vectorized
    residual filter inside the decode stage, mirroring ORC's row-index
    skipping at stripe granularity."""
    from .datasource import StripeDatasource

    src = StripeDatasource(out_dir, columns=columns, predicate=predicate)
    ds = ray.data.read_datasource(src, concurrency=concurrency)
    # rows in ordinal order, not task-completion order (a per-Dataset context)
    ds.context.execution_options.preserve_order = True
    return ds


def _stats_may_match(entry: dict, predicate, stats: dict | None = None) -> bool:
    """False only when the stripe of manifest ``entry`` PROVABLY has no
    row that ``predicate`` — one conjunct or or-group — keeps, by its
    column stats (``predicate.stats_may_match``); a column without stats
    cannot prune. ``stats``: the entry's ``manifest.column_stats``, when
    the caller parsed them already."""
    from ..predicate import may_match, stats_may_match

    stats = manifest.column_stats(entry) if stats is None else stats

    def conj_ok(col: str, op: str, val) -> bool:
        st = stats.get(col)
        return st is None or stats_may_match(st, op, val)

    return may_match([predicate], conj_ok)


def validate_stripes(out_dir: str, concurrency: int | None = None) -> ray.data.Dataset:
    """Distributed integrity audit ("fsck for the corpus"): one Ray task
    per stripe recomputes every stream's CRC-32 against the footer
    records (stripe.validate_blob) and cross-checks the manifest's row
    count against the footer's. Returns a Dataset of
    (path, ok, n_streams, n_checked, n_rows, bad) — filter ``ok ==
    False`` to get the re-encode worklist. Pure map over the manifest
    list: no shuffle, cost is one sequential read + crc pass per stripe,
    so auditing 100 TB is IO-bound and embarrassingly parallel."""
    import pyarrow as pa

    from .. import stripe as stripe_mod

    entries = [
        {"path": e["path"], "n_rows": int(e.get("n_rows", -1))}
        for e in manifest.load_manifest(out_dir)
    ]
    if not entries:
        raise FileNotFoundError(f"no manifest entries under {out_dir}")

    schema = pa.schema([("path", pa.string()), ("ok", pa.bool_()), ("n_streams", pa.int64()),
                        ("n_checked", pa.int64()), ("n_rows", pa.int64()), ("bad", pa.string())])

    def audit(batch: pa.Table) -> pa.Table:
        out = []
        for p, want in zip(batch.column("path").to_pylist(), batch.column("n_rows").to_pylist()):
            # validate_file already parsed the footer from the full read
            # — re-opening the file for a tail footer read would double
            # the metadata IO of a 100-TB audit
            r = stripe_mod.validate_file(p)
            bad = r["bad"]
            if r["ok"] and want >= 0 and r["n_rows"] >= 0 and r["n_rows"] != want:
                bad = [f"rows: manifest {want} != footer {r['n_rows']}"]
            out.append({**r, "path": p, "ok": not bad, "bad": "; ".join(bad)})
        return pa.Table.from_pylist(out, schema=schema)

    return ray.data.from_items(entries).map_batches(
        audit, batch_format="pyarrow", concurrency=concurrency
    )
