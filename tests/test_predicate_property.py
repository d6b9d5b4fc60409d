"""Pushed scan predicates against SQL three-valued logic: random tables
with nulls (int64, finite float64, strings on both sides of the 48-char
stats limit, date32) encoded in-process into 2-5 stripes, scanned
through ``StripeDatasource(out, predicate=P).get_read_tasks(1)`` with no
Ray. The rows must equal, in order, a plain-Python evaluation of P over
the source rows, so no stats or bloom verdict may drop a matching
stripe and the residual filter must keep exactly the SQL WHERE rows."""

import datetime
import tempfile

import pyarrow as pa
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from datafusion_orc_ray.sources.datasource import StripeDatasource
from datafusion_orc_ray.stages.encode import StripeEncoder

TYPES = {"i": pa.int64(), "f": pa.float64(), "s": pa.string(), "d": pa.date32()}
OPS = ("<", "<=", ">", ">=", "==", "isnull", "notnull")

_ints = st.integers(-6, 6)
_floats = st.one_of(
    st.sampled_from([-2.5, -0.0, 0.0, 0.5, 1.0, 3.25]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
_short = st.text(alphabet="abé\U0010ffff", max_size=3)
# around the 48-char string-stats limit, where min/max become bounds
_long = st.builds(
    lambda n, c, tail: c * n + tail, st.integers(45, 52), st.sampled_from("ab\U0010ffff"), _short
)
_dates = st.dates(datetime.date(1969, 12, 28), datetime.date(1970, 1, 4))
VALUES = {
    "i": _ints,
    "f": _floats,
    "s": st.one_of(_short, _long),
    "d": _dates,
}
# literal kinds a caller may push against each column
LITERALS = {
    "i": st.one_of(_ints, st.sampled_from([-0.5, 2.0, 2.5])),
    "f": st.one_of(_floats, _ints),
    "s": VALUES["s"],
    "d": _dates,
}


@st.composite
def _atom(draw):
    col = draw(st.sampled_from(sorted(TYPES)))
    op = draw(st.sampled_from(OPS))
    val = None if op in ("isnull", "notnull") else draw(LITERALS[col])
    return (col, op, val)


_disjunct = st.lists(_atom(), min_size=1, max_size=3)
_or_group = st.lists(_disjunct, min_size=1, max_size=3).map(lambda djs: ("or", djs))
# one bare conjunct, or an AND list of conjuncts and or-groups
_predicate = st.one_of(_atom(), st.lists(st.one_of(_atom(), _or_group), min_size=1, max_size=3))


@st.composite
def _table(draw):
    n = draw(st.integers(2, 24))
    cols = {
        c: draw(st.lists(st.one_of(st.none(), VALUES[c]), min_size=n, max_size=n)) for c in TYPES
    }
    k = draw(st.integers(2, min(5, n)))
    cut = st.integers(1, n - 1)
    cuts = sorted(draw(st.lists(cut, min_size=k - 1, max_size=k - 1, unique=True)))
    return pa.table({c: pa.array(v, TYPES[c]) for c, v in cols.items()}), cuts


def _atom_value(row, col, op, val):
    x = row[col]
    if op == "isnull":
        return x is None
    if op == "notnull":
        return x is not None
    if x is None:
        return None  # unknown
    return {
        "<": x < val, "<=": x <= val, ">": x > val, ">=": x >= val, "==": x == val,
    }[op]


def _and(vals):
    vals = list(vals)
    if False in vals:
        return False
    return None if None in vals else True


def _or(vals):
    vals = list(vals)
    if True in vals:
        return True
    return None if None in vals else False


def _where(row, pred) -> bool:
    """SQL WHERE over one row: only TRUE keeps it (NULL drops it)."""
    items = [pred] if isinstance(pred, tuple) and len(pred) == 3 else pred

    def item(p):
        if len(p) == 2:  # ("or", [conj_list, ...])
            return _or(_and(_atom_value(row, *a) for a in d) for d in p[1])
        return _atom_value(row, *p)

    return _and(item(p) for p in items) is True


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,  # a fixed seed: the same examples every run
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    data=_table(),
    pred=_predicate,
    columns=st.one_of(st.none(), st.lists(st.sampled_from(sorted(TYPES)), min_size=1, unique=True)),
)
def test_pushed_predicate_matches_sql_three_valued_logic(data, pred, columns):
    table, cuts = data
    bounds = [0, *cuts, table.num_rows]
    with tempfile.TemporaryDirectory() as out:
        enc = StripeEncoder(out)
        for lo, hi in zip(bounds, bounds[1:]):
            enc.encode_split(table.slice(lo, hi - lo))
        src = StripeDatasource(out, columns=columns, predicate=pred)
        parts = [t for task in src.get_read_tasks(1) for t in task()]
    got = pa.concat_tables(parts).to_pylist()
    want = [
        {c: row[c] for c in (columns or table.column_names)}
        for row in table.to_pylist()
        if _where(row, pred)
    ]
    assert got == want
