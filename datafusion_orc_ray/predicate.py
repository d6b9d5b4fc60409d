"""The pushed scan predicate: its shape, the columns it reads, its
stats verdict, its residual row filter and its explain text.

A predicate is an AND list of items. An item is a conjunct ``(col, op,
value)`` with ``op`` one of ``_OPS`` (``isnull`` / ``notnull`` ignore
``value``), or an or-group ``("or", [conj_list, ...])`` of AND lists. A
lone item stands for a one-item list and None for no predicate. The
reference hands its scan one filter expression to prune and filter with
(src/file_source.rs:95-102); or-groups let stats pruning act on the
common disjunctive filters (a = 1 OR a = 5) instead of scanning unpruned.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import reduce

import pyarrow as pa
import pyarrow.compute as pc

# op -> (row kernel, stats test over exact-or-bounding min and max);
# the null tests prune on null counts instead
_OPS = {
    "<": (pc.less, lambda mn, mx, v: mn is None or mn < v),
    "<=": (pc.less_equal, lambda mn, mx, v: mn is None or mn <= v),
    ">": (pc.greater, lambda mn, mx, v: mx is None or mx > v),
    ">=": (pc.greater_equal, lambda mn, mx, v: mx is None or mx >= v),
    "==": (pc.equal, lambda mn, mx, v: (mn is None or mn <= v) and (mx is None or mx >= v)),
    "isnull": (lambda c, _v: pc.is_null(c), None),
    "notnull": (lambda c, _v: pc.is_valid(c), None),
}


def _is_or(item) -> bool:
    # conjuncts are 3-tuples, so the 2-tuple marker never collides
    return isinstance(item, tuple) and len(item) == 2 and item[0] == "or"


def _conjuncts(preds: list):
    """Every conjunct of a normalized predicate, or-groups' included."""
    for item in preds:
        if _is_or(item):
            for d in item[1]:
                yield from d
        else:
            yield item


def normalize(predicate) -> list:
    """``predicate`` as its AND list of items. Raises ValueError on an
    or-group with no disjunct or an empty one (an empty AND is TRUE,
    which the residual filter and stats pruning would read differently)
    and on an op outside ``_OPS``, so a bad predicate fails where it is
    given, not in a read task."""
    if predicate is None:
        return []
    preds = [predicate] if isinstance(predicate, tuple) else list(predicate)
    if any(_is_or(item) and not (item[1] and all(item[1])) for item in preds):
        raise ValueError(
            "or-group predicate with an empty disjunct list: an empty conjunct list "
            "means TRUE — drop the predicate instead of passing a vacuous branch"
        )
    for _col, op, _val in _conjuncts(preds):
        if op not in _OPS:
            raise ValueError(f"unsupported predicate op {op!r} (use one of {', '.join(_OPS)})")
    return preds


def read_columns(columns: list[str] | None, preds: list) -> list[str] | None:
    """The columns a scan projecting ``columns`` decodes to apply
    ``preds``' residual filter (None: every column)."""
    if columns is None:
        return None
    return list(dict.fromkeys([*columns, *(c[0] for c in _conjuncts(preds))]))


def may_match(preds: list, conj_may_match: Callable[[str, str, object], bool]) -> bool:
    """False only when ``preds`` provably keeps no row, given an oracle
    ``conj_may_match(col, op, val)`` that is False only when that
    conjunct provably keeps none: every item must hold, and an or-group
    holds unless each of its disjuncts has a conjunct proven empty."""
    return all(
        any(all(conj_may_match(*c) for c in d) for d in item[1])
        if _is_or(item)
        else conj_may_match(*item)
        for item in preds
    )


def stats_may_match(st: dict, op: str, val) -> bool:
    """False only when column stats ``st`` PROVE no row matches (min/max
    exact; min_bound/max_bound safe outer bounds for truncated strings;
    temporal stats stored as epoch ints — datetime predicate values
    convert). Any conversion/comparison failure means 'cannot prune'.
    ``isnull`` / ``notnull`` prune on the null-count stats: a stripe
    with zero nulls has no IS NULL match; one that is all nulls has no
    IS NOT NULL match."""
    if op == "isnull":
        return st.get("null_count") != 0  # missing stat (None) -> cannot prune
    if op == "notnull":
        nc, n = st.get("null_count"), st.get("n")
        return not (nc is not None and n is not None and nc >= n)
    mn = st.get("min", st.get("min_bound"))
    mx = st.get("max", st.get("max_bound"))
    unit = st.get("temporal_unit")
    try:
        if unit is not None and not isinstance(val, int):
            if unit == "date32":
                val = pa.scalar(val, pa.date32()).cast(pa.int32()).as_py()
            elif unit == "date64":
                val = pa.scalar(val, pa.date64()).cast(pa.int64()).as_py()
            else:
                val = pa.scalar(val, pa.timestamp(unit)).cast(pa.int64()).as_py()
        return _OPS[op][1](mn, mx, val)
    except (TypeError, ValueError, OverflowError, KeyError):
        return True


def filter_table(t: pa.Table, preds: list) -> pa.Table:
    """The rows of ``t`` that ``preds`` keeps, as SQL WHERE keeps them:
    Kleene AND / OR (null OR true is true), and a null verdict drops
    the row."""

    def mask(p):
        if _is_or(p):
            return reduce(pc.or_kleene, [reduce(pc.and_kleene, map(mask, d)) for d in p[1]])
        col, op, val = p
        return _OPS[op][0](t.column(col), val)

    return t.filter(reduce(pc.and_kleene, map(mask, preds))) if preds else t


def describe(predicate) -> str:
    """Explain text: conjuncts ``col op value`` joined by AND, or-groups
    parenthesized; ``none`` for no predicate."""

    def text(p):
        if _is_or(p):
            return "(" + " OR ".join(f"({' AND '.join(map(text, d))})" for d in p[1]) + ")"
        col, op, val = p
        return f"{col} {op} {val!r}"

    return " AND ".join(map(text, normalize(predicate))) or "none"
