"""Local stand-in for the driver's correctness gate: run each
__ray_entry__.queries() callable and its oracle_sql() against the same
sf dir, compare row count + schema-insensitive sorted value hash.

Usage: python tools/check_oracle.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys

import duckdb
import pandas as pd


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype.kind == "f":
            # +0.0 normalizes -0.0 (engines can disagree on the sign of
            # a rounded-to-zero residual); round absorbs float noise
            df[c] = df[c].round(6) + 0.0
    # vectorized string sort (per-row iloc in a sort key is ~100us/row)
    sdf = df.astype(str)
    order = sdf.sort_values(list(sdf.columns)).index
    return df.loc[order].reset_index(drop=True)


def main() -> None:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    import ray

    # this checkout's package, for the driver and (set before init) the workers
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    import __ray_entry__ as entry

    qs, sqls = entry.queries(), entry.oracle_sql()
    con = duckdb.connect()
    for t in "region nation customer supplier part orders lineitem events documents embeddings".split():
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    unknown = only - set(qs)
    if unknown:
        # a typo'd filter must not exit 0 having verified nothing
        print(f"ERROR: unknown query names: {sorted(unknown)}")
        sys.exit(2)
    n_pass = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            mine = canon(to_pandas(fn(sf_dir)))
        except Exception as e:
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            n_fail += 1
            continue
        if name not in sqls:
            print(f"ok   {name}: rows-only ({len(mine)} rows)")
            n_pass += 1
            continue
        try:
            theirs = canon(con.execute(sqls[name]).fetchdf())
        except Exception as e:
            print(f"FAIL {name}: oracle raised {type(e).__name__}: {e}")
            n_fail += 1
            continue
        if len(mine) != len(theirs):
            print(f"FAIL {name}: rows {len(mine)} vs {len(theirs)}")
            n_fail += 1
            continue
        if sorted(mine.columns) != sorted(theirs.columns):
            print(f"FAIL {name}: columns {sorted(mine.columns)} vs {sorted(theirs.columns)}")
            n_fail += 1
            continue
        m_str = mine.astype(str).values.tolist()
        t_str = theirs.astype(str).values.tolist()
        if m_str != t_str:
            diff = next(
                (i, a, b) for i, (a, b) in enumerate(zip(m_str, t_str)) if a != b
            )
            print(f"FAIL {name}: value mismatch at row {diff[0]}: {diff[1]} vs {diff[2]}")
            n_fail += 1
            continue
        print(f"PASS {name} ({len(mine)} rows)")
        n_pass += 1
    print(f"\n{n_pass} passed, {n_fail} failed")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()
