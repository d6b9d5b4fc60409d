"""Selector regret of the RAW/FSST bytes codec (tools/selector_regret.py):
on every string column of webtext and TPC-H sf 0.01, the size the
selector's choice stores against the best of raw+zstd and FSST+zstd with
a 32 KB-trained table, both over the whole column."""

import importlib.util
import os

_TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "selector_regret.py")
_spec = importlib.util.spec_from_file_location("selector_regret", _TOOL)
sr = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sr)


def test_selector_regret_webtext_and_tpch():
    cols = sr.webtext_columns() + sr.tpch_columns()
    assert len(cols) >= 30
    regret = {name: sr.regret(arr)["regret"] for name, arr in cols}
    worst = max(regret, key=regret.get)
    # tpch.orders.o_comment is the worst column at 1.035: FSST+zstd wins
    # by 3.4% on the whole column but loses on every sample up to 256 KB,
    # so a sampled trial keeps it raw
    assert regret[worst] <= 1.04, (worst, regret[worst])
    assert sum(r > 1.02 for r in regret.values()) <= 1, regret
