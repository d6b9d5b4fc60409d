"""The perfbench tracer wraps package functions by name
(``owner.__dict__[name]``): every name it lists must resolve, so a
renamed function fails here instead of crashing a traced benchmark run."""

import importlib

import pytest

from perfbench import trace

NAMES = [(t[0], t[1]) for t in trace.TARGETS] + [(f[0], f[1]) for f in trace.FACTORIES]


@pytest.mark.parametrize("modname,attr", NAMES, ids=[f"{m}.{a}" for m, a in NAMES])
def test_trace_target_resolves(modname, attr):
    mod = importlib.import_module(f"{trace.PACKAGE}.{modname}")
    owner, leaf = trace._resolve(mod, attr)
    assert callable(owner.__dict__[leaf]), (modname, attr)
