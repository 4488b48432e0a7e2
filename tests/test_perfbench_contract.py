"""The benchmark's tracer wraps espatial's functions by module and name, so
every name it lists must still resolve; a deleted or renamed target would
otherwise surface only when a traced benchmark run fails to install."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def trace_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [target for _name, target in module.TARGETS]


TARGETS = trace_targets()


@pytest.mark.parametrize("target", TARGETS, ids=[".".join(t) for t in TARGETS])
def test_trace_target_resolves(target):
    obj = importlib.import_module(target[0])
    for attr in target[1:]:
        obj = getattr(obj, attr)
    assert callable(obj)
