"""The names the benchmark's tracer wraps must exist in mdtune.

``perfbench/spans.py`` replaces functions at the names their callers
resolve (``mdtune.sweep.predict_run``, ...). A refactor that drops or moves
one of those names would only show as a crash of a traced benchmark run;
this test makes it fail here instead. It reads the benchmark's own table
and installs each wrapper, exactly as a traced run does, then removes it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("target", spans.TARGETS, ids=lambda t: f"{t[0]}.{t[1]}")
def test_trace_target_resolves(target):
    path, attr, _, _ = target
    owner = spans._resolve(path)
    original = getattr(owner, attr)
    tracer = spans.Tracer()
    try:
        tracer.install([target])
        assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    assert getattr(owner, attr) is original
