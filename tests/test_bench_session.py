"""The mdtune API that the benchmark's in-process sessions call must exist.

``perfbench/sessions.py`` loads a manifest and reads its ``node_count`` and
``repeats``, wraps an executor and reads its ``exclusive``, sweeps, writes
the result JSON and the report, and its ``check`` reads all of that back. A
refactor that drops one of those names would only show as a failed
benchmark run; this test runs one session, and its check, on a test
manifest instead. The benchmark's modules are loaded from their files, as
a benchmark run loads them.
"""

import importlib.util
import sys
from pathlib import Path

from conftest import DATA

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # sessions imports inputs and spans by these names
    spec.loader.exec_module(module)
    return module


_load("inputs")
_load("spans")
sessions = _load("sessions")


def test_an_in_process_session_passes_its_check():
    bench = sessions.InProcess([DATA / "manifest_mem.json"])
    _, outcome = bench.session()
    scores = bench.check(outcome)
    assert len(outcome.ledger) == 28 * 2  # the manifest's configs x its repeats
    assert (scores.ok_frac, scores.winner_perf_pct) == (1.0, 100.0)
    assert scores.engine_s > 0
