"""``tools/ab_sessions.py`` on two copies of this checkout's sources, for a
few sessions: the two trees load as separate packages, and an output that
differs stops the comparison."""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("ab_sessions", ROOT / "tools" / "ab_sessions.py")
ab_sessions = importlib.util.module_from_spec(SPEC)
sys.modules[SPEC.name] = ab_sessions
SPEC.loader.exec_module(ab_sessions)


def copy_tree(tmp_path, name):
    shutil.copytree(ROOT / "src" / "mdtune", tmp_path / name / "src" / "mdtune",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / name


def test_equal_trees_compare(tmp_path, capsys):
    b = copy_tree(tmp_path, "b")
    assert ab_sessions.main([str(ROOT), str(b), "--sessions", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["workload"], out["seed"], out["sessions"]) == ("synth-cpu", 0, 2)
    assert set(out["a"]) == set(out["b"]) == {"q1", "median", "q3"}
    assert 0 <= out["b_wins"] <= 2
    assert sys.modules["ab_a.sweep"] is not sys.modules["ab_b.sweep"]
    assert Path(sys.modules["ab_b.sweep"].__file__).parent == b / "src" / "mdtune"


def test_an_output_that_differs_stops_it(tmp_path, capsys):
    b = copy_tree(tmp_path, "b")
    report = b / "src" / "mdtune" / "report.py"
    report.write_text(report.read_text().replace('"P (ns/day)", "stdev"', '"P", "stdev"'))
    assert ab_sessions.main([str(ROOT), str(b), "--sessions", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ab_sessions: the first B session's outputs differ from A's\n"
