"""Documents and logs are read and written as UTF-8, whatever the locale.

A file opened without an encoding is decoded with the locale's, so the same
document would read one way under a UTF-8 locale and fail, or read as
mojibake, under the C locale. The commands here run in subprocesses under
the C locale with Python's UTF-8 mode and locale coercion turned off, and a
walk of mdtune's source finds every file call that does not name its
encoding. (A runtime ``EncodingWarning`` filter would miss
``Path.read_text``: the warning is attributed to ``pathlib``.)
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import DATA

SRC = Path(__file__).resolve().parent.parent / "src"
C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
            "PYTHONPATH": str(SRC)}


def run_c_locale(tmp_path, *argv):
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG"))}
    proc = subprocess.run([sys.executable, "-m", "mdtune.cli", *argv], capture_output=True,
                          env=env | C_LOCALE, cwd=tmp_path, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    return json.loads(proc.stdout)


def test_rows_document(tmp_path):
    doc = {"rows": [{"label": "2x E5® + 2 GPUs", "performance_ns_day": 4.0,
                     "node_cost_eur": 5000, "power_w": 500}]}
    (tmp_path / "rows.json").write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    out = run_c_locale(tmp_path, "analyze-costs", "--rows", "rows.json", "--format", "json")
    assert [row["label"] for row in out] == ["2x E5® + 2 GPUs"]


def test_log(tmp_path):
    log = (DATA / "si_pme_balanced.log").read_bytes() + "NOTE: résumé of the run\n".encode()
    (tmp_path / "md.log").write_bytes(log)
    out = run_c_locale(tmp_path, "parse-log", "md.log")
    assert [note["text"] for note in out["notes"]] == ["NOTE: résumé of the run"]


FILE_CALLS = {"open", "read_text", "write_text"}


def calls_without_encoding(source: str) -> list[int]:
    """Line numbers of the ``open``, ``read_text`` and ``write_text`` calls with no ``encoding=``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in FILE_CALLS and not any(k.arg == "encoding" for k in node.keywords):
                lines.append(node.lineno)
    return sorted(lines)


def test_every_file_call_names_its_encoding():
    found = {path.name: calls_without_encoding(path.read_text(encoding="utf-8"))
             for path in sorted((SRC / "mdtune").glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_walk_finds_a_call_without_encoding():
    source = """\
open(path)
Path(path).read_text(errors="replace")
path.write_text(text)
open(path, encoding="utf-8")
Path(path).read_text(encoding="utf-8", errors="replace")
"""
    assert calls_without_encoding(source) == [1, 2, 3]
