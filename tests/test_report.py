"""The one table writer behind every report: its formats, and labels that a
Markdown or CSV reader would otherwise split."""

import contextlib
import copy
import csv
import io
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from mdtune import report
from mdtune.cli import main
from mdtune.econ import EconInput, EconParams
from mdtune.errors import MdtuneError
from mdtune.sweep import SweepResult
from mdtune.wire import from_doc

from conftest import DATA

ROWS_DOC = json.loads((DATA / "golden" / "rows.json").read_text(encoding="utf-8"))
SERIES_DOC = json.loads((DATA / "golden" / "series.json").read_text(encoding="utf-8"))


def run_command(path, command, doc, fmt) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([command, "--rows", str(path), "--format", fmt]) == 0
    return out.getvalue()


def relabelled(command, label):
    """The command's golden document with its first row or series labelled ``label``,
    and the number of table rows that carry the label."""
    if command == "scaling":
        doc = copy.deepcopy(SERIES_DOC)
        doc["series"][0]["label"] = label
        return doc, len(doc["series"][0]["points"])
    doc = copy.deepcopy(ROWS_DOC)
    doc["rows"][0]["label"] = label
    return doc, 1


def md_cells(line: str) -> list[str]:
    """The cells of a Markdown table line: split on each ``|`` that no backslash escapes."""
    return re.split(r"(?<!\\)\|", line)[1:-1]


class TestFormats:
    @pytest.mark.parametrize("fmt", ["text", "html", ""])
    def test_unknown_format_rejected(self, fmt):
        inputs = [from_doc(EconInput, row) for row in ROWS_DOC["rows"]]
        series = [from_doc(report.ScalingSeries, s) for s in SERIES_DOC["series"]]
        for render in (
            lambda: report.sweep_report(SweepResult([], [], None), fmt=fmt),
            lambda: report.econ_report(inputs, EconParams(), fmt=fmt),
            lambda: report.scaling_report(series, fmt=fmt),
            lambda: report.recommend_report(inputs, fmt=fmt),
        ):
            with pytest.raises(MdtuneError, match=f"unknown report format {fmt!r}"):
                render()


class TestLabels:
    @pytest.mark.parametrize("label, cell", [("A | B", r"A \| B"), ("c\nd", "c<br>d"),
                                             ("e\r\nf", "e<br>f"), ("g\rh|", r"g<br>h\|")])
    def test_md_label_keeps_its_row_whole(self, tmp_path, label, cell):
        doc, _ = relabelled("analyze-costs", label)
        lines = run_command(tmp_path / "rows.json", "analyze-costs", doc, "md").splitlines()
        assert len(lines) == len(doc["rows"]) + 2
        assert lines[2].startswith(f"| {cell} | 40.126 | ")
        assert len(md_cells(lines[2])) == len(md_cells(lines[0])) == 8

    @pytest.mark.parametrize("command", ["analyze-costs", "recommend", "scaling"])
    @settings(max_examples=40, deadline=None)
    # Python 3.10's csv.reader refuses a NUL character
    @given(label=st.text(st.characters(exclude_characters="\x00"), max_size=12))
    def test_any_label_keeps_md_and_csv_tables_whole(self, tmp_path_factory, command, label):
        path = tmp_path_factory.getbasetemp() / f"{command}.json"
        doc, carried = relabelled(command, label)
        n_rows = sum(len(s["points"]) for s in doc["series"]) if command == "scaling" \
            else len(doc["rows"])

        text = run_command(path, command, doc, "md")
        assert text.endswith("\n") and "\r" not in text
        lines = text[:-1].split("\n")
        assert len(lines) == n_rows + 2
        assert {len(md_cells(line)) for line in lines} == {len(md_cells(lines[0]))}

        table = list(csv.reader(io.StringIO(run_command(path, command, doc, "csv"))))
        assert len(table) == n_rows + 1
        column = table[0].index("hardware")
        assert [row[column] for row in table[1:]].count(label) >= carried
