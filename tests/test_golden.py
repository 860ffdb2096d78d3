"""Byte-exact CLI outputs, pinned under tests/data/golden/.

Every subcommand and output format runs on fixed inputs and must print the
recorded bytes. Regenerate the files (only when an output is meant to
change) with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import sys

import pytest

from mdtune.cli import main

from conftest import DATA

GOLDEN = DATA / "golden"
MANIFEST = str(DATA / "manifest_mem.json")
CPU_MANIFEST = str(GOLDEN / "manifest_cpu.json")
ROWS = str(GOLDEN / "rows.json")
SERIES = str(GOLDEN / "series.json")
LOGS = [str(DATA / name) for name in ("si_pme_imbalance.log", "si_pme_balanced.log",
                                      "si_gpu_force.log", "si_load_balance.log")]

CASES = {
    "plan.json": ["plan", "--manifest", MANIFEST],
    "plan_dry_run.sh": ["plan", "--manifest", MANIFEST, "--dry-run"],
    "sweep_dry_run_failures.sh": ["sweep", "--manifest", MANIFEST, "--plan",
                                  str(GOLDEN / "plan_failures.json"), "--dry-run"],
    "multi_plan.json": ["multi-plan", "--manifest", MANIFEST, "--replicas", "5"],
    "parse_log_one.json": ["parse-log", LOGS[3]],
    "parse_log_all.json": ["parse-log", *LOGS],
    "parse_log_all.csv": ["parse-log", *LOGS, "--format", "csv"],
    "scaling.md": ["scaling", "--rows", SERIES],
    "scaling.csv": ["scaling", "--rows", SERIES, "--format", "csv"],
    "recommend.md": ["recommend", "--rows", ROWS],
    "recommend.csv": ["recommend", "--rows", ROWS, "--format", "csv"],
    "recommend_c1_c4.md": ["recommend", "--rows", ROWS, "--weights", "C1=0.5,C4=0.5"],
    "recommend_c1_c4.csv": ["recommend", "--rows", ROWS, "--weights", "C1=0.5,C4=0.5",
                            "--format", "csv"],
}
for fmt in ("json", "csv", "md", "table"):
    CASES[f"sweep.{fmt}"] = ["sweep", "--manifest", MANIFEST, "--format", fmt]
    CASES[f"sweep_cpu.{fmt}"] = ["sweep", "--manifest", CPU_MANIFEST, "--format", fmt]
    CASES[f"sweep_failures.{fmt}"] = ["sweep", "--manifest", MANIFEST, "--plan",
                                      str(GOLDEN / "plan_failures.json"), "--format", fmt]
for fmt in ("md", "csv", "json"):
    for unit in ("ns", "us"):
        CASES[f"analyze_costs_{unit}.{fmt}"] = ["analyze-costs", "--rows", ROWS,
                                                "--format", fmt, "--yield-unit", unit]


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


if __name__ == "__main__":
    import contextlib
    import io

    for name, argv in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if main(argv) != 0:
                sys.exit(f"{name}: mdtune {' '.join(argv)} failed")
        (GOLDEN / name).write_text(buf.getvalue())
        print(f"wrote {GOLDEN / name}")
