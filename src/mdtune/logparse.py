"""Extraction of performance and load-balance metrics from engine log text.

The interesting lines appear near the end of an engine's metrics log:

 - "Average PME mesh/force load: 0.625" with an optional companion line
   giving the percentage of runtime lost waiting on the mesh ranks,
 - "Force evaluation time GPU/CPU: 5.673 ms/8.301 ms = 0.683",
 - the "PP/PME load balancing changed the cut-off ..." table with initial
   and final cutoff/grid settings and the resulting cost ratios,
 - "NOTE:" advisory blocks,
 - the closing "Performance:" line (ns/day).

Logs from restarted runs contain several copies of a metric; the last
occurrence wins, since it reflects the balanced steady state. Parsing is
stateless and insensitive to unrelated surrounding lines. A keyword's values
are read from its own line, as ``str.splitlines`` splits the text: no value,
and no gap before or between values, crosses any of its line boundaries, so a
bare keyword (a log cut mid-line) has no value.
Numbers must use '.' as the decimal separator and fit a float, and grid
counts must be ASCII digits that fit an int; a recognized line whose numbers
do not parse raises LogParseError with the offset of the number.

Each scan starts only where a match can start, so a parse costs about one
step per line (and per keyword), not one per character:

 - "Performance:" starts a line after optional whitespace, and is read from
   the end of the log: its pattern is tried at the start of the line of the
   last keyword literal (``str.rfind``), then of the one before, until a
   line matches. A line holds at most one match, so that one is the last.
 - the table's "initial"/"final" rows and its "cost-ratio" line start a line
   after optional whitespace. Their scans jump from newline to newline.
 - "NOTE:" blocks start a line; the scan jumps to each newline-"NOTE:", with
   a newline put before the text so that a block on its first line matches.
 - the PME load line, the GPU/CPU line and the table header are found by
   their keywords wherever they stand.
 - the table's rows and "cost-ratio" line are searched from the last table
   header on, and the PME wait line only within the four lines after the
   last PME load line.

A log without a keyword costs one substring test for it: the PME load, the
GPU/CPU and the NOTE scans, like the table's, run only when their keyword's
literal is in the text. The matches of every keyword but "Performance:" are
still taken from the start of the text, without overlap, and the last one
wins. Each number is read once, from its match, by ``_number``, ``_float`` or
``_int``; a line's numbers are read in field order, so of two bad ones the
first is named, at its offset in the log.

Integrity checks (re-deriving the printed GPU/CPU ratio, cube-law check on
the cutoff scaling) produce warnings in PerfMetrics.notes, not failures:
printed values carry rounding of their own.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple, Optional

from .errors import LogParseError

NUMBER = r"[0-9]+(?:\.[0-9]+)?"
_NUMBER_RE = re.compile(NUMBER)

# The line boundaries of str.splitlines, one line without its boundary, and
# whitespace that stops at such a boundary: a keyword's values, and the gaps
# between them, never run over a line end.
_EOL_CHARS = r"\n\r\v\f\x1c-\x1e\x85\u2028\u2029"
_EOL = rf"(?:\r\n|[{_EOL_CHARS}])"
_LINE = rf"[^{_EOL_CHARS}]*"
_SP = rf"[^\S{_EOL_CHARS}]"
_INDENT = r"[^\S\n]"  # whitespace before a keyword that starts a line

# A keyword's literal; a text without it has no match, so its scan is skipped.
_PME_LOAD = "Average PME mesh/force load:"
_GPU_CPU = "Force evaluation time GPU/CPU:"
_NOTE_KEYWORD = "NOTE:"

_PME_LOAD_RE = re.compile(rf"{_PME_LOAD}{_SP}*(\S+)")
# After the load value: newlines skipped, then (group 1) the next four lines.
_PME_WAIT_WINDOW_RE = re.compile(rf"\n*((?:{_LINE}{_EOL}){{0,3}}{_LINE})")
# The wait line is one of the window's lines: its value stops at any boundary.
_PME_WAIT_RE = re.compile(
    rf"spent waiting due to PP/PME imbalance:{_SP}*(\S+){_SP}*%")
_GPU_CPU_RE = re.compile(rf"{_GPU_CPU}({_LINE})")
_GPU_CPU_NUMS = re.compile(
    rf"\s*({NUMBER})\s*ms/({NUMBER})\s*ms\s*=\s*({NUMBER})\s*$"
)
_LB_HEADER = "PP/PME load balancing changed the cut-off"

# "Performance:" is matched at the start of a line. The other line patterns
# are searched from the newline before each line, a literal the regex engine
# skips to (before the first line, a newline put before the text).
_PERFORMANCE = "Performance:"
_PERF_RE = re.compile(rf"{_INDENT}*{_PERFORMANCE}{_SP}+(\S+)")
_LB_ROW_RE = re.compile(
    rf"\n{_INDENT}*(initial|final){_SP}+({NUMBER}){_SP}*nm{_SP}+({NUMBER}){_SP}*nm"
    rf"{_SP}+([0-9]+){_SP}+([0-9]+){_SP}+([0-9]+){_SP}+({NUMBER}){_SP}*nm{_SP}+({NUMBER}){_SP}*nm"
)
_LB_COST_RE = re.compile(rf"\n{_INDENT}*cost-ratio{_SP}+(\S+){_SP}+(\S+)")
_NOTE_RE = re.compile(rf"\n({_NOTE_KEYWORD}.*(?:\n[ \t]+\S.*)*)")

RATIO_CHECK_TOLERANCE = 0.001  # printed GPU/CPU ratio vs recomputed quotient
CUBE_LAW_TOLERANCE = 0.02  # printed PP cost ratio vs cutoff-ratio cubed

ADVISORY_PME_OVERPROVISIONED = "pme_overprovisioned"
ADVISORY_GPU_UNDERUTILIZED = "gpu_underutilized"
ADVISORY_OTHER = "other"


class Advisory(NamedTuple):
    kind: str
    text: str


class GpuCpuRatio(NamedTuple):
    gpu_ms: float
    cpu_ms: float
    ratio: float  # as printed in the log


class CutoffSetting(NamedTuple):
    """One row of the load-balancing table: the cutoffs and PME grid it names."""

    rcoulomb: float
    rlist: float
    grid: tuple[int, int, int]
    spacing: float
    inv_beta: float

    WIRE = {"rcoulomb": "rcoulomb_nm", "rlist": "rlist_nm", "spacing": "spacing_nm",
            "inv_beta": "inv_beta_nm"}


class ParsedLoadBalance(NamedTuple):
    initial: CutoffSetting
    final: CutoffSetting
    cost_ratio_pp: float
    cost_ratio_pme: float


class PerfMetrics(NamedTuple):
    """Everything a single log contributes to a sweep row."""

    performance: Optional[float] = None  # ns/day
    pme_mesh_force_load: Optional[float] = None
    pp_pme_wait_pct: Optional[float] = None
    gpu_cpu: Optional[GpuCpuRatio] = None
    load_balance: Optional[ParsedLoadBalance] = None
    notes: tuple[Advisory, ...] = ()

    WIRE = {"performance": "performance_ns_day"}
    WIRE_NULLS = ("performance", "pme_mesh_force_load", "pp_pme_wait_pct")


def _number(m: re.Match, group: int, what: str) -> float:
    """Group ``group`` of ``m``, checked to be a ``NUMBER``, as a float."""
    if not _NUMBER_RE.fullmatch(m[group]):
        raise LogParseError(
            f"malformed {what}: {m[group]!r} (only '.' decimal separators are accepted)",
            offset=m.start(group),
        )
    return _float(m, group, what)


def _float(m: re.Match, group: int, what: str) -> float:
    """Group ``group`` of ``m``, a ``NUMBER``, as a float that is not infinite."""
    value = float(m[group])
    if value == math.inf:
        raise LogParseError(f"{what} overflows a float: {m[group][:20]}...",
                            offset=m.start(group))
    return value


def _int(m: re.Match, group: int, what: str) -> int:
    """Group ``group`` of ``m``, ASCII digits, as an int."""
    try:
        return int(m[group])
    except ValueError:  # more digits than int() converts
        raise LogParseError(f"{what} has too many digits: {m[group][:20]}...",
                            offset=m.start(group)) from None


def _last(matches):
    m = None
    for m in matches:
        pass
    return m


def parse_pme_load(text: str) -> Optional[tuple[float, Optional[float]]]:
    """Last "Average PME mesh/force load" value plus the wait percentage.

    The wait line is taken from the few lines following the load line when
    present. Returns None when the log has no such line at all.
    """
    if _PME_LOAD not in text:
        return None
    m = _last(_PME_LOAD_RE.finditer(text))
    if m is None:
        return None
    load = _number(m, 1, "PME mesh/force load")
    # the companion line sits within the next few lines when present
    start, end = _PME_WAIT_WINDOW_RE.match(text, m.end()).span(1)
    wait = None
    wm = _PME_WAIT_RE.search(text, start, end)
    if wm:
        wait = _number(wm, 1, "PP/PME wait percentage")
        if not 0.0 <= wait <= 100.0:
            raise LogParseError(
                f"PP/PME wait percentage {wait} outside [0, 100]",
                offset=wm.start(1),
            )
    return load, wait


def parse_gpu_cpu_ratio(text: str) -> Optional[GpuCpuRatio]:
    """Last "Force evaluation time GPU/CPU" line as (gpu_ms, cpu_ms, ratio)."""
    if _GPU_CPU not in text:
        return None
    m = _last(_GPU_CPU_RE.finditer(text))
    if m is None:
        return None
    nums = _GPU_CPU_NUMS.match(text, m.start(1), m.end(1))
    if not nums:
        raise LogParseError(
            f"malformed GPU/CPU force time line: {m[0].strip()!r}",
            offset=m.start(),
        )
    return GpuCpuRatio(_float(nums, 1, "GPU force time"), _float(nums, 2, "CPU force time"),
                       _float(nums, 3, "GPU/CPU ratio"))


def _table_row(m: re.Match) -> CutoffSetting:
    return CutoffSetting(_float(m, 2, "rcoulomb"), _float(m, 3, "rlist"),
                         (_int(m, 4, "PME grid"), _int(m, 5, "PME grid"), _int(m, 6, "PME grid")),
                         _float(m, 7, "spacing"), _float(m, 8, "1/beta"))


def parse_load_balance_table(text: str) -> Optional[ParsedLoadBalance]:
    """The cutoff/grid table written after PP/PME (or CPU/GPU) balancing."""
    start = text.rfind(_LB_HEADER)
    if start < 0:
        return None
    rows = {m[1]: m for m in _LB_ROW_RE.finditer(text, start)}
    for required in ("initial", "final"):
        if required not in rows:
            raise LogParseError(
                f"load balancing table is missing its '{required}' row",
                offset=start,
            )
    cost = _LB_COST_RE.search(text, start)
    if not cost:
        raise LogParseError(
            "load balancing table is missing its 'cost-ratio' row",
            offset=start,
        )
    return ParsedLoadBalance(
        _table_row(rows["initial"]),
        _table_row(rows["final"]),
        _number(cost, 1, "PP cost ratio"),
        _number(cost, 2, "PME cost ratio"),
    )


def classify_note(text: str) -> str:
    lowered = text.lower()
    if "pme" in lowered and ("less work" in lowered or "decrease the number" in lowered):
        return ADVISORY_PME_OVERPROVISIONED
    if "gpu" in lowered and ("less load" in lowered or "performance loss" in lowered):
        return ADVISORY_GPU_UNDERUTILIZED
    return ADVISORY_OTHER


def parse_advisories(text: str) -> list[Advisory]:
    """All NOTE blocks, verbatim, classified by what they complain about."""
    if _NOTE_KEYWORD not in text:
        return []
    return [Advisory(classify_note(m[1]), m[1]) for m in _NOTE_RE.finditer("\n" + text)]


def parse_performance(text: str) -> Optional[float]:
    """The last "Performance:" line's ns/day: the line of the last keyword
    literal, or of the one before it while the line does not match."""
    m, end = None, len(text)
    while m is None and (end := text.rfind(_PERFORMANCE, 0, end)) >= 0:
        end = text.rfind("\n", 0, end) + 1  # the start of its line
        m = _PERF_RE.match(text, end)
    if m is None:
        return None
    value = _number(m, 1, "performance")
    if value <= 0:
        raise LogParseError(f"non-positive performance {value}", offset=m.start(1))
    return value


def parse_metrics(text: str) -> PerfMetrics:
    """Full metric extraction from one log, with integrity warnings attached."""
    performance = parse_performance(text)
    pme = parse_pme_load(text) or (None, None)
    gpu_cpu = parse_gpu_cpu_ratio(text)
    lb = parse_load_balance_table(text)
    notes = parse_advisories(text)

    if gpu_cpu and gpu_cpu.cpu_ms > 0:
        recomputed = gpu_cpu.gpu_ms / gpu_cpu.cpu_ms
        if abs(recomputed - gpu_cpu.ratio) > RATIO_CHECK_TOLERANCE:
            notes.append(
                Advisory(
                    kind=ADVISORY_OTHER,
                    text=(
                        f"integrity: printed GPU/CPU ratio {gpu_cpu.ratio} "
                        f"differs from recomputed {recomputed:.4f}"
                    ),
                )
            )
    if lb and lb.initial.rcoulomb > 0 and lb.cost_ratio_pp > 0:
        cube = (lb.final.rcoulomb / lb.initial.rcoulomb) ** 3
        if abs(cube / lb.cost_ratio_pp - 1.0) > CUBE_LAW_TOLERANCE:
            notes.append(
                Advisory(
                    kind=ADVISORY_OTHER,
                    text=(
                        f"integrity: cutoff ratio cubed {cube:.3f} is more than "
                        f"{CUBE_LAW_TOLERANCE:.0%} away from printed cost ratio "
                        f"{lb.cost_ratio_pp}"
                    ),
                )
            )
    return PerfMetrics(performance, *pme, gpu_cpu, lb, tuple(notes))


# ---------------------------------------------------------------------------
# Rendering (synthetic logs) and serialization
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    """Plain decimal (no exponent) that parses back to the same float.

    repr() is shortest and exact but switches to scientific notation for
    extreme magnitudes, which the plain-decimal log grammar rejects; fall
    back to the full (finite) decimal expansion there.
    """
    text = repr(float(value))
    if "e" in text or "E" in text:
        text = format(float(value), ".1074f").rstrip("0")
        if text.endswith("."):
            text += "0"
    return text


# The sections of a synthetic log, each a format string of whole lines; a
# blank line closes every section.
_LOG_HEADER = "Log file opened: synthetic run\n\n"
_LB_SECTION = (
    f" {_LB_HEADER} and PME settings:\n"
    "           particle-particle                    PME\n"
    "            rcoulomb  rlist            grid      spacing   1/beta\n"
    "   initial  {} nm  {} nm     {} {} {}   {} nm  {} nm\n"
    "   final    {} nm  {} nm     {} {} {}   {} nm  {} nm\n"
    " cost-ratio           {}             {}\n\n"
)
_PME_SECTION = f" {_PME_LOAD} {{}}\n{{}}\n"
_PME_WAIT_LINE = " Part of the total run time spent waiting due to PP/PME imbalance: {} %\n"
_GPU_CPU_SECTION = (f" {_GPU_CPU} {{}} ms/{{}} ms = {{}}\n"
                    "For optimal performance this ratio should be close to 1!\n\n")
_PERFORMANCE_SECTION = ("               Core t (s)   Wall t (s)        (%)\n"
                        " Performance:     {}\n\n")


def _row_fields(row: CutoffSetting) -> tuple:
    return (_fmt(row.rcoulomb), _fmt(row.rlist), *row.grid, _fmt(row.spacing),
            _fmt(row.inv_beta))


def render_log(metrics: PerfMetrics) -> str:
    """Write a log that parses back to the given metrics.

    Used by the synthetic executor so that the whole sweep pipeline,
    including parsing, is exercised without an engine installed. Floats are
    written at full precision so rendering and parsing round-trip exactly.
    The Performance section comes last: a log's text without it is the log
    of the same metrics with ``performance=None``, and appending
    ``render_performance(value)`` gives the full log.
    """
    parts = [_LOG_HEADER]
    lb = metrics.load_balance
    if lb:
        parts.append(_LB_SECTION.format(*_row_fields(lb.initial), *_row_fields(lb.final),
                                        _fmt(lb.cost_ratio_pp), _fmt(lb.cost_ratio_pme)))
    load, wait = metrics.pme_mesh_force_load, metrics.pp_pme_wait_pct
    if load is not None:
        parts.append(_PME_SECTION.format(
            _fmt(load), "" if wait is None else _PME_WAIT_LINE.format(_fmt(wait))))
    gpu_cpu = metrics.gpu_cpu
    if gpu_cpu is not None:
        parts.append(_GPU_CPU_SECTION.format(_fmt(gpu_cpu.gpu_ms), _fmt(gpu_cpu.cpu_ms),
                                             _fmt(gpu_cpu.ratio)))
    parts += [note.text + "\n\n" for note in metrics.notes
              if note.text.startswith(_NOTE_KEYWORD)]
    if metrics.performance is not None:
        parts.append(render_performance(metrics.performance))
    return "".join(parts)


def render_performance(value: float) -> str:
    """A log's closing Performance section; see ``render_log``."""
    return _PERFORMANCE_SECTION.format(_fmt(value))
