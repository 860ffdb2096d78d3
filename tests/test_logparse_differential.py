"""``mdtune.logparse`` against a reference parser on generated logs.

The reference below is the parser as it was before its scans were anchored
on keywords and newlines: MULTILINE ``^`` patterns tried at every character,
the load-balance table searched in a copy of the log from its last header,
and the PME wait line searched in a window rebuilt from ``splitlines()``.
Its one change is where ``LogParseError.offset`` points: at the number that
does not parse or is out of range. The old parser reported the first place
the same characters appeared anywhere in the log for the one, and the start
of the match (or of the wait line's window) for the other. Its second
change: a keyword's values ("Performance:", the PME load and wait lines,
the GPU/CPU line, the table's rows and "cost-ratio") are read from the
keyword's own line, as ``str.splitlines`` splits the text, where the old
patterns let their whitespace run over line ends and took the next line's
tokens after a bare keyword. Both parsers must agree on the offset too,
since it is part of the message.

The logs are built from keyword-line fragments: odd whitespace before a
keyword, keywords with nothing after them, NOTE blocks with continuation
lines, load-balance rows far after their header, odd line boundaries and
restarted runs with up to three copies of a log.
"""

import re
import sys
from typing import Optional

from hypothesis import given, settings, strategies as st

from mdtune import logparse
from mdtune.errors import LogParseError
from mdtune.logparse import (
    ADVISORY_OTHER,
    Advisory,
    CutoffSetting,
    GpuCpuRatio,
    ParsedLoadBalance,
    PerfMetrics,
    classify_note,
)
from mdtune.wire import to_doc

# ---------------------------------------------------------------------------
# The reference parser
# ---------------------------------------------------------------------------

NUMBER = r"[0-9]+(?:\.[0-9]+)?"

# Whitespace within one line: every whitespace character at which
# str.splitlines does not split.
_BREAKS = "".join(c for c in filter(str.isspace, map(chr, range(sys.maxunicode + 1)))
                  if len(f"a{c}b".splitlines()) > 1)
_SP = f"[^\\S{re.escape(_BREAKS)}]"

_PME_LOAD_RE = re.compile(rf"Average PME mesh/force load:{_SP}*(\S+)")
_PME_WAIT_RE = re.compile(r"spent waiting due to PP/PME imbalance:[^\S\n]*(\S+)[^\S\n]*%")
_GPU_CPU_RE = re.compile(r"Force evaluation time GPU/CPU:")
_GPU_CPU_NUMS = re.compile(rf"\s*({NUMBER})\s*ms/({NUMBER})\s*ms\s*=\s*({NUMBER})\s*$")
_PERF_RE = re.compile(rf"^\s*Performance:{_SP}+(\S+)", re.MULTILINE)
_LB_HEADER_RE = re.compile(r"PP/PME load balancing changed the cut-off")
_LB_ROW_RE = re.compile(
    rf"^\s*(initial|final){_SP}+({NUMBER}){_SP}*nm{_SP}+({NUMBER}){_SP}*nm{_SP}+"
    rf"(\d+){_SP}+(\d+){_SP}+(\d+){_SP}+({NUMBER}){_SP}*nm{_SP}+({NUMBER}){_SP}*nm",
    re.MULTILINE,
)
_LB_COST_RE = re.compile(rf"^\s*cost-ratio{_SP}+(\S+){_SP}+(\S+)", re.MULTILINE)
_NOTE_RE = re.compile(r"^NOTE:.*(?:\n[ \t]+\S.*)*", re.MULTILINE)


def _parse_number(raw: str, offset: int, what: str) -> float:
    if not re.fullmatch(NUMBER, raw):
        raise LogParseError(
            f"malformed {what}: {raw!r} (only '.' decimal separators are accepted)",
            offset=offset,
        )
    return float(raw)


def _window_offset(lines: list[str], base: int, index: int) -> int:
    """The log offset of ``index`` in ``"\\n".join`` of ``lines`` (which keep
    their line ends), whose first line starts at ``base`` in the log."""
    for line in lines:
        content = line.splitlines()[0]
        if index <= len(content):
            return base + index
        index -= len(content) + 1
        base += len(line)
    raise AssertionError("index beyond the window")


def ref_parse_pme_load(text: str) -> Optional[tuple[float, Optional[float]]]:
    matches = list(_PME_LOAD_RE.finditer(text))
    if not matches:
        return None
    m = matches[-1]
    load = _parse_number(m.group(1), m.start(1), "PME mesh/force load")
    rest = text[m.end():].lstrip("\n")
    lines = rest.splitlines(keepends=True)[:4]
    window = "\n".join(line.splitlines()[0] for line in lines)
    wait = None
    wm = _PME_WAIT_RE.search(window)
    if wm:
        offset = _window_offset(lines, len(text) - len(rest), wm.start(1))
        wait = _parse_number(wm.group(1), offset, "PP/PME wait percentage")
        if not 0.0 <= wait <= 100.0:
            raise LogParseError(
                f"PP/PME wait percentage {wait} outside [0, 100]", offset=offset
            )
    return load, wait


def ref_parse_gpu_cpu_ratio(text: str) -> Optional[GpuCpuRatio]:
    # The rest of a keyword's line is its value, so a second keyword there is
    # part of that value, not a match of its own: the next search starts
    # after the line.
    m, found = None, _GPU_CPU_RE.search(text)
    while found:
        m, line = found, text[found.start():].splitlines()[0]
        found = _GPU_CPU_RE.search(text, found.start() + len(line))
    if m is None:
        return None
    nums = _GPU_CPU_NUMS.match(line, m.end() - m.start())
    if not nums:
        raise LogParseError(
            f"malformed GPU/CPU force time line: {line.strip()!r}",
            offset=m.start(),
        )
    gpu_ms, cpu_ms, ratio = (float(g) for g in nums.groups())
    return GpuCpuRatio(gpu_ms=gpu_ms, cpu_ms=cpu_ms, ratio=ratio)


def ref_parse_load_balance_table(text: str) -> Optional[ParsedLoadBalance]:
    headers = list(_LB_HEADER_RE.finditer(text))
    if not headers:
        return None
    header = headers[-1]
    block = text[header.start():]
    rows = {m.group(1): m for m in _LB_ROW_RE.finditer(block)}
    for required in ("initial", "final"):
        if required not in rows:
            raise LogParseError(
                f"load balancing table is missing its '{required}' row",
                offset=header.start(),
            )
    cost = _LB_COST_RE.search(block)
    if not cost:
        raise LogParseError(
            "load balancing table is missing its 'cost-ratio' row",
            offset=header.start(),
        )

    def row(which: str) -> CutoffSetting:
        m = rows[which]
        return CutoffSetting(
            rcoulomb=float(m.group(2)),
            rlist=float(m.group(3)),
            grid=(int(m.group(4)), int(m.group(5)), int(m.group(6))),
            spacing=float(m.group(7)),
            inv_beta=float(m.group(8)),
        )

    return ParsedLoadBalance(
        initial=row("initial"),
        final=row("final"),
        cost_ratio_pp=_parse_number(cost.group(1), header.start() + cost.start(1),
                                    "PP cost ratio"),
        cost_ratio_pme=_parse_number(cost.group(2), header.start() + cost.start(2),
                                     "PME cost ratio"),
    )


def ref_parse_advisories(text: str) -> list[Advisory]:
    return [Advisory(kind=classify_note(m.group(0)), text=m.group(0))
            for m in _NOTE_RE.finditer(text)]


def ref_parse_performance(text: str) -> Optional[float]:
    matches = list(_PERF_RE.finditer(text))
    if not matches:
        return None
    m = matches[-1]
    value = _parse_number(m.group(1), m.start(1), "performance")
    if value <= 0:
        raise LogParseError(f"non-positive performance {value}", offset=m.start(1))
    return value


def ref_parse_metrics(text: str) -> PerfMetrics:
    performance = ref_parse_performance(text)
    pme = ref_parse_pme_load(text) or (None, None)
    gpu_cpu = ref_parse_gpu_cpu_ratio(text)
    lb = ref_parse_load_balance_table(text)
    notes = ref_parse_advisories(text)
    if gpu_cpu and gpu_cpu.cpu_ms > 0:
        recomputed = gpu_cpu.gpu_ms / gpu_cpu.cpu_ms
        if abs(recomputed - gpu_cpu.ratio) > logparse.RATIO_CHECK_TOLERANCE:
            notes.append(Advisory(
                kind=ADVISORY_OTHER,
                text=(f"integrity: printed GPU/CPU ratio {gpu_cpu.ratio} "
                      f"differs from recomputed {recomputed:.4f}"),
            ))
    if lb and lb.initial.rcoulomb > 0 and lb.cost_ratio_pp > 0:
        cube = (lb.final.rcoulomb / lb.initial.rcoulomb) ** 3
        if abs(cube / lb.cost_ratio_pp - 1.0) > logparse.CUBE_LAW_TOLERANCE:
            notes.append(Advisory(
                kind=ADVISORY_OTHER,
                text=(f"integrity: cutoff ratio cubed {cube:.3f} is more than "
                      f"{logparse.CUBE_LAW_TOLERANCE:.0%} away from printed cost ratio "
                      f"{lb.cost_ratio_pp}"),
            ))
    return PerfMetrics(performance, *pme, gpu_cpu, lb, tuple(notes))


# parser under test -> its reference
PAIRS = [
    (logparse.parse_metrics, ref_parse_metrics),
    (logparse.parse_performance, ref_parse_performance),
    (logparse.parse_pme_load, ref_parse_pme_load),
    (logparse.parse_gpu_cpu_ratio, ref_parse_gpu_cpu_ratio),
    (logparse.parse_load_balance_table, ref_parse_load_balance_table),
    (logparse.parse_advisories, ref_parse_advisories),
]

# ---------------------------------------------------------------------------
# Generated logs
# ---------------------------------------------------------------------------

valid_numbers = ["1.5", "20.0", "0", "0.625", "8.3", "150", "4.10", "0.22", "1.000", "1.607"]
numbers = st.sampled_from(valid_numbers * 3 + ["1,5", "-5", "1e3", "12.5.3", "26.0x",
                                               "Performance:", ""])
ints = st.sampled_from(["96", "144", "240", "0"] * 3 + ["x"])
prefixes = st.sampled_from(["", " ", "   ", "\t", "\v", "\f", "\r", " \t\f ", "\v  "])
# line boundaries of str.splitlines, mostly "\n"
boundaries = st.sampled_from(["\n"] * 6 + ["\r\n", "\r", "\v", "\f", "\x1c", "\x85", " "])
noise_lines = st.sampled_from([
    "Step 1,5 of the run",
    "step 12 energies: -1.23e+05 4.56",
    "Writing checkpoint, step 1234",
    "x Performance: 7.0",
    "               Core t (s)   Wall t (s)        (%)",
    "   5.0 %",  # what a bare wait keyword or table row must not take
    "   1.5 nm  1.5 nm     96 96 96   0.12 nm  0.38 nm",
    "",
])


def keyword_line(draw, kind: str, nums) -> str:
    n = lambda: draw(nums)  # noqa: E731
    if kind == "perf":
        return f"Performance:{draw(st.sampled_from([' ', '     ', chr(9)]))}{n()}   0.923"
    if kind == "pme_load":
        return f"Average PME mesh/force load: {n()}"
    if kind == "pme_wait":
        return f"Part of the total run time spent waiting due to PP/PME imbalance: {n()} %"
    if kind == "gpu_cpu":
        return f"Force evaluation time GPU/CPU: {n()} ms/{n()} ms = {n()}"
    if kind == "header":
        return "PP/PME load balancing changed the cut-off and PME settings:"
    if kind in ("initial", "final"):
        return (f"{kind}  {n()} nm  {n()} nm     {draw(ints)} {draw(ints)} {draw(ints)}"
                f"   {n()} nm  {n()} nm")
    if kind == "cost":
        return f"cost-ratio           {n()}             {n()}"
    if kind == "note":
        body = draw(st.sampled_from([
            "NOTE: 8.3 % performance was lost because the PME ranks",
            "NOTE: the GPU has less load than the CPU: performance loss",
            "NOTE: affinity setting failed",
        ]))
        more = draw(st.lists(st.sampled_from([
            "      had less work to do than the PP ranks.",
            "\tYou might want to decrease the number of PME nodes",
            "      ",
            "no indent, not a continuation",
        ]), max_size=3))
        return "\n".join([body, *more])
    if kind == "twice":  # a keyword written twice on its own line
        keyword = draw(st.sampled_from(["Performance:", "Average PME mesh/force load:",
                                        "Force evaluation time GPU/CPU:"]))
        between = draw(st.sampled_from(["", " ", "  ", f" {n()} "]))
        value = f"{n()} ms/{n()} ms = {n()}" if keyword.startswith("Force") else n()
        return f"{keyword}{between}{keyword} {value}"
    if kind == "bare":  # a keyword with nothing after it
        return draw(st.sampled_from([
            "Performance:", "Average PME mesh/force load:", "cost-ratio", "initial",
            "NOTE:", "Part of the total run time spent waiting due to PP/PME imbalance:",
            "Force evaluation time GPU/CPU:",
        ]))
    return draw(noise_lines)


def block(draw, kinds: list[str]) -> str:
    """Keyword lines in order, with odd prefixes and boundaries, and a run of
    noise lines between two of them now and then. Half of the blocks have
    only well-formed numbers."""
    nums = st.sampled_from(valid_numbers) if draw(st.booleans()) else numbers
    eol = draw(st.sampled_from(["\n", "\r\n", None]))  # None: any, line by line
    out = ""
    for kind in kinds:
        line = keyword_line(draw, kind, nums)
        if not (line.startswith("NOTE:") and draw(st.booleans())):
            line = draw(prefixes) + line  # else a NOTE block starts its line
        out += line + (eol or draw(boundaries))
        if draw(st.integers(0, 5)) == 0:
            out += "step 1 energies: 1.0 2.0\n" * draw(st.integers(1, 60))
    return out


@st.composite
def fragments(draw) -> str:
    """One keyword line, or a table or PME block whose lines are in order."""
    kind = draw(st.sampled_from([
        "table", "table", "pme_block", "pme_block", "perf", "pme_load", "pme_wait",
        "gpu_cpu", "header", "initial", "final", "cost", "note", "twice", "bare", "noise",
    ]))
    if kind == "table":
        return block(draw, ["header", "noise", "initial", "final", "cost"])
    if kind == "pme_block":
        # the wait line is read from the four lines after the load line
        middle = draw(st.lists(st.sampled_from(["noise", "bare"]), max_size=4))
        return block(draw, ["pme_load", *middle, "pme_wait"])
    return block(draw, [kind])


@st.composite
def logs(draw) -> str:
    def one_copy() -> str:
        return "".join(draw(st.lists(fragments(), max_size=10)))

    copies = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return one_copy() * copies  # a restarted run that wrote the same lines
    return "".join(one_copy() for _ in range(copies))


def outcome(parse, text: str):
    """The to_doc form of what ``parse`` returns, or the exception it raises."""
    try:
        result = parse(text)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    if isinstance(result, PerfMetrics):
        return to_doc(result)
    if isinstance(result, list):
        return [to_doc(a) for a in result]
    if isinstance(result, (GpuCpuRatio, ParsedLoadBalance)):
        return to_doc(result)
    return result


class TestAgainstReference:
    @settings(max_examples=500, deadline=None)
    @given(text=logs())
    def test_same_result_or_error(self, text):
        for parse, reference in PAIRS:
            assert outcome(parse, text) == outcome(reference, text), parse.__name__

    def test_fixture_logs(self, si_pme_imbalance, si_pme_balanced, si_gpu_force,
                          si_load_balance):
        for text in (si_pme_imbalance, si_pme_balanced, si_gpu_force, si_load_balance):
            for restarted in (text, text * 3):
                for parse, reference in PAIRS:
                    assert outcome(parse, restarted) == outcome(reference, restarted)
