import csv
import io

import pytest
from hypothesis import given, settings, strategies as st

from mdtune.errors import LogParseError
from mdtune.logparse import (
    ADVISORY_GPU_UNDERUTILIZED,
    ADVISORY_OTHER,
    ADVISORY_PME_OVERPROVISIONED,
    Advisory,
    CutoffSetting,
    GpuCpuRatio,
    ParsedLoadBalance,
    PerfMetrics,
    parse_advisories,
    parse_gpu_cpu_ratio,
    parse_load_balance_table,
    parse_metrics,
    parse_pme_load,
    render_log,
    render_performance,
)
from mdtune.report import metrics_csv
from mdtune.wire import to_doc as metrics_to_json

from conftest import read_log

plain_floats = st.floats(min_value=0.001, max_value=9999.0,
                         allow_nan=False, allow_infinity=False)


class TestPmeLoad:
    def test_imbalanced_block(self, si_pme_imbalance):
        assert parse_pme_load(si_pme_imbalance) == (0.625, 8.3)

    def test_balanced_block(self, si_pme_balanced):
        assert parse_pme_load(si_pme_balanced) == (1.011, 0.7)

    def test_empty_text(self):
        assert parse_pme_load("") is None

    def test_load_without_wait_line(self):
        assert parse_pme_load(" Average PME mesh/force load: 0.9\n") == (0.9, None)

    def test_last_occurrence_wins(self, si_pme_imbalance, si_pme_balanced):
        combined = si_pme_imbalance + "\n" + si_pme_balanced
        assert parse_pme_load(combined) == (1.011, 0.7)

    def test_locale_decimal_rejected(self):
        with pytest.raises(LogParseError):
            parse_pme_load(" Average PME mesh/force load: 0,625\n")


class TestGpuCpuRatio:
    def test_si_line(self, si_gpu_force):
        ratio = parse_gpu_cpu_ratio(si_gpu_force)
        assert (ratio.gpu_ms, ratio.cpu_ms, ratio.ratio) == (5.673, 8.301, 0.683)

    def test_trivial_unity(self):
        ratio = parse_gpu_cpu_ratio(
            " Force evaluation time GPU/CPU: 1.000 ms/1.000 ms = 1.000\n"
        )
        assert ratio.ratio == 1.0

    def test_absent(self):
        assert parse_gpu_cpu_ratio("nothing to see\n") is None

    def test_malformed_line_names_offset(self):
        text = "prefix\n Force evaluation time GPU/CPU: 5,673 ms/8.301 ms = 0.683\n"
        with pytest.raises(LogParseError) as err:
            parse_gpu_cpu_ratio(text)
        assert err.value.offset == text.index(" Force") + 1

    def test_consistent_ratio_produces_no_warning(self, si_gpu_force):
        # 5.673/8.301 = 0.6834, printed 0.683: inside the 0.001 band
        metrics = parse_metrics(si_gpu_force)
        assert not any("integrity" in n.text for n in metrics.notes)

    def test_inconsistent_ratio_warns(self):
        text = " Force evaluation time GPU/CPU: 5.673 ms/8.301 ms = 0.700\n"
        metrics = parse_metrics(text)
        warnings = [n for n in metrics.notes if "integrity" in n.text]
        assert len(warnings) == 1
        assert "0.7" in warnings[0].text


class TestLoadBalanceTable:
    def test_si_block(self, si_load_balance):
        lb = parse_load_balance_table(si_load_balance)
        assert lb.initial.rcoulomb == 1.000
        assert lb.initial.rlist == 1.012
        assert lb.initial.grid == (240, 240, 240)
        assert lb.initial.spacing == 0.130
        assert lb.initial.inv_beta == 0.289
        assert lb.final.rcoulomb == 1.607
        assert lb.final.rlist == 1.619
        assert lb.final.grid == (144, 144, 144)
        assert lb.final.spacing == 0.217
        assert lb.final.inv_beta == 0.465
        assert lb.cost_ratio_pp == 4.10
        assert lb.cost_ratio_pme == 0.22
        assert lb.final.rcoulomb > lb.initial.rcoulomb  # balancing grew the cutoff

    def test_identity_block_accepted(self):
        text = (
            " PP/PME load balancing changed the cut-off and PME settings:\n"
            "           particle-particle                    PME\n"
            "            rcoulomb  rlist            grid      spacing   1/beta\n"
            "   initial  1.000 nm  1.012 nm     96 96 96   0.120 nm  0.289 nm\n"
            "   final    1.000 nm  1.012 nm     96 96 96   0.120 nm  0.289 nm\n"
            " cost-ratio           1.00             1.00\n"
        )
        lb = parse_load_balance_table(text)
        assert lb.cost_ratio_pp == 1.0
        assert lb.cost_ratio_pme == 1.0

    def test_cube_law_integrity_passes_on_si_block(self, si_load_balance):
        # (1.607/1.000)^3 = 4.15 against printed 4.10: within 2%
        metrics = parse_metrics(si_load_balance)
        assert not any("integrity" in n.text for n in metrics.notes)

    def test_cube_law_violation_warns(self, si_load_balance):
        text = si_load_balance.replace("cost-ratio           4.10", "cost-ratio           3.00")
        metrics = parse_metrics(text)
        assert any("integrity" in n.text for n in metrics.notes)

    def test_missing_final_row_raises(self, si_load_balance):
        text = si_load_balance.replace("   final ", "   fnal  ")
        with pytest.raises(LogParseError, match="final"):
            parse_load_balance_table(text)

    def test_missing_cost_row_raises(self, si_load_balance):
        text = si_load_balance.replace("cost-ratio", "costs")
        with pytest.raises(LogParseError, match="cost-ratio"):
            parse_load_balance_table(text)

    def test_absent_table(self):
        assert parse_load_balance_table("no table here") is None


class TestWholeNumberTokens:
    """A recognized number with a valid prefix and more after it is malformed,
    never silently cut to its prefix."""

    @pytest.mark.parametrize("token", ["1e3", "12.5.3", "26.0x", "-5"])
    def test_performance(self, token):
        with pytest.raises(LogParseError, match="performance"):
            parse_metrics(f" Performance:   {token}   0.923\n")

    @pytest.mark.parametrize("costs", ["4.10             0.22x", "4.10 2e3", "4.1.0 0.22"])
    def test_cost_ratio(self, si_load_balance, costs):
        text = si_load_balance.replace("4.10             0.22", costs)
        with pytest.raises(LogParseError, match="cost ratio"):
            parse_load_balance_table(text)


class TestValueOnTheKeywordsLine:
    """A keyword's value is read from its own line: a keyword with nothing
    after it (a log cut off mid-line) is not a metric line, and the next
    line's tokens are never taken for its value."""

    def test_bare_performance_before_a_full_line(self):
        assert parse_metrics(" Performance:\n Performance:     4.96\n").performance == 4.96

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_bare_performance_reads_nothing_below(self, eol):
        assert parse_metrics(f" Performance:{eol}{eol}   12.5 ns{eol}").performance is None

    def test_bare_pme_load_before_a_full_line(self):
        text = " Average PME mesh/force load:\n Average PME mesh/force load: 0.9\n"
        assert parse_pme_load(text) == (0.9, None)

    def test_bare_pme_load_reads_nothing_below(self):
        assert parse_pme_load(" Average PME mesh/force load:\n 0.9\n") is None

    def test_bare_cost_ratio_before_a_full_line(self, si_load_balance):
        text = si_load_balance.replace(" cost-ratio", " cost-ratio\n cost-ratio", 1)
        assert parse_load_balance_table(text) == parse_load_balance_table(si_load_balance)

    def test_cost_ratio_values_from_one_line(self, si_load_balance):
        text = si_load_balance.replace("4.10             0.22", "4.10\n 0.22")
        with pytest.raises(LogParseError, match="missing its 'cost-ratio' row"):
            parse_load_balance_table(text)

    def test_bare_pme_wait_reads_nothing_below(self):
        text = (" Average PME mesh/force load: 0.9\n"
                " spent waiting due to PP/PME imbalance:\n 5.0 %\n")
        assert parse_pme_load(text) == (0.9, None)

    def test_pme_wait_percent_sign_on_its_line(self):
        text = (" Average PME mesh/force load: 0.9\n"
                " spent waiting due to PP/PME imbalance: 5.0\n %\n")
        assert parse_pme_load(text) == (0.9, None)

    def test_table_row_values_from_one_line(self, si_load_balance):
        text = si_load_balance.replace("   final ", "   final\n", 1)
        assert "   final\n" in text
        with pytest.raises(LogParseError, match="missing its 'final' row"):
            parse_load_balance_table(text)

    # every line boundary of str.splitlines, not "\n" alone, ends the line
    @pytest.mark.parametrize("eol", ["\r", "\v", "\x0c", "\x1c", "\x85", "\u2028"])
    def test_performance_not_read_past_any_line_boundary(self, eol):
        assert parse_metrics(f" Performance:{eol}    5.0\n").performance is None

    @pytest.mark.parametrize("eol", ["\r", "\x0c", "\u2029"])
    def test_pme_load_not_read_past_any_line_boundary(self, eol):
        text = f" Average PME mesh/force load:{eol} 0.9\n Performance: 2.0\n"
        assert parse_pme_load(text) is None

    @pytest.mark.parametrize("eol", ["\r", "\v", "\x1e"])
    def test_gpu_cpu_values_not_read_past_any_line_boundary(self, eol):
        with pytest.raises(LogParseError, match="malformed GPU/CPU force time line"):
            parse_gpu_cpu_ratio(f" Force evaluation time GPU/CPU:{eol} 1.0 ms/2.0 ms = 0.5\n")

    def test_gpu_cpu_line_after_a_lone_cr_is_the_last(self):
        line = " Force evaluation time GPU/CPU: 1.0 ms/2.0 ms = {}"
        text = line.format("0.5") + "\r" + line.format("0.6") + "\n"
        assert parse_gpu_cpu_ratio(text) == GpuCpuRatio(1.0, 2.0, 0.6)

    def test_gpu_cpu_line_ending_in_crlf(self):
        text = " Force evaluation time GPU/CPU: 1.0 ms/2.0 ms = 0.5\r\n"
        assert parse_gpu_cpu_ratio(text) == GpuCpuRatio(1.0, 2.0, 0.5)

    @pytest.mark.parametrize("gap", ["\r", "\x0c"])
    def test_table_tokens_not_read_past_any_line_boundary(self, si_load_balance, gap):
        text = si_load_balance.replace("   final ", f"   final{gap}", 1)
        with pytest.raises(LogParseError, match="missing its 'final' row"):
            parse_load_balance_table(text)
        text = si_load_balance.replace("4.10             0.22", f"4.10{gap} 0.22")
        with pytest.raises(LogParseError, match="missing its 'cost-ratio' row"):
            parse_load_balance_table(text)

    def test_malformed_value_on_the_line_still_raises(self):
        with pytest.raises(LogParseError, match="malformed performance: '4,96'"):
            parse_metrics(" Performance:\n Performance:     4,96\n")


class TestOffsets:
    """LogParseError.offset points at the number that failed, in the line
    that failed: not at an earlier place where the same characters appear,
    and in a restarted log at the last copy, the one that is parsed."""

    WAIT = " Part of the total run time spent waiting due to PP/PME imbalance: {} %\n"

    def test_performance(self):
        text = "Step 1,5 of the run\n Performance:     1,5\n"
        with pytest.raises(LogParseError, match="performance") as err:
            parse_metrics(text)
        assert err.value.offset == 38 == text.rindex("1,5")

    def test_pme_load(self):
        copy = " Average PME mesh/force load: 0,625\n"
        text = copy + copy  # a restarted run: the last copy is the one parsed
        with pytest.raises(LogParseError, match="PME mesh/force load") as err:
            parse_pme_load(text)
        assert err.value.offset == text.rindex("0,625")

    def test_wait_percentage(self):
        text = " Wait 8,3 was seen\n Average PME mesh/force load: 0.625\n" + self.WAIT.format("8,3")
        with pytest.raises(LogParseError, match="wait percentage") as err:
            parse_pme_load(text)
        assert err.value.offset == text.rindex("8,3")

    @pytest.mark.parametrize("old, new, what", [("4.10", "4,10", "PP cost ratio"),
                                                ("0.22", "0,22", "PME cost ratio")])
    def test_cost_ratio(self, si_load_balance, old, new, what):
        copy = si_load_balance.replace(old, new)
        text = copy + copy
        with pytest.raises(LogParseError, match=what) as err:
            parse_load_balance_table(text)
        assert err.value.offset == text.rindex(new)

    def test_non_positive_performance(self):
        text = "\n\n Performance:     0.0\n"
        with pytest.raises(LogParseError, match="non-positive") as err:
            parse_metrics(text)
        assert err.value.offset == text.index("0.0")

    def test_a_character_offset_into_the_decoded_text(self):
        text = "NOTE: résumé ééé\n Performance:     1,5\n"
        with pytest.raises(LogParseError, match=r"\(character offset 35\)") as err:
            parse_metrics(text)
        assert text[err.value.offset:].startswith("1,5")
        assert len(text[:err.value.offset].encode()) == 40  # its UTF-8 byte offset

    def test_wait_value_read_from_its_own_line(self):
        # "\r" ends the wait line, as it does in the window of lines searched
        # for it: the 5.0 after it is not that line's value
        text = (" Average PME mesh/force load: 1.5\n" + self.WAIT.format("\r 5.0").rstrip("\n")
                + "\n" + self.WAIT.format("1.5"))
        assert parse_pme_load(text) == (1.5, 1.5)

    def test_wait_out_of_range(self):
        text = " Average PME mesh/force load: 0.625\n" + self.WAIT.format("150")
        with pytest.raises(LogParseError, match="outside") as err:
            parse_pme_load(text)
        assert err.value.offset == text.index("150")

    HUGE = "9" * 400  # matches NUMBER, but float() of it is inf

    @pytest.mark.parametrize("old, what", [
        ("4.960", "performance"),
        ("1.607", "rcoulomb"),
        ("1.012", "rlist"),
        ("0.217", "spacing"),
        ("0.289", "1/beta"),
        ("4.10", "PP cost ratio"),
    ])
    def test_number_that_overflows_a_float(self, si_load_balance, old, what):
        text = si_load_balance.replace(old, self.HUGE)
        with pytest.raises(LogParseError, match=f"{what} overflows a float") as err:
            parse_metrics(text)
        assert err.value.offset == text.index(self.HUGE)

    @pytest.mark.parametrize("line, what", [
        (" Average PME mesh/force load: {}\n", "PME mesh/force load"),
        (" Force evaluation time GPU/CPU: {} ms/8.301 ms = 0.683\n", "GPU force time"),
        (" Force evaluation time GPU/CPU: 5.673 ms/{} ms = 0.683\n", "CPU force time"),
        (" Force evaluation time GPU/CPU: 5.673 ms/8.301 ms = {}\n", "GPU/CPU ratio"),
    ])
    def test_line_number_that_overflows_a_float(self, line, what):
        text = "Log\n" + line.format(self.HUGE)
        with pytest.raises(LogParseError, match=f"{what} overflows a float") as err:
            parse_metrics(text)
        assert err.value.offset == text.index(self.HUGE)

    LONG = "1" * 5000  # more digits than int() converts (4300 by default)

    def test_grid_count_too_long_for_an_int(self, si_load_balance):
        # int() raised a bare ValueError out of parse_metrics
        text = si_load_balance.replace("144 144 144", f"144 {self.LONG} 144")
        with pytest.raises(LogParseError, match="PME grid has too many digits") as err:
            parse_metrics(text)
        assert err.value.offset == text.index(self.LONG)

    FINAL_ROW = "final    1.607 nm  1.619 nm     144 144 144   0.217 nm  0.465 nm"

    @pytest.mark.parametrize("row, what, bad", [
        (f"final    1.607 nm  {HUGE} nm     144 144 144   {HUGE} nm  0.465 nm",
         "rlist overflows a float", HUGE),
        (f"final    1.607 nm  1.619 nm     144 {LONG} 144   0.217 nm  {HUGE} nm",
         "PME grid has too many digits", LONG),
    ], ids=["rlist_and_spacing", "grid_and_inv_beta"])
    def test_first_bad_table_number_in_field_order_named(self, si_load_balance, row, what,
                                                          bad):
        text = si_load_balance.replace(self.FINAL_ROW, row)
        with pytest.raises(LogParseError, match=f"^{what}: ") as err:
            parse_metrics(text)
        assert err.value.offset == text.index(bad)

    def test_first_bad_gpu_cpu_number_in_field_order_named(self):
        text = f"Log\n Force evaluation time GPU/CPU: {self.HUGE} ms/8.301 ms = {self.HUGE}\n"
        with pytest.raises(LogParseError, match="^GPU force time overflows a float: ") as err:
            parse_metrics(text)
        assert err.value.offset == text.index(self.HUGE)

    @pytest.mark.parametrize("digits", ["\u0661\u0664\u0664", "\uff11\uff14\uff14"])
    def test_grid_count_of_other_than_ascii_digits_not_read(self, si_load_balance, digits):
        # \d took them, and int() read each as 144
        text = si_load_balance.replace("144 144 144", f"{digits} 144 144")
        with pytest.raises(LogParseError, match="missing its 'final' row"):
            parse_metrics(text)


class TestAdvisories:
    def test_pme_note_classified(self, si_pme_imbalance):
        notes = parse_advisories(si_pme_imbalance)
        assert len(notes) == 1
        assert notes[0].kind == ADVISORY_PME_OVERPROVISIONED
        assert notes[0].text.startswith("NOTE: 8.3 % performance was lost")
        assert "had less work to do than the PP nodes." in notes[0].text

    def test_gpu_note_classified(self, si_gpu_force):
        notes = parse_advisories(si_gpu_force)
        assert len(notes) == 1
        assert notes[0].kind == ADVISORY_GPU_UNDERUTILIZED
        assert "performance loss" in notes[0].text

    def test_no_notes(self, si_pme_balanced):
        assert parse_advisories(si_pme_balanced) == []

    def test_unrecognized_note_is_other(self):
        notes = parse_advisories("NOTE: affinity setting failed\n")
        assert notes[0].kind == ADVISORY_OTHER


class TestParseMetrics:
    def test_full_log(self, si_pme_imbalance):
        metrics = parse_metrics(si_pme_imbalance)
        assert metrics.performance == 20.0
        assert metrics.pme_mesh_force_load == 0.625
        assert metrics.pp_pme_wait_pct == 8.3
        assert metrics.gpu_cpu is None
        assert [n.kind for n in metrics.notes] == [ADVISORY_PME_OVERPROVISIONED]

    def test_noise_insensitive(self, si_gpu_force):
        noisy = []
        for i, line in enumerate(si_gpu_force.splitlines()):
            noisy.append(f"step {i} energies: -1.23e+05 4.56")
            noisy.append(line)
            noisy.append("Writing checkpoint, step 1234 at Mon Jan 1 00:00:00 2014")
        metrics = parse_metrics("\n".join(noisy))
        assert metrics.gpu_cpu == GpuCpuRatio(5.673, 8.301, 0.683)
        assert metrics.performance == 30.303


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(
        performance=plain_floats,
        load=st.one_of(st.none(), plain_floats),
        wait=st.one_of(st.none(), st.floats(min_value=0, max_value=100,
                                            allow_nan=False)),
        gpu_ms=st.one_of(st.none(), plain_floats),
    )
    def test_random_metrics_round_trip(self, performance, load, wait, gpu_ms):
        metrics = PerfMetrics(
            performance=performance,
            pme_mesh_force_load=load,
            pp_pme_wait_pct=wait if load is not None else None,
            gpu_cpu=(GpuCpuRatio(gpu_ms=gpu_ms, cpu_ms=2 * gpu_ms, ratio=0.5)
                     if gpu_ms is not None else None),
        )
        text = render_log(metrics)
        # the synthetic executor renders a DLB pair's body once and appends
        # each config's own Performance section
        assert (render_log(metrics._replace(performance=None)) + render_performance(performance)
                == text)
        parsed = parse_metrics(text)
        assert parsed.performance == metrics.performance
        assert parsed.pme_mesh_force_load == metrics.pme_mesh_force_load
        if load is not None:
            assert parsed.pp_pme_wait_pct == metrics.pp_pme_wait_pct
        assert parsed.gpu_cpu == metrics.gpu_cpu

    @pytest.mark.parametrize("name", ["si_pme_imbalance.log", "si_pme_balanced.log",
                                      "si_gpu_force.log", "si_load_balance.log"])
    def test_body_and_performance_section_make_the_log(self, name):
        metrics = parse_metrics(read_log(name))
        body = render_log(metrics._replace(performance=None))
        assert body + render_performance(metrics.performance) == render_log(metrics)
        assert body.endswith("\n\n") and "Performance:" not in body

    def test_load_balance_round_trip(self):
        lb = ParsedLoadBalance(
            initial=CutoffSetting(1.0, 1.012, (240, 240, 240), 0.13, 0.289),
            final=CutoffSetting(1.607, 1.619, (144, 144, 144), 0.217, 0.465),
            cost_ratio_pp=4.1, cost_ratio_pme=0.22,
        )
        metrics = PerfMetrics(performance=4.96, load_balance=lb)
        text = render_log(metrics)
        assert ("   initial  1.0 nm  1.012 nm     240 240 240   0.13 nm  0.289 nm\n"
                "   final    1.607 nm  1.619 nm     144 144 144   0.217 nm  0.465 nm\n") in text
        assert parse_metrics(text).load_balance == lb

    def test_notes_round_trip(self, si_pme_imbalance):
        metrics = parse_metrics(si_pme_imbalance)
        parsed = parse_metrics(render_log(metrics))
        assert [n.kind for n in parsed.notes] == [n.kind for n in metrics.notes]


class TestSerialization:
    def test_json_fields(self, si_load_balance):
        doc = metrics_to_json(parse_metrics(si_load_balance))
        assert doc["load_balance"]["final"]["grid"] == [144, 144, 144]
        assert doc["load_balance"]["cost_ratio_pme"] == 0.22
        assert doc["performance_ns_day"] == 4.96

    def test_csv_row(self, si_gpu_force):
        [row] = csv.DictReader(io.StringIO(metrics_csv([parse_metrics(si_gpu_force)])))
        assert row["gpu_cpu_ratio"] == "0.683"
        assert row["final_rcoulomb_nm"] == ""  # no load-balance table in this log
        assert row["advisories"] == ADVISORY_GPU_UNDERUTILIZED

    def test_csv_table(self, si_pme_imbalance, si_pme_balanced):
        text = metrics_csv([parse_metrics(si_pme_imbalance),
                            parse_metrics(si_pme_balanced)])
        lines = text.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("performance_ns_day,")
