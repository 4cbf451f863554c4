import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnifkit.cli import COMMANDS, _formatter, main, parse_args, round_away
from cnifkit.reference import TABLE4_DIVERGENT_CELLS, bundled_fixture_path
from test_cli_golden import journal_csv


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


HEADER = "id,name,categories,items_t,items_t1,items_t2,cited_in_window,refs_total,refs_jcr,refs_jcr_in_window"

SAMPLE = HEADER + "\n" + "\n".join(
    [
        "j1,Alpha,A;B,10,12,11,46,400,300,60",
        "j2,Beta,A,8,9,10,19,350,280,40",
        "j3,Gamma,B,6,7,8,90,500,450,75",
        "j4,Delta,B,5,6,7,13,200,150,30",
    ]
) + "\n"


@pytest.fixture
def sample_csv(tmp_path):
    path = tmp_path / "journals.csv"
    path.write_text(SAMPLE)
    return str(path)


class TestRounding:
    def test_half_away_positive(self):
        assert round_away(0.6545, 3) == 0.655
        assert round_away(2.5, 0) == 3.0

    def test_half_away_negative(self):
        assert round_away(-2.5, 0) == -3.0
        assert round_away(-0.1235, 3) == -0.124


NEAR_2_63 = st.integers(2**63 - 2**20, 2**63 - 1)


@st.composite
def rounding_cases(draw) -> tuple[float, int]:
    """A float and a --digits value: any finite float, the smallest ones,
    exact and inexact half ties at the scale, and ratios of counts near 2**63."""
    digits = draw(st.integers(0, 17))
    kind = draw(st.sampled_from(["any", "special", "exact tie", "near tie", "ratio"]))
    if kind == "any":
        x = draw(st.floats(allow_nan=False, allow_infinity=False))
    elif kind == "special":
        x = draw(st.sampled_from([0.0, 5e-324, 0.5, 2.5, 1 / 3, 0.0005, 1e-17, 1e17]))
    elif kind == "exact tie":  # x * 10**digits is exactly k + 0.5
        x = (2 * draw(st.integers(0, 2000)) + 1) / 2 ** (digits + 1)
    elif kind == "near tie":  # (k + 0.5) / 10**digits, rounded to the nearest float
        x = (draw(st.integers(0, 10**6)) + 0.5) / 10**digits
    else:  # an IF or a CNIF of counts below 2**63
        x = draw(NEAR_2_63 | st.integers(0, 10**6)) / draw(NEAR_2_63 | st.integers(1, 10**6))
    return (-x if draw(st.booleans()) else x), digits


def rounded_text(compute):
    """The text, or the type of the error, as for a float too large to scale."""
    try:
        return compute()
    except OverflowError as exc:
        return type(exc)


@settings(max_examples=600, deadline=None)
@given(rounding_cases())
def test_formatter_matches_round_away(case):
    x, digits = case
    fmt = _formatter(digits)
    expected = rounded_text(lambda: f"{round_away(x, digits):.{digits}f}")
    assert rounded_text(lambda: fmt(x)) == expected
    assert fmt(None) == ""


class TestExitCodes:
    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, sample_csv, capsys):
        assert main(["rank", "--input", sample_csv, "--bogus"]) == 2
        capsys.readouterr()

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["indicators", "--input", "/nonexistent/x.csv"]) == 2
        assert "file not found" in capsys.readouterr().err

    def test_malformed_csv_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,name\nj1,J\n")
        assert main(["indicators", "--input", str(bad)]) == 2
        assert "bad header" in capsys.readouterr().err

    def test_validation_failure_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "v.csv"
        path.write_text(HEADER + "\nj1,J,A,1,1,1,1,10,20,5\n")  # refs_jcr > refs_total
        assert main(["validate", "--input", str(path)]) == 1
        assert "refs_jcr exceeds refs_total" in capsys.readouterr().out

    @pytest.mark.parametrize("digits", ["-1", "x"])
    def test_bad_digits_is_usage_error(self, sample_csv, digits, capsys):
        assert main(["cnif", "--input", sample_csv, "--digits", digits]) == 2
        rule = "not an integer: 'x'" if digits == "x" else "must be a non-negative integer, got -1"
        assert capsys.readouterr().err.endswith(f"error: argument --digits: {rule}\n")

    @pytest.mark.parametrize(
        "command", [c for c in COMMANDS if "--digits" in c.extra], ids=lambda c: c.name
    )
    def test_digits_above_17_is_usage_error(self, command, sample_csv, tmp_path, capsys):
        # 309 decimals once overflowed round_away's 10**digits with a traceback
        argv = command.name.split() + (["--input", sample_csv] if command.source == "--input" else [])
        out = tmp_path / "out"
        assert main(argv + ["--digits", "17", "--format", "json", "--out", str(out)]) == 0
        for path in tmp_path.glob("out*"):
            path.unlink()
        assert main(argv + ["--digits", "309", "--format", "json", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.endswith("error: argument --digits: must be at most 17, got 309\n")
        assert list(tmp_path.glob("out*")) == []

    def test_zero_digits_accepted(self, sample_csv, capsys):
        assert main(["cnif", "--input", sample_csv, "--digits", "0"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "j1,2,2,2,1,2"

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c.name)
    def test_digits_only_where_it_formats(self, command, sample_csv, tmp_path, capsys):
        argv = command.name.split() + (["--input", sample_csv] if command.source == "--input" else [])
        out = tmp_path / "out"
        if "--digits" in command.extra:
            written = []
            for digits in ("0", "5"):
                assert main(argv + ["--digits", digits, "--out", str(out)]) == 0
                written.append(out.read_bytes())
            assert written[0] != written[1]
        else:  # the command prints fixed precisions, so it refuses the flag
            assert main(argv + ["--digits", "3", "--out", str(out)]) == 2
            assert "unrecognized arguments: --digits 3" in capsys.readouterr().err
            assert list(tmp_path.glob("out*")) == []

    @staticmethod
    def run_module(module):
        return subprocess.run(
            [sys.executable, "-m", module, "validate", "--input", "/nonexistent/x.csv"],
            env=src_env(),
            capture_output=True,
            text=True,
        )

    def test_module_entry_runs_main(self):
        proc = self.run_module("cnifkit.cli")
        assert proc.returncode == 2
        assert "file not found" in proc.stderr

    def test_package_entry_runs_main(self):
        proc = self.run_module("cnifkit")
        assert proc.returncode == 2
        assert "file not found" in proc.stderr

    @pytest.mark.parametrize(
        "command", [["stats", "cluster", "--edition", "science", "--k", "3"], ["reproduce-table1"]]
    )
    def test_repeated_fixture_code_is_usage_error(self, command, tmp_path, capsys):
        text = Path(bundled_fixture_path()).read_text(encoding="utf-8")
        assert text.splitlines()[2].startswith("S2,")
        fixture = tmp_path / "fixture.csv"
        fixture.write_text(text.replace("\nS2,", "\nS1,", 1), encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(command + ["--fixture", str(fixture), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: line 3: duplicate category code: S1\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "NaN"])
    @pytest.mark.parametrize(
        "command", [["stats", "cluster"], ["stats", "corr"], ["stats", "hist"], ["reproduce-table1"]]
    )
    def test_non_finite_fixture_value_is_usage_error(self, command, value, tmp_path, capsys):
        text = Path(bundled_fixture_path()).read_text(encoding="utf-8")
        s5 = "\nS5,\"AGR, MULTIDISCIPL\",science,140735,193124,15625,23783,0.63,"
        assert text.splitlines()[5].startswith(s5[1:])
        fixture = tmp_path / "fixture.csv"
        fixture.write_text(text.replace(s5, s5[:-5] + value + ","), encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(command + ["--fixture", str(fixture), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: line 6: bad value in a: {value!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("column, value", [("p", "1.5"), ("w", "-0.1")])
    @pytest.mark.parametrize(
        "command",
        [c.name.split() for c in COMMANDS if c.source == "--fixture"],
        ids=" ".join,
    )
    def test_printed_share_outside_unit_interval_is_usage_error(
        self, command, column, value, tmp_path, capsys
    ):
        lines = Path(bundled_fixture_path()).read_text(encoding="utf-8").splitlines()
        header, row = next(csv.reader(lines[:1])), next(csv.reader(lines[5:6]))
        assert row[0] == "S5"
        row[header.index(column)] = value
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow(row)
        lines[5] = buf.getvalue()
        fixture = tmp_path / "fixture.csv"
        fixture.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(command + ["--fixture", str(fixture), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: line 6: S5: printed_{column} outside [0,1]\n"
        assert list(tmp_path.glob("out*")) == []

    @pytest.mark.filterwarnings("error")  # an overflow warning fails the test
    @pytest.mark.parametrize("value", ["1e200", "1.7e308", "-1.7e308"])
    @pytest.mark.parametrize(
        "command, message",
        [
            (["stats", "hist"], "degenerate sample: non-finite or zero standard deviation"),
            (["stats", "corr"], "column a has non-finite or zero variance"),
            (["stats", "cluster"], "cannot standardize a non-finite or zero-variance column"),
            (["stats", "ks"], "degenerate sample: non-finite or zero standard deviation"),
        ],
        ids=["hist", "corr", "cluster", "ks"],
    )
    def test_huge_fixture_value_is_data_error(self, command, message, value, tmp_path, capsys):
        text = Path(bundled_fixture_path()).read_text(encoding="utf-8")
        s5 = "\nS5,\"AGR, MULTIDISCIPL\",science,140735,193124,15625,23783,0.63,"
        fixture = tmp_path / "fixture.csv"
        fixture.write_text(text.replace(s5, s5[:-5] + value + ","), encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(command + ["--fixture", str(fixture), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["decompose"], ["reproduce-table1"]])
    def test_fixture_row_with_zero_references_is_data_error(self, command, tmp_path, capsys):
        # p, w and b of a fixture row and of a category aggregate share one check
        header = Path(bundled_fixture_path()).read_text(encoding="utf-8").splitlines()[0]
        fixture = tmp_path / "fixture.csv"
        fixture.write_text(f"{header}\nX,Zero references,science,0,0,0,0{',-' * 6}\n")
        out = tmp_path / "out.csv"
        assert main(command + ["--fixture", str(fixture), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: category X: zero references block component p\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "items, message",
        [
            ("0,12,11", "zero census items block component r"),
            ("10,0,0", "zero item total blocks component a"),
        ],
        ids=["census", "window"],
    )
    def test_category_with_zero_items_is_data_error(self, items, message, tmp_path, capsys):
        path = tmp_path / "journals.csv"
        path.write_text(f"{HEADER}\nj1,Alpha,S1,{items},46,400,300,60\nj2,Beta,S2,8,9,10,19,350,280,40\n")
        out = tmp_path / "out.csv"
        assert main(["decompose", "--input", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: category S1: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["validate"], ["cnif"], ["indicators"], ["gap"]])
    def test_count_of_2_63_or_more_is_usage_error(self, command, tmp_path, capsys):
        # a 400-digit count once passed validate and overflowed IF and AIF
        path = tmp_path / "journals.csv"
        path.write_text(SAMPLE.replace("j3,Gamma,B,6,7,8,90,", "j3,Gamma,B,6,7,8," + "9" * 400 + ","))
        out = tmp_path / "out.csv"
        assert main(command + ["--input", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: line 4: count in cited_in_window is 2**63 or more\n"
        assert not out.exists()
        path.write_text(SAMPLE.replace("j3,Gamma,B,6,7,8,90,", f"j3,Gamma,B,6,7,8,{2**63 - 1},"))
        assert main(command + ["--input", str(path), "--out", str(out)]) == 0

    @pytest.mark.parametrize("command", [["decompose"], ["reproduce-table1"]])
    def test_fixture_count_of_2_63_or_more_is_usage_error(self, command, tmp_path, capsys):
        text = Path(bundled_fixture_path()).read_text(encoding="utf-8")
        s5 = "\nS5,\"AGR, MULTIDISCIPL\",science,140735,193124,15625,"
        assert s5 in text
        fixture = tmp_path / "fixture.csv"
        fixture.write_text(text.replace(s5, s5[:-6] + "9" * 400 + ","), encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(command + ["--fixture", str(fixture), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: line 6: count in ncited is 2**63 or more\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")  # an overflow warning fails the test
    def test_overflowing_correlation_is_data_error(self, tmp_path, capsys):
        # each sd is finite (about 7e98), but their product of sums of squares is not
        text = Path(bundled_fixture_path()).read_text(encoding="utf-8")
        s5 = "\nS5,\"AGR, MULTIDISCIPL\",science,140735,193124,15625,23783,0.63,32.96,"
        assert s5 in text
        fixture = tmp_path / "fixture.csv"
        fixture.write_text(text.replace(s5, s5[:-11] + "1e100,1e100,"), encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["stats", "corr", "--fixture", str(fixture), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: correlation of a and r overflows\n"
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["0", "-1", "1", "1.5", "inf", "nan", "x"])
    def test_alpha_outside_unit_interval_is_usage_error(self, alpha, tmp_path, capsys):
        out = tmp_path / "k.csv"
        assert main(["stats", "ks", "--alpha", alpha, "--out", str(out)]) == 2
        rule = f"not a number: {alpha!r}" if alpha in ("nan", "x") else "must lie strictly between 0 and 1"
        assert f"error: argument --alpha: {rule}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["5e-324", "3e-324"])
    def test_alpha_whose_half_underflows_is_usage_error(self, alpha, tmp_path, capsys):
        # alpha / 2 == 0 once failed inside log() as "error: math domain error"
        out = tmp_path / "k.csv"
        assert main(["stats", "ks", "--alpha", alpha, "--out", str(out)]) == 2
        rule = f"too small: alpha / 2 underflows to 0, got {alpha}"
        assert f"error: argument --alpha: {rule}" in capsys.readouterr().err
        assert not out.exists()
        assert main(["stats", "ks", "--alpha", "1e-323", "--out", str(out)]) == 0

    def test_lilliefors_alpha_without_coefficient_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "k.csv"
        assert main(["stats", "ks", "--lilliefors", "--alpha", "0.2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: no Lilliefors coefficient for alpha=0.2\n"
        assert not out.exists()

    @pytest.mark.parametrize("height", ["nan", "NaN", "x"])
    def test_nan_height_is_usage_error(self, height, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert main(["stats", "cluster", "--height", height, "--out", str(out)]) == 2
        assert f"error: argument --height: not a number: {height!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_infinite_height_merges_everything(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["stats", "cluster", "--edition", "social", "--height", "inf", "--out", str(out)]) == 0
        rows = list(csv.DictReader(Path(f"{out}.clusters").read_text(encoding="utf-8").splitlines()))
        assert len(rows) == 55 and {r["cluster"] for r in rows} == {"0"}

    @pytest.mark.parametrize(
        "cut, message",
        [
            (["--k", "0"], "k must lie in [1, 55], got 0"),
            (["--k", "2", "--height", "1"], "give exactly one of k or height"),
        ],
        ids=["k-out-of-range", "k-and-height"],
    )
    def test_failed_cluster_cut_writes_no_file(self, cut, message, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert main(["stats", "cluster", "--edition", "social", *cut, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_directory_input_is_usage_error(self, tmp_path, capsys):
        assert main(["validate", "--input", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"

    def test_directory_out_is_usage_error(self, sample_csv, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert main(["cnif", "--input", sample_csv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {out}: Is a directory\n"
        assert list(out.iterdir()) == []

    def test_unwritable_side_file_removes_main_output(self, sample_csv, tmp_path, capsys):
        out = tmp_path / "g.csv"
        (tmp_path / "g.csv.summary").mkdir()
        assert main(["gap", "--input", sample_csv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {out}.summary: Is a directory\n"
        assert not out.exists()

    def test_closed_stdout_pipe_ends_quietly(self, tmp_path):
        # as `| head -1`: the output is larger than a pipe holds, so the writer
        # meets the closed pipe; the command keeps its own exit code
        rows = [f"j{i},J,A,1,2,3,4,10,20,5" for i in range(10000)]  # refs_jcr > refs_total
        bad = tmp_path / "bad.csv"
        bad.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
        good = tmp_path / "good.csv"
        good.write_text(HEADER + "\n" + "\n".join(r[: -len("10,20,5")] + ",," for r in rows) + "\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        paths = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        for command, code, unbuffered in [
            (["validate", "--input", str(bad)], 1, "1"),
            (["rank", "--input", str(good)], 0, ""),
        ]:
            with subprocess.Popen(
                [sys.executable, "-m", "cnifkit", *command],
                env=dict(env, PYTHONUNBUFFERED=unbuffered),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            ) as proc:
                assert proc.stdout.readline()
                proc.stdout.close()
                assert proc.wait(timeout=60) == code
                assert proc.stderr.read() == b""

    @pytest.mark.parametrize("line", [2, 500])
    def test_non_utf8_byte_is_usage_error_at_its_line(self, line, tmp_path, capsys):
        rows = [f"j{i},Journal {i},A,1,2,3,4,,," for i in range(1, 600)]
        rows[line - 2] = rows[line - 2].replace("Journal", "Caf\xe9")
        path = tmp_path / "latin1.csv"
        path.write_bytes((HEADER + "\n" + "\n".join(rows) + "\n").encode("latin-1"))
        assert path.stat().st_size > 8192  # more than one decode chunk
        for command in (["validate"], ["cnif"]):
            assert main(command + ["--input", str(path)]) == 2
            err = capsys.readouterr().err
            assert err == f"error: line {line}: byte 0xe9 is not UTF-8 (invalid continuation byte)\n"

    def test_clean_validation_exits_zero(self, sample_csv, capsys):
        assert main(["validate", "--input", sample_csv]) == 0
        capsys.readouterr()


class TestCommands:
    def test_indicators_csv(self, sample_csv, tmp_path):
        out = tmp_path / "ind.csv"
        assert main(["indicators", "--input", sample_csv, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("category,journals,aif")
        by_cat = {l.split(",")[0]: l.split(",") for l in lines[1:]}
        # category A: (46+19)/(12+9+11+10) = 65/42
        assert float(by_cat["A"][2]) == pytest.approx(65 / 42, abs=5e-4)

    def test_indicators_writes_undefined_cells_empty(self, tmp_path):
        # Z's only journal has no target-window items and no reference counts,
        # so Z's AIF and all five components are undefined
        path = tmp_path / "zero.csv"
        path.write_text(SAMPLE + "z1,Zero window,Z,5,0,0,0,,,\n")
        out = tmp_path / "ind"
        assert main(["indicators", "--input", str(path), "--out", str(out)]) == 0
        assert "Z,1,,,,,,,1" in out.read_text().splitlines()
        argv = ["indicators", "--input", str(path), "--format", "json", "--out", str(out)]
        assert main(argv) == 0
        row = next(r for r in json.loads(out.read_text()) if r["category"] == "Z")
        undefined = dict.fromkeys(["aif", "a", "r", "p", "w", "b"], "")
        assert row == {"category": "Z", "journals": 1, **undefined, "reference_exclusions": 1}

    def test_cnif_preserves_if_order_within_category(self, sample_csv, tmp_path):
        out = tmp_path / "c.json"
        assert main(["cnif", "--input", sample_csv, "--format", "json", "--out", str(out)]) == 0
        rows = {r["journal_id"]: r for r in json.loads(out.read_text())}
        assert float(rows["j3"]["cnif"]) > float(rows["j4"]["cnif"])

    def test_rank_competition_percentiles(self, sample_csv, tmp_path):
        out = tmp_path / "r.json"
        assert main(["rank", "--input", sample_csv, "--format", "json", "--out", str(out)]) == 0
        rows = [r for r in json.loads(out.read_text()) if r["category"] == "B"]
        assert [r["journal_id"] for r in rows] == ["j3", "j1", "j4"]
        assert [r["rank"] for r in rows] == [1, 2, 3]

    def test_gap_writes_summary_file(self, sample_csv, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["gap", "--input", sample_csv, "--out", str(out)]) == 0
        assert out.exists()
        summary = (tmp_path / "g.csv.summary").read_text()
        assert summary.startswith("journal_count,")
        body = out.read_text().splitlines()
        assert body[1].split(",")[0] == "j1"  # only multi-category journal

    # every command that reads a journal CSV, as argv without --input
    JOURNAL_COMMANDS = (
        ["validate"],
        ["indicators"],
        ["decompose"],
        ["cnif"],
        ["rank", "--scorer", "if"],
        ["rank", "--scorer", "cnif"],
        ["gap"],
    )

    @pytest.mark.parametrize("argv", JOURNAL_COMMANDS, ids=" ".join)
    def test_csv_header_names_the_json_keys_and_is_written_without_rows(self, argv, tmp_path):
        full, empty = tmp_path / "full.csv", tmp_path / "empty.csv"
        # validate reports a row only for a broken rule: refs_jcr > refs_total
        full.write_text(HEADER + "\nj1,J,A,1,1,1,1,10,20,5\n" if argv == ["validate"] else SAMPLE)
        empty.write_text(HEADER + "\n")

        def run(source, fmt) -> dict[str, str]:
            """Each output's text by its --out suffix."""
            out = tmp_path / "out"
            code = main([*argv, "--input", str(source), "--format", fmt, "--out", str(out)])
            assert code == (1 if source == full and argv == ["validate"] else 0)
            outputs = {p.name[len("out") :]: p.read_text() for p in tmp_path.glob("out*")}
            for path in tmp_path.glob("out*"):
                path.unlink()
            return outputs

        full_json, full_csv = run(full, "json"), run(full, "csv")
        empty_json, empty_csv = run(empty, "json"), run(empty, "csv")
        suffixes = {"", ".summary"} if argv == ["gap"] else {""}
        assert full_json.keys() == full_csv.keys() == empty_json.keys() == empty_csv.keys() == suffixes
        for suffix in suffixes:
            rows = json.loads(full_json[suffix])
            assert rows
            header = ",".join(rows[0]) + "\n"
            assert full_csv[suffix].startswith(header)
            if suffix == ".summary":  # one row at any size: the count and its measures
                assert empty_csv[suffix].startswith(header)
                assert json.loads(empty_json[suffix])[0]["journal_count"] == 0
            else:
                assert empty_csv[suffix] == header
                assert empty_json[suffix] == "[]\n"

    def test_decompose_fixture_anchor(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["decompose", "--edition", "science", "--digits", "2", "--out", str(out)]) == 0
        rows = {l.split(",")[0]: l.split(",") for l in out.read_text().splitlines()[1:]}
        assert rows["S1"][1:] == ["0.79", "0.15", "0.90"]

    def test_stats_corr_science(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["stats", "corr", "--edition", "science", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",a,r,p,w,b"
        p_row = lines[3].split(",")
        assert float(p_row[5]) == pytest.approx(0.55, abs=0.06)  # corr(p, b)

    def test_stats_pca_shares_sum_to_one(self, tmp_path):
        out = tmp_path / "p.json"
        assert main(["stats", "pca", "--edition", "social", "--out", str(out)]) == 0
        report = json.loads(out.read_text())[0]
        assert sum(report["attributed_shares"].values()) == pytest.approx(1.0, abs=1e-4)

    def test_stats_ks_runs_all_components(self, tmp_path):
        out = tmp_path / "k.json"
        assert main(["stats", "ks", "--edition", "science", "--format", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert {r["component"] for r in rows} == {"a", "r", "p", "w", "b"}

    def test_stats_hist_reports_dropped(self, tmp_path):
        out = tmp_path / "h.json"
        assert main(["stats", "hist", "--edition", "science", "--format", "json", "--out", str(out)]) == 0
        rows = {r["component"]: r for r in json.loads(out.read_text())}
        assert rows["a"]["dropped"] == 2
        assert rows["b"]["dropped"] == 0

    def test_stats_cluster_writes_cut_file(self, tmp_path):
        out = tmp_path / "cl.csv"
        code = main(["stats", "cluster", "--edition", "social", "--k", "3", "--out", str(out)])
        assert code == 0
        merges = out.read_text().splitlines()
        assert len(merges) - 1 == 54  # 55 complete social categories -> 54 merges
        clusters = (tmp_path / "cl.csv.clusters").read_text().splitlines()
        assert len(clusters) - 1 == 55


class TestByteOrderMark:
    # Excel writes UTF-8 CSV with a byte-order mark and CRLF line ends
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize(
        "command",
        [["validate", "--input"], ["cnif", "--input"], ["reproduce-table1", "--fixture"]],
        ids=lambda c: c[0],
    )
    def test_bom_input_gives_identical_output(self, sample_csv, tmp_path, command, newline):
        plain = bundled_fixture_path() if command[-1] == "--fixture" else sample_csv
        text = Path(plain).read_text(encoding="utf-8")
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + text.replace("\n", newline).encode("utf-8"))
        outputs = []
        for path in (plain, bom):
            out = tmp_path / "out.csv"
            assert main(command + [str(path), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestReproduction:
    def test_table1_passes(self, tmp_path):
        out = tmp_path / "t1.csv"
        assert main(["reproduce-table1", "--out", str(out)]) == 0
        assert "0 mismatches / 230 rows" in out.read_text()

    def test_table1_marks_an_absent_printed_share(self, tmp_path):
        # the bundled table prints every p, w and b; S2's p printed as "-" here
        lines = Path(bundled_fixture_path()).read_text(encoding="utf-8").splitlines()[:3]
        assert lines[2].startswith("S2,") and ",38.94,0.59," in lines[2]
        fixture = tmp_path / "fixture.csv"
        fixture.write_text("\n".join([*lines[:2], lines[2].replace(",38.94,0.59,", ",38.94,-,")]) + "\n")
        out = tmp_path / "t1.csv"
        assert main(["reproduce-table1", "--fixture", str(fixture), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[2] == "S2,absent,0.22,0.45,ok"

    def test_table3_passes(self, tmp_path):
        out = tmp_path / "t3.csv"
        assert main(["reproduce-table3", "--out", str(out)]) == 0
        assert "MISMATCH" not in out.read_text()

    def test_table3_computes_one_correlation_matrix_per_edition(self, tmp_path, monkeypatch):
        from cnifkit import stats

        calls = []
        real = stats.correlation_matrix
        monkeypatch.setattr(stats, "correlation_matrix", lambda columns: calls.append(1) or real(columns))
        assert main(["reproduce-table3", "--out", str(tmp_path / "t3.csv")]) == 0
        assert len(calls) == 2  # science and social; the PCA reuses each matrix

    def test_table4_reports_known_divergences(self, tmp_path):
        # the bundled table cannot reproduce 7 published coverage cells (see
        # acceptance criterion 7); the command must mark exactly those cells
        # and exit nonzero
        out = tmp_path / "t4.csv"
        assert main(["reproduce-table4", "--out", str(out)]) == 1
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 30
        mismatches = {
            (r["edition"], r["component"], r["band"]) for r in rows if r["status"] == "MISMATCH"
        }
        assert mismatches == TABLE4_DIVERGENT_CELLS


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, sample_csv, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            assert main(["rank", "--input", sample_csv, "--out", str(target)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fixture_pipeline_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            assert main(["stats", "pca", "--edition", "science", "--out", str(target)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @settings(max_examples=25, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_row_order_does_not_change_output(self, rnd):
        rows = []
        for i in range(rnd.randint(1, 30)):
            cats = ";".join(rnd.sample("ABCDE", rnd.randint(1, 3)))
            # small counts make tied scores; every IF, AIF and component stays defined
            counts = [rnd.randint(1, 9), rnd.randint(1, 5), rnd.randint(1, 5), rnd.randint(1, 20)]
            refs_total = rnd.randint(1, 50)
            refs_jcr = rnd.randint(1, refs_total)
            refs = [refs_total, refs_jcr, rnd.randint(1, refs_jcr)]
            rows.append(",".join(map(str, [f"j{i:02d}", f"J{i}", cats, *counts, *refs])))
        shuffled = rows[:]
        rnd.shuffle(shuffled)
        commands = [
            ["cnif"],
            ["rank", "--scorer", "if"],
            ["rank", "--scorer", "cnif"],
            ["gap"],
            ["indicators"],
            ["decompose"],
        ]
        with tempfile.TemporaryDirectory() as tmp:
            outputs = []
            for k, order in enumerate((rows, shuffled)):
                path = Path(tmp) / f"in{k}.csv"
                path.write_text(HEADER + "\n" + "\n".join(order) + "\n")
                results = []
                for command in commands:
                    out = Path(tmp) / f"out{k}.csv"
                    assert main(command + ["--input", str(path), "--out", str(out)]) == 0
                    results.append(out.read_bytes())
                results.append((Path(tmp) / f"out{k}.csv.summary").read_bytes())  # from gap
                outputs.append(results)
            assert outputs[0] == outputs[1]


def test_cli_import_loads_no_costly_module():
    # each of these took milliseconds of `import cnifkit.cli`; -S keeps out the
    # modules that `site` imports, -E the environment's PYTHONPATH, and -B
    # writes no bytecode into the checkout
    src = str(Path(__file__).resolve().parents[1] / "src")
    costly = ("dataclasses", "inspect", "importlib.resources", "numpy")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import cnifkit.cli; "
        f"print(*[m for m in {costly!r} if m in sys.modules])"
    )
    argv = [sys.executable, "-B", "-E", "-S", "-c", code]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


# Runs each argv of the JSON list in argv[2] through cnifkit.cli.main and prints
# the exit codes and whether numpy was loaded after `import cnifkit.stats` and
# after the commands; with argv[1] == "block" every numpy import raises.
NUMPY_PROBE = """
import json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
import cnifkit.stats
loaded = [sys.modules.get("numpy") is not None]
from cnifkit.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[2])]
loaded.append(sys.modules.get("numpy") is not None)
print(json.dumps({"codes": codes, "numpy_loaded": loaded}))
"""


def run_numpy_probe(mode, argvs):
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, mode, json.dumps(argvs)],
        env=src_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestNumpyOffJournalPath:
    def test_journal_commands_run_without_numpy(self, tmp_path):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text(journal_csv(5, 60))
        bad.write_text(journal_csv(5, 60, violations=True))
        commands = [["validate", "--input", str(bad)], ["validate", "--input", str(good)]] + [
            command + ["--input", str(good)]
            for command in (["indicators"], ["decompose"], ["cnif"], ["rank", "--scorer", "if"],
                            ["rank", "--scorer", "cnif"], ["gap"])
        ]
        blocked, in_process = tmp_path / "blocked", tmp_path / "in-process"
        blocked.mkdir()
        in_process.mkdir()
        argvs = [c + ["--out", str(blocked / f"{k}.out")] for k, c in enumerate(commands)]
        probe = run_numpy_probe("block", argvs)
        codes = [main(c + ["--out", str(in_process / f"{k}.out")]) for k, c in enumerate(commands)]
        assert probe["codes"] == codes == [1] + [0] * 7
        outputs = [{p.name: p.read_bytes() for p in d.iterdir()} for d in (blocked, in_process)]
        assert "7.out.summary" in outputs[0]  # gap's side file
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", [["stats", "corr"], ["reproduce-table3"]], ids=lambda c: c[-1])
    def test_stats_commands_load_numpy(self, command, tmp_path):
        probe = run_numpy_probe("allow", [command + ["--out", str(tmp_path / "out")]])
        assert probe == {"codes": [0], "numpy_loaded": [False, True]}


# extra argv per command, so that every output of every row function is built
CONTRACT_ARGVS = {
    "decompose": [[], ["--input", "{input}"]],
    "stats corr": [[], ["--format", "json"]],
    "stats cluster": [["--k", "3"]],
}


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c.name)
def test_formatted_columns_hold_numbers_or_none(command, tmp_path):
    """The writer formats a column at fixed decimals only where the row
    function returns a number or None (undefined) in every cell of it."""
    path = tmp_path / "journals.csv"
    zero = "z1,Zero window,Z,5,0,0,0,,,\n"  # category Z is undefined, which only indicators takes
    path.write_text(SAMPLE + (zero if command.name == "indicators" else ""))
    default = [["--input", "{input}"]] if command.source == "--input" else [[]]
    for extra in CONTRACT_ARGVS.get(command.name, default):
        args = parse_args(command.name.split() + [a.format(input=path) for a in extra])
        _, outputs = command.rows(args)
        for columns, values, digits in outputs.values():
            assert set(digits) <= set(columns)
            for name, cells in zip(columns, map(list, values)):
                if name in digits:
                    assert cells and all(
                        x is None or isinstance(x, (int, float)) and not isinstance(x, bool)
                        for x in cells
                    ), (name, cells)
