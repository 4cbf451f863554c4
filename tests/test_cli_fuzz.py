"""Fuzzed inputs through every CLI command: an input error is a message, never a traceback.

Hypothesis mutates a small valid journal CSV and a small valid category
fixture (dropped and extra fields; numbers 0, -1, 10**k, 1e308 and nan;
quotes, CRLF line ends, a byte-order mark, stray bytes and a truncated last
line) and runs a command drawn from ``cli.COMMANDS`` on it in-process.
Whatever the input, no exception escapes ``cli.main``, the exit code is 0, 1
or 2, a failed command prints exactly one ``error: `` line and leaves no
``--out`` file, and a command exits 1 without an error line only for a
verdict it writes: validate's violations or a reproduction's mismatches.

Fixed odd values of --digits, --alpha, --k and --height, repeated flags, a
value outside --edition's or --scorer's choices, and an --out path in a
missing directory, are held to the same rules; an error line echoes at most
a few characters of a long value, argparse's own error line is at most 120
characters, and a repeated flag takes its last value.
Hypothesis also draws argv for every command from ``cli.ARGUMENTS`` and the
command's flags, with odd values, repeated flags and --out in a missing
directory, and holds each run to the same rules.
"""
import contextlib
import io
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnifkit import cli
from cnifkit.core_model import clip
from cnifkit.ingest import JOURNAL_HEADER
from cnifkit.reference import bundled_fixture_path

JOURNAL_LINES = [",".join(JOURNAL_HEADER)] + [
    "j1,Alpha,A;B,10,12,11,46,400,300,60",
    'j2,"Beta, Gamma",A,8,9,10,19,,,',
    "j3,Gamma,B,6,7,8,90,500,450,75",
    "j4,Delta,B;C,5,6,7,13,200,150,30",
    "j5,Eps,C,3,4,5,9,120,100,20",
]

_FIXTURE = Path(bundled_fixture_path()).read_text(encoding="utf-8").splitlines()
# twelve categories of each edition keep every statistic defined and each run short
FIXTURE_LINES = _FIXTURE[:13] + [line for line in _FIXTURE if line.startswith("SS")][:12]

ODD_CELLS = ["0", "-1", "10", "1e308", "nan", "", '"']
BIG_COUNTS = ["1" + "0" * k for k in (18, 19, 400)]  # 10**18 < 2**63 < 10**19
VERDICT_COMMANDS = {"validate", "reproduce-table1", "reproduce-table3", "reproduce-table4"}


@st.composite
def mutated(draw, lines: list[str]) -> bytes:
    lines = list(lines)
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["drop", "extra", "quote", "cell"] + ["count"] * 3))
        i = draw(st.integers(1 if kind == "count" else 0, len(lines) - 1))
        cells = lines[i].split(",")
        if kind == "drop":
            del cells[draw(st.integers(0, len(cells) - 1))]
        elif kind == "extra":
            cells.append(draw(st.sampled_from(ODD_CELLS)))
        elif kind == "cell":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(ODD_CELLS))
        elif kind == "count":  # a number cell of a data row, often a huge one
            value = draw(st.sampled_from(BIG_COUNTS * 2 + ODD_CELLS[:5]))
            cells[draw(st.integers(len(cells) - 7, len(cells) - 1))] = value
        else:
            k = draw(st.integers(0, len(cells) - 1))
            cells[k] = '"' + cells[k]
        lines[i] = ",".join(cells)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    data = (newline.join(lines) + newline).encode("utf-8")
    # a truncated last line and a stray byte each in one run of four, so that
    # most runs get past the parse
    if draw(st.integers(0, 3)) == 0:
        data = data[: draw(st.integers(len(data) - len(lines[-1]) - 2, len(data)))]
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\x00", b"\x80", b"\xc3"])) + data[at:]
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    return data


@st.composite
def runs(draw) -> tuple[list[str], str, bytes]:
    """An argv without its --input/--fixture and --out, the source flag, and the input."""
    command = draw(st.sampled_from(cli.COMMANDS))
    source = command.source
    if "--input" in command.extra and draw(st.booleans()):
        source = "--input"
    argv = command.name.split()
    argv += ["--format", draw(st.sampled_from([command.fmt] if command.fmt else ["csv", "json"]))]
    for flag in command.extra:
        spec = cli.ARGUMENTS[flag]
        if "choices" in spec and draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(spec["choices"]))]
    if "--k" in command.extra and draw(st.booleans()):
        argv += ["--k", str(draw(st.integers(1, 4)))]
    data = draw(mutated(JOURNAL_LINES if source == "--input" else FIXTURE_LINES))
    return argv, source, data


@settings(max_examples=500, deadline=None)
@given(runs())
def test_fuzzed_input_exits_cleanly(run):
    argv, source, data = run
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        Path(path).write_bytes(data)
        out = os.path.join(tmp, "out", "result")
        os.mkdir(os.path.dirname(out))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv + [source, path, "--out", out])
        written = os.listdir(os.path.dirname(out))
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
    assert code in (0, 1, 2)
    if errors:
        assert code in (1, 2) and len(errors) == 1, err.getvalue()
        assert written == []
    else:
        assert code == 0 or (code == 1 and argv[0] in VERDICT_COMMANDS), err.getvalue()
        assert "result" in written


# each option with a command that takes it, and whether that command reads --input
OPTION_COMMANDS = {
    "--digits": (["cnif"], "--input"),
    "--alpha": (["stats", "ks"], "--fixture"),
    "--k": (["stats", "cluster"], "--fixture"),
    "--height": (["stats", "cluster"], "--fixture"),
}
ODD_OPTION_VALUES = ["0", "-1", "18", "10**400", "-10**400", "9 * 5000", "x * 1000", "nan", "inf",
                     "-0.0", "5e-324", "", "é"]
LONG_VALUES = {  # the names of values too long to show in a test id
    "10**400": str(10**400),
    "-10**400": str(-(10**400)),
    "9 * 5000": "9" * 5000,  # int() refuses more than 4,300 digits
    "x * 1000": "x" * 1000,
    "x * 3000": "x" * 3000,
}


def run_cleanly(argv: list[str], capsys, out_dir: Path) -> tuple[int, str]:
    """Run argv in-process and check the outcome: no traceback, exit 0, 1 or 2,
    and an ``error:`` exit leaves nothing in ``out_dir``.  Returns the exit
    code and stderr."""
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code in (0, 1, 2)
    if "error:" in err:
        assert code in (1, 2) and not any(out_dir.iterdir()), err
    return code, err


def write_input(tmp_path: Path, source: str) -> tuple[Path, Path]:
    """The valid input a ``source`` command reads, and an empty --out directory."""
    lines = JOURNAL_LINES if source == "--input" else FIXTURE_LINES
    path = tmp_path / "in.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    return path, out_dir


@pytest.mark.parametrize("value", ODD_OPTION_VALUES, ids=ascii)
@pytest.mark.parametrize("flag", sorted(OPTION_COMMANDS))
def test_odd_option_value_exits_cleanly(flag, value, tmp_path, capsys):
    argv, source = OPTION_COMMANDS[flag]
    path, out_dir = write_input(tmp_path, source)
    value = LONG_VALUES.get(value, value)
    # the = form passes the empty string and values that start with "-" as values
    argv = [*argv, source, str(path), f"{flag}={value}", "--out", str(out_dir / "r")]
    _, err = run_cleanly(argv, capsys, out_dir)
    # an error line shows a few characters of a long value, not all of it
    assert all(len(line) <= 120 for line in err.splitlines() if "error:" in line), err


def test_out_into_missing_directory_exits_cleanly(tmp_path, capsys):
    path = tmp_path / "in.csv"
    path.write_text("\n".join(JOURNAL_LINES) + "\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "missing" / "r"  # gap would write r and r.summary
    assert run_cleanly(["gap", "--input", str(path), "--out", str(out)], capsys, out_dir)[0] == 2


# each argv ends with its repeated flag's two values
REPEATED_FLAGS = [
    (["cnif", "--digits", "2", "--digits", "3"], "--input"),
    (["rank", "--scorer", "if", "--scorer", "cnif"], "--input"),
    (["stats", "corr", "--edition", "science", "--edition", "social"], "--fixture"),
]


def argv_ids(cases) -> list[str]:
    return [" ".join(argv) for argv, _ in cases]


@pytest.mark.parametrize("argv, source", REPEATED_FLAGS, ids=argv_ids(REPEATED_FLAGS))
def test_repeated_flag_takes_its_last_value(argv, source, tmp_path, capsys):
    path, out_dir = write_input(tmp_path, source)
    twice, once = out_dir / "twice", out_dir / "once"
    assert run_cleanly([*argv, source, str(path), "--out", str(twice)], capsys, out_dir)[0] == 0
    last_only = [*argv[:-4], *argv[-2:], source, str(path), "--out", str(once)]
    assert run_cleanly(last_only, capsys, out_dir)[0] == 0
    assert twice.read_bytes() == once.read_bytes()


BAD_CHOICES = [
    (["decompose", "--edition", "arts"], "--fixture"),
    (["rank", "--scorer", "jif"], "--input"),
    (["stats", "cluster", "--edition", "x * 3000"], "--fixture"),
    (["rank", "--scorer", "x * 3000"], "--input"),
    (["reproduce-table1", "--format", "x * 3000"], "--fixture"),
]


@pytest.mark.parametrize("argv, source", BAD_CHOICES, ids=argv_ids(BAD_CHOICES))
def test_value_outside_choices_is_a_usage_error(argv, source, tmp_path, capsys):
    path, out_dir = write_input(tmp_path, source)
    value = LONG_VALUES.get(argv[-1], argv[-1])
    argv = [*argv[:-1], value, source, str(path), "--out", str(out_dir / "r")]
    code, err = run_cleanly(argv, capsys, out_dir)
    assert code == 2 and "invalid choice" in err, err
    assert not any(out_dir.iterdir())
    # argparse echoes the value as clip shows it: a long one is cut
    shown = clip(value)
    assert f"invalid choice: {shown!r}" in err, err
    if shown != value:
        assert value[: len(shown)] not in err, err


# argparse's own messages: the arguments it does not recognize, an unknown
# command, and the choices listed after a clipped --edition value
LONG_MESSAGES = [
    ["rank", "--input", "in.csv", "x" * 3000],
    ["x" * 3000],
    ["stats", "cluster", "--edition", "x" * 30],
]


@pytest.mark.parametrize("argv", LONG_MESSAGES, ids=["unrecognized", "command", "choices"])
def test_argparse_error_line_is_cut_to_120_characters(argv, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and len(errors[0]) == 120 and errors[0].endswith("..."), err


# ROADMAP item 16's option values; JOURNAL_CSV stands for the path of the
# journal CSV, the one valid value of decompose's --input
JOURNAL_CSV = "<journal csv>"
DRAWN_VALUES = ["0", "-1", "17", "18", str(10**400), "nan", "inf", "-0.0", "5e-324", "", "é",
                JOURNAL_CSV]


@st.composite
def option_runs(draw) -> tuple[cli.Command, list[str], bool]:
    """A command; its argv with flags it takes, each maybe repeated, and a
    value drawn from ``DRAWN_VALUES``, the flag's choices or a valid number;
    and whether --out points into a missing directory."""
    command = draw(st.sampled_from(cli.COMMANDS))
    argv = command.name.split()
    formats = {"choices": [command.fmt] if command.fmt else ["csv", "json"]}
    for flag in draw(st.lists(st.sampled_from(["--format", *command.extra]), max_size=4)):
        spec = cli.ARGUMENTS.get(flag, formats)
        if spec.get("action") == "store_true":
            argv.append(flag)
        else:  # the = form passes the empty string and values that start with "-" as values
            value = draw(st.sampled_from(DRAWN_VALUES + list(spec.get("choices", ["3", "0.05"]))))
            argv.append(f"{flag}={value}")
    return command, argv, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(option_runs())
def test_drawn_options_exit_cleanly(run):
    command, argv, missing = run
    with tempfile.TemporaryDirectory() as tmp:
        journals, fixture = os.path.join(tmp, "journals.csv"), os.path.join(tmp, "fixture.csv")
        Path(journals).write_text("\n".join(JOURNAL_LINES) + "\n", encoding="utf-8")
        Path(fixture).write_text("\n".join(FIXTURE_LINES) + "\n", encoding="utf-8")
        argv = [a.replace(JOURNAL_CSV, journals) for a in argv]
        out_dir = os.path.join(tmp, "out")
        os.mkdir(out_dir)
        out = os.path.join(out_dir, "missing", "r") if missing else os.path.join(out_dir, "r")
        source = journals if command.source == "--input" else fixture
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv + [command.source, source, "--out", out])
        written = os.listdir(out_dir)
    assert "Traceback" not in err.getvalue()
    assert code in (0, 1, 2)
    if "error:" in err.getvalue():
        assert code in (1, 2) and written == [], err.getvalue()
    else:  # only a verdict exits 1 without an error line
        assert code == 0 or (code == 1 and argv[0] in VERDICT_COMMANDS), err.getvalue()
        assert not missing and "r" in written, err.getvalue()
