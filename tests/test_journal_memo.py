"""The CLI parses a journal CSV once per process while its bytes stay the same.

The commands of one process share the dataset of the last journal CSV
parsed, keyed by a digest of the file's bytes, with the category table and
the score columns cached on it.  Each test here starts with nothing parsed
(``conftest.fresh_journal_parse``).
"""
import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from cnifkit import cli, indicators, ingest, ranking
from cnifkit.cli import main
from cnifkit.core_model import Violation, validate

HEADER = "id,name,categories,items_t,items_t1,items_t2,cited_in_window,refs_total,refs_jcr,refs_jcr_in_window"
ROWS = [
    "j1,Alpha,A,10,12,11,30,400,300,60",
    "j2,Beta,A;B,5,6,7,13,200,150,40",
    "j3,Gamma,B,8,9,10,40,,,",
    "j4,Delta,B;C;A,1,2,3,6,100,90,10",
    "j5,Eps,C,4,5,6,22,300,200,100",
]

COMMANDS = (
    ["validate"],
    ["indicators"],
    ["decompose"],
    ["cnif"],
    ["rank", "--scorer", "if"],
    ["rank", "--scorer", "cnif"],
    ["gap"],
)


def write_csv(path, rows):
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    return str(path)


def run(command, path, out):
    """The exit code and every output file's bytes of one command."""
    code = main(command + ["--input", path, "--out", str(out)])
    outputs = sorted(out.parent.glob(out.name + "*"))
    return code, {p.name: p.read_bytes() for p in outputs}


def counting(calls, name, fn):
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapped


def test_shared_parse_writes_the_bytes_of_a_fresh_one(tmp_path):
    path = write_csv(tmp_path / "journals.csv", ROWS)
    shared, fresh = [], []
    for i, command in enumerate(COMMANDS):
        shared.append(run(command, path, tmp_path / f"shared{i}.csv"))
    for i, command in enumerate(COMMANDS):
        cli._parsed.clear()
        fresh.append(run(command, path, tmp_path / f"fresh{i}.csv"))
    def contents(runs):  # each command's exit code and output bytes, the names left out
        return [(code, sorted(outputs.values())) for code, outputs in runs]

    assert contents(shared) == contents(fresh)
    assert [code for code, _ in shared] == [0] * len(COMMANDS)


def test_cnif_rank_and_gap_parse_once_build_one_table_and_score_each_journal_once(
    tmp_path, monkeypatch
):
    calls, scored = Counter(), Counter()
    monkeypatch.setattr(
        ingest, "parse_journals_csv", counting(calls, "parse", ingest.parse_journals_csv)
    )
    monkeypatch.setattr(
        indicators, "_category_table", counting(calls, "table", indicators._category_table)
    )
    kernel = indicators.cnif_terms

    def counting_kernel(dataset, journals):
        def counted():
            for journal in journals:
                scored[journal[0]] += 1
                yield journal

        return kernel(dataset, counted())

    monkeypatch.setattr(indicators, "cnif_terms", counting_kernel)
    monkeypatch.setattr(ranking, "cnif_terms", counting_kernel)
    path = write_csv(tmp_path / "journals.csv", ROWS)
    for i, command in enumerate((["cnif"], ["rank", "--scorer", "cnif"], ["gap"])):
        assert main(command + ["--input", path, "--out", str(tmp_path / f"{i}.csv")]) == 0
    assert calls == Counter({"parse": 1, "table": 1})
    assert scored == Counter(row.split(",")[0] for row in ROWS)


def test_ingest_commands_parse_once_and_build_one_table(tmp_path, monkeypatch):
    calls = Counter()
    monkeypatch.setattr(
        ingest, "parse_journals_csv", counting(calls, "parse", ingest.parse_journals_csv)
    )
    monkeypatch.setattr(
        indicators, "_category_table", counting(calls, "table", indicators._category_table)
    )
    path = write_csv(tmp_path / "journals.csv", ROWS)
    ingest_commands = (["validate"], ["indicators"], ["rank", "--scorer", "if"], ["decompose"])
    for i, command in enumerate(ingest_commands):
        assert main(command + ["--input", path, "--out", str(tmp_path / f"{i}.csv")]) == 0
    assert calls == Counter({"parse": 1, "table": 1})


def test_new_bytes_of_the_same_size_and_time_give_the_new_output(tmp_path):
    path = tmp_path / "journals.csv"
    write_csv(path, ROWS)
    before = os.stat(path)
    old = run(["cnif"], str(path), tmp_path / "old.csv")
    changed = [ROWS[0].replace(",30,", ",31,")] + ROWS[1:]  # j1's citations, same length
    write_csv(path, changed)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert os.stat(path).st_size == before.st_size
    new = run(["cnif"], str(path), tmp_path / "new.csv")
    cli._parsed.clear()
    fresh = run(["cnif"], str(path), tmp_path / "fresh.csv")
    assert new[1]["new.csv"] == fresh[1]["fresh.csv"] != old[1]["old.csv"]


def test_the_entry_is_keyed_by_the_bytes_the_parse_read(tmp_path, monkeypatch):
    # the file changes after the command digested it but before it parsed
    # it; the dataset is of the new bytes, so the old bytes must not find it
    path = tmp_path / "journals.csv"
    write_csv(path, ROWS)
    expected = run(["cnif"], str(path), tmp_path / "expected.csv")[1]["expected.csv"]
    cli._parsed.clear()
    other = write_csv(tmp_path / "other.csv", ROWS[:2])
    assert main(["validate", "--input", other]) == 0  # so the next command digests first
    read_csv = ingest.read_csv

    def rewritten_first(*args, **kwargs):
        write_csv(path, ROWS[:3])
        return read_csv(*args, **kwargs)

    monkeypatch.setattr(ingest, "read_csv", rewritten_first)
    assert main(["validate", "--input", str(path)]) == 0
    monkeypatch.setattr(ingest, "read_csv", read_csv)
    write_csv(path, ROWS)
    assert run(["cnif"], str(path), tmp_path / "again.csv")[1]["again.csv"] == expected


def test_the_first_parse_in_a_process_reads_the_file_once(tmp_path, monkeypatch):
    # a process that runs one command pays no digest pass before its parse
    path = write_csv(tmp_path / "journals.csv", ROWS)
    expected = run(["indicators"], path, tmp_path / "expected.csv")[1]["expected.csv"]
    cli._parsed.clear()

    def guarded_open(file, *args, **kwargs):
        assert file != path, "the input was opened before its parse"
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", guarded_open, raising=False)
    assert run(["indicators"], path, tmp_path / "once.csv")[1]["once.csv"] == expected
    assert len(cli._parsed) == 1


def test_one_parse_serves_validate_and_the_strict_commands(tmp_path, monkeypatch):
    # the parse finds the first cross-field break whether or not it is strict,
    # so no strict command needs validate, on a clean dataset or a broken one
    calls = Counter()
    monkeypatch.setattr(
        ingest, "parse_journals_csv", counting(calls, "parse", ingest.parse_journals_csv)
    )
    monkeypatch.setattr(cli, "validate", counting(calls, "validate", cli.validate))
    clean = write_csv(tmp_path / "clean.csv", ROWS)
    broken = write_csv(tmp_path / "broken.csv", ROWS + ["bad,Bad,A,1,1,1,1,10,20,5"])
    out = str(tmp_path / "out.csv")
    for path, codes in ((clean, {"validate": 0, "strict": 0}), (broken, {"validate": 1, "strict": 2})):
        for first in (["validate"], ["indicators"]):
            cli._parsed.clear()
            calls.clear()
            for command in (first, ["cnif"], ["validate"], ["gap"], ["rank"]):
                code = codes["validate" if command == ["validate"] else "strict"]
                assert main(command + ["--input", path, "--out", out]) == code
            assert calls == Counter({"parse": 1, "validate": 1 + (first == ["validate"])})


def test_commands_work_without_the_builtin_blake2(tmp_path, monkeypatch):
    # a CPython built without _blake2 has no blake2b at all; sha256 then serves
    monkeypatch.setitem(sys.modules, "_blake2", None)
    path = write_csv(tmp_path / "journals.csv", ROWS)
    first = run(["indicators"], path, tmp_path / "first.csv")[1]["first.csv"]
    assert list(cli._parsed) == [hashlib.sha256(Path(path).read_bytes()).digest()]
    (dataset,) = cli._parsed.values()
    assert run(["indicators"], path, tmp_path / "again.csv")[1]["again.csv"] == first
    assert list(cli._parsed.values()) == [dataset]


def test_one_dataset_is_kept_at_a_time(tmp_path):
    first = write_csv(tmp_path / "a.csv", ROWS)
    second = write_csv(tmp_path / "b.csv", ROWS[:3])
    copy = write_csv(tmp_path / "c.csv", ROWS)
    assert main(["validate", "--input", first]) == 0
    (dataset,) = cli._parsed.values()
    assert main(["validate", "--input", copy]) == 0  # the same bytes at another path
    assert list(cli._parsed.values()) == [dataset]
    assert main(["validate", "--input", second]) == 0
    (other,) = cli._parsed.values()
    assert other is not dataset and len(other.columns["id"]) == 3


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_a_pipe_is_parsed_as_it_is_read(tmp_path):
    # a pipe's bytes can be read only once, so none is digested before its parse
    path = write_csv(tmp_path / "journals.csv", ROWS)
    expected = run(["indicators"], path, tmp_path / "file.csv")[1]["file.csv"]
    code = (
        "import sys; from cnifkit import cli\n"
        "assert cli.main(['validate', '--input', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "sys.exit(cli.main(['indicators', '--input', '/dev/stdin']))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, path, str(tmp_path / "validate.csv")],
        input=Path(path).read_bytes(), capture_output=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, b"")


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_a_pipe_is_kept_by_the_digest_of_its_bytes(tmp_path):
    # a pipe is never digested before its parse, but the bytes its parse read
    # key its dataset, so a regular file with the same bytes reuses it
    path = write_csv(tmp_path / "journals.csv", ROWS)
    code = (
        "import sys; from cnifkit import cli, ingest\n"
        "assert cli.main(['validate', '--input', '/dev/stdin']) == 0\n"
        "assert len(cli._parsed) == 1\n"
        "ingest.parse_journals_csv = None  # a second parse would fail\n"
        "sys.exit(cli.main(['indicators', '--input', sys.argv[1]]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, path],
        input=Path(path).read_bytes(), capture_output=True, env=env, timeout=60,
    )
    expected = run(["indicators"], path, tmp_path / "file.csv")[1]["file.csv"]
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"record_id,rule\n" + expected, b"")


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_a_piped_byte_that_is_not_utf8_is_an_error_at_its_line(tmp_path):
    data = (HEADER + "\n" + ROWS[0] + "\n").encode() + b"j2,Caf\xe9,A,1,1,1,1,,,\n"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "cnifkit", "validate", "--input", "/dev/stdin"],
        input=data, capture_output=True, env=env, timeout=60,
    )
    message = b"error: line 3: byte 0xe9 is not UTF-8 (invalid continuation byte)\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", message)


def test_the_console_script_clears_the_parse_at_exit(tmp_path, monkeypatch, capsys):
    # it runs one command per process and frees the dataset before it exits
    path = write_csv(tmp_path / "journals.csv", ROWS)
    monkeypatch.setattr(sys, "argv", ["cnifkit", "indicators", "--input", path])
    with pytest.raises(SystemExit) as exc:
        cli.entrypoint()
    assert exc.value.code == 0
    assert cli._parsed == {}
    assert capsys.readouterr().out == run(["indicators"], path, tmp_path / "in.csv")[1]["in.csv"].decode()


def test_strict_commands_after_validate_keep_the_line_error(tmp_path, capsys):
    rows = ROWS[:2] + ["bad,Bad,A,1,1,1,1,10,20,5"] + ROWS[2:]  # refs_jcr > refs_total, line 4
    path = write_csv(tmp_path / "journals.csv", rows)
    assert main(["validate", "--input", path]) == 1
    assert capsys.readouterr().out == "record_id,rule\nbad,refs_jcr exceeds refs_total\n"
    for command in (["indicators"], ["cnif"], ["indicators"], ["decompose"], ["gap"]):
        out = tmp_path / "out.csv"
        assert main(command + ["--input", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: line 4: journal bad: refs_jcr exceeds refs_total\n"
        assert not out.exists()
    assert main(["validate", "--input", path]) == 1


def test_row_breaking_both_reference_rules_is_kept_by_its_first_rule(tmp_path, capsys):
    rows = ROWS[:1] + ["J,Both,A,1,1,1,1,10,20,30"] + ROWS[1:]  # line 3 breaks both rules
    path = write_csv(tmp_path / "journals.csv", rows)
    dataset = ingest.read_csv(path, ingest.parse_journals_csv, strict=False)
    assert validate(dataset) == [
        Violation("J", "refs_jcr exceeds refs_total"),
        Violation("J", "refs_jcr_in_window exceeds refs_jcr"),
    ]
    assert dataset._cache["break"] == (3, "journal J: refs_jcr exceeds refs_total")
    for command in COMMANDS[1:]:  # every strict one, parsing afresh and from the kept parse
        for fresh in (True, False):
            if fresh:
                cli._parsed.clear()
            out = tmp_path / "out.csv"
            assert main(command + ["--input", path, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err == "error: line 3: journal J: refs_jcr exceeds refs_total\n"
            assert not out.exists()


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "file not found: {path}"),
        (b"j1,Caf\xe9,A,1,1,1,1,,,", "line 2: byte 0xe9 is not UTF-8 (invalid continuation byte)"),
        (b"j1,J,A,1,1", "line 2: expected 10 fields, got 5"),
        (b"j1,J,A,1,-3,1,1,,,", "line 2: negative count in items_t1: -3"),
    ],
    ids=["missing", "not-utf8", "field-count", "negative-count"],
)
def test_errors_are_not_cached(tmp_path, capsys, content, message):
    good = write_csv(tmp_path / "good.csv", ROWS)
    path = tmp_path / "journals.csv"
    if content is not None:
        path.write_bytes(HEADER.encode() + b"\n" + content + b"\n")
    assert main(["validate", "--input", good]) == 0
    capsys.readouterr()
    for command in (["validate"], ["indicators"], ["validate"]):
        assert main(command + ["--input", str(path)]) == 2
        assert capsys.readouterr().err == "error: " + message.format(path=path) + "\n"
        if content is not None:  # the last dataset went before the parse that failed
            assert cli._parsed == {}
    assert main(["validate", "--input", good]) == 0
