"""The bundled category table is parsed once per process; a --fixture file is
parsed on every call, and an empty path is a missing file, never the bundled
table.  Byte identity with the parse per command is tests/test_cli_golden.py's
job: it runs every bundled-table command in one process."""
import importlib.util
import sys
from pathlib import Path

import pytest

from cnifkit import cli, ingest
from cnifkit.cli import COMMANDS, main
from cnifkit.reference import bundled_fixture_path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def reference_stats():
    """The commands of the benchmark's reference-stats workload."""
    spec = importlib.util.spec_from_file_location("bench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up as it is defined
    spec.loader.exec_module(module)
    return module.WORKLOADS["reference-stats"].commands


def test_reference_stats_parses_the_bundled_table_once(tmp_path, monkeypatch):
    calls = []
    parse = ingest.parse_category_fixture_csv

    def counting(*args, **kwargs):
        calls.append(args)
        return parse(*args, **kwargs)

    monkeypatch.setattr(ingest, "parse_category_fixture_csv", counting)
    cli._bundled_rows.cache_clear()
    commands = reference_stats()
    assert len(commands) == 15
    for command in commands:
        out = tmp_path / f"{command.name}.out"
        assert main([*command.argv, "--out", str(out)]) == command.exit_code, command.name
        assert out.stat().st_size > 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "command", [["decompose", "--digits", "6"], ["stats", "corr", "--digits", "6"]], ids=" ".join
)
def test_fixture_file_is_parsed_on_every_call(command, tmp_path):
    def run(*fixture):
        out = tmp_path / "out.csv"
        assert main([*command, *fixture, "--out", str(out)]) == 0
        return out.read_bytes()

    text = Path(bundled_fixture_path()).read_text(encoding="utf-8")
    s1 = "\nS1,ACOUSTICS,science,87001,110560,11626,12872,0.51,"
    assert s1 in text
    bundled = run()
    fixture = tmp_path / "fixture.csv"
    fixture.write_text(text, encoding="utf-8")
    assert run("--fixture", str(fixture)) == bundled
    altered = s1.replace(",87001,", ",87002,").replace(",0.51,", ",0.52,")
    fixture.write_text(text.replace(s1, altered), encoding="utf-8")
    assert run("--fixture", str(fixture)) != bundled
    assert run() == bundled  # a --fixture file leaves the bundled rows as they were


@pytest.mark.parametrize(
    "argv",
    [[*c.name.split(), "--fixture", ""] for c in COMMANDS if c.source == "--fixture"]
    + [["decompose", "--input", ""], ["validate", "--input", ""]],
    ids=" ".join,
)
def test_empty_path_is_a_missing_file(argv, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == "error: file not found: \n"
    assert list(tmp_path.iterdir()) == []
