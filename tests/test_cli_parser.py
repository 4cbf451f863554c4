"""``cli.parse_args`` against the full parser tree of ``cli.build_parser``.

``parse_args`` builds only the named command's parser and falls back to the
full tree when argv names no command or leaves arguments over.  For each argv
both must give the same exit code, stdout and stderr, and the same values in
the namespace that the row functions read.
"""
import pytest

from cnifkit import cli

VALID_VALUES = {
    "--digits": "4",
    "--input": "journals.csv",
    "--edition": "social",
    "--scorer": "cnif",
    "--alpha": "0.1",
    "--lilliefors": None,
    "--k": "3",
    "--height": "2.5",
}
BAD_VALUES = {"--digits": ["x", "-1", "18"], "--alpha": ["2", "nan", "5e-324"], "--k": ["x"]}


def _valid(command: cli.Command) -> list[str]:
    argv = command.name.split()
    argv += ["--input", "in.csv"] if command.source == "--input" else ["--fixture", "f.csv"]
    argv += ["--out", "out.csv", "--format", command.fmt or "json"]
    for flag in command.extra:
        value = VALID_VALUES[flag]
        argv += [flag] if value is None else [flag, value]
    return argv


def _argvs(command: cli.Command) -> list[list[str]]:
    words, valid = command.name.split(), _valid(command)
    argvs = [valid, words, words + ["-h"], valid + ["--help"], valid + ["--bogus"]]
    argvs += [valid + ["--format", "xml"], valid + ["stray"], valid + ["--"]]
    argvs += [valid + ["--", "x"], words + ["--bogus", "--format", "xml"], words + ["--out"]]
    for flag in command.extra:
        argvs += [valid + [flag, bad] for bad in BAD_VALUES.get(flag, [])]
    if command.source == "--input":
        argvs.append(valid[: len(words)] + valid[len(words) + 2 :])  # no --input
    return argvs


CASES = [argv for command in cli.COMMANDS for argv in _argvs(command)]
CASES += [[], ["-h"], ["--help"], ["bogus"], ["stats"], ["stats", "bogus"], ["stats", "-h"]]
CASES += [["--", "validate", "--input", "x"], ["stats", "--", "corr"], ["validate", "stats", "corr"]]


def _outcome(parse, argv, capsys):
    try:
        args = vars(parse(argv))
        code = None
    except SystemExit as exc:
        args, code = None, exc.code
    out, err = capsys.readouterr()
    if args is not None:  # the full tree also records which parser it chose
        args = {k: v for k, v in args.items() if k != "command" and not k.endswith("_command")}
    return code, out, err, args


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_same_outcome_as_full_tree(argv, capsys):
    want = _outcome(cli.build_parser().parse_args, argv, capsys)
    assert _outcome(cli.parse_args, argv, capsys) == want


@pytest.mark.parametrize("command", cli.COMMANDS, ids=lambda c: c.name)
def test_valid_argv_builds_one_parser(command, monkeypatch):
    def full_tree():
        raise AssertionError("built the full tree")

    monkeypatch.setattr(cli, "build_parser", full_tree)
    args = cli.parse_args(_valid(command))
    assert args.run is command and args.out == "out.csv"


def test_argv_none_reads_sys_argv(monkeypatch):
    monkeypatch.setattr("sys.argv", ["cnifkit", "stats", "ks", "--alpha", "0.2"])
    args = cli.parse_args()
    assert args.run.name == "stats ks" and args.alpha == 0.2
