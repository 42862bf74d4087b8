"""The command line's own parser, read off cli's option table: argparse,
which it replaced, is its oracle on every argv the suite and the benchmark
run; help and usage errors are pinned; and the argvs on which the two
parsers differ on purpose are listed."""

import argparse
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from complat import cli
from oracles import PACKAGE_PATH, argparse_cli_parser

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))

from workloads import WORKLOADS  # noqa: E402


def _corpus():
    lines = (REPO / "tests" / "cli_argvs.txt").read_text().splitlines()
    suite = [line.split() for line in lines if line and not line.startswith("#")]
    subst = {"braid5": "tmp/braid5.json", "a3_quiver": "tmp/a3_quiver.json", "seed": "0"}
    commands = {c.id: c for w in WORKLOADS.values() for c in w.commands}
    bench = [[a.format(**subst) for a in c.args] for c in commands.values()]
    return suite, bench


# the forms argparse accepts beyond those the suite runs: = values, unique
# prefixes, options before the spec, repeated options, stdin, --
FORMS = [
    ["verify", "s.json", "--suite=hall", "--output=text"],
    ["verify", "s.json", "--sui", "hall", "--out", "text"],
    ["verify", "s.json", "--sui=constancy", "--sa=5", "--se", "7"],
    ["verify", "--suite", "finiteness", "--max", "2", "s.json"],
    ["verify", "--q", "3", "--suite", "associativity", "s.json", "--q=5", "--max-dim=2"],
    ["verify", "s.json", "--suite", "hall", "--suite", "constancy", "--samples", "-5"],
    ["verify", "s.json", "--suite", "constancy", "--seed", " 7 "],
    ["faces", "--output", "text", "s.json"],
    ["faces", "--max-d", "4", "-"],
    ["faces", "--", "s.json"],
    ["faces", "-1"],
    ["closure", "--ray", "1,0", "s.json", "--ray", "0,1"],
    ["closure", "s.json", "--face", "1,0", "--face=0,1", "--fa", "1,1", "--face=-1,0"],
    ["closure", "-", "--ray=1", "--output", "json"],
]

MALFORMED = [
    [],
    ["bogus"],
    ["--bogus"],
    ["--bogus", "faces", "s.json"],
    ["faces"],
    ["faces", "s.json", "extra"],
    ["faces", "s.json", "--bogus"],
    ["faces", "s.json", "-z"],
    ["faces", "s.json", "--output", "xml"],
    ["faces", "s.json", "--max-dim=y"],
    ["faces", "s.json", "--cache-dir", "d"],
    ["faces", "s.json", "--suite", "hall"],
    ["verify", "s.json"],
    ["verify", "--suite", "hall"],
    ["verify", "s.json", "--suite"],
    ["verify", "s.json", "--suite", "nope"],
    ["verify", "s.json", "--suite", "--samples"],
    ["verify", "s.json", "--suite", "hall", "--samples", "ten"],
    ["verify", "s.json", "--suite", "hall", "--q"],
    ["verify", "s.json", "--s", "hall"],
    ["closure", "s.json", "--face"],
    ["closure", "s.json", "--fa"],
    ["Faces", "s.json"],
]

# where the parsers differ on purpose, each on a token that starts with -.
# A value that starts with - is an option's value, not an option: argparse
# reads -3,0 as an unknown option and stops with "expected one argument".
# -- makes every later token positional, the command included: argparse
# takes -- itself for the command and stops with "invalid choice: '--'"
DIFFERENCES = [
    (["closure", "s.json", "--face", "-3,0"], {"face": ["-3,0"], "ray": None}),
    (["closure", "s.json", "--ray", "-1,2", "--ray", "-1/2,0"], {"face": None, "ray": ["-1,2", "-1/2,0"]}),
    (["closure", "s.json", "--face", "--ray"], {"face": ["--ray"], "ray": None}),
    (["--", "faces", "s.json"], {"command": "faces", "max_dim": 3}),
]

# argvs on which the table parser once differed from argparse and now gives
# its fields, or its exit, stdout and error line: -- alone (it matched
# --help as a prefix), -h/--help given a value, -1. (not a negative number),
# a token with a space (a positional), and an ambiguous prefix given a value
FIXED = {
    "double-dash-alone": ["--"],
    "help-with-a-value": ["--help=x"],
    "h-with-a-value": ["-h=x"],
    "command-help-with-a-value": ["faces", "--help=x"],
    "command-h-with-a-value": ["faces", "s.json", "-h=x"],
    "help-prefix-with-an-empty-value": ["verify", "--he=", "s.json"],
    "dot-ended-number": ["faces", "-1."],
    "dash-and-a-space": ["faces", "-x y"],
    "ambiguous-prefix-with-a-value": ["verify", "s.json", "--s=hall"],
}


def _outcome(parse, argv):
    """The parsed fields, or the exit code and both streams of a SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return {"exit": exc.code, "out": out.getvalue(), "err": err.getvalue()}


def _exit(outcome):
    return outcome.get("exit")


def test_the_corpus_holds_the_suites_and_the_benchmarks_argvs():
    suite, bench = _corpus()
    assert len(suite) > 150 and len(bench) == 16
    assert {argv[0] for argv in suite + bench} == {"faces", "closure", "verify"}


def test_the_table_parser_gives_argparses_fields_on_the_corpus():
    suite, bench = _corpus()
    oracle = argparse_cli_parser().parse_args
    differ = []
    for argv in suite + bench + FORMS:
        mine, theirs = _outcome(cli._parse_args, argv), _outcome(oracle, argv)
        if _exit(mine) is not None or _exit(theirs) is not None:
            # one argv of the suite is a usage error on purpose (--cache-dir)
            same = _exit(mine) == _exit(theirs) == 2
        else:
            same = mine == theirs
        if not same:
            differ.append((argv, mine, theirs))
    assert not differ, differ
    assert sum(_exit(_outcome(oracle, argv)) == 2 for argv in suite) == 1


def test_both_parsers_exit_2_on_malformed_argvs():
    oracle = argparse_cli_parser().parse_args
    for argv in MALFORMED:
        mine, theirs = _outcome(cli._parse_args, argv), _outcome(oracle, argv)
        assert _exit(mine) == _exit(theirs) == 2, argv
        assert mine["out"] == "" and mine["err"].startswith("usage: complat"), argv
        assert " error: " in mine["err"].splitlines()[-1], argv


@pytest.mark.parametrize("argv,fields", DIFFERENCES)
def test_a_value_starting_with_a_dash_is_the_one_listed_difference(argv, fields):
    mine = _outcome(cli._parse_args, argv)
    assert mine == {"command": "closure", "spec": "s.json", "output": "json", **fields}
    theirs = _outcome(argparse_cli_parser().parse_args, argv)
    refusal = "invalid choice: '--'" if argv[0] == "--" else "expected one argument"
    assert _exit(theirs) == 2 and refusal in theirs["err"]


@pytest.mark.parametrize("argv", FIXED.values(), ids=FIXED)
def test_the_parser_matches_argparse_where_it_once_differed(argv):
    # argparse wraps verify's long usage line; the table parser does not
    mine, theirs = _outcome(cli._parse_args, argv), _outcome(argparse_cli_parser().parse_args, argv)
    for outcome in (mine, theirs):
        if "err" in outcome:
            outcome["err"] = outcome["err"].splitlines()[-1]
    assert mine == theirs


def test_help_exits_0_for_each_abbreviation_and_position():
    oracle = argparse_cli_parser().parse_args
    for argv in (["-h"], ["--help"], ["--he"], ["faces", "-h"], ["verify", "s.json", "--suite", "hall", "--h"]):
        mine, theirs = _outcome(cli._parse_args, argv), _outcome(oracle, argv)
        assert _exit(mine) == _exit(theirs) == 0, argv
        assert mine["err"] == "" and mine["out"].startswith("usage: complat"), argv


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_the_table_keeps_argparses_options(command):
    # flag, kind, default (... when required) and help of each option, and
    # the command's help line, read off the oracle's actions
    commands = next(a for a in argparse_cli_parser()._actions if a.dest == "command")
    sub = commands.choices[command]
    theirs = {
        (
            a.option_strings[0],
            list if isinstance(a, argparse._AppendAction) else a.type or tuple(a.choices),
            ... if a.required else a.default,
            a.help,
        )
        for a in sub._actions
        if a.option_strings and a.dest != "help"
    }
    assert set(cli._COMMANDS[command][2]) == theirs
    assert [a.help for a in sub._actions if a.dest == "spec"] == [cli._SPEC_HELP]
    assert {c.dest: c.help for c in commands._choices_actions}[command] == cli._COMMANDS[command][1]


def _spawn(*argv):
    return subprocess.run(
        [sys.executable, "-m", "complat.cli", *argv],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": PACKAGE_PATH},
    )


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_help_lists_every_option_of_the_table_with_its_help(command):
    argv = ["--help"] if command is None else [command, "--help"]
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stdout(io.StringIO()) as out:
        cli.main(argv)
    assert exc.value.code == 0
    text = out.getvalue()
    assert text == _spawn(*argv).stdout
    if command is None:
        expected = [(name, entry[1]) for name, entry in cli._COMMANDS.items()]
    else:
        expected = [("spec", cli._SPEC_HELP), ("-h, --help", "show this help message and exit")]
        expected += [(flag, line_help or "") for flag, _, _, line_help in cli._COMMANDS[command][2]]
    lines = text.splitlines()
    for name, line_help in expected:
        # a long name puts its help on the next line
        at = next(i for i, line in enumerate(lines) if line.startswith(f"  {name}"))
        assert line_help in " ".join(lines[at : at + 2]), (name, line_help)


def test_a_leading_double_dash_runs_the_command():
    plain, dashed = _spawn("faces", "specs/a2_gl2.json"), _spawn("--", "faces", "specs/a2_gl2.json")
    assert (dashed.returncode, dashed.stdout, dashed.stderr) == (0, plain.stdout, "")


@pytest.mark.parametrize(
    "argv,prog,message",
    [
        ([], "complat", "the following arguments are required: command"),
        (
            ["bogus"],
            "complat",
            "argument command: invalid choice: 'bogus' (choose from 'faces', 'closure', 'verify')",
        ),
        (["faces", "specs/a1_gm.json", "--bogus"], "complat faces", "unrecognized arguments: --bogus"),
        (["closure", "specs/a1_gm.json", "--ray"], "complat closure", "argument --ray: expected one argument"),
        (
            ["verify", "specs/a1_gm.json", "--suite", "constancy", "--samples", "ten"],
            "complat verify",
            "argument --samples: invalid int value: 'ten'",
        ),
        (
            ["faces", "specs/a1_gm.json", "--output", "xml"],
            "complat faces",
            "argument --output: invalid choice: 'xml' (choose from 'json', 'text')",
        ),
        (["faces"], "complat faces", "the following arguments are required: spec"),
        (["verify", "specs/a1_gm.json"], "complat verify", "the following arguments are required: --suite"),
    ],
    ids=[
        "no-command", "unknown-command", "unknown-option", "missing-value",
        "bad-int", "bad-choice", "missing-spec", "missing-suite",
    ],
)
def test_usage_errors_exit_2_with_an_error_line(capsys, argv, prog, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    usage = cli._usage(None if prog == "complat" else argv[0])
    assert out == "" and err == f"{usage}\n{prog}: error: {message}\n"
    spawned = _spawn(*argv)
    assert (spawned.returncode, spawned.stdout, spawned.stderr) == (2, "", err)
