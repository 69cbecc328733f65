import doctest
import json
import shlex
from pathlib import Path

from sqword.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs_as_a_doctest():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def readme_command_lines() -> list[list[str]]:
    # every `sqword ...` line of the "Command line" section's shell block
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("sqword ")
    ]


def test_command_lines_run(capsys):
    lines = readme_command_lines()
    commands = {"classify", "check", "sqrt", "gen", "count", "list", "orbits", "fixedpoint", "period"}
    assert {argv[0] for argv in lines} == commands
    for argv in lines:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if build_parser().parse_args(argv).format == "json":
            envelope = json.loads(out)
            assert set(envelope) == {"command", "inputs", "result", "version"}
            assert envelope["command"] == argv[0], argv
        else:
            assert out, argv
