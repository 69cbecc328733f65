"""The CLI's bytes, pinned: one row per command line.

Each row gives the exit code, the SHA-1 of stdout and the last line of
stderr of one command line run through ``cli.main``.  A change that moves
any of them shows up as an edited row.  ``x{N}`` in a line stands for the
letter x repeated N times.  To print the table as the current code answers
it, run ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import argparse
import contextlib
import hashlib
import io
import re
import shlex

import pytest

from sqword.cli import main
from test_readme import readme_command_lines

ROWS = [
    # line, exit code, SHA-1 of stdout, last line of stderr
    # the README's command lines
    ('classify --word 01010010', 0, 'dd6e505875bc6d8156bce71d620ed33980cd0a89', ''),
    ('classify --word 100100100101001001010010', 0, '006650b74b71544ebbd82215682e7017175748bf', ''),
    ('check --word 0101', 0, '984317232b326fd6060d74fc3e787786ab68546c', ''),
    ('sqrt --word 0101001001010010 --a 1 --b 0', 0, 'c421008d15f6103c6cb69f464a44c7a7cefabf07', ''),
    ('sqrt --word 010100100101001001 --a 1 --trim', 0, '506301706bf9f33d50d9488da39658ab5e8defb4', ''),
    ('gen standard --directive 2,1,1,1 --reversed', 0, 'aab0ea7c5ee4bde012719c80227a718a6e3c06fa', ''),
    ('gen central --c 3 --d 8', 0, 'fe54abc967ada04cd2513124029bd05c9f06d3fb', ''),
    ('count --n 24', 0, 'bac49b62ec2dc2eee1931badbe596d03497fd13f', ''),
    ('count --range 1..36 --format csv', 0, '133d466930ea83f93632d6d86f3a445194e1ee83', ''),
    ('count --n 20 --brute', 0, 'ae8b059920fab98bacd37b73f6290e0bfcbf8b8f', ''),
    ('list --n 6', 0, '88412232c120eb3bd8d25a8fc264f83bd6711a4f', ''),
    ('orbits --n 7', 0, 'f17e33a0779b38160c8e4516f94afb532973ef7c', ''),
    ('fixedpoint --kind sl --word 01010010 --c 1 --length 200', 0, '57da3323eeebd432b6e0a3bfe29990bf7645f9df', ''),
    ('fixedpoint --kind nosquare --a 1 --length 200', 0, '68b29f839b6d06b1f02acf62abf23fc49b60fce6', ''),
    ('fixedpoint --kind biperiodic --a 2 --length 200', 0, '202af75cee86327dffd06b649c2279904f7928a6', ''),
    ('period --word 0010101 --max-period 4', 0, '3ca720244045ff75759aa16a25def48a51351532', ''),
    # the three fixed-point kinds at 10^4 letters, and other successes
    ('fixedpoint --kind sl --word 01010010 --c 2 --length 10000', 0, 'cdd0684e947a85095a3e646c224ccaa203b1dc64', ''),
    ('fixedpoint --kind nosquare --a 3 --length 10000 --format text', 0, '6ed39bc9a68ea3a19e7f7196ec3771b8da56dd39', ''),
    ('fixedpoint --kind biperiodic --a 1 --length 10000', 0, 'cfda0be31eaedb79d12bc40287b8bfd4947af017', ''),
    ('fixedpoint --kind sl --word 01010010 --a 1 --length 17', 0, '1375f7a9559ce53966c60326c983298c15d696c4', ''),
    # the three kinds at 10^6 letters, past the flat levels of their streams
    ('fixedpoint --kind nosquare --a 1 --length 1000000', 0, '72c42f2e4a103a8c896778bc17cf558cea81375c', ''),
    ('fixedpoint --kind biperiodic --a 3 --length 1000000', 0, 'd884df411d2dbd31fc7eeec3f5e9850e6252f7b4', ''),
    ('fixedpoint --kind sl --word 01010010 --c 2 --length 1000000', 0, '657ad1a00b3cc21764a72e914276ab00e467df45', ''),
    ('--format text gen fibonacci --k 6', 0, 'a5a5e2e72f23304b4d81e2fe16bb79faa7d58a54', ''),
    ('gen fibonacci --k 6 --format text', 0, 'a5a5e2e72f23304b4d81e2fe16bb79faa7d58a54', ''),
    ('gen standard --directive 2,1 --format text', 0, 'ff30e07b1a449675480220b2c60e57b6bbb6bb8e', ''),
    ('gen central --c 3 --d 8 --format csv', 0, 'e1a4e7d60644e7fb8250fd67ec5735df009f7ebd', ''),
    ('--format csv check --word 01010010 --a 1', 0, 'bbd0511184f15f5b8ccd87af6fafc54576f7faf4', ''),
    ('classify --word 0101 --a-max 1000 --b-max 1000', 0, '6a695be5a3f7c77ea51350f92606290c0a9b8c79', ''),
    ('count --range 5..3', 0, 'e9964af5cfd6bffb47b45a944dd3ab374f6f8720', ''),
    ('orbits --n 12 --format text', 0, '4b7911cf630fc9d86fcf31b9f446c8e263158417', ''),
    ('period --word 0001 --max-period 1000000000000', 0, 'e0b72506faa95a5fbadefe06045e83b190b1ad7d', ''),
    # the widest admitted count range, at the largest admitted n
    ('--format csv count --range 990001..1000000', 0, 'f303997ab15b0ed9c90bf0508519c47df38e7844', ''),
    ('count --n 1000000', 0, 'be21fe3f04208e8d9c61df494efb1dde2c9f9db3', ''),
    # usage errors
    ('--format xml count --n 3', 2, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', "sqword: error: argument --format: invalid choice: 'xml' (choose from 'json', 'csv', 'text')"),
    ('bogus', 2, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', "sqword: error: argument command: invalid choice: 'bogus' (choose from 'gen', 'sqrt', 'check', 'classify', 'count', 'list', 'orbits', 'fixedpoint', 'period')"),
    ('count', 2, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'sqword: error: count needs --n or --range'),
    ('count --range x', 2, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', "sqword: error: --range needs LO..HI, got 'x'"),
    ('count --n x', 2, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', "sqword count: error: argument --n: invalid int value: 'x'"),
    ('gen standard --directive 2,x', 2, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', "sqword: error: --directive needs integer terms, got '2,x'"),
    ('fixedpoint --kind bogus --length 5', 2, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', "sqword fixedpoint: error: argument --kind: invalid choice: 'bogus' (choose from 'sl', 'nosquare', 'biperiodic')"),
    ('fixedpoint --kind sl --word 01010010', 2, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'sqword fixedpoint: error: the following arguments are required: --length'),
    ('check --word 0101 --bogus 1', 2, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'sqword: error: unrecognized arguments: --bogus 1'),
    # flag pairs where one flag would be dropped
    ('count --n 5 --range 1..3', 2, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'sqword: error: count needs --n or --range, not both'),
    ('check --word 0 --a 1 --a-max 100000', 2, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'sqword: error: check takes --a or --a-max/--b-max, not both'),
    ('check --word 0 --a 1 --b-max 5', 2, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'sqword: error: check takes --a or --a-max/--b-max, not both'),
    ('check --word 0101 --b 5', 2, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'sqword: error: check takes --b only with --a'),
    # domain errors
    ('check', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: a word is required (use --word or --word-file)'),
    ("check --word ''", 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: solutions are nonempty'),
    ('check --word-file no-such-file', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', "error: cannot read word file: [Errno 2] No such file or directory: 'no-such-file'"),
    ('sqrt --word 01 --a 1', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: no complete square factorization (stuck at 0)'),
    ('sqrt --word 0101 --a 0', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: parameter a must be >= 1, got 0'),
    ('check --word 01x', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', "error: invalid letter 'x' in binary word"),
    ('check --word 01x --a 1', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', "error: invalid letter 'x' in binary word"),
    ('classify --word 01x', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', "error: invalid letter 'x' in binary word"),
    ('sqrt --word 01x --a 1', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', "error: invalid letter 'x' in binary word"),
    ('period --word 01x', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', "error: invalid letter 'x' in binary word"),
    ('period --word 0101 --reference 2', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', "error: invalid letter '2' in binary word"),
    ('fixedpoint --kind nosquare --length 10', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', "error: kind 'nosquare' needs --a"),
    ('fixedpoint --kind nosquare --a 0 --length 5', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: parameter a must be >= 1, got 0'),
    ('fixedpoint --kind biperiodic --a 0 --length 5', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: parameter a must be >= 1, got 0'),
    ('fixedpoint --kind sl --length 10', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', "error: kind 'sl' needs --word with a reversed standard block"),
    ('fixedpoint --kind sl --word 01010010 --length 0', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: prefix length must be >= 1'),
    ('fixedpoint --kind sl --word 01010010 --a 5 --length 17', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', "error: --a 5 conflicts with the block's natural value 1"),
    ('fixedpoint --kind sl --word 0110 --length 10', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', "error: '0110' is not a reversed standard word with usable parameters"),
    ('fixedpoint --kind sl --word 0 --length 10', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', "error: '0' is not a reversed standard word with usable parameters"),
    ('fixedpoint --kind sl --word 010 --length 10', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: block length 3 does not exceed the sixth root length 5'),
    ('fixedpoint --kind sl --word 01010010 --c 0 --length 10', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: the power parameter c must be >= 1'),
    ('fixedpoint --kind sl --word 01x --length 10', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', "error: invalid letter 'x' in binary word"),
    ('orbits --n 0', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: orbit partition needs n >= 1'),
    ('gen fibonacci --k -2', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: fibonacci index must be >= -1'),
    ('gen standard --directive 0,1', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: directive terms must be positive integers'),
    ('gen central --c 2 --d 4', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: need coprime 1 <= c < d with d >= 2, got c=2, d=4'),
    # fixedpoint --b and --c
    ('fixedpoint --kind sl --word 01010010 --b 0 --length 17', 2, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'sqword: error: unrecognized arguments: --b 0'),
    ('fixedpoint --kind sl --word 01010010 --b 5 --length 17', 2, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'sqword: error: unrecognized arguments: --b 5'),
    ('fixedpoint --kind nosquare --a 1 --b 0 --length 10', 2, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'sqword: error: unrecognized arguments: --b 0'),
    ('fixedpoint --kind biperiodic --a 1 --b 1 --length 10', 2, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'sqword: error: unrecognized arguments: --b 1'),
    ('fixedpoint --kind sl --word 01010010 --c 1000000000 --length 17', 0, 'f72b04c5a833fc06132d341c2b00cbcf880977e2', ''),
    ('fixedpoint --kind sl --word 01010010 --c 1000000001 --length 17', 0, 'f7b9f143d23828410e7a7177b07473f993ee6a9f', ''),
    ('fixedpoint --kind sl --word 01010010 --c 4611686018427387903 --length 17', 0, '425006e567f944c2fd6604a3badcd4502bc79c48', ''),
    ('fixedpoint --kind sl --word 01010010 --c 4611686018427387904 --length 17', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: the power parameter c must be <= 4611686018427387903'),
    ('fixedpoint --kind sl --word 01010010 --c 5000000000000000000 --length 17', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: the power parameter c must be <= 4611686018427387903'),
    ('fixedpoint --kind sl --word 01010010 --c 10000000000000000000 --length 17', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: the power parameter c must be <= 4611686018427387903'),
    # two faults on one line: the first one checked is reported
    ('check --word 01x --a-max 5000', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: --a-max is capped at 1000, got 5000'),
    ('sqrt --word 01x --a 0', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: parameter a must be >= 1, got 0'),
    ('fixedpoint --kind sl --word 01x --c 0 --length 10', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', "error: invalid letter 'x' in binary word"),
    ('fixedpoint --kind sl --word 0110 --c 0 --length 10', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: the power parameter c must be >= 1'),
    ('fixedpoint --kind sl --word 010 --c 0 --length 10', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: the power parameter c must be >= 1'),
    ('fixedpoint --kind sl --word 0110 --length 0', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', "error: '0110' is not a reversed standard word with usable parameters"),
    ('fixedpoint --kind sl --word 01010010 --c 0 --length 0', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: the power parameter c must be >= 1'),
    # caps
    ('fixedpoint --kind sl --word 01010010 --length 1000000000000', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: --length is capped at 10000000 letters, got 1000000000000'),
    ('fixedpoint --kind nosquare --a 1 --length 10000001', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: --length is capped at 10000000 letters, got 10000001'),
    ('fixedpoint --kind nosquare --a 2499999 --length 10', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: --a is capped at 2499998, got 2499999'),
    ('fixedpoint --kind biperiodic --a 10000000 --length 10', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: --a is capped at 2499998, got 10000000'),
    ('count --n 61 --brute', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: brute force is capped at n = 60, got n = 61'),
    ('count --range 52..61 --brute', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: brute force is capped at n = 60, got n = 61'),
    ('list --n 80', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: brute force is capped at n = 60, got n = 80'),
    ('list --n 5 --b-cap 1000000', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: --b-cap is capped at 1000, got 1000000'),
    ('list --n 5 --a-cap 1001', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: --a-cap is capped at 1000, got 1001'),
    ('count --range 1..1000000000', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: --range is capped at 10000 lengths, got 1..1000000000'),
    ('count --range 1..10001', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: --range is capped at 10000 lengths, got 1..10001'),
    ('count --n 1000001', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: count is capped at n = 1000000, got n = 1000001'),
    ('count --range 999991..1000001', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: count is capped at n = 1000000, got n = 1000001'),
    ('check --word 0 --a-max 100000 --b-max 100000', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: --a-max is capped at 1000, got 100000'),
    ('check --word 0 --b-max 1001', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: --b-max is capped at 1000, got 1001'),
    ('classify --word 0 --a-max 1001', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: --a-max is capped at 1000, got 1001'),
    ('classify --word 0101 --b-max 1000000000', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: --b-max is capped at 1000, got 1000000000'),
    ('gen standard --directive 10000001', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: words are capped at 10000000 letters, got at least 10000001'),
    ('gen standard --directive 2,5000001', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: words are capped at 10000000 letters, got at least 10000003'),
    ('gen fibonacci --k 34', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: words are capped at 10000000 letters, got at least 14930352'),
    ('gen central --c 1 --d 10000003', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: --d is capped at 10000002, got 10000003'),
    ('orbits --n 1000001', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: --n is capped at 1000000, got 1000001'),
    ('period --word x{10000001}', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: words are capped at 10000000 letters, got at least 10000001'),
    ('sqrt --a 1 --word 1{10000001}', 1, 'da39a3ee5e6b4b0d3255bfef95601890afd80709', 'error: words are capped at 10000000 letters, got at least 10000001'),
]


def _argv(line: str) -> list[str]:
    return [
        re.sub(r"^(.)\{(\d+)\}$", lambda m: m[1] * int(m[2]), token)
        for token in shlex.split(line)
    ]


def run(line: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(_argv(line))
        except SystemExit as exc:
            code = exc.code
    last = err.getvalue().splitlines()[-1:] or [""]
    return code, hashlib.sha1(out.getvalue().encode()).hexdigest(), last[0]


@pytest.mark.parametrize("line, code, digest, last", ROWS, ids=[row[0] for row in ROWS])
def test_cli_bytes(line, code, digest, last):
    assert run(line) == (code, digest, last)


def test_usage_rows_do_not_read_argparse_wording(monkeypatch):
    # The invalid-choice wording is the CLI's own, so a release whose
    # argparse words it otherwise (3.13.13 drops the quotes around the
    # choices) gives the same usage rows: argparse's check is never reached.
    def reworded(self, action, value):
        raise argparse.ArgumentError(action, "argparse's own wording")

    monkeypatch.setattr(argparse.ArgumentParser, "_check_value", reworded)
    usage = [row for row in ROWS if row[1] == 2]
    assert sum("invalid choice" in row[3] for row in usage) == 3
    for line, code, digest, last in usage:
        assert run(line) == (code, digest, last), line


def test_table_covers_the_readme():
    lines = {tuple(_argv(row[0])) for row in ROWS}
    assert all(tuple(argv) in lines for argv in readme_command_lines())


if __name__ == "__main__":
    for row in ROWS:
        print(f"    ({row[0]!r}, {', '.join(map(repr, run(row[0])))}),")
