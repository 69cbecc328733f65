import argparse
import json
import sys
import tracemalloc
from fractions import Fraction

import pytest

import sqword.cli
from sqword import __version__
from sqword.cli import _spaced, _word_report, build_parser, main
from sqword.dynamics import SquareStream, fixed_point_stream, no_square_prefix_word
from sqword.solutions import doubling_orbits
from sqword.standard import standard_from_directive
from test_enumeration import generate_and_test
from test_standard import all_directives, central_recognizer


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    envelope = json.loads(out)
    assert set(envelope) == {"command", "inputs", "result", "version"}
    assert envelope["version"] == __version__
    return envelope


class TestClassifyCommand:
    def test_type_one(self, capsys):
        env = run_json(capsys, "classify", "--word", "01010010")
        assert env["command"] == "classify"
        assert env["result"]["verdict"] == "TypeI"
        assert [1, 0] in env["result"]["params"]

    def test_contradiction_is_a_domain_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sqword.solutions.has_params", lambda *args: False)
        code, out, err = run_cli(capsys, "classify", "--word", "01010010" * 2)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "Traceback" not in err

    def test_type_two(self, capsys):
        env = run_json(capsys, "classify", "--word", "100100100101001001010010")
        assert env["result"]["verdict"] == "TypeII"
        assert env["result"]["S"] == "01010010"
        assert env["result"]["u"] == "LSS"

    def test_deterministic(self, capsys):
        one = run_cli(capsys, "classify", "--word", "0101")
        two = run_cli(capsys, "classify", "--word", "0101")
        assert one == two

    def test_word_file(self, capsys, tmp_path):
        path = tmp_path / "word.txt"
        path.write_text("01010010\n")
        env = run_json(capsys, "classify", "--word-file", str(path))
        assert env["result"]["verdict"] == "TypeI"

    def test_missing_word_file(self, capsys, tmp_path):
        missing = tmp_path / "missing.txt"
        code, out, err = run_cli(capsys, "classify", "--word-file", str(missing))
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot read word file") and "Traceback" not in err


class TestCountCommand:
    def test_single(self, capsys):
        env = run_json(capsys, "count", "--n", "24")
        assert env["result"]["count"] == 14

    def test_range_csv(self, capsys):
        code, out, err = run_cli(capsys, "--format", "csv", "count", "--range", "1..36")
        assert code == 0
        rows = out.strip().split("\n")
        assert len(rows) == 36
        assert rows[0] == "1,1"
        assert rows[23] == "24,14"
        assert rows[35] == "36,20"

    def test_brute_agreement(self, capsys):
        env = run_json(capsys, "count", "--n", "12", "--brute")
        assert env["result"]["count"] == env["result"]["brute_count"] == 7

    def test_missing_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("sqword: error: count needs --n or --range\n")

    def test_n_is_the_one_length_range(self, capsys):
        single = run_json(capsys, "count", "--n", "24")["result"]
        assert isinstance(single, dict)
        assert run_json(capsys, "count", "--range", "24..24")["result"] == [single]
        ranged = run_json(capsys, "count", "--range", "2..4")["result"]
        assert [r["n"] for r in ranged] == [2, 3, 4]
        # --n with --range is refused rather than dropped
        with pytest.raises(SystemExit) as exc:
            main(["count", "--n", "5", "--range", "2..4"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("sqword: error: count needs --n or --range, not both\n")

    @pytest.mark.parametrize("text", ["a..b", "5"])
    def test_bad_range(self, capsys, text):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--range", text])
        assert exc.value.code == 2
        assert "--range needs LO..HI" in capsys.readouterr().err


class TestGenerateCommands:
    def test_standard(self, capsys):
        env = run_json(capsys, "gen", "standard", "--directive", "2,1,1,1")
        assert env["result"]["word"] == "01001010"
        assert env["result"]["directive"] == [2, 1, 1, 1]
        assert env["result"]["slope"] == "3/8"
        assert env["result"]["central"] == "010010"

    def test_fibonacci_reversed(self, capsys):
        env = run_json(capsys, "gen", "fibonacci", "--k", "4", "--reversed")
        assert env["result"]["word"] == "01010010"

    def test_central(self, capsys):
        env = run_json(capsys, "gen", "central", "--c", "3", "--d", "8")
        assert env["result"]["word"] == "010010"

    def test_generated_words_classify_as_solutions(self, capsys):
        env = run_json(capsys, "gen", "standard", "--directive", "2,2,1", "--reversed")
        word = env["result"]["word"]
        verdict = run_json(capsys, "classify", "--word", word)
        assert verdict["result"]["verdict"] == "TypeI"

    def test_bad_directive(self, capsys):
        code, out, err = run_cli(capsys, "gen", "standard", "--directive", "0,1")
        assert code == 1
        assert "error" in err

    def test_non_integer_directive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "standard", "--directive", "2,x"])
        assert exc.value.code == 2
        assert "--directive needs integer terms" in capsys.readouterr().err

    def test_standard_with_leading_one(self, capsys):
        env = run_json(capsys, "gen", "standard", "--directive", "1,2")
        assert env["result"] == {
            "word": "110",
            "directive": [1, 2],
            "central": "1",
            "slope": "2/3",
        }

    @pytest.mark.parametrize(
        "argv,word,directive,central,slope",
        [
            (["fibonacci", "--k", "-1"], "1", [1], "", "1/1"),
            (["fibonacci", "--k", "0"], "0", [], "", "0/1"),
            (["fibonacci", "--k", "1"], "01", [2], "", "1/2"),
            (["standard", "--directive", "1"], "1", [1], "", "1/1"),
            (["standard", "--directive", "1,1"], "10", [1, 1], "", "1/2"),
            (["standard", "--directive", "2,1,1", "--reversed"], "10010", [2, 1, 1], "010", "2/5"),
        ],
    )
    def test_base_words(self, capsys, argv, word, directive, central, slope):
        env = run_json(capsys, "gen", *argv)
        assert env["result"] == {
            "word": word,
            "directive": directive,
            "central": central,
            "slope": slope,
        }

    def test_report_agrees_with_central_recognizer(self):
        # the central word and slope of the per-letter recognizer; single
        # letters get an empty central word and the slope 0/1 or 1/1
        for directive in all_directives(200):
            word = standard_from_directive(directive)
            central = central_recognizer(word[::-1])
            assert central is not None, directive
            ratio = Fraction(word.count("1"), len(word))
            for reverse in (False, True):
                assert _word_report(word, directive, reverse) == {
                    "word": word[::-1] if reverse else word,
                    "directive": list(directive),
                    "central": central,
                    "slope": f"{ratio.numerator}/{ratio.denominator}",
                }, directive


class TestSqrtAndCheck:
    def test_sqrt(self, capsys):
        env = run_json(capsys, "sqrt", "--word", "0101001001010010", "--a", "1", "--b", "0")
        assert env["result"]["sqrt"] == "01010010"

    def test_sqrt_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "sqrt", "--word", "01", "--a", "1")
        assert code == 1 and "error" in err

    def test_sqrt_trim(self, capsys):
        env = run_json(
            capsys, "sqrt", "--word", "010100100101001001", "--a", "1", "--trim"
        )
        assert env["result"]["sqrt"] == "01010010"
        assert env["result"]["trimmed"] == 2

    def test_check_with_params(self, capsys):
        env = run_json(capsys, "check", "--word", "01010010", "--a", "1", "--b", "0")
        assert env["result"]["solution"] is True

    def test_check_search(self, capsys):
        env = run_json(capsys, "check", "--word", "0110")
        assert env["result"]["solution"] is False
        assert env["result"]["params"] == []

    def test_check_echoes_bounds_used(self, capsys):
        env = run_json(capsys, "check", "--word", "0101")
        assert env["result"]["bounds"] == [8, 8]
        assert env["result"]["solution"] is True
        env = run_json(capsys, "check", "--word", "0101", "--a-max", "0")
        assert env["result"]["bounds"] == [0, 8]
        assert env["result"]["solution"] is False

    def test_b_needs_a(self, capsys):
        # a nonzero --b without --a is refused rather than dropped; the
        # default 0 still leaves the search as it was
        with pytest.raises(SystemExit) as exc:
            main(["check", "--word", "0101", "--b", "5"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("sqword: error: check takes --b only with --a\n")
        env = run_json(capsys, "check", "--word", "0101", "--b", "0")
        assert env["result"]["params"] == run_json(capsys, "check", "--word", "0101")["result"]["params"]


class TestOtherCommands:
    def test_list(self, capsys):
        env = run_json(capsys, "list", "--n", "4")
        assert env["result"]["solutions"] == ["0000", "0100", "0101"]

    @pytest.mark.parametrize("caps", [(1, None), (2, 0), (3, 2), (None, 1), (0, 5)])
    def test_capped_list_equals_generate_and_test(self, capsys, caps):
        flags = []
        for flag, cap in zip(("--a-cap", "--b-cap"), caps):
            if cap is not None:
                flags += [flag, str(cap)]
        for n in range(1, 19):
            env = run_json(capsys, "list", "--n", str(n), *flags)
            assert env["result"]["solutions"] == generate_and_test(n, *caps), n

    def test_list_round_trips_through_check(self, capsys):
        env = run_json(capsys, "list", "--n", "6")
        for word in env["result"]["solutions"]:
            checked = run_json(capsys, "check", "--word", word)
            assert checked["result"]["solution"] is True

    def test_orbits(self, capsys):
        env = run_json(capsys, "orbits", "--n", "7")
        assert env["result"]["orbit_count"] == 3
        assert env["result"]["orbits"] == [[0], [1, 2, 4], [3, 5, 6]]
        assert run_cli(capsys, "--format", "text", "orbits", "--n", "7") == (0, "0\n1 2 4\n3 5 6\n", "")

    def test_text_orbits_join_a_slice_at_a_time(self, capsys):
        # 2 is a primitive root mod 3^10, so its units are one orbit of
        # 39,366 residues, ten slices.  The bytes are the plain join's, and
        # the join peaks at about twice the line, where a plain join holds a
        # str per residue, about 12 bytes a letter.
        orbits = doubling_orbits(3**10)
        longest = max(orbits, key=len)
        assert len(longest) > 4096
        code, out, err = run_cli(capsys, "--format", "text", "orbits", "--n", str(3**10))
        assert (code, err) == (0, "")
        assert out == "".join(" ".join(map(str, orbit)) + "\n" for orbit in orbits)
        tracemalloc.start()
        try:
            line = _spaced(longest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(line)

    def test_fixedpoint_sl(self, capsys):
        env = run_json(
            capsys,
            "fixedpoint",
            "--kind", "sl",
            "--word", "01010010",
            "--c", "1",
            "--length", "64",
        )
        assert env["result"]["prefix"].startswith("0101001001010010")
        assert env["result"]["blocks"][:3] == [2, 1, 6]

    def test_fixedpoint_nosquare_text(self, capsys):
        code, out, err = run_cli(
            capsys, "--format", "text", "fixedpoint", "--kind", "nosquare",
            "--a", "1", "--length", "20",
        )
        assert code == 0
        assert out.startswith("1001001001010010")

    def test_fixedpoint_biperiodic(self, capsys):
        env = run_json(
            capsys, "fixedpoint", "--kind", "biperiodic", "--a", "2", "--length", "30"
        )
        assert env["result"]["blocks"][:2] == [2, 1]
        assert env["result"]["b"] == 0

    def test_fixedpoint_sl_needs_word(self, capsys):
        code, out, err = run_cli(capsys, "fixedpoint", "--kind", "sl", "--length", "10")
        assert code == 1

    def test_period(self, capsys):
        env = run_json(capsys, "period", "--word", "0010101", "--max-period", "4")
        assert env["result"]["preperiod"] == 1
        assert env["result"]["period"] == 2
        assert list(env["result"]) == ["preperiod", "period", "period_word", "conjugate_to", "word"]

    def test_period_with_a_huge_max_period(self, capsys):
        # only periods up to half the word can qualify, so this is instant
        env = run_json(capsys, "period", "--word", "0001", "--max-period", str(10**12))
        assert env["result"] == {"word": "0001", "period": None}

    @pytest.mark.parametrize(
        "before, after, shown",
        [(["--format", "csv"], [], "csv"), ([], ["--format", "csv"], "csv"),
         (["--format", "text"], ["--format", "csv"], "csv"),
         (["--format", "csv"], ["--format", "json"], "json")],
    )
    def test_format_before_or_after_the_command(self, capsys, before, after, shown):
        code, out, err = run_cli(capsys, *before, "count", "--range", "1..3", *after)
        assert code == 0
        if shown == "csv":
            assert out == "1,1\n2,2\n3,2\n"
        else:
            assert [r["count"] for r in json.loads(out)["result"]] == [1, 2, 2]

    def test_every_command_has_a_handler(self, capsys, monkeypatch):
        commands = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ).choices
        assert all(callable(getattr(sqword.cli, "_cmd_" + name, None)) for name in commands)
        # handlers are looked up at call time, so a replaced one runs
        monkeypatch.setattr("sqword.cli._cmd_orbits", lambda args: ({"n": args.n}, ["stub"]))
        assert run_cli(capsys, "--format", "text", "orbits", "--n", "7") == (0, "stub\n", "")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check"], "a word is required (use --word or --word-file)"),
            (["check", "--word", ""], "solutions are nonempty"),
            (["fixedpoint", "--kind", "nosquare", "--length", "10"], "kind 'nosquare' needs --a"),
            (["fixedpoint", "--kind", "sl", "--word", "01x", "--length", "10"],
             "invalid letter 'x' in binary word"),
            (["fixedpoint", "--kind", "sl", "--word", "01010010", "--length", "0"],
             "prefix length must be >= 1"),
            (["orbits", "--n", "0"], "orbit partition needs n >= 1"),
            (["gen", "fibonacci", "--k", "-2"], "fibonacci index must be >= -1"),
        ],
    )
    def test_domain_error(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fixedpoint", "--kind", "bogus", "--length", "5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "kind",
        [["sl", "--word", "01010010"], ["nosquare", "--a", "1"], ["biperiodic", "--a", "1"]],
        ids=["sl", "nosquare", "biperiodic"],
    )
    def test_fixedpoint_has_no_b(self, capsys, kind):
        # every kind's parameters are fixed: sl's by its block, the others' b at 0
        with pytest.raises(SystemExit) as exc:
            main(["fixedpoint", "--kind", *kind, "--b", "1", "--length", "10"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("unrecognized arguments: --b 1\n")

    @pytest.mark.parametrize(
        "argv",
        [["check"], ["check", "--a", "1"], ["classify"], ["sqrt", "--a", "1"], ["period"]],
    )
    @pytest.mark.parametrize("source", ["--word", "--word-file"])
    def test_letters_are_checked_by_the_library(self, capsys, tmp_path, argv, source):
        word = "01x"
        if source == "--word-file":
            word = tmp_path / "word.txt"
            word.write_text("01x\n", encoding="utf-8")
        message = "error: invalid letter 'x' in binary word\n"
        assert run_cli(capsys, *argv, source, str(word)) == (1, "", message)

    def test_word_file_keeps_inner_blanks(self, capsys, tmp_path):
        # only the ends of the file are stripped, wherever its pieces break
        path = tmp_path / "word.txt"
        path.write_text("0" * (2**20 - 1) + " 1\n", encoding="utf-8")
        message = "error: invalid letter ' ' in binary word\n"
        assert run_cli(capsys, "period", "--word-file", str(path)) == (1, "", message)


class TestCaps:
    """Requests past a cap exit 1 before anything is built."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a capped request reached the package")

        for name in (
            "fixed_point_stream",
            "no_square_prefix_word",
            "two_periodic_word",
            "brute_force_solutions",
            "has_params",
            "count_solutions",
            "find_params",
            "classify",
            "standard_from_directive",
            "fibonacci_word",
            "central_word",
            "doubling_orbits",
            "is_solution",
            "square_root",
            "detect_period",
        ):
            monkeypatch.setattr(f"sqword.cli.{name}", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["fixedpoint", "--kind", "sl", "--word", "01010010", "--length", str(10**12)],
            ["fixedpoint", "--kind", "nosquare", "--a", "1", "--length", str(10**7 + 1)],
            # words of more than 10^7 letters, whatever their letters
            ["check", "--word", "0" * (10**7 + 1), "--a", "1"],
            ["classify", "--word", "x" * (10**7 + 1)],
            ["period", "--word", "01" * (5 * 10**6 + 1)],
            # the sixth square at b = 0 has 4a + 6 letters
            ["fixedpoint", "--kind", "nosquare", "--a", "2499999", "--length", "10"],
            ["fixedpoint", "--kind", "biperiodic", "--a", str(10**7), "--length", "10"],
            ["count", "--n", "61", "--brute"],
            ["count", "--n", "80", "--brute"],
            ["count", "--range", "52..61", "--brute"],
            ["list", "--n", "80"],
            ["list", "--n", "5", "--b-cap", str(10**6)],
            ["list", "--n", "5", "--a-cap", str(10**3 + 1)],
            ["count", "--range", f"1..{10**9}"],
            ["count", "--range", f"1..{10**4 + 1}"],
            ["count", "--n", str(10**6 + 1)],
            ["count", "--n", "3000000000021"],
            ["count", "--range", f"{10**6 - 9}..{10**6 + 1}"],
            ["count", "--range", f"{10**12}..{10**12}"],
            ["check", "--word", "0", "--a-max", str(10**5), "--b-max", str(10**5)],
            ["check", "--word", "0", "--b-max", str(10**3 + 1)],
            ["classify", "--word", "0", "--a-max", str(10**3 + 1)],
            ["classify", "--word", "0101", "--b-max", str(10**9)],
            ["gen", "standard", "--directive", str(10**7 + 1)],
            ["gen", "standard", "--directive", str(10**9)],
            ["gen", "standard", "--directive", "2," + ",".join(["1"] * 10**5)],
            ["gen", "standard", "--directive", "2,5000001"],
            ["gen", "fibonacci", "--k", "34"],
            ["gen", "fibonacci", "--k", "45"],
            ["gen", "fibonacci", "--k", str(10**18)],
            ["gen", "central", "--c", "1", "--d", str(10**7 + 3)],
            ["gen", "central", "--c", "3", "--d", str(10**9)],
            ["orbits", "--n", str(10**6 + 1)],
            ["orbits", "--n", str(10**9)],
            ["--format", "text", "orbits", "--n", str(10**6 + 1)],
        ],
    )
    def test_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "capped" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("letters", [10**7 + 1, 15 * 10**6])
    def test_word_file_past_the_cap(self, capsys, tmp_path, letters):
        path = tmp_path / "word.txt"
        path.write_text("0" * letters, encoding="utf-8")
        code, out, err = run_cli(capsys, "sqrt", "--word-file", str(path), "--a", "1")
        assert (code, out) == (1, "")
        prefix = f"error: words are capped at {10**7} letters, got at least "
        assert err.startswith(prefix)
        # read in pieces: the refusal comes before the end of a longer file
        assert 10**7 < int(err[len(prefix):]) <= min(letters, 11 * 10**6)


def refuse(*args, **kwargs):
    raise AssertionError("a refused request built a prefix")


@pytest.mark.parametrize("flag, natural", [("--a", 1), ("--b", 0)])
def test_fixedpoint_conflicting_param_is_rejected(capsys, monkeypatch, flag, natural):
    # the block 01010010 has the natural parameters (1, 0)
    code, out, err = run_cli(capsys, "fixedpoint", "--kind", "sl", "--word", "01010010",
                             "--a", "1", "--length", "17")
    assert (code, json.loads(out)["result"]["b"]) == (0, 0)
    monkeypatch.setattr(SquareStream, "prefix_blocks", refuse)
    argv = ["fixedpoint", "--kind", "sl", "--word", "01010010", flag, "5", "--length", "17"]
    if flag == "--b":
        # b is read off the block alone, so there is no flag to conflict
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        return
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {flag} 5 conflicts with the block's natural value {natural}\n"


def test_caps_admit_their_limits(capsys, monkeypatch, tmp_path):
    seen = []
    monkeypatch.setattr("sqword.cli.brute_force_solutions", lambda *args: seen.append(args) or ["0"])
    monkeypatch.setattr("sqword.cli.has_params", lambda w, *caps: seen.append(caps) or True)
    run_json(capsys, "list", "--n", "60")
    run_json(capsys, "list", "--n", "5", "--a-cap", "1000", "--b-cap", "1000")
    assert seen == [(60,), (None, None), (5,), (1000, 1000)]
    # --c up to the library's bound sys.maxsize // 2 at any length, the
    # stream's memory following the length; the streams run at c = 1 with a
    # stub prefix
    chains = []
    monkeypatch.setattr(
        "sqword.cli.fixed_point_stream", lambda w, c: chains.append(c) or fixed_point_stream(w, 1)
    )
    monkeypatch.setattr(
        SquareStream, "prefix_blocks", lambda self, n: chains.append(n) or ("00", (1,))
    )
    limits = [(10**9, 17), (10**9 + 1, 17), (sys.maxsize // 2, 17), (833333, 17), (1, 10**7),
              (2, 6250001), (2, 10**7)]
    for c, length in limits:
        run_json(capsys, "fixedpoint", "--kind", "sl", "--word", "01010010",
                 "--c", str(c), "--length", str(length))
    assert chains == [n for limit in limits for n in limit]
    makers = []
    monkeypatch.setattr(
        "sqword.cli.no_square_prefix_word", lambda a: makers.append(a) or no_square_prefix_word(1)
    )
    run_json(capsys, "fixedpoint", "--kind", "nosquare", "--a", "2499998", "--length", "10")
    assert makers == [2499998]
    code, out, err = run_cli(capsys, "--format", "csv", "count", "--range", f"1..{10**4}")
    assert code == 0 and len(out.split()) == 10**4
    env = run_json(capsys, "count", "--n", str(10**6))
    assert env["result"]["n"] == 10**6
    code, out, err = run_cli(capsys, "--format", "csv", "count", "--range", f"{10**6 - 9}..{10**6}")
    assert code == 0 and len(out.split()) == 10
    bounds = []
    monkeypatch.setattr("sqword.cli.find_params", lambda w, *b: bounds.append(b) or set())
    run_json(capsys, "check", "--word", "0", "--a-max", "1000", "--b-max", "1000")
    assert bounds == [(1000, 1000)]
    env = run_json(capsys, "classify", "--word", "0101", "--a-max", "1000", "--b-max", "1000")
    assert env["result"]["verdict"] == "PowerOfPrimitive"
    built = []
    # the largest words within 10^7 letters: 10^7, F(35) = 9,227,465, d - 2 = 10^7
    monkeypatch.setattr("sqword.cli.standard_from_directive", lambda d: built.append(d) or "0")
    run_json(capsys, "gen", "standard", "--directive", str(10**7))
    monkeypatch.setattr("sqword.cli.fibonacci_word", lambda k: built.append(k) or "0")
    run_json(capsys, "gen", "fibonacci", "--k", "33")
    monkeypatch.setattr("sqword.cli.central_word", lambda c, d: built.append(d) or "0")
    run_json(capsys, "gen", "central", "--c", "1", "--d", str(10**7 + 2))
    monkeypatch.setattr("sqword.cli.doubling_orbits", lambda n: built.append(n) or ())
    run_json(capsys, "orbits", "--n", str(10**6))
    assert built == [(10**7,), 33, 10**7 + 2, 10**6]
    # words of 10^7 letters, given or read from a file around blank space
    path = tmp_path / "word.txt"
    path.write_text(" \n" + "01" * (5 * 10**6) + "\n\n", encoding="utf-8")
    monkeypatch.setattr("sqword.cli.detect_period", lambda w, *args: built.append(len(w)))
    for source in (["--word", "0" * 10**7], ["--word-file", str(path)]):
        run_json(capsys, "period", *source)
    assert built[-2:] == [10**7, 10**7]


@pytest.mark.parametrize("c", [5 * 10**18, 10**19])
def test_fixedpoint_c_past_the_library_bound(capsys, monkeypatch, c):
    monkeypatch.setattr(SquareStream, "prefix_blocks", refuse)
    code, out, err = run_cli(capsys, "fixedpoint", "--kind", "sl", "--word", "01010010",
                             "--c", str(c), "--length", "17")
    assert (code, out) == (1, "")
    assert err == f"error: the power parameter c must be <= {sys.maxsize // 2}\n"


def test_fixedpoint_at_the_c_cap_builds_only_what_it_prints(capsys):
    # Z(j+1) = exchange(Zj) Zj^(2c) is walked lazily: 17 letters at the
    # largest c repeat the base piece Z0 Z0 by reference, and no level is built
    tracemalloc.start()
    try:
        env = run_json(capsys, "fixedpoint", "--kind", "sl", "--word", "01010010",
                       "--c", str(sys.maxsize // 2), "--length", "17")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert env["result"]["prefix"] == ("01010010" * 3)[:20]
    assert env["result"]["blocks"] == [2, 1, 6, 2]
    assert peak < 20 * 2**20
