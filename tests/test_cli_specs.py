"""Word and shape specs, empty source flags, flags a command does not read and
CSV rows on the command line."""

import argparse
import csv
import io
import json
import re

import pytest

from braidhooks.cli import (EXIT_FAIL, EXIT_PASS, EXIT_USAGE, VERIFIERS, build_parser, main,
                            parse_shape, parse_word)
from braidhooks.errors import ShapeSpecError, WordSpecError
from braidhooks.tableaux import Shape
from braidhooks.words import Word


@pytest.mark.parametrize("spec", ["", "1,,2", "1,x", "12a", ","])
def test_bad_word_spec_is_typed(spec):
    with pytest.raises(WordSpecError, match=repr(spec)):
        parse_word(spec, 4)


def test_word_spec():
    assert parse_word("1,3,1", 4) == Word((1, 3, 1), 4)


@pytest.mark.parametrize("argv", [
    ["window", "--word", "1,,2", "--rank", "3"],
    ["orbits", "--class-of-word", "", "--rank", "3"],
    ["enumerate", "--class-of-word", "", "--rank", "3"],
])
def test_bad_word_spec_names_it(argv, capsys):
    assert main(argv) == EXIT_USAGE
    spec = argv[argv.index("--rank") - 1]
    assert capsys.readouterr().err == (
        f"error: word spec {spec!r} is not comma-separated integers\n"
    )


@pytest.mark.parametrize("argv, message", [
    (["orbits", "--shape", ""], "shape spec '' needs a mode prefix"),
    (["orbits", "--poset", "", "--ideal", "a"], "No such file or directory: ''"),
    (["verify", "poset-edges", "--poset", "", "--ideal", "a"], "No such file or directory: ''"),
    (["enumerate", "--shape", ""], "shape spec '' needs a mode prefix"),
])
def test_empty_source_flag_is_that_source(argv, message, capsys):
    assert main(argv) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, message", [
    ("orbits", "orbits needs --shape, --class-of-word, or --poset\n"),
    ("enumerate", "enumerate needs --shape or --class-of-word\n"),
])
def test_no_source_flag(command, message, capsys):
    assert main([command]) == EXIT_USAGE
    assert capsys.readouterr().err == message


def test_class_of_word_still_runs(capsys):
    assert main(["enumerate", "--class-of-word", "1,3", "--rank", "4"]) == EXIT_PASS
    assert capsys.readouterr().out == "13\n31\ncount: 2\n"


@pytest.mark.parametrize("argv, message", [
    (["enumerate", "--shape", "right:3", "--class-of-word", "1", "--rank", "2"],
     "argument --class-of-word: not allowed with argument --shape"),
    (["orbits", "--shape", "right:3", "--class-of-word", "1", "--rank", "2"],
     "argument --class-of-word: not allowed with argument --shape"),
    (["orbits", "--poset", "{diamond}", "--ideal", "a", "--shape", "right:3"],
     "argument --shape: not allowed with argument --poset"),
    (["orbits", "--class-of-word", "1", "--rank", "2", "--poset", "{diamond}", "--ideal", "a"],
     "argument --poset: not allowed with argument --class-of-word"),
    (["verify", "poset-edges", "--ideal", "a"], "verify poset-edges --ideal needs --poset"),
], ids=["enumerate shape+class", "orbits shape+class", "orbits poset+shape",
        "orbits class+poset", "verify ideal without poset"])
def test_a_second_source_is_refused(argv, message, capsys, tmp_path):
    diamond = tmp_path / "diamond.txt"
    diamond.write_text("a < b\na < c\nb < d\nc < d\n")
    assert main([arg.format(diamond=diamond) for arg in argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv, message", [
    (["orbits", "--class-of-word", "1,2,1", "--rank", "3", "--sample", "5"],
     "orbits --class-of-word does not take --sample\n"),
    (["orbits", "--poset", "{diamond}", "--ideal", "a", "--sample", "3"],
     "orbits --poset does not take --sample\n"),
    (["orbits", "--shape", "right:3,2,1", "--ideal", "a"], "orbits --shape does not take --ideal\n"),
    (["orbits", "--shape", "right:3,2,1", "--rank", "9"], "orbits --shape does not take --rank\n"),
    (["orbits", "--shape", "right:3,2,1", "--seed", "4", "--threads", "2"],
     "orbits --shape does not take --seed\n"),
    (["enumerate", "--shape", "right:3", "--rank", "3"], "enumerate --shape does not take --rank\n"),
    (["verify", "reiner", "--n", "4", "--shape", "right:3,2,1"],
     "unrecognized arguments: --shape right:3,2,1\n"),
    (["verify", "braid-hooks", "--shape", "right:5,2,1", "--n", "9"],
     "unrecognized arguments: --n 9\n"),
    (["verify", "reiner", "--n", "4", "--poset", "nofile", "--ideal", "a"],
     "unrecognized arguments: --poset nofile --ideal a\n"),
    (["verify", "poset-edges", "--poset", "{diamond}", "--ideal", "a", "--group", "gyration"],
     "unrecognized arguments: --group gyration\n"),
    (["verify", "poset-edges", "--poset", "{diamond}", "--ideal", "a", "--count", "9"],
     "verify poset-edges --poset does not take --count\n"),
])
def test_a_flag_the_command_does_not_read_is_refused(argv, message, capsys, tmp_path):
    diamond = tmp_path / "diamond.txt"
    diamond.write_text("a < b\na < c\nb < d\nc < d\n")
    assert main([arg.format(diamond=diamond) for arg in argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(message)  # names the flag, not a file it did not open


@pytest.mark.parametrize("argv, prog", [
    (["verify", "reiner", "--n", "4", "--shape", "right:3,2,1"], "braidhooks verify reiner"),
    (["verify", "poset-edges", "--count", "3", "--group", "gyration"],
     "braidhooks verify poset-edges"),
    (["verify", "--bogus", "reiner"], "braidhooks verify"),
    (["orbits", "--shape", "right:3,2,1", "--n", "4"], "braidhooks orbits"),
    (["window", "--word", "1,2,1", "--rank", "3", "extra"], "braidhooks window"),
])
def test_an_unread_flag_is_refused_with_its_subcommand_usage(argv, prog, capsys):
    # argparse alone would print the top-level usage, which lists none of these flags
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: {prog} [-h]")
    assert f"\n{prog}: error: unrecognized arguments: " in captured.err


def subcommands(parser) -> dict:
    """The subparsers of ``parser`` by name."""
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def test_each_theorem_takes_exactly_its_flags():
    theorems = subcommands(subcommands(build_parser())["verify"])
    assert list(theorems) == list(VERIFIERS)
    settable = 0
    for theorem, (_, flags) in VERIFIERS.items():
        help_action, *actions = theorems[theorem]._actions
        assert help_action.option_strings == ["-h", "--help"]
        assert [action.option_strings for action in actions] == [[flag] for flag in
                                                                 [*flags, "--format"]]
        settable += len(actions)
    assert settable == 19


def test_theorem_help_exits_zero(capsys):
    assert main(["verify", "reiner", "-h"]) == EXIT_PASS
    assert capsys.readouterr().out.startswith("usage: braidhooks verify reiner [-h] [--n N]")


def test_a_sample_is_no_second_source(capsys):
    assert main(["orbits", "--shape", "right:3,2,1", "--sample", "2"]) == EXIT_FAIL
    assert json.loads(capsys.readouterr().out)["found"] is False


@pytest.mark.parametrize("command", ["enumerate", "orbits"])
def test_class_breaking_the_quadratic_rule_is_refused(command, capsys):
    # 1,3,1 has no factor "a a", but 113 and 311 are in its class
    assert main([command, "--class-of-word", "1,3,1", "--rank", "4"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: letter 1 stacks on itself; class violates the quadratic rule\n"


@pytest.mark.parametrize("spec", [
    "right:4,x", "right:4,,3", "right:4,3,", "right:", "half:5,,1", "skew:4,3,,1/1",
    "skew:4,3/1,x", "skew:4,3/1,", "skew:/1",
])
def test_bad_shape_field_is_typed(spec, capsys):
    with pytest.raises(ShapeSpecError, match=re.escape(repr(spec))):
        parse_shape(spec)
    assert main(["enumerate", "--shape", spec]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: shape spec {spec!r} is not comma-separated integers\n"


@pytest.mark.parametrize("spec", ["", "x,y", "5,,1", "half:5,x"])
def test_half_right_names_the_spec_it_was_given(spec, capsys):
    # a spec without a prefix is read as half-right, and named as typed
    assert main(["verify", "half-right", "--shape", spec]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: shape spec {spec!r} is not comma-separated integers\n"


@pytest.mark.parametrize("spec, shape", [
    ("skew:4,3", Shape.skew_right((4, 3))),
    ("skew:4,3/", Shape.skew_right((4, 3))),
    ("skew:4,3/1", Shape.skew_right((4, 3), (1,))),
    ("right:3,1", Shape.right((3, 1))),
])
def test_good_shape_spec(spec, shape):
    assert parse_shape(spec) == shape


def test_shape_spec_errors_are_value_errors():
    assert issubclass(ShapeSpecError, ValueError)
    with pytest.raises(ShapeSpecError, match="mode prefix"):
        parse_shape("4,3")
    with pytest.raises(ShapeSpecError, match="unknown shape mode 'diag'"):
        parse_shape("diag:4,3")


def read_csv(argv, capsys) -> list[list[str]]:
    main(argv)
    return list(csv.reader(io.StringIO(capsys.readouterr().out)))


@pytest.mark.parametrize("argv, field", [
    (["enumerate", "--class-of-word", "10,12,11", "--rank", "13"], "10,12,11"),
    (["verify", "homomesy", "--shape", "right:3,1"], "right:3,1"),
    (["verify", "poset-edges", "--poset", "{diamond}", "--ideal", "a"],
     '[{"size": 2, "average": "1"}]'),
])
def test_csv_fields_with_commas_read_back_whole(argv, field, capsys, tmp_path):
    diamond = tmp_path / "diamond.txt"
    diamond.write_text("a < b\na < c\nb < d\nc < d\n")
    argv = [arg.format(diamond=diamond) for arg in argv] + ["--format", "csv"]
    header, *rows = read_csv(argv, capsys)
    assert rows and all(len(row) == len(header) for row in rows)
    assert field in rows[0]


@pytest.mark.parametrize("argv, name, value", [
    (["verify", "homomesy", "--shape", "right:3,2,1"], "averages", ["1"]),
    (["verify", "poset-edges", "--poset", "{diamond}", "--ideal", "a"],
     "per_orbit", [{"size": 2, "average": "1"}]),
    (["orbits", "--shape", "right:7,6,5,4,3,2,1", "--sample", "10", "--group", "gyration"],
     "orbit", {"seed": 1, "size": 28, "average": "15/14", "representative":
               "1 2 3 4 5 6 17|7 8 10 11 14 19|9 12 13 16 24|15 18 20 25|21 22 26|23 27|28"}),
])
def test_csv_list_and_dict_fields_are_json(argv, name, value, capsys, tmp_path):
    diamond = tmp_path / "diamond.txt"
    diamond.write_text("a < b\na < c\nb < d\nc < d\n")
    argv = [arg.format(diamond=diamond) for arg in argv] + ["--format", "csv"]
    header, row = read_csv(argv, capsys)
    assert json.loads(row[header.index(name)]) == value
