"""Word specs and empty source flags on the command line."""

import pytest

from braidhooks.cli import EXIT_PASS, EXIT_USAGE, main, parse_word
from braidhooks.errors import WordSpecError
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
    (["orbits", "--poset", ""], "No such file or directory: ''"),
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


@pytest.mark.parametrize("command", ["enumerate", "orbits"])
def test_class_breaking_the_quadratic_rule_is_refused(command, capsys):
    # 1,3,1 has no factor "a a", but 113 and 311 are in its class
    assert main([command, "--class-of-word", "1,3,1", "--rank", "4"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: letter 1 stacks on itself; class violates the quadratic rule\n"
