"""Reduced words and commutation classes come from ordered walks.

``all_reduced_words`` walks the weak order down to the identity and
``commutation_class`` lists the linear extensions of the word's heap.  Both
must equal a move closure built only on ``list_moves`` and ``apply_move``,
in the same lexicographic order, on reduced and on non-reduced words, and
both keep their own stack, so a long word meets the cap rather than the
recursion limit.
"""

import itertools

import pytest
from test_words import all_permutations, reference_closure

from braidhooks import errors, posets, words
from braidhooks.cli import EXIT_CAP, main
from braidhooks.errors import ExplosionGuardError
from braidhooks.words import (
    COMMUTATION,
    Permutation,
    Word,
    all_reduced_words,
    braid_move_stats,
    commutation_class,
    staircase_word,
)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_class_of_every_reduced_word_matches_moves(n):
    for perm in all_permutations(n):
        for word in all_reduced_words(perm):
            assert commutation_class(word) == reference_closure(word, (COMMUTATION,)), word


def non_reduced_words() -> list[Word]:
    """Every word of length at most 6 over 1..3 with no factor ``a a``."""
    found = []
    for length in range(7):
        for letters in itertools.product((1, 2, 3), repeat=length):
            if all(a != b for a, b in zip(letters, letters[1:])):
                found.append(Word(letters, 4))
    return found


def test_class_of_words_with_repeated_letters_matches_moves():
    checked = non_reduced_words()
    assert len(checked) == 1 + 3 + 6 + 12 + 24 + 48 + 96
    assert any(not words.is_reduced(w.letters, 4) for w in checked)
    for word in checked:
        assert commutation_class(word) == reference_closure(word, (COMMUTATION,)), word


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_identity_has_the_empty_word(n):
    assert all_reduced_words(Permutation.identity(n)) == [Word((), n)]


def test_reduced_words_are_lexicographic_and_reduced():
    found = all_reduced_words(Permutation((3, 1, 4, 5, 2)))
    assert found == sorted(set(found))
    assert all(w.permutation() == Permutation((3, 1, 4, 5, 2)) for w in found)


def test_long_longest_element_meets_the_cap():
    with pytest.raises(ExplosionGuardError) as raised:
        all_reduced_words(Permutation.longest(60), cap=5)
    assert (raised.value.cap, raised.value.what) == (5, "words")


def test_long_staircase_class_meets_the_cap():
    with pytest.raises(ExplosionGuardError) as raised:
        commutation_class(staircase_word(40), cap=5)
    assert (raised.value.cap, raised.value.what) == (5, "words")


def test_cli_long_reiner_exits_on_the_cap(capsys):
    assert main(["--cap", "5", "verify", "reiner", "--n", "60"]) == EXIT_CAP
    assert "enumeration of words exceeded the state cap of 5" in capsys.readouterr().err


def test_braid_move_stats_reads_a_generator_once():
    red = all_reduced_words(Permutation.longest(4))
    assert braid_move_stats(w for w in red) == braid_move_stats(red)
    with pytest.raises(ValueError, match="nonempty"):
        braid_move_stats(w for w in ())


def test_default_cap_lives_in_errors():
    assert words.default_cap is errors.default_cap
    assert posets.default_cap is errors.default_cap
