"""Reduced words are counted before they are listed.

``all_reduced_words`` builds the weak order below the permutation as a
``posets._lattice`` table, depth first, counting ``|Red(u)|`` for each
``u`` and raising once a partial count passes the cap; then the table walk
of ``posets._extensions`` builds the tails of the level its counts choose
once and walks the rest down to them, and its ``posets._wrap`` makes the words.
It must list exactly what the plain stack walk lists, in the same order,
meet the cap at exactly the word count, agree with Stanley's hook-length
count of ``Red(w0)``, and raise on a huge interval, in little memory,
before building a tail or a word.
The integer per-orbit sums of ``verify_edges`` and the one-``str``-per-element
key of ``order_ideals`` must give what their plain forms give.
"""

import itertools
import math
import random
import tracemalloc

import pytest

from braidhooks import posets, words
from braidhooks.cli import EXIT_CAP, main
from braidhooks.errors import ExplosionGuardError
from braidhooks.homomesy import dihedral_orbits, orbit_average
from braidhooks.posets import (
    Poset,
    descents,
    linear_extensions,
    order_ideals,
    random_bounded_poset,
    verify_edges,
)
from braidhooks.words import Permutation, Word, all_reduced_words


def stack_walk(perm: Permutation) -> list[Word]:
    """The plain walk down the weak order: each step places the next left
    descent ``a`` and swaps values ``a``, ``a+1``; taking it back resumes at
    ``a+1``.  It reaches the identity once per word, in lexicographic order."""
    n = perm.n
    length = perm.length()
    pos = [0, *sorted(range(n), key=perm.images.__getitem__), -1]
    placed: list[int] = []
    found: list[Word] = []
    a = 1
    while True:
        if len(placed) == length:
            found.append(Word(tuple(placed), n))
            a = n
        while pos[a] < pos[a + 1]:
            a += 1
        if a < n:
            placed.append(a)
            pos[a], pos[a + 1] = pos[a + 1], pos[a]
            a = 1
        elif placed:
            a = placed.pop()
            pos[a], pos[a + 1] = pos[a + 1], pos[a]
            a += 1
        else:
            return found


def permutations(n: int):
    return (Permutation(images) for images in itertools.permutations(range(1, n + 1)))


def staircase_hook_count(n: int) -> int:
    """Stanley: |Red(w0)| in S_n is the number of standard fillings of the
    staircase (n-1, ..., 1), N! over the product of its hook lengths."""
    rows = list(range(n - 1, 0, -1))
    hooks = 1
    for i, row in enumerate(rows):
        for j in range(row):
            leg = sum(1 for below in rows[i + 1:] if below > j)
            hooks *= (row - j - 1) + leg + 1
    return math.factorial(sum(rows)) // hooks


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_permutation_lists_what_the_stack_walk_lists(n):
    for perm in permutations(n):
        found = all_reduced_words(perm)
        assert found == stack_walk(perm), perm
        assert all(type(w) is Word for w in found)


def test_longest_element_of_s6_lists_what_the_stack_walk_lists():
    perm = Permutation.longest(6)
    assert all_reduced_words(perm) == stack_walk(perm)


@pytest.mark.parametrize("n", [4, 5])
def test_cap_trips_at_exactly_the_word_count(n):
    for perm in permutations(n):
        count = len(stack_walk(perm))
        assert len(all_reduced_words(perm, cap=count)) == count
        with pytest.raises(ExplosionGuardError, match="words") as raised:
            all_reduced_words(perm, cap=count - 1)
        assert (raised.value.cap, raised.value.what) == (count - 1, "words")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_longest_element_has_stanleys_count(n):
    assert len(all_reduced_words(Permutation.longest(n))) == staircase_hook_count(n)


def test_staircase_hook_count_known_values():
    assert [staircase_hook_count(n) for n in range(1, 8)] == [1, 1, 2, 16, 768, 292864,
                                                              1100742656]


def test_reiner_7_exits_on_the_default_cap_in_little_memory(monkeypatch, capsys):
    # |Red(w0)| in S7 is 1,100,742,656, above the default cap of 10^8; the
    # build refuses near the identity, so a larger n costs little more
    monkeypatch.delenv("BRAIDHOOKS_CAP", raising=False)
    for n in (7, 8, 12, 20):
        tracemalloc.start()
        try:
            code = main(["verify", "reiner", "--n", str(n)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_CAP, n
        assert capsys.readouterr().err == (
            "error: enumeration of words exceeded the state cap of 100000000\n"), n
        assert peak < 5 * 2**20, n


def test_huge_interval_raises_before_any_tail_or_word(monkeypatch):
    walks = []

    def no_walk(*args):
        walks.append(args)
        raise AssertionError("the walk started before the count passed the cap")

    def no_word(*args):
        raise AssertionError("a word was built before the count passed the cap")

    monkeypatch.setattr(words, "_extensions", no_walk)
    monkeypatch.setattr(posets, "_wrap", no_word)
    monkeypatch.setattr(posets, "_build", no_word)
    monkeypatch.setattr(words, "Word", no_word)
    raised = []

    def run():
        with pytest.raises(ExplosionGuardError) as info:
            all_reduced_words(Permutation.longest(60), cap=5)
        raised.append(info.value)

    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (raised[0].cap, raised[0].what) == (5, "words")
    assert walks == []  # the table build refused: no tail was built
    assert peak < 5 * 2**20


def test_order_ideals_keep_the_string_key_order():
    mixed = Poset([1, "1", 2, "b"], [(1, 2), ("1", "b")])
    for poset in (mixed, Poset("abcde", [("a", "c"), ("b", "c"), ("c", "e")])):
        found = order_ideals(poset)
        assert found == sorted(found, key=lambda s: (len(s), sorted(map(str, s))))
        assert len(found) == len(set(found))


def test_verify_edges_matches_the_fraction_averages():
    rng = random.Random(11)
    for _ in range(30):
        poset = random_bounded_poset(rng, rng.randint(3, 6))
        orbits = dihedral_orbits(linear_extensions(poset), "dihedral")
        for ideal in order_ideals(poset)[1:-1]:
            report = verify_edges(poset, ideal)
            averages = [orbit_average(orbit, lambda e: len(descents(e, ideal)))
                        for orbit in orbits]
            assert report["per_orbit"] == [{"size": o.size, "average": a}
                                           for o, a in zip(orbits, averages)]
            assert report["rhs"] == sum(a * o.size for o, a in zip(orbits, averages))
            assert report["ok"] == (report["lhs"] == report["rhs"]
                                    and all(a == 1 for a in averages))
