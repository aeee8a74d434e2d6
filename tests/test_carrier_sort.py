"""``_sorted``: each carrier class orders a list of its states by ``key()``.

The reference is ``sorted(states, key=lambda x: x.key())``, one Python key
per state.  ``_sorted`` must return the same objects in the same order: a
state given twice, as an equal copy, keeps its place in the input beside the
original, since both sorts are stable.  A filling's byte key holds labels up
to 255, so the shapes at that bound (255 cells) and past it (256, where
``Tableau._sorted`` falls back to ``key``) are checked too.
"""

import copy
import random
import tracemalloc

import pytest

from braidhooks.homomesy import MODES, dihedral_orbits
from braidhooks.posets import linear_extensions, random_bounded_poset
from braidhooks.tableaux import Shape, Tableau, random_standard_tableau, standard_tableaux
from braidhooks.words import Permutation, all_reduced_words, commutation_class, staircase_word

from test_keys import SHAPES


def reference(states: list) -> list:
    return sorted(states, key=lambda x: x.key())


def assert_same_objects(found: list, expected: list) -> None:
    assert list(map(id, found)) == list(map(id, expected))


def assert_sorts_like_key(states: list) -> None:
    """Shuffled, and shuffled again with an equal copy of every state."""
    rng = random.Random(len(states))
    shuffled = states[:]
    rng.shuffle(shuffled)
    twice = shuffled + list(map(copy.copy, shuffled))
    rng.shuffle(twice)
    for given in (shuffled, twice):
        assert_same_objects(type(given[0])._sorted(given), reference(given))


@pytest.mark.parametrize("family", sorted(SHAPES))
def test_fillings_of_every_family_sort_like_key(family):
    for shape in SHAPES[family]:
        assert_sorts_like_key(standard_tableaux(shape))


@pytest.mark.parametrize("outer", [(254, 1), (255, 1), (128, 127), (128, 128)],
                         ids=lambda outer: f"right:{outer[0]},{outer[1]}")
def test_fillings_at_the_byte_bound_sort_like_key(outer):
    # 255 cells put label 255 in the last byte a key can hold; 256 fall back
    shape = Shape.right(outer)
    draws = [random_standard_tableau(shape, random.Random(seed)) for seed in range(40)]
    states = standard_tableaux(shape) + draws if outer[1] == 1 else draws
    assert max(states[0].key()) == shape.size
    assert_sorts_like_key(states)


@pytest.mark.parametrize("words", [commutation_class(staircase_word(5)),
                                   all_reduced_words(Permutation.longest(5))],
                         ids=["staircase-class-5", "red-w0-5"])
def test_words_sort_like_key(words):
    assert_sorts_like_key(words)


def test_extensions_of_seeded_bounded_posets_sort_like_key():
    for seed in range(50):
        rng = random.Random(f"sorted/{seed}")
        assert_sorts_like_key(linear_extensions(random_bounded_poset(rng, rng.randint(3, 8))))


@pytest.mark.parametrize("mode", MODES)
def test_orbits_with_members_outside_the_pool_sort_like_key(monkeypatch, mode):
    carrier = standard_tableaux(Shape.right((5, 4, 3, 2, 1)))
    calls = []
    sort = Tableau._sorted

    def recording(states):
        found = sort(states)
        calls.append((states[:], found))
        return found

    monkeypatch.setattr(Tableau, "_sorted", staticmethod(recording))
    pool = carrier[::5]
    orbits = dihedral_orbits(pool, mode)
    own = {id(t) for t in pool}
    # the pool, then every orbit that reaches a state outside it
    assert len(calls) == 1 + sum(any(id(t) not in own for t in orbit.members) for orbit in orbits)
    assert len(calls) > 1
    for given, found in calls:
        assert_same_objects(found, reference(given))


def test_byte_keys_peak_no_higher_than_tuple_keys():
    fillings = standard_tableaux(Shape.right((6, 5, 4, 3, 2, 1)))

    def peak(sort) -> int:
        tracemalloc.start()
        try:
            sort(fillings)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(Tableau._sorted) <= peak(lambda states: sorted(states, key=Tableau.key))
