"""Canonical keys: sorting by ``key()`` keeps the order of pairwise comparison.

Every carrier of the toggle group sorts by one key built once per state: a
tableau by its row-reading word, a linear extension by its element
indices, a word by ``(letters, rank)``.  The references here rebuild the
order the way it was written before the keys existed: a tableau's row word
read through ``entries()`` and an extension's indices looked up in
``poset.elements``, rebuilt on every comparison.
"""

import itertools
import random

import pytest

from braidhooks.homomesy import MODES, dihedral_orbits, gyration, tau_even, tau_odd
from braidhooks.posets import LinearExtension, Poset, linear_extensions
from braidhooks.tableaux import Shape, Tableau, standard_tableaux
from braidhooks.words import Word, commutation_class, staircase_word

from helpers import partitions, skew_test_shapes, strict_partitions

MAX_CELLS = 9

SHAPES = {
    "right": [Shape.right(p) for n in range(1, MAX_CELLS + 1) for p in partitions(n)],
    "half-right": [
        Shape.half_right(p) for n in range(1, MAX_CELLS + 1) for p in strict_partitions(n)
    ],
    "skew": skew_test_shapes(MAX_CELLS + 1),
}


def row_word(t: Tableau) -> tuple[int, ...]:
    """The entries read row by row, through the ``entries()`` dict."""
    entry = t.entries()
    return tuple(entry[cell] for cell in t.shape.cells)


def pairwise_sequence(x):
    if isinstance(x, Tableau):
        return row_word(x)
    if isinstance(x, LinearExtension):
        return tuple(x.poset.elements.index(e) for e in x.seq)
    raise TypeError(type(x))


class Pairwise:
    """Sorts like the comparisons did before ``key()``: both sides' sequence
    is rebuilt on every comparison (words keep their dataclass ``<``)."""

    __slots__ = ("x",)

    def __init__(self, x):
        self.x = x

    def __lt__(self, other: "Pairwise") -> bool:
        if isinstance(self.x, Word):
            return self.x < other.x
        return pairwise_sequence(self.x) < pairwise_sequence(other.x)


GENERATORS = {
    "dihedral": (tau_odd, tau_even),
    "gyration": (gyration,),
    "order-two-odd": (tau_odd,),
    "order-two-even": (tau_even,),
}


def pairwise_orbits(carrier, mode: str) -> list[tuple]:
    """Orbits closed by search, pool and members sorted pairwise."""
    seen: set = set()
    orbits = []
    for start in sorted(set(carrier), key=Pairwise):
        if start in seen:
            continue
        members = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for g in GENERATORS[mode]:
                y = g(x)
                if y not in members:
                    members.add(y)
                    frontier.append(y)
        seen |= members
        orbits.append(tuple(sorted(members, key=Pairwise)))
    return orbits


def assert_orbits_match(carrier: list) -> None:
    """On the carrier and on every third state of it (orbits then reach
    states outside the pool), in all four modes."""
    shuffled = carrier[:]
    random.Random(len(carrier)).shuffle(shuffled)
    for pool in (shuffled, shuffled[::3]):
        for mode in MODES:
            found = dihedral_orbits(pool, mode)
            assert all(orbit.mode == mode for orbit in found)
            assert [orbit.members for orbit in found] == pairwise_orbits(pool, mode), mode


def test_orbits_hold_the_carriers_own_objects():
    # a closed carrier: every orbit member is one of its objects, not a copy
    carrier = standard_tableaux(Shape.right((5, 4, 3, 2, 1)))
    own = {id(t) for t in carrier}
    for mode in MODES:
        assert all(id(t) in own for orbit in dihedral_orbits(carrier, mode)
                   for t in orbit.members), mode


@pytest.mark.parametrize("family", sorted(SHAPES))
def test_fillings_sorted_by_row_word(family):
    for shape in SHAPES[family]:
        fillings = standard_tableaux(shape)
        assert [t.key() for t in fillings] == [row_word(t) for t in fillings], shape
        shuffled = fillings[:]
        random.Random(shape.size).shuffle(shuffled)
        assert fillings == sorted(shuffled, key=row_word), shape


@pytest.mark.parametrize("family", sorted(SHAPES))
def test_tableau_orbits_match_pairwise_order(family):
    for shape in SHAPES[family]:
        assert_orbits_match(standard_tableaux(shape))


@pytest.mark.parametrize(
    "shape",
    [
        Shape.right((5, 4, 3, 2, 1)),
        Shape.half_right((6, 4, 2)),
        Shape.skew_right((5, 4, 3, 2, 1), (2, 1)),
    ],
    ids=repr,
)
def test_larger_tableau_orbits_match_pairwise_order(shape):
    assert_orbits_match(standard_tableaux(shape))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_word_orbits_match_pairwise_order(n):
    assert_orbits_match(commutation_class(staircase_word(n)))


def random_poset(rng: random.Random, n: int) -> Poset:
    """Shuffled names, so element indices and names disagree in order."""
    names = [f"e{i}" for i in range(n)]
    rng.shuffle(names)
    density = rng.random()
    covers = [
        (names[a], names[b])
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < density
    ]
    elements = names[:]
    rng.shuffle(elements)
    return Poset(elements, covers)


def test_extension_orbits_match_pairwise_order():
    for seed in range(64):
        rng = random.Random(f"keys/{seed}")
        poset = random_poset(rng, rng.randint(1, 7))
        extensions = linear_extensions(poset)
        assert [ext.key() for ext in extensions] == [
            pairwise_sequence(ext) for ext in extensions
        ], seed
        assert_orbits_match(extensions)


def test_word_key_is_dataclass_order():
    pool = [
        Word(letters, rank)
        for rank in (3, 4, 5)
        for length in range(4)
        for letters in itertools.product(range(1, rank), repeat=length)
        if len(letters) < 3 or rank < 5
    ]
    random.Random(0).shuffle(pool)
    assert len({w.rank for w in pool}) == 3
    for a, b in itertools.product(pool, repeat=2):
        assert (a.key() < b.key()) == (a < b), (a, b)
    assert sorted(pool, key=Word.key) == sorted(pool)
