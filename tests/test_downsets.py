"""The one down-set walk behind fillings, extensions, ideals and sampling.

A standard filling of a shape is a linear extension of the shape's cell
order (each cell above its left and upper neighbours), so the shape and
poset enumerators must agree.  Extensions and ideals of random posets are
checked against brute force over all permutations and all subsets, and
the sampler against the addable-cell loop it replaced.
"""

import itertools
import random

import pytest

from braidhooks.errors import ExplosionGuardError
from braidhooks.posets import Poset, linear_extensions, order_ideals
from braidhooks.tableaux import Shape, Tableau, random_standard_tableau, standard_tableaux

from helpers import partitions, skew_test_shapes, strict_partitions

MAX_CELLS = 9

SHAPES = {
    "right": [Shape.right(p) for n in range(1, MAX_CELLS + 1) for p in partitions(n)],
    "half-right": [
        Shape.half_right(p) for n in range(1, MAX_CELLS + 1) for p in strict_partitions(n)
    ],
    "skew": skew_test_shapes(MAX_CELLS + 1),
}


def cell_poset(shape: Shape) -> Poset:
    """The cells, each covering the cell to its left and the cell above it."""
    covers = [
        (cell, nb)
        for cell in shape.cells
        for nb in ((cell[0], cell[1] + 1), (cell[0] + 1, cell[1]))
        if nb in shape
    ]
    return Poset(shape.cells, covers)


@pytest.mark.parametrize("family", sorted(SHAPES))
def test_fillings_are_extensions_of_the_cell_order(family):
    for shape in SHAPES[family]:
        # Tableau() without _checked re-checks that each extension is standard
        extensions = linear_extensions(cell_poset(shape))
        from_poset = sorted(Tableau(shape, ext.seq) for ext in extensions)
        assert standard_tableaux(shape) == from_poset, shape


def random_poset(rng: random.Random, n: int) -> tuple[list, list]:
    """Shuffled integer names and a random acyclic relation on them."""
    names = list(range(n))
    rng.shuffle(names)
    density = rng.random()
    relations = [
        (names[a], names[b])
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < density
    ]
    elements = names[:]
    rng.shuffle(elements)
    return elements, relations


def brute_extensions(elements, relations):
    """Permutations of the element indices in lexicographic order, kept when
    every related pair comes in order."""
    index = {e: i for i, e in enumerate(elements)}
    pairs = [(index[a], index[b]) for a, b in relations]
    found = []
    for perm in itertools.permutations(range(len(elements))):
        place = {i: k for k, i in enumerate(perm)}
        if all(place[a] < place[b] for a, b in pairs):
            found.append(tuple(elements[i] for i in perm))
    return found


def brute_ideals(elements, relations):
    """Subsets holding the lower end of every related pair whose upper end they hold."""
    found = [
        frozenset(subset)
        for size in range(len(elements) + 1)
        for subset in itertools.combinations(elements, size)
        if all(a in subset for a, b in relations if b in subset)
    ]
    return sorted(found, key=lambda s: (len(s), sorted(map(str, s))))


@pytest.mark.parametrize("n", range(1, 9))
def test_random_posets_match_brute_force(n):
    rng = random.Random(f"downsets/{n}")
    for _ in range(8):
        elements, relations = random_poset(rng, n)
        poset = Poset(elements, relations)
        assert [ext.seq for ext in linear_extensions(poset)] == brute_extensions(
            elements, relations
        ), (elements, relations)
        assert order_ideals(poset) == brute_ideals(elements, relations), (elements, relations)


def addable_cell_sampler(shape: Shape, rng) -> Tableau:
    """The sampler as it was written before the walk: a random addable cell,
    in ``shape.cells`` order, at each step."""
    prereq = {
        (r, c): tuple(nb for nb in ((r, c - 1), (r - 1, c)) if nb in shape.cell_set)
        for r, c in shape.cells
    }
    filled = set()
    pos = []
    while len(pos) < shape.size:
        addable = [
            cell
            for cell in shape.cells
            if cell not in filled and all(p in filled for p in prereq[cell])
        ]
        cell = rng.choice(addable)
        filled.add(cell)
        pos.append(cell)
    return Tableau(shape, tuple(pos))


@pytest.mark.parametrize(
    "shape",
    [
        Shape.right((6, 5, 4, 3, 2, 1)),
        Shape.half_right((7, 5, 3, 1)),
        Shape.skew_right((5, 4, 3, 2, 1), (2, 1)),
    ],
    ids=repr,
)
def test_sampler_draws_as_before(shape):
    for seed in range(200):
        assert random_standard_tableau(shape, random.Random(seed)) == addable_cell_sampler(
            shape, random.Random(seed)
        ), seed


ENUMERATORS = {
    "standard_tableaux": (standard_tableaux, Shape.right((4, 3, 2, 1))),
    "linear_extensions": (linear_extensions, Poset("abcde", [("a", "c"), ("b", "c"), ("c", "e")])),
    "order_ideals": (order_ideals, Poset("abcde", [("a", "c"), ("b", "c"), ("c", "e")])),
}


@pytest.mark.parametrize("name", sorted(ENUMERATORS))
def test_cap_boundary(name):
    enumerate_all, source = ENUMERATORS[name]
    count = len(enumerate_all(source))
    assert count > 1
    assert len(enumerate_all(source, cap=count)) == count
    for cap in (count - 1, 0):
        with pytest.raises(ExplosionGuardError):
            enumerate_all(source, cap=cap)


@pytest.mark.parametrize(
    "name, what",
    [
        ("standard_tableaux", "fillings"),
        ("linear_extensions", "linear extensions"),
        ("order_ideals", "order ideals"),
    ],
)
def test_cap_error_names_the_enumeration(name, what):
    enumerate_all, source = ENUMERATORS[name]
    with pytest.raises(ExplosionGuardError) as raised:
        enumerate_all(source, cap=1)
    assert str(raised.value) == f"enumeration of {what} exceeded the state cap of 1"
    assert (raised.value.cap, raised.value.what) == (1, what)
