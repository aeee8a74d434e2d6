"""``nu`` against the heap comparison it replaced.

``nu`` checks a word against the shape's cover masks without building the
word's heap.  The reference kept beside it builds the word's heap straight
from ``words._heap_order`` and the shape's cell poset and compares their
pieces and covers; a piece covering a piece of its own column breaks the
quadratic rule.  The two must agree on the filling, or on the error type
and message, on every shape here: disconnected skew shapes, where two cells
on adjacent diagonals can be incomparable although every filling passes the
mask rule, and the gapped ``from_cells`` shapes, where a cover can join
diagonals that are not adjacent.
"""

import itertools
import random

import pytest

from braidhooks import heaps, posets
from braidhooks.errors import QuadraticRuleError, ShapeMismatchError
from braidhooks.heaps import heap_poset, nu, nu_inverse, shape_poset
from braidhooks.tableaux import Shape, standard_tableaux
from braidhooks.words import (BRAID_DOWN, BRAID_UP, Permutation, Word, _heap_order,
                              all_reduced_words, apply_move, list_moves, make_word)

from helpers import diagonal_cells, partitions, skew_test_shapes, strict_partitions
from test_one_carrier import GAPS

MAX_CELLS = 7


def skew_shapes(max_outer: int) -> list[Shape]:
    """Skew shapes with a nonempty inner partition inside outer partitions
    of at most ``max_outer`` cells (a row may be emptied), one per cell set."""
    shapes = {}
    for total in range(2, max_outer + 1):
        for outer in partitions(total):
            for inner_size in range(1, total):
                for inner in partitions(inner_size):
                    if len(inner) > len(outer) or any(m > l for l, m in zip(outer, inner)):
                        continue
                    shape = Shape.skew_right(outer, inner)
                    shapes.setdefault(shape.cells, shape)
    return list(shapes.values())


def disconnected_skew_shapes(max_outer: int) -> list[Shape]:
    """The ``skew_shapes`` whose rows do not all touch."""
    return [shape for shape in skew_shapes(max_outer) if not shape.is_connected()]


SHAPES = {
    "right": [Shape.right(p) for n in range(1, MAX_CELLS + 1) for p in partitions(n)],
    "half-right": [
        Shape.half_right(p) for n in range(1, MAX_CELLS + 1) for p in strict_partitions(n)
    ],
    "skew": [s for s in skew_test_shapes(MAX_CELLS + 1) if s.size <= MAX_CELLS],
    "disconnected": disconnected_skew_shapes(MAX_CELLS),
}


def _words() -> dict[int, list]:
    """Every reduced word of S_n for n <= 4 and every word ``nu_inverse``
    reads back from a filling of a test shape, grouped by length."""
    words = set()
    for n in range(2, 5):
        for images in itertools.permutations(range(1, n + 1)):
            words.update(all_reduced_words(Permutation(images)))
    for shapes in SHAPES.values():
        for shape in shapes:
            for t in standard_tableaux(shape):
                try:
                    words.add(nu_inverse(t))
                except QuadraticRuleError:
                    pass  # a disconnected shape can read back a word with `a a`
    by_length: dict[int, list] = {}
    for word in sorted(words):
        by_length.setdefault(len(word), []).append(word)
    return by_length


WORDS = _words()


def reference(word, shape):
    """The filling ``nu`` must return, from the heap comparison, or the type
    and message of the error it must raise.  The heap is built straight from
    ``_heap_order``, without ``heap_poset``'s own quadratic-rule check."""
    pieces = heaps._pieces(word)  # drop order
    elements = sorted(pieces)  # ``_heap_order``'s piece numbering
    _, below = _heap_order(word.letters[::-1])
    heap = posets.Poset(elements, [(elements[j], elements[i])
                                   for i, b in enumerate(below) for j in posets._bits(b)])
    for column, p in pieces:
        if ((column, p - 1), (column, p)) in heap.covers:
            return (QuadraticRuleError,
                    f"letter {column} stacks on itself; class violates the quadratic rule")
    cell_poset = shape_poset(shape)
    if (heap.elements, heap.covers) != (cell_poset.elements, cell_poset.covers):
        return (ShapeMismatchError,
                f"heap of {word} is not isomorphic to the poset of {shape!r}")
    cell = dict(zip(cell_poset.elements, diagonal_cells(shape)))
    return tuple(cell[piece] for piece in pieces)


def test_both_answers_occur_in_every_family():
    # the suite's reduced words alone give each family a filling and an error
    for family, shapes in SHAPES.items():
        outcomes = {
            isinstance(reference(word, shape)[0], type)
            for shape in shapes
            for word in WORDS.get(shape.size, [])
        }
        assert outcomes == {True, False}, family


def test_incomparable_cells_on_adjacent_diagonals_reject_every_word():
    # cells (1, 1) and (3, 4) lie on diagonals 1 and 2 and are incomparable,
    # while the two pieces of 1 2 sit on adjacent columns and are comparable;
    # every filling passes the mask rule, so only the shape condition rejects
    shape = Shape.skew_right((4, 2, 1), (3, 2))
    word = make_word((1, 2), 4)
    assert shape.cells == ((1, 1), (3, 4))
    heap, cell_poset = heap_poset(word), shape_poset(shape)
    assert heap.elements == cell_poset.elements
    assert heap.covers != cell_poset.covers
    with pytest.raises(ShapeMismatchError):
        nu(word, shape)


def test_words_of_other_lengths_are_rejected():
    shape = Shape.right((3, 2, 1))
    for word in WORDS[5] + WORDS[7]:
        with pytest.raises((ShapeMismatchError, QuadraticRuleError)):
            nu(word, shape)


def test_quadratic_rule_comes_before_the_shape():
    # 1 3 1 commutes to 3 1 1; the shape does not matter
    for shape in (Shape.right((2, 1)), Shape.right((5,))):
        with pytest.raises(QuadraticRuleError):
            nu(make_word((1, 3, 1), 4), shape)


def test_nu_builds_no_heap(monkeypatch):
    shape = Shape.right((4, 3, 2, 1))
    words = [nu_inverse(t) for t in standard_tableaux(shape)]
    nu(words[0], shape)  # the shape side is built once, before the patch

    def forbidden(*args, **kwargs):
        raise AssertionError("nu built a heap")

    monkeypatch.setattr(heaps, "heap_poset", forbidden)
    monkeypatch.setattr(heaps, "_heap_order", forbidden)
    monkeypatch.setattr(posets, "transitive_reduction", forbidden)  # no Poset either
    for word in words:
        assert nu_inverse(nu(word, shape)) == word


FAMILIES = {**SHAPES, "gaps": [Shape.from_cells(cells) for cells in GAPS]}


def read_word(t) -> Word:
    """The word ``nu_inverse`` reads from a filling, a factor ``a a`` kept."""
    letter = heaps._shape_side(t.shape)[1]
    letters = tuple([letter[i] for i in reversed(t.ids)])
    return Word(letters, max(letters) + 1)


def mutants(word: Word, rng: random.Random) -> list[Word]:
    """One random braid move of ``word``, if it has one, and ``word`` with one
    random letter replaced by another in range."""
    found = []
    braids = [site for site in list_moves(word) if site.kind in (BRAID_UP, BRAID_DOWN)]
    if braids:
        found.append(apply_move(word, rng.choice(braids)))
    letters = list(word.letters)
    p = rng.randrange(len(letters))
    others = [a for a in range(1, word.rank) if a != letters[p]]
    if others:
        letters[p] = rng.choice(others)
        found.append(Word(tuple(letters), word.rank))
    return found


def misfits(word: Word) -> list[Word]:
    """``word`` one letter short, one letter long, and with its last letter,
    the first piece dropped, moved past the shape's columns."""
    letters, rank = word.letters, word.rank
    return [Word(letters[1:], rank), Word(letters + (1,), rank),
            Word(letters[:-1] + (rank,), rank + 1)]


def answer(run, word, shape):
    """The filling ``run`` returns, or the type and message of its error."""
    try:
        return run(word, shape).pos
    except (QuadraticRuleError, ShapeMismatchError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_nu_matches_the_heap_comparison(family):
    kinds = set()
    for shape in FAMILIES[family]:
        rng = random.Random(f"drops {shape!r}")
        cases = list(WORDS.get(shape.size, []))
        for t in standard_tableaux(shape):
            word = read_word(t)
            cases += [word, *mutants(word, rng), *misfits(word)]
        for word in cases:
            expected = reference(word, shape)
            assert answer(nu, word, shape) == expected, (word, shape)
            kinds.add(expected[0] if isinstance(expected[0], type) else "filling")
    # a cover across a gap joins diagonals that are not adjacent, as no heap cover does
    fillings = set() if family == "gaps" else {"filling"}
    assert kinds == {QuadraticRuleError, ShapeMismatchError} | fillings, family


def test_a_cover_across_a_gap_is_no_heap_cover():
    # the heap of 3 1 is an antichain, the cells (1, 1) < (1, 3) a chain
    shape = Shape.from_cells([(1, 1), (1, 3)])
    word = Word((3, 1), 4)
    assert reference(word, shape)[0] is ShapeMismatchError
    with pytest.raises(ShapeMismatchError):
        nu(word, shape)


def separated_by_less(shape: Shape) -> bool:
    """The two-condition rule, the heap check's reference.  Ordered: every
    cover joins adjacent diagonals and every two cells on adjacent diagonals
    are comparable.  Separated: ordered, with some cell of a neighbouring
    diagonal strictly between each two consecutive cells of a diagonal."""
    diagonals = shape.diagonals()
    less = shape.less
    ordered = all(abs((b[1] - b[0]) - (a[1] - a[0])) == 1 for a, b in shape.covers) and all(
        less(x, y) or less(y, x)
        for d in diagonals for x in diagonals[d] for y in diagonals.get(d + 1, ()))
    return ordered and all(
        any(less(x, z) and less(z, y) for z in diagonals.get(d - 1, ()) + diagonals.get(d + 1, ()))
        for d, cells in diagonals.items() for x, y in zip(cells, cells[1:])
    )


def random_cell_sets(count: int) -> list[Shape]:
    """Seeded sets of one to eight cells of a 4 x 4 grid, gaps and all."""
    rng = random.Random("cell sets")
    grid = [(r, c) for r in range(1, 5) for c in range(1, 5)]
    return [Shape.from_cells(rng.sample(grid, rng.randint(1, 8))) for _ in range(count)]


def test_the_heap_check_is_the_two_condition_rule():
    shapes = [*(Shape.right(p) for n in range(1, 10) for p in partitions(n)),
              *(Shape.half_right(p) for n in range(1, 10) for p in strict_partitions(n)),
              *skew_shapes(10), *random_cell_sets(1000)]
    assert len(shapes) == 2711
    heaps_found = 0
    for shape in shapes:
        heap = heaps._shape_side(shape)[2]
        assert heap == separated_by_less(shape), shape
        heaps_found += heap
    assert 0 < heaps_found < len(shapes)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_separated_is_read_off_the_order(family):
    flags = set()
    for shape in FAMILIES[family]:
        separated = heaps._shape_side(shape)[2]
        assert separated == separated_by_less(shape), shape
        flags.add(separated)
        if separated:
            for t in standard_tableaux(shape):
                word = read_word(t)
                assert all(a != b for a, b in zip(word.letters, word.letters[1:])), (t.pos, shape)
                assert nu_inverse(t) == word
    # every gapped shape has a cover across its gap, so none is ordered
    assert flags == ({False} if family == "gaps" else
                     {True, False} if family == "disconnected" else {True}), family


def test_a_shape_that_is_not_separated_reads_back_a_square():
    squares = 0
    for shape in SHAPES["disconnected"]:
        if heaps._shape_side(shape)[2]:
            continue
        for t in standard_tableaux(shape):
            word = read_word(t)
            if any(a == b for a, b in zip(word.letters, word.letters[1:])):
                with pytest.raises(QuadraticRuleError, match="violates the quadratic rule"):
                    nu_inverse(t)
                squares += 1
            else:
                assert nu_inverse(t) == word
    assert squares


def test_separated_shapes_place_their_words_without_stacks(monkeypatch):
    shapes = [shape for shapes in FAMILIES.values() for shape in shapes
              if heaps._shape_side(shape)[2]]
    fillings = [t for shape in shapes for t in standard_tableaux(shape)]
    words = [nu_inverse(t) for t in fillings]

    def forbidden(*args, **kwargs):
        raise AssertionError("nu scanned the column heights")

    monkeypatch.setattr(heaps, "_stacks", forbidden)
    for t, word in zip(fillings, words):
        assert nu(word, t.shape) == t
