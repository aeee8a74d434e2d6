"""Heaps of pieces: the poset of a word and its rotation onto tableaux.

A word's heap is a ``Poset`` whose elements are its pieces, (column, stack
position), listed in that order.  Dropping a piece for each letter,
rightmost letter first, orders them by the masks of ``words._heap_order``
over the letters in drop order; the heap's linear extensions are the
commutation class of the word, and the drop order is one of them.  A class
breaks the quadratic rule (some word in it has a factor ``a a``) exactly
when a piece covers a piece of its own column.  Rotating the heap by 45
degrees matches it with a justified shape: the piece in column c at stack
position p corresponds to the p-th cell (top-down) of the shape's diagonal
c, ``shape_poset`` relabels the shape's cell poset by those pieces, and the
drop order becomes a standard filling.

``nu`` builds no heap of the word: it places the pieces in one pass over
the letters and checks where each lands against the shape's cover masks.
That is exact once the shape is itself a heap, which is checked once per
``Shape``: its cells, dropped in id order as pieces of their columns, must
make a heap with exactly the shape's order.  No cell covers one of its own
diagonal, so then no piece covers one of its own column.  Beside that one
condition the shape keeps its column table (the cell id at each column and
stack position) and each cell id's letter.  ``_stacks`` is the one check of
the quadratic rule, a scan of column heights, kept by letter, in drop
order.  A pass that places every piece on a heap stacks none on its own
column, so ``nu`` then returns the cell ids, the filling's own labels,
without ``_stacks``; off a heap, and for a word the pass cannot place,
``_stacks`` runs before the ``ShapeMismatchError``, so the quadratic rule
is reported first; ``heap_poset`` runs it too.  Only off a heap does
``nu_inverse`` check for ``a a``.  It reads the letters of a filling's ids
and builds its word, as ``nu`` its filling, with ``posets._build``, without
the check that the public constructors keep.
"""

from __future__ import annotations

import json

from .errors import QuadraticRuleError, ShapeMismatchError
from .posets import LinearExtension, Poset, _bits, _build, transitive_reduction
from .tableaux import Shape, Tableau
from .words import Word, _heap_order, _no_square

__all__ = [
    "heap_poset",
    "build_order_extension",
    "shape_poset",
    "nu",
    "nu_inverse",
    "heap_to_json",
]


def _pieces(word: Word) -> list[tuple[int, int]]:
    """Each letter's piece (column, stack position), in drop order."""
    counts: dict[int, int] = {}  # column -> its pieces so far
    pieces = []
    for letter in reversed(word.letters):
        counts[letter] = p = counts.get(letter, 0) + 1
        pieces.append((letter, p))
    return pieces


def _stacks(letters: tuple[int, ...]) -> None:
    """The column-height scan: drop the pieces, rightmost letter first, each
    on the taller neighbouring column.  ``QuadraticRuleError`` names the
    first piece whose own column is taller, one that would rest directly on
    its own column: then some word of the class has a factor ``a a``."""
    tops: dict[int, int] = {}  # column -> its height, so memory follows the word's length
    top = tops.get
    for a in reversed(letters):
        left, right = top(a - 1, 0), top(a + 1, 0)
        height = left if left > right else right
        if top(a, 0) > height:
            raise QuadraticRuleError(
                f"letter {a} stacks on itself; class violates the quadratic rule"
            )
        tops[a] = height + 1


def heap_poset(word: Word) -> Poset:
    """The heap of a word, with covers between adjacent columns only;
    ``QuadraticRuleError`` (``_stacks``) for a class that breaks the
    quadratic rule."""
    _stacks(word.letters)
    elements = sorted(_pieces(word))  # ``_heap_order``'s piece numbering
    _, below = _heap_order(word.letters[::-1])
    return Poset(elements, [(elements[j], elements[i])
                            for i, b in enumerate(below) for j in _bits(b)])


def build_order_extension(word: Word) -> LinearExtension:
    """The extension of the word's heap that lists its pieces in drop order."""
    return LinearExtension(heap_poset(word), tuple(_pieces(word)))


def _shape_side(shape: Shape) -> tuple[list[list[int]], list[int], bool]:
    """The shape's side of ``nu``, built once per shape: ``table[column][p]``
    is the id of the cell at stack position p+1 of that column, its
    normalised diagonal (column 0 is empty), ``letter[i]`` is the column of
    cell id i, and the flag says whether the cells, dropped in id order as
    pieces of their columns, make a heap with exactly the shape's order."""
    if shape._heap is None:
        diagonals, index = shape.diagonals(), shape._index
        shift = 1 - min(diagonals)
        table = [[index[cell] for cell in diagonals.get(c - shift, ())]  # top-down
                 for c in range(max(diagonals) + shift + 1)]
        letter = [c - r + 1 + shift for r, c in shape.cells]  # cell id i is cells[i]
        order, below = _heap_order(tuple(letter))  # piece i is cell id order[i]
        by_id = [0] * len(order)
        for i, b in zip(order, below):
            by_id[i] = sum([1 << order[j] for j in _bits(b)])
        shape._heap = table, letter, transitive_reduction(by_id)[1] == shape._down
    return shape._heap


def shape_poset(shape: Shape) -> Poset:
    """The cell poset of a shape, each cell named by the piece ``nu`` sends
    to it, in column table order."""
    piece = {i: (c, p) for c, column in enumerate(_shape_side(shape)[0])
             for p, i in enumerate(column, start=1)}
    return Poset(list(piece.values()),
                 [(piece[j], piece[i]) for i, b in enumerate(shape._below) for j in _bits(b)])


def nu(word: Word, shape: Shape) -> Tableau:
    """Transport the build order of the word's heap onto the shape's cells.

    On a shape that is a heap, each piece, rightmost letter first, takes its
    column's next stack position, so the cell the column table holds there,
    whose lower covers must already be placed; a pass that places every
    piece is the answer.  Otherwise ``_stacks`` checks the quadratic rule
    before the ``ShapeMismatchError``.
    """
    table, _, heap = _shape_side(shape)
    below, letters = shape._below, word.letters
    if heap and len(letters) == len(below):
        counts, mask, ids = [0] * len(table), 0, []
        try:
            for a in reversed(letters):
                p = counts[a]
                counts[a] = p + 1
                i = table[a][p]
                if below[i] & ~mask:  # a lower cover not yet placed
                    break
                mask |= 1 << i
                ids.append(i)
            else:
                return _build(Tableau, shape, tuple(ids))
        except IndexError:  # a letter past the table, or a full column
            pass
    _stacks(letters)
    raise ShapeMismatchError(f"heap of {word} is not isomorphic to the poset of {shape!r}")


def nu_inverse(t: Tableau) -> Word:
    """Read the word back: letter p from the left is the column (normalised
    diagonal) of the cell holding N+1-p.  A shape that is a heap reads back
    no factor ``a a``; any other, a disconnected skew shape say, can:
    ``QuadraticRuleError``."""
    table, letter, heap = _shape_side(t.shape)
    letters = tuple([letter[i] for i in reversed(t.ids)])
    if not heap:
        _no_square(letters)
    return _build(Word, len(table), letters)


def heap_to_json(poset: Poset) -> str:
    """A heap or shape poset: each element's index and column, and the
    covers as index pairs."""
    return json.dumps(
        {
            "elements": [
                {"id": i, "column": column} for i, (column, _) in enumerate(poset.elements)
            ],
            "covers": sorted([j, i] for i, b in enumerate(poset._below) for j in _bits(b)),
        }
    )
